"""EEG speech decoding toolkit.

Preprocessing (IIR filters, FastICA, epoching), Hilbert envelope and
temporal-fine-structure features, recurrent classifiers built on numpy with
full BPTT, cross-validated evaluation with paired statistics, and
overt-to-covert transfer learning with frozen recurrent layers.
"""

from .containers import Condition, EegRecording, EpochSet, FeatureTensor
from .errors import (
    ConfigError,
    CovertDecodeError,
    DataError,
    DegenerateInputError,
    EpochingError,
    FileFormatError,
    FilterDesignError,
    NumericError,
)
from .evaluation import (
    FoldPlan,
    bonferroni,
    confusion_matrix,
    holdout_split,
    paired_t_test,
    stratified_kfold,
)
from .features import (
    AnalyticSignal,
    analytic_signal,
    envelope,
    envelope_correlation,
    extract_features,
    fine_structure,
)
from .ica import IcaDecomposition, fastica_decompose, ica_reconstruct
from .network import (
    LayerSpec,
    RecurrentModel,
    build_model,
    classifier_specs,
    softmax,
)
from .optim import AdamState, adam_step, init_adam
from .preprocessing import (
    FilterCoefficients,
    design_butterworth_bandpass,
    design_notch,
    epoch_and_baseline,
    filter_zero_phase,
)
from .synth import SynthSpec, generate_paired, write_manifest
from .training import TrainConfig, train_model
from .transfer import TransferPlan, freeze_recurrent, transfer_sweep

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AnalyticSignal",
    "Condition",
    "ConfigError",
    "CovertDecodeError",
    "DataError",
    "DegenerateInputError",
    "EegRecording",
    "EpochSet",
    "EpochingError",
    "FeatureTensor",
    "FileFormatError",
    "FilterCoefficients",
    "FilterDesignError",
    "FoldPlan",
    "IcaDecomposition",
    "LayerSpec",
    "NumericError",
    "RecurrentModel",
    "SynthSpec",
    "TrainConfig",
    "TransferPlan",
    "adam_step",
    "analytic_signal",
    "bonferroni",
    "build_model",
    "classifier_specs",
    "confusion_matrix",
    "design_butterworth_bandpass",
    "design_notch",
    "envelope",
    "envelope_correlation",
    "epoch_and_baseline",
    "extract_features",
    "fastica_decompose",
    "filter_zero_phase",
    "fine_structure",
    "freeze_recurrent",
    "generate_paired",
    "holdout_split",
    "ica_reconstruct",
    "init_adam",
    "paired_t_test",
    "softmax",
    "stratified_kfold",
    "train_model",
    "transfer_sweep",
    "write_manifest",
]
