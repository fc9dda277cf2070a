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
    bonferroni,
    confusion_matrix,
    holdout_split,
    paired_t_test,
    stratified_kfold,
)
from .features import envelope_correlation, extract_features, hilbert_parts
from .ica import fastica_decompose, ica_reconstruct
from .network import (
    LayerSpec,
    RecurrentModel,
    build_model,
    classifier_specs,
)
from .optim import adam_step, init_adam
from .preprocessing import (
    design_butterworth_bandpass,
    design_notch,
    epoch_and_baseline,
    filter_zero_phase,
)
from .synth import SynthSpec, generate_paired, write_manifest
from .training import TrainConfig, train_model
from .transfer import TransferPlan, transfer_sweep

__version__ = "0.1.0"

__all__ = [
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
    "FilterDesignError",
    "LayerSpec",
    "NumericError",
    "RecurrentModel",
    "SynthSpec",
    "TrainConfig",
    "TransferPlan",
    "adam_step",
    "bonferroni",
    "build_model",
    "classifier_specs",
    "confusion_matrix",
    "design_butterworth_bandpass",
    "design_notch",
    "envelope_correlation",
    "epoch_and_baseline",
    "extract_features",
    "fastica_decompose",
    "filter_zero_phase",
    "generate_paired",
    "hilbert_parts",
    "holdout_split",
    "ica_reconstruct",
    "init_adam",
    "paired_t_test",
    "stratified_kfold",
    "train_model",
    "transfer_sweep",
    "write_manifest",
]
