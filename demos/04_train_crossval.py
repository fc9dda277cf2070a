#!/usr/bin/env python3
"""Cross-validated training of the four recurrent classifiers.

Runs a small synthetic subject through feature extraction and 3-fold
cross-validation for each architecture, then prints the per-model table.
Sizes are trimmed well below the full protocol so the demo finishes in a
couple of minutes on one core.
"""

import numpy as np

from covert_decode.experiments import run_cv
from covert_decode.features import extract_features
from covert_decode.network import classifier_specs
from covert_decode.synth import SynthSpec, generate_paired
from covert_decode.training import TrainConfig


def main():
    spec = SynthSpec(
        n_channels=8,
        trials_per_class=12,
        sample_rate_hz=250.0,
        epoch_seconds=0.8,
        noise_sigma=0.4,
        seed=2,
    )
    overt, _, _ = generate_paired(spec)
    features = extract_features(overt)
    features.data = features.data.astype(np.float32)
    print(f"features: {features.data.shape} (trials x time x env||tfs columns)\n")

    config = TrainConfig(
        learning_rate=2e-3, batch_size=16, max_epochs=12, patience=4,
        validation_fraction=0.1,
    )
    print(f"{'model':>8} {'mean acc':>9} {'stdev':>7} {'per-fold':>24}")
    for kind in ("lstm", "gru", "bilstm", "bigru"):
        specs = classifier_specs(
            kind, features.n_features, hidden=(12, 8), dropout=(0.3, 0.2), n_classes=5
        )
        fragment = run_cv(features, specs, config, k=3, seed=1)
        folds = " ".join(f"{a:.2f}" for a in fragment["fold_accuracies"])
        print(
            f"{kind:>8} {fragment['mean_accuracy']:>9.3f} "
            f"{fragment['stdev_accuracy']:>7.3f} {folds:>24}"
        )
    print("\nchance level for 5 classes: 0.20")


if __name__ == "__main__":
    main()
