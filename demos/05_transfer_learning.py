#!/usr/bin/env python3
"""Freeze-then-fine-tune transfer from overt to covert data.

Trains a small bidirectional LSTM on an 80:20 split of the overt half of a
synthetic subject (``train_holdout``), then hands it to ``transfer_sweep``.
The sweep runs the source's frozen recurrent body over the covert set once
and caches the features it feeds the dense head, re-trains only the head on
those features for growing covert budgets, and compares against training
the source's architecture from scratch on each budget. Paired t-tests
(Bonferroni-corrected) compare the budgets.
"""

import numpy as np

from covert_decode.experiments import train_holdout
from covert_decode.features import extract_features
from covert_decode.network import classifier_specs
from covert_decode.synth import SynthSpec, generate_paired
from covert_decode.training import TrainConfig
from covert_decode.transfer import TransferPlan, transfer_sweep


def main():
    spec = SynthSpec(
        n_channels=8,
        trials_per_class=30,
        sample_rate_hz=250.0,
        epoch_seconds=0.8,
        cross_condition_rho=0.8,
        seed=5,
    )
    overt, covert, _ = generate_paired(spec)
    fo = extract_features(overt)
    fc = extract_features(covert)
    fo.data = fo.data.astype(np.float32)
    fc.data = fc.data.astype(np.float32)

    specs = classifier_specs("bilstm", fo.n_features, hidden=(16, 8),
                             dropout=(0.3, 0.2), n_classes=5)
    config = TrainConfig(learning_rate=2e-3, batch_size=16, max_epochs=20,
                         patience=5, validation_fraction=0.1)
    plan = TransferPlan(budgets=(0.15, 0.20, 0.25, 0.30), seeds=(0, 1, 2),
                        fine_tune_max_epochs=25)

    source, src = train_holdout(fo, specs, config, test_fraction=plan.test_fraction,
                                seed=plan.seeds[0])
    payload = transfer_sweep(plan, fc, source, train_config=config)
    print(f"source model: holdout accuracy {src['holdout_accuracy']:.3f} "
          f"after {src['epochs_run']} epochs\n")

    print(f"{'budget':>7} {'transfer':>16} {'from scratch':>16}")
    for row in payload["summary"]:
        print(f"{row['budget']:>7.2f} "
              f"{row['transfer_mean']:.3f} +/- {row['transfer_stdev']:.3f} "
              f"   {row['scratch_mean']:.3f} +/- {row['scratch_stdev']:.3f}")

    print("\npairwise budget comparisons (transfer accuracy, "
          f"Bonferroni family of {payload['budget_t_tests']['family_size']}):")
    for test in payload["budget_t_tests"]["tests"]:
        print(f"  {test['budget_a']:.2f} vs {test['budget_b']:.2f}: "
              f"t={test['t']:+.2f} p_corrected={test['p_corrected']:.3f}")

    print("\nfreeze contract: recurrent hashes identical in "
          f"{sum(r['recurrent_hash_before'] == r['recurrent_hash_after'] for r in payload['runs'])}"
          f"/{len(payload['runs'])} runs")


if __name__ == "__main__":
    main()
