"""Experiment orchestration: cross-validated training runs and report
assembly.

Reports are plain dicts serialized with sorted keys, reproducible
byte-for-byte from (data, config, seed); the timestamp lives in a single
top-level field so determinism checks can drop it.
"""

import datetime

import numpy as np

from .containers import FeatureTensor
from .evaluation import accuracy_from_confusion, confusion_matrix, stratified_kfold
from .network import build_model, classifier_specs
from .training import TrainConfig, predict, predict_models, train_model, train_models

REPORT_SCHEMA = 1


def model_specs_from_config(
    kind: str,
    input_size: int,
    hidden=(512, 256),
    dropout=(0.3, 0.2),
    n_classes: int = 5,
    merge_mode: str = "concat",
):
    return classifier_specs(
        kind,
        input_size,
        hidden=tuple(hidden),
        dropout=tuple(dropout),
        n_classes=n_classes,
        merge_mode=merge_mode,
    )


def evaluate_on(model, features: FeatureTensor, indices=None, batch_size: int = 32):
    """Accuracy and confusion matrix of a model on (a subset of) a tensor."""
    if indices is None:
        indices = np.arange(features.n_trials)
    x = features.data[indices]
    y = features.labels[indices]
    y_pred = predict(model, x, batch_size)
    cm = confusion_matrix(y, y_pred, features.n_classes)
    return accuracy_from_confusion(cm), cm


def run_cv(
    features: FeatureTensor,
    layer_specs,
    train_config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    dtype=np.float32,
) -> dict:
    """Stratified k-fold cross-validation of one architecture.

    Each fold trains a fresh model (fold-specific init substream) on the
    other k-1 folds and tests on the held-out fold. The k fits train in
    lockstep (:func:`train_models`) and are tested together
    (:func:`predict_models`); each ends exactly as it would alone. Returns a
    report fragment with per-fold accuracies and confusions plus the pooled
    confusion matrix.
    """
    plan = stratified_kfold(features.labels, k, seed)
    seeds = [_fold_seed(seed, fold) for fold in range(k)]
    train_sets = [plan.train_indices(fold) for fold in range(k)]
    test_sets = [plan.test_indices(fold) for fold in range(k)]
    models = [build_model(layer_specs, seed=fold_seed, dtype=dtype) for fold_seed in seeds]
    results = train_models(
        models, features.data, features.labels, train_sets, train_config, seeds
    )
    predictions = predict_models(models, features.data, test_sets, train_config.batch_size)
    fold_entries = []
    pooled = np.zeros((features.n_classes, features.n_classes), dtype=np.int64)
    for fold, (result, test_idx, y_pred) in enumerate(zip(results, test_sets, predictions)):
        cm = confusion_matrix(features.labels[test_idx], y_pred, features.n_classes)
        pooled += cm
        fold_entries.append(
            {
                "fold": fold,
                "accuracy": accuracy_from_confusion(cm),
                "confusion": cm.tolist(),
                "n_test": int(test_idx.size),
                "epochs_run": result.epochs_run,
                "best_epoch": result.best_epoch,
            }
        )
    accuracies = [f["accuracy"] for f in fold_entries]
    return {
        "k": k,
        "seed": seed,
        "folds": fold_entries,
        "fold_accuracies": accuracies,
        "mean_accuracy": float(np.mean(accuracies)),
        "stdev_accuracy": float(np.std(accuracies, ddof=1)) if k > 1 else 0.0,
        "pooled_confusion": pooled.tolist(),
        "pooled_accuracy": accuracy_from_confusion(pooled),
    }


def _fold_seed(seed: int, fold: int) -> int:
    return int(seed) * 1000 + fold


def train_holdout(
    features: FeatureTensor,
    layer_specs,
    train_config: TrainConfig,
    test_fraction: float = 0.2,
    seed: int = 0,
    dtype=np.float32,
):
    """Train one model on a stratified holdout split; returns (model, fragment)."""
    from .evaluation import holdout_split

    train_idx, test_idx = holdout_split(features.labels, test_fraction, seed)
    model = build_model(layer_specs, seed=seed, dtype=dtype)
    result = train_model(
        model, features.data[train_idx], features.labels[train_idx], train_config, seed=seed
    )
    accuracy, cm = evaluate_on(model, features, test_idx, train_config.batch_size)
    fragment = {
        "test_fraction": test_fraction,
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "holdout_accuracy": accuracy,
        "confusion": cm.tolist(),
        "epochs_run": result.epochs_run,
        "best_epoch": result.best_epoch,
        "seed": seed,
    }
    return model, fragment


def make_report(kind: str, config: dict, payload: dict, inputs=None, seeds=None) -> dict:
    """Wrap a payload in the versioned report envelope.

    The timestamp is the only non-reproducible field; everything else is a
    pure function of data, config, and seeds.
    """
    report = {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": dict(config),
    }
    if seeds is not None:
        report["seeds"] = list(int(s) for s in np.atleast_1d(seeds))
    if inputs:
        report["inputs"] = inputs
    report.update(payload)
    return report
