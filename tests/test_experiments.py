"""Cross-validated runs and report assembly."""

import numpy as np
import pytest

from covert_decode.containers import Condition, FeatureTensor
from covert_decode.evaluation import accuracy_from_confusion, confusion_matrix, stratified_kfold
from covert_decode.experiments import make_report, run_cv, train_holdout
from covert_decode.network import build_model, classifier_specs
from covert_decode.training import TrainConfig, predict, train_model


def class_coded_tensor(n_per_class=10, t_len=12, n_channels=3, n_classes=5, seed=0,
                       separation=2.0):
    rng = np.random.default_rng(seed)
    n = n_per_class * n_classes
    data = 0.3 * rng.standard_normal((n, t_len, 2 * n_channels)).astype(np.float32)
    labels = rng.permutation(np.repeat(np.arange(n_classes), n_per_class))
    for i, cls in enumerate(labels):
        data[i, :, cls % n_channels] += separation
        data[i, :, n_channels + cls % n_channels] += separation * (-1) ** cls
    return FeatureTensor(
        data=data,
        labels=labels,
        condition=Condition.OVERT,
        class_names=[f"c{i}" for i in range(n_classes)],
    )


FAST = TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=25, patience=25,
                   validation_fraction=0.0)


def reference_run_cv(features, layer_specs, train_config, k, seed):
    """run_cv as it was before lockstep training: one fold after another,
    each trained by train_model and tested by predict. Frozen as the oracle
    for the lockstep run_cv."""
    plan = stratified_kfold(features.labels, k, seed)
    fold_entries = []
    pooled = np.zeros((features.n_classes, features.n_classes), dtype=np.int64)
    for fold in range(k):
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        model = build_model(layer_specs, seed=seed * 1000 + fold)
        result = train_model(model, features.data[train_idx], features.labels[train_idx],
                             train_config, seed=seed * 1000 + fold)
        y_pred = predict(model, features.data[test_idx], train_config.batch_size)
        cm = confusion_matrix(features.labels[test_idx], y_pred, features.n_classes)
        pooled += cm
        fold_entries.append({"fold": fold, "accuracy": accuracy_from_confusion(cm),
                             "confusion": cm.tolist(),
                             "n_test": int(test_idx.size), "epochs_run": result.epochs_run,
                             "best_epoch": result.best_epoch})
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


class TestRunCv:
    def test_separable_toy_reaches_95(self):
        tensor = class_coded_tensor()
        specs = classifier_specs("gru", tensor.n_features, hidden=(8,),
                                 dropout=(0.0,), n_classes=5)
        fragment = run_cv(tensor, specs, FAST, k=5, seed=0)
        assert fragment["mean_accuracy"] >= 0.95
        assert len(fragment["folds"]) == 5

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(1)
        accs = []
        for seed in range(5):
            tensor = class_coded_tensor(seed=seed)
            tensor.labels = rng.permutation(tensor.labels)
            specs = classifier_specs("gru", tensor.n_features, hidden=(6,),
                                     dropout=(0.0,), n_classes=5)
            config = TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=6,
                                 validation_fraction=0.0)
            fragment = run_cv(tensor, specs, config, k=5, seed=seed)
            accs.append(fragment["mean_accuracy"])
        assert 0.1 <= np.mean(accs) <= 0.3  # chance band around 0.2

    def test_fold_accuracy_consistent_with_confusion(self):
        tensor = class_coded_tensor(n_per_class=6)
        specs = classifier_specs("lstm", tensor.n_features, hidden=(6,),
                                 dropout=(0.0,), n_classes=5)
        config = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=2,
                             validation_fraction=0.0)
        fragment = run_cv(tensor, specs, config, k=3, seed=2)
        for fold in fragment["folds"]:
            cm = np.array(fold["confusion"])
            assert fold["accuracy"] == pytest.approx(accuracy_from_confusion(cm), abs=1e-12)
            assert cm.sum() == fold["n_test"]
        pooled = np.array(fragment["pooled_confusion"])
        assert pooled.sum() == tensor.n_trials

    def test_deterministic(self):
        tensor = class_coded_tensor(n_per_class=6)
        specs = classifier_specs("gru", tensor.n_features, hidden=(5,),
                                 dropout=(0.1,), n_classes=5)
        config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=2,
                             validation_fraction=0.0)
        a = run_cv(tensor, specs, config, k=3, seed=7)
        b = run_cv(tensor, specs, config, k=3, seed=7)
        assert a == b


    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm", "bigru"])
    def test_matches_sequential_reference(self, kind):
        # 37 trials in 4 folds: unequal fold sizes, partial batches and a
        # validation split with early stopping in every fold
        tensor = class_coded_tensor(n_per_class=8, t_len=6, seed=3)
        tensor.data, tensor.labels = tensor.data[:37], tensor.labels[:37]
        specs = classifier_specs(kind, tensor.n_features, hidden=(5, 4),
                                 dropout=(0.2, 0.1), n_classes=5)
        config = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=8, patience=2,
                             validation_fraction=0.2)
        fragment = run_cv(tensor, specs, config, k=4, seed=5)
        assert fragment == reference_run_cv(tensor, specs, config, k=4, seed=5)


class TestTrainHoldout:
    def test_fragment_shape(self):
        tensor = class_coded_tensor()
        specs = classifier_specs("gru", tensor.n_features, hidden=(8,),
                                 dropout=(0.0,), n_classes=5)
        model, fragment = train_holdout(tensor, specs, FAST, test_fraction=0.2, seed=1)
        assert fragment["n_train"] == 40 and fragment["n_test"] == 10
        assert 0.0 <= fragment["holdout_accuracy"] <= 1.0
        assert model.n_classes == 5


class TestMakeReport:
    def test_envelope_fields(self):
        report = make_report("train", {"seed": 1}, {"x": 2}, seeds=[1, 2])
        assert report["schema"] == 1
        assert report["kind"] == "train"
        assert report["seeds"] == [1, 2]
        assert report["x"] == 2
        assert "timestamp" in report

    def test_timestamp_is_only_varying_field(self):
        a = make_report("train", {"seed": 1}, {"x": 2})
        b = make_report("train", {"seed": 1}, {"x": 2})
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
