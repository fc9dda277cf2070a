"""Overt-to-covert transfer learning.

The recurrent body of a source model is frozen and only the dense head is
re-trained on small covert budgets. Because the body never changes, its
features for the whole covert set are computed once and cached. Each head is
then a head-only model over those features (the dropout feeding the source's
head, a copy of its dense layer, softmax), trained by
``training.train_models`` like any other fit; a sweep trains all its heads
in lockstep in one call. This is mathematically identical to running the
full network with frozen layers (body dropout is disabled during
fine-tuning, the head-input dropout still applies), and orders of magnitude
faster.

The source arrives trained (by the CLI's ``train`` step or
``experiments.train_holdout``); scratch baselines use its specs.
"""

import copy
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .containers import FeatureTensor
from .errors import ConfigError, DataError
from .evaluation import bonferroni, paired_t_test
from .network import RECURRENT_KINDS, LayerSpec, RecurrentModel, build_model
from .rng import substream

# train_model stays importable here: perfbench/recorder.py wraps
# transfer.train_model by name
from .training import (  # noqa: F401
    TrainConfig,
    predict_models,
    predict_proba,
    train_model,
    train_models,
)


@dataclass
class TransferPlan:
    budgets: tuple = (0.15, 0.20, 0.25, 0.30)
    test_fraction: float = 0.20
    reinit_head: bool = False
    seeds: tuple = (0, 1, 2, 3, 4)
    fine_tune_max_epochs: int = 40

    def __post_init__(self):
        self.budgets = tuple(float(b) for b in self.budgets)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.budgets:
            raise ConfigError("need at least one budget")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ConfigError(f"budgets must be strictly increasing, got {self.budgets}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        for b in self.budgets:
            if b <= 0 or b + self.test_fraction > 1.0:
                raise ConfigError(
                    f"budget {b} plus test fraction {self.test_fraction} exceeds the dataset"
                )
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.fine_tune_max_epochs < 1:
            raise ConfigError(f"fine_tune_max_epochs must be >= 1, got {self.fine_tune_max_epochs}")


def freeze_recurrent(model: RecurrentModel) -> RecurrentModel:
    """Freeze every recurrent layer in place; the dense head stays trainable.

    Idempotent. Optimizer state for frozen parameters is discarded simply by
    never creating it: Adam state is initialized from trainable parameters
    only.
    """
    for i, spec in enumerate(model.specs):
        if spec.kind in RECURRENT_KINDS:
            model.set_frozen(i, True)
    return model


def nested_budget_indices(labels, budgets, test_fraction: float, seed: int):
    """Stratified test set plus nested budget subsets disjoint from it.

    For one seed, each class is permuted once; the test set takes the first
    ``test_fraction`` per class and every budget takes a prefix of the
    remaining pool, so smaller budgets are subsets of larger ones.
    Returns (test_indices, {budget: indices}).
    """
    labels = np.asarray(labels, dtype=np.int64)
    rng = substream(seed, "budget_split")
    per_class = {}
    test_idx = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_test = int(round(test_fraction * members.size))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.extend(members[:n_test])
        per_class[cls] = members[n_test:]
    budget_sets = {}
    for budget in budgets:
        chosen = []
        for cls, pool in per_class.items():
            n_cls = int(np.count_nonzero(labels == cls))
            n_take = int(round(budget * n_cls))
            if n_take < 1:
                raise DataError(
                    f"budget {budget} leaves class {cls} with no fine-tune trials"
                )
            if n_take > pool.size:
                raise DataError(
                    f"budget {budget} needs {n_take} trials of class {cls}, "
                    f"only {pool.size} outside the test set"
                )
            chosen.extend(pool[:n_take])
        budget_sets[budget] = np.sort(np.asarray(chosen, dtype=np.int64))
    return np.sort(np.asarray(test_idx, dtype=np.int64)), budget_sets


def _head_layers(model: RecurrentModel):
    dense_idx = [i for i, s in enumerate(model.specs) if s.kind == "dense"]
    if len(dense_idx) != 1:
        raise ValueError("transfer expects exactly one dense head")
    i = dense_idx[0]
    # dropout feeding the head: the rate attached to the layer right below it
    head_dropout = model.specs[i - 1].dropout_rate if i > 0 else 0.0
    return i, head_dropout


def head_input_features(model: RecurrentModel, x: np.ndarray, batch_size: int = 32) -> np.ndarray:
    """Eval-mode activations feeding the dense head: the output of a
    body-only model that shares ``model``'s layers below the head."""
    dense_idx, _ = _head_layers(model)
    body = RecurrentModel(model.specs[:dense_idx], model.layers[:dense_idx], model.rng_seed,
                          model.dtype)
    return predict_proba(body, x, batch_size)


def _head_model(source: RecurrentModel, seed: int, reinit_head: bool) -> RecurrentModel:
    """A head-only model over cached body features: the dropout feeding the
    source's head, a trainable copy of its dense layer, softmax. With
    ``reinit_head`` the copy is re-drawn from the ``head_reinit`` substream
    of ``seed``; otherwise it warm-starts from the source weights."""
    dense_idx, head_dropout = _head_layers(source)
    dense = copy.deepcopy(source.layers[dense_idx])
    dense.frozen = False
    if reinit_head:
        rng = substream(seed, "head_reinit")
        limit = np.sqrt(6.0 / sum(dense.params["w"].shape))
        dense.params["w"][...] = rng.uniform(-limit, limit, size=dense.params["w"].shape)
        dense.params["b"][...] = 0.0
    width, n_classes = dense.params["w"].shape
    specs = [
        LayerSpec("dropout", width, width, dropout_rate=head_dropout),
        LayerSpec("dense", width, n_classes),
        LayerSpec("softmax", n_classes, n_classes),
    ]
    return RecurrentModel(specs, [None, dense, None], source.rng_seed, source.dtype)


def _train_heads(frozen, cached, labels, seeds, subsets, tests, config, reinit_head):
    """Fine-tune one head per seed on ``cached[subsets[i]]``, all in lockstep,
    and score each on ``cached[tests[i]]``.

    Returns the heads, their test accuracies and the frozen body's hash
    before and after training.
    """
    heads = [_head_model(frozen, seed, reinit_head) for seed in seeds]
    hash_before = frozen.recurrent_param_hash()
    ft_config = replace(config, patience=0, validation_fraction=0.0)
    train_models(heads, cached, labels, subsets, ft_config, seeds)
    hash_after = frozen.recurrent_param_hash()
    accuracies = [float((head.forward(cached[rows]).argmax(axis=1) == labels[rows]).mean())
                  for head, rows in zip(heads, tests)]
    return heads, accuracies, (hash_before, hash_after)


@dataclass
class FineTuneResult:
    model: RecurrentModel
    accuracy: float
    n_finetune: int
    n_test: int
    recurrent_hash_before: str
    recurrent_hash_after: str


def fine_tune(
    source: RecurrentModel,
    covert: FeatureTensor,
    budget: float,
    test_fraction: float,
    config: TrainConfig,
    seed: int,
    reinit_head: bool = False,
) -> FineTuneResult:
    """Freeze the source body and re-train the dense head on a covert budget.

    The budget subset and the fixed test subset are stratified and disjoint.
    The head warm-starts from the source weights unless ``reinit_head``.
    """
    test_idx, budget_sets = nested_budget_indices(
        covert.labels, [budget], test_fraction, seed
    )
    model = freeze_recurrent(source.clone())
    cached = head_input_features(model, covert.data, config.batch_size)
    (head,), (accuracy,), hashes = _train_heads(
        model, cached, covert.labels, [seed], [budget_sets[budget]], [test_idx], config,
        reinit_head,
    )
    model.layers[_head_layers(model)[0]] = head.layers[1]
    return FineTuneResult(model, accuracy, int(budget_sets[budget].size), int(test_idx.size),
                          *hashes)


def transfer_sweep(
    plan: TransferPlan,
    covert: FeatureTensor,
    source_model: RecurrentModel,
    train_config: TrainConfig = None,
    include_scratch_baseline: bool = True,
) -> dict:
    """Run the budget x seed transfer grid from a trained ``source_model``,
    optionally with scratch baselines of the source's architecture
    (``source_model.specs``).

    Returns a report fragment: per-run accuracies, per-budget summaries,
    pairwise budget t-tests (Bonferroni family = number of budget pairs), and
    transfer-vs-scratch t-tests per budget when baselines are included.
    """
    if train_config is None:
        train_config = TrainConfig()
    payload = {"budgets": list(plan.budgets), "seeds": list(plan.seeds)}
    # the whole grid is drawn before the body pass, so a covert set too
    # small for a budget fails before any model runs
    grid = []  # (seed, budget, fine-tune trials, test trials), one per run
    for seed in plan.seeds:
        test_idx, budget_sets = nested_budget_indices(
            covert.labels, plan.budgets, plan.test_fraction, seed
        )
        grid += [(seed, budget, budget_sets[budget], test_idx) for budget in plan.budgets]
    seeds, _, subsets, tests = zip(*grid)
    frozen = freeze_recurrent(source_model.clone())
    cached = head_input_features(frozen, covert.data, train_config.batch_size)
    _, accuracies, (hash_before, hash_after) = _train_heads(
        frozen, cached, covert.labels, seeds, subsets, tests,
        replace(train_config, max_epochs=plan.fine_tune_max_epochs), plan.reinit_head,
    )
    if hash_before != hash_after:
        raise RuntimeError("freeze contract violated: recurrent parameters changed")
    runs = [
        {
            "budget": budget,
            "seed": seed,
            "transfer_accuracy": accuracy,
            "n_finetune": int(finetune_idx.size),
            "n_test": int(test_idx.size),
            "recurrent_hash_before": hash_before,
            "recurrent_hash_after": hash_after,
        }
        for (seed, budget, finetune_idx, test_idx), accuracy in zip(grid, accuracies)
    ]
    if include_scratch_baseline:
        for budget in plan.budgets:
            cells = [(run, finetune_idx, test_idx)
                     for run, (_, b, finetune_idx, test_idx) in zip(runs, grid) if b == budget]
            _scratch_baselines(budget, cells, covert, source_model.specs, train_config)
    payload["runs"] = runs

    summary = []
    for budget in plan.budgets:
        accs = [r["transfer_accuracy"] for r in runs if r["budget"] == budget]
        entry = {
            "budget": budget,
            "transfer_mean": float(np.mean(accs)),
            "transfer_stdev": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0,
        }
        if include_scratch_baseline:
            scr = [r["scratch_accuracy"] for r in runs if r["budget"] == budget]
            entry["scratch_mean"] = float(np.mean(scr))
            entry["scratch_stdev"] = float(np.std(scr, ddof=1)) if len(scr) > 1 else 0.0
        summary.append(entry)
    payload["summary"] = summary

    if len(plan.seeds) >= 2 and len(plan.budgets) >= 2:
        pairs = list(combinations(plan.budgets, 2))
        family = len(pairs)
        tests = []
        raw_ps = []
        for b1, b2 in pairs:
            a = [r["transfer_accuracy"] for r in runs if r["budget"] == b1]
            b = [r["transfer_accuracy"] for r in runs if r["budget"] == b2]
            t, p = paired_t_test(a, b)
            tests.append({"budget_a": b1, "budget_b": b2, "t": t, "p_raw": p})
            raw_ps.append(p)
        for test, p_corr in zip(tests, bonferroni(raw_ps, family)):
            test["p_corrected"] = p_corr
        payload["budget_t_tests"] = {"family_size": family, "tests": tests}

    if len(plan.seeds) >= 2 and include_scratch_baseline:
        versus = []
        for budget in plan.budgets:
            a = [r["transfer_accuracy"] for r in runs if r["budget"] == budget]
            b = [r["scratch_accuracy"] for r in runs if r["budget"] == budget]
            t, p = paired_t_test(a, b)
            versus.append({"budget": budget, "t": t, "p_raw": p})
        ps = bonferroni([v["p_raw"] for v in versus], len(versus))
        for v, p_corr in zip(versus, ps):
            v["p_corrected"] = p_corr
        payload["transfer_vs_scratch_t_tests"] = versus
    return payload


def _scratch_baselines(budget, cells, covert, layer_specs, train_config):
    """Train one budget's scratch baselines and add their test accuracies.

    The seeds' fine-tune subsets have equal sizes, so their fits train in
    lockstep and share every stacked scan; one budget at a time keeps the
    number of live baseline models at the number of seeds.
    """
    seeds = [_scratch_seed(run["seed"], budget) for run, _, _ in cells]
    models = [build_model(layer_specs, seed=seed) for seed in seeds]
    subsets = [finetune_idx for _, finetune_idx, _ in cells]
    train_models(models, covert.data, covert.labels, subsets, train_config, seeds)
    tests = [test_idx for _, _, test_idx in cells]
    predictions = predict_models(models, covert.data, tests, train_config.batch_size)
    for (run, _, test_idx), y_pred in zip(cells, predictions):
        run["scratch_accuracy"] = float((y_pred == covert.labels[test_idx]).mean())


def _scratch_seed(seed: int, budget: float) -> int:
    return int(seed) * 10000 + int(round(budget * 100))
