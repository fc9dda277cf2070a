"""Overt-to-covert transfer learning.

The recurrent body of a source model is frozen and only the dense head is
re-trained on small covert budgets. ``transfer_sweep`` is the one entry
point: because the body never changes, it runs the body over the whole
covert set once and caches its features. Each head of the budget x seed
grid is a head-only model over those features (the dropout feeding the
source's head, a copy of its dense layer, softmax), and all the heads train
in lockstep in one ``training.train_models`` call. This is mathematically
identical to running the full network with frozen layers (body dropout is
disabled during fine-tuning, the head-input dropout still applies), and
orders of magnitude faster.

The source arrives trained (by the CLI's ``train`` step or
``experiments.train_holdout``); scratch baselines use its specs.
"""

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .containers import FeatureTensor
from .errors import ConfigError, DataError
from .evaluation import bonferroni, paired_t_test
from .network import LayerSpec, RecurrentModel, build_model, init_params
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
    body-only model over ``model``'s arrays below the head."""
    dense_idx, _ = _head_layers(model)
    params = [None if layer is None else layer.params for layer in model.layers[:dense_idx]]
    body = RecurrentModel(model.specs[:dense_idx], params, model.rng_seed)
    return predict_proba(body, x, batch_size)


def _head_model(source: RecurrentModel, seed: int, reinit_head: bool) -> RecurrentModel:
    """A head-only model over cached body features: the dropout feeding the
    source's head, a trainable copy of its dense layer, softmax. With
    ``reinit_head`` the copy is re-drawn from the ``head_reinit`` substream
    of ``seed``; otherwise it warm-starts from the source weights."""
    dense_idx, head_dropout = _head_layers(source)
    width = source.specs[dense_idx].input_size
    n_classes = source.specs[dense_idx].size
    specs = [LayerSpec("dropout", width, width, dropout_rate=head_dropout),
             LayerSpec("dense", width, n_classes), LayerSpec("softmax", n_classes, n_classes)]
    if reinit_head:
        params = init_params(specs[1], substream(seed, "head_reinit"), source.dtype)
    else:
        params = {name: arr.copy() for name, arr in source.layers[dense_idx].params.items()}
    return RecurrentModel(specs, [None, params, None], source.rng_seed)


def transfer_sweep(
    plan: TransferPlan,
    covert: FeatureTensor,
    source_model: RecurrentModel,
    train_config: TrainConfig,
    include_scratch_baseline: bool = True,
) -> dict:
    """Run the budget x seed transfer grid from a trained ``source_model``,
    optionally with scratch baselines of the source's architecture
    (``source_model.specs``).

    Each cell's head warm-starts from the source's dense layer unless
    ``plan.reinit_head``; its fine-tune and test subsets are stratified and
    disjoint. Returns a report fragment: per-run accuracies, per-budget
    summaries, pairwise budget t-tests (Bonferroni family = number of budget
    pairs), and transfer-vs-scratch t-tests per budget with baselines.
    """
    payload = {"budgets": list(plan.budgets), "seeds": list(plan.seeds)}
    # the whole grid is drawn before the body pass, so a covert set too
    # small for a budget fails before any model runs
    grid = []  # (seed, budget, fine-tune trials, test trials), one per run
    for seed in plan.seeds:
        test_idx, budget_sets = nested_budget_indices(
            covert.labels, plan.budgets, plan.test_fraction, seed
        )
        grid += [(seed, budget, budget_sets[budget], test_idx) for budget in plan.budgets]
    seeds, _, subsets, _ = zip(*grid)
    # the heads own copies of the dense arrays and the body pass only reads
    # the recurrent ones, so the source itself is hashed around the head fits
    cached = head_input_features(source_model, covert.data, train_config.batch_size)
    heads = [_head_model(source_model, seed, plan.reinit_head) for seed in seeds]
    hash_before = source_model.recurrent_param_hash()
    ft_config = replace(train_config, max_epochs=plan.fine_tune_max_epochs, patience=0,
                        validation_fraction=0.0)
    train_models(heads, cached, covert.labels, subsets, ft_config, seeds)
    hash_after = source_model.recurrent_param_hash()
    if hash_before != hash_after:
        raise RuntimeError("freeze contract violated: recurrent parameters changed")
    runs = [
        {
            "budget": budget,
            "seed": seed,
            "transfer_accuracy": float((head.forward(cached[test_idx]).argmax(axis=1)
                                        == covert.labels[test_idx]).mean()),
            "n_finetune": int(finetune_idx.size),
            "n_test": int(test_idx.size),
            "recurrent_hash_before": hash_before,
            "recurrent_hash_after": hash_after,
        }
        for (seed, budget, finetune_idx, test_idx), head in zip(grid, heads)
    ]
    kinds = ["transfer"]
    if include_scratch_baseline:
        kinds.append("scratch")
        for budget in plan.budgets:
            cells = [(run, finetune_idx, test_idx)
                     for run, (_, b, finetune_idx, test_idx) in zip(runs, grid) if b == budget]
            _scratch_baselines(budget, cells, covert, source_model.specs, train_config)
    payload["runs"] = runs

    # {kind: {budget: accuracies in seed order}}, read by every statistic
    accs = {kind: {b: [run[f"{kind}_accuracy"] for run in runs if run["budget"] == b]
                   for b in plan.budgets} for kind in kinds}
    summary = []
    for budget in plan.budgets:
        entry = {"budget": budget}
        for kind in kinds:
            values = accs[kind][budget]
            entry[f"{kind}_mean"] = float(np.mean(values))
            entry[f"{kind}_stdev"] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        summary.append(entry)
    payload["summary"] = summary

    transfer = accs["transfer"]
    if len(plan.seeds) >= 2 and len(plan.budgets) >= 2:
        tests = _t_tests(({"budget_a": b1, "budget_b": b2}, transfer[b1], transfer[b2])
                         for b1, b2 in combinations(plan.budgets, 2))
        payload["budget_t_tests"] = {"family_size": len(tests), "tests": tests}
    if len(plan.seeds) >= 2 and include_scratch_baseline:
        payload["transfer_vs_scratch_t_tests"] = _t_tests(
            ({"budget": budget}, transfer[budget], accs["scratch"][budget])
            for budget in plan.budgets
        )
    return payload


def _t_tests(cells):
    """Paired t-tests of ``(fields, a, b)`` cells, one family: each test is
    ``fields`` plus ``t``, ``p_raw`` and the Bonferroni ``p_corrected``."""
    tests = []
    for fields, a, b in cells:
        t, p = paired_t_test(a, b)
        tests.append({**fields, "t": t, "p_raw": p})
    for test, p_corr in zip(tests, bonferroni([test["p_raw"] for test in tests], len(tests))):
        test["p_corrected"] = p_corr
    return tests


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
