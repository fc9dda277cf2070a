"""Overt-to-covert transfer learning.

The recurrent body of a source model is frozen and only the dense head is
re-trained on small covert budgets. Because the body never changes, its
features for the whole covert set are computed once and cached; head
training on cached features is mathematically identical to running the full
network with frozen layers (body dropout is disabled during fine-tuning, the
head-input dropout still applies), and orders of magnitude faster.
"""

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .containers import FeatureTensor
from .errors import NumericError
from .evaluation import bonferroni, paired_t_test
from .experiments import train_holdout
from .network import (
    RECURRENT_KINDS,
    RecurrentModel,
    _dropout_mask,
    build_model,
    cross_entropy_mean,
    softmax,
)
from .optim import adam_step, init_adam
from .rng import substream

# train_model stays importable here: perfbench/recorder.py wraps
# transfer.train_model by name
from .training import TrainConfig, predict_models, train_model, train_models  # noqa: F401


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
            raise ValueError("need at least one budget")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError(f"budgets must be strictly increasing, got {self.budgets}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        for b in self.budgets:
            if b <= 0 or b + self.test_fraction > 1.0:
                raise ValueError(
                    f"budget {b} plus test fraction {self.test_fraction} exceeds the dataset"
                )
        if not self.seeds:
            raise ValueError("need at least one seed")


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
                raise ValueError(
                    f"budget {budget} leaves class {cls} with no fine-tune trials"
                )
            if n_take > pool.size:
                raise ValueError(
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
    """Eval-mode activations feeding the dense head, batched."""
    dense_idx, _ = _head_layers(model)
    chunks = []
    for start in range(0, x.shape[0], batch_size):
        out = np.asarray(x[start : start + batch_size], dtype=model.dtype)
        for spec, layer in zip(model.specs[:dense_idx], model.layers[:dense_idx]):
            if layer is not None:
                out = layer.forward(out, training=False)
        chunks.append(out)
    return np.concatenate(chunks, axis=0)


def _train_head_on_cached(
    model: RecurrentModel,
    cached: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    seed: int,
    head_dropout: float,
):
    """Train only the dense head on cached body features."""
    dense_idx, _ = _head_layers(model)
    dense = model.layers[dense_idx]
    w, b = dense.params["w"], dense.params["b"]
    params = {"w": w, "b": b}
    state = init_adam(
        params,
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )
    shuffle_rng = substream(seed, "shuffle")
    dropout_rng = substream(seed, "dropout")
    labels = np.asarray(labels, dtype=np.int64)
    n = cached.shape[0]
    for _ in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = cached[idx]
            if head_dropout > 0.0:
                xb = xb * _dropout_mask(xb.shape, head_dropout, dropout_rng, xb.dtype)
            probs = softmax(xb @ w + b)
            loss = cross_entropy_mean(probs, labels[idx])
            if not np.isfinite(loss):
                raise NumericError(f"non-finite fine-tune loss: {loss}")
            d = probs.astype(w.dtype, copy=True)
            d[np.arange(len(idx)), labels[idx]] -= 1.0
            d /= len(idx)
            adam_step(params, {"w": xb.T @ d, "b": d.sum(axis=0)}, state)


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
    return _fine_tune_with_indices(
        source, covert, budget_sets[budget], test_idx, config, seed, reinit_head
    )


def _fine_tune_with_indices(
    source, covert, finetune_idx, test_idx, config, seed, reinit_head, cached_features=None
):
    if np.intersect1d(finetune_idx, test_idx).size:
        raise ValueError("fine-tune and test subsets overlap")
    model = freeze_recurrent(source.clone())
    dense_idx, head_dropout = _head_layers(model)
    if reinit_head:
        rng = substream(seed, "head_reinit")
        dense = model.layers[dense_idx]
        limit = np.sqrt(6.0 / sum(dense.params["w"].shape))
        dense.params["w"][...] = rng.uniform(-limit, limit, size=dense.params["w"].shape)
        dense.params["b"][...] = 0.0

    hash_before = model.recurrent_param_hash()
    if cached_features is None:
        cached_features = head_input_features(model, covert.data, config.batch_size)
    ft_config = replace(config, patience=0, validation_fraction=0.0)
    _train_head_on_cached(
        model,
        cached_features[finetune_idx],
        covert.labels[finetune_idx],
        ft_config,
        seed,
        head_dropout,
    )
    hash_after = model.recurrent_param_hash()

    dense = model.layers[dense_idx]
    probs = softmax(cached_features[test_idx] @ dense.params["w"] + dense.params["b"])
    accuracy = float((probs.argmax(axis=1) == covert.labels[test_idx]).mean())
    return FineTuneResult(
        model=model,
        accuracy=accuracy,
        n_finetune=int(finetune_idx.size),
        n_test=int(test_idx.size),
        recurrent_hash_before=hash_before,
        recurrent_hash_after=hash_after,
    )


def transfer_sweep(
    plan: TransferPlan,
    covert: FeatureTensor,
    source_model: RecurrentModel = None,
    overt: FeatureTensor = None,
    layer_specs=None,
    train_config: TrainConfig = None,
    include_scratch_baseline: bool = True,
) -> dict:
    """Run the budget x seed transfer grid, optionally with scratch baselines.

    Either pass a trained ``source_model`` or provide ``overt`` features plus
    ``layer_specs`` so the source is trained here on an 80:20 split. Returns
    a report fragment: per-run accuracies, per-budget summaries, pairwise
    budget t-tests (Bonferroni family = number of budget pairs), and
    transfer-vs-scratch t-tests per budget when baselines are included.
    """
    if train_config is None:
        train_config = TrainConfig()
    payload = {"budgets": list(plan.budgets), "seeds": list(plan.seeds)}

    if source_model is None:
        if overt is None or layer_specs is None:
            raise ValueError("need either source_model or (overt features + layer_specs)")
        source_model, source_fragment = train_holdout(
            overt, layer_specs, train_config, test_fraction=plan.test_fraction, seed=plan.seeds[0]
        )
        payload["source"] = source_fragment
    if layer_specs is None:
        layer_specs = source_model.specs

    frozen = freeze_recurrent(source_model.clone())
    cached = head_input_features(frozen, covert.data, train_config.batch_size)
    ft_config = replace(
        train_config,
        max_epochs=plan.fine_tune_max_epochs,
        patience=0,
        validation_fraction=0.0,
    )

    runs = []
    cells = {budget: [] for budget in plan.budgets}  # (run, fine-tune and test trials)
    for seed in plan.seeds:
        test_idx, budget_sets = nested_budget_indices(
            covert.labels, plan.budgets, plan.test_fraction, seed
        )
        for budget in plan.budgets:
            ft = _fine_tune_with_indices(
                frozen,
                covert,
                budget_sets[budget],
                test_idx,
                ft_config,
                seed,
                plan.reinit_head,
                cached_features=cached,
            )
            if ft.recurrent_hash_before != ft.recurrent_hash_after:
                raise RuntimeError("freeze contract violated: recurrent parameters changed")
            run = {
                "budget": budget,
                "seed": seed,
                "transfer_accuracy": ft.accuracy,
                "n_finetune": ft.n_finetune,
                "n_test": ft.n_test,
                "recurrent_hash_before": ft.recurrent_hash_before,
                "recurrent_hash_after": ft.recurrent_hash_after,
            }
            cells[budget].append((run, budget_sets[budget], test_idx))
            runs.append(run)
    if include_scratch_baseline:
        for budget, budget_cells in cells.items():
            _scratch_baselines(budget, budget_cells, covert, layer_specs, train_config)
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
