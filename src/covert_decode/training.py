"""Training loop: seeded minibatches, Adam updates, validation-plateau early
stopping, and batched evaluation.

Independent fits of one architecture train in lockstep (``train_models``):
each keeps its own data subset, substreams, Adam state and early stopping,
while at every minibatch step the fits whose next batch has the same number
of trials share one stacked forward/backward pass over the network's slot
axis (see ``network.RecurrentLayer``). A partial last batch runs in its own
group and stopped fits drop out; nothing is padded, so every fit ends
bit-identical to training it alone. ``train_model`` is the one-fit case.
Transfer heads are fits too: head-only models over cached body features.

Evaluation (``predict``, ``predict_proba``, ``predict_models``,
``evaluate_accuracy``, validation, and ``transfer.head_input_features``:
``predict_proba`` on a body-only model) cuts each model's trials into chunks
of its batch size and runs up to ``_merge_cap`` consecutive full chunks of
one model as one scan, stacked on the batch axis: as many as keep the pass
within one training step's scan buffers (7 for LSTM, 6 for GRU). The partial
last chunk runs alone. The outputs equal those of one pass per chunk.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .evaluation import stratified_split
from .network import (
    RecurrentLayer,
    RecurrentModel,
    backward_models,
    cross_entropy_mean,
    forward_models,
)
from .optim import adam_step, init_adam
from .rng import substream


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    max_epochs: int = 60
    patience: int = 10
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if self.learning_rate <= 0 or self.epsilon <= 0:
            raise ConfigError("learning_rate and epsilon must be positive")


@dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    history: list = field(default_factory=list)


def predict_proba(model: RecurrentModel, x: np.ndarray, batch_size: int = 32) -> np.ndarray:
    """Eval-mode class probabilities, batched to bound memory."""
    x = np.asarray(x)
    return _predict_proba_models([model], x, [np.arange(x.shape[0])], batch_size)[0]


def predict(model: RecurrentModel, x: np.ndarray, batch_size: int = 32) -> np.ndarray:
    return predict_proba(model, x, batch_size).argmax(axis=1)


def predict_models(models, x, subsets, batch_size: int = 32):
    """Predicted labels of models of one architecture, model ``i`` on the
    trials ``x[subsets[i]]``.

    Equal to ``[predict(m, x[s], batch_size) for m, s in zip(models, subsets)]``:
    the chunks are the same, and the models whose eval pieces hold equally
    many trials share one eval-mode pass (see :func:`_predict_proba_models`).
    """
    probs = _predict_proba_models(models, np.asarray(x), subsets, batch_size)
    return [p.argmax(axis=1) for p in probs]


def _predict_proba_models(models, x, subsets, batch_size):
    """Eval-mode probabilities of each model ``i`` on ``x[subsets[i]]``.

    Each model's trials are cut into chunks of ``batch_size``. Up to
    :func:`_merge_cap` consecutive full chunks of one model run as one pass,
    stacked on the batch axis; the partial last chunk runs alone. At each
    pass the models whose pieces hold equally many trials share one scan,
    in groups capped by STACK_BUDGET_BYTES. A GEMM gives each row the same
    bits whatever its row count (one row excepted, which BLAS rounds as a
    GEMV: a one-trial chunk is never merged), so the outputs equal those of
    running every chunk alone.
    """
    head, n_time = models[0], x.shape[1]
    span = _merge_cap(head, batch_size, n_time) * batch_size
    outs = [[] for _ in models]
    for start in range(0, max(len(rows) for rows in subsets), span):
        full, partial = [], []  # (model, first row, trials)
        for j, rows in enumerate(subsets):
            n = min(span, len(rows) - start)
            if n <= 0:
                continue
            n_full = n - n % batch_size
            if n_full:
                full.append((j, start, n_full))
            if n > n_full:
                partial.append((j, start + n_full, n - n_full))
        for pieces in (full, partial):
            sizes = [n for _, _, n in pieces]
            for group in _stack_groups(pieces, sizes, head, n_time, keep_cache=False):
                batch = [x[subsets[j][lo : lo + n]] for j, lo, n in group]
                results = forward_models([models[j] for j, _, _ in group], batch)
                for (j, _, _), out in zip(group, results):
                    outs[j].append(out)
    # a model without trials gets an empty result of its output's shape
    return [np.concatenate(o, axis=0) if o else forward_models([m], [x[:0]])[0]
            for m, o in zip(models, outs)]


def evaluate_accuracy(model, x, y, batch_size: int = 32) -> float:
    return float((predict(model, x, batch_size) == np.asarray(y)).mean())


def train_step(model: RecurrentModel, x_batch, y_batch, adam_state, dropout_rng):
    """One forward/backward/update on a batch.

    Returns (loss, n_correct); correctness is judged from the same training
    forward pass, so per-epoch accuracy costs nothing extra.
    """
    return _train_steps([model], [x_batch], [y_batch], [adam_state], [dropout_rng])[0]


def _train_steps(models, x_batches, y_batches, adam_states, dropout_rngs):
    """train_step for models of one architecture on equally shaped batches,
    with one shared forward and backward pass."""
    y_batches = [np.asarray(y, dtype=np.int64) for y in y_batches]
    probs = forward_models(models, x_batches, training=True, rngs=dropout_rngs)
    results, dlogits = [], []
    for model, p, y in zip(models, probs, y_batches):
        loss = cross_entropy_mean(p, y)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss: {loss}")
        n = p.shape[0]
        results.append((loss, int((p.argmax(axis=1) == y).sum())))
        d = p.astype(model.dtype, copy=True)
        d[np.arange(n), y] -= 1.0
        d /= n
        dlogits.append(d)
    backward_models(models, dlogits)
    for model, state in zip(models, adam_states):
        adam_step(model.trainable_params(), model.collect_grads(), state)
        model.zero_grads()
    return results


# Scan buffers that stacked fits may hold at once. Lockstep fits train in
# waves just small enough for a full batch of each to share one scan within
# this budget, and eval-mode groups are capped the same way; a lone fit is
# never split. A paper-scale fit exceeds it alone, so such fits train one
# after another and their scan memory stays that of a single fit (the
# models' parameters, one copy per fit, are all live). At desk scale the
# budget lets three bidirectional fits share a step, for about 10 MB more
# peak RSS than training them one by one.
STACK_BUDGET_BYTES = 16 * 2**20


def _stack_groups(items, sizes, model, n_time, keep_cache):
    """Split ``items`` into stackable groups: equal batch ``sizes`` (one per
    item), in order, each within STACK_BUDGET_BYTES."""
    by_size = {}
    for item, size in zip(items, sizes):
        by_size.setdefault(size, []).append(item)
    groups = []
    for size, members in by_size.items():
        cap = _stack_cap(model, size, n_time, keep_cache)
        groups += [members[i : i + cap] for i in range(0, len(members), cap)]
    return groups


def _scan_bytes(model, n_rows, n_time, keep_cache):
    """Bytes of the scan buffers that one pass over ``n_rows`` trials holds."""
    per_state = 0
    for spec, layer in zip(model.specs, model.layers):
        if isinstance(layer, RecurrentLayer):
            # training keeps the T-long gate buffer, the hidden states, the
            # cell (LSTM) or reset-gated (GRU) states and the output
            # gradients; an eval pass keeps only the hidden states (its
            # projections come in blocks of threads.BLOCK_BYTES)
            width = layer.n_gates + 3 if keep_cache else 1
            per_state += layer.n_dir * spec.size * width
    return n_time * n_rows * per_state * model.dtype.itemsize


def _stack_cap(model, n_rows, n_time, keep_cache):
    """How many models' scan buffers for ``n_rows`` trials fit the budget."""
    return max(1, STACK_BUDGET_BYTES // max(1, _scan_bytes(model, n_rows, n_time, keep_cache)))


def _merge_cap(model, batch_size, n_time):
    """How many full eval chunks of ``batch_size`` trials one pass may merge:
    as many as keep its scan buffers within one training step's at that
    batch size (7 for LSTM, 6 for GRU). One-trial chunks are never merged."""
    if batch_size == 1:
        return 1
    train = _scan_bytes(model, batch_size, n_time, keep_cache=True)
    return max(1, train // max(1, _scan_bytes(model, batch_size, n_time, keep_cache=False)))


@dataclass
class _Fit:
    """One model's own training state inside :func:`train_models`.

    ``train_idx`` and ``val_idx`` index the shared trial array.
    """

    model: RecurrentModel
    train_idx: np.ndarray
    val_idx: np.ndarray
    adam: object
    shuffle_rng: object
    dropout_rng: object
    history: list = field(default_factory=list)
    val_accuracy: float = 0.0
    best_val: float = -1.0
    best_epoch: int = 0
    best_params: dict = None
    epochs_run: int = 0
    stopped: bool = False
    batches: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    correct: int = 0

    def finish(self) -> TrainResult:
        """Restore the best-epoch weights and report."""
        if self.best_params is not None:
            current = self.model.trainable_params()
            for key, value in self.best_params.items():
                current[key][...] = value
        return TrainResult(self.epochs_run, self.best_epoch, self.history)


def _start_fit(model, y, rows, config: TrainConfig, seed: int) -> _Fit:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size < 1:
        raise ValueError("need at least one training sample")
    train_idx, val_idx = rows, rows[:0]
    if config.validation_fraction > 0.0 and config.patience > 0:
        local_train, local_val = stratified_split(
            y[rows], config.validation_fraction, substream(seed, "val_split")
        )
        if local_val.size:
            train_idx, val_idx = rows[local_train], rows[local_val]
    adam = init_adam(
        model.trainable_params(),
        learning_rate=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )
    return _Fit(model, train_idx, val_idx, adam,
                substream(seed, "shuffle"), substream(seed, "dropout"))


def _validation_accuracies(fits, x, y, batch_size):
    """Each fit's validation accuracy; equally sized chunks share eval passes."""
    if not fits:
        return []
    if len(fits) == 1:
        # a lone fit takes the public one-model entry point
        f = fits[0]
        return [evaluate_accuracy(f.model, x[f.val_idx], y[f.val_idx], batch_size)]
    labels = predict_models([f.model for f in fits], x, [f.val_idx for f in fits], batch_size)
    return [float((lab == y[f.val_idx]).mean()) for f, lab in zip(fits, labels)]


def train_model(
    model: RecurrentModel,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    seed: int,
) -> TrainResult:
    """Train in place with per-epoch shuffling and Adam.

    When ``validation_fraction`` > 0, a stratified slice of the training data
    is held out; training stops once validation accuracy has not improved for
    ``patience`` epochs and the best-epoch weights are restored. Randomness
    (validation split, shuffling, dropout) is drawn from named substreams of
    ``seed``.
    """
    x = np.asarray(x)
    return train_models([model], x, y, [np.arange(x.shape[0])], config, [seed])[0]


def train_models(models, x, y, subsets, config: TrainConfig, seeds) -> list:
    """Train independent models of one architecture in lockstep, in place.

    Model ``i`` trains on the trials ``x[subsets[i]]`` and ends exactly as
    ``train_model(models[i], x[subsets[i]], y[subsets[i]], config, seeds[i])``
    would: it keeps its own validation split, shuffle and dropout substreams,
    Adam state, early stopping and best-epoch snapshot. Returns one
    TrainResult per model.

    Grouping rule: at each minibatch step, the fits whose next batch has the
    same number of trials share one stacked forward and backward pass (one
    recurrent scan per layer, see :meth:`RecurrentLayer.forward_slots`); at
    each epoch end, validation chunks of equal size share the eval-mode
    passes the same way. A fit with a different batch size (a partial last
    batch) runs in a group of its own and a fit that has stopped early drops
    out. Fits train in waves sized by STACK_BUDGET_BYTES, in the given order,
    so put fits with equal subset sizes next to each other. Nothing is
    padded and rows of different fits never share a GEMM, so the results are
    bit-identical to sequential fits.
    """
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("feature/label count mismatch")
    if not len(models) == len(subsets) == len(seeds):
        raise ValueError("need one subset and one seed per model")
    head = models[0]
    if any(m.specs != head.specs or m.dtype != head.dtype for m in models):
        raise ValueError("lockstep training needs models of one architecture and dtype")
    wave = _stack_cap(head, config.batch_size, x.shape[1], keep_cache=True)
    results = []
    for start in range(0, len(models), wave):
        end = start + wave
        fits = [_start_fit(m, y, rows, config, seed)
                for m, rows, seed in zip(models[start:end], subsets[start:end], seeds[start:end])]
        _train_wave(fits, x, y, config)
        results += [f.finish() for f in fits]
    return results


def _train_wave(fits, x, y, config: TrainConfig):
    n_time = x.shape[1]
    eval_batch = max(config.batch_size, 128)
    for epoch in range(1, config.max_epochs + 1):
        active = [f for f in fits if not f.stopped]
        if not active:
            break
        for f in active:
            f.epochs_run = epoch
            order = f.shuffle_rng.permutation(f.train_idx.size)
            f.batches = [order[start : start + config.batch_size]
                         for start in range(0, order.size, config.batch_size)]
            f.losses, f.correct = [], 0
        for step in range(max(len(f.batches) for f in active)):
            pending = [f for f in active if step < len(f.batches)]
            sizes = [f.batches[step].size for f in pending]
            for group in _stack_groups(pending, sizes, fits[0].model, n_time, keep_cache=True):
                rows = [f.train_idx[f.batches[step]] for f in group]
                if len(group) == 1:
                    # a lone fit takes the public one-model entry point
                    f = group[0]
                    results = [train_step(f.model, x[rows[0]], y[rows[0]], f.adam,
                                          f.dropout_rng)]
                else:
                    results = _train_steps([f.model for f in group], [x[r] for r in rows],
                                           [y[r] for r in rows], [f.adam for f in group],
                                           [f.dropout_rng for f in group])
                for f, (loss, n_correct) in zip(group, results):
                    f.losses.append(loss)
                    f.correct += n_correct

        validating = [f for f in active if f.val_idx.size]
        for f, accuracy in zip(validating, _validation_accuracies(validating, x, y, eval_batch)):
            f.val_accuracy = accuracy

        for f in active:
            entry = {
                "epoch": epoch,
                "train_loss": float(np.mean(f.losses)),
                # running accuracy from the training passes themselves (with
                # dropout active), not a separate full evaluation
                "train_accuracy": f.correct / f.train_idx.size,
            }
            if f.val_idx.size:
                entry["val_accuracy"] = f.val_accuracy
            f.history.append(entry)
            if not f.val_idx.size:
                f.best_epoch = epoch
            elif entry["val_accuracy"] > f.best_val:
                f.best_val = entry["val_accuracy"]
                f.best_epoch = epoch
                f.best_params = {k: v.copy() for k, v in f.model.trainable_params().items()}
            elif epoch - f.best_epoch >= config.patience:
                f.stopped = True
