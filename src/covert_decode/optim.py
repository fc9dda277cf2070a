"""Adam optimizer over named parameter dictionaries."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """First/second moment accumulators for the trainable parameters only."""

    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(
    params: dict,
    learning_rate: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    state = AdamState(learning_rate, beta1, beta2, epsilon)
    for key, value in params.items():
        state.m[key] = np.zeros_like(value)
        state.v[key] = np.zeros_like(value)
    return state


def adam_step(params: dict, grads: dict, state: AdamState):
    """One Adam update, in place on the parameter arrays.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  with bias correction
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).

    ``m_hat``, ``v_hat`` and the other terms are built in two scratch buffers
    sized to the largest parameter and shared by every key, with the float32
    operations and their order of the expressions above, so the update
    allocates no parameter-sized array per key.

    Parameters without a gradient entry this step are left untouched, but the
    step counter always advances by exactly one.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for key in grads:
        if key not in state.m:
            raise KeyError(f"gradient for unknown parameter {key!r}")
    nbytes = max((params[key].nbytes for key in grads), default=0)
    scratch_a, scratch_b = np.empty(nbytes, np.uint8), np.empty(nbytes, np.uint8)
    for key, grad in grads.items():
        param = params[key]
        grad = np.asarray(grad, dtype=param.dtype)
        m = state.m[key]
        v = state.v[key]
        a = np.ndarray(param.shape, param.dtype, scratch_a)
        b = np.ndarray(param.shape, param.dtype, scratch_b)
        m *= b1
        np.multiply(1.0 - b1, grad, out=a)
        m += a
        v *= b2
        np.multiply(1.0 - b2, grad, out=a)
        a *= grad
        v += a
        np.divide(m, bias1, out=a)  # m_hat
        np.divide(v, bias2, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += state.epsilon
        a *= state.learning_rate  # lr * m_hat
        a /= b
        param -= a
    return params, state
