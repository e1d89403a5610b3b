"""Adam optimizer with classic coupled L2 weight decay.

Weight decay is added to the gradient before the moment updates (the
"Adam with L2" formulation, not the decoupled variant); the choice is a
config field so it can be switched off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .autodiff import Parameter

# Each worker updates at least this many bytes of parameters: below it, the
# thread costs more than it saves, as an update of a small array is mostly
# interpreter time, which one lock serialises. On 2 cores a 6.7 MB model ran
# slower on 2 workers (6.9 vs 6.0 ms a step), a 9.5 MB one faster (6.3 vs
# 7.3 ms) and the 29 MB paper model 23.4 -> 14.0 ms.
RUN_BYTES = 4 << 20


@dataclass
class AdamState:
    learning_rate: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


# An overflow shows as a non-finite v or update, which _adam_update raises on.
@np.errstate(over="ignore", invalid="ignore")
def adam_step(params: dict[str, Parameter], state: AdamState):
    """One Adam update over all parameters with populated gradients.

    The moments are kept in each parameter's dtype, and ``m``, ``v`` and
    ``p.data`` are updated in place, so a float32 model makes no float64
    copies. In float64 this is the arithmetic of the textbook recurrence,
    operation for operation.

    The parameters are cut, in dict order, into contiguous runs of about
    equal bytes, at most one per worker (``blas.workers``: one per thread
    OpenBLAS started with) and at least ``RUN_BYTES`` each, and the runs
    update at once, one thread each. Each parameter gets the same arithmetic
    however the runs fall, so the results do not depend on them.

    Raises ``FloatingPointError`` naming the first parameter in dict order
    whose gradient, ``v`` or update is not finite (in float32, ``g * g`` can
    overflow), before that parameter's ``p.data`` changes: each run stops at
    its first bad parameter, and the first failing run's error is raised.
    Parameters later in dict order, in another run, may have been updated."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    named = [(name, p) for name, p in params.items() if p.grad is not None]
    for name, p in named:
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
    total = sum(p.data.nbytes for _, p in named)
    count = max(1, min(blas.workers(len(named)), total // RUN_BYTES))
    runs, start = [[] for _ in range(count)], 0
    for name, p in named:
        runs[min(count - 1, start * count // max(total, 1))].append((name, p))
        start += p.data.nbytes

    def update(run):
        for name, p in run:
            _adam_update(name, p, state, bc1, bc2)

    blas.map_in_threads(update, runs)


def _adam_update(name: str, p: Parameter, state: AdamState, bc1: float, bc2: float):
    g = p.grad
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"NaN/Inf gradient for parameter {name!r}")
    if state.weight_decay:
        g = g + state.weight_decay * p.data
    m = state.m[name]
    v = state.v[name]
    m *= state.beta1
    tmp = np.multiply(1.0 - state.beta1, g)
    m += tmp
    v *= state.beta2
    np.multiply(1.0 - state.beta2, g, out=tmp)
    tmp *= g
    v += tmp
    # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), with tmp as the denominator
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.epsilon
    update = np.divide(m, bc1)
    update *= state.learning_rate
    update /= tmp
    if not (np.isfinite(v).all() and np.isfinite(update).all()):
        raise FloatingPointError(f"non-finite Adam moment or update for parameter {name!r}")
    p.data -= update


def zero_grads(params: dict[str, Parameter]):
    for p in params.values():
        p.grad = None
