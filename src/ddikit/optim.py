"""Adam optimizer with classic coupled L2 weight decay.

Weight decay is added to the gradient before the moment updates (the
"Adam with L2" formulation, not the decoupled variant); the choice is a
config field so it can be switched off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter


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


# An overflow shows as a non-finite v or update, which adam_step raises on.
@np.errstate(over="ignore", invalid="ignore")
def adam_step(params: dict[str, Parameter], state: AdamState):
    """One Adam update over all parameters with populated gradients.

    The moments are kept in each parameter's dtype, and ``m``, ``v`` and
    ``p.data`` are updated in place, so a float32 model makes no float64
    copies. In float64 this is the arithmetic of the textbook recurrence,
    operation for operation. Raises ``FloatingPointError`` naming the
    parameter, before its ``p.data`` changes, when its gradient, its ``v``
    or its update is not finite (in float32, ``g * g`` can overflow)."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"NaN/Inf gradient for parameter {name!r}")
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
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
