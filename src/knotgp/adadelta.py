"""ADADELTA ascent over an unconstrained parameter vector.

The update keeps decayed accumulators of squared gradients and squared
updates; the ratio of their root means sets a per-coordinate step whose
units match the parameters, so no global learning rate is needed. Everything
here is phrased as maximization to match the objective conventions of the
rest of the package.

The recurrence is written once, in a private helper shared by the public
single-step :func:`adadelta_step`, which validates its arguments on every
call, and by :func:`maximize`, which keeps the accumulators as local arrays
and checks shapes once, so each of its steps costs a handful of array
operations plus the gradient finiteness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import NumericalError


@dataclass(frozen=True)
class OptimizerConfig:
    rho: float = 0.95
    epsilon: float = 1e-6
    max_steps: int = 1000
    rel_tol: float = 1e-5
    patience: int = 10

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")


@dataclass
class OptimState:
    sq_grad: np.ndarray      # decayed E[g^2]
    sq_update: np.ndarray    # decayed E[delta^2]
    step_count: int = 0

    @classmethod
    def zeros(cls, n: int) -> "OptimState":
        return cls(np.zeros(n), np.zeros(n), 0)


def _update(sq_grad, sq_update, grad, rho: float, eps: float):
    """The ADADELTA recurrence: (new E[g^2], new E[delta^2], step). Makes no
    checks and mutates nothing."""
    sq_grad = rho * sq_grad + (1.0 - rho) * grad ** 2
    step = np.sqrt(sq_update + eps) / np.sqrt(sq_grad + eps) * grad
    sq_update = rho * sq_update + (1.0 - rho) * step ** 2
    return sq_grad, sq_update, step


def adadelta_step(state: OptimState, params, grad, config: OptimizerConfig):
    """One ascent step; returns (new state, new params). Inputs are not mutated."""
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape or params.shape != state.sq_grad.shape:
        raise ValueError("parameter, gradient and accumulator lengths must agree")
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient passed to adadelta_step")
    sq_grad, sq_update, step = _update(state.sq_grad, state.sq_update, grad,
                                       config.rho, config.epsilon)
    return OptimState(sq_grad, sq_update, state.step_count + 1), params + step


@dataclass
class MaximizeResult:
    x: np.ndarray            # best-seen parameter vector
    fun: float               # best-seen objective value
    trace: np.ndarray        # objective value at init and after each step
    n_steps: int
    stop_reason: str = "max_steps"


def maximize(objective_with_grad, init, config: OptimizerConfig | None = None) -> MaximizeResult:
    """Run ADADELTA ascent on a callable returning (value, gradient).

    Stops at ``max_steps`` or once the objective has moved by no more than
    ``rel_tol * (|old| + 1)`` over the last ``patience`` steps. Returns the
    best-seen point, which need not be the last one. A non-finite objective
    at the initial point raises, as does a gradient whose shape differs from
    the 1-d ``init`` there; a non-finite value or gradient mid-run reverts to
    the best-seen point and stops with a diagnostic reason. Each step equals
    one :func:`adadelta_step` to the bit.
    """
    if config is None:
        config = OptimizerConfig()
    x = np.array(init, dtype=float)
    value, grad = objective_with_grad(x)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"objective is non-finite at the initial point: {value}")
    if x.ndim != 1 or np.shape(grad) != x.shape:
        raise ValueError("parameter, gradient and accumulator lengths must agree")
    trace = [value]
    best_x, best_f = x.copy(), value
    sq_grad, sq_update = np.zeros(x.size), np.zeros(x.size)
    rho, eps, patience, rel_tol = config.rho, config.epsilon, config.patience, config.rel_tol
    stop_reason = "max_steps"
    for t in range(1, config.max_steps + 1):
        grad = np.asarray(grad, dtype=float)
        if not np.isfinite(grad).all():
            stop_reason = "non_finite_gradient"
            break
        sq_grad, sq_update, step = _update(sq_grad, sq_update, grad, rho, eps)
        x = x + step
        value, grad = objective_with_grad(x)
        value = float(value)
        if not math.isfinite(value):
            stop_reason = "non_finite_objective"
            break
        trace.append(value)
        if value > best_f:
            best_x, best_f = x.copy(), value
        if t >= patience:
            old = trace[t - patience]
            if abs(value - old) <= rel_tol * (abs(old) + 1.0):
                stop_reason = "converged"
                break
    return MaximizeResult(best_x, best_f, np.asarray(trace), len(trace) - 1, stop_reason)
