"""Gradient ascent over an unconstrained parameter vector: ADADELTA and BFGS.

The ADADELTA update keeps decayed accumulators of squared gradients and
squared updates; the ratio of their root means sets a per-coordinate step
whose units match the parameters, so no global learning rate is needed.
Everything here is phrased as maximization to match the objective
conventions of the rest of the package.

The recurrence is written once, in a private helper shared by the public
single-step :func:`adadelta_step`, which validates its arguments on every
call, and by :func:`maximize`, which keeps the accumulators as local arrays
and checks shapes once, so each of its steps costs a handful of array
operations plus the gradient finiteness check.

:func:`maximize` also runs a quasi-Newton method, ``method="bfgs"``: a dense
inverse-Hessian BFGS with an Armijo backtracking line search (Nocedal &
Wright 2006, ch. 3 and 6), for small, smooth problems such as the three
hyperparameters of an exact GP, where it converges in tens of evaluations
rather than hundreds. It is written on numpy alone: importing
``scipy.optimize`` would add about 0.2 s and 15 MB to every process that
imports the package.
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


# BFGS constants: the largest gradient component at which the search counts
# as converged, the Armijo sufficient-increase fraction, the number of
# step-length cuts before a line search gives up, and the longest trial step.
# The cap keeps a poor early curvature estimate from jumping to a point where
# the objective cannot be evaluated: on log hyperparameters an uncapped step
# can underflow a variance to zero, which raises.
BFGS_GRAD_TOL = 1e-5
ARMIJO = 1e-4
MAX_BACKTRACKS = 20
MAX_STEP = 5.0


def maximize(objective_with_grad, init, config: OptimizerConfig | None = None, *,
             method: str = "adadelta") -> MaximizeResult:
    """Maximize a callable returning (value, gradient) from ``init``.

    ``method`` is ``"adadelta"`` or ``"bfgs"``; any other raises
    ``ValueError``. Both return the best-seen point, with ``trace`` holding
    the objective at ``init`` and after each step and ``n_steps`` counting
    those steps. A non-finite objective at the initial point raises, as does
    a gradient whose shape differs from the 1-d ``init`` there; a non-finite
    value or gradient mid-run reverts to the best-seen point and stops with
    reason ``non_finite_objective`` or ``non_finite_gradient``. Exceptions
    raised by the objective propagate.

    ADADELTA runs at most ``max_steps`` steps and stops ``converged`` once
    the objective has moved by no more than ``rel_tol * (|old| + 1)`` over
    the last ``patience`` steps; ``rho`` and ``epsilon`` set its
    accumulators. Each step equals one :func:`adadelta_step` to the bit.

    BFGS keeps a dense inverse-Hessian estimate and runs at most
    ``max_steps`` iterations, each a backtracking line search to the Armijo
    condition from a trial step no longer than ``MAX_STEP``; ``rho``,
    ``epsilon`` and ``patience`` do not apply. It stops ``converged`` once an
    iteration raises the objective by no more than ``rel_tol * (|old| + 1)``
    or no gradient component exceeds ``BFGS_GRAD_TOL``, and
    ``line_search_failed`` when its direction does not ascend or
    ``MAX_BACKTRACKS`` cuts find no sufficient increase. Every accepted
    iteration increases the objective, so ``trace`` is increasing and ends at
    the returned value.
    """
    if method not in ("adadelta", "bfgs"):
        raise ValueError(f"unknown optimizer method {method!r}")
    if config is None:
        config = OptimizerConfig()
    x = np.array(init, dtype=float)
    value, grad = objective_with_grad(x)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"objective is non-finite at the initial point: {value}")
    if x.ndim != 1 or np.shape(grad) != x.shape:
        raise ValueError("parameter, gradient and accumulator lengths must agree")
    search = _adadelta if method == "adadelta" else _bfgs
    trace, best_x, best_f, stop_reason = search(objective_with_grad, x, value, grad, config)
    return MaximizeResult(best_x, best_f, np.asarray(trace), len(trace) - 1, stop_reason)


def _adadelta(objective_with_grad, x, value, grad, config: OptimizerConfig):
    """ADADELTA ascent from a validated start; returns (trace, best x, best
    value, stop reason)."""
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
    return trace, best_x, best_f, stop_reason


def _bfgs(objective_with_grad, x, value, grad, config: OptimizerConfig):
    """Dense BFGS ascent from a validated start; returns (trace, best x, best
    value, stop reason). The accepted iterate is always the best seen."""
    trace = [value]
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(grad).all():
        return trace, x, value, "non_finite_gradient"
    if np.abs(grad).max(initial=0.0) <= BFGS_GRAD_TOL:
        return trace, x, value, "converged"
    # the first trial step is at most one unit long; the estimate is rescaled
    # by the first curvature pair (Nocedal & Wright 2006, eq. 6.20)
    inv_hess = np.eye(x.size) / max(1.0, float(np.linalg.norm(grad)))
    scaled = False
    for _ in range(config.max_steps):
        direction = inv_hess @ grad
        slope = float(grad @ direction)
        if not slope > 0.0:
            # round-off has cost the estimate its positive definiteness
            return trace, x, value, "line_search_failed"
        length = min(1.0, MAX_STEP / float(np.linalg.norm(direction)))
        for _ in range(MAX_BACKTRACKS):
            trial_x = x + length * direction
            trial_value, trial_grad = objective_with_grad(trial_x)
            trial_value = float(trial_value)
            if not math.isfinite(trial_value):
                return trace, x, value, "non_finite_objective"
            if trial_value - value > ARMIJO * length * slope:
                break
            # minimizer of the quadratic through the value and slope at 0 and
            # the value at ``length``, kept within [0.1, 0.5] of ``length``
            shortfall = 2.0 * (value - trial_value + slope * length)
            length = min(max(slope * length * length / shortfall, 0.1 * length),
                         0.5 * length)
        else:
            return trace, x, value, "line_search_failed"
        trial_grad = np.asarray(trial_grad, dtype=float)
        step, change = trial_x - x, grad - trial_grad
        old = value
        x, value, grad = trial_x, trial_value, trial_grad
        trace.append(value)
        if not np.isfinite(grad).all():
            return trace, x, value, "non_finite_gradient"
        if (value - old <= config.rel_tol * (abs(old) + 1.0)
                or np.abs(grad).max() <= BFGS_GRAD_TOL):
            return trace, x, value, "converged"
        curvature = float(step @ change)
        if curvature <= 0.0:
            continue
        if not scaled:
            inv_hess = np.eye(x.size) * (curvature / float(change @ change))
            scaled = True
        # inverse-Hessian update for the minimization of -objective
        h_change = inv_hess @ change
        inv_hess += ((curvature + change @ h_change) / curvature ** 2 * np.outer(step, step)
                     - (np.outer(h_change, step) + np.outer(step, h_change)) / curvature)
    return trace, x, value, "max_steps"
