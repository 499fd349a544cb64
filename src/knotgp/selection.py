"""One-at-a-time knot selection.

The loop starts from a k-means initialization, then repeatedly proposes a
knot from the training-input pool (best-of-random-subset or a discrete
Bayesian optimization over candidate gains), appends it, and gradient-ascends
the covariance parameters together with the new knot's coordinates while all
previous knots stay frozen. A simultaneous-refinement path optimizes every
knot coordinate jointly for a fixed knot count. Both run through one sparse
search, :func:`_optimize_params_and_knot`, which starts from a model (with
the k-means knots, with the proposed knot appended, or the refinement's
start) and frees, as ``SparseGPModel.objective_grad``'s keywords say, none of
its knots for the initial fit, the new knot in each round, or all of them.
The search only runs the optimizer: the start model's ``_ascent`` evaluates
each point and builds the result.

Both proposals run through :func:`_propose`: a sorted random initial design
of the eligible pool rows, which is the whole random-subset proposal, then
for BO expected-improvement picks. Proposals always return a member of the
candidate pool; continuous movement of a knot happens only inside the
gradient step that follows. Each probed candidate is scored by
``SparseGPModel.objective_with_added_knot``: an exact rank-one update for
VFE, a rebuild for FIC. The BO surrogate's hyperparameters are searched once
per proposal, on its initial design, by a 150-step ADADELTA ascent (see
:func:`_fit_surrogate` for why not BFGS).
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import full_gp
from .adadelta import OptimizerConfig, maximize
from .common import NumericalError, _training_data, as_input_matrix, ndtr
from .kernels import KernelParams, _row_norms, _squared_distances
from .sparse_gp import Approximation, SparseGPModel, _coincident, _knot_array

logger = logging.getLogger(__name__)

_OBJECTIVE_APPROX = {"vfe": Approximation.DTC, "fic": Approximation.FIC}


def _objective_approx(objective: str) -> Approximation:
    if objective not in _OBJECTIVE_APPROX:
        raise ValueError(f"objective must be 'vfe' or 'fic', got {objective!r}")
    return _OBJECTIVE_APPROX[objective]


@dataclass(frozen=True)
class OATConfig:
    initial_knot_count: int = 5
    max_knots: int = 80
    proposal: str = "bo"                 # "bo" or "rs"
    objective: str = "vfe"               # "vfe" or "fic"
    improvement_tol: float = 1e-4
    rs_subset_size: int = 30
    bo_budget: int = 30
    bo_initial_design: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.initial_knot_count < 1:
            raise ValueError("initial_knot_count must be at least 1")
        if self.max_knots < self.initial_knot_count:
            raise ValueError("max_knots must be at least initial_knot_count")
        if self.proposal not in ("bo", "rs"):
            raise ValueError(f"proposal must be 'bo' or 'rs', got {self.proposal!r}")
        _objective_approx(self.objective)
        if self.improvement_tol <= 0.0:
            raise ValueError("improvement_tol must be positive")
        if self.rs_subset_size < 1:
            raise ValueError("rs_subset_size must be at least 1")
        if not 0 < self.bo_initial_design < self.bo_budget:
            raise ValueError("require 0 < bo_initial_design < bo_budget")


@dataclass
class SelectionStep:
    knot_count: int
    objective_before: float        # at the inner optimization's starting point
    objective_after: float         # best seen by the inner optimization
    proposal_seconds: float
    optimize_seconds: float
    accepted_location: tuple | None
    n_steps: int                   # the inner optimization's steps and why it stopped
    stop_reason: str


@dataclass
class SelectionTrace:
    steps: list = field(default_factory=list)
    stopped_because: str = ""

    @property
    def objective_values(self) -> np.ndarray:
        return np.asarray([s.objective_after for s in self.steps])

    def to_dict(self) -> dict:
        return asdict(self)


def kmeans_init(x, n_clusters: int, seed) -> np.ndarray:
    """Lloyd's algorithm on the training inputs, deterministic given the seed.

    Initial centers are distinct rows of ``x``; iteration stops at an
    assignment fixed point or after 100 sweeps. Empty clusters keep their
    previous center.
    """
    x = as_input_matrix(x, "inputs")
    n = x.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"need 1 <= n_clusters <= {n}, got {n_clusters}")
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(n, size=n_clusters, replace=False)].copy()
    assignments = None
    for _ in range(100):
        d2 = _squared_distances(x, centers, _row_norms(centers))
        new_assignments = np.argmin(d2, axis=1)
        if assignments is not None and np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(n_clusters):
            members = x[assignments == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return centers


def _candidate_gains(model: SparseGPModel, base: float, pool: np.ndarray,
                     indices) -> np.ndarray:
    """Each indexed pool row's gain over ``base``; ``-inf`` if scoring it raises."""
    gains = np.empty(len(indices))
    for out, idx in enumerate(indices):
        try:
            gains[out] = model.objective_with_added_knot(pool[idx]) - base
        except NumericalError:
            gains[out] = -np.inf
    return gains


def propose_rs(model: SparseGPModel, candidate_pool, subset_size: int, seed) -> np.ndarray:
    """Best-of-random-subset proposal: the sampled eligible pool row whose
    addition, parameters fixed, most improves the model's objective; the
    Bayesian-optimization proposal's initial design with no acquisition
    rounds. Ties go to the lowest pool index."""
    if subset_size < 1:
        raise ValueError("subset_size must be at least 1")
    return _propose(model, candidate_pool, subset_size, subset_size, seed)


def _fit_surrogate(inputs: np.ndarray, gains: np.ndarray, init_params: KernelParams):
    """The proposal surrogate, with hyperparameters by marginal-likelihood
    ascent, or at ``init_params`` if that search fails.

    The search stays on ADADELTA capped at 150 steps, short of the
    likelihood's optimum: its early stop acts as a regularizer. Searching to
    the optimum by BFGS raised the mean regret of ``tests/regret_suite.py``
    by +0.0145 for FIC (95% state-bootstrap interval [-0.0013, +0.0297];
    seeds 1-12, 60 states, 240 cases) and by +0.0101 for VFE
    ([-0.0111, +0.0297]; seeds 1-6, 30 states, 120 cases).
    """
    cfg = OptimizerConfig(max_steps=150, rel_tol=1e-4, patience=5)
    try:
        return full_gp.fit_hyperparameters(inputs, gains, init_params, cfg,
                                           method="adadelta")[0]
    except (NumericalError, ValueError):
        return full_gp.fit_full(inputs, gains, init_params)


def propose_bo(model: SparseGPModel, candidate_pool, budget: int, initial_design: int,
               seed) -> np.ndarray:
    """Discrete Bayesian-optimization proposal over the candidate pool.

    Gains from adding each probed candidate (parameters fixed) are modeled
    with a squared exponential surrogate on standardized pool coordinates;
    expected improvement picks the next probe until the budget is spent.
    The surrogate's hyperparameters are fitted once, by marginal-likelihood
    ascent on the ``initial_design`` probes; each later probe re-conditions
    the exact GP on all probes at those hyperparameters. Requires
    ``0 < initial_design < budget``.
    """
    if not 0 < initial_design < budget:
        raise ValueError(f"require 0 < initial_design < budget, got initial_design="
                         f"{initial_design} and budget={budget}")
    return _propose(model, candidate_pool, budget, initial_design, seed)


def _propose(model: SparseGPModel, candidate_pool, budget: int, initial_design: int,
             seed) -> np.ndarray:
    """The best of at most ``budget`` probed eligible pool rows: a sorted
    random ``initial_design`` of them, then expected-improvement picks. A row
    is eligible if it coincides with no knot, or if every row coincides with
    one; ties go to the earliest probe. Gains are over one evaluation of the
    model's objective; the surrogate reads a ``-inf`` gain as the lowest finite one."""
    pool = _knot_array(as_input_matrix(candidate_pool, "candidate pool"), model.x)
    rng = np.random.default_rng(seed)
    eligible = np.flatnonzero(~_coincident(pool, model.knots.locations).any(axis=1))
    if eligible.size == 0:
        logger.warning("all candidates coincide with existing knots; proposing among them")
        eligible = np.arange(pool.shape[0])
    budget = min(budget, eligible.size)

    base = model.objective()
    probed = np.sort(rng.choice(eligible, size=min(initial_design, budget), replace=False))
    gains = _candidate_gains(model, base, pool, probed)
    unprobed = np.zeros(pool.shape[0], dtype=bool)
    unprobed[eligible] = True
    unprobed[probed] = False

    surrogate = None
    while probed.size < budget:
        finite = np.isfinite(gains)
        targets = np.where(finite, gains, gains[finite].min() if finite.any() else 0.0)
        if surrogate is None:
            coords = (pool - pool.mean(axis=0)) / np.maximum(pool.std(axis=0), 1e-12)
            gvar = max(float(np.var(targets)), 1e-10)
            surrogate = _fit_surrogate(coords[probed], targets,
                                       KernelParams(gvar, 1.0, max(1e-6 * gvar, 1e-12)))
        else:
            surrogate = full_gp.fit_full(coords[probed], targets, surrogate.params)
        remaining = np.flatnonzero(unprobed)
        pred = full_gp.predict_full(surrogate, coords[remaining])
        best = float(np.max(targets))
        xi = 0.01 * float(np.std(targets))
        sd = np.sqrt(pred.latent_variance)
        shift = pred.latent_mean - best - xi
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0.0, shift / sd, 0.0)
        # the standard normal density, written as scipy.stats.norm.pdf evaluates it
        pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
        ei = np.where(sd > 0.0, shift * ndtr(z) + sd * pdf, np.maximum(shift, 0.0))
        pick = remaining[int(np.argmax(ei))]      # argmax takes the lowest index on ties
        probed = np.append(probed, pick)
        unprobed[pick] = False
        gains = np.append(gains, _candidate_gains(model, base, pool, [pick]))

    return pool[probed[np.argmax(gains)]].copy()


def _optimize_params_and_knot(start: SparseGPModel, optimizer_config: OptimizerConfig,
                              active_knot_index: int | None = None, all_knots: bool = False):
    """Ascent from ``start`` over the parameters and the knots that
    ``objective_grad``'s keywords free, checked first; returns (model,
    MaximizeResult), the model at the best-seen point, so never worse than at
    the start. The model is built as the search's evaluations are, so its
    objective is ``res.fun`` to the bit, and a ridge that fired at the best
    point fires in it too. The search does not keep ``start`` alive."""
    objective_with_grad, init, model_at = start._ascent(active_knot_index, all_knots)
    del start
    res = maximize(objective_with_grad, init, optimizer_config)
    return model_at(res.x), res


def oat_select(x, y, init_params: KernelParams, config: OATConfig,
               optimizer_config: OptimizerConfig | None = None):
    """Run the one-at-a-time selection loop; returns (model, trace).

    Each round proposes one knot from the training inputs, accepts it
    unconditionally, and re-optimizes (log s2, log ell, log tau2) plus the
    new knot's coordinates with earlier knots frozen. The loop stops at
    ``max_knots`` or when a round's improvement on the previous best-seen
    objective falls below ``improvement_tol * (|objective| + 1)``. Each
    search, the initial fit's and each round's, is timed and traced as one
    step with its ``n_steps`` and ``stop_reason``, and logged at INFO; an
    initial fit that stops at ``max_steps`` also logs a WARNING.
    """
    x, y = _training_data(x, y)
    approx = _OBJECTIVE_APPROX[config.objective]
    optimizer_config = optimizer_config or OptimizerConfig()
    master = np.random.SeedSequence(config.rng_seed)
    kmeans_seed, *round_seeds = master.spawn(1 + config.max_knots - config.initial_knot_count)
    trace = SelectionTrace()

    def search(knots, params, proposal_seconds=0.0, location=None):
        """One traced search from ``knots``, freeing the last if ``location`` is given."""
        t0 = time.perf_counter()
        model, res = _optimize_params_and_knot(
            SparseGPModel(approx, x, y, params, knots), optimizer_config,
            active_knot_index=None if location is None else len(knots) - 1)
        step = SelectionStep(model.n_knots, float(res.trace[0]), res.fun, proposal_seconds,
                             time.perf_counter() - t0, location, res.n_steps, res.stop_reason)
        trace.steps.append(step)
        logger.info("OAT %d knots: objective %.6f after %d steps (%s)", step.knot_count,
                    step.objective_after, step.n_steps, step.stop_reason)
        return model, res

    model, res = search(kmeans_init(x, config.initial_knot_count, kmeans_seed), init_params)
    if res.stop_reason == "max_steps":
        logger.warning("OAT initial fit stopped at max_steps (%d steps)", res.n_steps)
    if res.stop_reason.startswith("non_finite"):
        trace.stopped_because = f"initial optimization: {res.stop_reason}"
        return model, trace

    trace.stopped_because = "reached max_knots"
    for round_seed in round_seeds:
        previous = res.fun
        tp = time.perf_counter()
        try:
            if config.proposal == "bo":
                location = propose_bo(model, x, config.bo_budget,
                                      config.bo_initial_design, round_seed)
            else:
                location = propose_rs(model, x, config.rs_subset_size, round_seed)
        except NumericalError as err:
            trace.stopped_because = f"proposal failed: {err}"
            break
        try:
            model, res = search(np.vstack([model.knots.locations, location]), model.params,
                                time.perf_counter() - tp, tuple(location))
        except (NumericalError, ValueError) as err:
            trace.stopped_because = f"inner optimization failed: {err}"
            break
        if res.fun - previous < config.improvement_tol * (abs(previous) + 1.0):
            trace.stopped_because = "improvement below tolerance"
            break
    return model, trace


def simultaneous_optimize(x, y, init_params: KernelParams, init_knots,
                          objective: str = "vfe",
                          optimizer_config: OptimizerConfig | None = None):
    """Joint ascent over the covariance parameters and all knot coordinates.

    Returns (model, MaximizeResult); the model is the one at the best-seen
    point, so refinement never reports worse than its starting objective.
    """
    return _optimize_params_and_knot(
        SparseGPModel(_objective_approx(objective), x, y, init_params, init_knots),
        optimizer_config or OptimizerConfig(), all_knots=True)
