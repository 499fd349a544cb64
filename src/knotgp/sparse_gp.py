"""Sparse, knot-based Gaussian processes.

This module implements the low-rank machinery shared by the deterministic
training conditional (DTC) and fully independent conditional (FIC)
approximations, the variational objective for the DTC structure (a lower
bound on the exact log marginal likelihood), the FIC log marginal
likelihood, marginal predictive distributions for both, and a prior-variance
audit that also covers the DIC and FITC variants.

Notation (array shapes in parentheses):

    X    (N, d)  training inputs           U    (K, d)  knot locations
    S    (K, N)  cross covariance cov(U, X)
    Suu  (K, K)  cov(U, U) + jitter * I = L L^T
    V    (K, N)  L^{-1} S, the whitened cross covariance
    psi  (N,)    diag of S^T Suu^{-1} S = column sums of V * V, the low-rank
                 surrogate for the prior variance of the latent function at X
    lam  (N,)    diagonal completing the likelihood covariance:
                 DTC: tau2 * ones;  FIC: (s2 + jitter - psi) + tau2

Every likelihood-style quantity is routed through the whitened K x K system

    B~ = I + V diag(1/lam) V^T = L_B L_B^T

via the matrix inversion and determinant lemmas:

    (V^T V + diag(lam))^{-1} = diag(1/lam) (I - V^T B~^{-1} V diag(1/lam))
    log|V^T V + diag(lam)| = sum(log lam) + log|B~|

so per-evaluation costs stay O(N K^2) time and O(N K) memory. The
eigenvalues of ``B~`` are at least one however ill-conditioned ``Suu`` is,
so only ``L`` carries that conditioning; ``Suu^{-1} S`` is always formed as
``L^{-T} V``, never through an explicit inverse.

The variational objective is the Gaussian log density of the targets under
the DTC marginal plus the penalty ``-(1 / (2 tau2)) * sum(s2 + jitter - psi)``,
i.e. the trace of the conditional variance the low-rank model discards. The
penalty sits *outside* the log density; the two terms have different units
and only this placement makes the objective a lower bound on the exact log
marginal likelihood.

Gradients are assembled by the adjoint method: each objective is
differentiated with respect to the matrix atoms ``S`` and ``Suu`` and the
scalars it touches directly, after which a chain rule maps those atom
gradients onto (log s2, log ell, log tau2) and knot coordinates. Whichever
knots are free, the whole K x N adjoint of ``S`` is formed once, in one
array (for DTC, one BLAS ``dgemm`` accumulating into ``g alpha^T``), and
multiplied by ``S`` in place; the lengthscale term ``adj S . (S * D2)`` and
the free knots' steps are read off that product. With the jitter tied to
the signal variance, every entry of ``S`` and ``Suu`` scales linearly in s2,
which keeps the log-s2 direction exact.

The gradient ascent's search vector, the knots' distance buffers it updates
in place and the one build, from them, of each evaluation's model and of the
model it returns all live in :meth:`SparseGPModel._ascent`. The ascent and
the gradient name the free knots alike, by one row slice from
:meth:`SparseGPModel._free_rows`: every knot, one knot, or none (empty).

Prediction at a test point with cross covariance ``k = cov(U, t)`` and
``v = L^{-1} k`` has mean ``m + v^T c``, with ``c = B~^{-1} V (r / lam)``
from the build, and latent variance

    (s2 + jitter) - v^T (I - B~^{-1}) v

(Quinonero-Candela & Rasmussen 2005). Both are fixed K x K forms in ``k``,
so all K x K work is done once per model, into the mean weights
``a = L^{-T} c`` plus a triangular factor ``R`` with ``R^T R = P^T P =
L^{-T} (I - B~^{-1}) L^{-1}``. ``P`` comes from the eigendecomposition of
``B~^{-1}``, whose eigenvalues lie in (0, 1], so the variance is a sum of
squares with no cancellation against a large ``L^{-T} (I - B~^{-1})
L^{-1}``, and ``R`` is the triangle of its QR factorization, which keeps
that accuracy at half the flops of a product with ``P``. ``k`` itself needs
no distance matrix: with the knots' rows ``[u / ell, -|u / ell|^2 / 2, 1]``
and the test points' columns ``[t / ell; 1; -|t / ell|^2 / 2]``, one product
gives the exponent ``-|u - t|^2 / (2 ell^2)``. A batch of test points thus
takes that product, exponentiated in place, a product with the mean
weights, and one in-place triangular product, ``R k``, and no triangular
solve. Its rows are checked once, off the ``-|t / ell|^2 / 2`` row of their
block, and its moments are returned without a second check. The fit keeps
its squared distances, which the lengthscale gradient reads and the ascent
updates in place.

``B~^{-1}`` and the prediction operands (the knots' rows, ``s2 a`` and
``s2 R``) are cached lazily and read-only, once per model: the gradient or
the first prediction forms ``B~^{-1}``, only prediction forms the operands,
and an evaluation of the objective alone forms neither.

Appending one knot ``u`` with the parameters fixed borders ``L`` with
``l = L^{-1} k_u`` and the pivot ``delta = sqrt(delta2)``,
``delta2 = s2 + jitter - ||l||^2``, and appends the whitened row
``w = (s_u - l^T V) / delta`` to ``V``, where ``k_u = cov(U, u)`` and
``s_u = cov(u, X)``. DTC keeps ``lam = tau2 * ones``, so the likelihood
covariance gains ``w w^T`` and, by the determinant lemma, Sherman-Morrison
and the penalty's new term, the variational objective changes by exactly

    gain = -(1/2) log1p(a) + (1/2) b^2 / (1 + a) + ||w||^2 / (2 tau2)
    a    = (||w||^2 - ||L_B^{-1} V w||^2 / tau2) / tau2,   b = w^T alpha

at O(N K) per candidate instead of a rebuild's O(N K^2). Three cases are
scored by a rebuild of the larger model instead, which keeps its ridge
escalation and its ``NumericalError``: FIC, whose ``lam`` changes at every
point; a model whose own build needed a ridge, whose ``L`` factors another
matrix; and a candidate with ``delta2 <= PIVOT_FLOOR * (s2 + jitter)``, where
``delta2`` is mostly round-off.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from .common import (LOG_2PI, PredictiveDistribution, _clamped_prediction, _test_inputs,
                     _training_data, as_input_matrix, chol_lower, dgemm, dtrmm, tri_solve)
from .kernels import (KernelParams, _exponent_columns, _exponent_rows, _kernel, _row_norms,
                      _squared_distances, _unit_kernel, cov_matrix, squared_distances)

# two points closer than this in every coordinate coincide: a knot set that
# holds such a pair has duplicates, and no proposal scores a candidate that
# coincides with a knot
COINCIDENCE_TOL = 1e-9

# the rank-one gain needs delta2 above this fraction of s2 + jitter; a
# candidate on a knot at zero jitter gives a delta2 of either sign near 1e-16
PIVOT_FLOOR = 1e-10
# candidate rows per block of the rank-one gain pass
GAIN_CHUNK = 256

# the free-knot rows when no knot is free
_NO_KNOTS = slice(0, 0)


class Approximation(enum.Enum):
    """The four sparse priors; only DTC and FIC can be fitted or predicted."""

    DIC = "dic"
    DTC = "dtc"
    FIC = "fic"
    FITC = "fitc"


@dataclass(frozen=True)
class KnotSet:
    """An ordered set of knot locations in input space.

    Duplicate rows are permitted (the jitter on ``Suu`` keeps factorizations
    alive) but flagged via :attr:`has_duplicates`.
    """

    locations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "locations",
                           as_input_matrix(self.locations, "knot locations"))

    @classmethod
    def _unchecked(cls, locations: np.ndarray) -> "KnotSet":
        """A knot set over a float (K, d) array whose rows are known finite."""
        knots = object.__new__(cls)
        object.__setattr__(knots, "locations", locations)
        return knots

    @property
    def has_duplicates(self) -> bool:
        pairs = _coincident(self.locations, self.locations)
        np.fill_diagonal(pairs, False)
        return bool(pairs.any())

    def __len__(self) -> int:
        return self.locations.shape[0]


def _coincident(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) mask of the row pairs of ``a`` and ``b`` that lie within
    ``COINCIDENCE_TOL`` of each other in every coordinate; the coordinate
    where the rows of ``b`` spread most screens the pairs, so no (n, m, d)
    temporary is formed."""
    axis = int(np.ptp(b, axis=0).argmax())
    pairs = np.abs(a[:, None, axis] - b[None, :, axis]) <= COINCIDENCE_TOL
    i, j = np.nonzero(pairs)
    pairs[i, j] = (np.abs(a[i] - b[j]) <= COINCIDENCE_TOL).all(axis=1)
    return pairs


def _knot_array(knots, x: np.ndarray) -> np.ndarray:
    """Knot locations as a finite (K, d) matrix as wide as the inputs ``x``."""
    u = knots.locations if isinstance(knots, KnotSet) else as_input_matrix(knots, "knot locations")
    if u.shape[1] != x.shape[1]:
        raise ValueError(f"knot dimension {u.shape[1]} does not match "
                         f"input dimension {x.shape[1]}")
    return u


def _require(model: SparseGPModel, approx: Approximation, operation: str):
    if model.approx is not approx:
        raise RuntimeError(f"{operation} is defined for {approx.name} models")


def psi_cross(x, knots, params: KernelParams):
    """Low-rank factor pair (V, L) with Psi_xx = V^T V and L L^T = Suu.

    ``L`` is the lower Cholesky factor of ``cov(knots, knots) + jitter I`` and
    ``V = L^{-1} cov(knots, x)``.
    """
    x = as_input_matrix(x, "inputs")
    u = _knot_array(knots, x)
    _, _, luu, v = _whiten(squared_distances(u, u), squared_distances(u, x), params, None)
    return v, luu


def _whiten(d2_uu, d2_ux, params: KernelParams, diagnostics: dict | None):
    """(Kuu, S, L, V) from the knots' squared distances to each other and to
    the inputs: Kuu = cov(U, U), S = cov(U, X), L L^T = Kuu + jitter I and
    V = L^{-1} S."""
    kuu = _kernel(d2_uu, params)
    s = _kernel(d2_ux, params)
    # kuu has no negative zeros, so adding the jitter to its diagonal in place
    # gives the same bits as adding jitter * I
    suu = kuu.copy()
    suu.reshape(-1)[::suu.shape[0] + 1] += params.latent_jitter
    luu = chol_lower(suu, escalations=3, diagnostics=diagnostics, label="knot covariance")
    return kuu, s, luu, tri_solve(luu, s)


def psi_diag(x, knots, params: KernelParams) -> np.ndarray:
    """diag(Psi_xx) without forming any N x N matrix."""
    v, _ = psi_cross(x, knots, params)
    return np.einsum("kn,kn->n", v, v)


class SparseGPModel:
    """A DTC or FIC model over (x, y) with cached K x K factorizations.

    The model is immutable after construction: objective evaluation,
    gradients and prediction are read-only. Building a variant with
    different knots or parameters constructs a fresh model. Derived matrices
    that only the gradient and prediction need, such as ``B~^{-1}``, are
    cached lazily on first use, read-only, so an evaluation that asks only
    for the objective never forms them.
    """

    def __init__(self, approx: Approximation, x, y, params: KernelParams, knots,
                 mean_constant: float = 0.0):
        if approx not in (Approximation.DTC, Approximation.FIC):
            raise ValueError(
                "only DTC and FIC models support fitting and prediction; "
                "DIC and FITC exist solely for the prior-variance report"
            )
        x, y = _training_data(x, y)
        u = _knot_array(knots, x)
        knots = knots if isinstance(knots, KnotSet) else KnotSet._unchecked(u)
        self._init(approx, x, y, params, knots, mean_constant,
                   squared_distances(u, u), squared_distances(u, x))

    def _init(self, approx, x, y, params, knots, mean_constant, d2_uu, d2_ux):
        self.approx = approx
        self.x, self.y = x, y
        self.params = params
        self.knots = knots
        self.mean_constant = float(mean_constant)
        self._d2_uu, self._d2_ux = d2_uu, d2_ux
        self.diagnostics: dict = {}
        self._build()

    # -- cache construction -------------------------------------------------

    def _build(self):
        params = self.params
        s2, tau2, jitter = params.signal_variance, params.noise_variance, params.latent_jitter
        self._kuu, self._s, self._luu, self._v = _whiten(self._d2_uu, self._d2_ux, params,
                                                         self.diagnostics)
        v, k = self._v, self._v.shape[0]

        if self.approx is Approximation.DTC:
            gram = v @ v.T
            self._psi_sum = float(gram.trace())
            self._lam = np.full(v.shape[1], tau2)
            self._q = gram / tau2
        else:
            psi = np.einsum("kn,kn->n", v, v)
            self._psi_sum = float(psi.sum())
            # diag(Sigma_xx - Psi_xx); tiny negative round-off is clipped
            self._lam = np.maximum(s2 + jitter - psi, 0.0) + tau2
            self._q = (v / self._lam) @ v.T
        # B~ = I + V diag(1/lam) V^T
        self._lb = chol_lower(self._q + np.eye(k), escalations=3,
                              diagnostics=self.diagnostics, label="low-rank system")
        self._resid = self.y - self.mean_constant
        r_lam = self._resid / self._lam
        self._c = tri_solve(self._lb, tri_solve(self._lb, v @ r_lam), trans=True)
        self._alpha = r_lam - (v.T @ self._c) / self._lam

    # -- objective values ----------------------------------------------------

    @property
    def n_train(self) -> int:
        return self.x.shape[0]

    @property
    def n_knots(self) -> int:
        return len(self.knots)

    def _log_density(self) -> float:
        # log N(y; m, V^T V + diag(lam)) via the whitened K x K system
        logdet = np.log(self._lam).sum() + 2.0 * np.log(self._lb.diagonal()).sum()
        quad = float(self._resid @ self._alpha)
        return -0.5 * (self.n_train * LOG_2PI + logdet + quad)

    def trace_penalty(self) -> float:
        """(1 / (2 tau2)) * sum_i (s2 + jitter - psi_i), the variational penalty."""
        params = self.params
        total = self.n_train * (params.signal_variance + params.latent_jitter) \
            - self._psi_sum
        return total / (2.0 * params.noise_variance)

    def elbo(self) -> float:
        _require(self, Approximation.DTC, "the variational objective")
        return self._log_density() - self.trace_penalty()

    def fic_log_marginal(self) -> float:
        _require(self, Approximation.FIC, "fic_log_marginal")
        return self._log_density()

    def objective(self) -> float:
        """The model-selection objective for this approximation."""
        if self.approx is Approximation.DTC:
            return self.elbo()
        return self.fic_log_marginal()

    def objective_with_added_knot(self, location) -> float:
        """Objective after appending one knot, parameters held fixed: this
        objective plus the rank-one gain of :meth:`_added_knot_gains` for DTC,
        otherwise that of the larger model, built afresh (see the module
        docstring for when)."""
        loc = _knot_array(np.reshape(location, (1, -1)), self.x)
        if self.approx is Approximation.DTC \
                and not self.diagnostics.get("near_singular_factorizations"):
            gain = self._added_knot_gains(loc)[0]
            if np.isfinite(gain):
                return self.objective() + gain
        candidate = np.vstack([self.knots.locations, loc])
        return SparseGPModel(self.approx, self.x, self.y, self.params, candidate,
                             self.mean_constant).objective()

    def _added_knot_gains(self, locations: np.ndarray) -> np.ndarray:
        """Exact change of the variational objective from appending each row of
        the finite (P, d) ``locations`` as one more knot, parameters fixed; NaN
        where the bordered pivot ``delta2`` is at most ``PIVOT_FLOOR`` times
        ``s2 + jitter``. Reads the model's factors only, ``GAIN_CHUNK`` rows at
        a time (see the module docstring for the formula)."""
        params = self.params
        tau2 = params.noise_variance
        prior = params.signal_variance + params.latent_jitter
        gains = np.empty(locations.shape[0])
        for start in range(0, locations.shape[0], GAIN_CHUNK):
            u = locations[start:start + GAIN_CHUNK]
            lu = tri_solve(self._luu, _kernel(squared_distances(self.knots.locations, u), params))
            delta2 = prior - np.einsum("kp,kp->p", lu, lu)
            usable = delta2 > PIVOT_FLOOR * prior
            w = _kernel(squared_distances(u, self.x), params) - lu.T @ self._v
            w /= np.sqrt(np.where(usable, delta2, 1.0))[:, None]
            ww = np.einsum("pn,pn->p", w, w)
            z = tri_solve(self._lb, self._v @ w.T)
            a = (ww - np.einsum("kp,kp->p", z, z) / tau2) / tau2
            b = w @ self._alpha
            gain = -0.5 * np.log1p(a) + 0.5 * b * b / (1.0 + a) + ww / (2.0 * tau2)
            gains[start:start + u.shape[0]] = np.where(usable, gain, np.nan)
        return gains

    # -- gradients -----------------------------------------------------------

    def _free_rows(self, active_knot_index: int | None, all_knots: bool) -> slice:
        """The rows of the knots whose coordinates are free: all of them with
        ``all_knots``, the one ``active_knot_index``, or none (an empty slice)."""
        if active_knot_index is None:
            return slice(None) if all_knots else _NO_KNOTS
        if all_knots:
            raise ValueError("request either one active knot or all knots, not both")
        if not 0 <= active_knot_index < self.n_knots:
            raise IndexError(f"knot index {active_knot_index} out of range")
        return slice(active_knot_index, active_knot_index + 1)

    def objective_grad(self, active_knot_index: int | None = None,
                       all_knots: bool = False):
        """Objective value and gradient.

        The gradient starts with (d/dlog s2, d/dlog ell, d/dlog tau2). With
        ``active_knot_index`` set, the d coordinate derivatives of that single
        knot follow; with ``all_knots=True`` the derivatives of every knot
        coordinate follow in row-major knot order.

        The adjoint returns the whole K x N adjoint of ``S`` in one array,
        which is multiplied by ``S`` in place; the lengthscale term and the
        free knots' steps are read off that product.
        """
        rows = self._free_rows(active_knot_index, all_knots)
        adjoint = self._dtc_adjoint if self.approx is Approximation.DTC else self._fic_adjoint
        ell2 = self.params.lengthscale ** 2
        va = self._v @ self._alpha
        d_log_s2, d_log_tau2, grad_uu, gs = adjoint(va, tri_solve(self._luu, va, trans=True))
        gs *= self._s
        # d S / d log ell = S * D2 / ell2, and likewise for Suu
        d_log_ell = ((grad_uu * (self._kuu * self._d2_uu)).sum()
                     + np.vdot(gs, self._d2_ux)) / ell2
        if rows == _NO_KNOTS:
            return self.objective(), np.array([d_log_s2, d_log_ell, d_log_tau2])
        # d S_kn / d u_k = S_kn (x_n - u_k) / ell2, and likewise for Suu
        gs = gs[rows]
        u = self.knots.locations
        gk = grad_uu[rows] * self._kuu[rows]
        step = (gs @ self.x - gs.sum(axis=1)[:, None] * u[rows]
                + 2.0 * (gk @ u - gk.sum(axis=1)[:, None] * u[rows])) / ell2
        grad = np.concatenate([[d_log_s2, d_log_ell, d_log_tau2], step.reshape(-1)])
        return self.objective(), grad

    def _ascent(self, active_knot_index: int | None = None, all_knots: bool = False):
        """(objective_with_grad, init, model_at) for an ascent from this model
        over (log s2, log ell, log tau2) and, in row-major order, the
        coordinates of the knots that :meth:`objective_grad`'s arguments free.
        Each evaluation and ``model_at`` build alike: they check only the free
        coordinates and recompute, in place, the whole K x K knot distances
        and the free rows of the knot-to-input distances (with no knot free,
        neither), so ``model_at``'s model, which owns copies of the buffers,
        scores its point to the bit. The closures do not hold this model.
        """
        approx, x, y, params, mean = self.approx, self.x, self.y, self.params, self.mean_constant
        rows = self._free_rows(active_knot_index, all_knots)
        free = rows != _NO_KNOTS
        kn = self.knots.locations.copy()
        d = kn.shape[1]
        x_sq = _row_norms(x)
        d2_uu, d2_ux = self._d2_uu.copy(), self._d2_ux.copy()

        def build(vec, own=False):
            p = params.with_log_vector(vec[:3])
            if free:
                if not np.isfinite(vec[3:]).all():
                    raise ValueError("knot locations contains non-finite entries")
                kn[rows] = vec[3:].reshape(-1, d)
                _squared_distances(kn, kn, _row_norms(kn), out=d2_uu)
                _squared_distances(kn[rows], x, x_sq, out=d2_ux[rows])
            # a model that outlives the search owns copies of the buffers
            u, uu, ux = (a.copy() for a in (kn, d2_uu, d2_ux)) if own else (kn, d2_uu, d2_ux)
            model = object.__new__(SparseGPModel)    # no checks or distance work
            model._init(approx, x, y, p, KnotSet._unchecked(u), mean, uu, ux)
            return model

        def objective_with_grad(vec):
            return build(vec).objective_grad(active_knot_index, all_knots)

        init = np.concatenate([params.log_vector(), kn[rows].reshape(-1)])
        return objective_with_grad, init, functools.partial(build, own=True)

    @functools.cached_property
    def _b_inverse(self) -> np.ndarray:
        """B~^{-1}, read-only, formed on first use by the gradient or
        :meth:`predict`, never by :meth:`_build`; it is well conditioned: its
        eigenvalues lie in (0, 1]."""
        half = tri_solve(self._lb, np.eye(self._lb.shape[0]))
        binv = half.T @ half
        binv.flags.writeable = False
        return binv

    @functools.cached_property
    def _predictor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The knot block, the mean weights and the triangular factor, all
        read-only, formed on the first :meth:`predict`, never by
        :meth:`_build` or the gradient.

        The knot block is the (K, d + 2) :func:`kernels._exponent_rows` of
        the knots. The weights are ``s2 a`` with ``a = L^{-T} c``, so the
        unit kernel ``k`` of :func:`kernels._unit_kernel` gives the mean
        ``m + s2 a^T k``. The factor is the upper triangular, Fortran-ordered
        (K, K) ``R`` of the QR factorization of ``s2 P``, where
        ``P = diag(sqrt(max(1 - mu, 0))) W^T L^{-1}`` with
        ``B~^{-1} = W diag(mu) W^T``, so that
        ``R^T R = s2^2 P^T P = s2^2 L^{-T} (I - B~^{-1}) L^{-1}`` and
        ``||R k||^2`` is the variance's quadratic form. The eigenvalues ``mu``
        lie in (0, 1], so the clip only removes round-off. On near-duplicate
        knots the factored form keeps the variance as accurate as the
        whitened ``v``; the product ``L^{-T} (I - B~^{-1}) L^{-1}`` itself
        does not. The QR factorization is backward stable, so ``R`` keeps
        that accuracy, also where ``P`` is rank-deficient (more knots than
        training rows).
        """
        s2 = self.params.signal_variance
        weights = s2 * tri_solve(self._luu, self._c, trans=True)
        mu, w = np.linalg.eigh(self._b_inverse)
        p = tri_solve(self._luu, w * np.sqrt(np.maximum(1.0 - mu, 0.0)), trans=True).T
        factor = np.asfortranarray(np.linalg.qr(s2 * p, mode="r"))
        knot_rows = _exponent_rows(self.knots.locations, self.params.lengthscale)
        for operand in (knot_rows, weights, factor):
            operand.flags.writeable = False
        return knot_rows, weights, factor

    def _dtc_adjoint(self, va, g):
        """(d/dlog s2, d/dlog tau2, adj Suu, adj S) of the variational
        objective, given ``va = V alpha`` and ``g = Suu^{-1} S alpha =
        L^{-T} va``: the two derivatives, the symmetric adjoint of ``Suu`` and
        the whole K x N adjoint of ``S`` in one new array. With
        ``E = I - B~^{-1}``:

            adj S   = g alpha^T + L^{-T} E V / tau2
            adj Suu = -(1/2) L^{-T} (B~ - 2I + B~^{-1}) L^{-1} - (1/2) g g^T

        whose contractions with ``S`` and ``Suu`` collapse to ``tr(E)`` and
        ``||V alpha||^2``. adj S is one BLAS ``dgemm`` that accumulates into
        ``g alpha^T``.
        """
        tau2 = self.params.noise_variance
        v, luu, alpha = self._v, self._luu, self._alpha
        k = v.shape[0]

        e = np.eye(k) - self._b_inverse
        tr_e = float(e.trace())
        le = tri_solve(luu, e, trans=True)
        # B~ - 2I + B~^{-1} = F^T F with F = L_B^{-1} (B~ - I)
        h = tri_solve(luu, tri_solve(self._lb, self._q).T, trans=True)
        grad_uu = -0.5 * (h @ h.T + g[:, None] * g)

        penalty = self.trace_penalty()
        d_log_s2 = 0.5 * float(va @ va) - 0.5 * tr_e - penalty
        d_log_tau2 = -0.5 * (self.n_train - tr_e) + 0.5 * tau2 * float(alpha @ alpha) + penalty
        # a C-ordered K x N array is a Fortran-ordered N x K one to BLAS,
        # so V^T (L^{-T} E)^T / tau2 accumulates in place into (g alpha^T)^T
        adj_s = dgemm(1.0 / tau2, v.T, le.T, beta=1.0, c=np.outer(g, alpha).T,
                      overwrite_c=1).T
        return d_log_s2, d_log_tau2, grad_uu, adj_s

    def _fic_adjoint(self, va, g):
        """As :meth:`_dtc_adjoint` for the FIC log marginal likelihood, whose
        per-point ``lam`` keeps a K x N term in the adjoint of ``S``; adj S is
        one triangular solve, in place on ``R``.

        With ``lam_bar`` the adjoint of the ``lam`` diagonal:

            adj S   = L^{-T} R,  R = V alpha alpha^T - B~^{-1} V diag(1/lam)
                                     - 2 V diag(lam_bar)
            adj Suu = L^{-T} M L^{-1} - (1/2) g g^T,
                      M = (1/2) (I - B~^{-1}) + V diag(lam_bar) V^T
        """
        params = self.params
        s2, tau2, jitter = params.signal_variance, params.noise_variance, params.latent_jitter
        v, luu, lam, alpha = self._v, self._luu, self._lam, self._alpha
        k = v.shape[0]

        binv = self._b_inverse
        bv = binv @ v
        sbs = np.einsum("kn,kn->n", v, bv)                      # (S^T B^{-1} S)_ii
        lam_bar = -0.5 * ((1.0 - sbs / lam) / lam - alpha ** 2)
        sum_lam_bar = float(lam_bar.sum())
        v_lam_bar = v * lam_bar
        r = va[:, None] * alpha - bv / lam - 2.0 * v_lam_bar
        m = 0.5 * (np.eye(k) - binv) + v_lam_bar @ v.T
        grad_uu = tri_solve(luu, tri_solve(luu, m, trans=True).T, trans=True) \
            - 0.5 * (g[:, None] * g)
        grad_uu = 0.5 * (grad_uu + grad_uu.T)

        # contractions with Suu = L L^T and S = L V; lam_i = (s2 + jitter) + tau2 - psi_i
        d_log_s2 = (m.trace() - 0.5 * float(va @ va) + (r * v).sum()
                    + sum_lam_bar * (s2 + jitter))
        d_log_tau2 = sum_lam_bar * tau2
        return d_log_s2, d_log_tau2, grad_uu, tri_solve(luu, r, trans=True, _overwrite=True)

    # -- prediction ----------------------------------------------------------

    def predict(self, test_inputs) -> PredictiveDistribution:
        """Marginal predictive moments at the test inputs.

        DTC propagates the optimal K-dimensional posterior over the knot
        values through the exact GP conditional; FIC uses its own weighted
        K x K posterior. With ``k_j = cov(knots, test_j)``, ``v_j = L^{-1} k_j``
        and each variant's own ``B~``/``lam``, both reduce to

            mean_j = m + v_j^T B~^{-1} V (r / lam)
            var_j  = (s2 + jitter) - v_j^T (I - B~^{-1}) v_j

        FIC marginals coincide with FITC's. Each call forms no distance
        matrix and makes no triangular solve. With the mean weights plus the
        triangular factor cached in :attr:`_predictor`, one product of the
        knot block and the test rows' C-contiguous (d + 2, m) block gives the
        kernel's exponent, exponentiated in place in one K x m buffer ``k``.
        The weights give ``mean_j = m + s2 a^T k_j``; then one in-place
        triangular product (BLAS ``dtrmm``) turns ``k``, which the mean no
        longer needs, into ``z = R k``, and ``var_j = (s2 + jitter) -
        sum_i z_ij^2``.

        The test rows are checked once, off that block: an (m, d) float
        array whose ``-|t / ell|^2 / 2`` row is finite has finite entries, and
        goes on unchecked. Only another shape, or a NaN or infinite entry in
        that row, goes through :func:`common._test_inputs`, which raises the
        usual ``ValueError`` for an input that is not finite or not (m, d),
        turns 1-d input into a column and lets finite rows whose square
        overflows go on. The result is built unchecked by
        :func:`common._clamped_prediction`; a test row extreme enough to make
        its variance NaN raises :class:`NumericalError`.
        """
        params = self.params
        xt = np.asarray(test_inputs, dtype=float)
        if xt.ndim != 2 or xt.shape[1] != self.x.shape[1] or xt.shape[0] < 1:
            xt = _test_inputs(test_inputs, self.x)
        test_columns = _exponent_columns(xt, params.lengthscale)
        # a NaN or infinite input makes its -|t / ell|^2 / 2 NaN or -inf, and
        # raises here; a finite one whose square overflows goes on
        if not test_columns[-1].min() > -np.inf:
            _test_inputs(xt, self.x)
        knot_rows, weights, factor = self._predictor
        kmat = _unit_kernel(knot_rows, test_columns)
        mean = self.mean_constant + weights @ kmat
        # a C-ordered K x m array is a Fortran-ordered m x K one to BLAS, so
        # k^T R^T = (R k)^T overwrites it in place
        quad = dtrmm(1.0, factor, kmat.T, side=1, lower=0, trans_a=1, overwrite_b=1).T
        var = params.signal_variance + params.latent_jitter - np.einsum("kj,kj->j", quad, quad)
        return _clamped_prediction(mean, var, params.noise_variance, self.diagnostics)


# -- spec-level operation wrappers -------------------------------------------

def fit_sparse(approx: Approximation, x, y, params: KernelParams, knots,
               mean_constant: float = 0.0) -> SparseGPModel:
    return SparseGPModel(approx, x, y, params, knots, mean_constant)


def elbo(model: SparseGPModel) -> float:
    return model.elbo()


def elbo_grad(model: SparseGPModel, active_knot_index: int | None = None,
              all_knots: bool = False):
    _require(model, Approximation.DTC, "elbo_grad")
    return model.objective_grad(active_knot_index=active_knot_index, all_knots=all_knots)


def fic_log_marginal(model: SparseGPModel, with_grad: bool = False,
                     active_knot_index: int | None = None, all_knots: bool = False):
    _require(model, Approximation.FIC, "fic_log_marginal")
    if with_grad or active_knot_index is not None or all_knots:
        return model.objective_grad(active_knot_index=active_knot_index,
                                    all_knots=all_knots)
    return model.fic_log_marginal()


def predict_sparse(model: SparseGPModel, test_inputs) -> PredictiveDistribution:
    return model.predict(test_inputs)


# -- prior variance audit ------------------------------------------------------

def prior_variance_report(approx: Approximation, x_train, x_test, knots,
                          params: KernelParams, tol: float = 1e-8) -> dict:
    """Compare a sparse prior's train/test (co)variances with the full GP's.

    Builds the marginal prior covariance implied by the approximation's
    defining conditionals (dense, audit-only code path) and reports four
    booleans: variances compare diagonals, covariances compare off-diagonal
    entries, both at absolute tolerance ``tol * max(1, s2)``.
    """
    x_train = as_input_matrix(x_train, "training inputs")
    x_test = as_input_matrix(x_test, "test inputs")
    u = _knot_array(knots, x_train)
    s2 = params.signal_variance

    def psi(a):
        v, _ = psi_cross(a, u, params)
        return v.T @ v

    sigma_tr = cov_matrix(x_train, x_train, params)
    sigma_te = cov_matrix(x_test, x_test, params)
    psi_tr = psi(x_train)
    psi_te = psi(x_test)

    if approx is Approximation.DIC:
        marg_tr, marg_te = psi_tr, psi_te
    elif approx is Approximation.DTC:
        marg_tr, marg_te = psi_tr, psi_te + (sigma_te - psi_te)
    elif approx is Approximation.FIC:
        marg_tr = psi_tr + np.diag(np.diag(sigma_tr - psi_tr))
        marg_te = psi_te + np.diag(np.diag(sigma_te - psi_te))
    elif approx is Approximation.FITC:
        marg_tr = psi_tr + np.diag(np.diag(sigma_tr - psi_tr))
        marg_te = psi_te + (sigma_te - psi_te)
    else:
        raise ValueError(f"unknown approximation {approx!r}")

    atol = tol * max(1.0, s2)

    def var_match(a, b):
        return bool(np.max(np.abs(np.diag(a) - np.diag(b))) <= atol)

    def cov_match(a, b):
        if a.shape[0] < 2:
            return True
        off = ~np.eye(a.shape[0], dtype=bool)
        return bool(np.max(np.abs(a[off] - b[off])) <= atol)

    return {
        "train_var_match": var_match(marg_tr, sigma_tr),
        "train_cov_match": cov_match(marg_tr, sigma_tr),
        "test_var_match": var_match(marg_te, sigma_te),
        "test_cov_match": cov_match(marg_te, sigma_te),
    }
