"""Squared exponential covariance function and its analytic derivatives.

The kernel is

    k(a, b) = s2 * exp(-||a - b||^2 / (2 * ell^2))

with signal variance ``s2`` and a single isotropic lengthscale ``ell``.
Positive hyperparameters live on the log scale during optimization, so the
derivative helpers here are taken with respect to (log s2, log ell) and, for
knot movement, the coordinates of the second argument.

Kernel matrices are formed on one of two paths, both here:

- From squared distances, by :func:`_kernel`. The distances are computed
  through the expansion ``||a||^2 - 2 a.b + ||b||^2`` and clamped at zero to
  guard against cancellation. Every fit takes this path (the sparse build,
  the candidate gains, the exact GP and its prediction): the lengthscale
  derivative reads the distances, and the sparse ascent updates its
  distance buffers in place as it moves knots.
- From the exponent, by :func:`_unit_kernel`, which sparse prediction takes.
  One product of the knots' rows from :func:`_exponent_rows` and the test
  points' columns from :func:`_exponent_columns` gives
  ``-||u - t||^2 / (2 ell^2)`` directly; its round-off above zero is
  clamped, as the distances' below zero are, by one masked copy, and no
  distance matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import as_input_matrix

DEFAULT_JITTER_RATIO = 1e-6


@dataclass(frozen=True)
class KernelParams:
    """Covariance hyperparameters on the natural scale.

    ``latent_jitter`` is a small nugget added to every self-covariance
    diagonal of the latent function so factorizations stay stable. When not
    supplied it defaults to ``DEFAULT_JITTER_RATIO * signal_variance`` and is
    rescaled whenever the signal variance changes via :meth:`with_log_vector`.
    """

    signal_variance: float
    lengthscale: float
    noise_variance: float
    latent_jitter: float | None = None

    def __post_init__(self):
        # math.isfinite on Python floats: this runs on every optimizer evaluation
        for name in ("signal_variance", "lengthscale", "noise_variance"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)
        jitter = self.latent_jitter
        jitter = DEFAULT_JITTER_RATIO * self.signal_variance if jitter is None else float(jitter)
        if not math.isfinite(jitter) or jitter < 0.0:
            raise ValueError(f"latent_jitter must be finite and nonnegative, got {jitter}")
        object.__setattr__(self, "latent_jitter", jitter)

    @property
    def jitter_ratio(self) -> float:
        return self.latent_jitter / self.signal_variance

    def log_vector(self) -> np.ndarray:
        """(log s2, log ell, log tau2) as an array, the optimizer's view."""
        return np.log([self.signal_variance, self.lengthscale, self.noise_variance])

    def with_log_vector(self, vec) -> "KernelParams":
        """New params from (log s2, log ell, log tau2), keeping the jitter ratio."""
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.size != 3:
            raise ValueError(f"log vector must have length 3, got {vec.size}")
        s2, ell, tau2 = np.exp(vec).tolist()
        return KernelParams(s2, ell, tau2, latent_jitter=self.jitter_ratio * s2)


def _check_same_dim(a: np.ndarray, b: np.ndarray):
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"input dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of two (n, d) arrays."""
    a = as_input_matrix(a, "first input matrix")
    b = as_input_matrix(b, "second input matrix")
    _check_same_dim(a, b)
    return _squared_distances(a, b, _row_norms(b))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of an (n, d) array."""
    return (a * a).sum(axis=1)


def _squared_distances(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """:func:`squared_distances` for finite float matrices of equal width,
    given ``b``'s squared row norms; makes no checks, so a caller that
    reuses ``b`` can validate it and compute its norms once.

    The steps run in place on ``a @ b.T``, formed in one new array or in
    ``out``, a C-contiguous float (n, m) array such as rows of a distance
    buffer, as the same IEEE operations in the same order as
    ``|a|^2 - 2 a.b + |b|^2``, so the result does not depend on which of the
    two forms, or which destination, computed it."""
    d2 = np.matmul(a, b.T, out=out)
    d2 *= -2.0
    d2 += _row_norms(a)[:, None]
    d2 += b_sq[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _kernel(d2: np.ndarray, params: KernelParams, out: np.ndarray | None = None) -> np.ndarray:
    """``s2 * exp(-d2 / (2 ell^2))`` from squared distances, in one new array,
    or in ``out``, which may be ``d2`` itself when its distances are no
    longer needed."""
    kmat = np.multiply(d2, -0.5, out=out)
    kmat /= params.lengthscale ** 2
    np.exp(kmat, out=kmat)
    kmat *= params.signal_variance
    return kmat


def _exponent_rows(a: np.ndarray, lengthscale: float) -> np.ndarray:
    """The (n, d + 2) rows ``[a / ell, -|a / ell|^2 / 2, 1]`` of a finite
    float (n, d) array: the knot block of :func:`_unit_kernel`. Makes no
    checks."""
    n, d = a.shape
    rows = np.empty((n, d + 2))
    scaled = np.divide(a, lengthscale, out=rows[:, :d])
    rows[:, d] = -0.5 * np.einsum("nd,nd->n", scaled, scaled)
    rows[:, d + 1] = 1.0
    return rows


def _exponent_columns(a: np.ndarray, lengthscale: float) -> np.ndarray:
    """The C-contiguous (d + 2, n) columns ``[a / ell; 1; -|a / ell|^2 / 2]``
    of a finite float (n, d) array, so that the knot block of
    :func:`_exponent_rows` times this test block is the exponent
    ``-|u - t|^2 / (2 ell^2)`` of :func:`_unit_kernel`. Makes no checks."""
    n, d = a.shape
    cols = np.empty((d + 2, n))
    scaled = np.divide(a.T, lengthscale, out=cols[:d])
    cols[d] = 1.0
    half_sq = np.einsum("dn,dn->n", scaled, scaled, out=cols[d + 1])
    half_sq *= -0.5
    return cols


def _unit_kernel(knot_rows: np.ndarray, test_columns: np.ndarray) -> np.ndarray:
    """``exp(-|u - t|^2 / (2 ell^2))``, the kernel over ``s2``, between the
    knots' :func:`_exponent_rows` and the test points'
    :func:`_exponent_columns`, in one new C-contiguous (K, m) array: one
    product gives the exponent, whose round-off above zero is set to zero
    (a masked copy, about three times faster than numpy's ``np.minimum``
    against a scalar), and it is exponentiated in place."""
    kmat = knot_rows @ test_columns
    np.copyto(kmat, 0.0, where=kmat > 0.0)
    return np.exp(kmat, out=kmat)


def _point_pair(a, b, b_name: str):
    """``a - b`` and its squared norm for two single points of equal dimension."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    for point, name in ((a, "a"), (b, b_name)):
        if point.ndim != 1:
            raise ValueError(f"{name} must be a single point (1-d array)")
    _check_same_dim(a, b)
    diff = a - b
    return diff, float(diff @ diff)


def kernel_eval(a, b, params: KernelParams) -> float:
    """Evaluate k(a, b) for two single points."""
    _, r2 = _point_pair(a, b, "b")
    return params.signal_variance * float(np.exp(-0.5 * r2 / params.lengthscale ** 2))


def cov_matrix(a, b, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix with (i, j) entry k(a_i, b_j). No jitter is added."""
    return _kernel(squared_distances(a, b), params)


def kernel_grad_params(a, b, params: KernelParams) -> np.ndarray:
    """Gradient of k(a, b) with respect to (log s2, log ell)."""
    _, r2 = _point_pair(a, b, "b")
    ell2 = params.lengthscale ** 2
    k = params.signal_variance * float(np.exp(-0.5 * r2 / ell2))
    return np.array([k, k * r2 / ell2])


def kernel_grad_knot(a, knot, params: KernelParams) -> np.ndarray:
    """Gradient of k(a, knot) with respect to the knot coordinates."""
    diff, r2 = _point_pair(a, knot, "knot")
    ell2 = params.lengthscale ** 2
    k = params.signal_variance * float(np.exp(-0.5 * r2 / ell2))
    return k * diff / ell2
