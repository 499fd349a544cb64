"""Shared numerical helpers and result containers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

LOG_2PI = float(np.log(2.0 * np.pi))


class NumericalError(RuntimeError):
    """A matrix factorization failed, even after any ridge escalation.

    Carries ``attempted_jitter``, the diagonal ridge in effect at the time of
    the failure, so callers can report what was tried.
    """

    def __init__(self, message: str, attempted_jitter: float | None = None):
        super().__init__(message)
        self.attempted_jitter = attempted_jitter


def as_input_matrix(x, name: str = "inputs") -> np.ndarray:
    """Coerce to an (n, d) float matrix; 1-d input becomes a column of scalars."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(y, name: str = "targets") -> np.ndarray:
    a = np.asarray(y, dtype=float).reshape(-1)
    if a.size < 1:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _training_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Training inputs as an (n, d) matrix and targets as an n-vector."""
    x = as_input_matrix(x, "training inputs")
    y = as_vector(y, "training targets")
    if x.shape[0] != y.size:
        raise ValueError(f"row count mismatch: {x.shape[0]} inputs vs {y.size} targets")
    return x, y


def _test_inputs(test_inputs, x: np.ndarray) -> np.ndarray:
    """Test inputs as an (m, d) matrix as wide as the training inputs ``x``."""
    xt = as_input_matrix(test_inputs, "test inputs")
    if xt.shape[1] != x.shape[1]:
        raise ValueError(f"test input dimension {xt.shape[1]} does not match "
                         f"training dimension {x.shape[1]}")
    return xt


def chol_lower(matrix: np.ndarray, escalations: int = 0, diagnostics: dict | None = None,
               label: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix.

    The input is left unmodified and symmetrized into one new array; a
    non-finite entry raises ``ValueError``. The factor comes from LAPACK
    ``dpotrf`` called directly, the same routine ``scipy.linalg.cholesky``
    wraps, with its upper triangle zeroed. ``dpotrf`` factors the symmetrized
    array in place: it is exactly symmetric, so its transpose is the same
    matrix in Fortran order and needs no second copy. If ``escalations`` > 0
    and the factorization fails, the symmetrized array is formed again and a
    ridge starting at 1e-12 times the mean diagonal is added, grown a
    hundredfold per retry; each failed attempt bumps the
    ``near_singular_factorizations`` counter in ``diagnostics``. Raises
    :class:`NumericalError`, carrying the ridge of the last attempt, once
    retries are exhausted.
    """
    def symmetrized():
        sym = matrix + matrix.T
        sym *= 0.5
        return sym

    sym = symmetrized()
    if not np.isfinite(sym).all():
        raise ValueError(f"{label} contains non-finite entries")
    ridge = 0.0
    for attempt in range(escalations + 1):
        if attempt:
            sym = symmetrized()                  # the failed attempt overwrote it
            if attempt == 1:
                scale = float(sym.diagonal().mean())
                if not np.isfinite(scale) or scale <= 0.0:
                    scale = 1.0
                ridge = 1e-12 * scale
            else:
                ridge *= 100.0
            sym += ridge * np.eye(sym.shape[0])
        factor, info = dpotrf(sym.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return factor
        if info < 0:
            raise ValueError(f"dpotrf rejected argument {-info} for {label}")
        if diagnostics is not None:
            diagnostics["near_singular_factorizations"] = (
                diagnostics.get("near_singular_factorizations", 0) + 1
            )
    raise NumericalError(f"Cholesky factorization of {label} failed", attempted_jitter=ridge)


def tri_solve(factor: np.ndarray, rhs: np.ndarray, trans: bool = False,
              _overwrite: bool = False) -> np.ndarray:
    """``factor^{-1} rhs``, or ``factor^{-T} rhs`` with ``trans``, for a lower
    triangular ``factor`` with a positive diagonal, such as one returned by
    :func:`chol_lower`. ``rhs`` is a vector or a matrix and is not modified,
    unless the private ``_overwrite`` lets the solve write into a C-contiguous
    ``rhs`` instead of a copy, with the same bits; use the returned array
    either way.

    No finiteness check is made: both arguments must derive from inputs that
    were validated already. The solve runs as ``X op(factor)^T = rhs^T`` with
    the factor on the right, which BLAS does several times faster than the
    left-sided form when ``rhs`` has many more columns than rows, as the
    K x N matrices of the sparse models do.
    """
    rhs_t = rhs.T if rhs.ndim == 2 else rhs[None, :]
    out = dtrsm(1.0, factor, rhs_t, side=1, lower=1, trans_a=0 if trans else 1,
                overwrite_b=_overwrite)
    return out.T if rhs.ndim == 2 else out[0]


@dataclass
class PredictiveDistribution:
    """Marginal predictive moments, one entry per test point.

    ``latent_variance`` is the variance of the noise-free function value;
    ``noisy_variance`` adds the observation noise variance.
    """

    latent_mean: np.ndarray
    latent_variance: np.ndarray
    noisy_variance: np.ndarray

    def __post_init__(self):
        self.latent_mean = np.asarray(self.latent_mean, dtype=float).reshape(-1)
        self.latent_variance = np.asarray(self.latent_variance, dtype=float).reshape(-1)
        self.noisy_variance = np.asarray(self.noisy_variance, dtype=float).reshape(-1)
        n = self.latent_mean.size
        if self.latent_variance.size != n or self.noisy_variance.size != n:
            raise ValueError("predictive moment vectors must have equal length")
        if np.any(self.latent_variance < 0) or np.any(self.noisy_variance < 0):
            raise ValueError("predictive variances must be nonnegative")

    def __len__(self) -> int:
        return self.latent_mean.size


def _clamped_prediction(mean: np.ndarray, latent_variance: np.ndarray,
                        noise_variance: float, diagnostics: dict) -> PredictiveDistribution:
    """Predictive moments with negative round-off latent variances clamped at
    zero; the number clamped is added to
    ``diagnostics['negative_variance_clamps']``."""
    clamps = int(np.sum(latent_variance < 0.0))
    if clamps:
        diagnostics["negative_variance_clamps"] = (
            diagnostics.get("negative_variance_clamps", 0) + clamps
        )
        latent_variance = np.maximum(latent_variance, 0.0)
    return PredictiveDistribution(mean, latent_variance, latent_variance + noise_variance)
