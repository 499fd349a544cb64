"""Shared numerical helpers and result containers.

The package calls six compiled scipy routines: BLAS ``dtrsm``, ``dtrmm``
and ``dgemm``, LAPACK ``dpotrf`` and ``dpotri``, and the ``ndtr`` ufunc. They
are bound here, by :func:`_scipy_routine`, straight from the extension
modules that hold them (``scipy/linalg/_fblas``, ``scipy/linalg/_flapack`` and
``scipy/special/_special_ufuncs``), so no ``__init__`` of ``scipy.linalg``
or ``scipy.special`` runs. Those packages pull in scipy's array-API layer,
which loads ``numpy.f2py``, ``numpy.testing``, ``unittest`` and more, and
cost every process about 0.36 s and 26 MB to import. The bound objects are
the very ones that ``scipy.linalg.blas``, ``scipy.linalg.lapack`` and
``scipy.special`` re-export, so every result has the same bits. Under a
scipy layout where a file is missing or does not load, the public name is
imported and bound instead: the same routine at the full import cost.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np


def _scipy_routine(extension: str, routine: str, public: str):
    """``routine`` from scipy's compiled module ``extension``, else from the
    module ``public`` that re-exports it.

    An extension not imported yet is loaded from its file under scipy's
    directory (``find_spec`` imports nothing) and left out of
    ``sys.modules``, so a later ``import scipy.linalg`` runs as usual.
    """
    module = sys.modules.get(extension)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        roots = (scipy_spec.submodule_search_locations or []) if scipy_spec else []
        *package, leaf = extension.split(".")[1:]
        paths = (os.path.join(root, *package, leaf + suffix)
                 for root in roots for suffix in EXTENSION_SUFFIXES)
        path = next(filter(os.path.isfile, paths), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(extension, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                module = None
            finally:
                sys.modules.pop(extension, None)    # single-phase modules register themselves
    if not hasattr(module, routine):
        module = importlib.import_module(public)
    return getattr(module, routine)


dtrsm = _scipy_routine("scipy.linalg._fblas", "dtrsm", "scipy.linalg.blas")
dtrmm = _scipy_routine("scipy.linalg._fblas", "dtrmm", "scipy.linalg.blas")
dgemm = _scipy_routine("scipy.linalg._fblas", "dgemm", "scipy.linalg.blas")
dpotrf = _scipy_routine("scipy.linalg._flapack", "dpotrf", "scipy.linalg.lapack")
dpotri = _scipy_routine("scipy.linalg._flapack", "dpotri", "scipy.linalg.lapack")
ndtr = _scipy_routine("scipy.special._special_ufuncs", "ndtr", "scipy.special")

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


SYM_BLOCK = 128
"""Rows per block in which :func:`chol_lower` symmetrizes a matrix."""


def _symmetrized(matrix: np.ndarray, label: str, out: np.ndarray) -> np.ndarray:
    """``out`` with ``(matrix + matrix^T) / 2`` written into its upper
    triangle, the only one that :func:`chol_lower`'s ``dpotrf`` reads of a
    C-ordered array; a non-finite entry raises ``ValueError`` naming
    ``label``.

    ``out`` may be ``matrix`` itself. The upper triangle is written in row
    blocks of :data:`SYM_BLOCK`, each the sum of the block's rows from its
    diagonal on and the transpose of its block column from its diagonal
    down, so each block reads only rows not written yet; where they share
    memory, numpy copies the transposed operand first. The diagonal blocks
    are written whole, and below them ``out`` keeps what its buffer held.
    """
    for r0 in range(0, len(matrix), SYM_BLOCK):
        r1 = r0 + SYM_BLOCK
        rows = out[r0:r1, r0:]
        np.add(matrix[r0:r1, r0:], matrix[r0:, r0:r1].T, out=rows)
        rows *= 0.5
        if not np.isfinite(rows).all():
            raise ValueError(f"{label} contains non-finite entries")
    return out


def chol_lower(matrix: np.ndarray, escalations: int = 0, diagnostics: dict | None = None,
               label: str = "matrix", _overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PSD matrix.

    The factor comes from LAPACK ``dpotrf`` called directly, the same
    routine ``scipy.linalg.cholesky`` wraps, with its upper triangle zeroed.
    It is bound from scipy's ``_flapack`` extension without importing
    ``scipy.linalg``, or from ``scipy.linalg.lapack`` where that file is
    absent or does not load (see the module docstring).

    The input is symmetrized as ``(matrix + matrix^T) / 2`` and a non-finite
    entry raises ``ValueError``. ``dpotrf`` gets the transpose of the
    C-ordered symmetrized array, which is that array in Fortran order, and
    factors it in place, reading only its upper triangle. Only that upper
    triangle is symmetrized, in row blocks (:func:`_symmetrized`), which
    reads the transpose block by block instead of at a stride of one row;
    it goes into one new array, or with the private ``_overwrite`` into the
    input's own buffer, so that a C-contiguous input becomes the factor and
    is lost. Either way the factor has the same bits, and the returned
    array is the one to use.

    If ``escalations`` > 0 and the factorization fails, the symmetrized
    array is formed again in the same buffer and a ridge starting at 1e-12
    times the mean diagonal is added to its diagonal, grown a hundredfold
    per retry; each failed attempt bumps the ``near_singular_factorizations``
    counter in ``diagnostics``. Raises :class:`NumericalError`, carrying the
    ridge of the last attempt, once retries are exhausted. An overwritten
    input cannot be formed again, so ``_overwrite`` requires
    ``escalations=0``.
    """
    if _overwrite and escalations:
        raise ValueError("chol_lower cannot retry an overwritten matrix: escalations must be 0")

    sym = _symmetrized(matrix, label, matrix if _overwrite else np.empty(matrix.shape))
    ridge = 0.0
    for attempt in range(escalations + 1):
        if attempt:
            _symmetrized(matrix, label, sym)    # the failed attempt overwrote it
            if attempt == 1:
                scale = float(sym.diagonal().mean())
                if not np.isfinite(scale) or scale <= 0.0:
                    scale = 1.0
                ridge = 1e-12 * scale
            else:
                ridge *= 100.0
            # below its diagonal blocks sym holds bytes that dpotrf never
            # reads, np.empty's or a failed attempt's, so only the diagonal
            # takes the ridge
            sym.reshape(-1)[::sym.shape[0] + 1] += ridge
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
    ``noisy_variance`` adds the observation noise variance. The constructor
    validates its arguments; the predictors, whose moments are valid by
    construction, build theirs with :meth:`_unchecked`.
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
        # written so that a NaN variance fails too
        if not ((self.latent_variance >= 0.0).all() and (self.noisy_variance >= 0.0).all()):
            raise ValueError("predictive variances must be nonnegative")

    @classmethod
    def _unchecked(cls, latent_mean: np.ndarray, latent_variance: np.ndarray,
                   noisy_variance: np.ndarray) -> "PredictiveDistribution":
        """A distribution over float vectors of equal length whose variances
        are known nonnegative."""
        pred = object.__new__(cls)
        pred.latent_mean = latent_mean
        pred.latent_variance = latent_variance
        pred.noisy_variance = noisy_variance
        return pred

    def __len__(self) -> int:
        return self.latent_mean.size


def _clamped_prediction(mean: np.ndarray, latent_variance: np.ndarray,
                        noise_variance: float, diagnostics: dict) -> PredictiveDistribution:
    """Predictive moments from the float vectors ``mean`` and
    ``latent_variance`` of equal length, with negative round-off latent
    variances clamped at zero; the number clamped is added to
    ``diagnostics['negative_variance_clamps']``. A NaN variance, such as
    ``inf - inf`` from a finite but extreme test row, raises
    :class:`NumericalError`.

    One minimum decides: when it is nonnegative, which is the usual case,
    nothing is counted or copied. Either way the result is built unchecked,
    because its variances are nonnegative by then."""
    if not latent_variance.min() >= 0.0:
        if np.isnan(latent_variance).any():
            raise NumericalError("predictive variance is NaN: a test input overflows "
                                 "the kernel's float arithmetic")
        diagnostics["negative_variance_clamps"] = (
            diagnostics.get("negative_variance_clamps", 0) + int(np.sum(latent_variance < 0.0))
        )
        latent_variance = np.maximum(latent_variance, 0.0)
    return PredictiveDistribution._unchecked(mean, latent_variance,
                                             latent_variance + noise_variance)
