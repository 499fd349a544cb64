"""Exact Gaussian process regression.

Serves two purposes: it is a usable model in its own right, and it is the
reference against which the sparse approximations are checked (objective
lower bounds, predictive divergences). All solves go through a Cholesky
factor of ``Sigma_xx + (tau2 + jitter) I``; no matrix is ever inverted
explicitly outside the gradient, which needs the full inverse anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from .common import (LOG_2PI, NumericalError, PredictiveDistribution,
                     as_input_matrix, as_vector, chol_lower, tri_solve)
from .kernels import KernelParams, squared_distances


@dataclass
class FullGPModel:
    """An exact GP fitted to (x, y) with a constant mean function.

    ``chol`` is the lower Cholesky factor of ``Sigma_xx + (tau2 + jitter) I``
    and ``alpha`` solves that matrix against the centered targets.
    """

    params: KernelParams
    train_inputs: np.ndarray
    train_targets: np.ndarray
    mean_constant: float
    chol: np.ndarray
    alpha: np.ndarray
    kernel_matrix: np.ndarray
    sqdist: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def fit_full(x, y, params: KernelParams, mean_constant: float = 0.0, *,
             _sqdist: np.ndarray | None = None) -> FullGPModel:
    """Fit an exact GP by factorizing the noisy training covariance.

    ``_sqdist``, private to the package, is ``squared_distances(x, x)`` when
    the caller already holds it, as a hyperparameter search over fixed
    inputs does.
    """
    x = as_input_matrix(x, "training inputs")
    y = as_vector(y, "training targets")
    if x.shape[0] != y.size:
        raise ValueError(f"row count mismatch: {x.shape[0]} inputs vs {y.size} targets")
    d2 = squared_distances(x, x) if _sqdist is None else _sqdist
    kmat = params.signal_variance * np.exp(-0.5 * d2 / params.lengthscale ** 2)
    noisy = kmat + (params.noise_variance + params.latent_jitter) * np.eye(x.shape[0])
    diagnostics: dict = {}
    try:
        factor = chol_lower(noisy, escalations=0, diagnostics=diagnostics,
                            label="training covariance")
    except NumericalError as err:
        raise NumericalError(
            "training covariance is not positive definite",
            attempted_jitter=params.latent_jitter,
        ) from err
    resid = y - mean_constant
    alpha = tri_solve(factor, tri_solve(factor, resid), trans=True)
    return FullGPModel(params, x, y, float(mean_constant), factor, alpha, kmat, d2,
                       diagnostics)


def log_marginal_likelihood(model: FullGPModel, with_grad: bool = False):
    """Log density of the targets under the fitted joint Gaussian.

    With ``with_grad=True`` also returns the gradient with respect to
    (log s2, log ell, log tau2). The jitter is tied to the signal variance
    (fixed ratio), so its contribution rides along with the log-s2 direction.
    """
    n = model.n_train
    resid = model.train_targets - model.mean_constant
    value = -0.5 * (n * LOG_2PI + 2.0 * np.sum(np.log(np.diag(model.chol)))
                    + float(resid @ model.alpha))
    if not with_grad:
        return float(value)
    params = model.params
    half_inverse = tri_solve(model.chol, np.eye(n))
    weight = np.outer(model.alpha, model.alpha) - half_inverse.T @ half_inverse
    weighted_kernel = weight * model.kernel_matrix
    trace = np.trace(weight)
    d_log_s2 = 0.5 * (np.sum(weighted_kernel) + params.latent_jitter * trace)
    d_log_ell = 0.5 * np.sum(weighted_kernel * model.sqdist) / params.lengthscale ** 2
    d_log_tau2 = 0.5 * trace * params.noise_variance
    return float(value), np.array([d_log_s2, d_log_ell, d_log_tau2])


def predict_full(model: FullGPModel, test_inputs) -> PredictiveDistribution:
    """Marginal latent mean/variance per test point, plus the noisy variant.

    Negative round-off variances are clamped at zero; the number of clamps is
    recorded in ``model.diagnostics['negative_variance_clamps']``.
    """
    xt = as_input_matrix(test_inputs, "test inputs")
    if xt.shape[1] != model.train_inputs.shape[1]:
        raise ValueError(
            f"test input dimension {xt.shape[1]} does not match "
            f"training dimension {model.train_inputs.shape[1]}"
        )
    params = model.params
    d2 = squared_distances(model.train_inputs, xt)
    cross = params.signal_variance * np.exp(-0.5 * d2 / params.lengthscale ** 2)
    mean = model.mean_constant + cross.T @ model.alpha
    half = tri_solve(model.chol, cross)
    prior_var = params.signal_variance + params.latent_jitter
    var = prior_var - np.einsum("nj,nj->j", half, half)
    clamps = int(np.sum(var < 0.0))
    if clamps:
        model.diagnostics["negative_variance_clamps"] = (
            model.diagnostics.get("negative_variance_clamps", 0) + clamps
        )
        var = np.maximum(var, 0.0)
    return PredictiveDistribution(mean, var, var + params.noise_variance)
