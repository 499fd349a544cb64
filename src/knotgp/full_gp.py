"""Exact Gaussian process regression.

Serves two purposes: it is a usable model in its own right, and it is the
reference against which the sparse approximations are checked (objective
lower bounds, predictive divergences). A fitted model holds no N x N matrix
but the Cholesky factor of ``Sigma_xx + (tau2 + jitter) I``, through which
all solves go.

A fit holds one N x N array at a time: the squared distances become the
kernel matrix in place, the noise goes on its diagonal, and
:func:`~knotgp.common.chol_lower` factors its upper triangle in that same
buffer, which the model keeps as its factor. The gradient
of the log marginal likelihood turns the recomputed distances into the
kernel matrix times the distances, and a copy of the factor into the lower
triangle of the inverse with one LAPACK ``potri``. Its three directions are
taken in closed form from those two arrays, ``alpha`` and the residuals,
with no weight matrix ``alpha alpha^T - K^{-1}`` formed. So a gradient
evaluation holds two N x N arrays, and a search evaluation three, since it
keeps its distances.

The hyperparameter search behind the BO surrogate and the FullGP roster
entry runs BFGS by default (the surrogate asks for ADADELTA) and evaluates
in a lean path: the inputs are validated and their squared distances formed
once, and each evaluation is one kernel matrix from ``kernels._kernel``, a
copy of it factored in place with the noise on its diagonal, two
triangular solves, the kernel matrix times the distances in place and one
``potri`` in the factor's buffer, with no model object built. It shares
:func:`_factorize` with :func:`fit_full`, and :func:`_log_density_and_grad`
with :func:`log_marginal_likelihood`, so its values are those of the public
pair to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adadelta import MaximizeResult, OptimizerConfig, maximize
from .common import (LOG_2PI, NumericalError, PredictiveDistribution, _clamped_prediction,
                     _test_inputs, _training_data, chol_lower, dpotri, tri_solve)
from .kernels import KernelParams, _kernel, _row_norms, _squared_distances, squared_distances


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
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_train(self) -> int:
        return self.train_inputs.shape[0]


def _factorize(kmat: np.ndarray, resid: np.ndarray, params: KernelParams):
    """Cholesky factor of the noisy training covariance and ``alpha``, from the
    kernel matrix and the centered targets, which must already be validated.

    Takes ownership of ``kmat``, a C-contiguous float array: the noise goes
    on its diagonal in place, and its upper triangle is factored in place
    too, so the factor is that buffer.
    """
    kmat.reshape(-1)[::kmat.shape[0] + 1] += params.noise_variance + params.latent_jitter
    try:
        factor = chol_lower(kmat, escalations=0, label="training covariance", _overwrite=True)
    except NumericalError as err:
        raise NumericalError(
            "training covariance is not positive definite",
            attempted_jitter=params.latent_jitter,
        ) from err
    alpha = tri_solve(factor, tri_solve(factor, resid), trans=True)
    return factor, alpha


def fit_full(x, y, params: KernelParams, mean_constant: float = 0.0) -> FullGPModel:
    """Fit an exact GP by factorizing the noisy training covariance."""
    x, y = _training_data(x, y)
    d2 = squared_distances(x, x)
    factor, alpha = _factorize(_kernel(d2, params, out=d2), y - mean_constant, params)
    return FullGPModel(params, x, y, float(mean_constant), factor, alpha)


def fit_hyperparameters(x, y, init_params: KernelParams,
                        optimizer_config: OptimizerConfig, *, method: str = "bfgs"
                        ) -> tuple[FullGPModel, MaximizeResult]:
    """Maximize the log marginal likelihood of a zero-mean exact GP over
    (log s2, log ell, log tau2), starting from ``init_params``, by the
    :func:`~knotgp.adadelta.maximize` ``method``: BFGS by default, which
    converges in about a dozen evaluations on this three-parameter problem.

    The inputs are validated and their squared distances computed once for
    the whole search; the jitter keeps its ratio to the signal variance.
    Each evaluation runs the same arithmetic as :func:`fit_full` followed by
    :func:`log_marginal_likelihood`, without building a model. Returns the
    model refitted at the best parameters seen, and the optimizer's result.
    """
    x, y = _training_data(x, y)
    d2 = squared_distances(x, x)

    def objective(vec):
        params = init_params.with_log_vector(vec)
        kmat = _kernel(d2, params)
        factor, alpha = _factorize(kmat.copy(), y, params)     # kmat becomes kd below
        return _log_density_and_grad(factor, alpha, y, params, np.multiply(kmat, d2, out=kmat))

    result = maximize(objective, init_params.log_vector(), optimizer_config, method=method)
    return fit_full(x, y, init_params.with_log_vector(result.x)), result


def log_marginal_likelihood(model: FullGPModel, with_grad: bool = False):
    """Log density of the targets under the fitted joint Gaussian.

    With ``with_grad=True`` also returns the gradient with respect to
    (log s2, log ell, log tau2), recomputing the kernel matrix times the
    squared distances in the distance buffer and inverting one
    Fortran-ordered copy of the lower triangle of ``model.chol``, so only
    that triangle is read and the model is left as it is. The jitter is tied
    to the signal variance (fixed ratio), so its contribution rides along with
    the log-s2 direction.
    """
    resid = model.train_targets - model.mean_constant
    if not with_grad:
        return _log_density_and_grad(model.chol, model.alpha, resid, model.params)
    d2 = squared_distances(model.train_inputs, model.train_inputs)
    kd = np.multiply(_kernel(d2, model.params), d2, out=d2)
    return _log_density_and_grad(np.triu(model.chol.T).T, model.alpha, resid, model.params, kd)


def _log_density_and_grad(chol, alpha, resid, params: KernelParams, kd=None):
    """:func:`log_marginal_likelihood` from the parts of a fitted model.

    Without ``kd`` returns the value alone and reads only the diagonal of
    ``chol``. Passing ``kd``, the kernel matrix times the squared distances,
    asks for the gradient too and takes ownership of ``chol``, which must be
    Fortran-ordered with zeros above its diagonal, as
    :func:`~knotgp.common.chol_lower` returns it: LAPACK ``potri``
    overwrites its lower triangle with that of ``K^{-1}``.

    With ``W = alpha alpha^T - K^{-1}``, the gradient is ``0.5 tr(W dK)`` per
    direction (Rasmussen & Williams 2006, eq. 5.9), taken without forming
    ``W``: ``tr(W K) = r^T alpha - n`` is the sum of the signal (with the
    jitter) and noise directions, the noise direction needs ``tr W`` only,
    and the lengthscale's ``sum(K^{-1} * kd)`` is read off one triangle of
    the inverse."""
    n = resid.size
    fit = resid @ alpha
    value = float(-0.5 * (n * LOG_2PI + 2.0 * np.log(chol.diagonal()).sum() + fit))
    if kd is None:
        return value
    inverse, info = dpotri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    # the C-ordered view of the Fortran-ordered result: K^{-1} on and above
    # its diagonal, and the zeros of the factor's upper triangle below it
    upper = inverse.T
    d_log_tau2 = 0.5 * params.noise_variance * (alpha @ alpha - upper.trace())
    d_log_s2 = 0.5 * (fit - n) - d_log_tau2
    inverse_kd = 2.0 * np.vdot(upper, kd) - upper.diagonal() @ kd.diagonal()
    d_log_ell = 0.5 * (alpha @ (kd @ alpha) - inverse_kd) / params.lengthscale ** 2
    return value, np.array([d_log_s2, d_log_ell, d_log_tau2])


def predict_full(model: FullGPModel, test_inputs) -> PredictiveDistribution:
    """Marginal latent mean/variance per test point, plus the noisy variant.

    Negative round-off variances are clamped at zero; the number of clamps is
    recorded in ``model.diagnostics['negative_variance_clamps']``. A NaN
    variance raises :class:`NumericalError`. The test
    rows are validated once, and the cross-kernel is formed and solved in
    one N x m buffer.
    """
    xt = _test_inputs(test_inputs, model.train_inputs)
    params = model.params
    d2 = _squared_distances(model.train_inputs, xt, _row_norms(xt))
    cross = _kernel(d2, params, out=d2)
    mean = model.mean_constant + cross.T @ model.alpha
    half = tri_solve(model.chol, cross, _overwrite=True)
    prior_var = params.signal_variance + params.latent_jitter
    var = prior_var - np.einsum("nj,nj->j", half, half)
    return _clamped_prediction(mean, var, params.noise_variance, model.diagnostics)
