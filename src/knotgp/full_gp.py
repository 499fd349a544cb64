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
of the log marginal likelihood recomputes the kernel matrix from the
distances and turns a copy of the factor into the full inverse with one
LAPACK ``potri``; the inverse's lower triangle is mirrored, and the weight
matrix ``alpha alpha^T - K^{-1}`` formed, in that copy, in row blocks. So a
gradient evaluation holds three: distances, kernel and that work buffer.

The hyperparameter search behind the BO surrogate and the FullGP roster
entry runs BFGS by default (the surrogate asks for ADADELTA) and evaluates
in a lean path: the inputs are validated and their squared distances formed
once, and each evaluation is one kernel matrix from ``kernels._kernel``, a
copy of it factored in place with the noise on its diagonal, two
triangular solves and one ``potri`` in the factor's buffer, with no model
object built. It shares :func:`_factorize` with :func:`fit_full`, and
:func:`_log_density_and_grad` with :func:`log_marginal_likelihood`, so its
values are those of the public pair to the bit.
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
        factor, alpha = _factorize(kmat.copy(), y, params)     # the gradient reads kmat
        return _log_density_and_grad(factor, alpha, y, kmat, d2, params, True)

    result = maximize(objective, init_params.log_vector(), optimizer_config, method=method)
    return fit_full(x, y, init_params.with_log_vector(result.x)), result


def log_marginal_likelihood(model: FullGPModel, with_grad: bool = False):
    """Log density of the targets under the fitted joint Gaussian.

    With ``with_grad=True`` also returns the gradient with respect to
    (log s2, log ell, log tau2), recomputing the kernel matrix from the
    training inputs and inverting a copy of ``model.chol``. The jitter is tied
    to the signal variance (fixed ratio), so its contribution rides along with
    the log-s2 direction.
    """
    resid = model.train_targets - model.mean_constant
    if not with_grad:
        return _log_density_and_grad(model.chol, model.alpha, resid, None, None, model.params,
                                     False)
    d2 = squared_distances(model.train_inputs, model.train_inputs)
    return _log_density_and_grad(model.chol.copy(order="K"), model.alpha, resid,
                                 _kernel(d2, model.params), d2, model.params, True)


SYM_BLOCK = 128
"""Rows per block in which :func:`_log_density_and_grad` forms the weight
matrix."""

# the strict lower triangle of a diagonal block of the weight matrix, sliced
# to the block's size
_STRICT_LOWER = np.tri(SYM_BLOCK, SYM_BLOCK, -1, dtype=bool)
_STRICT_LOWER.flags.writeable = False


def _log_density_and_grad(chol, alpha, resid, kmat, d2, params: KernelParams,
                          with_grad: bool):
    """:func:`log_marginal_likelihood` from the parts of a fitted model; reads
    only the lower triangle of ``chol``, and with ``with_grad`` takes
    ownership of it: LAPACK ``potri`` overwrites a Fortran-ordered ``chol``
    with the lower triangle of the inverse, and the weight matrix is formed
    in that buffer."""
    n = resid.size
    value = float(-0.5 * (n * LOG_2PI + 2.0 * np.log(chol.diagonal()).sum()
                          + resid @ alpha))
    if not with_grad:
        return value
    inverse, info = dpotri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    # The C-ordered view of potri's Fortran-ordered result, whose upper
    # triangle holds the inverse: its lower triangle is mirrored from the
    # upper, and it becomes alpha alpha^T - K^{-1}, in C order so that the
    # sums below run over the same memory order as over a new C array. This
    # goes row block by row block: rows above a block are weights already,
    # symmetric to the bit, so the block's left part copies them, and its
    # diagonal block is mirrored within itself.
    weight = inverse.T
    for r0 in range(0, n, SYM_BLOCK):
        r1 = r0 + SYM_BLOCK
        weight[r0:r1, :r0] = weight[:r0, r0:r1].T
        block = weight[r0:r1, r0:r1]
        np.copyto(block, block.T, where=_STRICT_LOWER[:len(block), :len(block)])
        rows = weight[r0:r1, r0:]
        np.subtract(alpha[r0:r1, None] * alpha[r0:], rows, out=rows)
    trace = float(weight.trace())
    weight *= kmat
    d_log_s2 = 0.5 * (weight.sum() + params.latent_jitter * trace)
    d_log_ell = 0.5 * np.vdot(weight, d2) / params.lengthscale ** 2
    d_log_tau2 = 0.5 * trace * params.noise_variance
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
