"""Sparse Gaussian process regression with one-at-a-time knot selection."""

from .adadelta import MaximizeResult, OptimState, OptimizerConfig, adadelta_step, maximize
from .common import NumericalError, PredictiveDistribution
from .full_gp import (FullGPModel, fit_full, fit_hyperparameters, log_marginal_likelihood,
                      predict_full)
from .kernels import (KernelParams, cov_matrix, kernel_eval, kernel_grad_knot,
                      kernel_grad_params)
from .metrics import MetricReport, aukl, gaussian_kl, mnlp, srmse
from .selection import (OATConfig, SelectionTrace, kmeans_init, oat_select,
                        propose_bo, propose_rs, simultaneous_optimize)
from .sparse_gp import (Approximation, KnotSet, SparseGPModel, elbo, elbo_grad,
                        fic_log_marginal, fit_sparse, predict_sparse,
                        prior_variance_report, psi_cross, psi_diag)

__all__ = [
    "Approximation",
    "FullGPModel",
    "KernelParams",
    "KnotSet",
    "MaximizeResult",
    "MetricReport",
    "NumericalError",
    "OATConfig",
    "OptimState",
    "OptimizerConfig",
    "PredictiveDistribution",
    "SelectionTrace",
    "SparseGPModel",
    "adadelta_step",
    "aukl",
    "cov_matrix",
    "elbo",
    "elbo_grad",
    "fic_log_marginal",
    "fit_full",
    "fit_hyperparameters",
    "fit_sparse",
    "gaussian_kl",
    "kernel_eval",
    "kernel_grad_knot",
    "kernel_grad_params",
    "kmeans_init",
    "log_marginal_likelihood",
    "maximize",
    "mnlp",
    "oat_select",
    "predict_full",
    "predict_sparse",
    "prior_variance_report",
    "propose_bo",
    "propose_rs",
    "psi_cross",
    "psi_diag",
    "simultaneous_optimize",
    "srmse",
]
