"""Predictive accuracy metrics: MNLP, SRMSE, and the average univariate KL
divergence against a full-GP reference.

MNLP scores the *noisy-target* density (observation noise included); AUKL
compares *latent* densities (no observation noise). The asymmetry is
deliberate and easy to miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import LOG_2PI, PredictiveDistribution, as_vector


@dataclass
class MetricReport:
    mnlp: float
    srmse: float
    aukl: float | None = None
    log10_aukl: float | None = None
    train_seconds: float = 0.0
    knot_count: int = 0


def mnlp(predictive: PredictiveDistribution, test_targets) -> float:
    """Median over test points of the negative Gaussian log density of the
    observed target under the noisy predictive distribution."""
    y = as_vector(test_targets, "test targets")
    if len(predictive) != y.size:
        raise ValueError("predictive distribution and targets must have equal length")
    var = predictive.noisy_variance
    if not (var > 0.0).all():                  # a NaN variance fails too
        raise ValueError("noisy predictive variance must be strictly positive")
    nll = 0.5 * (LOG_2PI + np.log(var) + (y - predictive.latent_mean) ** 2 / var)
    return float(np.median(nll))


def srmse(predictive: PredictiveDistribution, test_targets) -> float:
    """Root mean squared error of the predictive means, divided by the
    test-set sample standard deviation (N - 1 denominator)."""
    y = as_vector(test_targets, "test targets")
    if len(predictive) != y.size:
        raise ValueError("predictive distribution and targets must have equal length")
    if y.size < 2:
        raise ValueError("srmse needs at least two test points")
    sd = float(np.std(y, ddof=1))
    if sd == 0.0:
        raise ValueError("test targets are constant; srmse is undefined")
    rmse = float(np.sqrt(np.mean((predictive.latent_mean - y) ** 2)))
    return rmse / sd


def gaussian_kl(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """KL(N(mean1, var1) || N(mean2, var2)); zero iff the pairs coincide."""
    return float(_gaussian_kl(mean1, var1, mean2, var2))


def _gaussian_kl(mean1, var1, mean2, var2):
    """:func:`gaussian_kl`, elementwise over arrays of moments."""
    if not (np.all(var1 > 0.0) and np.all(var2 > 0.0)):
        raise ValueError("variances must be strictly positive")
    return 0.5 * np.log(var2 / var1) + (var1 + (mean1 - mean2) ** 2) / (2.0 * var2) - 0.5


def aukl(full_predictive: PredictiveDistribution,
         sparse_predictive: PredictiveDistribution) -> float:
    """Mean univariate KL from the full-GP latent predictive density to the
    sparse model's, across test points."""
    if len(full_predictive) != len(sparse_predictive):
        raise ValueError("predictive distributions must have equal length")
    return float(np.mean(_gaussian_kl(full_predictive.latent_mean,
                                      full_predictive.latent_variance,
                                      sparse_predictive.latent_mean,
                                      sparse_predictive.latent_variance)))
