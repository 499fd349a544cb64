"""Independent brute-force implementations used as test oracles.

Everything here is written against dense matrices with plain numpy inverses
and scipy densities, deliberately avoiding the low-rank code paths under
test.
"""

import numpy as np
import scipy.stats


def se_kernel_matrix(a, b, params):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return params.signal_variance * np.exp(-0.5 * d2 / params.lengthscale ** 2)


def dense_psi(a, b, knots, params):
    """Psi_ab = S_a^T (Suu + jitter I)^{-1} S_b via a dense inverse."""
    suu = se_kernel_matrix(knots, knots, params) \
        + params.latent_jitter * np.eye(len(knots))
    sa = se_kernel_matrix(knots, a, params)
    sb = se_kernel_matrix(knots, b, params)
    return sa.T @ np.linalg.inv(suu) @ sb


def dense_elbo(x, y, knots, params, mean_constant=0.0):
    n = len(y)
    psi = dense_psi(x, x, knots, params)
    cov = psi + params.noise_variance * np.eye(n)
    ll = scipy.stats.multivariate_normal(
        mean=np.full(n, mean_constant), cov=cov, allow_singular=True).logpdf(y)
    trace = (n * (params.signal_variance + params.latent_jitter) - np.trace(psi)) \
        / (2.0 * params.noise_variance)
    return float(ll - trace)


def mp_elbo(x, y, knots, params, mean_constant=0.0, with_grad=False, dps=50):
    """The bound of :func:`dense_elbo` in ``dps``-digit mpmath arithmetic,
    for tiny cases whose ``Suu`` is too ill-conditioned for float64 oracles.

    The float inputs are taken as exact. The Gaussian term goes through the
    K x K Woodbury form ``A = Suu + S S^T / tau2``. With ``with_grad`` also
    returns the gradient with respect to (log s2, log ell, log tau2) and the
    knot coordinates row by row, by central differences at the same
    precision; the jitter keeps its ratio to s2, as in ``with_log_vector``.
    """
    import mpmath

    x = np.atleast_2d(np.asarray(x, dtype=float))
    knots = np.atleast_2d(np.asarray(knots, dtype=float))
    n, (k, d) = len(y), knots.shape
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        xs = [[mpf(v) for v in row] for row in x.tolist()]
        resid = [mpf(v) - mpf(mean_constant) for v in np.asarray(y, dtype=float).tolist()]
        base = [mpf(v) for v in knots.reshape(-1).tolist()]

        def value(shift):
            scale = mpmath.exp(shift[0])
            s2, jitter = mpf(params.signal_variance) * scale, mpf(params.latent_jitter) * scale
            ell2 = (mpf(params.lengthscale) * mpmath.exp(shift[1])) ** 2
            tau2 = mpf(params.noise_variance) * mpmath.exp(shift[2])
            u = [[base[i * d + j] + shift[3 + i * d + j] for j in range(d)] for i in range(k)]

            def kern(a, b):
                return s2 * mpmath.exp(-mpmath.fsum((p - q) ** 2 for p, q in zip(a, b))
                                       / (2 * ell2))

            suu = mpmath.matrix([[kern(u[i], u[j]) + (jitter if i == j else 0)
                                  for j in range(k)] for i in range(k)])
            s = [[kern(u[i], xs[t]) for t in range(n)] for i in range(k)]
            sst = mpmath.matrix([[mpmath.fdot(s[i], s[j]) for j in range(k)]
                                 for i in range(k)])
            sr = mpmath.matrix([mpmath.fdot(s[i], resid) for i in range(k)])
            a = suu + sst / tau2
            log_det = mpmath.log(mpmath.det(a)) - mpmath.log(mpmath.det(suu)) \
                + n * mpmath.log(tau2)
            quad = mpmath.fdot(resid, resid) / tau2 \
                - mpmath.fdot(sr, mpmath.lu_solve(a, sr)) / tau2 ** 2
            psi_trace = sum(mpmath.lu_solve(suu, sst[:, j])[j] for j in range(k))
            return (-(n * mpmath.log(2 * mpmath.pi) + log_det + quad) / 2
                    - (n * (s2 + jitter) - psi_trace) / (2 * tau2))

        zero = [mpf(0)] * (3 + k * d)
        out = float(value(zero))
        if not with_grad:
            return out
        step = mpf(10) ** (-(dps // 3))
        grad = np.empty(3 + k * d)
        for i in range(grad.size):
            forward, backward = list(zero), list(zero)
            forward[i], backward[i] = step, -step
            grad[i] = float((value(forward) - value(backward)) / (2 * step))
        return out, grad


def mp_predict(approx, x, y, knots, x_test, params, mean_constant=0.0, dps=50):
    """DTC or FIC (``approx`` in {"dtc", "fic"}) marginal predictive moments
    in ``dps``-digit mpmath arithmetic, for tiny cases too ill-conditioned
    for :func:`dense_predict`.

    The float inputs are taken as exact. With ``lam`` the likelihood
    diagonal and ``A = Suu + S diag(1/lam) S^T``, the moments at a test
    point with ``k = cov(knots, t)`` are

        mean = m + k^T A^{-1} S (r / lam)
        var  = (s2 + jitter) - k^T Suu^{-1} k + k^T A^{-1} k
    """
    import mpmath

    x, x_test = np.atleast_2d(x), np.atleast_2d(x_test)
    knots = np.atleast_2d(knots)
    k = len(knots)
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        s2, jitter = mpf(params.signal_variance), mpf(params.latent_jitter)
        ell2, tau2 = mpf(params.lengthscale) ** 2, mpf(params.noise_variance)

        def rows(a):
            return [[mpf(v) for v in row] for row in np.asarray(a, dtype=float).tolist()]

        u, xs, ts = rows(knots), rows(x), rows(x_test)

        def kern(a, b):
            return s2 * mpmath.exp(-mpmath.fsum((p - q) ** 2 for p, q in zip(a, b))
                                   / (2 * ell2))

        suu = mpmath.matrix([[kern(u[i], u[j]) + (jitter if i == j else 0)
                              for j in range(k)] for i in range(k)])
        s = mpmath.matrix([[kern(u[i], p) for p in xs] for i in range(k)])
        # one factorization each of Suu and A, not one per solve
        suu_inv = mpmath.inverse(suu)
        if approx == "fic":
            lam = [s2 + jitter - mpmath.fdot(s[:, n], suu_inv * s[:, n]) + tau2
                   for n in range(len(xs))]
        else:
            lam = [tau2] * len(xs)
        weighted = mpmath.matrix([[s[i, n] / lam[n] for n in range(len(xs))]
                                  for i in range(k)])
        a_inv = mpmath.inverse(suu + weighted * s.T)
        resid = [mpf(v) - mpf(mean_constant) for v in np.asarray(y, dtype=float).tolist()]
        a_sr = a_inv * (weighted * mpmath.matrix(resid))
        mean, var = np.empty(len(ts)), np.empty(len(ts))
        for j, t in enumerate(ts):
            kt = mpmath.matrix([kern(p, t) for p in u])
            mean[j] = float(mpf(mean_constant) + mpmath.fdot(kt, a_sr))
            var[j] = float(s2 + jitter - mpmath.fdot(kt, suu_inv * kt)
                           + mpmath.fdot(kt, a_inv * kt))
    return mean, var


def dense_fic_log_marginal(x, y, knots, params, mean_constant=0.0):
    n = len(y)
    psi = dense_psi(x, x, knots, params)
    prior_diag = (params.signal_variance + params.latent_jitter) * np.eye(n)
    d = np.diag(np.diag(prior_diag - psi))
    cov = psi + d + params.noise_variance * np.eye(n)
    return float(scipy.stats.multivariate_normal(
        mean=np.full(n, mean_constant), cov=cov).logpdf(y))


def dense_predict(approx, x, y, knots, x_test, params, mean_constant=0.0):
    """Marginal predictive moments by explicitly forming the K-dimensional
    posterior over the knot values and propagating it through the test
    conditional. ``approx`` in {"dtc", "fic", "dic"}."""
    n, j = len(y), len(x_test)
    knots = np.atleast_2d(knots)
    suu = se_kernel_matrix(knots, knots, params) \
        + params.latent_jitter * np.eye(len(knots))
    suu_inv = np.linalg.inv(suu)
    sux = se_kernel_matrix(knots, x, params)
    sut = se_kernel_matrix(knots, x_test, params)
    psi_xx = sux.T @ suu_inv @ sux
    psi_tt = sut.T @ suu_inv @ sut

    if approx == "fic":
        prior_diag = (params.signal_variance + params.latent_jitter) * np.eye(n)
        lam = np.diag(prior_diag - psi_xx) + params.noise_variance
    else:
        lam = np.full(n, params.noise_variance)
    cov_y = psi_xx + np.diag(lam)
    cov_y_inv = np.linalg.inv(cov_y)
    resid = y - mean_constant
    mu_h = mean_constant + sux @ cov_y_inv @ resid
    cov_h = suu - sux @ cov_y_inv @ sux.T

    project = sut.T @ suu_inv
    mean = mean_constant + project @ (mu_h - mean_constant)
    if approx == "dic":
        cond_diag = np.zeros(j)
    else:
        cond_diag = (params.signal_variance + params.latent_jitter
                     - np.diag(psi_tt))
    var = cond_diag + np.diag(project @ cov_h @ project.T)
    return mean, var


def dense_full_predict(x, y, x_test, params, mean_constant=0.0):
    n = len(y)
    cov = se_kernel_matrix(x, x, params) \
        + (params.noise_variance + params.latent_jitter) * np.eye(n)
    cov_inv = np.linalg.inv(cov)
    cross = se_kernel_matrix(x_test, x, params)
    resid = y - mean_constant
    mean = mean_constant + cross @ cov_inv @ resid
    prior = params.signal_variance + params.latent_jitter
    var = prior - np.diag(cross @ cov_inv @ cross.T)
    return mean, var


def central_difference(fun, point, step=1e-5):
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for i in range(point.size):
        forward, backward = point.copy(), point.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (fun(forward) - fun(backward)) / (2.0 * step)
    return grad


def separated_points(rng, count, dim, spread=1.5, min_gap=0.15):
    """Random points with a minimum pairwise separation, so knot covariance
    matrices stay comfortably away from the numerical rank boundary."""
    points = [spread * rng.standard_normal(dim)]
    while len(points) < count:
        candidate = spread * rng.standard_normal(dim)
        if min(np.linalg.norm(candidate - q) for q in points) >= min_gap:
            points.append(candidate)
    return np.asarray(points)


def random_instance(rng, n, k, d, jitter_ratio=1e-8, spread=1.5):
    """A generic, well-posed (x, y, knots, params) tuple for property tests."""
    from knotgp import KernelParams

    x = spread * rng.standard_normal((n, d))
    y = np.sin(x[:, 0]) + 0.3 * rng.standard_normal(n)
    knots = separated_points(rng, k, d, spread=spread)
    s2 = float(rng.uniform(0.5, 2.0))
    params = KernelParams(
        s2,
        float(rng.uniform(0.6, 1.6)),
        float(rng.uniform(0.05, 0.5)),
        latent_jitter=jitter_ratio * s2,
    )
    return x, y, knots, params


def reference_maximize(objective_with_grad, init, config):
    """ADADELTA ascent as a plain loop over the public, validating
    ``adadelta_step``: the slow reference for ``adadelta.maximize``, with the
    same stopping rules and best-seen bookkeeping."""
    from knotgp.adadelta import MaximizeResult, OptimState, adadelta_step
    from knotgp.common import NumericalError

    x = np.asarray(init, dtype=float).copy()
    value, grad = objective_with_grad(x)
    if not np.isfinite(value):
        raise ValueError(f"objective is non-finite at the initial point: {value}")
    trace = [float(value)]
    best_x, best_f = x.copy(), float(value)
    state = OptimState.zeros(x.size)
    stop_reason = "max_steps"
    for t in range(1, config.max_steps + 1):
        try:
            state, x = adadelta_step(state, x, grad, config)
        except NumericalError:
            stop_reason = "non_finite_gradient"
            break
        value, grad = objective_with_grad(x)
        if not np.isfinite(value):
            stop_reason = "non_finite_objective"
            break
        trace.append(float(value))
        if value > best_f:
            best_x, best_f = x.copy(), float(value)
        if t >= config.patience:
            old = trace[t - config.patience]
            if abs(trace[t] - old) <= config.rel_tol * (abs(old) + 1.0):
                stop_reason = "converged"
                break
    return MaximizeResult(best_x, best_f, np.asarray(trace), len(trace) - 1, stop_reason)
