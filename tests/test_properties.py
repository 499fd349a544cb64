"""Property tests: the sparse objective and its all-knot gradient are finite
or fail loudly with ``NumericalError`` across the numerical edge cases
(duplicate and near-duplicate knots, extreme lengthscales, zero to large
jitter, one training point, as many knots as points, up to ten dimensions).
The DTC objective with one added knot is finite or raises on the same
instances, and matches a rebuild of the larger model where that is well
conditioned.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from knotgp import Approximation, KernelParams, NumericalError, SparseGPModel  # noqa: E402

from oracles import se_kernel_matrix  # noqa: E402


@st.composite
def instances(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 10))
    k = draw(st.sampled_from([1, n, draw(st.integers(1, n))]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    knots = x[:k].copy() if draw(st.booleans()) else rng.standard_normal((k, d))
    duplicate = draw(st.sampled_from([None, 0.0, 1e-9]))
    if duplicate is not None and k >= 2:
        knots[-1] = knots[0] + duplicate * rng.standard_normal(d)
    s2 = draw(st.sampled_from([0.5, 1.0, 2.0]))
    params = KernelParams(s2, draw(st.sampled_from([1e-3, 0.3, 1.0, 1e3])),
                          draw(st.sampled_from([1e-3, 0.1, 1.0])),
                          latent_jitter=s2 * draw(st.sampled_from([0.0, 1e-8, 1e-6, 1e-3])))
    return draw(st.sampled_from([Approximation.DTC, Approximation.FIC])), x, y, params, knots


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(instances())
def test_all_knot_gradient_is_finite_or_raises(instance):
    approx, x, y, params, knots = instance
    try:
        value, grad = SparseGPModel(approx, x, y, params, knots).objective_grad(all_knots=True)
    except NumericalError:
        return
    assert np.isfinite(value)
    assert grad.shape == (3 + knots.size,)
    assert np.isfinite(grad).all()


@st.composite
def added_knots(draw):
    _, x, y, params, knots = draw(instances())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["knot", "near knot", "training input", "anywhere"]))
    if kind == "knot":
        location = knots[draw(st.integers(0, len(knots) - 1))].copy()
    elif kind == "near knot":
        location = knots[0] + draw(st.sampled_from([1e-9, 1e-7])) * rng.standard_normal(x.shape[1])
    elif kind == "training input":
        location = x[draw(st.integers(0, len(x) - 1))].copy()
    else:
        location = rng.standard_normal(x.shape[1])
    return x, y, params, knots, location


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(added_knots())
def test_dtc_gain_is_finite_or_raises_and_matches_the_rebuild(instance):
    x, y, params, knots, location = instance
    try:
        model = SparseGPModel(Approximation.DTC, x, y, params, knots)
        value = model.objective_with_added_knot(location)
    except NumericalError:
        return
    assert np.isfinite(value)
    bordered = np.vstack([knots, location])
    suu = se_kernel_matrix(bordered, bordered, params) \
        + params.latent_jitter * np.eye(len(bordered))
    if np.linalg.cond(suu) > 1e8:
        return
    rebuilt = SparseGPModel(Approximation.DTC, x, y, params, bordered).objective()
    # both paths take squared distances by the expansion |a|^2 - 2ab + |b|^2,
    # whose round-off reaches a kernel entry's exponent as about
    # eps |a|^2 / ell^2: the tolerance grows with that factor
    spread = max(1.0, float(np.max(np.sum(np.vstack([x, bordered]) ** 2, axis=1)))
                 / params.lengthscale ** 2)
    assert abs(value - rebuilt) <= 1e-10 * spread * (abs(rebuilt) + 1.0)
