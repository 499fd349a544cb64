"""Property tests: the sparse objective and its all-knot gradient are finite
or fail loudly with ``NumericalError`` across the numerical edge cases
(duplicate and near-duplicate knots, extreme lengthscales, zero to large
jitter, one training point, as many knots as points, up to ten dimensions).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from knotgp import Approximation, KernelParams, NumericalError, SparseGPModel  # noqa: E402


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
