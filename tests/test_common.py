import os
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.special

from knotgp import Approximation, KernelParams, common, fit_full, fit_sparse, predict_full
from knotgp.common import (NumericalError, PredictiveDistribution, _test_inputs, chol_lower,
                           tri_solve)
from knotgp.full_gp import SYM_BLOCK
from knotgp.kernels import cov_matrix


def _spd(rng, k):
    a = rng.standard_normal((k, k + 2))
    spd = a @ a.T + 1e-3 * np.eye(k)
    spd[0, -1] += 1e-9 * k        # asymmetric: chol_lower reads the upper triangle
    return spd


# one row, the block size and its neighbours, and a partial third block
BLOCK_SIZES = [1, 2, SYM_BLOCK - 1, SYM_BLOCK, SYM_BLOCK + 1, 2 * SYM_BLOCK + 3]


def _asymmetric_spd(rng, k):
    """An SPD matrix whose every off-diagonal pair differs by round-off."""
    spd = _spd(rng, k)
    return spd * (1.0 + 1e-15 * rng.standard_normal((k, k)))


class TestCholLower:
    @pytest.mark.parametrize("k", [1, 5, 29, 80, 320])
    def test_bit_identical_to_scipy_cholesky(self, k):
        a = _spd(np.random.default_rng(k), k)
        expected = scipy.linalg.cholesky(np.triu(a) + np.triu(a, 1).T, lower=True)
        factor = chol_lower(a)
        assert np.array_equal(factor, expected)
        assert np.all(np.triu(factor, 1) == 0.0)

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("k", BLOCK_SIZES)
    def test_upper_triangle_factor_bit_identical(self, k, overwrite):
        # the reference mirrors the upper triangle into a new array
        a = _asymmetric_spd(np.random.default_rng(k), k)
        assert k == 1 or not np.array_equal(a, a.T)
        expected = scipy.linalg.cholesky(np.triu(a) + np.triu(a, 1).T, lower=True)
        before = a.copy()
        factor = chol_lower(a, _overwrite=overwrite)
        assert factor.tobytes(order="A") == expected.tobytes(order="A")
        assert factor.flags.f_contiguous
        if not overwrite:
            assert a.tobytes() == before.tobytes()
        else:
            # a C-contiguous input becomes the factor at every size
            assert np.shares_memory(factor, a)

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("k", [2, 29, 2 * SYM_BLOCK + 3])
    def test_strict_lower_triangle_is_only_checked(self, k, overwrite):
        # finite changes below the diagonal leave the factor's bytes as they
        # are; a non-finite entry there still raises
        a = _spd(np.random.default_rng(k), k)
        expected = chol_lower(a).tobytes(order="A")
        below = np.tril_indices(k, -1)
        changed = a.copy()
        changed[below] = 1e3 * np.random.default_rng(k + 1).standard_normal(len(below[0]))
        assert chol_lower(changed, _overwrite=overwrite).tobytes(order="A") == expected
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = a.copy()
            poisoned[k - 1, 0] = bad
            with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                chol_lower(poisoned, _overwrite=overwrite)

    def test_overwrite_refuses_escalations(self):
        a = _spd(np.random.default_rng(3), SYM_BLOCK + 1)
        before = a.copy()
        with pytest.raises(ValueError, match="escalations must be 0"):
            chol_lower(a, escalations=1, _overwrite=True)
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("k", [4, 2 * SYM_BLOCK + 3])
    @pytest.mark.parametrize("where", ["first row", "last row", "diagonal"])
    def test_non_finite_input_raises_in_either_mode(self, k, where, overwrite):
        a = _spd(np.random.default_rng(k), k)
        row, col = {"first row": (0, k - 1), "last row": (k - 1, 1),
                    "diagonal": (k - 2, k - 2)}[where]
        a[row, col] = np.nan
        with pytest.raises(ValueError, match="^probe contains non-finite entries$"):
            chol_lower(a, label="probe", _overwrite=overwrite)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        a = _spd(np.random.default_rng(0), 4)
        a[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            chol_lower(a, escalations=3)

    def test_not_positive_definite_without_escalation(self):
        diagnostics = {}
        with pytest.raises(NumericalError, match="probe"):
            chol_lower(np.diag([1.0, -1.0]), diagnostics=diagnostics, label="probe")
        assert diagnostics["near_singular_factorizations"] == 1

    @pytest.mark.parametrize("case, retries", [("rank deficient", None),
                                               ("slightly indefinite", 3),
                                               ("rank deficient, blocked", None)])
    def test_ridge_escalation_sequence(self, monkeypatch, case, retries):
        if case.startswith("rank deficient"):
            rows = 10 if case == "rank deficient" else 2 * SYM_BLOCK + 3
            x = np.random.default_rng(1).standard_normal((rows, 3))
            a = x @ x.T                                # PSD of rank 3
        else:
            a = np.diag([1.0, 1.0, -1e-9])             # needs a ridge above 1e-9
        ridges = []
        factorize = common.dpotrf

        def recording(matrix, **kwargs):
            ridges.append(float(np.mean(np.diag(matrix) - np.diag(a))))
            return factorize(matrix, **kwargs)

        monkeypatch.setattr(common, "dpotrf", recording)
        diagnostics = {}
        factor = chol_lower(a, escalations=3, diagnostics=diagnostics)
        recorded = diagnostics["near_singular_factorizations"]
        assert recorded >= 1 if retries is None else recorded == retries
        scale = float(np.mean(np.diag(a)))
        expected = [0.0] + [1e-12 * scale * 100.0 ** i for i in range(recorded)]
        assert len(ridges) == recorded + 1
        np.testing.assert_allclose(ridges, expected, rtol=1e-3, atol=0.0)
        np.testing.assert_allclose(factor @ factor.T, a + ridges[-1] * np.eye(len(a)),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(a)))

    def test_ridge_retry_reads_no_uninitialised_bytes(self, monkeypatch):
        # np.empty's buffer is filled with a signalling NaN, which warns as
        # an invalid value in any arithmetic that reads it
        x = np.random.default_rng(7).standard_normal((2 * SYM_BLOCK + 3, 10))
        a = x @ x.T                                    # PSD of rank 10
        empty = np.empty

        def poisoned(shape, *args, **kwargs):
            out = empty(shape, *args, **kwargs)
            out.view(np.uint64).fill(0x7FF0000000000001)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        diagnostics = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = chol_lower(a, escalations=3, diagnostics=diagnostics)
        monkeypatch.undo()
        retries = diagnostics["near_singular_factorizations"]
        assert retries >= 1
        sym = np.triu(a) + np.triu(a, 1).T
        ridge = 1e-12 * float(sym.diagonal().mean())
        for _ in range(retries - 1):
            ridge *= 100.0
        sym[np.diag_indices(len(sym))] += ridge
        expected = scipy.linalg.cholesky(sym, lower=True)
        assert factor.tobytes(order="A") == expected.tobytes(order="A")

    @pytest.mark.parametrize("case", ["first attempt", "after a ridge retry"])
    def test_input_left_unmodified(self, case):
        # the factorization overwrites a copy, never the input
        if case == "first attempt":
            a = _spd(np.random.default_rng(2), 6)
        else:
            a = np.diag([1.0, 1.0, -1e-9])
            a[0, 1] = 1e-10                             # asymmetric, so a != its copy
        before = a.copy()
        diagnostics = {}
        factor = chol_lower(a, escalations=3, diagnostics=diagnostics)
        assert a.tobytes() == before.tobytes()
        assert ("near_singular_factorizations" in diagnostics) == (case != "first attempt")
        assert not np.shares_memory(factor, a)

    def test_escalations_exhausted(self):
        # the error carries the ridge of the last attempt: none without
        # escalation, else 1e-12 (the mean diagonal is 0, so the scale is 1)
        # grown a hundredfold per further retry
        for escalations, last_ridge in [(0, 0.0), (2, 1e-10)]:
            diagnostics = {}
            with pytest.raises(NumericalError) as info:
                chol_lower(np.diag([1.0, -1.0]), escalations=escalations,
                           diagnostics=diagnostics)
            assert diagnostics["near_singular_factorizations"] == escalations + 1
            assert info.value.attempted_jitter == last_ridge


def test_one_dimensional_input_becomes_a_column():
    a = common.as_input_matrix([0.5, -1.0, 2.0])
    assert a.shape == (3, 1) and a.dtype == float
    np.testing.assert_array_equal(a[:, 0], [0.5, -1.0, 2.0])


@pytest.mark.parametrize("values, message", [
    ([], "^probe must be nonempty$"),
    (np.zeros((0, 3)), "^probe must be nonempty$"),
    ([1.0, np.nan], "^probe contains non-finite entries$"),
    ([[np.inf, 0.0]], "^probe contains non-finite entries$"),
    ([-np.inf], "^probe contains non-finite entries$"),
], ids=["empty", "empty 2-d", "nan", "inf", "-inf"])
def test_as_vector_rejects(values, message):
    with pytest.raises(ValueError, match=message):
        common.as_vector(values, "probe")


class TestNegativeVarianceClamp:
    """Both predictors clamp negative latent variances at zero and count them.
    Halving a fitted Cholesky factor quadruples the variance explained by the
    data, so test points near the data go negative while far ones do not."""

    def test_clamped_entries_are_zero_and_counted(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (30, 1))
        y = np.sin(4.0 * x[:, 0])
        params = KernelParams(1.3, 0.3, 0.01)
        full = fit_full(x, y, params)
        full = replace(full, chol=0.5 * full.chol)
        sparse = fit_sparse(Approximation.DTC, x, y, params, np.linspace(0.0, 1.0, 6)[:, None])
        sparse._luu = 0.5 * sparse._luu
        xt = np.linspace(-2.0, 3.0, 101)[:, None]
        for model, predict in ((full, partial(predict_full, full)), (sparse, sparse.predict)):
            counts = []
            for _ in range(2):
                pred = predict(xt)
                zero = pred.latent_variance == 0.0
                counts.append(int(zero.sum()))
                assert model.diagnostics["negative_variance_clamps"] == sum(counts)
                np.testing.assert_array_equal(pred.noisy_variance[zero], params.noise_variance)
                assert np.all(pred.latent_variance[~zero] > 0.0)
            assert 0 < counts[0] == counts[1] < xt.shape[0]


@pytest.mark.parametrize("predictor", ["sparse", "full"])
def test_nan_variance_raises(predictor):
    # finite rows whose kernel exponent meets inf - inf
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((30, 2)), rng.standard_normal(30)
    params = KernelParams(1.0, 1.0, 0.1)
    if predictor == "sparse":
        model = fit_sparse(Approximation.DTC, x, y, params, x[:5] * 3)
        predict = model.predict
    else:
        model = fit_full(x, y, params)
        predict = partial(predict_full, model)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="NaN"):
            predict([[0.5, 0.5], [1e308, 1e308]])
        # a row whose exponent is only -inf gives the prior
        far = predict([[0.5, 0.5], [1e200, -1e200]])
    assert "negative_variance_clamps" not in model.diagnostics
    assert far.latent_mean[1] == 0.0
    assert far.latent_variance[1] == params.signal_variance + params.latent_jitter


@pytest.mark.parametrize("predictor", ["sparse", "full"])
def test_predictors_share_the_test_width_check(predictor):
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((10, 2)), rng.standard_normal(10)
    params = KernelParams(1.0, 1.0, 0.1)
    if predictor == "sparse":
        predict = fit_sparse(Approximation.DTC, x, y, params, x[:3]).predict
    else:
        predict = partial(predict_full, fit_full(x, y, params))
    with pytest.raises(ValueError, match=r"^test input dimension 3 does not match "
                                         r"training dimension 2$"):
        predict(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="test inputs contains non-finite entries"):
        predict([[0.0, np.nan]])


@pytest.mark.parametrize("predictor", ["sparse", "full"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_raise_without_warnings(predictor, bad):
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((10, 2)), rng.standard_normal(10)
    params = KernelParams(1.0, 1.0, 0.1)
    if predictor == "sparse":
        predict = fit_sparse(Approximation.FIC, x, y, params, x[:3]).predict
    else:
        predict = partial(predict_full, fit_full(x, y, params))
    xt = rng.standard_normal((1100, 2))
    xt[700, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (xt, xt[700:701], xt.tolist(), [[bad, bad]], xt[:, ::-1]):
            with pytest.raises(ValueError, match="^test inputs contains non-finite entries$"):
                predict(rows)


def test_predict_full_bits_of_the_checked_path():
    """``predict_full`` builds its result unchecked, with the bits of the
    count, the clamp and the validating constructor."""
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, (40, 2))
    y = np.sin(4.0 * x[:, 0])
    params = KernelParams(1.3, 0.3, 0.01)
    xt = np.vstack([rng.uniform(-1.0, 2.0, (300, 2)), x])
    for halved in (False, True):
        model = fit_full(x, y, params)
        if halved:
            model = replace(model, chol=0.5 * model.chol)
        pred = predict_full(model, xt)
        cross = cov_matrix(model.train_inputs, _test_inputs(xt, x), params)
        mean = model.mean_constant + cross.T @ model.alpha
        half = tri_solve(model.chol, cross)
        var = params.signal_variance + params.latent_jitter - np.einsum("nj,nj->j", half, half)
        clamps = int(np.sum(~(var >= 0.0)))
        var = np.maximum(var, 0.0)
        expected = PredictiveDistribution(mean, var, var + params.noise_variance)
        for name in ("latent_mean", "latent_variance", "noisy_variance"):
            assert getattr(pred, name).tobytes() == getattr(expected, name).tobytes()
        assert pred.noisy_variance.tobytes() == \
            (pred.latent_variance + params.noise_variance).tobytes()
        assert model.diagnostics.get("negative_variance_clamps", 0) == clamps
        assert (clamps > 0) == halved


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_ROUTINES = [("scipy.linalg._fblas", "dtrsm", "scipy.linalg.blas"),
             ("scipy.linalg._fblas", "dtrmm", "scipy.linalg.blas"),
             ("scipy.linalg._fblas", "dgemm", "scipy.linalg.blas"),
             ("scipy.linalg._flapack", "dpotrf", "scipy.linalg.lapack"),
             ("scipy.linalg._flapack", "dpotri", "scipy.linalg.lapack"),
             ("scipy.special._special_ufuncs", "ndtr", "scipy.special")]

_NDTR_POINTS = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                               [0.0, -0.0, np.inf, -np.inf, np.nan]])


def _check_routines(dtrsm, dtrmm, dgemm, dpotrf, dpotri, ndtr):
    """Each routine returns the bits of scipy's public one on seeded inputs."""
    rng = np.random.default_rng(11)
    factor = np.linalg.cholesky(_spd(rng, 7))
    rhs = rng.standard_normal((40, 7))
    for trans_a in (0, 1):
        for overwrite_b in (0, 1):
            ours, theirs = (f(1.0, factor, np.asfortranarray(rhs), side=1, lower=1,
                              trans_a=trans_a, overwrite_b=overwrite_b)
                            for f in (dtrsm, scipy.linalg.blas.dtrsm))
            assert _same_bits(ours, theirs)
    # as sparse prediction calls it: a Fortran-ordered upper triangle applied
    # in place to a C-ordered K x m kernel seen as a Fortran m x K one
    upper = np.asfortranarray(factor.T)
    kmat = rng.standard_normal((7, 40))
    ours, theirs = (f(1.0, upper, kmat.copy().T, side=1, lower=0, trans_a=1, overwrite_b=1)
                    for f in (dtrmm, scipy.linalg.blas.dtrmm))
    assert _same_bits(ours, theirs)
    in_place = kmat.copy()
    assert dtrmm(1.0, upper, in_place.T, side=1, lower=0, trans_a=1,
                 overwrite_b=1).T.base is in_place
    a, b = rng.standard_normal((40, 7)), rng.standard_normal((7, 7))
    for trans_b in (0, 1):
        c = rng.standard_normal((40, 7))
        ours, theirs = (f(0.3, np.asfortranarray(a), np.asfortranarray(b), beta=1.0,
                          c=np.asfortranarray(c), trans_b=trans_b, overwrite_c=1)
                        for f in (dgemm, scipy.linalg.blas.dgemm))
        assert _same_bits(ours, theirs)
        assert _same_bits(dgemm(1.0, a, b.T, trans_b=trans_b),
                          scipy.linalg.blas.dgemm(1.0, a, b.T, trans_b=trans_b))
    spd = _spd(rng, 9)
    spd = 0.5 * (spd + spd.T)
    for kwargs in ({"lower": 1, "clean": 1}, {"lower": 0}):
        ours, theirs = dpotrf(spd, **kwargs), scipy.linalg.lapack.dpotrf(spd, **kwargs)
        assert ours[1] == theirs[1] == 0 and _same_bits(ours[0], theirs[0])
    chol = np.linalg.cholesky(spd)
    ours, theirs = dpotri(chol, lower=1), scipy.linalg.lapack.dpotri(chol, lower=1)
    assert ours[1] == theirs[1] == 0 and _same_bits(ours[0], theirs[0])
    assert _same_bits(ndtr(_NDTR_POINTS), scipy.special.ndtr(_NDTR_POINTS))


class TestScipyBinding:
    def test_bound_routines_match_scipy_bit_for_bit(self):
        _check_routines(common.dtrsm, common.dtrmm, common.dgemm, common.dpotrf, common.dpotri,
                        common.ndtr)

    def _bind_all(self, monkeypatch):
        for extension, _, _ in _ROUTINES:
            monkeypatch.delitem(sys.modules, extension, raising=False)
        bound = [common._scipy_routine(*args) for args in _ROUTINES]
        assert not any(extension in sys.modules for extension, _, _ in _ROUTINES)
        return bound

    def test_file_lookup_miss_binds_the_public_names(self, monkeypatch):
        monkeypatch.setattr(common, "EXTENSION_SUFFIXES", [".no-such-suffix"])
        bound = self._bind_all(monkeypatch)
        for routine, (_, name, public) in zip(bound, _ROUTINES):
            assert routine is getattr(sys.modules[public], name)
        _check_routines(*bound)

    def test_file_that_does_not_load_binds_the_public_names(self, monkeypatch, tmp_path):
        # a scipy directory whose extension files are not loadable
        suffix = common.EXTENSION_SUFFIXES[0]
        for extension, _, _ in _ROUTINES:
            path = tmp_path.joinpath(*extension.split(".")[1:])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.with_name(path.name + suffix).write_bytes(b"not an extension module")
        fake = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(common.importlib.util, "find_spec",
                            lambda name: fake if name == "scipy" else None)
        bound = self._bind_all(monkeypatch)
        for routine, (_, name, public) in zip(bound, _ROUTINES):
            assert routine is getattr(sys.modules[public], name)

    def test_loading_from_the_files_matches_scipy(self, monkeypatch):
        _check_routines(*self._bind_all(monkeypatch))

    def test_scipy_imports_after_knotgp(self):
        # knotgp leaves scipy's packages unimported and sys.modules without
        # the extensions it loaded, so a later import runs as usual
        code = ("import numpy as np, knotgp.bench, knotgp.cli\n"
                "from knotgp import common\n"
                "import scipy.linalg, scipy.special\n"
                "x = np.linspace(-5.0, 5.0, 101)\n"
                "assert scipy.special.ndtr(x).tobytes() == common.ndtr(x).tobytes()\n"
                "assert scipy.linalg._fblas.dtrsm and scipy.special._special_ufuncs.ndtr\n"
                "a = np.array([[4.0, 2.0], [2.0, 3.0]])\n"
                "assert (scipy.linalg.cholesky(a, lower=True) == common.chol_lower(a)).all()\n")
        src = str(Path(common.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                       check=True)
