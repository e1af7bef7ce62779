import numpy as np
import pytest
from scipy.stats import norm

from conftest import filter_loglik, filter_point
from glycast.bsts import (
    ParamPoint,
    assemble_model,
    ffbs_sample,
    kalman_loglik,
    regression,
    seasonal,
    semi_local_trend,
)
from glycast.bsts import kalman
from glycast.errors import NumericalError, RangeError, SchemaError
from glycast.synth import gaussian_predictive_oracle


def trend_model(y):
    return assemble_model([semi_local_trend()], y)


class TestFilter:
    def test_noiseless_semi_local_recursion(self):
        # mu0=100, delta0=2, D=0, phi=0.5: slope halves toward D each step.
        y = np.array([100.0, 102.0, 103.0, 103.5])
        model = trend_model(y).with_initial_state([100.0, 2.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 0.0, d=0.0, phi=0.5)
        _, _, v, f, _ = filter_point(model, params, y)
        np.testing.assert_allclose(y - v, [100.0, 102.0, 103.0, 103.5])
        np.testing.assert_array_equal(f, 0.0)

    def test_white_noise_loglik(self):
        # Fixed level, no state evolution: independent Gaussians around mu.
        rng = np.random.default_rng(1)
        y = rng.normal(5.0, 2.0, 40)
        model = trend_model(y).with_initial_state([5.0, 0.0], [0.0, 0.0])
        params = ParamPoint(0.0, 0.0, 2.0, d=0.0, phi=0.0)
        _, _, v, f, _ = filter_point(model, params, y)
        expected = norm.logpdf(y, 5.0, 2.0).sum()
        assert filter_loglik(v, f) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(RangeError):  # zero state noise: the precision the likelihood reads does not exist
            kalman_loglik(model, params, y)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n_seas = int(rng.integers(0, 3))
            specs = [semi_local_trend()]
            for k in range(n_seas):
                n_seasons = int(rng.integers(2, 5))
                durations = tuple(int(rng.integers(1, 4)) for _ in range(n_seasons))
                specs.append(seasonal(f"s{k}", n_seasons, durations))
            y = rng.normal(0, 1.0, int(rng.integers(6, 21)))
            model = assemble_model(specs, y)
            if model.state_dim > 8:
                continue
            params = ParamPoint(
                sigma_level=float(rng.uniform(0.05, 1.0)),
                sigma_slope=float(rng.uniform(0.05, 0.5)),
                sigma_obs=float(rng.uniform(0.1, 1.5)),
                sigma_seasonal=tuple(float(rng.uniform(0.05, 1.0)) for _ in range(n_seas)),
                d=float(rng.normal(0, 0.3)),
                phi=float(rng.uniform(-0.9, 0.9)),
            )
            loglik = kalman_loglik(model, params, y)
            assert isinstance(loglik, float)
            means, covs, v, f, _ = filter_point(model, params, y)
            oracle = gaussian_predictive_oracle(model, params, y)
            assert loglik == pytest.approx(oracle.loglik, rel=1e-8)
            np.testing.assert_allclose(y - v, oracle.onestep_means, atol=1e-8)
            np.testing.assert_allclose(f, oracle.onestep_variances, atol=1e-8)
            # At the last step the filtered state is the smoothed one.
            np.testing.assert_allclose(means[-1], oracle.smoothed_state_means[-1], atol=1e-8)
            np.testing.assert_allclose(covs[-1], oracle.smoothed_state_covs[-1], atol=1e-8)

    def test_loglik_matches_filter_terms(self):
        # n up to 700, 0-3 seasonals with random durations and phases, 0-4 regressors.
        rng = np.random.default_rng(33)
        for n in np.unique(np.geomspace(3, 700, 30).astype(int)):
            model, params, y, x = random_model(rng, n)
            _, _, v, f, _ = filter_point(model, params, y, x)
            assert kalman_loglik(model, params, y, x) == pytest.approx(filter_loglik(v, f), rel=1e-9)

    @pytest.mark.parametrize("ratio, rtol", [(1e-3, 2e-10), (1e-4, 2e-8), (1e-5, 2e-6)])
    def test_loglik_at_tiny_variance_ratio(self, ratio, rtol):
        # sigma_level far below sigma_obs: the precision solve loses accuracy (module docstring).
        # Each tolerance is the smoothed mean's error at that ratio against a 50-digit solve.
        y = np.random.default_rng(0).normal(0, 1, 40)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        params = ParamPoint(ratio * 0.5, 0.2, 0.5, (0.3,), d=0.0, phi=0.4)
        _, _, v, f, _ = filter_point(model, params, y)
        assert kalman_loglik(model, params, y) == pytest.approx(filter_loglik(v, f), rel=rtol)

    @pytest.mark.parametrize("sigma_level", [1e-9, 1e-12, 1e-100])
    def test_loglik_raises_where_the_solve_fails(self, sigma_level):
        # Never a finite wrong value: the trend's precision is not positive definite in floating point.
        y = np.random.default_rng(34).normal(0, 1, 100)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        with pytest.raises(NumericalError):
            kalman_loglik(model, ParamPoint(sigma_level, 0.2, 0.5, (0.3,), d=0.0, phi=0.4), y)

    def test_regression_offset(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 18)
        x = rng.normal(0, 1, (18, 2))
        model = assemble_model([semi_local_trend(), regression(("a", "b"))], y, x)
        beta = np.array([1.5, -0.5])
        params = ParamPoint(0.2, 0.1, 0.7, d=0.0, phi=0.3, beta=beta)
        loglik = kalman_loglik(model, params, y)
        oracle = gaussian_predictive_oracle(model, params, y, x=x)
        assert loglik == pytest.approx(oracle.loglik, rel=1e-8)

    def test_params_shape_validation(self):
        y = np.zeros(10) + np.arange(10)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 2, 2))], y)
        with pytest.raises(SchemaError, match="seasonal"):
            kalman_loglik(model, ParamPoint(0.1, 0.1, 0.1), y)


class TestFFBS:
    @pytest.mark.parametrize(
        "sds, p1_diag",
        [
            pytest.param((0.0, 0.0, 0.0, (0.0,)), (0.0,) * 4, id="zero-noise"),
            pytest.param((1e-160, 0.2, 0.5, (0.3,)), None, id="subnormal-level"),
            pytest.param((0.3, 0.2, np.nan, (0.3,)), None, id="nan-obs"),
            pytest.param((0.3, 0.2, 0.5, (0.0,)), None, id="zero-seasonal"),
            pytest.param((0.3, 0.2, 0.5, (0.3,)), (1.0, 0.0, 1.0, 1.0), id="zero-p1"),
            pytest.param((0.3, 0.2, 0.5, (0.3,)), (1.0, 1.0, 1e-320, 1.0), id="subnormal-p1"),
            pytest.param((0.3, 0.2, 0.5, (0.3,)), (np.nan, 1.0, 1.0, 1.0), id="nan-p1"),
        ],
    )
    def test_variance_without_reciprocal_raises_range_error(self, sds, p1_diag):
        # The state path's precision needs 1/variance finite for every noise variance and p1_diag entry;
        # the check runs before the smoother draws its first normal.
        y = np.array([100.0, 102.0, 103.0, 103.5, 104.0, 103.0, 102.5])
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        if p1_diag is not None:
            model = model.with_initial_state(model.a1, p1_diag)
        params = ParamPoint(*sds[:3], sds[3], d=0.0, phi=0.5)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(RangeError, match="p1_diag"):
            ffbs_sample(model, params, y, rng)
        assert rng.bit_generator.state == before

    def test_sample_means_match_dense_smoother(self):
        rng = np.random.default_rng(11)
        y = np.array([1.0, 1.8, 2.1, 1.5, 2.6])
        model = trend_model(y)
        params = ParamPoint(0.5, 0.3, 0.8, d=0.1, phi=0.4)
        oracle = gaussian_predictive_oracle(model, params, y)
        n_draws = 10000
        draws = np.empty((n_draws, 5, 2))
        for k in range(n_draws):
            draws[k] = ffbs_sample(model, params, y, rng)
        se = draws.std(axis=0) / np.sqrt(n_draws)
        diff = np.abs(draws.mean(axis=0) - oracle.smoothed_state_means)
        assert np.all(diff <= 3.0 * np.maximum(se, 1e-12))

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(4)
        y = rng.normal(10, 2, 25)
        model = trend_model(y)
        params = ParamPoint(0.3, 0.1, 0.5, d=0.0, phi=0.2)
        a = ffbs_sample(model, params, y, np.random.default_rng(99))
        b = ffbs_sample(model, params, y, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "sigma_a, phases",
        [
            pytest.param(0.5, (0, 0), id="0.5"),
            pytest.param(0.01, (0, 0), id="0.01"),
            pytest.param(0.5, (9, 4), id="phased"),
        ],
    )
    def test_sample_moments_match_dense_smoother(self, sigma_a, phases):
        # Trend, two seasonals whose boundaries fall on 4 of 13 transitions
        # (5 when phased: each series starts inside a season), and a 2-column
        # regression; sigma_a = 0.01 all but freezes the first seasonal.
        rng = np.random.default_rng(5)
        n = 14
        y = rng.normal(0, 1, n).cumsum()
        x = rng.normal(0, 1, (n, 2))
        specs = [
            semi_local_trend(),
            seasonal("a", 3, (4, 4, 5), phase=phases[0]),
            seasonal("b", 2, (6, 7), phase=phases[1]),
            regression(("u", "v")),
        ]
        model = assemble_model(specs, y, x)
        params = ParamPoint(0.4, 0.2, 0.6, (sigma_a, 0.3), d=0.05, phi=0.5, beta=np.array([0.7, -0.4]))
        oracle = gaussian_predictive_oracle(model, params, y, x=x)
        n_draws = 6000
        draws = np.array([ffbs_sample(model, params, y, rng, x=x) for _ in range(n_draws)])

        cov = oracle.smoothed_state_covs
        var = np.einsum("tii->ti", cov)
        mean_se = np.sqrt(var / n_draws)
        diff = np.abs(draws.mean(axis=0) - oracle.smoothed_state_means)
        assert np.all(diff <= 5.0 * np.maximum(mean_se, 1e-12))

        centered = draws - draws.mean(axis=0)
        sample_cov = np.einsum("kti,ktj->tij", centered, centered) / (n_draws - 1)
        # Gaussian sampling variance of a covariance estimate.
        cov_se = np.sqrt((var[:, :, None] * var[:, None, :] + cov**2) / n_draws)
        assert np.all(np.abs(sample_cov - cov) <= 5.0 * np.maximum(cov_se, 1e-12))


def random_model(rng, n):
    """Trend, 0-3 seasonals with random durations and phases, 0-4 regressors on a unit-scale series."""
    specs = [semi_local_trend()]
    for k in range(int(rng.integers(0, 4))):
        durations = tuple(int(d) for d in rng.integers(1, 30, int(rng.integers(2, 5))))
        specs.append(seasonal(f"s{k}", len(durations), durations, phase=int(rng.integers(0, sum(durations)))))
    j = int(rng.integers(0, 5))
    x = rng.normal(0, 1, (n, j)) if j else None
    if j:
        specs.append(regression(tuple(f"c{i}" for i in range(j))))
    y = rng.normal(0, 1, n)
    model = assemble_model(specs, y, x)
    params = ParamPoint(
        *rng.uniform(0.05, 1.5, 3),
        sigma_seasonal=tuple(rng.uniform(0.05, 1.5, len(model.seasonals))),
        d=float(rng.normal(0, 0.3)),
        phi=float(rng.uniform(-0.95, 0.95)),
        beta=rng.normal(0, 1, j),
    )
    return model, params, y, x


def banded_mean(model, params, y, x):
    """The precision solve's smoothed mean of the state, gathered to (n, m)."""
    form = kalman._SequenceForm(model, params, y.size)
    mean, _ = form.posterior(y - model.observation_offsets(params.beta, x, y.size))
    return mean[form.layout.index]


class TestSmoothedMean:
    @pytest.mark.parametrize("blocks", [1, 2, 3, 31, 32, 33, 34, 63, 64, 65, 127, 300])
    def test_block_tridiagonal_solve_matches_dense(self, blocks):
        # Above 32 blocks the solve runs levels of cyclic reduction; odd and even counts end each level differently.
        # The log-determinant sums the reduction's pivot blocks and the dense Cholesky's.
        rng = np.random.default_rng(blocks)
        lower = rng.normal(0, 1, (blocks - 1, 2, 2))
        dense = np.zeros((blocks, 2, blocks, 2))
        index = np.arange(blocks)
        dense[index[1:], :, index[:-1], :] = lower
        dense[index[:-1], :, index[1:], :] = lower.transpose(0, 2, 1)
        off = rng.normal(0, 1, blocks)
        diag = np.zeros((blocks, 2, 2))
        diag[:, 0, 1] = diag[:, 1, 0] = off
        dense[index, :, index, :] = diag
        matrix = dense.reshape(2 * blocks, 2 * blocks)
        # Diagonally dominant rows: positive definite, and well conditioned.
        dominance = np.abs(matrix).sum(axis=1).reshape(blocks, 2) + rng.uniform(0.5, 2.0, (blocks, 2))
        diag[:, [0, 1], [0, 1]] = dominance
        matrix[np.arange(2 * blocks), np.arange(2 * blocks)] = dominance.ravel()
        rhs = rng.normal(0, 1, (blocks, 2, 3))
        expected = np.linalg.solve(matrix, rhs.reshape(2 * blocks, 3)).reshape(rhs.shape)
        solved, logdet = kalman._block_tridiagonal_solve(diag, lower, rhs)
        assert np.max(np.abs(solved - expected)) <= 1e-12 * np.max(np.abs(expected))
        sign, expected_logdet = np.linalg.slogdet(matrix)
        assert sign == 1.0 and logdet == pytest.approx(expected_logdet, rel=1e-12)

    def test_last_row_matches_filter(self):
        # At the last step the smoothed state is the filtered one.
        rng = np.random.default_rng(31)
        for n in np.unique(np.geomspace(3, 400, 30).astype(int)):
            model, params, y, x = random_model(rng, n)
            smoothed = banded_mean(model, params, y, x)
            filtered = filter_point(model, params, y, x)[0][-1]
            assert np.max(np.abs(smoothed[-1] - filtered)) <= 1e-9 * np.max(np.abs(smoothed))

    def test_banded_matches_dense_oracle(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 25:
            model, params, y, x = random_model(rng, int(rng.integers(3, 21)))
            if model.state_dim > 8:
                continue
            oracle = gaussian_predictive_oracle(model, params, y, x=x).smoothed_state_means
            assert np.max(np.abs(banded_mean(model, params, y, x) - oracle)) <= 1e-8 * np.max(np.abs(oracle))
            checked += 1

    def test_layout_is_cached_per_model_and_length(self):
        # The layout is built once per (model, n); a model with another initial state has its own,
        # whose border mean carries that state's seasonal effects.
        rng = np.random.default_rng(35)
        y = rng.normal(0, 1, 30)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        params = ParamPoint(0.3, 0.2, 0.5, (0.3,), d=0.1, phi=0.4)
        first = kalman_loglik(model, params, y)
        layout = model.sequence_layouts[30]
        ffbs_sample(model, params, y, rng)
        kalman_loglik(model, params, y[:20])
        assert model.sequence_layouts[30] is layout and set(model.sequence_layouts) == {20, 30}
        shifted = model.with_initial_state(model.a1 + [0.0, 0.0, 2.0, -1.0], model.p1_diag)
        assert shifted.sequence_layouts == {}
        _, _, v, f, _ = filter_point(shifted, params, y)
        assert kalman_loglik(shifted, params, y) == pytest.approx(filter_loglik(v, f), rel=1e-9)
        assert shifted.sequence_layouts[30] is not layout and kalman_loglik(model, params, y) == first

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trend_block_raises_numerical_error(self):
        # sigma_level = 1e-150 keeps every reciprocal finite (1e300), so the precision is formed, but the
        # trend blocks' 2x2 determinants overflow: a typed error, not a RuntimeWarning.
        rng = np.random.default_rng(34)
        y = rng.normal(0, 1, 100)
        model = assemble_model([semi_local_trend(), seasonal("s", 3, (2, 3, 2))], y)
        params = ParamPoint(1e-150, 0.2, 0.5, (0.3,), d=0.0, phi=0.4)
        with pytest.raises(NumericalError):
            ffbs_sample(model, params, y, rng)
