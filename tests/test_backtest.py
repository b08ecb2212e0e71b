import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import chdtrc

from qvar.backtest import (
    BacktestResult,
    HitSeries,
    chi2_sf,
    dq_regressors,
    dq_test,
    hits,
    score_forecast,
)
from qvar.errors import DomainError, InsufficientDataError, ShapeError


class TestHits:
    def test_exceedance(self):
        h = hits([-2.0], [1.0], 0.05)
        assert h.values.tolist() == [0.95]

    def test_no_exceedance(self):
        h = hits([0.0], [1.0], 0.05)
        assert h.values.tolist() == [-0.05]

    def test_equality_is_not_exceedance(self):
        h = hits([-1.0], [1.0], 0.05)
        assert h.values.tolist() == [-0.05]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            hits([1.0, 2.0], [1.0], 0.05)

    def test_mean_plus_theta_is_exceedance_rate(self):
        rng = np.random.default_rng(0)
        for theta in (0.05, 0.01, 0.3):
            r = rng.normal(size=500)
            var = np.abs(rng.normal(size=500)) + 0.5
            h = hits(r, var, theta)
            assert float(np.mean(h.values)) + theta == pytest.approx(h.exceedance_rate, abs=1e-12)

    def test_values_validated(self):
        with pytest.raises(DomainError):
            HitSeries(values=np.array([0.5, 0.2]), theta=0.05)


class TestChi2:
    def test_at_zero(self):
        assert chi2_sf(0.0, 3) == 1.0

    def test_two_dof_closed_form(self):
        # for k = 2 the tail is exp(-x/2)
        for x in (0.5, 2 * math.log(2.0), 7.3):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)
        assert chi2_sf(2 * math.log(2.0), 2) == pytest.approx(0.5, abs=1e-12)

    def test_critical_value(self):
        assert chi2_sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_sf(-1.0, 2)
        with pytest.raises(DomainError):
            chi2_sf(1.0, 0)

    def test_monotone_in_statistic(self):
        for k in (1, 4, 9):
            values = [chi2_sf(x, k) for x in np.linspace(0.0, 30.0, 80)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_one_dof_via_error_function(self):
        # P(chi2_1 > x) = 2 (1 - Phi(sqrt(x))) = erfc(sqrt(x/2))
        for x in (0.1, 1.0, 3.8415, 10.0, 30.0):
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), abs=1e-12)

    @given(x=st.floats(0.0, 2000.0), k=st.integers(1, 30))
    def test_matches_scipy(self, x, k):
        # both sides round y = x/2 into an exponent (exp(-y), erfc(sqrt(y)),
        # cephes' exp(a log y - y - lgamma a)), so each carries a relative
        # error of order x * 2^-53: against the exact tail (mpmath, 40 digits)
        # chdtrc is off by up to 1.2e-13 near x = 1300, this sum by 9e-14
        got, want = chi2_sf(x, k), float(chdtrc(k, x))
        if got < 1e-300 and want < 1e-300:
            return
        assert abs(got - want) <= (1e-13 + x * 2.0**-52) * want

    @given(x=st.floats(0.0, 2000.0), k=st.integers(1, 30))
    def test_a_probability(self, x, k):
        p = chi2_sf(x, k)
        assert 0.0 <= p <= 1.0
        assert chi2_sf(0.0, k) == 1.0

    @given(
        x=st.floats(0.0, 2000.0),
        dx=st.floats(0.0, 2000.0),
        k=st.integers(1, 30),
    )
    def test_non_increasing(self, x, dx, k):
        # two adjacent doubles can round either way, by at most a few ulps
        assert chi2_sf(x + dx, k) <= chi2_sf(x, k) * (1.0 + 1e-14)

    @given(x=st.floats(0.0, allow_infinity=False), k=st.integers(1, 10**4))
    def test_finite_statistic_never_gives_nan(self, x, k):
        assert not math.isnan(chi2_sf(x, k))

    @pytest.mark.parametrize("k", [2.0, 4.5, True, np.float64(3.0), "4"])
    def test_degrees_of_freedom_must_be_an_integer(self, k):
        with pytest.raises(DomainError):
            chi2_sf(1.0, k)

    def test_integer_types_accepted(self):
        assert chi2_sf(3.0, np.int64(4)) == chi2_sf(3.0, 4)


def lstsq_dq_oracle(hit, var, theta, hit_lags=3):
    """Independent dense route: least squares on the design matrix itself."""
    X, h = dq_regressors(hit, var, hit_lags)
    delta, *_ = np.linalg.lstsq(X, h, rcond=None)
    return float(h @ X @ delta) / (theta * (1 - theta))


class TestDqTest:
    def test_no_exceedance_constant_var_closed_form(self):
        for n in (50, 100, 500):
            theta = 0.05
            h = hits(np.zeros(n), np.ones(n), theta)
            result = dq_test(h, np.ones(n), hit_lags=0)
            assert result.statistic == pytest.approx(n * theta / (1 - theta), abs=1e-9)
            assert result.dof == 1
        r100 = dq_test(hits(np.zeros(100), np.ones(100), 0.05), np.ones(100), hit_lags=0)
        assert r100.statistic == pytest.approx(5.2632, abs=1e-4)
        assert r100.p_value == pytest.approx(0.0218, abs=1e-4)

    def test_orthogonal_hit_gives_zero(self):
        # the perfect binary tile [+,+,+,-] has zero periodic autocorrelation
        # at lags 1..3; a shifted copy gives an orthogonal VaR column
        tile = np.array([1.0, 1.0, 1.0, -1.0])
        n = 43  # 40 regression rows, a multiple of the tile period
        t = np.arange(n)
        target = 0.5 * tile[t % 4]
        var = 2.0 * tile[(t - 1) % 4]
        returns = np.where(target > 0, -var - 1.0, -var + 1.0)
        h = hits(returns, var, 0.5)
        assert np.array_equal(h.values, target)
        result = dq_test(h, var)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.dof == 4

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(50, 500))
            theta = float(rng.uniform(0.02, 0.2))
            r = rng.normal(size=n)
            var = np.abs(rng.normal(size=n)) + 0.2
            h = hits(r, var, theta)
            got = dq_test(h, var).statistic
            want = lstsq_dq_oracle(h, var, theta)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_scale_invariance_of_var_column(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=300)
        var = np.abs(rng.normal(size=300)) + 0.2
        h = hits(r, var, 0.05)
        a = dq_test(h, var).statistic
        b = dq_test(h, 2.0 * var).statistic
        assert a == pytest.approx(b, abs=1e-10)

    def test_statistic_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(20, 200))
            r = rng.normal(size=n)
            var = np.abs(rng.normal(size=n)) + 0.1
            assert dq_test(hits(r, var, 0.1), var).statistic >= 0.0

    def test_rank_deficient_case_is_defined(self):
        # constant VaR, zero exceedances: constant hit lags collapse the rank
        n = 200
        h = hits(np.zeros(n), np.ones(n), 0.05)
        result = dq_test(h, np.ones(n))
        assert np.isfinite(result.statistic)
        assert result.dof == 4
        assert 0.0 <= result.p_value <= 1.0

    def test_too_short(self):
        h = hits(np.zeros(7), np.ones(7), 0.05)
        with pytest.raises(InsufficientDataError):
            dq_test(h, np.ones(7))


class TestScoreForecast:
    def test_zero_exceedances_forces_zero_p(self):
        result = score_forecast(np.zeros(100), np.ones(100), 0.05)
        assert result.n_exceedances == 0
        assert result.p_value == 0.0
        assert result.exceedance_rate == 0.0

    def test_all_exceed(self):
        result = score_forecast(np.full(60, -5.0), np.ones(60), 0.05)
        assert result.exceedance_rate == 1.0

    def test_mean_var(self):
        result = score_forecast(np.zeros(50), np.full(50, 0.02), 0.05)
        assert result.mean_var == pytest.approx(0.02)

    def test_first_lags_kept_in_rate(self):
        # exceedances only in the first 3 days still count in the rate
        returns = np.concatenate([np.full(3, -9.0), np.zeros(97)])
        result = score_forecast(returns, np.ones(100), 0.05)
        assert result.n_exceedances == 3
        assert result.exceedance_rate == pytest.approx(0.03)
        assert result.n_days == 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_var_rejected(self, bad):
        var = np.ones(100)
        var[40] = bad
        with pytest.raises(DomainError, match="finite"):
            score_forecast(np.zeros(100), var, 0.05)

    def test_short_series_propagates(self):
        with pytest.raises(InsufficientDataError):
            score_forecast(np.zeros(5), np.ones(5), 0.05)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = rng.normal(size=150)
            var = np.abs(rng.normal(size=150)) + 0.2
            result = score_forecast(r, var, 0.1)
            assert 0.0 <= result.p_value <= 1.0
            assert isinstance(result, BacktestResult)
