import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import eye, hstack

from qvar import baselines
from qvar.baselines import (
    GarchParams,
    QrCoefficients,
    constant_quantile,
    constant_var,
    fit_garch,
    fit_linear_qr,
    garch_loglik,
    garch_var_path,
    garch_variance_path,
    gaussian_quantile,
    linear_qr_var_path,
)
from qvar.errors import DomainError, FitError, InsufficientDataError
from qvar.synthlab import GARCH11, SimSpec, simulate


def sorted_quantile_oracle(xs, theta):
    """Independent route: python sort plus the interpolation formula."""
    s = sorted(float(v) for v in xs)
    n = len(s)
    i = (n - 1) * theta + 1.0
    j = int(math.floor(i))
    if j >= n:
        return s[-1]
    return s[j - 1] + (i - j) * (s[j] - s[j - 1])


class TestConstantQuantile:
    def test_integer_index(self):
        assert constant_quantile([10, 20, 30, 40, 50], 0.25) == 20.0

    def test_median_odd(self):
        assert constant_quantile([10, 20, 30, 40, 50], 0.5) == 30.0

    def test_interpolated(self):
        assert constant_quantile([10, 20, 30, 40, 50], 0.1) == pytest.approx(14.0)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            constant_quantile([], 0.5)

    def test_bad_theta(self):
        with pytest.raises(DomainError):
            constant_quantile([1.0], 1.0)

    def test_matches_sorting_oracle_exactly(self):
        rng = np.random.default_rng(0)
        thetas = np.linspace(0.01, 0.99, 99)
        for _ in range(50):
            xs = rng.normal(size=rng.integers(2, 60))
            for theta in thetas:
                assert constant_quantile(xs, float(theta)) == sorted_quantile_oracle(xs, float(theta))

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=31)
        qs = [constant_quantile(xs, t) for t in np.linspace(0.01, 0.99, 50)]
        assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=17)
        for theta in (0.05, 0.3, 0.9):
            q = constant_quantile(xs, theta)
            assert constant_quantile(3.5 * xs + 2.0, theta) == pytest.approx(3.5 * q + 2.0)

    def test_constant_var_negates(self):
        xs = [-0.05, -0.02, 0.0, 0.01, 0.04]
        assert constant_var(xs, 0.25) == -constant_quantile(xs, 0.25)


def bisect_normal_quantile(theta, tol=1e-13):
    """Oracle: bisection on the error-function normal CDF."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < theta:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestGaussianQuantile:
    def test_median(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_antisymmetry(self):
        for theta in (0.01, 0.05, 0.2, 0.4):
            assert gaussian_quantile(theta) == pytest.approx(-gaussian_quantile(1 - theta), abs=1e-12)

    def test_five_percent_against_bisection(self):
        oracle = bisect_normal_quantile(0.05)
        assert gaussian_quantile(0.05) == pytest.approx(oracle, abs=1e-9)
        assert gaussian_quantile(0.05) == pytest.approx(-1.6448536269514722, abs=1e-9)

    def test_accuracy_grid(self):
        for theta in np.concatenate([np.linspace(0.001, 0.999, 97), [1e-6, 1e-9, 1 - 1e-6]]):
            assert gaussian_quantile(float(theta)) == pytest.approx(
                bisect_normal_quantile(float(theta)), abs=1e-9
            )

    def test_bits_pinned(self):
        # every SplitMix64 normal stream is built on these bits. The grid is
        # parsed from decimal text and stepped by ulps, so its own bits are
        # exact; it crosses |theta - 0.5| = 0.425 and r = 5 (theta = e^-25)
        lower = [float(f"{m}e-{k}") for k in range(1, 301) for m in (3, 1)]
        edges = []
        for edge in (0.075, 0.925, math.exp(-25.0)):
            below = [edge]
            for _ in range(3):
                below.append(float(np.nextafter(below[-1], 0.0)))
            above = [edge]
            for _ in range(3):
                above.append(float(np.nextafter(above[-1], 1.0)))
            edges += below[:0:-1] + above
        upper = [1.0 - p for p in lower if 1.0 - p < 1.0]
        grid = np.array(lower + edges + list(np.linspace(0.01, 0.99, 99)) + upper)
        assert grid.min() == 1e-300 and grid.max() == 1 - 1e-16
        digest = hashlib.sha256(gaussian_quantile(grid).tobytes()).hexdigest()
        assert digest == "d6b49b7210833619a5cfd472e0c13b436b17910d675ebaec0efec32ac29c87d3"

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                gaussian_quantile(bad)

    def test_array_input(self):
        thetas = np.array([0.05, 0.5, 0.95])
        z = gaussian_quantile(thetas)
        assert z.shape == (3,)
        assert z[1] == 0.0


class TestGarch:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            GarchParams(omega=0.0, alpha=0.1, beta=0.8, mu=0.0)
        with pytest.raises(DomainError):
            GarchParams(omega=0.1, alpha=0.5, beta=0.5, mu=0.0)
        with pytest.raises(DomainError):
            GarchParams(omega=0.1, alpha=-0.1, beta=0.5, mu=0.0)

    def test_degenerate_recursion_is_constant(self):
        params = GarchParams(omega=0.1, alpha=0.0, beta=0.0, mu=0.0)
        rng = np.random.default_rng(0)
        sig2 = garch_variance_path(rng.normal(size=50), params, init_var=0.7)
        assert sig2[0] == 0.7
        assert np.all(sig2[1:] == 0.1)

    def test_recursion_mean_reverts_to_unconditional(self):
        # alpha + beta < 1: simulated variance averages near omega/(1-alpha-beta)
        params = GarchParams(omega=0.05, alpha=0.10, beta=0.85, mu=0.0)
        rng = np.random.default_rng(7)
        n = 10000
        sig2 = np.empty(n)
        r = np.empty(n)
        sig2[0] = params.unconditional_variance
        eps = 0.0
        for t in range(n):
            if t > 0:
                sig2[t] = params.omega + params.alpha * eps**2 + params.beta * sig2[t - 1]
            eps = math.sqrt(sig2[t]) * rng.standard_normal()
            r[t] = eps
        assert abs(np.mean(sig2) - params.unconditional_variance) < 0.1 * params.unconditional_variance
        # and the recursion applied to those returns reproduces the path
        replay = garch_variance_path(r, params, init_var=params.unconditional_variance)
        assert np.allclose(replay, sig2, atol=1e-12)

    def test_fit_on_iid_normal(self):
        rng = np.random.default_rng(11)
        r = rng.standard_normal(10000)
        params = fit_garch(r)
        assert abs(params.alpha) < 0.1
        assert abs(params.omega / (1.0 - params.beta) - 1.0) < 0.1

    def test_fit_beats_initialization(self):
        rng = np.random.default_rng(12)
        r = 0.02 * rng.standard_normal(500)
        params = fit_garch(r)
        mu = float(np.mean(r))
        var = float(np.var(r - mu))
        init = GarchParams(omega=0.05 * var, alpha=0.05, beta=0.90, mu=mu)
        assert garch_loglik(r, params, var) >= garch_loglik(r, init, var) - 1e-9

    def test_fit_saturates_vanishing_alpha(self):
        # Nelder-Mead drives the alpha-share logit far below -709 on these iid
        # draws; the logistic must come out as 0 instead of overflowing
        r = np.random.default_rng(4).standard_normal(500)
        params = fit_garch(r)
        assert params.alpha == 0.0
        mu = float(np.mean(r))
        var = float(np.var(r - mu))
        init = GarchParams(omega=0.05 * var, alpha=0.05, beta=0.90, mu=mu)
        assert garch_loglik(r, params, var) >= garch_loglik(r, init, var) - 1e-9

    def test_fit_rejects_persistence_rounded_to_one(self, monkeypatch):
        # a persistence logit of 40 gives a logistic of exactly 1.0 in doubles
        def stop_at_unit_persistence(fun, x0):
            return np.array([x0[0], 40.0, x0[2]]), fun(x0), 1, 1, "stub"

        monkeypatch.setattr(baselines, "_nelder_mead", stop_at_unit_persistence)
        with pytest.raises(FitError, match="boundary"):
            fit_garch(np.random.default_rng(12).standard_normal(500))

    def test_fit_needs_observations(self):
        with pytest.raises(InsufficientDataError):
            fit_garch(np.zeros(99))

    def test_var_examples(self):
        # unit sigma forecast: omega = 1, alpha = beta = 0 gives sigma[t+1] = 1
        p = GarchParams(omega=1.0, alpha=0.0, beta=0.0, mu=0.0)
        history = np.zeros(10)
        assert garch_var_path(p, history, 10, 0.05, 1.0)[-1] == pytest.approx(1.6448536269514722, abs=1e-9)
        assert garch_var_path(p, history, 10, 0.5, 1.0)[-1] == pytest.approx(0.0, abs=1e-12)

    def test_var_vanishing_sigma_limit(self):
        p = GarchParams(omega=1e-12, alpha=0.0, beta=0.0, mu=0.0)
        assert abs(garch_var_path(p, np.zeros(10), 10, 0.05, 1e-12)[-1]) < 1e-5

    def test_var_path_matches_pointwise(self):
        rng = np.random.default_rng(13)
        r = 0.01 * rng.standard_normal(300)
        p = GarchParams(omega=2e-5, alpha=0.1, beta=0.8, mu=0.0002)
        init = float(np.var(r[:200] - p.mu))
        path = garch_var_path(p, r, 200, 0.05, init)
        assert path.shape == (101,)
        # oracle: the variance recursion as a plain loop, one day past the data
        sig2 = [init]
        for ret in r:
            sig2.append(p.omega + p.alpha * (ret - p.mu) ** 2 + p.beta * sig2[-1])
        z = gaussian_quantile(0.05)
        for t in (200, 250, 299, 300):
            oracle = -(p.mu + math.sqrt(sig2[t]) * z)
            assert path[t - 200] == pytest.approx(oracle, abs=1e-14)

    def test_var_path_no_lookahead(self):
        rng = np.random.default_rng(14)
        r = 0.01 * rng.standard_normal(300)
        p = GarchParams(omega=2e-5, alpha=0.1, beta=0.8, mu=0.0)
        init = float(np.var(r[:200]))
        full = garch_var_path(p, r, 200, 0.05, init)
        cut = garch_var_path(p, r[:250], 200, 0.05, init)
        assert np.array_equal(full[:51], cut)


class TestLinearQr:
    def test_iid_data_recovers_quantile(self):
        rng = np.random.default_rng(20)
        r = rng.standard_normal(5000)
        coeffs = fit_linear_qr(r, 0.05)
        assert np.all(np.abs(coeffs.lag_weights) < 0.1)
        assert coeffs.intercept == pytest.approx(gaussian_quantile(0.05), abs=0.15)

    def test_constant_series_is_perfectly_fit(self):
        r = np.full(104, 0.3)
        coeffs = fit_linear_qr(r, 0.05)
        lags, y = np.full(4, 0.3), 0.3
        pred = coeffs.intercept + float(coeffs.lag_weights @ lags)
        assert pred == pytest.approx(y, abs=1e-5)

    def test_below_fraction_first_order_condition(self):
        rng = np.random.default_rng(21)
        for theta in (0.05, 0.01):
            r = rng.standard_normal(5004)
            coeffs = fit_linear_qr(r, theta)
            lag_block = np.column_stack([r[3 - j : 5000 + 3 - j] for j in range(4)])
            fitted = coeffs.intercept + lag_block @ coeffs.lag_weights
            frac = np.mean(r[4:] < fitted)
            assert abs(frac - theta) <= 6 / 5000

    def test_objective_beats_zero_coefficients(self):
        rng = np.random.default_rng(22)
        r = 0.3 * rng.standard_normal(800) + 0.1
        theta = 0.1
        coeffs = fit_linear_qr(r, theta)
        lag_block = np.column_stack([r[3 - j : 796 + 3 - j] for j in range(4)])
        y = r[4:]

        def objective(intercept, w):
            u = y - (intercept + lag_block @ w)
            return float(np.mean(np.where(u >= 0, theta * u, (theta - 1) * u)))

        assert objective(coeffs.intercept, coeffs.lag_weights) <= objective(0.0, np.zeros(4)) + 1e-12

    def test_needs_observations(self):
        with pytest.raises(InsufficientDataError):
            fit_linear_qr(np.zeros(49), 0.05)

    def test_var_examples(self):
        zero = QrCoefficients(intercept=0.0, lag_weights=np.zeros(4), theta=0.05)
        assert linear_qr_var_path(zero, np.zeros(4), 4)[-1] == 0.0
        flat = QrCoefficients(intercept=-0.02, lag_weights=np.zeros(4), theta=0.05)
        assert linear_qr_var_path(flat, np.array([0.0, 0.2, -0.3, 0.1]), 4)[-1] == pytest.approx(0.02)
        slope = QrCoefficients(intercept=-0.01, lag_weights=np.array([0.5, 0, 0, 0]), theta=0.05)
        assert linear_qr_var_path(slope, np.array([0.1, -0.7, 0.5, -0.02]), 4)[-1] == pytest.approx(0.02)

    def test_var_path_uses_preceding_lags(self):
        rng = np.random.default_rng(23)
        r = rng.standard_normal(60)
        c = QrCoefficients(intercept=0.01, lag_weights=np.array([0.4, -0.3, 0.2, -0.1]), theta=0.05)
        path = linear_qr_var_path(c, r, 50)
        assert path.shape == (11,)
        for t in (50, 55, 59, 60):
            lags = [r[t - 1], r[t - 2], r[t - 3], r[t - 4]]
            oracle = -(c.intercept + sum(w * x for w, x in zip(c.lag_weights, lags)))
            assert path[t - 50] == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize("theta", [0.05, 0.01, 0.001])
    def test_objective_equals_primal_lp_optimum(self, theta):
        # the primal LP: min theta*1'u+ + (1-theta)*1'u- s.t. X b + u+ - u- = y, u+- >= 0
        garch = GarchParams(omega=0.05, alpha=0.1, beta=0.85, mu=0.0)
        for seed in (1, 2, 3):
            series, _ = simulate(SimSpec(process=GARCH11, length=2000, seed=seed, garch=garch))
            r = series.train
            n = r.size - 4
            X = np.column_stack([np.ones(n)] + [r[3 - j : n + 3 - j] for j in range(4)])
            y = r[4:]
            cost = np.concatenate([np.zeros(5), np.full(n, theta), np.full(n, 1.0 - theta)])
            A_eq = hstack([X, eye(n), -eye(n)])
            bounds = [(None, None)] * 5 + [(0.0, None)] * (2 * n)
            primal = linprog(cost, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
            assert primal.status == 0

            coeffs = fit_linear_qr(r, theta)
            u = y - (coeffs.intercept + X[:, 1:] @ coeffs.lag_weights)
            fitted = float(np.sum(np.where(u >= 0, theta * u, (theta - 1) * u)))
            assert fitted == pytest.approx(primal.fun, rel=1e-9), f"seed {seed}"
