"""Reference VaR forecasters: constant historical quantile, GARCH(1,1) with
normal innovations, and linear quantile autoregression with 4 lags.

All VaR numbers follow the sign convention VaR = -(predicted return
quantile), so a typical lower-tail forecast comes out positive. The scipy
code used here is loaded by the functions that call it, so importing qvar
does not load it: the quantile autoregression imports
`scipy.optimize.linprog`, and GARCH's variance recursion loads scipy's BLAS
extension `scipy.linalg._fblas` by file for `dtbsv`. That is the object
`scipy.linalg.blas.dtbsv` re-exports, so its bits are scipy's; a numpy scan
or a Python loop rounds the recursion's fused multiply-add differently.
Loading it costs 15-25 ms and 3.5 MB per process, against 0.28-0.33 s and
27 MB for `import scipy.linalg` after numpy. The GARCH fit's Nelder-Mead
loop is written out here, so a GARCH run loads no scipy submodule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import check_quantile_level
from .errors import DomainError, FitError, InsufficientDataError

# ---------------------------------------------------------------------------
# normal quantile
# ---------------------------------------------------------------------------

# Rational approximations from Wichura's PPND16 algorithm (AS 241); absolute
# error is below 1e-15 over (0, 1), comfortably inside the 1e-9 contract.
# Each tuple lists AS 241's coefficients lowest power first; np.polyval takes
# them reversed and runs the same Horner steps, so the bits are AS 241's.
_PPND_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_PPND_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_PPND_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1, 1.51986665636164571966e-2,
    5.47593808499534494600e-4, 1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_PPND_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4, 1.84631831751005468180e-5,
    1.42151175831644588870e-7, 2.04426310338993978564e-15,
)


def gaussian_quantile(theta):
    """Standard normal quantile: the z with Phi(z) = theta.

    Accepts a scalar or an ndarray in (0, 1); scalars come back as float.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    q = arr - 0.5
    central = np.abs(q) <= 0.425
    r_central = 0.180625 - q * q
    z = np.where(
        central,
        q * np.polyval(_PPND_A[::-1], r_central) / np.polyval(_PPND_B[::-1], r_central),
        0.0,
    )
    if not np.all(central):
        p_tail = np.where(q < 0, arr, 1.0 - arr)
        # guard the log for central entries; they are overwritten by `central` anyway
        r = np.sqrt(-np.log(np.where(central, 0.5, p_tail)))
        near = r <= 5.0
        rn = np.where(near, r - 1.6, r - 5.0)
        tail = np.where(
            near,
            np.polyval(_PPND_C[::-1], rn) / np.polyval(_PPND_D[::-1], rn),
            np.polyval(_PPND_E[::-1], rn) / np.polyval(_PPND_F[::-1], rn),
        )
        z = np.where(central, z, np.where(q < 0, -tail, tail))
    if np.isscalar(theta) or arr.ndim == 0:
        return float(z)
    return z


# ---------------------------------------------------------------------------
# constant quantile
# ---------------------------------------------------------------------------


def constant_quantile(xs, theta: float) -> float:
    """Empirical theta-quantile by linear interpolation.

    Sorts ascending and evaluates x_[i] + (i - [i]) * (x_[i]+1 - x_[i]) at
    the 1-based index i = (N - 1) * theta + 1.
    """
    check_quantile_level(theta)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise InsufficientDataError("cannot take the quantile of an empty sample")
    xs = np.sort(xs)
    n = xs.size
    i = (n - 1) * theta + 1.0
    j = int(math.floor(i))
    if j >= n:
        return float(xs[-1])
    frac = i - j
    return float(xs[j - 1] + frac * (xs[j] - xs[j - 1]))


def constant_var(train_returns, theta: float) -> float:
    """Constant VaR forecast: the negated empirical quantile of training returns."""
    return -constant_quantile(train_returns, theta)


# ---------------------------------------------------------------------------
# GARCH(1,1) with normal innovations
# ---------------------------------------------------------------------------

MIN_GARCH_OBS = 100


@dataclass(frozen=True)
class GarchParams:
    """GARCH(1,1) parameters with a constant mean return."""

    omega: float
    alpha: float
    beta: float
    mu: float

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("alpha and beta must be non-negative")
        if not self.alpha + self.beta < 1:
            raise DomainError(
                f"alpha + beta = {self.alpha + self.beta} violates stationarity"
            )

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


_FBLAS = "scipy.linalg._fblas"


def _fblas():
    # scipy's BLAS extension, which scipy.linalg.blas re-exports. The first call
    # loads it by file, without importing scipy.linalg, and enters it in
    # sys.modules under its own name, so an import of scipy.linalg before or
    # after shares the one module and its dtbsv
    module = sys.modules.get(_FBLAS)
    if module is None:
        import importlib.machinery
        import importlib.util
        import os

        import scipy

        linalg_dir = os.path.join(scipy.__path__[0], "linalg")
        spec = importlib.machinery.PathFinder.find_spec(_FBLAS, [linalg_dir])
        if spec is None:
            raise ImportError(f"scipy has no BLAS extension {_FBLAS} in {linalg_dir}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FBLAS] = module
        spec.loader.exec_module(module)
    return module


def _variance_recursion(eps2: np.ndarray, omega: float, alpha: float, beta: float, init_var: float):
    # sigma2[t] = (omega + alpha*eps2[t-1]) + beta*sigma2[t-1] solves the unit lower
    # bidiagonal system (I - beta*shift) sigma2 = driver: one BLAS dtbsv call. It
    # runs one day past the data, so sigma2[-1] is the next day's variance.
    driver = np.empty(eps2.size + 1)
    driver[0] = init_var
    driver[1:] = omega + alpha * eps2
    band = np.full((2, driver.size), -beta, order="F")
    return _fblas().dtbsv(1, band, driver, lower=1, diag=1, overwrite_x=1)


def _variances_ahead(returns, params: GarchParams, init_var: float):
    # the variance recursion over the returns, run one day past them (n + 1 values)
    returns = np.asarray(returns, dtype=float)
    if returns.size < 1:
        raise InsufficientDataError("need at least one observation for the variance recursion")
    if not init_var > 0:
        raise DomainError("initial variance must be positive")
    eps2 = (returns - params.mu) ** 2
    return _variance_recursion(eps2, params.omega, params.alpha, params.beta, init_var)


def _negloglik(eps2: np.ndarray, sigma2: np.ndarray) -> float:
    # Gaussian negative log-likelihood of residuals with variances sigma2
    return float(0.5 * np.sum(np.log(2.0 * np.pi) + np.log(sigma2) + eps2 / sigma2))


def garch_variance_path(returns, params: GarchParams, init_var: float):
    """Conditional variance recursion sigma2[t] = omega + alpha*eps[t-1]^2 + beta*sigma2[t-1].

    eps[t] = r[t] - mu and sigma2[0] = init_var. Each sigma2[t] depends only
    on returns before t.
    """
    return _variances_ahead(returns, params, init_var)[:-1]


def garch_loglik(returns, params: GarchParams, init_var: float) -> float:
    """Gaussian log-likelihood of the returns under the variance recursion."""
    returns = np.asarray(returns, dtype=float)
    sigma2 = garch_variance_path(returns, params, init_var)
    return -_negloglik((returns - params.mu) ** 2, sigma2)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _logistic(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        # exp(-x) is beyond the double range, so the logistic is 0 to double precision
        return 0.0


class _MaxFevReached(Exception):
    pass


def _nelder_mead(func, x0, maxfev=8000):
    """Minimize func from x0 by Nelder-Mead; returns (x, fun, nit, nfev, message).

    Follows scipy.optimize.minimize(method="Nelder-Mead") with the options
    xatol=1e-8, fatol=1e-10, maxiter=5000 and maxfev, and no bounds,
    adaptive mode or callback, op for op, so x, fun, nit, nfev and message
    come out bit for bit as scipy's. Adapted from scipy's
    `_minimize_neldermead` (scipy/optimize/_optimize.py, BSD-3-Clause,
    Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy Developers).
    """
    xatol, fatol, maxiter = 1e-8, 1e-10, 5000
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x):
        # past the cap, the evaluation that would exceed it ends the step
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFevReached
        nfev += 1
        return func(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _MaxFevReached:
        pass
    # scipy sorts the start simplex twice; argsort need not be stable on ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    # shrink towards the best vertex. The cap can stop it after
                    # moving a vertex but before evaluating it; that vertex
                    # keeps its old value
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        except _MaxFevReached:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    # scipy's messages for its three outcomes
    if nfev >= maxfev:
        message = "Maximum number of function evaluations has been exceeded."
    elif nit >= maxiter:
        message = "Maximum number of iterations has been exceeded."
    else:
        message = "Optimization terminated successfully."
    # np.min, not fsim[0]: a NaN anywhere in the simplex makes fun NaN
    return sim[0], np.min(fsim), nit, nfev, message


def _garch_coefficients(raw) -> tuple[float, float, float]:
    # (log omega, logit persistence, logit alpha-share) -> (omega, alpha, beta)
    log_omega, raw_p, raw_s = raw
    persistence = _logistic(raw_p)
    share = _logistic(raw_s)
    return math.exp(log_omega), persistence * share, persistence * (1.0 - share)


def fit_garch(train_returns) -> GarchParams:
    """Maximum-likelihood GARCH(1,1) fit with mu fixed at the sample mean.

    Maximizes the Gaussian log-likelihood with sigma2[0] set to the sample
    variance of the demeaned returns. Constraints (omega > 0, alpha, beta >= 0,
    alpha + beta < 1) are enforced by optimizing Nelder-Mead over
    (log omega, logit persistence, logit alpha-share). Raises FitError when
    the optimum found rounds onto the boundary, such as alpha + beta = 1.
    """
    returns = np.asarray(train_returns, dtype=float)
    if returns.size < MIN_GARCH_OBS:
        raise InsufficientDataError(
            f"GARCH fit needs >= {MIN_GARCH_OBS} observations, got {returns.size}"
        )
    mu = float(np.mean(returns))
    eps = returns - mu
    with np.errstate(over="ignore"):
        sample_var = float(np.var(eps))
    if sample_var <= 0:
        raise FitError("returns have zero variance; GARCH likelihood is degenerate")
    if not math.isfinite(sample_var):
        raise FitError("returns' sample variance overflows; GARCH likelihood is degenerate")
    eps2 = eps * eps

    def negloglik(raw):
        try:
            omega, alpha, beta = _garch_coefficients(raw)
        except OverflowError:
            # omega = exp(log omega) is beyond the double range: no finite likelihood
            return math.inf
        return _negloglik(eps2, _variance_recursion(eps2, omega, alpha, beta, sample_var)[:-1])

    alpha0, beta0 = 0.05, 0.90
    p0 = alpha0 + beta0
    x0 = np.array([math.log(0.05 * sample_var), _logit(p0), _logit(alpha0 / p0)])
    nll0 = negloglik(x0)
    x, fun, _, _, message = _nelder_mead(negloglik, x0)
    if not np.isfinite(fun):
        raise FitError(f"GARCH likelihood diverged: {message}")
    if fun > nll0 + 1e-9:
        raise FitError(
            f"GARCH optimizer ended below the starting likelihood "
            f"({-fun:.3f} < {-nll0:.3f}): {message}"
        )
    omega, alpha, beta = _garch_coefficients(x)
    try:
        return GarchParams(omega=omega, alpha=alpha, beta=beta, mu=mu)
    except DomainError as exc:
        raise FitError(f"GARCH optimum rounds onto the parameter boundary: {exc}") from exc


def garch_var_path(params: GarchParams, history, start: int, theta: float, init_var: float):
    """VaR forecasts -(mu + sigma[t] * z_theta) for days t = start..len(history).

    The variance recursion runs once over the whole history from
    sigma2[0] = init_var, the starting variance the fit used. Element i
    uses only history[:start + i] and init_var; the last element forecasts
    the day after the history.
    """
    sigma2 = _variances_ahead(history, params, init_var)
    if not 0 < start < sigma2.size:
        raise DomainError(f"start index {start} outside (0, {sigma2.size - 1}]")
    z = gaussian_quantile(theta)
    return -(params.mu + np.sqrt(sigma2[start:]) * z)


# ---------------------------------------------------------------------------
# linear quantile autoregression
# ---------------------------------------------------------------------------

MIN_QR_OBS = 50
QR_LAGS = 4


@dataclass(frozen=True)
class QrCoefficients:
    """Linear quantile autoregression coefficients; lag_weights[0] is the most recent lag."""

    intercept: float
    lag_weights: np.ndarray
    theta: float

    def __post_init__(self):
        weights = np.asarray(self.lag_weights, dtype=float)
        object.__setattr__(self, "lag_weights", weights)
        if weights.ndim != 1:
            raise DomainError("lag weights must be a flat vector")
        check_quantile_level(self.theta)


def _lag_matrix(x: np.ndarray, rows: np.ndarray, lags: int) -> np.ndarray:
    # row i: [x[rows[i]-1], x[rows[i]-2], ..., x[rows[i]-lags]]
    return np.column_stack([x[rows - 1 - j] for j in range(lags)])


def fit_linear_qr(train_returns, theta: float) -> QrCoefficients:
    """Fit r_t ~ [1, r_{t-1..t-4}] by exact minimization of the pinball loss.

    Solves the Koenker-Bassett (1978) linear program through its dual,
    max y'd subject to X'd = 0 and theta - 1 <= d <= theta, with scipy's
    HiGHS solver; the coefficients are the multipliers of the equality
    rows. Raises FitError when the solver does not report an optimum.
    """
    from scipy.optimize import linprog

    check_quantile_level(theta)
    returns = np.asarray(train_returns, dtype=float)
    if returns.size < MIN_QR_OBS:
        raise InsufficientDataError(
            f"linear quantile regression needs >= {MIN_QR_OBS} observations, got {returns.size}"
        )
    rows = np.arange(QR_LAGS, returns.size)
    X = np.column_stack([np.ones(rows.size), _lag_matrix(returns, rows, QR_LAGS)])
    result = linprog(
        -returns[rows], A_eq=X.T, b_eq=np.zeros(QR_LAGS + 1), bounds=(theta - 1.0, theta),
        method="highs",
    )
    if result.status != 0:
        raise FitError(f"quantile regression LP failed: {result.message}")
    beta = -result.eqlin.marginals
    return QrCoefficients(intercept=float(beta[0]), lag_weights=beta[1:], theta=theta)


def linear_qr_var_path(coeffs: QrCoefficients, history, start: int):
    """VaR forecasts -(intercept + lag_weights . lags) for days start..len(history).

    Element i uses the `lags` returns before day start + i, all within
    history[:start + i]; the last element forecasts the day after the history.
    """
    history = np.asarray(history, dtype=float)
    lags = coeffs.lag_weights.size
    if not lags <= start <= history.size:
        raise DomainError(f"start index {start} outside [{lags}, {history.size}]")
    lag_block = _lag_matrix(history, np.arange(start, history.size + 1), lags)
    # einsum sums each row in one order whatever the row count, so truncating
    # the history leaves earlier forecasts unchanged bit for bit; BLAS matmul
    # takes another route for a single row
    return -(coeffs.intercept + np.einsum("tj,j->t", lag_block, coeffs.lag_weights))
