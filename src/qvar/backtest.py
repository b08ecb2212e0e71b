"""VaR forecast scoring: exceedance statistics and the Dynamic Quantile test.

The hit variable takes the value 1 - theta when the day's return falls below
the negated VaR forecast (an exceedance) and -theta otherwise, so it has
zero mean under correct calibration. The DQ test regresses hits on the
current VaR and lagged hits and refers the quadratic form to a chi-square
distribution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, ShapeError

DEFAULT_HIT_LAGS = 3


@dataclass(frozen=True)
class HitSeries:
    """Centered exceedance indicators: each value is exactly 1-theta or -theta."""

    values: np.ndarray
    theta: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not 0.0 < self.theta < 1.0:
            raise DomainError("quantile level must lie strictly inside (0, 1)")
        ok = (values == 1.0 - self.theta) | (values == -self.theta)
        if not np.all(ok):
            raise DomainError("hit values must be exactly 1-theta or -theta")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def exceedance_rate(self) -> float:
        return float(np.mean(self.values == 1.0 - self.theta))


@dataclass(frozen=True)
class DqResult:
    statistic: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class BacktestResult:
    """Scores for one VaR forecast series over a test segment."""

    exceedance_rate: float
    mean_var: float
    dq_statistic: float
    dof: int
    p_value: float
    n_days: int
    n_exceedances: int


def hits(returns, var, theta: float) -> HitSeries:
    """Hit_t = 1-theta if return_t < -VaR_t (strict), else -theta."""
    returns = np.asarray(returns, dtype=float)
    var = np.asarray(var, dtype=float)
    if returns.shape != var.shape:
        raise ShapeError(f"returns ({returns.shape}) and VaR ({var.shape}) lengths differ")
    if not 0.0 < theta < 1.0:
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    values = np.where(returns < -var, 1.0 - theta, -theta)
    return HitSeries(values=values, theta=theta)


# ---------------------------------------------------------------------------
# chi-square tail probability
# ---------------------------------------------------------------------------


_EXP_MINUS_512 = math.exp(-512.0)


def chi2_sf(x: float, k: int) -> float:
    """Upper-tail chi-square probability P(chi2_k > x) for an integer k >= 1.

    For integer k the tail is a finite sum. With y = x/2:
      even k: exp(-y) * sum_{j < k/2} y^j / j!
      odd k:  erfc(sqrt(y)) + exp(-y) * sum_{j < (k-1)/2} y^(j+1/2) / Gamma(j+3/2)
    The terms are positive and summed in ascending order. exp(-y) is split
    exactly into exp(-(y mod 512)) times exp(-512) per whole 512 in y, and a
    factor exp(-512) is spent on the sum whenever its next term could pass
    1e250, so no partial sum overflows and a tail too small for a double
    comes out 0.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise DomainError(f"degrees of freedom must be an integer, got {k!r}")
    if k < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if not x >= 0:
        raise DomainError("chi-square statistic must be non-negative")
    y = 0.5 * float(x)
    if y == math.inf:
        return 0.0
    if k % 2:
        head, term, offset = math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi), 1.5
    else:
        head, term, offset = 0.0, 1.0, 1.0
    spare = int(y // 512.0)
    total = 0.0
    for j in range(k // 2):
        total += term
        ratio = y / (j + offset)
        while spare and term * ratio > 1e250:
            total *= _EXP_MINUS_512
            term *= _EXP_MINUS_512
            spare -= 1
        term *= ratio
    total *= math.exp(-math.fmod(y, 512.0))
    while spare and total:
        total *= _EXP_MINUS_512
        spare -= 1
    return min(head + total, 1.0)


# ---------------------------------------------------------------------------
# Dynamic Quantile test
# ---------------------------------------------------------------------------


def dq_regressors(hit: HitSeries, var, hit_lags: int = DEFAULT_HIT_LAGS):
    """Design matrix [VaR_t, Hit_{t-1}, ..., Hit_{t-L}] and the aligned hit vector.

    The first hit_lags observations are dropped so every row has a full set
    of lags.
    """
    if hit_lags < 0:
        raise DomainError(f"hit_lags must be >= 0, got {hit_lags}")
    var = np.asarray(var, dtype=float)
    h = hit.values
    if var.shape != h.shape:
        raise ShapeError(f"hits ({h.shape}) and VaR ({var.shape}) lengths differ")
    rows = np.arange(hit_lags, h.size)
    cols = [var[rows]]
    for lag in range(1, hit_lags + 1):
        cols.append(h[rows - lag])
    return np.column_stack(cols), h[rows]


def dq_test(hit: HitSeries, var, hit_lags: int = DEFAULT_HIT_LAGS) -> DqResult:
    """Dynamic Quantile statistic Hit'X (X'X)^- X'Hit / (theta (1 - theta)).

    Uses a rank-tolerant pseudo-inverse (singular values below 1e-10 of the
    largest are dropped) so degenerate regressors such as a constant VaR
    with no exceedances still yield a defined statistic. dof equals the
    number of regressor columns regardless of rank. A VaR so large that
    X'X or X'Hit overflows raises DomainError.
    """
    X, h = dq_regressors(hit, var, hit_lags)
    dof = X.shape[1]
    if h.size <= dof:
        raise InsufficientDataError(
            f"DQ test needs more than {hit_lags + dof} observations, got {len(hit)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.T @ X
        xh = X.T @ h
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(xh))):
        # an overflowed Gram matrix has an all-zero pseudo-inverse: a false pass
        raise DomainError("VaR forecasts too large for the DQ test: X'X or X'Hit overflows")
    delta = np.linalg.pinv(gram, rcond=1e-10, hermitian=True) @ xh
    statistic = float(xh @ delta) / (hit.theta * (1.0 - hit.theta))
    statistic = max(statistic, 0.0)
    return DqResult(statistic=statistic, dof=dof, p_value=chi2_sf(statistic, dof))


def score_forecast(
    returns, var, theta: float, hit_lags: int = DEFAULT_HIT_LAGS
) -> BacktestResult:
    """Exceedance rate, mean VaR and the DQ test for one forecast series.

    A series with zero exceedances is assigned p_value = 0 regardless of the
    DQ statistic, so it always counts as a rejection. A non-finite VaR, as a
    diverged model forecasts, raises DomainError instead of being scored.
    """
    var = np.asarray(var, dtype=float)
    if not np.all(np.isfinite(var)):
        raise DomainError("VaR forecasts must be finite")
    hit = hits(returns, var, theta)
    n_exc = int(np.sum(hit.values == 1.0 - theta))
    dq = dq_test(hit, var, hit_lags)
    p_value = 0.0 if n_exc == 0 else dq.p_value
    return BacktestResult(
        exceedance_rate=hit.exceedance_rate,
        mean_var=float(np.mean(var)),
        dq_statistic=dq.statistic,
        dof=dq.dof,
        p_value=p_value,
        n_days=len(hit),
        n_exceedances=n_exc,
    )
