"""Synthetic return processes with known conditional quantiles.

These serve as ground-truth oracles: the simulated sigma path gives the
exact one-step-ahead VaR any forecaster can be compared against. Draws come
from a counter-based generator so streams are reproducible from (seed,
index) alone, independent of platform or call order.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import GarchParams, gaussian_quantile
from .config import GARCH11, IID_NORMAL
from .data import ReturnSeries, prices_from_returns, write_output
from .errors import DomainError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class SplitMix64:
    """SplitMix64 used as a counter-based generator.

    Output i is mix64(seed + (i + 1) * golden_gamma) where mix64 is the
    SplitMix64 finalizer (xor-shift/multiply rounds), so any slice of the
    stream can be produced directly from its indices. Uniform doubles take
    the top 53 bits, shifted half a step into the open interval (0, 1).
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def raw(self, n: int, start: int = 0) -> np.ndarray:
        counters = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        z = self.seed + counters * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    def uniforms(self, n: int, start: int = 0) -> np.ndarray:
        """n doubles strictly inside (0, 1)."""
        bits53 = (self.raw(n, start) >> np.uint64(11)).astype(float)
        return (bits53 + 0.5) * 2.0**-53

    def normals(self, n: int, start: int = 0) -> np.ndarray:
        """Standard normal draws via the inverse-CDF of the uniform stream."""
        return gaussian_quantile(self.uniforms(n, start))


@dataclass(frozen=True)
class SimSpec:
    """What to simulate: an iid normal process or a GARCH(1,1) process."""

    process: str
    length: int
    seed: int
    mu: float = 0.0
    sigma: float = 1.0
    garch: GarchParams | None = None

    def __post_init__(self):
        if self.process not in (IID_NORMAL, GARCH11):
            raise DomainError(f"unknown process {self.process!r}")
        if self.length < 2:
            raise DomainError("simulated length must be >= 2")
        if self.process == IID_NORMAL and not self.sigma > 0:
            raise DomainError("sigma must be positive")
        if self.process == GARCH11 and self.garch is None:
            raise DomainError("garch11 simulation needs GarchParams")


def simulate(spec: SimSpec, asset_id: str | None = None) -> tuple[ReturnSeries, np.ndarray]:
    """Simulate returns and the true conditional sigma path, seeded and reproducible.

    For garch11 it runs the fitting recursion,
    sigma2[t] = omega + alpha*eps[t-1]^2 + beta*sigma2[t-1] with sigma2[0]
    at the unconditional variance omega/(1-alpha-beta). The fit solves it
    with BLAS dtbsv, whose fused multiply-add can move a day's variance by
    its last bit, so the two agree to rounding. sigma[t] is known
    before the day-t return is drawn, so it is the true one-step-ahead
    volatility.
    """
    if asset_id is None:
        asset_id = f"{spec.process}-{spec.seed}"
    z = SplitMix64(spec.seed).normals(spec.length)
    if spec.process == IID_NORMAL:
        sigma = np.full(spec.length, spec.sigma)
        returns = spec.mu + spec.sigma * z
    else:
        p = spec.garch
        sigma2 = np.empty(spec.length)
        returns = np.empty(spec.length)
        sigma2[0] = p.unconditional_variance
        eps_prev = 0.0
        for t in range(spec.length):
            if t > 0:
                sigma2[t] = p.omega + p.alpha * eps_prev**2 + p.beta * sigma2[t - 1]
            eps_prev = math.sqrt(sigma2[t]) * z[t]
            returns[t] = p.mu + eps_prev
        sigma = np.sqrt(sigma2)
    return ReturnSeries(asset_id=asset_id, returns=returns), sigma


def true_var(sigma_path, mu: float, theta: float) -> np.ndarray:
    """The oracle forecast: -(mu + sigma[t] * z_theta) for every step."""
    sigma = np.asarray(sigma_path, dtype=float)
    return -(mu + sigma * gaussian_quantile(theta))


_FIRST_DAY = dt.date(2009, 1, 1)


def write_price_csv(series: ReturnSeries, path: str | Path) -> None:
    """Export the series as a price CSV the data module can ingest.

    Prices are the cumulative exponentiation of the returns from 100, dated
    on consecutive calendar days from 2009-01-01. Raises DomainError,
    naming the first day, when a close is not a positive finite double (it
    overflows, or underflows to 0), since the data module would reject
    that file.
    """
    with np.errstate(all="ignore"):
        closes = prices_from_returns(series.returns)
    bad = np.flatnonzero(~(np.isfinite(closes) & (closes > 0)))
    if bad.size:
        day = _FIRST_DAY + dt.timedelta(days=int(bad[0]))
        close = float(closes[bad[0]])
        what = "overflows a double" if close == np.inf else f"is {close!r}, not a positive double"
        raise DomainError(f"{series.asset_id}: the close on {day.isoformat()} {what}")
    lines = ["date,close"]
    for i, close in enumerate(closes):
        day = _FIRST_DAY + dt.timedelta(days=i)
        lines.append(f"{day.isoformat()},{float(close)!r}")
    write_output(path, "price file", "\n".join(lines) + "\n")
