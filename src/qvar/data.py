"""Price ingestion, log returns, train/test split, scaling and windowing.

Input files are one CSV per asset with a header row and `date` (ISO-8601)
and `close` (decimal) columns. A manifest file lists asset CSV paths, one
per line. Each series is handled independently; there is no calendar
alignment across assets.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateDataError, DomainError, InsufficientDataError, ParseError

TRAIN_FRACTION = 0.7
DEFAULT_WINDOW = 128


@dataclass(frozen=True)
class PriceSeries:
    """Daily close prices for one asset, sorted by strictly increasing date."""

    asset_id: str
    dates: tuple[dt.date, ...]
    closes: np.ndarray

    def __post_init__(self):
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", closes)
        if len(self.dates) != len(closes):
            raise DomainError(f"{self.asset_id}: {len(self.dates)} dates but {len(closes)} closes")
        if len(closes) < 2:
            raise InsufficientDataError(f"{self.asset_id}: need at least 2 prices, got {len(closes)}")
        if not np.all(closes > 0):
            raise DomainError(f"{self.asset_id}: prices must be strictly positive")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DomainError(f"{self.asset_id}: dates not strictly increasing at {b}")

    def __len__(self) -> int:
        return len(self.closes)


@dataclass(frozen=True)
class ReturnSeries:
    """Daily log returns with the index where the test segment begins.

    The split is fixed at split_index = floor(0.7 * len(returns)): indices
    below it form the training segment, the rest the test segment.
    """

    asset_id: str
    returns: np.ndarray
    split_index: int

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        # split_index 0 (an all-test series) only occurs for a single return;
        # operations that need a training segment reject it themselves
        if not 0 <= self.split_index < len(returns):
            raise DomainError(
                f"{self.asset_id}: split_index {self.split_index} outside [0, {len(returns)})"
            )

    def __len__(self) -> int:
        return len(self.returns)

    @property
    def train(self) -> np.ndarray:
        return self.returns[: self.split_index]

    @property
    def test(self) -> np.ndarray:
        return self.returns[self.split_index :]


@dataclass(frozen=True)
class Scaler:
    """Standardization constants fitted on a training segment."""

    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise DomainError(f"scaler std must be positive, got {self.std}")


@dataclass(frozen=True)
class WindowSet:
    """Overlapping training sequences cut from each asset's scaled training series.

    series maps an asset id to its scaled training returns. Window w starts
    at day s of asset a's series, (a, s) = origins[w]: inputs[w] is
    series[a][s : s + window] and targets[w] the same slice one day later.
    """

    series: dict[str, np.ndarray]
    origins: tuple[tuple[str, int], ...]
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise DomainError(f"window must be positive, got {self.window}")
        for asset, values in self.series.items():
            if not np.all(np.isfinite(values)):
                raise DomainError(f"{asset}: scaled training series has a non-finite value")
        last = {asset: len(values) - self.window - 1 for asset, values in self.series.items()}
        for asset, start in self.origins:
            if not 0 <= start <= last.get(asset, -1):
                raise DomainError(
                    f"window ({asset!r}, {start}) of length {self.window} does not fit its series"
                )

    def __len__(self) -> int:
        return len(self.origins)

    def _slices(self, shift: int) -> np.ndarray:
        rows = [self.series[a][s + shift : s + shift + self.window] for a, s in self.origins]
        return np.array(rows, dtype=float).reshape(len(self), self.window)

    @property
    def inputs(self) -> np.ndarray:
        return self._slices(0)

    @property
    def targets(self) -> np.ndarray:
        return self._slices(1)


def _parse_date(text: str, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"invalid ISO-8601 date {text!r}", line) from None


def load_prices(path: str | Path, asset_id: str | None = None) -> PriceSeries:
    """Read one asset's price CSV and return it sorted by date.

    The header must contain `date` and `close` columns (case-insensitive,
    extra columns ignored). Malformed rows raise ParseError with the line
    number; non-positive prices and duplicate dates are rejected.
    """
    path = Path(path)
    if asset_id is None:
        asset_id = path.stem
    if not path.exists():
        raise ParseError(f"price file not found: {path}")

    dates: list[dt.date] = []
    closes: list[float] = []
    try:
        # utf-8-sig drops the byte-order mark spreadsheets write before the header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file", 1) from None
            lowered = [h.strip().lower() for h in header]
            try:
                date_col = lowered.index("date")
                close_col = lowered.index("close")
            except ValueError:
                raise ParseError(f"{path}: header must contain 'date' and 'close' columns", 1) from None
            for row in reader:
                line = reader.line_num
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) <= max(date_col, close_col):
                    raise ParseError(f"{path}: expected at least {max(date_col, close_col) + 1} columns", line)
                date = _parse_date(row[date_col], line)
                try:
                    close = float(row[close_col])
                except ValueError:
                    raise ParseError(f"{path}: invalid close {row[close_col]!r}", line) from None
                if not math.isfinite(close) or close <= 0:
                    raise DomainError(f"{path} line {line}: close must be a positive finite number, got {close}")
                dates.append(date)
                closes.append(close)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        # a directory, bytes that are not UTF-8, an oversized field: one
        # unreadable file must stay that asset's problem
        raise ParseError(f"{path}: cannot read price file: {exc}") from None

    seen: set[dt.date] = set()
    for d in dates:
        if d in seen:
            raise ParseError(f"{path}: duplicate date {d}")
        seen.add(d)
    ordinals = np.fromiter((d.toordinal() for d in dates), dtype=np.int64, count=len(dates))
    order = np.argsort(ordinals, kind="stable")
    return PriceSeries(
        asset_id=asset_id,
        dates=tuple(dates[i] for i in order),
        closes=np.array(closes, dtype=float)[order],
    )


def load_manifest(path: str | Path) -> list[Path]:
    """Read a manifest of asset CSV paths, one per line, relative to the manifest."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ParseError(f"manifest not found: {path}") from None
    except (OSError, ValueError) as exc:
        # a directory, bytes that are not UTF-8, a name the OS rejects
        raise ParseError(f"{path}: cannot read manifest: {exc}") from None
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        out.append(p if p.is_absolute() else path.parent / p)
    return out


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Daily log returns ln(close[t+1]/close[t]) with the 70/30 split index set."""
    if len(prices) < 2:
        raise InsufficientDataError(f"{prices.asset_id}: need at least 2 prices")
    returns = np.diff(np.log(prices.closes))
    split = int(math.floor(TRAIN_FRACTION * len(returns)))
    return ReturnSeries(asset_id=prices.asset_id, returns=returns, split_index=split)


def prices_from_returns(
    returns: np.ndarray, initial_price: float = 100.0
) -> np.ndarray:
    """Cumulative exponentiation: the price path whose log returns are `returns`."""
    if initial_price <= 0:
        raise DomainError("initial price must be positive")
    return initial_price * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


def fit_scaler(series: ReturnSeries) -> Scaler:
    """Mean/std over the training segment only (population std, divide by n).

    Test-segment values never enter the fit, so there is no lookahead.
    """
    train = series.train
    if len(train) < 2:
        raise InsufficientDataError(
            f"{series.asset_id}: training segment has {len(train)} returns, need >= 2"
        )
    mean = float(np.mean(train))
    std = float(np.std(train))
    if std == 0.0:
        raise DegenerateDataError(f"{series.asset_id}: training returns have zero variance")
    return Scaler(mean=mean, std=std)


def apply_scaler(x, scaler: Scaler):
    """(x - mean) / std, elementwise for arrays."""
    return (np.asarray(x, dtype=float) - scaler.mean) / scaler.std


def invert_scaler(x, scaler: Scaler):
    """x * std + mean, the exact inverse of apply_scaler up to rounding."""
    return np.asarray(x, dtype=float) * scaler.std + scaler.mean


def make_windows(
    series: ReturnSeries,
    scaler: Scaler,
    window: int = DEFAULT_WINDOW,
    stride: int = 1,
) -> WindowSet:
    """Extract every length-`window` training sequence at the given stride.

    Targets are the inputs shifted forward one step, so a window starting at
    w needs scaled returns up to index w + window; no window touches the
    test segment.
    """
    if window < 1 or stride < 1:
        raise DomainError("window and stride must be positive")
    train = series.train
    if len(train) < window + 1:
        raise InsufficientDataError(
            f"{series.asset_id}: training segment has {len(train)} returns, "
            f"need >= {window + 1} for windowing"
        )
    starts = range(0, len(train) - window, stride)
    return WindowSet(
        series={series.asset_id: apply_scaler(train, scaler)},
        origins=tuple((series.asset_id, s) for s in starts),
        window=window,
    )


def pool_windows(window_sets: list[WindowSet]) -> WindowSet:
    """Merge window sets from several assets into one training pool."""
    if not window_sets:
        raise InsufficientDataError("no window sets to pool")
    widths = {ws.window for ws in window_sets}
    if len(widths) != 1:
        raise DomainError(f"cannot pool windows of different lengths: {sorted(widths)}")
    series: dict[str, np.ndarray] = {}
    for ws in window_sets:
        for asset, values in ws.series.items():
            if asset in series:
                raise DomainError(f"asset id {asset!r} appears in more than one window set")
            series[asset] = values
    return WindowSet(
        series=series,
        origins=tuple(o for ws in window_sets for o in ws.origins),
        window=widths.pop(),
    )
