"""Input files, price ingestion, log returns, train/test split, scaling and windowing.

Every input file is opened by `open_input` and every CSV read by `read_csv`.
Price files are one CSV per asset with a header row and `date` (ISO-8601)
and `close` (decimal) columns. A manifest file lists asset CSV paths, one
per line. Each series is handled independently; there is no calendar
alignment across assets.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TextIO

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
            at = int(np.argmin(closes > 0))
            raise DomainError(f"{self.asset_id}: non-positive close {closes[at]} on {self.dates[at]}")
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


@contextmanager
def reading(path: Path, what: str) -> Iterator[None]:
    """Make any failure to read `path` inside the block a ParseError naming it."""
    try:
        yield
    except FileNotFoundError:
        raise ParseError(f"{what} not found: {path}") from None
    except (OSError, ValueError, csv.Error) as exc:
        # a directory, a name the OS rejects, undecodable bytes, an oversized CSV field
        raise ParseError(f"{path}: cannot read {what}: {exc}") from None


@contextmanager
def open_input(path: Path, what: str) -> Iterator[TextIO]:
    """Open an input file as text, mapping read failures as `reading` does.

    utf-8-sig drops the byte-order mark spreadsheets write before the
    header. There is no exists() pre-check: on a name too long for the OS
    that check itself raises OSError.
    """
    with reading(path, what), open(path, newline="", encoding="utf-8-sig") as fh:
        yield fh


def parse_finite(text: str) -> float:
    """The one rule for a numeric input field: a decimal that is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text.strip())


def read_csv(path: Path, what: str, columns: dict[str, Callable[[str], Any]]) -> list[list]:
    """Read a CSV input's `columns`, each field parsed by its column's function.

    Returns one list of values per column, in row order. Header names match
    case-insensitively and extra columns are ignored. Rows whose fields are
    all blank are skipped. A missing column, a short row or a field its
    parser rejects (ValueError) is a ParseError naming the file, with the
    line number.
    """
    with open_input(path, what) as fh:
        reader = csv.reader(fh)
        header = [name.strip().lower() for name in next(reader, ())]
        missing = [name for name in columns if name not in header]
        if missing:
            raise ParseError(f"{path}: header lacks {', '.join(missing)}", 1)
        fields = [(header.index(name), parse, []) for name, parse in columns.items()]
        width = max(i for i, _, _ in fields) + 1
        for row in reader:
            if not "".join(row).strip():
                continue
            if len(row) < width:
                raise ParseError(f"{path}: expected at least {width} columns", reader.line_num)
            try:
                for i, parse, values in fields:
                    values.append(parse(row[i]))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", reader.line_num) from None
    return [values for _, _, values in fields]


def load_prices(path: str | Path, asset_id: str | None = None) -> PriceSeries:
    """Read one asset's price CSV and return it sorted by date.

    The header must contain `date` and `close` columns. Malformed rows
    raise ParseError with the line number; non-positive prices and
    duplicate dates are rejected.
    """
    path = Path(path)
    dates, closes = read_csv(path, "price file", {"date": _parse_date, "close": parse_finite})
    ordinals = np.fromiter((d.toordinal() for d in dates), dtype=np.int64, count=len(dates))
    order = np.argsort(ordinals, kind="stable")
    repeated = np.flatnonzero(np.diff(ordinals[order]) == 0)
    if repeated.size:
        raise ParseError(f"{path}: duplicate date {dates[order[repeated[0]]]}")
    return PriceSeries(
        asset_id=path.stem if asset_id is None else asset_id,
        dates=tuple(dates[i] for i in order),
        closes=np.array(closes, dtype=float)[order],
    )


def load_manifest(path: str | Path) -> list[Path]:
    """Read a manifest of asset CSV paths, one per line, relative to the manifest."""
    path = Path(path)
    with open_input(path, "manifest") as fh:
        text = fh.read()
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
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(train))
        std = float(np.std(train))
    if std == 0.0:
        raise DegenerateDataError(f"{series.asset_id}: training returns have zero variance")
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DegenerateDataError(f"{series.asset_id}: training returns' mean or std overflows")
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
