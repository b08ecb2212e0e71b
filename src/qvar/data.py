"""Input and output files, price ingestion, log returns, train/test split,
scaling and windowing.

Every input file is opened by `open_input`, every CSV read by `read_csv`,
every output file written by `write_output` and every output directory
made by `make_output_dir`. Price files are one CSV per asset with a header
row and `date` (ISO-8601) and `close` (decimal) columns. A manifest file
lists asset CSV paths, one per line. Each series is handled independently;
there is no calendar alignment across assets.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import os
import stat
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .config import DEFAULT_WINDOW
from .errors import DegenerateDataError, DomainError, InsufficientDataError, ParseError

TRAIN_FRACTION = 0.7


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
    """Daily log returns, split into a training and a test segment.

    The split follows from the length, at split_index =
    floor(0.7 * len(returns)): indices below it form the training segment,
    the rest the test segment.
    """

    asset_id: str
    returns: np.ndarray

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        if len(returns) == 0:
            raise DomainError(f"{self.asset_id}: a return series needs at least one return")

    @property
    def split_index(self) -> int:
        # 0 (an all-test series) only occurs for a single return; operations
        # that need a training segment reject it themselves
        return math.floor(TRAIN_FRACTION * len(self.returns))

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

    series maps an asset id to its scaled training returns. An asset's
    windows start on days 0, stride, 2*stride, ... while start + window <
    len(series[asset]); they are numbered asset by asset, in series order,
    then by start. A window's inputs are series[asset][start : start +
    window] and its targets the same slice one day later.
    """

    series: dict[str, np.ndarray]
    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise DomainError(f"window and stride must be positive: {self.window}, {self.stride}")
        for asset, values in self.series.items():
            if not np.all(np.isfinite(values)):
                raise DomainError(f"{asset}: scaled training series has a non-finite value")

    def __len__(self) -> int:
        return sum(len(range(0, len(v) - self.window, self.stride)) for v in self.series.values())

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The series laid end to end as (days, group, start): window w is
        days[start[w] : start[w] + window], its targets one day later, and
        group[w] numbers its asset in series order."""
        lengths = [len(v) for v in self.series.values()]
        offsets = np.cumsum([0, *lengths])
        starts = [np.arange(o, o + n - self.window, self.stride) for o, n in zip(offsets, lengths)]
        group = np.repeat(np.arange(len(starts), dtype=np.intp), [s.size for s in starts])
        return np.concatenate([*self.series.values()]), group, np.concatenate(starts)

    def _slices(self, shift: int) -> np.ndarray:
        days, _, start = self.layout()
        if not start.size:  # sliding_window_view rejects fewer days than a window
            return np.empty((0, self.window))
        return np.lib.stride_tricks.sliding_window_view(days, self.window)[start + shift]

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


def write_output(path: Path, what: str, text: str) -> None:
    """Write `text` to an output file whole, in UTF-8: into a hidden
    `.NAME.tmp` beside it, then renamed into place, so a stopped run never
    leaves part of a file under its name. Anything but a regular file at
    `path` (a directory, a symlink) and any failure to write (text UTF-8
    cannot encode, a name the OS rejects, a full disk) is a DomainError
    naming the file."""
    path = Path(path)
    try:
        if os.path.lexists(path) and not stat.S_ISREG(path.lstat().st_mode):
            raise DomainError(f"{path}: cannot write {what}: not a regular file")
        temp = path.with_name(f".{path.name}.tmp")
        try:
            temp.write_bytes(text.encode("utf-8"))
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except (OSError, ValueError) as exc:
        raise DomainError(f"{path}: cannot write {what}: {exc}") from None


def make_output_dir(path: Path) -> None:
    """Create an output directory and its parents. A name the OS rejects
    (too long, a NUL byte) or a file in the way is a DomainError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot create output directory {path}: {exc}") from None


def finite_floats(texts: list[str]) -> np.ndarray:
    """The one rule for numeric input fields: finite decimals. numpy reads each
    str with Python's float, so the text taken, the bits and the errors are its."""
    values = np.array(texts, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"expected a finite number, got {texts[finite.argmin()]!r}")
    return values


def iso_dates(texts: list[str]) -> list[dt.date]:
    """The rule for date fields: ISO-8601, with surrounding whitespace ignored."""
    return list(map(dt.date.fromisoformat, map(str.strip, texts)))


def read_csv(path: Path, what: str, columns: dict[str, Callable[[list], Any]]) -> list:
    """Read a CSV input's `columns`, each parsed in one call by its column's rule.

    Returns one parsed column per name, in row order. Header names match
    case-insensitively and extra columns are ignored. Rows whose fields are
    all blank are skipped. A missing column, a short row or a field its
    column's rule rejects (ValueError) is a ParseError naming the file. Its
    line is that of the first row, in file order, that is short or has a
    rejected field, and within a row the columns are checked in order.
    """
    with open_input(path, what) as fh:
        reader = csv.reader(fh)
        header = [name.strip().lower() for name in next(reader, ())]
        missing = [name for name in columns if name not in header]
        if missing:
            raise ParseError(f"{path}: header lacks {', '.join(missing)}", 1)
        rules = [(header.index(name), parse) for name, parse in columns.items()]
        rows, lines = [], []
        for row in reader:
            if "".join(row).strip():
                rows.append(row)
                lines.append(reader.line_num)
    try:
        return [parse([row[i] for row in rows]) for i, parse in rules]
    except (IndexError, ValueError):
        pass
    # the error path: find the first row that is short or has a rejected field
    width = max(i for i, _ in rules) + 1
    for row, line in zip(rows, lines):
        if len(row) < width:
            raise ParseError(f"{path}: expected at least {width} columns", line)
        try:
            for i, parse in rules:
                parse([row[i]])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line) from None
    raise AssertionError("a column rule rejected a column but none of its fields")


def load_prices(path: str | Path) -> PriceSeries:
    """Read one asset's price CSV and return it sorted by date.

    The asset id is the file's stem. The header must contain `date` and
    `close` columns. Malformed rows raise ParseError with the line number;
    non-positive prices and duplicate dates are rejected.
    """
    path = Path(path)
    dates, closes = read_csv(path, "price file", {"date": iso_dates, "close": finite_floats})
    ordinals = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    order = np.argsort(ordinals, kind="stable")
    repeated = np.flatnonzero(np.diff(ordinals[order]) == 0)
    if repeated.size:
        raise ParseError(f"{path}: duplicate date {dates[order[repeated[0]]]}")
    return PriceSeries(
        asset_id=path.stem,
        dates=tuple(map(dates.__getitem__, order.tolist())),
        closes=closes[order],
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
    """Daily log returns ln(close[t+1]/close[t])."""
    return ReturnSeries(asset_id=prices.asset_id, returns=np.diff(np.log(prices.closes)))


def prices_from_returns(returns: np.ndarray) -> np.ndarray:
    """Cumulative exponentiation from 100: the price path whose log returns are `returns`."""
    return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))


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
    train = series.train
    if len(train) < window + 1:
        raise InsufficientDataError(
            f"{series.asset_id}: training segment has {len(train)} returns, "
            f"need >= {window + 1} for windowing"
        )
    return WindowSet({series.asset_id: apply_scaler(train, scaler)}, window, stride)


def pool_windows(window_sets: list[WindowSet]) -> WindowSet:
    """Merge window sets from several assets into one training pool."""
    if not window_sets:
        raise InsufficientDataError("no window sets to pool")
    shapes = {(ws.window, ws.stride) for ws in window_sets}
    if len(shapes) != 1:
        raise DomainError(f"cannot pool windows of different (window, stride): {sorted(shapes)}")
    series: dict[str, np.ndarray] = {}
    for ws in window_sets:
        for asset, values in ws.series.items():
            if asset in series:
                raise DomainError(f"asset id {asset!r} appears in more than one window set")
            series[asset] = values
    return WindowSet(series, *shapes.pop())
