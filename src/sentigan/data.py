"""Market data ingestion, repair, sentiment alignment, windowing and splits.

All partitioning is chronological; nothing here ever shuffles. Scaling is
deliberately not done in this module so that scaler parameters can only be
fitted on an explicit train partition by the model code.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import date as Date
from pathlib import Path

import numpy as np

from .errors import DataError

OHLCV_HEADER = ["date", "open", "high", "low", "close", "adj_close", "volume"]
FEATURE_COLUMNS = ["open", "high", "low", "close", "adj_close", "volume"]
CLOSE_COLUMN = 3

SPLIT_POLICIES = ("fraction_90_10", "fraction_70_30", "holdout_last_20")
HOLDOUT_SIZE = 20


@dataclass
class Bar:
    date: Date
    open: float | None
    high: float | None
    low: float | None
    close: float | None
    adj_close: float | None
    volume: float | None

    def values(self):
        return [self.open, self.high, self.low, self.close, self.adj_close, self.volume]


@dataclass
class Series:
    symbol: str
    bars: list[Bar] = field(default_factory=list)

    @property
    def dates(self):
        return [b.date for b in self.bars]


@dataclass
class LoadReport:
    rows: int = 0
    duplicates_removed: int = 0


@dataclass
class AlignedDataset:
    symbol: str
    dates: list[Date]
    features: np.ndarray  # (T, 6), column order = FEATURE_COLUMNS
    sentiment: np.ndarray  # (T,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.sentiment = np.asarray(self.sentiment, dtype=float)
        t = len(self.dates)
        if self.features.shape != (t, 6) or self.sentiment.shape != (t,):
            raise DataError(
                f"aligned dataset shape mismatch: {t} dates, "
                f"features {self.features.shape}, sentiment {self.sentiment.shape}"
            )

    def to_dict(self):
        return {
            "symbol": self.symbol,
            "dates": [d.isoformat() for d in self.dates],
            "features": self.features.tolist(),
            "sentiment": self.sentiment.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            symbol=d["symbol"],
            dates=[Date.fromisoformat(s) for s in d["dates"]],
            features=np.asarray(d["features"], dtype=float),
            sentiment=np.asarray(d["sentiment"], dtype=float),
        )


@dataclass
class WindowSample:
    history: np.ndarray  # (L, 6)
    sentiment: float  # compound at the last history day
    target: np.ndarray  # (6,) next-day observation
    target_date: Date


def _parse_field(value, name, line_no):
    value = value.strip()
    if value == "" or value.lower() in ("nan", "null", "na"):
        return None
    try:
        parsed = float(value)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {name}={value!r}") from None
    if not math.isfinite(parsed):
        raise DataError(f"line {line_no}: {name}={value!r} is not finite")
    return parsed


def _validate_bar(bar: Bar, line_no):
    v = {name: val for name, val in zip(FEATURE_COLUMNS, bar.values()) if val is not None}
    for name in ("open", "high", "low", "close", "adj_close"):
        if name in v and v[name] <= 0:
            raise DataError(f"line {line_no} ({bar.date}): {name} must be > 0, got {v[name]}")
    if "volume" in v and v["volume"] < 0:
        raise DataError(f"line {line_no} ({bar.date}): volume must be >= 0")
    if "high" in v and "low" in v and v["low"] > v["high"]:
        raise DataError(f"line {line_no} ({bar.date}): high < low")
    for name in ("open", "close"):
        if name in v:
            if "low" in v and v[name] < v["low"]:
                raise DataError(f"line {line_no} ({bar.date}): {name} below low")
            if "high" in v and v[name] > v["high"]:
                raise DataError(f"line {line_no} ({bar.date}): {name} above high")


def load_ohlcv(source, symbol: str = "") -> tuple[Series, LoadReport]:
    """Parse and validate an OHLCV CSV stream; rows are sorted by date and
    duplicate dates deduplicated keeping the first occurrence."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty OHLCV stream") from None
    if [h.strip().lower() for h in header] != OHLCV_HEADER:
        raise DataError(f"bad OHLCV header: expected {OHLCV_HEADER}, got {header}")
    bars = []
    report = LoadReport()
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 7:
            raise DataError(f"line {line_no}: expected 7 columns, got {len(row)}")
        try:
            day = Date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"line {line_no}: bad date {row[0]!r}") from None
        vals = [_parse_field(row[i + 1], FEATURE_COLUMNS[i], line_no) for i in range(6)]
        bar = Bar(day, *vals)
        _validate_bar(bar, line_no)
        bars.append(bar)
        report.rows += 1
    bars.sort(key=lambda b: b.date)
    deduped = []
    seen = set()
    for bar in bars:
        if bar.date in seen:
            report.duplicates_removed += 1
            continue
        seen.add(bar.date)
        deduped.append(bar)
    return Series(symbol=symbol, bars=deduped), report


def serialize_ohlcv(series: Series) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(OHLCV_HEADER)
    for bar in series.bars:
        writer.writerow(
            [bar.date.isoformat()]
            + ["" if v is None else repr(float(v)) for v in bar.values()[:5]]
            + ["" if bar.volume is None else repr(float(bar.volume))]
        )
    return buf.getvalue()


def repair_missing(series: Series) -> tuple[Series, list[dict]]:
    """Forward-fill missing price fields from the prior trading day; missing
    volume becomes 0; leading rows with unfillable fields are dropped.

    Returns the repaired series and a log of {date, field, action} entries."""
    for col, name in enumerate(FEATURE_COLUMNS):
        if series.bars and all(b.values()[col] is None for b in series.bars):
            raise DataError(f"column {name} is entirely missing")
    log = []
    repaired = []
    prev: Bar | None = None
    for bar in series.bars:
        vals = bar.values()
        new_vals = list(vals)
        drop = False
        for col, name in enumerate(FEATURE_COLUMNS):
            if new_vals[col] is not None:
                continue
            if name == "volume":
                new_vals[col] = 0.0
                log.append({"date": bar.date.isoformat(), "field": name, "action": "zero_fill"})
            elif prev is not None:
                new_vals[col] = prev.values()[col]
                log.append(
                    {"date": bar.date.isoformat(), "field": name, "action": "forward_fill"}
                )
            else:
                log.append(
                    {"date": bar.date.isoformat(), "field": name, "action": "drop_leading_row"}
                )
                drop = True
        if drop:
            continue
        new_bar = Bar(bar.date, *new_vals)
        repaired.append(new_bar)
        prev = new_bar
    return Series(symbol=series.symbol, bars=repaired), log


def align(series: Series, daily) -> tuple[AlignedDataset, int]:
    """Join daily sentiment onto the series' trading days; days without a
    sentiment entry get 0. Returns the dataset and the count of sentiment
    entries dated outside the bar range (ignored)."""
    by_date = {d.date: d.compound for d in daily}
    bar_dates = set(series.dates)
    ignored = sum(1 for d in daily if d.date not in bar_dates)
    sentiment = np.array([by_date.get(d, 0.0) for d in series.dates])
    features = np.array([[float(v) for v in b.values()] for b in series.bars])
    return AlignedDataset(series.symbol, list(series.dates), features, sentiment), ignored


def make_windows(aligned: AlignedDataset, window_length: int) -> list[WindowSample]:
    """Stride-1 sliding windows: sample i = rows [i, i+L) with target row i+L."""
    t = len(aligned.dates)
    if t < window_length + 1:
        raise DataError(
            f"need at least {window_length + 1} rows for window length "
            f"{window_length}, got {t}"
        )
    samples = []
    for i in range(t - window_length):
        end = i + window_length
        samples.append(
            WindowSample(
                history=aligned.features[i:end].copy(),
                sentiment=float(aligned.sentiment[end - 1]),
                target=aligned.features[end].copy(),
                target_date=aligned.dates[end],
            )
        )
    return samples


def split_boundary(total: int, policy: str) -> int:
    if policy == "fraction_90_10":
        boundary = int(np.floor(0.9 * total))
    elif policy == "fraction_70_30":
        boundary = int(np.floor(0.7 * total))
    elif policy == "holdout_last_20":
        boundary = total - HOLDOUT_SIZE
    else:
        raise DataError(f"unknown split policy {policy!r}")
    if boundary <= 0 or boundary >= total:
        raise DataError(f"split {policy} on {total} items leaves an empty partition")
    return boundary


def split(items, policy: str):
    """Chronological train/test split; items must already be sorted in time."""
    boundary = split_boundary(len(items), policy)
    return items[:boundary], items[boundary:]


def save_aligned(aligned: AlignedDataset, path):
    Path(path).write_text(json.dumps(aligned.to_dict(), sort_keys=True))


def load_aligned(path) -> AlignedDataset:
    return AlignedDataset.from_dict(json.loads(Path(path).read_text()))
