"""Ingest against a row-wise reference: one dict of fields per OHLCV row and
a bisect loop over the tweets, as the harness computed them before it kept
ingest in arrays. On random OHLCV text and tweet dates the array code must
return the same dates, bitwise-equal values, the same repair log and the
same counts. It may differ only where it refuses a file that repair cannot
fill and names the file, which the reference did not."""

import io
import math
from bisect import bisect_left
from datetime import date, timedelta

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sentigan import data as D
from sentigan.errors import DataError
from sentigan.sentiment import aggregate_daily

PRICES = D.FEATURE_COLUMNS[:5]


# ---------------------------------------------------------------- reference


def reference_load(source, origin):
    """(date, {column: value or None}) rows sorted by date, the first of a
    repeated date kept, and the count of rows read."""
    rows = []
    for line_no, row in D.csv_rows(source, origin, D.OHLCV_HEADER):
        at = f"{origin} line {line_no}"
        if len(row) != 7:
            raise DataError(f"{at}: expected 7 columns, got {len(row)}")
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{at}: bad date {row[0]!r}") from None
        bar = {name: D._parse_field(row[i + 1], name, at)
               for i, name in enumerate(D.FEATURE_COLUMNS)}
        v = {name: val for name, val in bar.items() if val is not None}
        for name in PRICES:
            if name in v and v[name] <= 0:
                raise DataError(f"{at} ({day}): {name} must be > 0, got {v[name]}")
        if "volume" in v and v["volume"] < 0:
            raise DataError(f"{at} ({day}): volume must be >= 0")
        if "high" in v and "low" in v and v["low"] > v["high"]:
            raise DataError(f"{at} ({day}): high < low")
        for name in ("open", "close"):
            if name in v:
                if "low" in v and v[name] < v["low"]:
                    raise DataError(f"{at} ({day}): {name} below low")
                if "high" in v and v[name] > v["high"]:
                    raise DataError(f"{at} ({day}): {name} above high")
        rows.append((day, bar))
    if not rows:
        raise DataError(f"{origin}: no data rows after the header")
    count = len(rows)
    rows.sort(key=lambda r: r[0])
    seen, deduped = set(), []
    for day, bar in rows:
        if day not in seen:
            seen.add(day)
            deduped.append((day, bar))
    return deduped, count


def reference_repair(rows):
    """Row by row: a missing volume is 0, a missing price the prior kept
    row's, and a row before any kept row that lacks a price is dropped."""
    for name in D.FEATURE_COLUMNS:
        if all(bar[name] is None for _, bar in rows):
            raise DataError(f"column {name} is entirely missing")
    log, repaired, prev = [], [], None
    for day, bar in rows:
        new, drop = dict(bar), False
        for name in D.FEATURE_COLUMNS:
            if new[name] is not None:
                continue
            if name == "volume":
                new[name], action = 0.0, "zero_fill"
            elif prev is not None:
                new[name], action = prev[name], "forward_fill"
            else:
                action, drop = "drop_leading_row", True
            log.append({"date": day.isoformat(), "field": name, "action": action})
        if not drop:
            repaired.append((day, new))
            prev = new
    return repaired, log


def reference_aggregate(days, compounds, trading_days):
    sums = [0.0] * len(trading_days)
    counts = [0] * len(trading_days)
    dropped = 0
    for day, compound in zip(days, compounds):
        idx = bisect_left(trading_days, day)
        if idx >= len(trading_days):
            dropped += 1
            continue
        sums[idx] += compound
        counts[idx] += 1
    return [s / c if c else 0.0 for s, c in zip(sums, counts)], counts, dropped


def as_array(rows):
    return np.array([[math.nan if v is None else v for v in bar.values()] for _, bar in rows])


# ---------------------------------------------------------------- inputs

START = date(2024, 1, 1)


@st.composite
def ohlcv_text(draw):
    """An OHLCV file: a few rows over a short span (repeated and unsorted
    dates) of valid bars with blank fields, and now and then one bad field."""
    lines = [",".join(D.OHLCV_HEADER)]
    n = draw(st.integers(1, 12))
    bad_row = draw(st.sampled_from([None, None, None, *range(n)]))
    for row in range(n):
        day = START + timedelta(days=draw(st.integers(0, 14)))
        low = draw(st.floats(0.5, 100.0))
        high = low + draw(st.floats(0.0, 10.0))
        inside = st.floats(low, high)
        values = [draw(inside), high, low, draw(inside), draw(st.floats(0.5, 100.0)),
                  draw(st.floats(0.0, 1e6))]
        fields = [repr(v) if draw(st.integers(0, 5)) else
                  draw(st.sampled_from(["", " ", "NA", "null", "nan"])) for v in values]
        if row == bad_row:
            fields[draw(st.integers(0, 5))] = draw(st.sampled_from(
                ["-1", "0", "1e999", "inf", "x", "1000", "0.1"]))
        lines.append(",".join([day.isoformat()] + fields))
    return "\n".join(lines) + "\n"


def outcome(call):
    try:
        return call(), None
    except DataError as e:
        return None, str(e)


# ---------------------------------------------------------------- properties


@settings(max_examples=400, deadline=None)
@given(ohlcv_text())
def test_load_and_repair_match_the_row_wise_reference(text):
    origin = "AAA.csv"
    ref, ref_error = outcome(lambda: reference_load(io.StringIO(text), origin))
    got, error = outcome(lambda: D.load_ohlcv(io.StringIO(text), origin))
    if ref_error is not None:
        event("refused by both")
        assert error == ref_error
        return
    rows, count = ref
    repaired, repair_error = outcome(lambda: reference_repair(rows))
    if error is not None:
        # refused by the array code only: a file repair cannot fill, now named
        event("refused, now naming the file")
        assert error.startswith(f"{origin}: ")
        if repair_error is not None:
            assert error == f"{origin}: {repair_error}"
        else:
            assert error == f"{origin}: no row has every price field"
            assert repaired[0] == []
        return
    event("repaired" + (", with gaps" if repaired[1] else ""))
    dates, values, got_count = got
    assert got_count == count
    assert dates == [day for day, _ in rows]
    assert values.tobytes() == as_array(rows).tobytes()
    kept, fixed, log = D.repair_missing(dates, values)
    ref_rows, ref_log = repaired
    assert log == ref_log
    assert kept == [day for day, _ in ref_rows]
    assert fixed.tobytes() == as_array(ref_rows).tobytes()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True),
       st.lists(st.tuples(st.integers(-3, 40), st.floats(-1.0, 1.0)), max_size=60))
def test_aggregate_daily_matches_the_bisect_loop(offsets, tweets):
    trading_days = [START + timedelta(days=o) for o in sorted(offsets)]
    days = [START + timedelta(days=o) for o, _ in tweets]
    compounds = [c for _, c in tweets]
    means, counts, dropped = aggregate_daily(days, compounds, trading_days)
    ref_means, ref_counts, ref_dropped = reference_aggregate(days, compounds, trading_days)
    assert means.tobytes() == np.array(ref_means).tobytes()
    assert counts.tolist() == ref_counts
    assert dropped == ref_dropped
