import io
import json
from datetime import date, datetime
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentigan.errors import DataError
from sentigan.sentiment import (
    DailySentiment,
    SentimentRecord,
    aggregate_daily,
    clean_text,
    load_lexicon,
    normalize_valence_sum,
    score_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def lexicon():
    with open(FIXTURES / "sample_lexicon.txt") as f:
        lex, _ = load_lexicon(f)
    return lex


# ---------------------------------------------------------------- lexicon


def test_load_lexicon_known_entry(lexicon):
    assert lexicon.entries["good"] == 1.9


def test_load_lexicon_duplicate_last_wins():
    lex, report = load_lexicon(io.StringIO("good\t1.0\ngood\t2.0\n"))
    assert lex.entries["good"] == 2.0
    assert report.duplicates == 1


def test_load_lexicon_malformed_counted():
    lex, report = load_lexicon(
        io.StringIO("good\t1.9\nnonsense line\nbad\tnotanumber\nhuge\t1e400\n"))
    assert report.malformed == 3
    assert report.parsed == 1
    assert "huge" not in lex.entries


def test_load_lexicon_empty_errors():
    with pytest.raises(DataError):
        load_lexicon(io.StringIO(""))


# ---------------------------------------------------------------- cleaning


def test_clean_strips_url_keeps_emphasis():
    assert clean_text("AAPL to the moon!!! https://t.co/x") == [
        "AAPL",
        "to",
        "the",
        "moon",
        "!!!",
    ]


def test_clean_strips_handle_and_cashtag():
    assert clean_text("@user $TSLA GREAT day") == ["GREAT", "day"]


def test_clean_empty():
    assert clean_text("") == []


def test_clean_preserves_case():
    assert clean_text("Mixed CASE words") == ["Mixed", "CASE", "words"]


# ---------------------------------------------------------------- scoring


def test_no_lexicon_hits_scores_zero(lexicon):
    assert score_text(lexicon, "completely neutral words here") == 0.0
    assert score_text(lexicon, "") == 0.0


def test_single_token_normalization(lexicon):
    v = lexicon.entries["good"]
    expected = v / (v * v + 15.0) ** 0.5
    assert score_text(lexicon, "good") == pytest.approx(expected)


def test_normalization_limit():
    assert normalize_valence_sum(1e9) == pytest.approx(1.0)
    assert normalize_valence_sum(-1e9) == pytest.approx(-1.0)


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
@example(a=49.99999999999999, b=50.0)
def test_normalization_monotone(a, b):
    if a <= b:
        assert normalize_valence_sum(a) <= normalize_valence_sum(b)


def test_compound_in_range(lexicon):
    for text in ["great great great!!!", "worst disaster horrible crash", "meh"]:
        assert -1.0 <= score_text(lexicon, text) <= 1.0


def test_negation_flips_sign(lexicon):
    assert score_text(lexicon, "terrible") < 0
    assert score_text(lexicon, "not terrible") > 0


def test_booster_amplifies(lexicon):
    assert score_text(lexicon, "really good news") > score_text(lexicon, "good news")


def test_determinism(lexicon):
    text = "really not a bad result"
    assert score_text(lexicon, text) == score_text(lexicon, text)


def test_golden_corpus_matches_reference(lexicon):
    golden = json.loads((FIXTURES / "sentiment_golden.json").read_text())
    assert len(golden) == 50
    for entry in golden:
        got = score_text(lexicon, entry["text"])
        assert got == pytest.approx(entry["compound"], abs=1e-4), entry["text"]


# ---------------------------------------------------------------- aggregation


def D(s):
    return date.fromisoformat(s)


def test_same_day_mean():
    days = [D("2024-01-02")]
    records = [
        SentimentRecord(datetime(2024, 1, 2, 9), "a", 0.4),
        SentimentRecord(datetime(2024, 1, 2, 15), "b", -0.2),
    ]
    daily, dropped = aggregate_daily(records, days)
    assert daily == [DailySentiment(D("2024-01-02"), pytest.approx(0.1), 2)]
    assert dropped == 0


def test_empty_day_neutral_fill():
    daily, _ = aggregate_daily([], [D("2024-01-02"), D("2024-01-03")])
    assert all(d.compound == 0.0 and d.sample_count == 0 for d in daily)


def test_weekend_rolls_forward_to_next_trading_day():
    days = [D("2024-01-05"), D("2024-01-08")]  # Fri, Mon
    records = [SentimentRecord(datetime(2024, 1, 6, 12), "sat post", 0.8)]
    daily, _ = aggregate_daily(records, days)
    assert daily[1].sample_count == 1
    assert daily[1].compound == pytest.approx(0.8)
    assert daily[0].sample_count == 0


def test_record_after_last_day_dropped_and_counted():
    days = [D("2024-01-05")]
    records = [SentimentRecord(datetime(2024, 2, 1), "late", 0.5)]
    daily, dropped = aggregate_daily(records, days)
    assert dropped == 1
    assert daily[0].sample_count == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=-1, max_value=1, allow_nan=False),
        ),
        max_size=50,
    )
)
def test_aggregation_conserves_record_count(entries):
    days = [date(2024, 1, d) for d in range(1, 32)]
    records = [
        SentimentRecord(datetime(2024, 1, 1 + off, 12), "t", c) for off, c in entries
    ]
    daily, dropped = aggregate_daily(records, days)
    assert sum(d.sample_count for d in daily) + dropped == len(records)
    assert dropped == 0  # all within range
