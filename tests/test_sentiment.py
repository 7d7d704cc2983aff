import io
import json
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentigan.errors import DataError
from sentigan.sentiment import (
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
        return load_lexicon(f)


# ---------------------------------------------------------------- lexicon


def test_load_lexicon_known_entry(lexicon):
    assert lexicon["good"] == 1.9


def test_load_lexicon_duplicate_last_wins():
    lex = load_lexicon(io.StringIO("good\t1.0\ngood\t2.0\n"))
    assert lex == {"good": 2.0}


def test_load_lexicon_malformed_skipped():
    lex = load_lexicon(
        io.StringIO("good\t1.9\nnonsense line\nbad\tnotanumber\nhuge\t1e400\n"))
    assert lex == {"good": 1.9}


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


@pytest.mark.parametrize("text", ["GOOD https://t.co/x", "GOOD HTTPS://t.co/x",
                                  "GOOD Https://t.co/x", "GOOD WWW.example.com"])
def test_url_is_stripped_whatever_its_case(lexicon, text):
    # a link left in as a word would make GOOD an ALL-CAPS word among mixed
    # case ones, and boost it
    assert clean_text(text) == ["GOOD"]
    assert score_text(lexicon, text) == pytest.approx(0.4404, abs=1e-4)


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
    v = lexicon["good"]
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
    means, counts, dropped = aggregate_daily(
        [D("2024-01-02"), D("2024-01-02")], [0.4, -0.2], [D("2024-01-02")])
    assert means.tolist() == [pytest.approx(0.1)]
    assert counts.tolist() == [2]
    assert dropped == 0


def test_empty_day_neutral_fill():
    days = [D("2024-01-02"), D("2024-01-03"), D("2024-01-04")]
    means, counts, _ = aggregate_daily([D("2024-01-03")], [0.5], days)
    assert means.tolist() == [0.0, 0.5, 0.0]
    assert counts.tolist() == [0, 1, 0]
    means, counts, _ = aggregate_daily([], [], days)
    assert means.tolist() == [0.0, 0.0, 0.0] and counts.tolist() == [0, 0, 0]


def test_weekend_rolls_forward_to_next_trading_day():
    days = [D("2024-01-05"), D("2024-01-08")]  # Fri, Mon
    means, counts, _ = aggregate_daily([D("2024-01-06")], [0.8], days)  # Sat
    assert counts.tolist() == [0, 1]
    assert means[1] == pytest.approx(0.8)


def test_record_after_last_day_dropped_and_counted():
    means, counts, dropped = aggregate_daily([D("2024-02-01")], [0.5], [D("2024-01-05")])
    assert dropped == 1
    assert counts.tolist() == [0] and means.tolist() == [0.0]


def test_unsorted_trading_days_are_refused():
    with pytest.raises(DataError, match="sorted"):
        aggregate_daily([], [], [D("2024-01-03"), D("2024-01-02")])


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.floats(min_value=-1, max_value=1, allow_nan=False),
        ),
        max_size=50,
    )
)
def test_aggregation_conserves_record_count(entries):
    days = [date(2024, 1, d) for d in range(1, 32)]
    stamps = [date.fromordinal(days[0].toordinal() + off) for off, _ in entries]
    means, counts, dropped = aggregate_daily(stamps, [c for _, c in entries], days)
    assert counts.sum() + dropped == len(entries)
    assert dropped == sum(off > 30 for off, _ in entries)
    assert np.all(np.abs(means) <= 1.0)
