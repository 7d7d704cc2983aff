"""Scoring against a helper-per-rule reference: the scorer as the harness
wrote it before it scored each text in one pass over its words, with one
helper for each rule. On fuzzed texts, the golden corpus and every fleet
tweet, `score_text` must return the reference's compound bit for bit (its
repr, so -0.0 against 0.0 counts) and `clean_text` its tokens.

The reference shares the module's tables, patterns and
`normalize_valence_sum`; it keeps its own copy of every function that the
one-pass scorer replaced."""

import csv
import json
import string
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentigan.sentiment import (
    BOOSTERS,
    CAPS_INCREMENT,
    CASHTAG_RE,
    EXCLAMATION_INCREMENT,
    HANDLE_RE,
    MAX_EXCLAMATIONS,
    NEGATION_SCALAR,
    NEGATIONS,
    URL_RE,
    clean_text,
    load_lexicon,
    normalize_valence_sum,
    score_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------- reference


def _is_emphasis(token: str) -> bool:
    return bool(token) and all(ch in "!?" for ch in token)


def reference_clean(raw: str) -> list[str]:
    """Strip URLs, @handles and $cashtags; split trailing emphasis punctuation
    into its own token; drop other punctuation. Case is preserved."""
    text = URL_RE.sub(" ", raw)
    text = HANDLE_RE.sub(" ", text)
    text = CASHTAG_RE.sub(" ", text)
    tokens = []
    for tok in text.split():
        core = tok.strip(string.punctuation)
        emphasis = "".join(ch for ch in tok if ch in "!?")
        if core:
            tokens.append(core)
        if emphasis:
            tokens.append(emphasis)
    return tokens


def _allcaps_differential(words) -> bool:
    upper = sum(1 for w in words if w.isupper())
    return 0 < upper < len(words)


def _negated(token: str) -> bool:
    low = token.lower()
    return low in NEGATIONS or "n't" in low


def _booster_scalar(token, valence, is_cap_diff) -> float:
    scalar = BOOSTERS.get(token.lower(), 0.0)
    if scalar == 0.0:
        return 0.0
    if valence < 0:
        scalar = -scalar
    if token.isupper() and is_cap_diff:
        scalar += CAPS_INCREMENT if valence > 0 else -CAPS_INCREMENT
    return scalar


def _token_valence(lexicon, words, i, is_cap_diff) -> float:
    item = words[i]
    valence = lexicon.get(item.lower())
    if valence is None:
        return 0.0
    if item.isupper() and is_cap_diff:
        valence += CAPS_INCREMENT if valence > 0 else -CAPS_INCREMENT
    # up to three preceding context words: boosters decay with distance,
    # negations flip; context words that carry their own valence are skipped
    for dist, decay in ((1, 1.0), (2, 0.95), (3, 0.9)):
        if i < dist:
            break
        prev = words[i - dist]
        if prev.lower() in lexicon:
            continue
        scalar = _booster_scalar(prev, valence, is_cap_diff)
        valence += scalar * decay
        if _negated(prev):
            valence *= NEGATION_SCALAR
    return valence


def _but_reweight(words, sentiments):
    lowered = [w.lower() for w in words]
    if "but" not in lowered:
        return sentiments
    bi = lowered.index("but")
    return [
        s * 0.5 if i < bi else (s * 1.5 if i > bi else s)
        for i, s in enumerate(sentiments)
    ]


def reference_score(lexicon: dict, raw: str) -> float:
    """Compound sentiment of one text in [-1, 1]; unknown tokens contribute 0."""
    tokens = reference_clean(raw)
    words = [t for t in tokens if not _is_emphasis(t)]
    if not words:
        return 0.0
    is_cap_diff = _allcaps_differential(words)
    sentiments = []
    for i, item in enumerate(words):
        if item.lower() in BOOSTERS:
            sentiments.append(0.0)
            continue
        sentiments.append(_token_valence(lexicon, words, i, is_cap_diff))
    sentiments = _but_reweight(words, sentiments)
    total = sum(sentiments)
    if total == 0.0:
        return 0.0
    exclamations = min(sum(t.count("!") for t in tokens), MAX_EXCLAMATIONS)
    emphasis = exclamations * EXCLAMATION_INCREMENT
    total += emphasis if total > 0 else -emphasis
    return normalize_valence_sum(total)


# ---------------------------------------------------------------- inputs


with open(FIXTURES / "sample_lexicon.txt", encoding="utf-8") as f:
    LEXICON = load_lexicon(f)
# words that are also a booster, a negation or "but", and zero valences:
# each takes a branch of the rules that the sample lexicon never reaches
EDGE_LEXICON = {**LEXICON, "but": 0.5, "very": 1.2, "slightly": -0.4, "not": -0.3,
                "zero": 0.0, "nil": -0.0}
LEXICONS = {"sample": LEXICON, "edge": EDGE_LEXICON}

WORDS = sorted(LEXICON) + ["zero", "nil", "stock", "the", "to", "a", "café", "straße", "1"]
BOOSTER_WORDS = sorted(BOOSTERS)
NEGATION_WORDS = sorted(NEGATIONS) + ["shouldn't've", "Isn't", "NOT", "it'sn't"]
NOISE = [
    "but", "BUT", "But",
    "http://t.co/x", "https://t.co/Ab1?q=2", "www.example.com/a!", "HTTP://T.CO/X",
    "see:https://x.io", "wwwx", "http", "@user", "@a_b1!", "@", "$TSLA", "$100", "$tsla!",
    "$", "!", "!!!", "?", "?!", "!?!?", "wo!w", "!!good!!", "bad?!", "...", ",", "-", "'",
    "--!", "#", ":)",
]


def _case(word: str, style: int) -> str:
    return (word, word.upper(), word.capitalize())[style]


fragment = st.one_of(
    st.builds(_case, st.sampled_from(WORDS + BOOSTER_WORDS + NEGATION_WORDS),
              st.integers(0, 2)),
    st.sampled_from(NOISE),
    st.text(alphabet="ab!?.,'@$:/ABw", max_size=6),
)
separator = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "", "!", "?", "."])
texts = st.lists(st.tuples(fragment, separator), max_size=24).map(
    lambda parts: "".join(f + s for f, s in parts))


def assert_matches(lexicon, text):
    assert clean_text(text) == reference_clean(text), text
    assert repr(score_text(lexicon, text)) == repr(reference_score(lexicon, text)), text


# ---------------------------------------------------------------- tests


@settings(max_examples=600, deadline=None)
@given(texts, st.sampled_from(sorted(LEXICONS)))
@example("GOOD good!!! but NOT bad wo!w?", "sample")
@example("VERY good but SLIGHTLY bad", "edge")
@example("not zero nil but never nil", "edge")
@example("HTTP://T.CO/X good https://t.co/x @user $TSLA $100", "sample")
@example("", "sample")
@example("!!! ??? ...", "sample")
def test_scores_match_the_reference_bit_for_bit(text, lexicon_name):
    assert_matches(LEXICONS[lexicon_name], text)


def test_golden_corpus_matches_the_reference():
    golden = json.loads((FIXTURES / "sentiment_golden.json").read_text(encoding="utf-8"))
    for entry in golden:
        for lexicon in LEXICONS.values():
            assert_matches(lexicon, entry["text"])


def test_fleet_tweets_match_the_reference():
    paths = sorted((FIXTURES / "fleet").glob("*_tweets.csv"))
    assert len(paths) == 6
    for path in paths:
        with open(path, encoding="utf-8", newline="") as f:
            for row in list(csv.reader(f))[1:]:
                assert_matches(LEXICON, row[1])
