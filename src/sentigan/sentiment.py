"""Rule-based lexicon sentiment scoring and daily aggregation.

Scoring follows the classic social-media lexicon approach: token valences
from a tab-separated lexicon file, adjusted by degree modifiers, negation,
ALL-CAPS emphasis, exclamation amplification and but-clause reweighting,
then squashed to a compound score in [-1, 1].

Deliberately omitted relative to the full reference rule set: multiword
idioms, "least"/"never so" special cases, and question-mark amplification.
"""

from __future__ import annotations

import math
import re
import string
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date as Date
from datetime import datetime

from .errors import DataError

NEGATION_SCALAR = -0.74
CAPS_INCREMENT = 0.733
EXCLAMATION_INCREMENT = 0.292
MAX_EXCLAMATIONS = 3
NORMALIZATION_ALPHA = 15.0

BOOST_UP = 0.293
BOOST_DOWN = -0.293

NEGATIONS = frozenset(
    """aint arent cannot cant couldnt darent didnt doesnt ain't aren't can't
    couldn't daren't didn't doesn't dont hadnt hasnt havent isnt mightnt
    mustnt neither don't hadn't hasn't haven't isn't mightn't mustn't neednt
    needn't never none nope nor not nothing nowhere oughtnt shant shouldnt
    uhuh wasnt werent oughtn't shan't shouldn't uh-uh wasn't weren't without
    wont wouldnt won't wouldn't rarely seldom despite""".split()
)

BOOSTERS = {
    w: BOOST_UP
    for w in """absolutely amazingly awfully completely considerable considerably
    decidedly deeply enormous enormously entirely especially exceptional
    exceptionally extreme extremely fabulously fully greatly hella highly
    hugely incredible incredibly intensely major majorly more most
    particularly purely quite really remarkably so substantially thoroughly
    total totally tremendous tremendously uber unbelievably unusually utter
    utterly very""".split()
}
BOOSTERS.update(
    {
        w: BOOST_DOWN
        for w in """almost barely hardly kinda kindof less little marginal
        marginally occasional occasionally partly scarce scarcely slight
        slightly somewhat sorta sortof""".split()
    }
)

URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
HANDLE_RE = re.compile(r"@\w+")
CASHTAG_RE = re.compile(r"\$[A-Za-z]+\b")


@dataclass
class Lexicon:
    entries: dict  # lowercase token -> mean valence


@dataclass
class LexiconLoadReport:
    parsed: int = 0
    malformed: int = 0
    duplicates: int = 0


@dataclass
class SentimentRecord:
    timestamp: datetime
    raw_text: str
    compound: float = 0.0


@dataclass
class DailySentiment:
    date: Date
    compound: float
    sample_count: int


def load_lexicon(source) -> tuple[Lexicon, LexiconLoadReport]:
    """Parse a tab-separated lexicon stream: "token\\tvalence[\\textras]".

    Duplicate tokens: last entry wins. Malformed lines are skipped and
    counted. An empty or token-free stream is an error."""
    entries = {}
    report = LexiconLoadReport()
    for line in source:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            report.malformed += 1
            continue
        token = parts[0].strip().lower()
        try:
            valence = float(parts[1])
        except ValueError:
            report.malformed += 1
            continue
        if not token or not math.isfinite(valence):
            report.malformed += 1
            continue
        if token in entries:
            report.duplicates += 1
        entries[token] = valence
        report.parsed += 1
    if not entries:
        raise DataError("lexicon source contains no parseable entries")
    return Lexicon(entries=entries), report


def _is_emphasis(token: str) -> bool:
    return bool(token) and all(ch in "!?" for ch in token)


def clean_text(raw: str) -> list[str]:
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
    valence = lexicon.entries.get(item.lower())
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
        if prev.lower() in lexicon.entries:
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


def normalize_valence_sum(total: float) -> float:
    # total / sqrt(total^2 + alpha), written as sign / sqrt(1 + alpha / total^2)
    # so that every rounded step is monotone in |total|: the direct ratio of two
    # growing roundings can step down by an ulp (49.99999999999999 -> 50.0).
    square = total * total
    if square == 0.0:
        return 0.0
    compound = 1.0 / math.sqrt(1.0 + NORMALIZATION_ALPHA / square)
    return compound if total > 0 else -compound


def score_text(lexicon: Lexicon, raw: str) -> float:
    """Compound sentiment of one text in [-1, 1]; unknown tokens contribute 0."""
    tokens = clean_text(raw)
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


def aggregate_daily(records, trading_days) -> tuple[list[DailySentiment], int]:
    """Mean compound per trading day.

    Records on non-trading days roll forward to the next trading day (their
    information is available before that day's open). Records dated after the
    final trading day have no destination and are dropped; the count of
    dropped records is returned for diagnostics."""
    days = list(trading_days)
    if days != sorted(days):
        raise DataError("trading_days must be sorted ascending")
    sums = [0.0] * len(days)
    counts = [0] * len(days)
    dropped = 0
    for rec in records:
        day = rec.timestamp.date() if isinstance(rec.timestamp, datetime) else rec.timestamp
        idx = bisect_left(days, day)
        if idx >= len(days):
            dropped += 1
            continue
        sums[idx] += rec.compound
        counts[idx] += 1
    daily = [
        DailySentiment(date=d, compound=(s / c if c else 0.0), sample_count=c)
        for d, s, c in zip(days, sums, counts)
    ]
    return daily, dropped
