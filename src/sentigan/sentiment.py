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

import numpy as np

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

URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)
HANDLE_RE = re.compile(r"@\w+")
CASHTAG_RE = re.compile(r"\$[A-Za-z]+\b")


def load_lexicon(source, name="lexicon source") -> dict:
    """Parse a tab-separated lexicon stream: "token\\tvalence[\\textras]",
    into a dict of lowercase token -> valence.

    Duplicate tokens: last entry wins. Malformed lines are skipped. An empty
    or token-free stream is an error naming `name`."""
    lexicon = {}
    for line in source:
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 2:
            continue
        token = parts[0].strip().lower()
        try:
            valence = float(parts[1])
        except ValueError:
            continue
        if token and math.isfinite(valence):
            lexicon[token] = valence
    if not lexicon:
        raise DataError(f"{name} contains no parseable lexicon entries")
    return lexicon


def clean_text(raw: str) -> list[str]:
    """Strip URLs, @handles and $cashtags; split trailing emphasis punctuation
    into its own token; drop other punctuation. Case is preserved."""
    # each pattern needs its literal trigger, so a text without one skips it;
    # a URL's trigger may be in any letter case
    lowered = raw.lower()
    text = URL_RE.sub(" ", raw) if "http" in lowered or "www." in lowered else raw
    if "@" in text:
        text = HANDLE_RE.sub(" ", text)
    if "$" in text:
        text = CASHTAG_RE.sub(" ", text)
    tokens = []
    for tok in text.split():
        core = tok.strip(string.punctuation)
        if core:
            tokens.append(core)
        if "!" in tok or "?" in tok:
            tokens.append("".join(ch for ch in tok if ch in "!?"))
    return tokens


def normalize_valence_sum(total: float) -> float:
    # total / sqrt(total^2 + alpha), written as sign / sqrt(1 + alpha / total^2)
    # so that every rounded step is monotone in |total|: the direct ratio of two
    # growing roundings can step down by an ulp (49.99999999999999 -> 50.0).
    square = total * total
    if square == 0.0:
        return 0.0
    compound = 1.0 / math.sqrt(1.0 + NORMALIZATION_ALPHA / square)
    return compound if total > 0 else -compound


def score_text(lexicon: dict, raw: str) -> float:
    """Compound sentiment of one text in [-1, 1]; unknown tokens contribute 0."""
    tokens = clean_text(raw)
    # a word is a token that is not an emphasis run: a core never starts
    # with punctuation
    words = [t for t in tokens if t[0] not in "!?"]
    if not words:
        return 0.0
    lows = [w.lower() for w in words]
    caps = [w.isupper() for w in words]
    if not 0 < sum(caps) < len(words):  # ALL-CAPS stands out only among other words
        caps = [False] * len(words)
    but = lows.index("but") if "but" in lows else None
    sentiments = []
    for i, low in enumerate(lows):
        valence = lexicon.get(low)
        if valence is None or low in BOOSTERS:  # adds nothing to the sum
            continue
        if caps[i]:
            valence += CAPS_INCREMENT if valence > 0 else -CAPS_INCREMENT
        # up to three preceding context words: boosters decay with distance,
        # negations flip; context words that carry their own valence are skipped
        for j, decay in ((i - 1, 1.0), (i - 2, 0.95), (i - 3, 0.9)):
            if j < 0:
                break
            prev = lows[j]
            if prev in lexicon:
                continue
            scalar = BOOSTERS.get(prev)
            if scalar is not None:
                if valence < 0:
                    scalar = -scalar
                if caps[j]:
                    scalar += CAPS_INCREMENT if valence > 0 else -CAPS_INCREMENT
                valence += scalar * decay
            if prev in NEGATIONS or "n't" in prev:
                valence *= NEGATION_SCALAR
        # a "but" halves the words before it and weighs those after by 1.5
        if but is not None and i != but:
            valence *= 0.5 if i < but else 1.5
        sentiments.append(valence)
    total = sum(sentiments)
    if total == 0.0:
        return 0.0
    exclamations = min("".join(tokens).count("!"), MAX_EXCLAMATIONS)
    emphasis = exclamations * EXCLAMATION_INCREMENT
    total += emphasis if total > 0 else -emphasis
    return normalize_valence_sum(total)


def aggregate_daily(days, compounds, trading_days) -> tuple[np.ndarray, np.ndarray, int]:
    """Mean compound per trading day, of the texts dated `days` that scored
    `compounds`.

    Texts on non-trading days roll forward to the next trading day (their
    information is available before that day's open). Texts dated after the
    final trading day have no destination and are dropped. Returns each
    trading day's mean (0 without texts) and text count, and the dropped count."""
    trading = np.array([d.toordinal() for d in trading_days], dtype=np.int64)
    if (trading[1:] < trading[:-1]).any():
        raise DataError("trading_days must be sorted ascending")
    slots = np.searchsorted(trading, np.array([d.toordinal() for d in days], dtype=np.int64))
    kept = slots < len(trading)
    # bincount adds the weights in input order, as a running sum would
    sums = np.bincount(slots[kept], np.asarray(compounds, dtype=float)[kept], len(trading))
    counts = np.bincount(slots[kept], minlength=len(trading))
    means = np.divide(sums, counts, out=np.zeros(len(trading)), where=counts > 0)
    return means, counts, int(len(slots) - kept.sum())
