"""Input generation for the benchmark workloads.

Each workload is a directory holding the files the program reads: OHLCV
CSVs, tweet CSVs, a lexicon and a run config. Generated price paths reuse
the recipes of scripts/make_fixture.py (imported, never modified) and tweet
texts are drawn from the 50 sentences of tests/fixtures/sentiment_golden.json.
Everything is a function of (workload, seed): the same seed writes the same
bytes.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import shutil
from datetime import timedelta
from pathlib import Path

import numpy as np

WORKLOADS = ("fleet", "long_history")

FLEET_SYMBOLS = ("ALPHA", "BRAVO", "CHARLIE", "DELTA", "ECHO", "FOXTROT", "GOLF")

# The committed fixture's hyperparameters, pinned here so that a change to
# the fixture config does not silently change what the benchmark measures.
FLEET_SETTINGS = [
    "window_length: 20",
    "lstm:",
    "  max_epochs: 60",
    "gan:",
    "  epochs: 80",
    "  batch_size: 5",
    "  gen_hidden: [64, 32]",
    "  disc_hidden: [32, 16]",
]

# Three assets of clearly different lengths, so that batching across assets
# meets ragged members. The recipe kinds stay positive at these lengths and
# have additive noise, so mean RMSE does not drift with the price level.
LONG_ASSETS = (("LONGA", 750, "walk"), ("LONGB", 1250, "meanrev"),
               ("LONGC", 1750, "trend"))
LONG_TWEETS_PER_DAY = (15, 26)  # uniform integer range, about 20 a day
# The fixture's max_epochs. Early stopping would make the LSTM's share of
# the work depend on the seed (16.5 to 22.7 s over five seeds), so patience
# covers every epoch and each seed trains the same number of epochs. The GAN
# keeps its default widths and runs few epochs of large batches.
LONG_SETTINGS = [
    "window_length: 20",
    "lstm:",
    "  max_epochs: 60",
    "  early_stop_patience: 60",
    "gan:",
    "  epochs: 10",
    "  batch_size: 64",
]

def load_fixture_recipes(root: Path):
    """scripts/make_fixture.py as a module, for close_path, write_ohlcv and
    trading_days."""
    path = root / "scripts" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("bench_make_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden_texts(root: Path) -> list[str]:
    entries = json.loads((root / "tests" / "fixtures" / "sentiment_golden.json").read_text())
    return [e["text"] for e in entries]


def _write_config(dest: Path, assets, settings):
    lines = ["seed: 7", "output_dir: out", "lexicon: sample_lexicon.txt", "assets:"]
    for symbol, tweets in assets:
        entry = f"  - {{symbol: {symbol}, ohlcv: {symbol}.csv"
        entry += f", tweets: {symbol}_tweets.csv}}" if tweets else "}"
        lines.append(entry)
    (dest / "config.yaml").write_text("\n".join(lines + settings) + "\n")


def _write_tweets(path: Path, days, texts, rng, per_day):
    """per_day[0]..per_day[1]-1 posts on every trading day at random hours,
    plus posts on the weekend after each Friday, which the program rolls
    forward onto the next session."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "text"])
        for d in days:
            for hour in sorted(rng.integers(0, 24, size=int(rng.integers(*per_day)))):
                writer.writerow([f"{d.isoformat()}T{hour:02d}:00:00",
                                 texts[rng.integers(len(texts))]])
            if d.weekday() == 4:
                for offset in (1, 2):
                    writer.writerow([f"{(d + timedelta(days=offset)).isoformat()}T12:00:00",
                                     texts[rng.integers(len(texts))]])


def _fleet(root: Path, dest: Path, seed: int):
    # The committed fixture itself: the seed does not change it.
    fixtures = root / "tests" / "fixtures"
    for symbol in FLEET_SYMBOLS:
        shutil.copyfile(fixtures / "fleet" / f"{symbol}.csv", dest / f"{symbol}.csv")
        tweets = fixtures / "fleet" / f"{symbol}_tweets.csv"
        if tweets.exists():
            shutil.copyfile(tweets, dest / tweets.name)
    _write_config(dest, [(s, (dest / f"{s}_tweets.csv").exists()) for s in FLEET_SYMBOLS],
                  FLEET_SETTINGS)


def _long_history(root: Path, dest: Path, seed: int):
    recipes = load_fixture_recipes(root)
    texts = _golden_texts(root)
    for i, (symbol, n_days, kind) in enumerate(LONG_ASSETS):
        rng = np.random.default_rng([seed, 1, i])
        days = recipes.trading_days(n_days)
        recipes.write_ohlcv(dest / f"{symbol}.csv", days, recipes.close_path(kind, rng, n_days),
                            rng)
        _write_tweets(dest / f"{symbol}_tweets.csv", days, texts, rng, LONG_TWEETS_PER_DAY)
    _write_config(dest, [(s, True) for s, _, _ in LONG_ASSETS], LONG_SETTINGS)


_GENERATORS = {"fleet": _fleet, "long_history": _long_history}


def generate(workload: str, seed: int, root: Path, dest: Path) -> Path:
    """Write the workload's inputs into an empty `dest`; returns the config path."""
    dest.mkdir(parents=True)
    _GENERATORS[workload](root, dest, seed)
    shutil.copyfile(root / "tests" / "fixtures" / "sample_lexicon.txt",
                    dest / "sample_lexicon.txt")
    return dest / "config.yaml"
