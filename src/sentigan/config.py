"""Declarative run configuration: assets, paths and model hyperparameters,
loaded from a YAML file.

Each setting has one default: the fields of `lstm.TrainSchedule` and
`gan.GanSchedule`, and `load_config` for the rest. `_RULES` is the one check
of each value a file sets, an integer or a list of widths. What no workload
varies is a constant of its module: ARIMA's order grid, the LSTM's sizes and
plateau patience, and both learning rates.

Paths in the file are resolved relative to the file's own directory, so a
config can travel with its fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .data import read_utf8
from .errors import DataError, UsageError
from .gan import GanSchedule
from .lstm import TrainSchedule


@dataclass
class AssetSpec:
    symbol: str
    ohlcv_path: Path
    tweets_path: Path | None


@dataclass
class RunConfig:
    assets: list
    seed: int
    output_dir: Path
    lexicon_path: Path | None
    window_length: int
    lstm: TrainSchedule
    gan: GanSchedule


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# the largest integer setting; larger ones overflow numpy shapes and float math
INT_MAX = 2 ** 31 - 1


def _int_from(low):
    return lambda v: _is_int(v) and low <= v <= INT_MAX, f"an integer in [{low}, {INT_MAX}]"


_WIDTHS = (lambda v: isinstance(v, (list, tuple)) and all(_is_int(w) and w >= 1 for w in v),
           "a list of integers >= 1")

# what every settable value must be: section -> key -> (test, description)
_RULES = {
    None: {"seed": _int_from(0), "window_length": _int_from(1)},
    "lstm": {"max_epochs": _int_from(0), "early_stop_patience": _int_from(1)},
    "gan": {
        "batch_size": _int_from(1),
        "epochs": _int_from(0),
        "gen_hidden": _WIDTHS,
        "disc_hidden": _WIDTHS,
    },
}


# every key a file may set at its top level
TOP_LEVEL_KEYS = {"assets", "lexicon", "output_dir", *_RULES[None], *_RULES} - {None}


def _checked(path, section, values: dict) -> dict:
    for key, value in values.items():
        test, want = _RULES[section][key]
        if not test(value):
            name = key if section is None else f"{section}.{key}"
            raise DataError(f"config {path}: {name} must be {want}, got {value!r}")
    return values


def _mapping(path, raw, key) -> dict:
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise DataError(f"config {path}: {key} must be a mapping, got {value!r}")
    return value


def _section(path, raw, section) -> dict:
    """The checked values that the file sets in one section."""
    values = _mapping(path, raw, section)
    unknown = set(values) - set(_RULES[section])
    if unknown:
        raise UsageError(f"config {path}: unknown {section} keys: {sorted(unknown, key=str)}")
    return _checked(path, section, values)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(read_utf8(path))
    except (yaml.YAMLError, RecursionError) as e:
        raise DataError(f"cannot parse config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise DataError(f"config {path} must be a mapping at top level")
    unknown = set(raw) - TOP_LEVEL_KEYS
    if unknown:
        raise UsageError(f"config {path}: unknown top-level keys: {sorted(unknown, key=str)}")

    def resolve(key, value, base=path.parent):
        # a NUL byte or a lone surrogate is a ValueError here, a non-string a TypeError
        try:
            return (base / value).resolve()
        except (TypeError, ValueError):
            raise DataError(f"config {path}: {key} must be a path, got {value!r}") from None

    def optional(key, value):
        return None if value is None else resolve(key, value)

    entries = raw.get("assets", [])
    if not isinstance(entries, list) or not entries:
        raise DataError(f"config {path}: assets must be a non-empty list, got {entries!r}")
    assets = []
    for entry in entries:
        if not isinstance(entry, dict) or "symbol" not in entry or "ohlcv" not in entry:
            raise DataError(f"config {path}: asset entries need 'symbol' and 'ohlcv' keys, "
                            f"got {entry!r}")
        unknown = set(entry) - {"symbol", "ohlcv", "tweets"}
        if unknown:
            raise UsageError(f"config {path}: unknown asset entry keys: "
                             f"{sorted(unknown, key=str)}")
        symbol = entry["symbol"]
        if not isinstance(symbol, str):
            raise DataError(f"config {path}: assets.symbol must be a string, got {symbol!r}; "
                            "quote it")
        # the symbol names the asset's output files, so it must be one plain
        # path component: anything else could write outside output_dir or,
        # unprintable (a lone surrogate), fail to encode as a file name
        if symbol in ("", ".", "..") or any(c in symbol for c in "/\\") or not symbol.isprintable():
            raise DataError(f"config {path}: assets.symbol must be a plain file name, "
                            f"got {symbol!r}")
        if any(a.symbol == symbol for a in assets):
            raise DataError(f"config {path}: assets.symbol {symbol!r} is listed twice")
        ohlcv = resolve("assets.ohlcv", entry["ohlcv"])
        if not ohlcv.exists():
            raise DataError(f"asset {symbol}: OHLCV file not found: {ohlcv}")
        assets.append(AssetSpec(symbol, ohlcv, optional("assets.tweets", entry.get("tweets"))))
    lexicon = optional("lexicon", raw.get("lexicon"))
    if lexicon is None and any(a.tweets_path is not None for a in assets):
        raise DataError(f"config {path}: lexicon must be set to score the assets' tweets")
    if lexicon is not None and not lexicon.exists():
        raise DataError(f"lexicon file not found: {lexicon}")
    seed_ok, seed_rule = _RULES[None]["seed"]
    if seed_override is not None and not seed_ok(seed_override):
        raise UsageError(f"--seed must be {seed_rule}, got {seed_override}")
    top = _checked(path, None, {k: raw[k] for k in _RULES[None] if k in raw})
    seed = seed_override if seed_override is not None else top.get("seed")
    if seed is None:
        raise UsageError("a seed is required (config key 'seed' or --seed)")
    return RunConfig(
        assets=assets,
        seed=seed,
        # data paths travel with the config file; outputs land under the
        # caller's working directory
        output_dir=resolve("output_dir", raw.get("output_dir", "out"), Path()),
        lexicon_path=lexicon,
        window_length=top.get("window_length", 20),
        lstm=TrainSchedule(**_section(path, raw, "lstm")),
        gan=GanSchedule(**_section(path, raw, "gan")),
    )
