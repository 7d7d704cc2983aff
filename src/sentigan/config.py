"""Declarative run configuration: assets, paths, split policies and model
hyperparameters, loaded from a YAML file with study defaults pre-filled.

Paths in the file are resolved relative to the file's own directory, so a
config can travel with its fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .data import SPLIT_POLICIES, read_utf8
from .errors import DataError, UsageError

DEFAULT_SPLITS = {
    "arima": "fraction_90_10",
    "lstm": "fraction_70_30",
    "gan": "holdout_last_20",
}

DEFAULT_ARIMA = {"p_max": 3, "q_max": 3}

DEFAULT_LSTM = {
    "hidden_size": 32,
    "learning_rate": 0.001,
    "batch_size": 32,
    "max_epochs": 200,
    "early_stop_patience": 10,
    "plateau_factor": 0.5,
    "plateau_patience": 5,
    "validation_fraction": 0.15,
}

DEFAULT_GAN = {
    "learning_rate": 0.0002,
    "batch_size": 5,
    "epochs": 300,
    "gen_hidden": [128, 64],
    "disc_hidden": [64, 32],
}


@dataclass
class AssetSpec:
    symbol: str
    ohlcv_path: Path
    tweets_path: Path | None = None


@dataclass
class RunConfig:
    assets: list
    seed: int
    output_dir: Path
    lexicon_path: Path | None = None
    window_length: int = 20
    split_policies: dict = field(default_factory=lambda: dict(DEFAULT_SPLITS))
    arima: dict = field(default_factory=lambda: dict(DEFAULT_ARIMA))
    lstm: dict = field(default_factory=lambda: dict(DEFAULT_LSTM))
    gan: dict = field(default_factory=lambda: dict(DEFAULT_GAN))

    def __post_init__(self):
        if not self.assets:
            raise UsageError("config lists no assets")
        if self.seed is None:
            raise UsageError("a seed is required (config key 'seed' or --seed)")
        if self.window_length < 1:
            raise UsageError(f"window_length must be >= 1, got {self.window_length}")
        for model, policy in self.split_policies.items():
            if model not in DEFAULT_SPLITS:
                raise UsageError(f"split policy for unknown model {model!r}")
            if policy not in SPLIT_POLICIES:
                raise UsageError(f"unknown split policy {policy!r} for {model}")
        symbols = [a.symbol for a in self.assets]
        if len(set(symbols)) != len(symbols):
            raise UsageError("duplicate asset symbols in config")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number that converts to a finite float; an int past the float range
    does not."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


# the largest integer setting; larger ones overflow numpy shapes and float math
INT_MAX = 2 ** 31 - 1


def _int_from(low):
    return lambda v: _is_int(v) and low <= v <= INT_MAX, f"an integer in [{low}, {INT_MAX}]"


_RATE = (lambda v: _is_finite(v) and v > 0, "a finite number > 0")
_WIDTHS = (lambda v: isinstance(v, list) and all(_is_int(w) and w >= 1 for w in v),
           "a list of integers >= 1")

# what every settable value must be: section -> key -> (test, description)
_RULES = {
    None: {"seed": _int_from(0), "window_length": _int_from(1)},
    "arima": {"p_max": _int_from(0), "q_max": _int_from(0)},
    "lstm": {
        "hidden_size": _int_from(1),
        "learning_rate": _RATE,
        "batch_size": _int_from(1),
        "max_epochs": _int_from(0),
        "early_stop_patience": _int_from(1),
        "plateau_factor": (lambda v: _is_finite(v) and 0 < v < 1, "a number in (0, 1)"),
        "plateau_patience": _int_from(1),
        "validation_fraction": (lambda v: _is_finite(v) and 0 <= v < 1,
                                "a number in [0, 1)"),
    },
    "gan": {
        "learning_rate": _RATE,
        "batch_size": _int_from(1),
        "epochs": _int_from(0),
        "gen_hidden": _WIDTHS,
        "disc_hidden": _WIDTHS,
    },
}


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


def _merged(path, raw, section, defaults: dict) -> dict:
    overrides = _mapping(path, raw, section)
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise UsageError(f"unknown hyperparameter keys: {sorted(unknown)}")
    return _checked(path, section, {**defaults, **overrides})


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(read_utf8(path))
    except yaml.YAMLError as e:
        raise DataError(f"cannot parse config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise DataError(f"config {path} must be a mapping at top level")
    base = path.parent

    def resolve(p):
        return (base / p).resolve() if p is not None else None

    def path_or_none(key, value):
        if value is not None and not isinstance(value, str):
            raise DataError(f"config {path}: {key} must be a path, got {value!r}")
        return value

    entries = raw.get("assets", [])
    if not isinstance(entries, list):
        raise DataError(f"config {path}: assets must be a list, got {entries!r}")
    assets = []
    for entry in entries:
        if not isinstance(entry, dict) or "symbol" not in entry or "ohlcv" not in entry:
            raise DataError(f"asset entries need 'symbol' and 'ohlcv' keys, got {entry!r}")
        symbol = str(entry["symbol"])
        # the symbol names the asset's output files, so it must be one plain
        # path component: anything else could write outside output_dir
        if symbol in ("", ".", "..") or any(c in symbol for c in "/\\\0"):
            raise DataError(f"config {path}: assets.symbol must be a plain file name, "
                            f"got {symbol!r}")
        ohlcv = resolve(path_or_none("assets.ohlcv", entry["ohlcv"]))
        if not ohlcv.exists():
            raise DataError(f"asset {symbol}: OHLCV file not found: {ohlcv}")
        assets.append(
            AssetSpec(
                symbol=symbol,
                ohlcv_path=ohlcv,
                tweets_path=resolve(path_or_none("assets.tweets", entry.get("tweets"))),
            )
        )
    lexicon = resolve(path_or_none("lexicon", raw.get("lexicon")))
    if lexicon is not None and not lexicon.exists():
        raise DataError(f"lexicon file not found: {lexicon}")
    if seed_override is not None and seed_override < 0:
        raise UsageError(f"--seed must be >= 0, got {seed_override}")
    top = _checked(path, None, {k: raw[k] for k in _RULES[None] if k in raw})
    return RunConfig(
        assets=assets,
        seed=seed_override if seed_override is not None else top.get("seed"),
        # data paths travel with the config file; outputs land under the
        # caller's working directory
        output_dir=Path(path_or_none("output_dir", raw.get("output_dir", "out"))).resolve(),
        lexicon_path=lexicon,
        window_length=top.get("window_length", 20),
        split_policies={**DEFAULT_SPLITS, **_mapping(path, raw, "split_policies")},
        arima=_merged(path, raw, "arima", DEFAULT_ARIMA),
        lstm=_merged(path, raw, "lstm", DEFAULT_LSTM),
        gan=_merged(path, raw, "gan", DEFAULT_GAN),
    )
