"""Declarative run configuration: assets, paths, split policies and model
hyperparameters, loaded from a YAML file with study defaults pre-filled.

Paths in the file are resolved relative to the file's own directory, so a
config can travel with its fixtures.
"""

from __future__ import annotations

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
    "d_steps": 1,
    "supervised_weight": 0.0,
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


def _merged(defaults: dict, overrides) -> dict:
    merged = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise UsageError(f"unknown hyperparameter keys: {sorted(unknown)}")
        merged.update(overrides)
    return merged


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

    assets = []
    for entry in raw.get("assets", []):
        if not isinstance(entry, dict) or "symbol" not in entry or "ohlcv" not in entry:
            raise DataError(f"asset entries need 'symbol' and 'ohlcv' keys, got {entry!r}")
        ohlcv = resolve(entry["ohlcv"])
        if not ohlcv.exists():
            raise DataError(f"asset {entry['symbol']}: OHLCV file not found: {ohlcv}")
        assets.append(
            AssetSpec(
                symbol=str(entry["symbol"]),
                ohlcv_path=ohlcv,
                tweets_path=resolve(entry.get("tweets")),
            )
        )
    lexicon = resolve(raw.get("lexicon"))
    if lexicon is not None and not lexicon.exists():
        raise DataError(f"lexicon file not found: {lexicon}")
    seed = seed_override if seed_override is not None else raw.get("seed")
    splits = dict(DEFAULT_SPLITS)
    splits.update(raw.get("split_policies") or {})
    return RunConfig(
        assets=assets,
        seed=seed,
        # data paths travel with the config file; outputs land under the
        # caller's working directory
        output_dir=Path(raw.get("output_dir", "out")).resolve(),
        lexicon_path=lexicon,
        window_length=int(raw.get("window_length", 20)),
        split_policies=splits,
        arima=_merged(DEFAULT_ARIMA, raw.get("arima")),
        lstm=_merged(DEFAULT_LSTM, raw.get("lstm")),
        gan=_merged(DEFAULT_GAN, raw.get("gan")),
    )
