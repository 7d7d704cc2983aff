"""Command-line orchestration: ingest, train, evaluate, plot, run.

Every command is driven by a YAML config (see config.py) and a seed, and all
emitted artifacts are deterministic functions of (config, seed, data). Exit
codes: 0 success, 2 data error, 64 usage error, 70 internal/training error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime
from pathlib import Path

import numpy as np

from . import arima as arima_mod
from . import gan as gan_mod
from . import lstm as lstm_mod
from .config import RunConfig, load_config
from .data import (
    AlignedDataset,
    csv_rows,
    csv_text,
    load_aligned,
    load_ohlcv,
    read_utf8,
    repair_missing,
    save_aligned,
    utf8_lines,
    write_atomic,
)
from .errors import DataError, DimensionError, SentiganError, UsageError
from .eval import MODEL_NAMES, ForecastReport, MetricSet, aggregate, evaluate, partition
from .lstm import LstmModel
from .sentiment import aggregate_daily, load_lexicon, score_text

EXIT_OK = 0
EXIT_DATA = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sentigan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("ingest", "validate, repair and align the assets and score their tweets"),
        ("train", "fit model artifacts for the configured assets"),
        ("evaluate", "produce per-asset reports and the aggregate table"),
        ("plot", "draw each asset's forecasts and actual close in one SVG"),
        ("run", "full pipeline: ingest, train, evaluate, plot"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the YAML run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--asset", default=None, help="restrict to one symbol")
        if name == "train":
            p.add_argument("--model", default="all", choices=("all", *MODEL_NAMES))
    return parser


# ---------------------------------------------------------------- helpers


def _select_assets(cfg: RunConfig, symbol):
    if symbol is None:
        return cfg.assets
    chosen = [a for a in cfg.assets if a.symbol == symbol]
    if not chosen:
        raise UsageError(f"asset {symbol!r} is not in the config")
    return chosen


def _aligned_path(cfg, symbol) -> Path:
    return cfg.output_dir / "aligned" / f"{symbol}.json"


def _artifact_path(cfg, symbol, model) -> Path:
    return cfg.output_dir / "models" / f"{symbol}_{model}.json"


def _report_path(cfg, symbol, model) -> Path:
    return cfg.output_dir / "reports" / f"{symbol}_{model}.json"


def _load_or_die(path, what, load):
    """load(path) of a JSON file; a missing file, truncated JSON, a missing
    key, a value of the wrong type (a list for an object, say), shape or name,
    a non-finite number or nesting too deep to parse is a DataError naming
    the file."""
    try:
        return load(path)
    except DataError as e:
        if str(path) not in str(e):
            e.args = (f"{path}: corrupt {what}: {e}",)
        raise
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, DimensionError,
            UsageError) as e:
        raise DataError(f"{path}: corrupt {what}: {e!r}") from e


def _load_aligned_or_die(cfg, symbol):
    path = _aligned_path(cfg, symbol)
    aligned = _load_or_die(path, "aligned dataset", load_aligned)
    if aligned.symbol != symbol:
        raise DataError(f"{path}: holds asset {aligned.symbol!r}, not {symbol!r}")
    return aligned


# ---------------------------------------------------------------- sentiment


def _read_tweets(path: Path) -> tuple[list, list[str]]:
    """The date and the text of each tweet in a tweet file."""
    days, texts = [], []
    for line_no, row in csv_rows(utf8_lines(path), path, ["timestamp", "text"]):
        if len(row) != 2:
            raise DataError(f"{path} line {line_no}: expected 2 columns, got {len(row)}")
        try:
            stamp = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{path} line {line_no}: bad timestamp {row[0]!r}") from None
        days.append(stamp.date())
        texts.append(row[1])
    return days, texts


def _daily_sentiment(lexicon, asset, dates):
    """Score the asset's tweet file with `lexicon` and aggregate it onto
    `dates`: each day's mean compound, each day's tweet count and the count
    of tweets dated after the last day. An asset without one yields zeros and
    no counts (a header-only sentiment CSV), with a warning."""
    if asset.tweets_path is None:
        print(f"warning: no tweet file for {asset.symbol}; sentiment set to 0",
              file=sys.stderr)
        return np.zeros(len(dates)), np.zeros(0, dtype=int), 0
    days, texts = _read_tweets(asset.tweets_path)
    return aggregate_daily(days, [score_text(lexicon, t) for t in texts], dates)


# ---------------------------------------------------------------- ingest


def cmd_ingest(cfg: RunConfig, asset_symbol=None) -> int:
    assets = _select_assets(cfg, asset_symbol)
    lexicon = (load_lexicon(read_utf8(cfg.lexicon_path).splitlines(), cfg.lexicon_path)
               if any(a.tweets_path is not None for a in assets) else None)
    for asset in assets:
        dates, values, rows = load_ohlcv(utf8_lines(asset.ohlcv_path), asset.ohlcv_path)
        dates, features, repair_log = repair_missing(dates, values)
        means, counts, dropped = _daily_sentiment(lexicon, asset, dates)
        save_aligned(AlignedDataset(asset.symbol, dates, features, means),
                     _aligned_path(cfg, asset.symbol))
        write_atomic(
            cfg.output_dir / "repair" / f"{asset.symbol}.jsonl",
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in repair_log),
        )
        # no counts (no tweet file): a header-only file
        write_atomic(cfg.output_dir / "sentiment" / f"{asset.symbol}.csv",
                     csv_text("date,compound,sample_count", zip(
                         [d.isoformat() for d in dates], means.tolist(), counts.tolist())))
        print(f"{asset.symbol}: {rows} rows, {len(repair_log)} repairs, "
              f"{dropped} tweets dated after the last day")
    return EXIT_OK


# ---------------------------------------------------------------- train


def _stamp(cfg, aligned, model) -> str:
    """The SHA-256 of what training `model` on `aligned` reads: the model name,
    a windowed model's config section, seed and window length, and the dates,
    features and sentiment of its train rows, which fix its split."""
    settings = {} if model == "arima" else {
        **asdict(getattr(cfg, model)), "seed": cfg.seed, "window_length": cfg.window_length}
    items, boundary = partition(model, aligned, cfg.window_length)
    rows = len(aligned.dates) - len(items) + boundary  # train window i reads rows i to i + L
    text = json.dumps([model, settings, aligned.dates[:rows]], sort_keys=True, default=str)
    return hashlib.sha256(text.encode() + aligned.features[:rows].tobytes()
                          + aligned.sentiment[:rows].tobytes()).hexdigest()


def _train_arima(cfg, group):
    return [(arima_mod.select_order(closes), None) for closes in group]


def _train_lstm(cfg, group):
    fits = (lstm_mod.train(windows, cfg.lstm, seed=cfg.seed) for windows in group)
    return [(model, csv_text("epoch,train_loss,val_loss,lr", (r.values() for r in log)))
            for model, log in fits]


def _train_gan(cfg, group):
    return [(gen, csv_text("step,d_loss,g_loss",
                           ([step, *losses] for step, losses in enumerate(log.tolist()))))
            for gen, log in gan_mod.train(group, cfg.gan, seed=cfg.seed)]


# model -> trainer of a group's train items, one (artifact, log CSV or None) per member
_TRAINERS = {"arima": _train_arima, "lstm": _train_lstm, "gan": _train_gan}


@contextmanager
def _cell(symbols, model):
    """Prefix an error raised inside with SYMBOL/model: of a lockstep group,
    the symbol of the member at fault, or every symbol if none is."""
    try:
        yield
    except SentiganError as e:
        who = symbols[e.member] if e.member is not None else ", ".join(symbols)
        e.args = (f"{who}/{model}: {e}",)
        raise


def _write_outputs(cfg, aligned, model, artifact, log_csv):
    payload = {"model": model, "artifact": artifact.to_dict(), "stamp": _stamp(cfg, aligned, model)}
    write_atomic(_artifact_path(cfg, aligned.symbol, model),
                 json.dumps(payload, sort_keys=True) + "\n")
    if log_csv is not None:
        write_atomic(cfg.output_dir / "logs" / f"{aligned.symbol}_{model}.csv", log_csv)


def _groups(cfg, datasets, model):
    """`model`'s train items of each asset, as a list of {symbol: items}
    groups in config order, each trained in one call: the GAN's by their
    number of training windows, in lockstep; ARIMA's and the LSTM's one
    asset each."""
    groups = {}
    for symbol, aligned in datasets.items():
        with _cell([symbol], model):
            items, boundary = partition(model, aligned, cfg.window_length)
        groups.setdefault(boundary if model == "gan" else symbol, {})[symbol] = items[:boundary]
    return list(groups.values())


def cmd_train(cfg: RunConfig, model_name="all", asset_symbol=None) -> int:
    """Every model through one path, model by model: each call trains a group
    of assets (see _groups). Each aligned file is read once, and every
    partition is checked before any model trains."""
    models = list(MODEL_NAMES) if model_name == "all" else [model_name]
    datasets = {asset.symbol: _load_aligned_or_die(cfg, asset.symbol)
                for asset in _select_assets(cfg, asset_symbol)}
    work = [(model, group) for model in models for group in _groups(cfg, datasets, model)]
    for model, group in work:
        symbols = list(group)
        with _cell(symbols, model):
            results = _TRAINERS[model](cfg, list(group.values()))
        for symbol, (artifact, log_csv) in zip(symbols, results):
            _write_outputs(cfg, datasets[symbol], model, artifact, log_csv)
        print(f"{', '.join(symbols)}: trained {model}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


_ARTIFACT_TYPES = {"arima": arima_mod.ArimaModel, "lstm": LstmModel, "gan": gan_mod.Generator}


@contextmanager
def _on_aligned(cfg, symbol, model):
    """Prefix a DataError raised inside with the artifact and its aligned file."""
    try:
        yield
    except DataError as e:
        raise DataError(f"{_artifact_path(cfg, symbol, model)} on "
                        f"{_aligned_path(cfg, symbol)}: {e}") from e


def _load_artifact(cfg, aligned, model):
    """`model`'s artifact for `aligned`, if stamped as trained on it with this config."""
    def load(path):
        payload = json.loads(read_utf8(path))
        if payload["model"] != model:
            raise DataError(f"{path}: artifact is not a {model} model")
        return _ARTIFACT_TYPES[model].from_dict(payload["artifact"]), payload.get("stamp")

    artifact, stamp = _load_or_die(_artifact_path(cfg, aligned.symbol, model),
                                   f"{model} artifact", load)
    with _on_aligned(cfg, aligned.symbol, model):
        if stamp != _stamp(cfg, aligned, model):
            raise DataError("not trained on this train partition, config and seed; train again")
    return artifact


def _metrics_cell(m: MetricSet) -> str:
    mape = "-" if m.mape is None else f"{m.mape:.4f}"
    return f"mae {m.mae:10.4f}  mse {m.mse:12.4f}  rmse {m.rmse:10.4f}  mape {mape}"


def _print_summary(grid, agg):
    print("Per-asset holdout metrics")
    for row in grid:
        for r in row:
            print(f"  {r.symbol:<8} {r.model:<6} {_metrics_cell(r.metrics)}")
    print("Aggregate")
    for model in MODEL_NAMES:
        print(f"  {model:<6} mean_rmse {agg.mean_rmse[model]:10.4f}  "
              f"median_rmse {agg.median_rmse[model]:10.4f}  wins {agg.wins[model]}")
    for symbol, tied in agg.ties:
        print(f"  tie on {symbol}: {', '.join(tied)}")


def cmd_evaluate(cfg: RunConfig, asset_symbol=None) -> int:
    grid = []  # a row per asset: its reports in MODEL_NAMES order
    for asset in _select_assets(cfg, asset_symbol):
        aligned = _load_aligned_or_die(cfg, asset.symbol)
        # every artifact of the asset is read and checked before any report
        artifacts = {model: _load_artifact(cfg, aligned, model) for model in MODEL_NAMES}
        grid.append([])
        for model, artifact in artifacts.items():
            with _on_aligned(cfg, asset.symbol, model):
                report = evaluate(model, artifact, aligned, cfg.window_length)
            write_atomic(_report_path(cfg, asset.symbol, model),
                         json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
            grid[-1].append(report)
    grid.sort(key=lambda row: row[0].symbol)
    agg = aggregate(grid)
    # aggregate.csv covers every configured asset; evaluating fewer leaves it as it is
    if len(grid) == len(cfg.assets):
        write_atomic(cfg.output_dir / "aggregate.csv", agg.to_csv())
    _print_summary(grid, agg)
    return EXIT_OK


# ---------------------------------------------------------------- plot

SVG_WIDTH = 640
SVG_HEIGHT = 400
SVG_MARGIN = 50
# the actual close's, then each model's in MODEL_NAMES order
SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")


def _polyline(xs, ys, color):
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>')


def render_plot_svg(reports: list[ForecastReport]) -> str:
    """Standalone SVG chart of one asset's reports: the actual close over the
    longest holdout and each model's forecasts over its own held-out dates,
    which end the longest report's dates, on one date axis and with one
    legend label each. Byte-deterministic for given reports."""
    longest = max(reports, key=lambda r: len(r.dates))
    n = len(longest.dates)
    series = [("actual", longest.actual.tolist())]
    series += [(r.model, r.predicted.tolist()) for r in reports]
    lo = min(min(values) for _, values in series)
    hi = max(max(values) for _, values in series)
    span = (hi - lo) or 1.0
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN
    # the symbol is the one free text in the chart
    title = longest.symbol.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">'
        f"{title}: forecasts vs actual close</text>",
        f'<line x1="{SVG_MARGIN}" y1="{SVG_HEIGHT - SVG_MARGIN}" '
        f'x2="{SVG_WIDTH - SVG_MARGIN}" y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>',
        f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" x2="{SVG_MARGIN}" '
        f'y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>',
    ]
    for k, (name, values) in enumerate(series):
        # each series ends on the last date
        xs = [SVG_MARGIN + inner_w * (i / max(n - 1, 1)) for i in range(n - len(values), n)]
        ys = [SVG_MARGIN + inner_h * (1.0 - (v - lo) / span) for v in values]
        parts += [_polyline(xs, ys, SVG_COLORS[k]),
                  f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_MARGIN + 16 * k}" '
                  f'text-anchor="end" font-family="sans-serif" font-size="11" '
                  f'fill="{SVG_COLORS[k]}">{name}</text>']
    parts += [
        f'<text x="{SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" '
        f'font-family="sans-serif" font-size="11">{longest.dates[0].isoformat()}</text>',
        f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{longest.dates[-1].isoformat()}</text>',
        f'<text x="{SVG_MARGIN - 6}" y="{SVG_HEIGHT - SVG_MARGIN}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{lo:.2f}</text>',
        f'<text x="{SVG_MARGIN - 6}" y="{SVG_MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{hi:.2f}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _load_report(cfg, symbol, model):
    path = _report_path(cfg, symbol, model)
    report = _load_or_die(path, "report",
                          lambda p: ForecastReport.from_dict(json.loads(read_utf8(p))))
    if (report.symbol, report.model) != (symbol, model):
        raise DataError(f"{path}: holds the report of {report.symbol!r}/{report.model!r}")
    if not report.dates:
        raise DataError(f"report {path} has no rows to plot")
    return report


def cmd_plot(cfg: RunConfig, asset_symbol=None) -> int:
    """One SVG per asset from its three reports, each read and checked before
    the asset's plot is written."""
    for asset in _select_assets(cfg, asset_symbol):
        reports = [_load_report(cfg, asset.symbol, model) for model in MODEL_NAMES]
        longest = max(reports, key=lambda r: len(r.dates))
        for report in reports:
            if longest.dates[len(longest.dates) - len(report.dates):] != report.dates:
                raise DataError(
                    f"{_report_path(cfg, asset.symbol, report.model)}: its dates do not end "
                    f"those of {_report_path(cfg, asset.symbol, longest.model)}")
        path = cfg.output_dir / "plots" / f"{asset.symbol}.svg"
        write_atomic(path, render_plot_svg(reports))
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------- run


def cmd_run(cfg: RunConfig, asset_symbol=None) -> int:
    cmd_ingest(cfg, asset_symbol)
    cmd_train(cfg, "all", asset_symbol)
    cmd_evaluate(cfg, asset_symbol)
    cmd_plot(cfg, asset_symbol)
    return EXIT_OK


# ---------------------------------------------------------------- entry point


def _dispatch(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.command == "ingest":
        return cmd_ingest(cfg, args.asset)
    if args.command == "train":
        return cmd_train(cfg, args.model, args.asset)
    if args.command == "evaluate":
        return cmd_evaluate(cfg, args.asset)
    if args.command == "plot":
        return cmd_plot(cfg, args.asset)
    return cmd_run(cfg, args.asset)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an overflow's result is refused by the finite checks, which name the
        # files; numpy's warning would add a line naming neither, or, where
        # warnings are errors, end the command as an internal error
        with np.errstate(over="ignore", invalid="ignore"):
            return _dispatch(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except SentiganError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # noqa: BLE001 - last-resort boundary for exit codes
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
