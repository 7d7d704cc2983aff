"""Command-line orchestration: ingest, sentiment, train, evaluate, plot, run.

Every command is driven by a YAML config (see config.py) and a seed, and all
emitted artifacts are deterministic functions of (config, seed, data). Exit
codes: 0 success, 2 data error, 64 usage error, 70 internal/training error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path

from . import arima as arima_mod
from . import gan as gan_mod
from . import lstm as lstm_mod
from .config import RunConfig, load_config
from .data import (
    CLOSE_COLUMN,
    csv_rows,
    load_aligned,
    load_ohlcv,
    make_windows,
    read_utf8,
    repair_missing,
    save_aligned,
    split_boundary,
    utf8_lines,
    write_atomic,
)
from .data import align as align_series
from .errors import DataError, DimensionError, SentiganError, UsageError
from .eval import MODEL_NAMES, ForecastReport, MetricSet, aggregate, evaluate
from .gan import GanSchedule
from .lstm import LstmModel, TrainSchedule
from .sentiment import SentimentRecord, aggregate_daily, load_lexicon, score_text

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
        ("ingest", "validate, repair and align the configured assets"),
        ("sentiment", "score tweet files into daily sentiment series"),
        ("train", "fit model artifacts for the configured assets"),
        ("evaluate", "produce per-asset reports and the aggregate table"),
        ("plot", "emit an SVG + CSV of predicted vs actual closes"),
        ("run", "full pipeline: ingest, train, evaluate, plot"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the YAML run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--asset", default=None, help="restrict to one symbol")
        if name in ("train", "plot"):
            p.add_argument("--model", default="all" if name == "train" else None,
                           help="arima, lstm, gan" + (" or all" if name == "train" else ""))
    return parser


# ---------------------------------------------------------------- helpers


def _select_assets(cfg: RunConfig, symbol):
    if symbol is None:
        return cfg.assets
    chosen = [a for a in cfg.assets if a.symbol == symbol]
    if not chosen:
        raise UsageError(f"asset {symbol!r} is not in the config")
    return chosen


def _select_models(name):
    if name is None or name == "all":
        return list(MODEL_NAMES)
    if name not in MODEL_NAMES:
        raise UsageError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    return [name]


def _write_json(path: Path, payload):
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _aligned_path(cfg, symbol) -> Path:
    return cfg.output_dir / "aligned" / f"{symbol}.json"


def _artifact_path(cfg, symbol, model) -> Path:
    return cfg.output_dir / "models" / f"{symbol}_{model}.json"


def _report_path(cfg, symbol, model) -> Path:
    return cfg.output_dir / "reports" / f"{symbol}_{model}.json"


def _load_or_die(path, what, load):
    """load(path) of a JSON file; truncated JSON, a missing key, a value of
    the wrong type, shape or name or a non-finite number is a DataError
    naming the file."""
    try:
        return load(path)
    except DataError as e:
        if str(path) not in str(e):
            e.args = (f"{path}: corrupt {what}: {e}",)
        raise
    except (ValueError, KeyError, TypeError, OverflowError, DimensionError, UsageError) as e:
        raise DataError(f"{path}: corrupt {what}: {e!r}") from e


def _load_aligned_or_die(cfg, symbol):
    path = _aligned_path(cfg, symbol)
    if not path.exists():
        raise DataError(f"no aligned dataset for {symbol!r}; run ingest first")
    return _load_or_die(path, "aligned dataset", load_aligned)


# ---------------------------------------------------------------- sentiment


def _read_tweets(path: Path) -> list[SentimentRecord]:
    records = []
    for line_no, row in csv_rows(utf8_lines(path), path, ["timestamp", "text"]):
        if len(row) != 2:
            raise DataError(f"{path} line {line_no}: expected 2 columns, got {len(row)}")
        try:
            stamp = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"{path} line {line_no}: bad timestamp {row[0]!r}") from None
        records.append(SentimentRecord(timestamp=stamp, raw_text=row[1]))
    return records


def _daily_sentiment(cfg, asset, trading_days):
    """Score and aggregate the asset's tweet file; a missing file yields an
    empty (all-neutral) series with a warning."""
    if asset.tweets_path is None or not asset.tweets_path.exists():
        print(f"warning: no tweet file for {asset.symbol}; sentiment set to 0",
              file=sys.stderr)
        return [], 0
    if cfg.lexicon_path is None:
        raise UsageError("config has tweet files but no lexicon path")
    lexicon, _ = load_lexicon(read_utf8(cfg.lexicon_path).splitlines())
    records = _read_tweets(asset.tweets_path)
    for r in records:
        r.compound = score_text(lexicon, r.raw_text)
    return aggregate_daily(records, trading_days)


def _sentiment_csv(daily) -> str:
    lines = ["date,compound,sample_count"]
    for d in daily:
        lines.append(f"{d.date.isoformat()},{d.compound!r},{d.sample_count}")
    return "\n".join(lines) + "\n"


def _read_ohlcv(asset):
    return load_ohlcv(utf8_lines(asset.ohlcv_path), asset.symbol, asset.ohlcv_path)


def cmd_sentiment(cfg: RunConfig, asset_symbol=None) -> int:
    for asset in _select_assets(cfg, asset_symbol):
        series, _ = _read_ohlcv(asset)
        series, _ = repair_missing(series)
        daily, dropped = _daily_sentiment(cfg, asset, series.dates)
        write_atomic(cfg.output_dir / "sentiment" / f"{asset.symbol}.csv",
                     _sentiment_csv(daily))
        print(f"{asset.symbol}: {len(daily)} sentiment days, {dropped} records dropped")
    return EXIT_OK


# ---------------------------------------------------------------- ingest


def cmd_ingest(cfg: RunConfig, asset_symbol=None) -> int:
    for asset in _select_assets(cfg, asset_symbol):
        series, load_report = _read_ohlcv(asset)
        series, repair_log = repair_missing(series)
        daily, _ = _daily_sentiment(cfg, asset, series.dates)
        aligned, ignored = align_series(series, daily)
        save_aligned(aligned, _aligned_path(cfg, asset.symbol))
        write_atomic(
            cfg.output_dir / "repair" / f"{asset.symbol}.jsonl",
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in repair_log),
        )
        write_atomic(cfg.output_dir / "sentiment" / f"{asset.symbol}.csv",
                     _sentiment_csv(daily))
        print(f"{asset.symbol}: {load_report.rows} rows, {len(repair_log)} repairs, "
              f"{ignored} out-of-range sentiment days")
    return EXIT_OK


# ---------------------------------------------------------------- train


def _train_arima(cfg, aligned):
    closes = aligned.features[:, CLOSE_COLUMN]
    boundary = split_boundary(len(closes), cfg.split_policies["arima"])
    model = arima_mod.select_order(
        closes[:boundary], p_max=cfg.arima["p_max"], q_max=cfg.arima["q_max"]
    )
    return {"model": "arima", "artifact": model.to_dict()}, None


def _train_lstm(cfg, aligned):
    windows = make_windows(aligned, cfg.window_length)
    boundary = split_boundary(len(windows), cfg.split_policies["lstm"])
    params = dict(cfg.lstm)
    hidden = params.pop("hidden_size")
    model, log = lstm_mod.train(
        windows[:boundary], TrainSchedule(**params), seed=cfg.seed, hidden_size=hidden
    )
    log_csv = "epoch,train_loss,val_loss,lr\n" + "".join(
        f"{r['epoch']},{r['train_loss']!r},{r['val_loss']!r},{r['lr']!r}\n" for r in log
    )
    return {"model": "lstm", "artifact": model.to_dict()}, log_csv


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


def _write_outputs(cfg, symbol, model, payload, log_csv):
    _write_json(_artifact_path(cfg, symbol, model), payload)
    if log_csv is not None:
        write_atomic(cfg.output_dir / "logs" / f"{symbol}_{model}.csv", log_csv)


def _train_gan_group(cfg, members):
    """Train the GANs of the assets in `members`, symbol -> GAN training
    windows of one count, in one lockstep run, and write each one's artifact
    and log."""
    symbols = list(members)
    params = dict(cfg.gan)
    gen_hidden = tuple(params.pop("gen_hidden"))
    disc_hidden = tuple(params.pop("disc_hidden"))
    with _cell(symbols, "gan"):
        results = gan_mod.train(list(members.values()), GanSchedule(**params),
                                seed=cfg.seed, gen_hidden=gen_hidden, disc_hidden=disc_hidden)
    for symbol, (gen, _, log) in zip(symbols, results):
        payload = {"model": "gan", "artifact": gen.to_dict()}
        log_csv = "step,d_loss,g_loss\n" + "".join(
            f"{step},{d!r},{g!r}\n" for step, (d, g) in enumerate(log.tolist())
        )
        _write_outputs(cfg, symbol, "gan", payload, log_csv)


_TRAINERS = {"arima": _train_arima, "lstm": _train_lstm}


def _gan_groups(cfg, datasets):
    """Each asset's GAN training windows, grouped by their count: a list of
    {symbol: windows}, symbols in config order."""
    groups = {}
    for symbol, aligned in datasets.items():
        with _cell([symbol], "gan"):
            windows = make_windows(aligned, cfg.window_length)
            windows = windows[:split_boundary(len(windows), cfg.split_policies["gan"])]
        groups.setdefault(len(windows), {})[symbol] = windows
    return list(groups.values())


def cmd_train(cfg: RunConfig, model_name="all", asset_symbol=None) -> int:
    """ARIMA and the LSTM asset by asset; the GANs in one lockstep run per
    group of assets with equal numbers of GAN training windows, right after
    the group's last asset. Each aligned file is read once, up front."""
    models = _select_models(model_name)
    datasets = {asset.symbol: _load_aligned_or_die(cfg, asset.symbol)
                for asset in _select_assets(cfg, asset_symbol)}
    groups = _gan_groups(cfg, datasets) if "gan" in models else []
    last_of_group = {list(members)[-1]: members for members in groups}
    for symbol, aligned in datasets.items():
        for model in models:
            if model != "gan":
                with _cell([symbol], model):
                    payload, log_csv = _TRAINERS[model](cfg, aligned)
                _write_outputs(cfg, symbol, model, payload, log_csv)
        if symbol in last_of_group:
            _train_gan_group(cfg, last_of_group[symbol])
        print(f"{symbol}: trained {', '.join(models)}")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate


_ARTIFACT_TYPES = {"arima": arima_mod.ArimaModel, "lstm": LstmModel, "gan": gan_mod.Generator}


def _load_artifact(cfg, symbol, model):
    path = _artifact_path(cfg, symbol, model)
    if not path.exists():
        raise DataError(f"missing artifact for asset {symbol!r} model {model!r}")

    def load(path):
        payload = json.loads(read_utf8(path))
        if not isinstance(payload, dict) or not isinstance(payload.get("artifact", {}), dict):
            raise DataError(f"{path}: corrupt {model} artifact: not a JSON object")
        if payload.get("model") != model:
            raise DataError(f"{path}: artifact is not a {model} model")
        artifact = _ARTIFACT_TYPES[model].from_dict(payload["artifact"])
        if model != "arima" and artifact.scaler is None:
            raise DataError("no fitted scaler")
        return artifact

    return _load_or_die(path, f"{model} artifact", load)


def audit_causality(report: ForecastReport, aligned, policy, window_length):
    """Re-derive the held-out date range from the artifacts and assert every
    emitted prediction targets a strictly later date than any data it could
    have conditioned on."""
    dates = [r[0] for r in report.rows]
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise DataError(f"{report.symbol}/{report.model}: report dates not increasing")
    if report.model == "arima":
        boundary = split_boundary(len(aligned.dates), policy)
        expected = aligned.dates[boundary:]
    else:
        boundary = split_boundary(len(aligned.dates) - window_length, policy)
        expected = aligned.dates[window_length + boundary:]
    if dates != expected:
        raise DataError(
            f"{report.symbol}/{report.model}: report rows cover {dates[:1]}..."
            f"{dates[-1:]}, expected the held-out range {expected[:1]}...{expected[-1:]}"
        )


def _metrics_cell(m: MetricSet) -> str:
    mape = "-" if m.mape is None else f"{m.mape:.4f}"
    return f"mae {m.mae:10.4f}  mse {m.mse:12.4f}  rmse {m.rmse:10.4f}  mape {mape}"


def _print_summary(reports, agg):
    by_symbol = {}
    for r in reports:
        by_symbol.setdefault(r.symbol, {})[r.model] = r
    print("Per-asset holdout metrics")
    for symbol in sorted(by_symbol):
        for model in MODEL_NAMES:
            if model in by_symbol[symbol]:
                print(f"  {symbol:<8} {model:<6} "
                      f"{_metrics_cell(by_symbol[symbol][model].metrics)}")
    print("Aggregate")
    for model in MODEL_NAMES:
        if model in agg.mean_rmse:
            print(f"  {model:<6} mean_rmse {agg.mean_rmse[model]:10.4f}  "
                  f"median_rmse {agg.median_rmse[model]:10.4f}  wins {agg.wins[model]}")
    for symbol, tied in agg.ties:
        print(f"  tie on {symbol}: {', '.join(tied)}")


def cmd_evaluate(cfg: RunConfig, asset_symbol=None) -> int:
    reports = []
    for asset in _select_assets(cfg, asset_symbol):
        aligned = _load_aligned_or_die(cfg, asset.symbol)
        for model in MODEL_NAMES:
            artifact = _load_artifact(cfg, asset.symbol, model)
            policy = cfg.split_policies[model]
            report = evaluate(model, artifact, aligned, policy,
                              window_length=cfg.window_length)
            audit_causality(report, aligned, policy, cfg.window_length)
            _write_json(_report_path(cfg, asset.symbol, model), report.to_dict())
            reports.append(report)
    agg = aggregate(reports)
    write_atomic(cfg.output_dir / "aggregate.csv", agg.to_csv())
    _print_summary(reports, agg)
    return EXIT_OK


# ---------------------------------------------------------------- plot

SVG_WIDTH = 640
SVG_HEIGHT = 400
SVG_MARGIN = 50


def _polyline(xs, ys, color):
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>')


def render_plot_svg(report: ForecastReport) -> str:
    """Standalone two-line SVG chart: actual vs predicted close over the
    held-out dates. Byte-deterministic for a given report."""
    n = len(report.rows)
    actual = [r[2] for r in report.rows]
    predicted = [r[1] for r in report.rows]
    lo = min(min(actual), min(predicted))
    hi = max(max(actual), max(predicted))
    span = (hi - lo) or 1.0
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN
    xs = [SVG_MARGIN + inner_w * (i / max(n - 1, 1)) for i in range(n)]

    def y(v):
        return SVG_MARGIN + inner_h * (1.0 - (v - lo) / span)

    first = report.rows[0][0].isoformat()
    last = report.rows[-1][0].isoformat()
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">'
        f"{report.symbol} {report.model}: predicted vs actual close</text>",
        f'<line x1="{SVG_MARGIN}" y1="{SVG_HEIGHT - SVG_MARGIN}" '
        f'x2="{SVG_WIDTH - SVG_MARGIN}" y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>',
        f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" x2="{SVG_MARGIN}" '
        f'y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>',
        _polyline(xs, [y(v) for v in actual], "#1f77b4"),
        _polyline(xs, [y(v) for v in predicted], "#d62728"),
        f'<text x="{SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" '
        f'font-family="sans-serif" font-size="11">{first}</text>',
        f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" '
        f'text-anchor="end" font-family="sans-serif" font-size="11">{last}</text>',
        f'<text x="{SVG_MARGIN - 6}" y="{SVG_HEIGHT - SVG_MARGIN}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{lo:.2f}</text>',
        f'<text x="{SVG_MARGIN - 6}" y="{SVG_MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{hi:.2f}</text>',
        f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_MARGIN}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#1f77b4">actual</text>',
        f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_MARGIN + 16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#d62728">predicted</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render_plot_csv(report: ForecastReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", "actual", "predicted"])
    for d, predicted, actual in report.rows:
        writer.writerow([d.isoformat(), repr(actual), repr(predicted)])
    return buf.getvalue()


def cmd_plot(cfg: RunConfig, asset_symbol, model_name) -> int:
    if asset_symbol is None or model_name is None:
        raise UsageError("plot needs --asset and --model")
    _select_assets(cfg, asset_symbol)
    (model,) = _select_models(model_name)
    path = _report_path(cfg, asset_symbol, model)
    if not path.exists():
        raise DataError(f"no report for {asset_symbol!r}/{model}; run evaluate first")
    report = _load_or_die(path, "report",
                          lambda p: ForecastReport.from_dict(json.loads(read_utf8(p))))
    if not report.rows:
        raise DataError(f"report {path} has no rows to plot")
    base = cfg.output_dir / "plots" / f"{asset_symbol}_{model}"
    write_atomic(base.with_suffix(".svg"), render_plot_svg(report))
    write_atomic(base.with_suffix(".csv"), render_plot_csv(report))
    print(f"wrote {base.with_suffix('.svg')} and {base.with_suffix('.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------- run


def cmd_run(cfg: RunConfig, asset_symbol=None) -> int:
    cmd_ingest(cfg, asset_symbol)
    cmd_train(cfg, "all", asset_symbol)
    cmd_evaluate(cfg, asset_symbol)
    for asset in _select_assets(cfg, asset_symbol):
        for model in MODEL_NAMES:
            cmd_plot(cfg, asset.symbol, model)
    return EXIT_OK


# ---------------------------------------------------------------- entry point


def _dispatch(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.command == "ingest":
        return cmd_ingest(cfg, args.asset)
    if args.command == "sentiment":
        return cmd_sentiment(cfg, args.asset)
    if args.command == "train":
        return cmd_train(cfg, args.model, args.asset)
    if args.command == "evaluate":
        return cmd_evaluate(cfg, args.asset)
    if args.command == "plot":
        return cmd_plot(cfg, args.asset, args.model)
    return cmd_run(cfg, args.asset)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
