"""One pass of a workload in a fresh process.

    python3 perfbench/child.py --root R --workdir W --result OUT.json
                               [--setup-only] [--trace]

Times the set-up (import of sentigan.cli plus config.load_config), then
`sentigan run` on W/config.yaml, in this process; hashes the outputs
afterwards, outside the timed region, and writes everything to OUT.json.
The program's own output goes to whatever stdout and stderr the parent gave
this process.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _relative_rmse(rows) -> float:
    """Holdout RMSE over that of a persistence forecast (tomorrow's close is
    today's), on the rows after the first, whose previous close is known."""
    predicted = [r[0] for r in rows[1:]]
    actual = [r[1] for r in rows]
    model = sum((p - a) ** 2 for p, a in zip(predicted, actual[1:]))
    persistence = sum((b - a) ** 2 for a, b in zip(actual, actual[1:]))
    return (model / persistence) ** 0.5


def _digest_and_quality(out: Path):
    """sha256 of the reports and aggregate.csv, the number of forecast
    reports, the mean holdout RMSE per model and the median over assets of
    ARIMA's relative RMSE."""
    h = hashlib.sha256()
    paths = sorted((out / "reports").glob("*.json"))
    for path in paths + [out / "aggregate.csv"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    rmse = {}
    for line in (out / "aggregate.csv").read_text().splitlines()[1:]:
        model, mean_rmse = line.split(",")[:2]
        rmse[model] = float(mean_rmse)
    relative = statistics.median(
        _relative_rmse([(r["predicted"], r["actual"])
                        for r in json.loads(path.read_text())["rows"]])
        for path in paths if path.name.endswith("_arima.json"))
    return h.hexdigest(), len(paths), rmse, relative


def _val_losses(returned):
    """Validation loss per epoch of each lstm.train call, from the (model,
    log rows) it returns; None if it was not traced or returns another shape."""
    try:
        return [[row["val_loss"] for row in log] for _, log in returned]
    except (TypeError, KeyError, ValueError):
        return None


def _out_size(out: Path):
    files = [p for p in out.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    config_path = Path(args.workdir) / "config.yaml"

    from sentigan import cli, config

    cfg = config.load_config(config_path)
    result = {"setup_s": perf_counter() - _T0}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return

    tracer = absent = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        absent = spans.install(tracer)

    cpu0 = _cpu_s()
    t0 = perf_counter()
    code = cli.main(["run", "--config", str(config_path)])
    result["run_s"] = perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["exit_code"] = code
    if code == 0:
        (result["digest"], result["reports"], result["rmse"],
         result["rel_rmse_arima"]) = _digest_and_quality(cfg.output_dir)
    result["out_bytes"], result["out_files"] = _out_size(cfg.output_dir)
    if tracer is not None:
        result["absent"] = sorted(absent)
        result["spans"] = tracer.summary()
        tracer.write_csv(Path(args.result).with_suffix(".spans.csv"))
        result["lstm_logs"] = _val_losses(tracer.results.get("lstm.train"))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
