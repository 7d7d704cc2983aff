"""The sentigan benchmark.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository. Generates the
workload's inputs from the seed (not timed), then runs passes of the
workload, each in a fresh process (perfbench/child.py), until --seconds of
passes have been measured, always at least one. Each pass is checked: every
command exits 0, the expected number of forecast reports exists and the
output digest equals that of every other pass of the same inputs and
program, in this run and in earlier runs of this checkout.

--trace 0 prints the end-to-end metrics (medians over passes; set-up time is
the median over at least SETUP_SAMPLES fresh processes). --trace 1 adds one
traced pass after the untraced ones and prints the per-layer metrics. The
last line of standard output is the result as one JSON object; the lines
before it describe the machine and each pass, and a traced run prints its
spans' totals and self times. Files are written only under .bench_work/ in
the checkout; a traced run leaves every span it recorded in
.bench_work/spans/<workload>-<seed>.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

REQUIRED = (
    "src/sentigan/cli.py",
    "scripts/make_fixture.py",
    "tests/fixtures/sentiment_golden.json",
    "tests/fixtures/sample_lexicon.txt",
    "tests/fixtures/fleet/ALPHA.csv",
)
EXPECTED_REPORTS = {"fleet": 21, "long_history": 9}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, generation included, must end within 180 s
BLAS_THREADS = "1"
# Pinned because measured fleet runs took 28.4-30.1 s with one BLAS thread
# and 31.0-40.5 s with the default two, with identical digests.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
             "MKL_NUM_THREADS": BLAS_THREADS}

END_TO_END = ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "rel_rmse_arima")
UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "rel_rmse_arima": "ratio"}


def ref_loop_s() -> float:
    """A fixed pure-Python loop, timed beside each pass as a gauge of host
    speed. Context only: nothing is divided by it."""
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS}


def source_hash() -> str:
    """Hash of everything that determines the outputs for a given seed."""
    h = hashlib.sha256()
    files = sorted(
        [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests" / "fixtures").rglob("*"),
         ROOT / "scripts" / "make_fixture.py", *BENCH.glob("*.py")]
    )
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Run:
    def __init__(self, workdir: Path, deadline: float, expected_reports: int):
        self.workdir = workdir
        self.deadline = deadline
        self.expected_reports = expected_reports
        self.passes: list[dict] = []
        self.setup_samples: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def child(self, tag: str, *flags) -> dict | None:
        result_path = self.workdir / f"{tag}.json"
        env = {**os.environ, **CHILD_ENV}
        cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
               "--workdir", str(self.workdir), "--result", str(result_path), *flags]
        timeout = max(1.0, self.deadline - perf_counter())
        with open(self.workdir / f"{tag}.log", "w") as log:
            try:
                proc = subprocess.run(cmd, cwd=self.workdir, env=env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:
                self.problems.append(f"{tag}: timed out")
                return None
        if proc.returncode != 0 or not result_path.exists():
            self.problems.append(f"{tag}: exit code {proc.returncode}, see {tag}.log")
            return None
        return json.loads(result_path.read_text())

    def run_pass(self, tag: str, traced: bool) -> dict | None:
        """One pass of the workload; None if it failed."""
        self.attempted += 1
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        ref = ref_loop_s()
        res = self.child(tag, *(["--trace"] if traced else []))
        if res is not None:
            res["ref_loop_s"] = ref
            problem = self.check(res)
            if problem:
                self.problems.append(f"{tag}: {problem}")
                res = None
        if res is None:
            self.failed += 1
        return res

    def check(self, res: dict) -> str | None:
        if res["exit_code"]:
            return f"sentigan run exited with {res['exit_code']}"
        if res["reports"] != self.expected_reports:
            return f"{res['reports']} reports, expected {self.expected_reports}"
        quality = [*res["rmse"].values(), res["rel_rmse_arima"]]
        if not all(0 < v < float("inf") for v in quality):
            return f"non-finite or zero RMSE {res['rmse']}, {res['rel_rmse_arima']}"
        first = self.passes[0]["digest"] if self.passes else res["digest"]
        if res["digest"] != first:
            return f"output digest {res['digest'][:12]} differs from {first[:12]}"
        return None


def check_history(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same inputs and program
    recorded in this checkout, or record this one."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digest:
        return f"output digest {digest[:12]} differs from an earlier run's {known[key][:12]}"
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(traced: dict, untraced_run_s: float, ref_loop: float) -> dict:
    """The per-layer metrics of one traced pass. None marks a traced
    function the program no longer has, or a time per call of a function
    that was not called; a count of 0 means the function exists and was not
    called."""
    spans, absent = traced["spans"], set(traced["absent"])

    def calls(name):
        return None if name in absent else spans.get(name, {}).get("calls", 0)

    def seconds(name, function=None):
        """Total time of the spans called name, which are calls of the
        traced function `function` (by default the one called name)."""
        if (function or name) in absent:
            return None
        return spans.get(name, {}).get("total_s", 0.0)

    def per_call(name, scale):
        n = calls(name)
        return seconds(name) / n * scale if n else None

    logs = traced["lstm_logs"]
    epochs = None if logs is None else sum(len(v) for v in logs)
    useful = None if not epochs else sum(v.index(min(v)) + 1 for v in logs) / epochs
    lstm_s = seconds("lstm.train")
    io_s = [seconds("data.save_aligned"), seconds("data.load_aligned")]
    fit = None if "arima.fit" in absent else spans.get("arima.fit", {})
    rmse = traced["rmse"]
    m = {
        "stage.ingest_s": (seconds("stage.ingest"), "s"),
        "stage.train_s": (seconds("stage.train"), "s"),
        "stage.evaluate_s": (seconds("stage.evaluate"), "s"),
        "stage.plot_s": (seconds("stage.plot"), "s"),
        "gan.train_s": (seconds("gan.train"), "s"),
        "gan.train_step.calls": (calls("gan.train_step"), "count"),
        "gan.train_step.us_per_call": (per_call("gan.train_step", 1e6), "us"),
        "gan.predict.calls": (calls("gan.predict"), "count"),
        "gan.predict.us_per_call": (per_call("gan.predict", 1e6), "us"),
        "nn.forward.calls": (calls("nn.forward"), "count"),
        "nn.forward.us_per_call": (per_call("nn.forward", 1e6), "us"),
        "nn.backward.calls": (calls("nn.backward"), "count"),
        "nn.backward.us_per_call": (per_call("nn.backward", 1e6), "us"),
        "optim.adam_step.calls": (calls("optim.adam_step"), "count"),
        "optim.adam_step.us_per_call": (per_call("optim.adam_step", 1e6), "us"),
        "lstm.train_s": (lstm_s, "s"),
        "lstm.epochs": (epochs, "count"),
        "lstm.ms_per_epoch": (lstm_s / epochs * 1e3 if epochs else None, "ms"),
        "lstm.useful_epoch_ratio": (useful, "ratio"),
        "lstm.sequence_loss.calls": (calls("lstm.sequence_loss"), "count"),
        "lstm.sequence_loss.us_per_call": (per_call("lstm.sequence_loss", 1e6), "us"),
        "lstm.predict.calls": (calls("lstm.predict"), "count"),
        "lstm.predict.us_per_call": (per_call("lstm.predict", 1e6), "us"),
        "arima.select_order_s": (seconds("arima.select_order"), "s"),
        "arima.fit.calls": (calls("arima.fit"), "count"),
        "arima.fit.ms_per_call": (per_call("arima.fit", 1e3), "ms"),
        "arima.fit.failed": (None if fit is None else fit.get("failed", 0), "count"),
        "arima.rolling_forecasts_s": (seconds("arima.rolling_forecasts"), "s"),
        "arima.forecast_one_step.calls": (calls("arima.forecast_one_step"), "count"),
        "sentiment.score_text.calls": (calls("sentiment.score_text"), "count"),
        "sentiment.score_text.us_per_call": (per_call("sentiment.score_text", 1e6), "us"),
        "sentiment.aggregate_daily_s": (seconds("sentiment.aggregate_daily"), "s"),
        "data.load_ohlcv_s": (seconds("data.load_ohlcv"), "s"),
        "data.make_windows.calls": (calls("data.make_windows"), "count"),
        "data.make_windows_s": (seconds("data.make_windows"), "s"),
        "data.aligned_io_s": (None if None in io_s else sum(io_s), "s"),
        "scaling.scaler_transform.calls": (calls("scaling.scaler_transform"), "count"),
        "scaling.scaler_transform_s": (seconds("scaling.scaler_transform"), "s"),
        "eval.evaluate.arima_s": (seconds("eval.evaluate.arima", "eval.evaluate"), "s"),
        "eval.evaluate.lstm_s": (seconds("eval.evaluate.lstm", "eval.evaluate"), "s"),
        "eval.evaluate.gan_s": (seconds("eval.evaluate.gan", "eval.evaluate"), "s"),
        "eval.rmse_arima": (rmse.get("arima"), "price"),
        "eval.rmse_lstm": (rmse.get("lstm"), "price"),
        "eval.rmse_gan": (rmse.get("gan"), "price"),
        "io.out_bytes": (traced["out_bytes"], "bytes"),
        "io.out_files": (traced["out_files"], "count"),
        "trace.overhead_ratio": (traced["run_s"] / untraced_run_s, "ratio"),
        "env.ref_loop_s": (ref_loop, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in m.items()}


def print_trace_table(traced: dict):
    print("traced spans: name, calls, total s, self s, failed")
    for name, row in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<28} {row['calls']:>8} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f} {row['failed']:>4}")
    if traced["absent"]:
        print(f"  absent: {', '.join(traced['absent'])}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a sentigan checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.generate(args.workload, args.seed, ROOT, workdir)
    print(json.dumps({"machine": machine()}))

    run = Run(workdir, started + DEADLINE_S, EXPECTED_REPORTS[args.workload])
    measured = 0.0
    while not run.passes or measured < args.seconds:
        res = run.run_pass(f"pass{run.attempted}", traced=False)
        if res is None:
            break
        run.passes.append(res)
        run.setup_samples.append(res["setup_s"])
        measured += res["run_s"]
        print(f"pass {len(run.passes)}: " + json.dumps(
            {k: res[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "rmse",
                                 "rel_rmse_arima", "ref_loop_s", "digest")}))
        if perf_counter() + res["run_s"] * 1.3 + 10 > run.deadline:
            break
    while run.passes and not args.trace and len(run.setup_samples) < SETUP_SAMPLES:
        res = run.child(f"setup{len(run.setup_samples)}", "--setup-only")
        if res is None:
            break
        run.setup_samples.append(res["setup_s"])

    traced = None
    if args.trace and run.passes:
        traced = run.run_pass("traced", traced=True)
        spans_csv = workdir / "traced.spans.csv"
        if spans_csv.exists():
            (WORK / "spans").mkdir(exist_ok=True)
            shutil.move(spans_csv, WORK / "spans" / f"{args.workload}-{args.seed}.csv")
    if run.passes:
        problem = check_history(
            f"{args.workload}:{args.seed}:{source_hash()}", run.passes[0]["digest"])
        if problem:
            run.problems.append(problem)
            run.failed += 1

    for problem in run.problems:
        print(f"problem: {problem}")
    correct = bool(run.passes) and not run.problems and (traced is not None or not args.trace)
    untraced_run_s = statistics.median(p["run_s"] for p in run.passes) if run.passes else None
    if traced is not None:
        print_trace_table(traced)
        metrics = per_layer(traced, untraced_run_s,
                            statistics.median(p["ref_loop_s"] for p in run.passes + [traced]))
    elif args.trace or not run.passes:
        metrics = {}
    else:
        values = {
            "setup_s": statistics.median(run.setup_samples),
            "run_s": untraced_run_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in run.passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
            "rel_rmse_arima": run.passes[0]["rel_rmse_arima"],
        }
        metrics = {name: metric(values[name], UNITS[name]) for name in END_TO_END}
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        print(f"inputs and logs kept in {workdir}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if run.attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
