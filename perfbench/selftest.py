"""Self-test of the benchmark, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that
- input generation is byte-identical for a given seed, and that the seed
  changes the generated workloads;
- the metric names and units the benchmark prints are those BENCHMARK.json
  declares;
- two traced passes over the same tiny inputs count the same calls, and a
  traced pass produces the same output digest as an untraced one;
- a traced function missing from the program reads as absent, not as zero.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import spans
import workloads

TINY = run.WORK / "selftest"

# Small enough to run in seconds, yet every traced layer is called.
TINY_SETTINGS = ["window_length: 20", "lstm:", "  max_epochs: 2", "gan:", "  epochs: 1",
                 "  batch_size: 5", "  gen_hidden: [8]", "  disc_hidden: [8]"]


def files_of(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_generation():
    for workload in workloads.WORKLOADS:
        a, b, c = (TINY / f"gen-{workload}-{tag}" for tag in ("a", "b", "c"))
        workloads.generate(workload, 3, run.ROOT, a)
        workloads.generate(workload, 3, run.ROOT, b)
        workloads.generate(workload, 4, run.ROOT, c)
        assert files_of(a) == files_of(b), f"{workload}: seed 3 generated different bytes"
        if workload != "fleet":  # fleet is the committed fixture
            assert files_of(a) != files_of(c), f"{workload}: seed does not change inputs"
    print("generation: byte-identical per seed")


def check_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == {n: run.UNITS[n] for n in run.END_TO_END}, (
        f"end_to_end: BENCHMARK.json {declared} vs run.py {run.UNITS}")
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def tiny_inputs(keep: int) -> Path:
    """The fleet inputs cut down to `keep` assets and tiny settings."""
    dest = TINY / "tiny-fleet"
    workloads.generate("fleet", 3, run.ROOT, dest)
    lines = (dest / "config.yaml").read_text().splitlines()
    head = lines[: lines.index("assets:") + 1 + keep]
    (dest / "config.yaml").write_text("\n".join(head + TINY_SETTINGS) + "\n")
    return dest


def check_traced(keep: int, per_layer_units: dict):
    tiny = run.Run(tiny_inputs(keep), deadline=float("inf"), expected_reports=keep * 3)
    untraced = tiny.run_pass("untraced", traced=False)
    first = tiny.run_pass("traced1", traced=True)
    second = tiny.run_pass("traced2", traced=True)
    assert None not in (untraced, first, second), tiny.problems
    assert first["digest"] == untraced["digest"] == second["digest"], (
        "tracing changed the outputs")
    counts = [{n: r["calls"] for n, r in t["spans"].items()} for t in (first, second)]
    assert counts[0] == counts[1], f"traced counts differ {counts}"
    metrics = run.per_layer(first, untraced["run_s"], untraced["ref_loop_s"])
    printed = {n: m["unit"] for n, m in metrics.items()}
    assert printed == per_layer_units, (
        f"per_layer: printed {sorted(set(printed) ^ set(per_layer_units))} differ")
    for name in ("gan.train_step.calls", "optim.adam_step.calls", "arima.fit.calls",
                 "sentiment.score_text.calls", "lstm.epochs"):
        assert metrics[name]["value"] == run.per_layer(second, 1.0, 1.0)[name]["value"]
    called = sorted(n for n, r in first["spans"].items() if r["calls"])
    print(f"tiny fleet: traced counts repeat over {len(called)} span names; "
          "tracing leaves the digest unchanged")
    return called, first


def check_absent(traced: dict):
    """A traced function the program no longer has reads as absent (None),
    not as zero."""
    sys.path.insert(0, str(run.ROOT / "src"))
    spans.TRACED["selftest.gone"] = ("sentigan.gan", "no_such_function")
    try:
        absent = spans.install(spans.Tracer())
    finally:
        del spans.TRACED["selftest.gone"]
    assert absent == {"selftest.gone"}, f"absent: {absent}"
    gone = dict(traced, absent=["gan.train_step", "lstm.train"], lstm_logs=None)
    metrics = run.per_layer(gone, 1.0, 1.0)
    for name in ("gan.train_step.calls", "gan.train_step.us_per_call", "lstm.epochs"):
        assert metrics[name]["value"] is None, f"{name} should read absent"
    print("absent functions: reported as null")


def main() -> int:
    shutil.rmtree(TINY, ignore_errors=True)
    TINY.mkdir(parents=True)
    check_generation()
    per_layer_units = check_names()
    print("metric names: match BENCHMARK.json")
    called, traced = check_traced(2, per_layer_units)
    never = sorted(set(spans.TRACED) - {n.rsplit(".", 1)[0] if n.startswith("eval.")
                                              else n for n in called})
    assert not never, f"traced functions never called at the tiny size: {never}"
    check_absent(traced)
    shutil.rmtree(TINY)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
