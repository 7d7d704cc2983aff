#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload fleet --seed 1 --pairs 10 \\
        [--traced] [--hash-outputs] [--json BENCH_N.json]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds 10
--trace 0` once from each checkout, the parent first in odd pairs and the
change first in even ones, so that a drift of the host's speed falls on both
sides alike. `--traced` then makes one `--trace 1` run per side, the parent
first. `--hash-outputs` runs `scripts/hash_outputs.py --workload W --seed S`
in each checkout and counts the lines that differ.

It prints each side's median and quartiles of every end-to-end metric, and
in how many pairs the change was lower. With `--json PATH`, every run is
written to PATH with the pooled summary; runs already in PATH are kept and
pooled, and new pairs are numbered after the workload's last pair, so sets
run one after another make one file. Nothing under perfbench/ is written
but what perfbench/run.py itself writes (.bench_work/).
"""

from __future__ import annotations

import argparse
import difflib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_SECONDS = "10"
TIMEOUT_S = 900


def bench_run(checkout: Path, workload: str, seed: int, trace: int):
    """One perfbench/run.py run from `checkout`: (machine, result). A run
    that prints no result line reads as one failed pass."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", RUN_SECONDS, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S)
    machine, result = None, None
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            parsed = json.loads(line)
            if "machine" in parsed:
                machine = parsed["machine"]
            else:
                result = parsed
    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "exit": done.returncode, "stderr_tail": done.stderr[-400:]}
    return machine, result


def hash_diff(checkouts, workload: str, seed: int) -> dict:
    """scripts/hash_outputs.py on both checkouts, and how far they differ."""
    outputs = []
    for checkout in checkouts:
        done = subprocess.run([sys.executable, "scripts/hash_outputs.py", "--workload",
                               workload, "--seed", str(seed)], cwd=checkout,
                              capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        outputs.append(done.stdout.splitlines())
    parent, change = outputs
    diff = difflib.unified_diff(parent, change, lineterm="", n=0)
    return {"lines": len(parent),
            "files": sum(not line.endswith(" without stamp") for line in parent),
            "identical": parent == change,
            "diff_lines": sum(line[:1] in "+-" and line[:3] not in ("+++", "---")
                              for line in diff)}


def value(run, metric):
    return run["result"].get("metrics", {}).get(metric, {}).get("value")


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else None
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs, workload: str) -> dict:
    """Pooled medians, quartiles and pair wins of every untraced metric of
    one workload, and the traced runs' per-layer metrics side by side."""
    untraced = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    pairs = {}
    for r in untraced:
        pairs.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r
    pairs = [p for _, p in sorted(pairs.items()) if set(p) == set(SIDES)]
    metrics = list(dict.fromkeys(m for r in untraced for m in r["result"].get("metrics", {})))
    out = {"pairs": len(pairs)}
    for metric in metrics:
        both = [(value(p["parent"], metric), value(p["change"], metric)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        side = {s: [value(r, metric) for r in untraced if r["side"] == s] for s in SIDES}
        side = {s: [v for v in vs if v is not None] for s, vs in side.items()}
        ratios = [b / a for a, b in both if a]
        out[metric] = {
            "parent_median": statistics.median(side["parent"]) if side["parent"] else None,
            "change_median": statistics.median(side["change"]) if side["change"] else None,
            "change_lower_in": f"{sum(b < a for a, b in both)}/{len(both)}",
            "change_equal_in": f"{sum(b == a for a, b in both)}/{len(both)}",
            "parent_quartiles": quartiles(side["parent"]),
            "change_quartiles": quartiles(side["change"]),
            "median_pair_ratio": statistics.median(ratios) if ratios else None,
        }
    mine = [r for r in runs if r["workload"] == workload]
    out["failed"] = sum(r["result"].get("failed", 0) for r in mine)
    out["attempted"] = sum(r["result"].get("attempted", 0) for r in mine)
    for seed in sorted({r["seed"] for r in mine if r["trace"] == 1}):
        traced = {r["side"]: r for r in mine if r["trace"] == 1 and r["seed"] == seed}
        names = dict.fromkeys(m for r in traced.values() for m in r["result"].get("metrics", {}))
        out[f"traced_seed_{seed}"] = {m: {s: value(traced[s], m) if s in traced else None
                                          for s in SIDES} for m in names}
    return out


def print_summary(workload: str, summary: dict):
    print(f"{workload}: {summary['pairs']} pairs, {summary['failed']} of "
          f"{summary['attempted']} passes failed")
    print(f"  {'metric':<16} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
          f"  change lower in")
    for metric, s in summary.items():
        if not isinstance(s, dict) or "parent_median" not in s:
            continue
        cells = []
        for side in SIDES:
            median, q = s[f"{side}_median"], s[f"{side}_quartiles"]
            cells.append("-" if median is None else f"{median:.4g} [{q[0]:.4g}, {q[1]:.4g}]")
        print(f"  {metric:<16} {cells[0]:>32} {cells[1]:>32}  {s['change_lower_in']}")


def parent_commit(checkout: Path):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10, help="untraced pairs to run")
    parser.add_argument("--traced", action="store_true",
                        help="then one --trace 1 run per side, the parent first")
    parser.add_argument("--hash-outputs", action="store_true",
                        help="diff scripts/hash_outputs.py on both checkouts")
    parser.add_argument("--json", type=Path, help="the BENCH file to write, pooling its runs")
    parser.add_argument("--what", help="what the change does, for the BENCH file")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    bench = {"what": args.what, "parent_commit": parent_commit(checkouts["parent"]),
             "command": None, "machine": None, "output_digests": {}, "summary": {}, "runs": []}
    if args.json and args.json.exists():
        bench.update(json.loads(args.json.read_text()))
        bench["what"] = args.what or bench["what"]
    runs = bench["runs"]
    last = max((r["pair"] for r in runs if r["workload"] == args.workload
                and r["seed"] == args.seed and r.get("pair") is not None), default=0)

    def record(side, trace, pair=None):
        machine, result = bench_run(checkouts[side], args.workload, args.seed, trace)
        bench["machine"] = bench["machine"] or machine
        run = {"side": side, "workload": args.workload, "seed": args.seed, "pair": pair,
               "trace": trace, "result": result}
        if pair is None:
            del run["pair"]
        runs.append(run)
        shown = {m: round(v["value"], 4) for m, v in result["metrics"].items()
                 if m in ("run_s", "setup_s", "peak_rss_mb")}
        print(f"pair {pair or '-'} {side} trace {trace}: failed {result['failed']} "
              f"{json.dumps(shown)}", flush=True)

    for pair in range(last + 1, last + 1 + args.pairs):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            record(side, 0, pair)
    if args.traced:
        for side in SIDES:
            record(side, 1)
    if args.hash_outputs:
        digest = hash_diff([checkouts[s] for s in SIDES], args.workload, args.seed)
        bench["output_digests"].setdefault("command", (
            "python3 scripts/hash_outputs.py --workload W --seed S, on each checkout, then diff"))
        bench["output_digests"][f"{args.workload} seed {args.seed}"] = digest
        print(f"hash_outputs {args.workload} seed {args.seed}: {digest}")

    bench["command"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS} --trace "
        "{0,1}, each side from its own checkout, through scripts/bench_pairs.py: untraced "
        "pairs with the parent first in odd pairs and the change first in even ones, then "
        "one traced run per side, the parent first")
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    bench["summary"] = {w: summarize(runs, w) for w in workloads}
    for w in workloads:
        print_summary(w, bench["summary"][w])
    if args.json:
        args.json.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
