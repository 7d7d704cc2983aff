"""scripts/bench_pairs.py on two stub checkouts, whose perfbench/run.py and
scripts/hash_outputs.py print fixed result lines: the run order alternates,
the summary pools every set written to one BENCH file, and the traced runs
and the output diff land in it."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

# a run's run_s is its side's base plus 0.01 per earlier run of either side
STUB_RUN = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
calls = here.parent / "calls.txt"
n = len(calls.read_text().splitlines()) if calls.exists() else 0
trace = sys.argv[sys.argv.index("--trace") + 1]
with calls.open("a") as f:
    f.write(f"{here.name} {trace}\\n")
print(json.dumps({"machine": {"nproc": 2}}))
print("pass 1: {}")
if trace == "1":
    metrics = {"gan.train_s": {"value": BASE / 2, "unit": "s"}}
else:
    metrics = {"run_s": {"value": BASE + 0.01 * n, "unit": "s"},
               "rel_rmse_arima": {"value": 0.9, "unit": "ratio"}}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""

STUB_HASH = """
print("aa  models/A_gan.json")
print("bb  models/A_gan.json without stamp")
print("cc  reports/A_gan.json")
"""


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root, name, base):
    for rel, text in (("perfbench/run.py", STUB_RUN.replace("BASE", str(base))),
                      ("scripts/hash_outputs.py", STUB_HASH)):
        path = root / name / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root / name


def test_pairs_alternate_and_every_set_pools_into_one_bench_file(bench_pairs, tmp_path, capsys):
    parent, change = checkout(tmp_path, "parent", 4.0), checkout(tmp_path, "change", 3.0)
    out = tmp_path / "BENCH.json"
    common = [str(parent), str(change), "--workload", "fleet", "--json", str(out)]
    assert bench_pairs.main([*common, "--pairs", "3", "--traced", "--hash-outputs",
                             "--what", "a stub"]) == 0

    calls = (tmp_path / "calls.txt").read_text().split("\n")[:-1]
    assert calls == ["parent 0", "change 0", "change 0", "parent 0", "parent 0", "change 0",
                     "parent 1", "change 1"]
    bench = json.loads(out.read_text())
    assert bench["what"] == "a stub" and bench["machine"] == {"nproc": 2}
    assert [(r["side"], r.get("pair"), r["trace"]) for r in bench["runs"]][:2] == [
        ("parent", 1, 0), ("change", 1, 0)]
    fleet = bench["summary"]["fleet"]
    # parent 4.00, 4.03, 4.04; change 3.01, 3.02, 3.05
    assert fleet["pairs"] == 3 and fleet["failed"] == 0 and fleet["attempted"] == 8
    run_s = fleet["run_s"]
    assert run_s["parent_median"] == pytest.approx(4.03)
    assert run_s["change_median"] == pytest.approx(3.02)
    assert run_s["parent_quartiles"] == pytest.approx([4.015, 4.035])
    assert run_s["change_quartiles"] == pytest.approx([3.015, 3.035])
    assert run_s["change_lower_in"] == "3/3" and run_s["change_equal_in"] == "0/3"
    assert fleet["rel_rmse_arima"]["change_equal_in"] == "3/3"
    assert fleet["traced_seed_1"] == {"gan.train_s": {"parent": 2.0, "change": 1.5}}
    assert bench["output_digests"]["fleet seed 1"] == {
        "lines": 3, "files": 2, "identical": True, "diff_lines": 0}
    printed = capsys.readouterr().out
    assert "fleet: 3 pairs, 0 of 8 passes failed" in printed
    assert "4.03 [4.015, 4.035]" in printed and "3/3" in printed

    # a second set continues the numbering: pair 4 is even, so the change runs first
    assert bench_pairs.main([*common, "--pairs", "1"]) == 0
    calls = (tmp_path / "calls.txt").read_text().split("\n")[-3:-1]
    assert calls == ["change 0", "parent 0"]
    bench = json.loads(out.read_text())
    assert bench["what"] == "a stub"
    assert [(r["side"], r["pair"]) for r in bench["runs"][-2:]] == [("change", 4), ("parent", 4)]
    assert bench["summary"]["fleet"]["pairs"] == 4
    assert bench["summary"]["fleet"]["run_s"]["change_lower_in"] == "4/4"
    assert "fleet seed 1" in bench["output_digests"]


def test_a_run_without_a_result_line_counts_as_failed(bench_pairs, tmp_path):
    parent, change = checkout(tmp_path, "parent", 4.0), checkout(tmp_path, "change", 3.0)
    (change / "perfbench" / "run.py").write_text("import sys; sys.exit(3)\n")
    machine, result = bench_pairs.bench_run(change, "fleet", 1, 0)
    assert machine is None
    assert result["failed"] == 1 and result["exit"] == 3 and result["metrics"] == {}
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "fleet", "--pairs", "1",
                             "--json", str(out)]) == 0
    fleet = json.loads(out.read_text())["summary"]["fleet"]
    assert fleet["failed"] == 1 and fleet["run_s"]["change_lower_in"] == "0/0"
