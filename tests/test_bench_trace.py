"""One traced pass of the benchmark yields a number for every per-layer metric,
and every config the benchmark writes loads."""

import math
from pathlib import Path

import pytest

from sentigan.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import selftest
    import workloads

    return run, selftest, workloads


def test_traced_pass_gives_every_per_layer_metric_as_a_finite_number(bench, tmp_path):
    # the self-test's two-asset cut of the fleet at its tiny settings; a
    # traced function that is gone, or an LSTM log without val_loss, reads
    # as null, and a non-finite value would print as NaN, not JSON
    run, selftest, workloads = bench
    workdir = tmp_path / "tiny-fleet"
    workloads.generate("fleet", 3, run.ROOT, workdir)
    lines = (workdir / "config.yaml").read_text().splitlines()
    head = lines[: lines.index("assets:") + 1 + 2]
    (workdir / "config.yaml").write_text("\n".join(head + selftest.TINY_SETTINGS) + "\n")

    tiny = run.Run(workdir, deadline=float("inf"), expected_reports=2 * 3)
    traced = tiny.run_pass("traced", traced=True)
    assert traced is not None, tiny.problems
    metrics = run.per_layer(traced, traced["run_s"], traced["ref_loop_s"])
    bad = {name: m["value"] for name, m in metrics.items()
           if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    assert not bad, bad


def test_every_config_the_benchmark_writes_loads(bench, tmp_path):
    # a key that a workload sets and the program no longer knows would
    # otherwise fail only in the benchmark, as a failed run
    run, selftest, workloads = bench
    for workload in workloads.WORKLOADS:
        config = workloads.generate(workload, 1, run.ROOT, tmp_path / workload)
        assert load_config(config).assets, workload
    # the self-test's cut: the fleet's head with its tiny settings
    lines = (tmp_path / "fleet" / "config.yaml").read_text().splitlines()
    tiny = tmp_path / "fleet" / "tiny.yaml"
    head = lines[: len(lines) - len(workloads.FLEET_SETTINGS)]
    tiny.write_text("\n".join(head + selftest.TINY_SETTINGS) + "\n")
    assert load_config(tiny).lstm.max_epochs == 2
