"""The benchmark's traced spans name functions that exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_span_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (module, attr) in spans.TRACED.items()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing
