"""Spans around the program's public functions, recorded from outside it.

`install` replaces each traced function at every name the sentigan modules
bind it under (for example `sentigan.nn.forward` and the `forward` that
`sentigan.gan` imported), so calls are seen wherever the caller looks the
function up. Each call becomes a span with its name, start, end and parent;
self time is the span's duration minus that of its child spans.

The program is single-threaded under the benchmark's configs, so one stack
of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# span name -> (module, attribute). A name whose function no longer exists
# is reported as absent, not as zero.
TRACED = {
    "stage.ingest": ("sentigan.cli", "cmd_ingest"),
    "stage.train": ("sentigan.cli", "cmd_train"),
    "stage.evaluate": ("sentigan.cli", "cmd_evaluate"),
    "stage.plot": ("sentigan.cli", "cmd_plot"),
    "gan.train": ("sentigan.gan", "train"),
    "gan.train_step": ("sentigan.gan", "train_step"),
    "gan.predict": ("sentigan.gan", "predict"),
    "nn.forward": ("sentigan.nn", "forward"),
    "nn.backward": ("sentigan.nn", "backward"),
    "optim.adam_step": ("sentigan.optim", "adam_step"),
    "lstm.train": ("sentigan.lstm", "train"),
    "lstm.sequence_loss": ("sentigan.lstm", "sequence_loss"),
    "lstm.predict": ("sentigan.lstm", "predict"),
    "arima.select_order": ("sentigan.arima", "select_order"),
    "arima.fit": ("sentigan.arima", "fit"),
    "arima.rolling_forecasts": ("sentigan.arima", "rolling_forecasts"),
    "arima.forecast_one_step": ("sentigan.arima", "forecast_one_step"),
    "sentiment.score_text": ("sentigan.sentiment", "score_text"),
    "sentiment.aggregate_daily": ("sentigan.sentiment", "aggregate_daily"),
    "data.load_ohlcv": ("sentigan.data", "load_ohlcv"),
    "data.make_windows": ("sentigan.data", "make_windows"),
    "data.save_aligned": ("sentigan.data", "save_aligned"),
    "data.load_aligned": ("sentigan.data", "load_aligned"),
    "scaling.scaler_transform": ("sentigan.scaling", "scaler_transform"),
    "eval.evaluate": ("sentigan.eval", "evaluate"),
}


class Tracer:
    """Spans kept in memory as parallel lists; index = span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.results: dict[str, list] = {}  # span name -> return values kept
        self._stack: list[int] = []

    def wrap(self, name, fn, keep_result=False, suffix_arg=False):
        """fn wrapped in a span. suffix_arg appends the first positional
        argument to the span name (eval.evaluate.arima); keep_result stores
        the return values for the metrics that read them."""
        names, starts, ends, parents, failed = (
            self.names, self.starts, self.ends, self.parents, self.failed)
        stack = self._stack
        kept = self.results.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(f"{name}.{args[0]}" if suffix_arg and args else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            failed.append(False)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[span] = True
                raise
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if keep_result:
                kept.append(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[span] - self.starts[span]
        return out

    def write_csv(self, path):
        """Every span, times relative to the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s,failed\n")
            for span, row in enumerate(zip(self.names, self.parents, self.starts,
                                           self.ends, self.failed)):
                name, parent, start, end, bad = row
                fh.write(f"{span},{name},{parent},{start - t0:.9f},{end - t0:.9f},{int(bad)}\n")

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s, failed}."""
        table: dict[str, dict] = {}
        for name, start, end, own, bad in zip(self.names, self.starts, self.ends,
                                              self.self_times(), self.failed):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "failed": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
            row["failed"] += bad
        return table


def install(tracer: Tracer) -> set[str]:
    """Wrap every function in TRACED; returns the span names found absent."""
    for module_name, _ in TRACED.values():
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sentigan" or n.startswith("sentigan."))]
    absent = set()
    for name, (module_name, attr) in TRACED.items():
        fn = getattr(sys.modules.get(module_name), attr, None)
        if not callable(fn):
            absent.add(name)
            continue
        wrapper = tracer.wrap(name, fn, keep_result=name == "lstm.train",
                              suffix_arg=name == "eval.evaluate")
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return absent
