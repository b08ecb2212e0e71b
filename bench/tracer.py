"""Spans around the calls `qvar.harness` makes into the other qvar modules.

The harness binds its collaborators by name (`from .data import
load_prices`), so the wrappers replace those names in `qvar.harness` itself;
wrapping the defining module alone would miss every call. `run_experiment`
is wrapped where `qvar.cli` binds it. Spans are kept in memory, in one
thread, and written out once the run ends.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

# name bound in qvar.harness -> span name (layer.operation)
HARNESS_CALLS = {
    "load_manifest": "data.load_manifest",
    "load_prices": "data.load_prices",
    "log_returns": "data.log_returns",
    "fit_scaler": "data.fit_scaler",
    "apply_scaler": "data.apply_scaler",
    "make_windows": "data.make_windows",
    "pool_windows": "data.pool_windows",
    "train": "qcnn.train",
    "predict_var_series": "qcnn.predict",
    "save_model": "qcnn.save_model",
    "fit_garch": "baselines.fit_garch",
    "fit_linear_qr": "baselines.fit_linear_qr",
    "constant_var": "baselines.var_path",
    "garch_var_path": "baselines.var_path",
    "linear_qr_var_path": "baselines.var_path",
    "score_forecast": "backtest.score_forecast",
    "write_results_csv": "harness.write",
    "write_summary_csv": "harness.write",
    "_write_series_csv": "harness.write",
    "write_run_manifest": "harness.write",
}


def _count_load(result, path, *args, **kwargs):
    return {"rows": len(result), "bytes": os.path.getsize(path)}


def _count_train(result, windows, theta, cfg, *args, **kwargs):
    return {"steps": cfg.epochs * math.ceil(len(windows) / cfg.batch_size)}


# counts recorded on a span from the call's arguments and result
COUNTERS = {
    "load_prices": _count_load,
    "make_windows": lambda result, *a, **k: {"windows": len(result)},
    "train": _count_train,
    "score_forecast": lambda result, returns, *a, **k: {"days": len(returns)},
    "fit_garch": lambda result, returns, *a, **k: {"returns": len(returns)},
    "fit_linear_qr": lambda result, returns, theta, *a, **k: {"returns": len(returns), "theta": theta},
}


class Tracer:
    """Spans with name, start, end and parent, plus the objects a run loaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.series: list = []  # every ReturnSeries the harness built
        self.config = None  # the ExperimentConfig the CLI built

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        def traced_call(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.update(count(result, *args, **kwargs))
            return result

        return traced_call

    @contextmanager
    def installed(self):
        """Wrap the harness's collaborators for the duration of the block."""
        import qvar.cli
        import qvar.harness

        def keep_series(series, *args, **kwargs):
            self.series.append(series)
            return {}

        def keep_config(result, cfg):
            self.config = cfg
            return {}

        counters = {**COUNTERS, "log_returns": keep_series}
        patches = [
            (qvar.harness, attr, self.wrap(name, getattr(qvar.harness, attr), counters.get(attr)))
            for attr, name in HARNESS_CALLS.items()
        ]
        patches.append(
            (qvar.cli, "run_experiment", self.wrap("harness.run", qvar.cli.run_experiment, keep_config))
        )
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, replacement in patches:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = []
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def totals(self, name: str, key: str | None = None) -> tuple[int, float]:
        """(calls, summed duration) of every span of that name, or the summed count `key`."""
        spans = [s for s in self.spans if s["name"] == name]
        if key is not None:
            return len(spans), sum(s.get(key, 0) for s in spans)
        return len(spans), sum(s["end"] - s["start"] for s in spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s, own in zip(self.spans, selfs):
                fh.write(json.dumps({**s, "self": own}) + "\n")
