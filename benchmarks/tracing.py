"""In-memory spans around stasim's public functions, for the traced run.

Each wrapped function records one span per call: its name, the timed call
(request) it belongs to, its parent span, start, end and self time.  Self
time is the span's duration minus the time its child spans cover.  Wrappers
are installed at the module attributes the callers resolve, and on
``TensorArray`` for methods, and removed again by ``Tracer.restore``.

Worker processes forked by a campaign inherit the wrappers but keep their
spans, so a run with ``--jobs 2`` records the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

from stasim.array import TensorArray

#: Span name -> (module, attribute) of each traced module-level function.
FUNCTIONS = {
    "sparsity.pack_tile": ("stasim.sparsity", "pack_tile"),
    "selftest.compute_golden": ("stasim.selftest", "compute_golden"),
    "selftest.run_session": ("stasim.selftest", "run_session"),
    "selftest.classify": ("stasim.selftest", "classify"),
    "driver.tiled_matmul": ("stasim.driver", "tiled_matmul"),
    "campaign.enumerate_faults": ("stasim.campaign", "enumerate_faults"),
    "campaign.run_campaign": ("stasim.campaign", "run_campaign"),
    "cli.main": ("stasim.cli", "main"),
}

#: Span name -> traced ``TensorArray`` method.
METHODS = {
    "array.load_weights": "load_weights",
    "array.run_compute": "run_compute",
    "array.stream": "stream",
    "array.step": "step",
    "array.edge_compare": "edge_compare",
}

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)

#: Every stasim module whose namespace may hold a traced function by name.
MODULES = (
    "stasim",
    "stasim.arith",
    "stasim.sparsity",
    "stasim.array",
    "stasim.selftest",
    "stasim.driver",
    "stasim.campaign",
    "stasim.cli",
)


class Tracer:
    def __init__(self):
        #: (name, request, span id, parent id, start, end, self seconds)
        self.spans: list[tuple] = []
        #: The timed call the spans recorded now belong to.
        self.request = 0
        self._open: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = open_spans[-1][0] if open_spans else -1
            frame = [span_id, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += end - start
                spans.append(
                    (name, self.request, span_id, parent, start, end, end - start - frame[1])
                )

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)
        for name, attr in METHODS.items():
            self._patch(TensorArray, attr, self.wrap(name, vars(TensorArray)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, requests: int, busy_s: float) -> dict:
        """Per span name: calls per timed call and self time as % of ``busy_s``."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, *_, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / requests
            out[f"{name}.self_pct"] = 100.0 * self_s[name] / busy_s
        return out

    def write(self, path) -> None:
        """All spans as JSON, one list per span, fields named in ``fields``."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "request", "id", "parent", "start", "end", "self_s"],
                    "spans": self.spans,
                },
                fh,
            )
