"""Spans and counts recorded from outside vlbb84, around calls into its layers.

`plan()` and `run_protocol()` call their stages through module globals,
so replacing a module attribute with a wrapper catches every stage call
without editing the program. A name that a later version no longer has is
reported as missing, not wrapped.

Two kinds of wrapper are installed on separate cycles, so neither skews
the other:

- "spans": a timed span per stage call (name, layer, start, end, parent
  span, op id). Spans stay in memory and are written out once, at the end.
- "counts": call counts of the scalar helpers of `link_model` and
  `numerics` (under a microsecond per call, so a timer would cost as much
  as the call), and tracemalloc peak plus detection count around
  `quantum_phase`.
"""

from __future__ import annotations

import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Optional

# (module, function, layer) of every timed stage.
STAGES = (
    ("planner", "optimal_extra_noise", "planner"),
    ("planner", "expected_output", "planner"),
    ("planner", "success_probability", "planner"),
    ("planner", "kbr_stats", "planner"),
    ("protocol", "quantum_phase", "protocol"),
    ("protocol", "sift", "protocol"),
    ("protocol", "controlled_randomization", "protocol"),
    ("protocol", "estimate_parameters", "protocol"),
    ("protocol", "cascade", "reconcile"),
    ("protocol", "extract_key", "extract"),
    ("extract", "toeplitz_extract", "extract"),
)
FORECASTS = ("planner.expected_output", "planner.success_probability",
             "planner.kbr_stats")
COUNTED_LAYERS = ("link_model", "numerics")
CALLERS = ("planner", "protocol", "reconcile", "extract")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional[int]
    op: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records while an op is open; wrappers pass straight through otherwise."""

    def __init__(self, vlbb84_modules: dict):
        self.modules = vlbb84_modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: Optional[int] = None
        self.calls: Counter = Counter()
        self.pulses = 0
        self.detected = 0
        self.peak_alloc_bytes = 0
        self.missing: set[str] = set()
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------
    def install(self, mode: str) -> None:
        """Wrap the stages ("spans") or the helpers and sampler ("counts")."""
        if mode == "spans":
            for mod_name, fn_name, layer in STAGES:
                self._wrap(mod_name, fn_name,
                           partial(self._timed, f"{mod_name}.{fn_name}", layer))
            return
        self._wrap("protocol", "quantum_phase", self._sampled)
        for caller in CALLERS:
            for fn_name, fn in list(vars(self.modules[caller]).items()):
                if inspect.isfunction(fn):
                    layer = fn.__module__.rpartition(".")[2]
                    if layer in COUNTED_LAYERS:
                        self._wrap(caller, fn_name,
                                   partial(self._counted, f"{caller}.{fn_name}", layer))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _wrap(self, mod_name: str, fn_name: str, make_wrapper) -> None:
        module = self.modules[mod_name]
        fn = getattr(module, fn_name, None)
        if fn is None:
            self.missing.add(f"{mod_name}.{fn_name}")
            return
        self._saved.append((module, fn_name, fn))
        setattr(module, fn_name, make_wrapper(fn))

    def _timed(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            return self.call(name, layer, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.calls[name] += 1
                self.calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _sampled(self, fn):
        def wrapper(n_pulses, *args, **kwargs):
            if self.op is None:
                return fn(n_pulses, *args, **kwargs)
            tracemalloc.start()
            try:
                result = fn(n_pulses, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak_alloc_bytes = max(self.peak_alloc_bytes, peak)
            try:
                detected = int(result[1].detected.sum())
            except (AttributeError, IndexError, TypeError):
                self.missing.add("quantum_phase outcomes.detected")
            else:
                self.pulses += int(n_pulses)
                self.detected += detected
            return result
        return wrapper

    # -- spans ------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, i: int) -> None:
        span = self.spans[i]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        i = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    # -- summary ----------------------------------------------------------
    def summary(self, scale: dict) -> dict:
        """Totals over all spans: per-name inclusive and self time and call
        count, per-layer self time, and the forecasts' time (outermost
        forecast spans only, since kbr_stats calls the other two). Times
        are multiplied by scale[op], the op's wall-to-reference factor."""
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        count: Counter = Counter()
        layer_self: dict = defaultdict(float)
        forecast_s = 0.0
        for span in self.spans:
            k = scale[span.op]
            incl[span.name] += k * span.duration
            self_s[span.name] += k * span.self_s
            count[span.name] += 1
            layer_self[span.layer] += k * span.self_s
            if span.name in FORECASTS and (
                    span.parent is None or self.spans[span.parent].name not in FORECASTS):
                forecast_s += k * span.duration
        return {"incl": incl, "self": self_s, "count": count,
                "layer_self": layer_self, "forecast_s": forecast_s}

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "layer", "start", "end", "parent", "op", "self_s"],
            "spans": [[s.name, s.layer, s.start, s.end, s.parent, s.op, s.self_s]
                      for s in self.spans],
            "calls": dict(self.calls),
            "missing": sorted(self.missing),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
