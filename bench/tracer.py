"""Spans around calls into cavrate's public functions.

`Tracer.install()` replaces each traced function by a wrapper under every
name a caller looks it up by: the defining module's own global (which the
module's internal calls use) and every `from ... import` copy in the other
cavrate modules, e.g. `rates.sqrt_eps` as well as `dielectric.sqrt_eps`.
A function that is not traced counts toward the self time of its caller.

Each span records its name, start, end and parent.  The tracer keeps running
totals per name (calls, total time, self time = duration minus the time of
its child spans), counts calls made inside a chosen ancestor span, and keeps
the first `max_spans` raw spans for inspection.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# (child, ancestor): calls of child made while an ancestor span is open
NESTED = (
    ("multilayer.coeffs_two_layer", "rates.rate_report"),
    ("multilayer.field_in_layer", "oracle.absorbed_power"),
)

_EXPLICIT = {
    "multilayer": ("coeffs_two_layer", "coeffs_three_layer",
                   "coeffs_general_n", "field_in_layer"),
    "rates": ("rate_report", "gamma_sc_loc"),
    "oracle": ("absorbed_power", "flux_through_sphere"),
    "cli": ("sweep_row", "write_csv", "write_json"),
}


def traced_functions() -> dict:
    """Span name -> function, for every function the tracer wraps.

    Every public function of `specfun` and `dielectric`, every `check_*`
    of `verify`, and the named entry points of the other modules.
    """
    out = {}
    for short in ("specfun", "dielectric"):
        mod = importlib.import_module(f"cavrate.{short}")
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                out[f"{short}.{name}"] = fn
    verify = importlib.import_module("cavrate.verify")
    for name, fn in vars(verify).items():
        if name.startswith("check_") and inspect.isfunction(fn):
            out[f"verify.{name}"] = fn
    for short, names in _EXPLICIT.items():
        mod = importlib.import_module(f"cavrate.{short}")
        for name in names:
            out[f"{short}.{name}"] = getattr(mod, name)
    return out


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self, max_spans: int = 0):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.nested = Counter()
        self.spans = []          # (span id, parent id, name, start, end)
        self.max_spans = max_spans
        self._stack = []         # open spans: [name, id, start, child time]
        self._open = Counter()
        self._next_id = 0
        self._patches = []
        self._watch = defaultdict(list)
        for child, ancestor in NESTED:
            self._watch[child].append(ancestor)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack, open_, watch = self._stack, self._open, self._watch.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if watch:
                for ancestor in watch:
                    if open_[ancestor]:
                        self.nested[(name, ancestor)] += 1
            span_id = self._next_id
            self._next_id += 1
            open_[name] += 1
            frame = [name, span_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[name] -= 1
                duration = end - frame[2]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id,
                                       parent[1] if parent else None,
                                       name, frame[2], end))

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cavrate"
                                         or n.startswith("cavrate."))]
        for name, fn in traced_functions().items():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
