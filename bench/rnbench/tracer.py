"""Call tracing from outside rnwarp: spans around every binding of the traced functions.

install() replaces each traced function wherever a loaded rnwarp module
binds it (the defining module, modules that imported it by name, the
package's re-exports), so no call path escapes the trace. uninstall()
puts the originals back. Each wrapped call records one span: name, start,
end, parent span and op id, appended to flat arrays kept in memory; self
times and per-layer metrics are computed from the spans afterwards.

The callables passed to the quadrature and the root search are wrapped
with plain counters rather than spans: they run hundreds of times per
call and take well under a microsecond each.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs traced with a span per call; the layer names
# are the rnwarp module names
FUNCTIONS = (
    ("calculus", "integrate_endpoint_singular"),
    ("calculus", "find_root_bracketed"),
    ("calculus", "derivative"),
    ("reissner_nordstrom", "mu_of_r"),
    ("reissner_nordstrom", "r_of_mu"),
    ("reissner_nordstrom", "warp_state"),
    ("oracle", "ricci_at"),
    ("warped", "ricci_from_warps"),
    ("fluid", "fluid_report"),
    ("verify", "run_verification"),
    ("cli", "main"),
)
# chart factories whose MetricField.g is traced as "<module>.<factory>.g"
CHARTS = (("reissner_nordstrom", "warped_chart"), ("reissner_nordstrom", "static_chart"))
# the first argument of these (the integrand, the bracketed function) is counted
COUNTED_ARGUMENT = ("calculus.integrate_endpoint_singular", "calculus.find_root_bracketed")

NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(f"{m}.{f}.g" for m, f in CHARTS)


class Tracer:
    """Span recorder; create one per run, install() around the traced ops."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.arg_calls = {k: 0 for k in COUNTED_ARGUMENT}
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._arrays: dict[str, np.ndarray] | None = None

    # -- recording ------------------------------------------------------

    def _span(self, name_id: int, fn):
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _counting(self, key: str, fn):
        calls = self.arg_calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrapper(self, qualname: str, fn):
        name_id = NAMES.index(qualname)
        if qualname in COUNTED_ARGUMENT:
            counting = self._counting

            def with_counted_argument(f, *args, **kwargs):
                return fn(counting(qualname, f), *args, **kwargs)

            return self._span(name_id, functools.wraps(fn)(with_counted_argument))
        return self._span(name_id, fn)

    def _chart_wrapper(self, qualname: str, factory):
        name_id = NAMES.index(qualname + ".g")

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            mf = factory(*args, **kwargs)
            return dataclasses.replace(mf, g=self._span(name_id, mf.g))

        return traced_factory

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "rnwarp" or k.startswith("rnwarp.")]
        targets = [(m, f, self._wrapper) for m, f in FUNCTIONS]
        targets += [(m, f, self._chart_wrapper) for m, f in CHARTS]
        for module_name, func, make in targets:
            original = getattr(sys.modules[f"rnwarp.{module_name}"], func)
            wrapper = make(f"{module_name}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays, rebuilt only when spans were added."""
        if self._arrays is None or len(self._arrays["name"]) != len(self.name):
            self._arrays = {
                "name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int64),
            }
        return self._arrays

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        out = {}
        for k, name in enumerate(NAMES):
            sel = a["name"] == k
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        a = self.arrays()
        sel = (a["name"] == NAMES.index(child_name)) & (a["parent"] >= 0)
        return int(np.count_nonzero(a["name"][a["parent"][sel]] == NAMES.index(parent_name)))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())
