"""Spans around entgap's layer functions, recorded from outside the package.

A :class:`Tracer` replaces a function by a timing wrapper in every entgap
module namespace that holds it (and in ``numpy``/``numpy.linalg`` for the
two numpy kernels), so the package itself is not edited.  Each call made
while the tracer is active appends one span (name, start, end, parent) to
in-memory arrays; :meth:`Tracer.write_csv` writes them out when the run
ends.  A span's self time is its duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

# (module, attribute, span name): the layer boundaries the per-layer metrics
# are read from.  numpy kernels are patched on numpy itself because entgap
# calls them as ``np.linalg.eigh`` / ``np.einsum``.
LAYER_FUNCTIONS = (
    ("entgap.optimize", "run_batch", "optimize.run_batch"),
    ("entgap.optimize", "adam_step", "optimize.adam_step"),
    ("entgap.optimize", "state_gap_curve", "optimize.state_gap_curve"),
    ("entgap.objective", "objective_value_and_gradient", "objective.value_and_gradient"),
    ("entgap.objective", "gap", "objective.gap"),
    ("entgap.mera", "run_mera_search", "mera.run_mera_search"),
    ("entgap.mera", "mera_value_and_gradient", "mera.value_and_gradient"),
    ("entgap.states", "partial_trace", "states.partial_trace"),
    ("entgap.entropy", "hermitian_spectrum", "entropy.hermitian_spectrum"),
    ("entgap.entropy", "max_tmi", "entropy.max_tmi"),
    ("entgap.reflect", "reflected_entropy", "reflect.reflected_entropy"),
    ("entgap.io", "verify_state_file", "io.verify_state_file"),
    ("entgap.io", "emit_reports", "io.emit_reports"),
    ("entgap.io", "read_shots_jsonl", "io.read_shots_jsonl"),
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("numpy", "einsum", "numpy.einsum"),
)


class Tracer:
    """In-memory span recorder; inactive until :meth:`install` and ``active``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.active = False
        self.penalized_steps = 0
        self.hinge_active_steps = 0

    def _open(self, name: str) -> int:
        nid = self._name_index.get(name)
        if nid is None:
            nid = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_hinge(self, result) -> None:
        extras = result[2]
        if "max_tmi" in extras:
            self.penalized_steps += 1
            self.hinge_active_steps += extras["max_tmi"] > 0.0

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS wherever entgap refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "entgap" or n.startswith("entgap.")]
        for mod_name, attr, span_name in LAYER_FUNCTIONS:
            home = sys.modules[mod_name]
            original = getattr(home, attr)
            hook = self._count_hinge if span_name == "objective.value_and_gradient" else None
            wrapper = self.wrap(span_name, original, hook)
            for mod in set(modules) | {home}:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()
        self.active = False

    # ------------------------------------------------------------------ analysis

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time (ns)."""
        n = len(self.starts)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[self.name_ids[i]], {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child[i]
        return out

    def under(self, name: str, parent_names: tuple[str, ...]) -> tuple[int, int]:
        """(calls, total ns) of spans ``name`` whose parent span is one of ``parent_names``."""
        nid = self._name_index.get(name)
        pids = {self._name_index[p] for p in parent_names if p in self._name_index}
        calls = total = 0
        if nid is None or not pids:
            return 0, 0
        for i in range(len(self.starts)):
            p = self.parents[i]
            if self.name_ids[i] == nid and p >= 0 and self.name_ids[p] in pids:
                calls += 1
                total += self.ends[i] - self.starts[i]
        return calls, total

    def write_csv(self, path: Path) -> None:
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.starts)):
                f.write(
                    f"{i},{self.parents[i]},{self.names[self.name_ids[i]]},"
                    f"{self.starts[i]},{self.ends[i]}\n"
                )
