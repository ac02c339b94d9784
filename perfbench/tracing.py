"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every binding of every public
function in the `strainlim.*` module namespaces: `analysis.family_eval`,
`solver.family_eval` and `families.family_eval` all lead to the same
wrapper, and calls made inside a module go through its own global binding,
so they are traced too. The `scipy.integrate.quad` binding in
`strainlim.energy` is wrapped as `energy.quad`. Nothing under `src/`
changes; `uninstall` puts every original binding back.

A span is `(id, parent_id, name, start, end)` with times from
`time.perf_counter`; parent id 0 marks a root span.
"""

import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("symtensor", "families", "solver", "kinematics", "analysis",
          "scalar1d", "energy", "cli")
# foreign callables bound in a strainlim namespace that count as layer work
FOREIGN = {("energy", "quad"): "energy.quad"}
# calls whose SolveReport (or exception) feeds the solver statistics
SOLVER_ENTRIES = ("solver.solve_implicit", "solver.solve_implicit_hencky")


def self_times(spans):
    """Aggregate spans by name into {name: [calls, inclusive_s, self_s]}.

    Self time is the span's duration minus the part of its interval that
    its child spans cover (overlapping children are counted once, and any
    part of a child outside its parent is ignored).
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, name, start, end in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered
    return out


class Tracer:
    """Records spans and solver outcomes while installed."""

    def __init__(self):
        self.spans = []
        self.solves = []  # (iterations, method) per solve, None for a raised solve
        self._current = 0
        self._next_id = 1
        self._wrappers = {}  # id(original) -> wrapper
        self._saved = []  # (module, attribute, original)

    def take(self):
        """Return and clear the spans and solver outcomes recorded so far."""
        spans, solves = self.spans, self.solves
        self.spans, self.solves = [], []
        return spans, solves

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer in ("",) + LAYERS:
            module = importlib.import_module("strainlim" + ("." + layer if layer else ""))
            for attr, obj in list(vars(module).items()):
                name = self._traced_name(layer, attr, obj)
                if name is None:
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(name, obj)
                    self._wrappers[id(obj)] = wrapper
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    @staticmethod
    def _traced_name(layer, attr, obj):
        if (layer, attr) in FOREIGN:
            return FOREIGN[(layer, attr)]
        if attr.startswith("_") or not inspect.isfunction(obj):
            return None
        home = obj.__module__.split(".")
        if home[0] != "strainlim" or len(home) != 2 or home[1] not in LAYERS:
            return None
        return home[1] + "." + obj.__name__

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        solver_entry = name in SOLVER_ENTRIES

        def traced(*args, **kwargs):
            parent = tracer._current
            sid = tracer._next_id
            tracer._next_id = sid + 1
            tracer._current = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if solver_entry:
                    tracer.solves.append(None)
                raise
            finally:
                end = clock()
                tracer._current = parent
                tracer.spans.append((sid, parent, name, start, end))
            if solver_entry:
                tracer.solves.append((result.iterations, result.method))
            return result

        traced.__wrapped__ = fn
        return traced
