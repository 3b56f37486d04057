"""Span tracing around quadwalk's public functions, from outside the library.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent) in memory.  A
function imported by another module is replaced there too, under the name
of the module that defines it, so ``harmonic.step_measure`` records as
``dp.step_measure``.  The public methods of ``ConditionedWalkPipeline``
record as ``pipeline.<method>``, and scipy's quadrature entry points, as
seen from ``asymptotics``, record as ``asymptotics.quadrature``.
``Tracer.uninstall`` puts every original back.

Counters that need a function's arguments or result (box cells, W steps,
Monte Carlo path-steps) are updated by hooks after the span has ended.
Span times run on a clock that stops while a hook runs, so the hooks' cost
shows in the tracing overhead and in no span, not even an enclosing one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("steps", "ladders", "dp", "harmonic", "asymptotics", "montecarlo",
          "pipeline", "cli")

# Entries of a measure at or below this value count as dead in
# dp.leaked_live_share; it is the library's absolute prune floor at the time
# the benchmark was defined, fixed here so the metric keeps its meaning.
LIVE_FLOOR = 1e-300

QUADRATURE = "asymptotics.quadrature"


class _QuadratureProxy:
    """Stands in for ``scipy.integrate`` inside ``asymptotics``."""

    def __init__(self, module, wrap):
        self._module = module
        self.quad = wrap(module.quad, QUADRATURE)
        self.dblquad = wrap(module.dblquad, QUADRATURE)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._hook_s = [0.0]  # time spent in hooks, taken off the span clock
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- recording --------------------------------------------------------

    def _wrap(self, func, name):
        key = id(func)
        if key in self._wrappers:
            return self._wrappers[key]
        spans = self.spans
        local = self._local
        hook = _HOOKS.get(name)
        counters = self.counters
        hook_s = self._hook_s
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = getattr(local, "top", None)
            idx = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            local.top = idx
            span[1] = clock() - hook_s[0]
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock() - hook_s[0]
                local.top = parent
            if hook is not None:
                t0 = clock()
                hook(counters, args, kwargs, result)
                hook_s[0] += clock() - t0
            return result

        self._wrappers[key] = wrapper
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"quadwalk.{layer}")
                for layer in LAYERS}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("quadwalk."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                self._replace(mod, attr, self._wrap(obj, name))
        cls = mods["pipeline"].ConditionedWalkPipeline
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, classmethod):
                self._replace(cls, attr, classmethod(
                    self._wrap(obj.__func__, f"pipeline.{attr}")))
            elif inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(obj, f"pipeline.{attr}"))
        asy = mods["asymptotics"]
        self._replace(asy, "integrate", _QuadratureProxy(asy.integrate, self._wrap))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- counters fed by function results -------------------------------------------

def _after_step_measure(counters, args, kwargs, m):
    w = m.weights
    counters["dp.cells"] += w.size
    counters["dp.nonzero_cells"] += int(np.count_nonzero(w))
    counters["dp.leaked_cells"] += m.leaked.size
    counters["dp.leaked_live"] += int(np.count_nonzero(m.leaked > LIVE_FLOOR))


def _after_w_series(counters, args, kwargs, est):
    counters["harmonic.w_series.steps"] += est.n_used


def _after_simulate_survival(counters, args, kwargs, est):
    n = args[2] if len(args) > 2 else kwargs["n"]
    counters["montecarlo.path_steps"] += est.reps * n


_HOOKS = {
    "dp.step_measure": _after_step_measure,
    "harmonic.w_series": _after_w_series,
    "montecarlo.simulate_survival": _after_simulate_survival,
}


# -- derived metrics --------------------------------------------------------------

def _children(spans):
    kids = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            kids[parent].append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for i, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            own[parent] -= end - start
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, counters) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans and counters."""
    counters = defaultdict(float, counters)
    own = self_times(spans)
    kids = _children(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        layer_self[_layer(name)] += s

    def in_layer_self(root_name, exclude=()):
        """Self time of the root's layer inside the subtrees of root_name.

        Subtrees of spans named in ``exclude`` are left out whole.
        """
        layer = _layer(root_name)
        acc = 0.0
        stack = [i for i, sp in enumerate(spans) if sp[0] == root_name
                 and (sp[3] is None or spans[sp[3]][0] != root_name)]
        while stack:
            i = stack.pop()
            name = spans[i][0]
            if name in exclude:
                continue
            if _layer(name) == layer:
                acc += own[i]
            stack.extend(kids.get(i, ()))
        return acc

    w_calls = [i for i, sp in enumerate(spans) if sp[0] == "pipeline.w"]
    memo_hits = sum(
        1 for i in w_calls
        if not any(spans[c][0] == "harmonic.w_series" for c in kids.get(i, ())))
    mc_s = total["montecarlo.simulate_survival"]
    cells = counters["dp.cells"]
    leaked = counters["dp.leaked_cells"]
    out = {
        "dp.run_dp.s": (total["dp.run_dp"], "s"),
        "dp.step_measure.s": (total["dp.step_measure"], "s"),
        "dp.step_measure.calls": (calls["dp.step_measure"], "count"),
        "dp.cells": (cells, "count"),
        "dp.nonzero_share": (
            counters["dp.nonzero_cells"] / cells if cells else 0.0, "ratio"),
        "dp.leaked_cells": (leaked, "count"),
        "dp.leaked_live_share": (
            counters["dp.leaked_live"] / leaked if leaked else 0.0, "ratio"),
        "dp.count_line.s": (total["dp.count_line"], "s"),
        "harmonic.w_series.s": (total["harmonic.w_series"], "s"),
        "harmonic.w_series.calls": (calls["harmonic.w_series"], "count"),
        "harmonic.w_series.steps": (
            counters["harmonic.w_series.steps"], "count"),
        "pipeline.w.calls": (len(w_calls), "count"),
        "pipeline.w.memo_share": (
            memo_hits / len(w_calls) if w_calls else 0.0, "ratio"),
        "pipeline.build.s": (total["pipeline.build"], "s"),
        "steps.load_steps.s": (total["steps.load_steps"], "s"),
        "ladders.ladder.s": (total["ladders.descending_ladder"]
                             + total["ladders.ascending_ladder"], "s"),
        "ladders.renewal.s": (total["ladders.renewal_V"]
                              + total["ladders.renewal_H"], "s"),
        "ladders.resolve_convention.s": (
            total["ladders.resolve_convention"], "s"),
        "asymptotics.verify.self_s": (
            in_layer_self("asymptotics.verify", exclude=(QUADRATURE,)), "s"),
        "asymptotics.quadrature.s": (total[QUADRATURE], "s"),
        "asymptotics.quadrature.calls": (calls[QUADRATURE], "count"),
        "montecarlo.simulate_survival.s": (mc_s, "s"),
        "montecarlo.path_steps_per_s": (
            counters["montecarlo.path_steps"] / mc_s if mc_s else 0.0, "1/s"),
        "cli.main.self_s": (in_layer_self("cli.main"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out["trace.spans"] = (len(spans), "count")
    return out
