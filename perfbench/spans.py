"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces every public function of the traced ``cloudperim``
modules with a wrapper that records a span, in the defining module and in
every module that imported the function by name (``analysis.evaluate_flow``,
``compiler.diff_decisions``, ``cli.run_lint`` and so on). It also wraps
``scenario.ScenarioIndex``, which ``Scenario.index()`` looks up as a module
global, and ``yaml.safe_load``, which ``scenario`` calls through the ``yaml``
module. ``uninstall`` puts every original back. Nothing under ``src/`` is
changed.

A span is (name, start, end, parent, request id). Spans are kept in memory in
flat arrays and written out when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import weakref
from array import array
from collections import Counter, defaultdict

TRACED_MODULES = (
    "scenario", "route", "identity", "engine", "analysis", "compiler",
    "lint", "cli", "records", "oracle", "templates",
)
# Analyses whose evaluate_flow calls are counted and checked for repeats.
ANALYSES = {
    "analysis.reachability_matrix": "matrix",
    "analysis.exfiltration_paths": "exfil",
    "analysis.blast_radius": "blast",
    "analysis.diff_decisions": "diff",
}
EVALUATE = "engine.evaluate_flow"
RESOLVE_PATH = "route.resolve_path"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.active = True
        self._next_request = 0
        self._patches: list[tuple[object, str, object]] = []
        # per-layer counts taken where the work happens
        self.decided_by: Counter[str] = Counter()
        self.route_calls = 0
        self.route_repeats = 0
        self._route_seen: dict[int, set] = {}
        self.analysis_calls: Counter[str] = Counter()
        self.analysis_distinct: Counter[str] = Counter()
        self._analysis_open: list[tuple[str, set]] = []

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, span_name: str, fn):
        nid = self._name_id(span_name)
        tracer = self
        hook = {
            EVALUATE: self._on_evaluate,
            RESOLVE_PATH: self._on_resolve_path,
        }.get(span_name)
        analysis = ANALYSES.get(span_name)
        perf = time.perf_counter

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.name)
            parent = stack[-1] if stack else -1
            if parent < 0 or span_name == EVALUATE:  # a new request
                req = tracer._next_request
                tracer._next_request += 1
            else:
                req = tracer.request[parent]
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.request.append(req)
            tracer.end.append(0.0)
            stack.append(idx)
            if analysis is not None:
                tracer._analysis_open.append((analysis, set()))
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                stack.pop()
                if analysis is not None:
                    name, seen = tracer._analysis_open.pop()
                    tracer.analysis_distinct[name] += len(seen)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        import yaml

        modules = {short: importlib.import_module(f"cloudperim.{short}") for short in TRACED_MODULES}
        wrappers: dict[object, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        index_cls = modules["scenario"].ScenarioIndex
        wrappers[index_cls] = self._wrap("scenario.ScenarioIndex", index_cls)
        package = importlib.import_module("cloudperim")
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        self._patch(yaml, "safe_load", self._wrap("yaml.safe_load", yaml.safe_load))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the wrappers stay in place)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- hooks --------------------------------------------------------------

    def _on_evaluate(self, args, kwargs, result) -> None:
        decision, trace = result
        point = next((step.point.value for step in trace if step.verdict.value == "deny"), "ALLOW")
        self.decided_by[point] += 1
        if self._analysis_open:
            scenario = args[0] if args else kwargs["s"]
            request = args[1] if len(args) > 1 else kwargs["r"]
            for name, seen in self._analysis_open:
                self.analysis_calls[name] += 1
                seen.add((id(scenario), request))

    def _on_resolve_path(self, args, kwargs, result) -> None:
        scenario, source, target = args[:3]
        self.route_calls += 1
        key = id(scenario)
        seen = self._route_seen.get(key)
        if seen is None:
            seen = self._route_seen[key] = set()
            weakref.finalize(scenario, self._route_seen.pop, key, None)
        if (source, target) in seen:
            self.route_repeats += 1
        else:
            seen.add((source, target))

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """Span name -> [calls, total seconds, self seconds]."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def child_totals(self, parent_name: str) -> dict[str, float]:
        """Seconds spent in each direct child of spans named ``parent_name``."""
        pid = self._name_ids.get(parent_name)
        out: dict[str, float] = defaultdict(float)
        if pid is None:
            return out
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0 and self.name[p] == pid:
                out[self.names[self.name[i]]] += self.end[i] - self.start[i]
        return out

    def nesting_errors(self, parent_name: str) -> int:
        """Spans named ``parent_name`` with a direct child that starts before
        them or ends after them, or whose children cover more than their
        duration."""
        pid = self._name_ids.get(parent_name)
        if pid is None:
            return 0
        covered: dict[int, float] = defaultdict(float)
        bad = set()
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0 and self.name[p] == pid:
                covered[p] += self.end[i] - self.start[i]
                if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                    bad.add(p)
        for p, seconds in covered.items():
            if seconds > self.end[p] - self.start[p]:
                bad.add(p)
        return len(bad)

    def write(self, path, limit: int) -> int:
        """Write up to ``limit`` spans as tab-separated lines; returns spans written."""
        n = min(limit, len(self.name))
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# spans={len(self.name)} written={n}\n")
            f.write("name\tstart\tend\tparent\trequest\n")
            for i in range(n):
                f.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.request[i]}\n"
                )
        return n
