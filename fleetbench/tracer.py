"""In-memory span tracer that times the fleet simulator's layers.

The tracer wraps public functions of each layer from outside the
package: methods are replaced on their classes, module-level functions
on every module that binds them.  Nothing under ``src/`` changes, and
:func:`instrument` returns an undo callable that restores the originals.

Every wrapped call records one span — name, start, end and the index of
the enclosing span — into flat arrays kept in memory.  Aggregates are
computed once, after the run: a span's *self* time is its duration
minus the durations of its direct children.  :meth:`Tracer.write` saves
the spans to one compressed ``.npz`` file at the end of a traced run.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.engine.roofline import CpuCostModel, GpuCostModel
from repro.faults.injector import FaultInjector
from repro.fleet.autoscaler import ReactiveAutoscaler
from repro.fleet.cluster import FleetSimulator
from repro.fleet.replica import Replica
from repro.fleet.router import Router
from repro.llm import graph
from repro.serving.stepcost import StepCostTable
from repro.tenancy import report as tenancy_report

#: Span names of the stepcost lookups (parents of cost-model misses).
STEPCOST_SPANS = ("stepcost.decode", "stepcost.prefill")
#: Span names of the cost models (one per backend family).
COSTMODEL_SPANS = ("costmodel.cpu", "costmodel.gpu")
#: Span names of the op-graph builders.
GRAPH_SPANS = ("graph.decode", "graph.prefill")


class Tracer:
    """Span recorder plus exact event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records one span called ``name``."""
        name_id = self._name_id(name)
        stack = self._stack
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col = self.start_col, self.end_col

        def traced(*args, **kwargs):
            index = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            end_col.append(0.0)
            stack.append(index)
            start_col.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- aggregates ------------------------------------------------------------

    def _columns(self):
        names = np.frombuffer(self.name_col, dtype=np.int32)
        parents = np.frombuffer(self.parent_col, dtype=np.int32)
        durations = (np.frombuffer(self.end_col, dtype=np.float64)
                     - np.frombuffer(self.start_col, dtype=np.float64))
        return names, parents, durations

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        names, parents, durations = self._columns()
        nested = parents >= 0
        child_s = np.bincount(parents[nested], weights=durations[nested],
                              minlength=len(names))
        self_s = durations - child_s
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=durations, minlength=size)
        own = np.bincount(names, weights=self_s, minlength=size)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child_names: tuple[str, ...],
                    parent_names: tuple[str, ...]) -> int:
        """Spans named in ``child_names`` whose direct parent is named in
        ``parent_names``."""
        names, parents, _ = self._columns()
        ids = [self._name_ids[n] for n in child_names if n in self._name_ids]
        parent_ids = [self._name_ids[n] for n in parent_names
                      if n in self._name_ids]
        if not ids or not parent_ids:
            return 0
        chosen = np.isin(names, ids) & (parents >= 0)
        return int(np.count_nonzero(np.isin(names[parents[chosen]],
                                            parent_ids)))

    def write(self, path: Path) -> None:
        """Save every span to ``path`` (one write, after the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, parents, _ = self._columns()
        np.savez_compressed(
            path, names=np.array(self.names), name=names, parent=parents,
            start_s=np.frombuffer(self.start_col, dtype=np.float64),
            end_s=np.frombuffer(self.end_col, dtype=np.float64))


# -- instrumentation -----------------------------------------------------------


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def instrument(tracer: Tracer):
    """Wrap every traced layer's public functions; returns the undo."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def method(cls: type, attr: str, name: str) -> None:
        # Every class in the hierarchy that defines its own override.
        for klass in _subclasses(cls):
            if attr in klass.__dict__:
                patch(klass, attr, tracer.span(name, klass.__dict__[attr]))

    def function(module, attr: str, name: str) -> None:
        # Rebind the function in every module that imported it by name.
        original = getattr(module, attr)
        wrapped = tracer.span(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                patch(loaded, attr, wrapped)

    # fleet.cluster: the run loop and its ticks.
    method(FleetSimulator, "run", "cluster.run")
    method(FleetSimulator, "run_tick", "cluster.tick")
    begin_run = FleetSimulator.__dict__["begin_run"]

    # Ticks spanned: the distance the run's clock travelled, in ticks.
    run_start_s = {}

    def begin_run_and_note_clock(self, requests):
        begin_run(self, requests)
        run_start_s[id(self)] = self.run_clock_s

    patch(FleetSimulator, "begin_run", begin_run_and_note_clock)
    finish_run = tracer.span("report.finish", FleetSimulator.finish_run)

    def finish_run_and_note_clock(self):
        tracer.counts["cluster.ticks_spanned"] += round(
            (self.run_clock_s - run_start_s.pop(id(self))) / self.tick_s)
        return finish_run(self)

    patch(FleetSimulator, "finish_run", finish_run_and_note_clock)

    # fleet.router: one choice per routed arrival; the routable count is
    # taken outside the choice's span, in a span of its own.
    count_routable = tracer.span("trace.count_routable", _count_routable)
    for klass in _subclasses(Router):
        if "choose" in klass.__dict__:
            choose = tracer.span("router.choose", klass.__dict__["choose"])

            def choose_and_count(self, request, replicas, now,
                                 _choose=choose):
                tracer.counts["router.replicas_scanned"] += count_routable(
                    replicas)
                return _choose(self, request, replicas, now)

            patch(klass, "choose", choose_and_count)

    # fleet.replica: TTFT estimates (routing) and serving.
    method(Replica, "estimated_ttft_s", "replica.estimate")
    method(Replica, "submit", "replica.submit")
    method(Replica, "step", "replica.step")
    method(Replica, "begin_attestation", "replica.begin_attestation")
    cancel = tracer.span("replica.cancel", Replica.__dict__["cancel"])

    def cancel_and_count(self, request_id):
        withdrawn = cancel(self, request_id)
        if withdrawn is not None:
            tracer.counts["faults.cancels"] += 1
        return withdrawn

    patch(Replica, "cancel", cancel_and_count)

    # serving.stepcost, engine.roofline and llm.graph.
    method(StepCostTable, "decode_step_s", "stepcost.decode")
    method(StepCostTable, "prefill_s", "stepcost.prefill")
    method(CpuCostModel, "step_cost", "costmodel.cpu")
    method(GpuCostModel, "step_cost", "costmodel.gpu")
    function(graph, "decode_step_ops", "graph.decode")
    function(graph, "prefill_ops", "graph.prefill")

    # fleet.autoscaler, faults and tenancy.report.
    method(ReactiveAutoscaler, "decide", "autoscaler.decide")
    method(FaultInjector, "due", "faults.due")
    function(tenancy_report, "tenant_breakdown", "report.tenant")

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def _count_routable(replicas) -> int:
    return sum(1 for replica in replicas if replica.routable)
