"""Per-layer split of one traced operation.

Spans come from two places and land in one
:class:`repro.telemetry.Tracer`:

* :func:`layer_probe` wraps the public entry point of each layer
  (``CSRGraph.from_graph``, ``assign``, ``ShardedCSR``, each engine's
  ``run`` and ``coreness``) in a span named after its module, for as
  long as the ``with`` block lasts. The benchmark times
  ``read_edge_list`` itself. No span is added to the library.
* the engines' own spans (``kernel.*``, ``emit``, ``spawn``,
  ``barrier.recv``, worker lanes, ``churn.apply_batch`` ...), recorded
  because the traced operation passes the tracer as ``telemetry=``.

:func:`layer_metrics` folds the span forest into the ``per_layer``
metrics of ``BENCHMARK.json``. A layer the workload never enters
reports 0, which is the benchmark's prediction for that pairing.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager

#: (name, unit) of every per-layer metric, in report order; must equal
#: the ``per_layer`` list of BENCHMARK.json (the smoke check enforces it).
PER_LAYER = (
    ("graph.io.read_s", "s"),
    ("graph.io.edges_per_s", "1/s"),
    ("graph.csr.build_s", "s"),
    ("graph.csr.mirror_s", "s"),
    ("graph.csr.edge_owners_s", "s"),
    ("core.assignment.assign_s", "s"),
    ("core.assignment.cut_edges", "count"),
    ("graph.sharded.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.rounds", "count"),
    ("sim.messages", "count"),
    ("sim.estimates_sent", "count"),
    ("sim.kernels.seed_s", "s"),
    ("sim.kernels.fold_s", "s"),
    ("sim.kernels.frontier_s", "s"),
    ("sim.kernels.cascade_s", "s"),
    ("sim.kernels.fold_mailbox_s", "s"),
    ("sim.emit_s", "s"),
    ("sim.estimates_per_cut_edge", "ratio"),
    ("sim.mp_engine.spawn_s", "s"),
    ("sim.mp_engine.barrier_wait_s", "s"),
    ("sim.mp_engine.worker_round_max_s", "s"),
    ("sim.mp_engine.worker_peak_rss_mb", "MB"),
    ("sim.shm_transport.bytes", "bytes"),
    ("sim.shm_transport.write_s", "s"),
    ("sim.shm_transport.read_s", "s"),
    ("sim.shm_transport.overflow_batches", "count"),
    ("core.result.coreness_s", "s"),
    ("streaming.apply_batch_s", "s"),
    ("streaming.reconverge_s", "s"),
    ("streaming.compact_s", "s"),
    ("streaming.reconverge_rounds", "count"),
    ("streaming.compactions", "count"),
    ("streaming.dirty_nodes", "count"),
    ("streaming.changed_nodes", "count"),
    ("streaming.changed_per_dirty", "ratio"),
    ("baselines.bz_s", "s"),
    ("telemetry.overhead", "ratio"),
    ("telemetry.coverage", "ratio"),
)

# (module, class or None, attribute, span name). A module-level
# function is re-bound in every loaded ``repro`` module that imported it
# by name, so the runners' own references are timed too.
_TARGETS = (
    ("repro.graph.csr", "CSRGraph", "from_graph", "graph.csr.build"),
    ("repro.graph.csr", "CSRGraph", "mirror", "graph.csr.mirror"),
    ("repro.graph.csr", "CSRGraph", "edge_owners", "graph.csr.edge_owners"),
    ("repro.core.assignment", None, "assign", "core.assignment.assign"),
    ("repro.graph.sharded", "ShardedCSR", "__init__", "graph.sharded.build"),
    ("repro.sim.flat_engine", "FlatOneToOneEngine", "run", "sim.run"),
    ("repro.sim.flat_engine", "FlatOneToOneEngine", "coreness",
     "core.result.coreness"),
    ("repro.sim.flat_many_engine", "FlatOneToManyEngine", "run", "sim.run"),
    ("repro.sim.flat_many_engine", "FlatOneToManyEngine", "coreness",
     "core.result.coreness"),
    ("repro.sim.mp_engine", "MultiProcessOneToManyEngine", "run", "sim.run"),
    ("repro.sim.mp_engine", "MultiProcessOneToManyEngine", "coreness",
     "core.result.coreness"),
)

_KERNELS = {
    "kernel.seed_estimates": "sim.kernels.seed_s",
    "kernel.seed_shard": "sim.kernels.seed_s",
    "kernel.fold_slots": "sim.kernels.fold_s",
    "kernel.process_frontier": "sim.kernels.frontier_s",
    "kernel.cascade": "sim.kernels.cascade_s",
    "kernel.fold_mailbox": "sim.kernels.fold_mailbox_s",
}


def _timed(fn, tracer, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def layer_probe(tracer):
    """Time each layer's public entry point into ``tracer``."""
    undo = []
    try:
        for module_name, cls_name, attr, span in _TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                original = getattr(module, attr)
                timed = _timed(original, tracer, span)
                for name, loaded in list(sys.modules.items()):
                    if (
                        name.startswith("repro")
                        and getattr(loaded, attr, None) is original
                    ):
                        setattr(loaded, attr, timed)
                        undo.append((loaded, attr, original))
                continue
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                timed = classmethod(_timed(raw.__func__, tracer, span))
            else:
                timed = _timed(raw, tracer, span)
            setattr(owner, attr, timed)
            undo.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def span_forest(buffers):
    """``[(lane, name, duration, self_time, args, parent_name)]``.

    Spans of one lane nest properly (one thread records them), so
    sorting by start time and keeping a stack recovers the tree.
    """
    out = []
    for lane, events in buffers:
        spans = sorted(
            (e for e in events if e[0] == "X"), key=lambda e: (e[2], -e[3])
        )
        stack: list = []  # [t1, row index]
        for _kind, name, t0, t1, args in spans:
            while stack and stack[-1][0] <= t0:
                stack.pop()
            parent = out[stack[-1][1]] if stack else None
            row = [lane, name, t1 - t0, t1 - t0, args or {},
                   parent[1] if parent else None]
            if parent is not None:
                parent[3] -= t1 - t0
            out.append(row)
            stack.append((t1, len(out) - 1))
    return out


def _total(forest, *names):
    return sum(r[2] for r in forest if r[1] in names)


def layer_metrics(forest, *, op_name, edges=0, stats=None,
                  churn_metrics=None):
    """Fold one traced operation's spans into the per-layer metrics.

    ``op_name`` is the benchmark's root span and ``edges`` the edge
    count of the file read inside it; ``stats`` is the run's
    ``SimulationStats`` (batch workloads), ``churn_metrics`` the
    ``ChurnService.metrics`` dict (churn).
    """
    m = {name: 0.0 for name, _unit in PER_LAYER}
    m["graph.io.read_s"] = _total(forest, "graph.io.read")
    m["graph.csr.build_s"] = _total(forest, "graph.csr.build")
    m["graph.csr.mirror_s"] = _total(forest, "graph.csr.mirror")
    m["graph.csr.edge_owners_s"] = _total(forest, "graph.csr.edge_owners")
    m["core.assignment.assign_s"] = _total(forest, "core.assignment.assign")
    m["graph.sharded.build_s"] = _total(forest, "graph.sharded.build")
    # the engines build their CSR side tables lazily inside run(); that
    # time is reported under graph.csr, not sim
    m["sim.run_s"] = (
        _total(forest, "sim.run")
        - m["graph.csr.mirror_s"] - m["graph.csr.edge_owners_s"]
    )
    m["core.result.coreness_s"] = _total(forest, "core.result.coreness")
    for row in forest:
        metric = _KERNELS.get(row[1])
        if metric is not None:
            m[metric] += row[3]
    workers = [r for r in forest if r[0].startswith("worker-")]
    # in-process emit is one span; a worker's emit is the part of its
    # round that no kernel, mail or transport span covers, plus pickling
    m["sim.emit_s"] = _total(forest, "emit") + sum(
        r[3] for r in workers if r[1] == "round"
    ) + _total(workers, "emit.serialize")
    coordinator = [r for r in forest if not r[0].startswith("worker-")]
    m["sim.mp_engine.spawn_s"] = _total(coordinator, "spawn")
    m["sim.mp_engine.barrier_wait_s"] = _total(coordinator, "barrier.recv")
    slowest: dict = {}
    for r in workers:
        if r[1] == "round":
            rnd = r[4].get("round")
            slowest[rnd] = max(slowest.get(rnd, 0.0), r[2])
    m["sim.mp_engine.worker_round_max_s"] = sum(slowest.values())
    m["sim.shm_transport.write_s"] = _total(workers, "emit.shm_write")
    m["sim.shm_transport.read_s"] = _total(workers, "mail.shm_read")

    if stats is not None:
        extra = stats.extra
        m["sim.rounds"] = stats.execution_time
        m["sim.messages"] = stats.total_messages
        m["sim.estimates_sent"] = extra.get("estimates_sent_total", 0)
        m["core.assignment.cut_edges"] = extra.get("cut_edges", 0)
        if m["core.assignment.cut_edges"]:
            m["sim.estimates_per_cut_edge"] = (
                m["sim.estimates_sent"] / m["core.assignment.cut_edges"]
            )
        m["sim.shm_transport.bytes"] = extra.get("shm_bytes_total", 0)
        m["sim.shm_transport.overflow_batches"] = extra.get(
            "shm_overflow_batches", 0
        )

    if churn_metrics is not None:
        m["streaming.apply_batch_s"] = _total(forest, "churn.apply_batch")
        m["streaming.reconverge_s"] = _total(forest, "kernel.reconverge")
        m["streaming.compact_s"] = _total(forest, "csr.compact")
        m["streaming.reconverge_rounds"] = sum(
            churn_metrics["reconverge_rounds_per_batch"]
        )
        m["streaming.compactions"] = churn_metrics["compactions"]
        m["streaming.dirty_nodes"] = churn_metrics["dirty_nodes_total"]
        m["streaming.changed_nodes"] = sum(
            r[4].get("changed", 0)
            for r in forest if r[1] == "kernel.reconverge"
        )
        if m["streaming.dirty_nodes"]:
            m["streaming.changed_per_dirty"] = (
                m["streaming.changed_nodes"] / m["streaming.dirty_nodes"]
            )

    if m["graph.io.read_s"]:
        m["graph.io.edges_per_s"] = edges / m["graph.io.read_s"]
    op = [r for r in forest if r[1] == op_name]
    if op:
        covered = sum(r[2] for r in forest if r[5] == op_name)
        m["telemetry.coverage"] = covered / op[0][2]
    return m
