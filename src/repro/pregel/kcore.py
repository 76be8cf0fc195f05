"""k-core decomposition as a Pregel program.

The vertex-centric port of Algorithm 1:

* superstep 0 — every vertex sets its value to its degree, sends
  ``(id, value)`` to all neighbours, and votes to halt;
* later supersteps — fold incoming estimates into the local ``est``
  table, recompute ``computeIndex``; if the value dropped, send the new
  value to all neighbours (optionally filtered as in Section 3.1.2),
  then vote to halt again.

A :class:`~repro.pregel.framework.MinCombiner` deduplicates multiple
estimates from the same sender within a superstep. The number of
supersteps matches the lockstep round engine's round count — both are
bulk-synchronous — which the tests assert.

Two execution paths (PR 4):

* ``engine="object"`` (default) — the faithful
  :class:`~repro.pregel.framework.PregelMaster` run over
  :class:`KCoreVertex` objects, with combiners, aggregators and
  observers of the BSP machinery itself.
* ``engine="flat"`` — the same program as flat CSR sweeps on the
  shared kernel layer (:mod:`repro.sim.kernels`): supersteps are
  lockstep kernel rounds (seed / fold / frontier), and the
  inter-/intra-worker message split is recomputed per superstep from
  the worker placement array. Supersteps, per-superstep message *and
  active-vertex* counts (``stats.extra["active_per_superstep"]``, both
  engines), total messages, the worker traffic split and the coreness
  are identical to the object path (``combined_away`` is identically 0
  for this program: a vertex sends at most one message per neighbour
  per superstep, so the per-(sender, destination) combiner never
  fires).
  ``backend="stdlib"`` or ``"numpy"`` picks the kernel backend.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.assignment import assign
from repro.core.compute_index import compute_index
from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.graph import Graph
from repro.pregel.framework import (
    MaxAggregator,
    MinCombiner,
    PregelMaster,
    SumAggregator,
    Vertex,
    VertexContext,
)
from repro.sim.metrics import SimulationStats

__all__ = ["KCoreVertex", "run_pregel_kcore"]


class KCoreVertex(Vertex[int]):
    """One graph node; ``value`` is the current coreness estimate."""

    __slots__ = ("est", "optimize_sends")

    def __init__(
        self, vid: int, neighbors: Sequence[int], optimize_sends: bool = True
    ) -> None:
        super().__init__(vid, value=len(neighbors), neighbors=neighbors)
        self.est: dict[int, int] = {}
        self.optimize_sends = optimize_sends

    def compute(self, ctx: VertexContext, messages: Sequence[object]) -> None:
        if ctx.superstep == 0:
            self.value = len(self.neighbors)
            for v in self.neighbors:
                ctx.send(v, (self.vid, self.value))
            ctx.vote_to_halt()
            return

        changed = False
        for sender, estimate in messages:  # type: ignore[misc]
            if estimate < self.est.get(sender, estimate + 1):
                self.est[sender] = estimate
                changed = True
        if changed:
            fallback = self.value + 1  # stands in for +inf
            t = compute_index(
                (self.est.get(v, fallback) for v in self.neighbors),
                self.value,
            )
            if t < self.value:
                self.value = t
                for v in self.neighbors:
                    if (
                        self.optimize_sends
                        and v in self.est
                        and self.value >= self.est[v]
                    ):
                        continue
                    ctx.send(v, (self.vid, self.value))
        ctx.vote_to_halt()


def _run_flat(
    graph: Graph,
    num_workers: int,
    optimize_sends: bool,
    partition_policy: str,
    max_supersteps: int,
    backend: str,
) -> DecompositionResult:
    """The BSP program as flat kernel sweeps (see module docstring).

    One superstep == one lockstep kernel round: superstep 0 broadcasts
    every degree (one message per directed edge slot), superstep 1
    seeds the estimate table from those degrees, and every later
    superstep folds the previous superstep's slots and recomputes the
    frontier. The guard and termination tests mirror
    :meth:`PregelMaster.run` exactly (guard *before* the empty-inbox
    break, so ``max_supersteps == actual supersteps`` still raises).
    """
    from array import array as _array

    from repro.graph.csr import CSRGraph
    from repro.sim.kernels import resolve_backend

    kb = resolve_backend(backend)
    csr = CSRGraph.from_graph(graph, backend=kb)
    assignment = assign(graph, num_workers, policy=partition_policy)
    n = csr.num_nodes
    offsets = kb.graph_array(csr.offsets)
    targets = kb.graph_array(csr.targets)
    mirror = kb.graph_array(csr.mirror(kb))
    owner = kb.graph_array(csr.edge_owners(kb))
    host_of = assignment.host_of
    worker_of = kb.graph_array(
        _array("q", [host_of[csr.ids[i]] for i in range(n)])
    )
    num_slots = len(csr.targets)

    sentinel = csr.max_degree() + 1
    est = kb.full(num_slots, sentinel)
    incoming = kb.full(num_slots, 0)
    core = kb.full(n, 0)
    sup = kb.full(n, 0)
    sent = kb.full(n, 0)  # unused by the result (the object path
    # exports no per-vertex counts either) but required by the kernel
    in_frontier = bytearray(n)
    scratch: list[int] = []
    degree = kb.degrees(offsets, n)

    superstep = 0
    messages_per_superstep: list[int] = []
    active_per_superstep: list[int] = []
    intra = 0
    sends = 0
    slots = None
    seeded = False
    while True:
        if superstep >= max_supersteps:
            raise ConvergenceError(
                superstep, "Pregel run exceeded max_supersteps"
            )
        if superstep > 0 and not sends:
            break
        if superstep == 0:
            # every vertex is initially active and computes once
            active_per_superstep.append(n)
            core[:] = degree
            sends = num_slots
            intra += kb.count_intra(None, owner, targets, worker_of)
        else:
            # a vertex is active exactly when last superstep's slots
            # address it (every vertex votes to halt each superstep, so
            # only an incoming message reactivates) — the master's
            # active_per_superstep, recomputed from the slot owners
            active_per_superstep.append(
                kb.count_distinct_owners(slots, owner, n)
            )
            if not seeded:
                seeded = True
                frontier = kb.seed_estimates(
                    offsets, targets, owner, degree, est, sup, in_frontier
                )
            else:
                frontier = kb.fold_slots(
                    slots, incoming, est, owner, core, sup, in_frontier
                )
            sends, slots = kb.process_frontier(
                frontier, offsets, targets, mirror, est, core, sup,
                incoming, sent, optimize_sends, scratch, in_frontier,
            )
            sends = int(sends)
            intra += kb.count_intra(slots, owner, targets, worker_of)
        messages_per_superstep.append(sends)
        superstep += 1

    total = sum(messages_per_superstep)
    stats = SimulationStats(
        rounds_executed=superstep,
        execution_time=sum(1 for count in messages_per_superstep if count),
        total_messages=total,
        sent_per_process={},
        sends_per_round=messages_per_superstep,
        converged=True,
    )
    stats.extra.update(
        supersteps=superstep,
        inter_worker_messages=total - intra,
        intra_worker_messages=intra,
        combined_away=0,
        active_per_superstep=active_per_superstep,
        num_workers=num_workers,
    )
    ids = csr.ids
    coreness = {ids[i]: int(core[i]) for i in range(n)}
    return DecompositionResult(
        coreness=coreness,
        stats=stats,
        algorithm=f"pregel/{num_workers}w-flat",
    )


def run_pregel_kcore(
    graph: Graph,
    num_workers: int = 4,
    optimize_sends: bool = True,
    partition_policy: str = "modulo",
    use_combiner: bool = True,
    max_supersteps: int = 1_000_000,
    engine: str = "object",
    backend: str = "stdlib",
) -> DecompositionResult:
    """Run the k-core Pregel program; returns a decomposition result.

    ``stats.extra`` carries the Pregel-specific counters: supersteps,
    inter-/intra-worker message split, and combiner savings.
    ``engine="flat"`` selects the kernel-layer fast path (identical
    counters; ``use_combiner`` is irrelevant there because the program
    never produces a combinable pair — see the module docstring);
    ``backend`` picks its kernel backend and is rejected on the object
    engine, which runs vertex objects, not kernels.
    """
    if engine not in ("object", "flat"):
        raise ConfigurationError(
            f"unknown pregel engine {engine!r}; options: ['object', 'flat']"
        )
    if engine == "object" and backend != "stdlib":
        raise ConfigurationError(
            f"backend={backend!r} selects a flat-kernel backend and "
            "applies to engine='flat' only; the object Pregel master "
            "runs vertex objects, not kernels"
        )
    if engine == "flat":
        return _run_flat(
            graph,
            num_workers=num_workers,
            optimize_sends=optimize_sends,
            partition_policy=partition_policy,
            max_supersteps=max_supersteps,
            backend=backend,
        )
    vertices = [
        KCoreVertex(u, graph.sorted_neighbors(u), optimize_sends)
        for u in graph.nodes()
    ]
    master = PregelMaster(
        vertices,
        num_workers=num_workers,
        graph=graph,
        combiner=MinCombiner() if use_combiner else None,
        aggregators=(MaxAggregator("max-estimate"), SumAggregator("active")),
        max_supersteps=max_supersteps,
        partition_policy=partition_policy,
    )
    pregel_stats = master.run()

    stats = SimulationStats(
        rounds_executed=pregel_stats.supersteps,
        execution_time=sum(
            1 for count in pregel_stats.messages_per_superstep if count
        ),
        total_messages=pregel_stats.total_messages,
        sent_per_process={},
        sends_per_round=list(pregel_stats.messages_per_superstep),
        converged=pregel_stats.converged,
    )
    stats.extra.update(
        supersteps=pregel_stats.supersteps,
        inter_worker_messages=pregel_stats.inter_worker_messages,
        intra_worker_messages=pregel_stats.intra_worker_messages,
        combined_away=pregel_stats.combined_away,
        active_per_superstep=list(pregel_stats.active_per_superstep),
        num_workers=num_workers,
    )
    coreness = {v.vid: int(v.value) for v in master.vertices.values()}
    return DecompositionResult(
        coreness=coreness,
        stats=stats,
        algorithm=f"pregel/{num_workers}w",
    )
