"""The h-index iteration baseline (Lü et al., Nature Comm. 2016).

A third independent route to the coreness: start every node at its
degree and repeatedly replace each node's value with the H-index of its
neighbours' values (the largest ``i`` such that at least ``i``
neighbours hold value ``>= i``). The sequence converges to the coreness
— this is exactly the *synchronous Jacobi iteration* of the paper's
distributed operator, so its sweep count also cross-checks the lockstep
engine's round count (asserted in the tests).

Since PR 4 the baseline runs as flat CSR sweeps on the shared kernel
layer (:mod:`repro.sim.kernels`) instead of chasing object-graph
adjacency dicts: one :meth:`~repro.sim.kernels.base.KernelBackend.
hindex_sweep` kernel call per sweep, with ``backend="stdlib"``
(canonical loops, default) or ``backend="numpy"`` (one segmented-sort
``computeIndex`` batch per sweep) producing bit-identical values and
sweep counts.
"""

from __future__ import annotations

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sim.kernels import resolve_backend

__all__ = ["hindex_iteration"]


def hindex_iteration(
    graph: "Graph | CSRGraph",
    max_sweeps: int = 1_000_000,
    backend: str = "stdlib",
) -> tuple[dict[int, int], int]:
    """Return ``(coreness, sweeps)`` via synchronous h-index iteration.

    One sweep recomputes every node from the previous sweep's values
    (Jacobi, not Gauss-Seidel — matching the synchronous round model).
    ``sweeps`` counts iterations until the first sweep with no change.
    Accepts a :class:`Graph` (converted to CSR internally) or a
    prebuilt :class:`CSRGraph`; ``backend`` picks the kernel backend.

    >>> from repro.graph.generators import clique_graph
    >>> values, sweeps = hindex_iteration(clique_graph(4))
    >>> values == {0: 3, 1: 3, 2: 3, 3: 3}, sweeps
    (True, 1)
    """
    kb = resolve_backend(backend)
    csr = (
        graph if isinstance(graph, CSRGraph)
        else CSRGraph.from_graph(graph, backend=kb)
    )
    n = csr.num_nodes
    offsets = kb.graph_array(csr.offsets)
    targets = kb.graph_array(csr.targets)
    values = kb.degrees(offsets, n)
    scratch: list[int] = []
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        changed, values = kb.hindex_sweep(offsets, targets, values, scratch)
        if not changed:
            break
    ids = csr.ids
    return {ids[i]: int(values[i]) for i in range(n)}, sweeps
