"""Compressed sparse row (CSR) graph storage.

:class:`Graph` stores adjacency as ``dict[int, set[int]]`` — ideal for
mutation and membership tests, but every neighbour visit chases a dict
entry and a set iterator, and every node costs several Python objects.
:class:`CSRGraph` is the complementary *read-optimised* representation:
all adjacency lives in two flat stdlib ``array`` buffers,

* ``offsets`` — ``n + 1`` indices; node ``i``'s neighbours occupy
  ``targets[offsets[i]:offsets[i + 1]]``;
* ``targets`` — ``2m`` compact neighbour indices, sorted within each
  slice.

Node ids are *compacted*: original (possibly non-contiguous) ids are
sorted ascending and mapped to ``0..n-1``; ``ids[i]`` recovers the
original id and :meth:`index` maps back. Because the compaction is
sorted, iterating compact indices ``0..n-1`` visits nodes in ascending
original-id order — exactly the deterministic activation order of the
lockstep engine, which is what lets the flat protocol engine
(:mod:`repro.sim.flat_engine`) and the array Batagelj–Zaveršnik baseline
run straight over a ``CSRGraph`` with no per-node translation.

The structure is immutable by convention: builders produce it, engines
read it. Mutation workloads stay on :class:`Graph` and convert with
:meth:`from_graph` / :meth:`to_graph` at the boundary.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.graph import Graph

if TYPE_CHECKING:
    from repro.sim.kernels.base import KernelBackend

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable undirected simple graph in compressed sparse row form.

    >>> csr = CSRGraph.from_edges([(0, 1), (1, 2)])
    >>> csr.num_nodes, csr.num_edges
    (3, 2)
    >>> list(csr.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "offsets",
        "targets",
        "ids",
        "_index_of",
        "_mirror",
        "_edge_owners",
        "name",
    )

    def __init__(
        self,
        offsets: array,
        targets: array,
        ids: array,
        name: str = "",
    ) -> None:
        self.offsets = offsets
        self.targets = targets
        self.ids = ids
        self.name = name
        self._index_of: dict[int, int] | None = None
        self._mirror: array | None = None
        self._edge_owners: array | None = None

    # ------------------------------------------------------------------
    # pickling — a CSRGraph crosses process boundaries (the
    # multi-process sharded engine ships graph structure to workers), so
    # the wire format is explicit: the three immutable buffers plus the
    # name. The lazy caches (_index_of / _mirror / _edge_owners) are
    # derived data; dropping them keeps payloads minimal and they
    # rebuild on first use in the receiving process.
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        return (self.offsets, self.targets, self.ids, self.name)

    def __setstate__(self, state: tuple) -> None:
        self.offsets, self.targets, self.ids, self.name = state
        self._index_of = None
        self._mirror = None
        self._edge_owners = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        name: str | None = None,
        backend: "str | KernelBackend | None" = None,
    ) -> "CSRGraph":
        """Compact a :class:`Graph`; nodes are ordered by ascending id.

        ``backend`` names the kernel backend that builds the buffers
        (default stdlib); every backend builds the same buffers.
        """
        from repro.sim.kernels import resolve_backend

        offsets, targets, ids, index_of = resolve_backend(
            backend
        ).csr_from_graph(graph)
        csr = cls(offsets, targets, ids, name=graph.name if name is None else name)
        if index_of is not None:
            csr._index_of = index_of
        return csr

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        num_nodes: int | None = None,
        name: str = "",
        backend: "str | KernelBackend | None" = None,
    ) -> "CSRGraph":
        """Build from an edge iterable without a :class:`Graph` detour.

        Semantics match :meth:`Graph.from_edges`: self-loops are dropped
        (but still testify that the node exists), duplicate edges
        collapse, and ``num_nodes`` forces ``0..num_nodes-1`` to exist
        even when isolated. The buffers come from the backend's
        canonical edges -> CSR kernel, the one the edge-list reader
        uses.
        """
        from repro.sim.kernels import resolve_backend

        us: list[int] = []
        vs: list[int] = []
        for u, v in edges:
            if not isinstance(u, int) or not isinstance(v, int):
                raise GraphError(f"node ids must be integers, got ({u!r}, {v!r})")
            us.append(u)
            vs.append(v)
        offsets, targets, ids = resolve_backend(backend).csr_from_pairs(
            us, vs, num_nodes
        )
        return cls(offsets, targets, ids, name=name)

    def to_graph(self, name: str | None = None) -> Graph:
        """Round-trip back to a mutable :class:`Graph` (original ids)."""
        graph = Graph(name=self.name if name is None else name)
        ids = self.ids
        for u in ids:
            graph.add_node(u)
        offsets, targets = self.offsets, self.targets
        for i in range(len(ids)):
            u = ids[i]
            for e in range(offsets[i], offsets[i + 1]):
                j = targets[e]
                if i < j:
                    graph.add_edge(u, ids[j])
        return graph

    # ------------------------------------------------------------------
    # queries (compact-index based)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.targets) // 2

    def node_id(self, i: int) -> int:
        """Original id of compact index ``i``."""
        return self.ids[i]

    def index(self, node: int) -> int:
        """Compact index of original id ``node``."""
        if self._index_of is None:
            self._index_of = {u: i for i, u in enumerate(self.ids)}
        try:
            return self._index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, i: int) -> int:
        """Degree of compact index ``i``."""
        return self.offsets[i + 1] - self.offsets[i]

    def neighbors_slice(self, i: int) -> tuple[int, int]:
        """``(start, end)`` bounds of node ``i``'s slice in ``targets``."""
        return self.offsets[i], self.offsets[i + 1]

    def neighbors(self, i: int) -> array:
        """Compact neighbour indices of node ``i`` (sorted ascending)."""
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def max_degree(self) -> int:
        """The paper's ``Δ`` (0 for an empty graph)."""
        offsets = self.offsets
        return max(
            (offsets[i + 1] - offsets[i] for i in range(len(self.ids))),
            default=0,
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as compact ``(min, max)`` pairs."""
        offsets, targets = self.offsets, self.targets
        for i in range(len(self.ids)):
            for e in range(offsets[i], offsets[i + 1]):
                j = targets[e]
                if i < j:
                    yield (i, j)

    # ------------------------------------------------------------------
    # derived flat structures (cached; used by the flat engines)
    # ------------------------------------------------------------------
    def edge_owners(
        self, backend: "str | KernelBackend | None" = None
    ) -> array:
        """``owner[e]`` — the compact node whose slice contains edge ``e``.

        Built once by ``backend`` (default stdlib; all build the same
        buffer) and cached.
        """
        if self._edge_owners is None:
            from repro.sim.kernels import resolve_backend

            self._edge_owners = resolve_backend(backend).csr_edge_owners(
                self.offsets
            )
        return self._edge_owners

    def mirror(self, backend: "str | KernelBackend | None" = None) -> array:
        """``mirror[e]`` — index of the reverse directed edge of ``e``.

        If ``e`` sits in ``u``'s slice and points at ``v``, ``mirror[e]``
        sits in ``v``'s slice and points back at ``u``. Scanning edges
        in (owner, target) order visits the in-edges of each node ``v``
        with owners ascending — exactly ``v``'s (sorted) slice order —
        so each reverse position is the next unfilled slot of ``v``'s
        slice. Built once by ``backend`` (default stdlib; all build the
        same buffer) and cached.
        """
        if self._mirror is None:
            from repro.sim.kernels import resolve_backend

            self._mirror = resolve_backend(backend).csr_mirror(
                self.offsets, self.targets
            )
        return self._mirror

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} nodes={self.num_nodes} edges={self.num_edges}>"
        )
