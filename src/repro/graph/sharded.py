"""Sharded CSR storage — the partition layer for the one-to-many fast path.

:class:`~repro.graph.csr.CSRGraph` answers "what does the whole graph
look like"; the one-to-many protocol (Section 3.2) instead needs "what
does host ``x``'s *slice* of the graph look like": the nodes ``V(x)`` it
owns, their adjacency, and — crucially — the boundary structure through
which estimates cross hosts. :class:`ShardedCSR` materialises exactly
that, once, from a ``CSRGraph`` plus an
:class:`~repro.core.assignment.Assignment`:

* every host gets a :class:`HostShard` — a sub-CSR in a *local index
  space*: owned nodes are ``0..n_owned-1`` (ascending original id, the
  same order as ``Assignment.owned``), and the external nodes
  ``neighborV(x)`` follow as ``n_owned..n_owned+n_ext-1`` (in
  deterministic first-encounter order). A shard's ``targets`` never
  mention another shard's index space, so per-shard protocol state is a
  single flat array of length ``n_owned + n_ext``;
* the boundary tables the host protocol reads every round are
  precomputed flat: ``watch_offsets``/``watch_targets`` (which owned
  nodes care about an external estimate — the object engine's
  ``external_watchers``), per owned node ``deliver`` (every
  ``(neighbour host, destination mailbox slot)`` pair its estimate must
  reach — the transmit loop iterates exactly the relevant pairs, no
  per-host membership test), per neighbour host ``dest_slots`` (border
  membership *and* the destination slot in one dict — Algorithm 5's
  ``border``) and ``remote_slots`` (the owned node's external
  neighbours on that host, as local ext slots — the ``p2p_filter``
  extension's ``remote_neighbors``; built lazily, only the filter
  needs it);
* the host-to-host edge cuts are counted during the build:
  ``HostShard.cut_to[y]`` is the number of directed edges leaving the
  shard for host ``y``, and :attr:`ShardedCSR.cut_edges` is the global
  undirected cut — identical to ``Assignment.cut_edges(graph)`` without
  the per-edge Python loop over the object graph.

The structure is immutable by convention, like ``CSRGraph``: builders
produce it, the flat one-to-many engine
(:mod:`repro.sim.flat_many_engine`) reads it. It is also the substrate
the ROADMAP's later items (numpy kernels per shard, real multi-process
sharding, streaming on CSR) are meant to build on: everything a real
worker process would need to run its shard — local CSR, mailbox slot
maps, cut sizes — is already separated per host.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.core.assignment import Assignment
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

if TYPE_CHECKING:
    from repro.sim.kernels.base import KernelBackend

__all__ = ["HostShard", "ShardedCSR"]


class HostShard:
    """One host's slice of a :class:`ShardedCSR` (see module docstring).

    Local index space: ``0..n_owned-1`` are the owned nodes (ascending
    original id), ``n_owned..n_owned+n_ext-1`` the external boundary
    nodes (deterministic first-encounter order). ``owned_global[u]`` /
    ``ext_global[s]`` map back to the parent CSR's compact indices.
    """

    __slots__ = (
        "host",
        "n_owned",
        "n_ext",
        "owned_global",
        "ext_global",
        "_ext_index",
        "ext_host",
        "offsets",
        "targets",
        "watch_offsets",
        "watch_targets",
        "neighbor_hosts",
        "deliver",
        "cut_to",
        "_dest_slots",
        "_remote_slots",
    )

    def __init__(self, host: int) -> None:
        self.host = host
        self.n_owned = 0
        self.n_ext = 0
        #: global (parent-CSR compact) index of each owned local node
        self.owned_global: array = array("q")
        #: global index of each external boundary node
        self.ext_global: array = array("q")
        self._ext_index: dict[int, int] | None = None
        #: owning host of each external boundary node
        self.ext_host: array = array("q")
        #: local CSR over owned nodes; targets are local indices
        self.offsets: array = array("q", [0])
        self.targets: array = array("q")
        #: CSR from ext slot -> owned local nodes adjacent to it
        self.watch_offsets: array = array("q", [0])
        self.watch_targets: array = array("q")
        #: hosts owning at least one neighbour of an owned node (sorted)
        self.neighbor_hosts: tuple[int, ...] = ()
        #: per owned local node u: every (neighbour host y, y's ext slot
        #: for u) pair — the full delivery list of u's estimate
        self.deliver: list[list[tuple[int, int]]] = []
        #: per neighbour host y: directed edge count from this shard to y
        self.cut_to: dict[int, int] = {}
        self._dest_slots: dict[int, dict[int, int]] | None = None
        self._remote_slots: dict[int, dict[int, tuple[int, ...]]] | None = None

    # ------------------------------------------------------------------
    # pickling — the multi-process engine ships exactly one HostShard to
    # each worker process, so the wire format is explicit: every
    # precomputed table travels, the lazy caches (_ext_index,
    # _dest_slots, _remote_slots) are dropped and rebuild on first
    # access in the receiving process (only the p2p_filter path reads
    # them, and it is cheaper to rebuild per worker than to ship them).
    # ------------------------------------------------------------------
    _PICKLED_SLOTS = (
        "host",
        "n_owned",
        "n_ext",
        "owned_global",
        "ext_global",
        "ext_host",
        "offsets",
        "targets",
        "watch_offsets",
        "watch_targets",
        "neighbor_hosts",
        "deliver",
        "cut_to",
    )

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._PICKLED_SLOTS}

    def __setstate__(self, state: dict) -> None:
        for name in self._PICKLED_SLOTS:
            setattr(self, name, state[name])
        self._ext_index = None
        self._dest_slots = None
        self._remote_slots = None

    def degree(self, u: int) -> int:
        """Degree of owned local node ``u`` (internal + external edges)."""
        return self.offsets[u + 1] - self.offsets[u]

    def border(self, y: int) -> frozenset[int]:
        """Owned local nodes with at least one neighbour on host ``y``."""
        return frozenset(self.dest_slots.get(y, ()))

    @property
    def ext_index(self) -> dict[int, int]:
        """Global index -> local ext slot (inverse of ``ext_global``)."""
        if self._ext_index is None:
            self._ext_index = {g: s for s, g in enumerate(self.ext_global)}
        return self._ext_index

    @property
    def dest_slots(self) -> dict[int, dict[int, int]]:
        """Per neighbour host y: {owned local u -> y's ext slot for u}.

        The key set is exactly the border toward y (Algorithm 5) —
        derived lazily from the delivery lists; only the ``p2p_filter``
        transmit path and introspection read this per-host view.
        """
        if self._dest_slots is None:
            table: dict[int, dict[int, int]] = {}
            for u, pairs in enumerate(self.deliver):
                for y, s in pairs:
                    per_host = table.get(y)
                    if per_host is None:
                        per_host = table[y] = {}
                    per_host[u] = s
            self._dest_slots = table
        return self._dest_slots

    @property
    def remote_slots(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Per neighbour host y: {owned local u -> u's neighbours on y,
        as *this* shard's ext slots} (the ``p2p_filter`` tables).

        Built lazily from the local CSR on first access — only the
        filter extension reads it, so the default build stays lean.
        """
        if self._remote_slots is None:
            table: dict[int, dict[int, list[int]]] = {}
            n_owned = self.n_owned
            ext_host = self.ext_host
            offsets = self.offsets
            targets = self.targets
            for u in range(n_owned):
                for e in range(offsets[u], offsets[u + 1]):
                    t = targets[e]
                    if t >= n_owned:
                        s = t - n_owned
                        table.setdefault(ext_host[s], {}).setdefault(
                            u, []
                        ).append(s)
            self._remote_slots = {
                y: {u: tuple(slots) for u, slots in per_u.items()}
                for y, per_u in table.items()
            }
        return self._remote_slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HostShard host={self.host} owned={self.n_owned} "
            f"ext={self.n_ext} neighbor_hosts={len(self.neighbor_hosts)}>"
        )


class ShardedCSR:
    """A :class:`CSRGraph` partitioned into per-host :class:`HostShard`\\ s.

    ``assignment`` must cover exactly the graph's node set; a missing or
    extra node raises :class:`ConfigurationError` (the object engine
    fails on such assignments too, just less legibly). Hosts owning no
    nodes get an empty shard — the documented ``num_hosts > num_nodes``
    contract of :func:`repro.core.assignment.assign`. ``backend`` names
    the kernel backend that builds the shard tables (default stdlib);
    every backend builds the same tables.

    >>> from repro.graph.generators import path_graph
    >>> from repro.core.assignment import assign
    >>> g = path_graph(4)
    >>> sharded = ShardedCSR.from_graph(g, assign(g, 2))
    >>> sharded.shards[0].n_owned, sharded.shards[0].n_ext
    (2, 2)
    >>> sharded.cut_edges
    3
    """

    __slots__ = ("csr", "assignment", "num_hosts", "shards", "host_of_index",
                 "cut_edges")

    def __init__(
        self,
        csr: CSRGraph,
        assignment: Assignment,
        backend: "str | KernelBackend | None" = None,
    ) -> None:
        self.csr = csr
        self.assignment = assignment
        self.num_hosts = assignment.num_hosts
        n = csr.num_nodes
        ids = csr.ids
        host_of = assignment.host_of
        if len(host_of) != n:
            raise ConfigurationError(
                f"assignment places {len(host_of)} nodes but the graph "
                f"has {n}; the node->host map must cover exactly the "
                "graph's node set"
            )
        try:
            host_idx = array("q", [host_of[g] for g in ids])
        except KeyError as exc:
            raise ConfigurationError(
                f"assignment does not place node {exc.args[0]}"
            ) from None
        self.host_of_index = host_idx

        from repro.sim.kernels import resolve_backend

        directed_cut = 0
        shards: list[HostShard] = []
        for x, table in enumerate(
            resolve_backend(backend).shard_tables(
                csr.offsets, csr.targets, host_idx, self.num_hosts
            )
        ):
            shard = HostShard(x)
            (
                shard.owned_global,
                shard.offsets,
                shard.targets,
                shard.ext_global,
                shard.ext_host,
                shard.watch_offsets,
                shard.watch_targets,
                shard.cut_to,
                shard.deliver,
            ) = table
            shard.n_owned = len(shard.owned_global)
            shard.n_ext = len(shard.ext_global)
            shard.neighbor_hosts = tuple(sorted(shard.cut_to))
            directed_cut += sum(shard.cut_to.values())
            shards.append(shard)
        self.shards = shards
        # every cut edge contributes one directed edge to each endpoint's
        # shard, so the undirected cut is half the directed total
        self.cut_edges = directed_cut // 2

    # ------------------------------------------------------------------
    # pickling — explicit state so the whole partition (or any single
    # shard, see :meth:`HostShard.__getstate__`) round-trips through
    # ``pickle`` without re-running the O(n + m) build. The coordinator
    # of the multi-process engine relies on this contract.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: Graph, assignment: Assignment
    ) -> "ShardedCSR":
        """Convenience builder: compact ``graph`` to CSR, then shard it."""
        return cls(CSRGraph.from_graph(graph), assignment)

    # ------------------------------------------------------------------
    def cut_matrix(self) -> dict[tuple[int, int], int]:
        """Undirected cut edges per unordered host pair ``(x, y)``, x < y."""
        matrix: dict[tuple[int, int], int] = {}
        for shard in self.shards:
            x = shard.host
            for y, count in shard.cut_to.items():
                if x < y:
                    matrix[(x, y)] = count
        return matrix

    def load_imbalance(self) -> float:
        """Max/mean owned-node ratio across shards (1.0 == balanced).

        Shard sizes equal the assignment's by construction, so this
        simply delegates.
        """
        return self.assignment.load_imbalance()

    def __len__(self) -> int:
        return self.num_hosts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedCSR hosts={self.num_hosts} "
            f"nodes={self.csr.num_nodes} cut={self.cut_edges}>"
        )
