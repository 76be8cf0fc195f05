"""Unit tests for the shared flat-kernel layer (:mod:`repro.sim.kernels`).

The engine-level bit-identity of the backends is asserted end-to-end in
``tests/test_backend_equivalence.py``; here the registry contract and
the individual kernel primitives are pinned directly — the registry's
error behaviour, the batched ``computeIndex`` against the scalar
kernel, the h-index sweep against the pre-kernel reference
implementation, the worker-traffic counting helper, and the shared
stats-export utility.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.kernels as kernels
from repro.core.compute_index import compute_index
from repro.errors import ConfigurationError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.sim.kernels import (
    DEFAULT_BACKEND,
    KernelBackend,
    StdlibBackend,
    available_backends,
    export_send_counts,
    numpy_available,
    resolve_backend,
)
from repro.sim.metrics import SimulationStats

BACKENDS = available_backends()


def backends():
    return [resolve_backend(name) for name in BACKENDS]


def _full_neighbourhood_jacobi(starts, used, targets, est, frontier):
    """``reconverge_from_bounds`` under the full-neighbourhood rule.

    The reference for the level-crossing frontier: after each round,
    *every* live neighbour of a dropped row with ``est > 0`` is
    recomputed, whether or not the drop crossed its estimate.
    """
    def live(u):
        return [t for t in targets[starts[u]:starts[u] + used[u]] if t >= 0]

    changed: set = set()
    work = sorted(u for u in frontier if est[u] > 0)
    rounds = 0
    while work:
        rounds += 1
        drops = []
        for u in work:
            vals = [est[t] for t in live(u)]
            k = compute_index(vals, est[u]) if vals else 0
            if k < est[u]:
                drops.append((u, k))
        if not drops:
            break
        for u, k in drops:
            est[u] = k
            changed.add(u)
        work = sorted({t for u, _ in drops for t in live(u) if est[t] > 0})
    return sorted(changed), rounds


@st.composite
def graphs_with_deletions(draw):
    """A random simple graph and a non-empty subset of its edges."""
    n = draw(st.integers(2, 24))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=80,
    ))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    if not edges:
        edges = [(0, 1)]
    doomed = draw(st.lists(
        st.sampled_from(edges), min_size=1, max_size=len(edges),
        unique=True,
    ))
    return n, edges, doomed


class TestRegistry:
    def test_default_is_stdlib(self):
        assert DEFAULT_BACKEND == "stdlib"
        assert resolve_backend(None).name == "stdlib"
        assert resolve_backend("stdlib") is resolve_backend(None)

    def test_instances_pass_through(self):
        backend = StdlibBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigurationError, match=r"\['stdlib', 'numpy'\]"):
            resolve_backend("warp")

    def test_available_always_leads_with_default(self):
        assert available_backends()[0] == DEFAULT_BACKEND

    def test_numpy_gate(self, monkeypatch):
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="requires numpy"):
            resolve_backend("numpy")

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_numpy_backend_is_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_protocol_cannot_be_instantiated(self):
        # KernelBackend is a typing.Protocol: the abstract surface is
        # checked structurally (mypy + replay-lint RPL003), never built
        with pytest.raises(TypeError, match="[Pp]rotocol"):
            KernelBackend()

    def test_protocol_default_bodies_raise(self):
        # explicit subclasses inherit raising defaults, so a backend
        # missing a kernel fails loudly instead of returning None
        class Partial(KernelBackend):
            name = "partial"

        with pytest.raises(NotImplementedError):
            Partial().full(3)

    def test_backends_satisfy_protocol_structurally(self):
        for backend in backends():
            assert isinstance(backend, KernelBackend)


class TestTables:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_full_and_degrees(self, name):
        backend = resolve_backend(name)
        table = backend.full(5, 7)
        assert list(table) == [7] * 5
        csr = CSRGraph.from_graph(gen.star_graph(4))
        offsets = backend.graph_array(csr.offsets)
        assert list(backend.degrees(offsets, csr.num_nodes)) == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_graph_array_preserves_values(self, name):
        backend = resolve_backend(name)
        buf = array("q", [3, 1, 4, 1, 5])
        assert list(backend.graph_array(buf)) == [3, 1, 4, 1, 5]
        assert len(backend.graph_array(array("q"))) == 0


class TestBatchComputeIndex:
    """batch_compute_index == the scalar kernel, value and support."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_against_scalar_on_random_instances(self, name):
        backend = resolve_backend(name)
        rng = random.Random(5)
        # a synthetic "edge value" layout: 40 nodes with mixed degrees,
        # including degree-0 nodes and cap-0 nodes
        lens = [rng.randrange(0, 9) for _ in range(40)]
        offsets = array("q", [0] * 41)
        for i, ln in enumerate(lens):
            offsets[i + 1] = offsets[i] + ln
        edge_values = array(
            "q", [rng.randrange(0, 12) for _ in range(offsets[-1])]
        )
        nodes = array("q", range(40))
        caps = array("q", [rng.randrange(0, 10) for _ in range(40)])
        values, supports = backend.batch_compute_index(
            backend.graph_array(nodes),
            backend.graph_array(caps),
            backend.graph_array(offsets),
            backend.graph_array(edge_values),
            [],
        )
        for p in range(40):
            scratch: list[int] = []
            estimates = edge_values[offsets[p]:offsets[p + 1]]
            expected = compute_index(estimates, caps[p], scratch)
            assert values[p] == expected, (name, p)
            expected_support = scratch[expected] if caps[p] > 0 else 0
            assert supports[p] == expected_support, (name, p)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_batch(self, name):
        backend = resolve_backend(name)
        values, supports = backend.batch_compute_index(
            backend.graph_array(array("q")),
            backend.graph_array(array("q")),
            backend.graph_array(array("q", [0])),
            backend.graph_array(array("q")),
            [],
        )
        assert len(values) == 0 and len(supports) == 0


class TestHindexSweep:
    """One kernel sweep == the pre-kernel object-graph reference."""

    def _reference_sweep(self, graph, values):
        nxt = {}
        changed = False
        for u in graph.nodes():
            neighbors = graph.neighbors(u)
            if neighbors:
                new = compute_index(
                    (values[v] for v in neighbors), values[u]
                )
            else:
                new = 0
            nxt[u] = new
            if new != values[u]:
                changed = True
        return changed, nxt

    @pytest.mark.parametrize("name", BACKENDS)
    def test_sweep_sequence(self, name):
        backend = resolve_backend(name)
        graph = gen.powerlaw_cluster_graph(80, 3, 0.3, seed=2)
        csr = CSRGraph.from_graph(graph)
        offsets = backend.graph_array(csr.offsets)
        targets = backend.graph_array(csr.targets)
        flat_values = backend.degrees(offsets, csr.num_nodes)
        ref_values = {u: graph.degree(u) for u in graph.nodes()}
        for _ in range(6):
            flat_changed, flat_values = backend.hindex_sweep(
                offsets, targets, flat_values, []
            )
            ref_changed, ref_values = self._reference_sweep(graph, ref_values)
            assert flat_changed == ref_changed
            assert {
                csr.ids[i]: int(flat_values[i]) for i in range(csr.num_nodes)
            } == ref_values
            if not flat_changed:
                break


class TestCountIntra:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_split_matches_bruteforce(self, name):
        backend = resolve_backend(name)
        csr = CSRGraph.from_graph(gen.grid_graph(4, 5))
        owner = backend.graph_array(csr.edge_owners())
        targets = backend.graph_array(csr.targets)
        worker_of = backend.graph_array(
            array("q", [i % 3 for i in range(csr.num_nodes)])
        )
        expected = sum(
            1
            for e in range(len(csr.targets))
            if csr.edge_owners()[e] % 3 == csr.targets[e] % 3
        )
        assert backend.count_intra(None, owner, targets, worker_of) == expected
        # a subset: every slot owned by worker 0's nodes
        subset = [
            e for e in range(len(csr.targets)) if csr.edge_owners()[e] % 3 == 0
        ]
        container = (
            subset
            if name == "stdlib"
            else backend.graph_array(array("q", subset))
        )
        expected_subset = sum(
            1 for e in subset if csr.targets[e] % 3 == 0
        )
        assert (
            backend.count_intra(container, owner, targets, worker_of)
            == expected_subset
        )


class TestExportSendCounts:
    def test_with_ids(self):
        stats = SimulationStats()
        export_send_counts(
            stats, array("q", [3, 0, 2]), array("q", [10, 20, 30])
        )
        assert stats.sent_per_process == {10: 3, 30: 2}
        assert stats.total_messages == 5

    def test_without_ids_uses_positions(self):
        stats = SimulationStats()
        export_send_counts(stats, [0, 4, 1])
        assert stats.sent_per_process == {1: 4, 2: 1}
        assert stats.total_messages == 5

    def test_exports_builtin_ints(self):
        if not numpy_available():
            pytest.skip("needs numpy")
        import numpy as np

        stats = SimulationStats()
        export_send_counts(stats, np.array([2, 0, 1], dtype=np.int64))
        assert all(
            type(k) is int and type(v) is int
            for k, v in stats.sent_per_process.items()
        )
        assert type(stats.total_messages) is int


class TestDynamicCSRKernels:
    """The dynamic-CSR edit kernels and the mutable layout they drive.

    ``tests/test_streaming_equivalence.py`` pins the engine-level
    bit-identity; here the slot-level contracts are pinned directly:
    tombstone layout invariants under random edits, compaction
    preserving neighbour sets (with sorted, gap-free slices), and
    byte-for-byte buffer equality between the stdlib and numpy
    ``csr_insert_slots`` / ``csr_delete_slots`` / ``reconverge`` runs.
    """

    def _random_drive(self, backend, steps=200, seed=3):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        rng = random.Random(seed)
        g = DynamicCSRGraph(backend=backend)
        edges: set = set()
        nodes: set = set()
        for _ in range(steps):
            op = rng.random()
            if op < 0.5 or len(edges) < 2:
                u, v = rng.randrange(16), rng.randrange(16)
                key = (min(u, v), max(u, v))
                if u == v or key in edges:
                    continue
                g.insert_edges([key])
                edges.add(key)
                nodes.update(key)
            elif op < 0.8:
                key = sorted(edges)[rng.randrange(len(edges))]
                g.delete_edges([key])
                edges.discard(key)
            elif nodes:
                victim = sorted(nodes)[rng.randrange(len(nodes))]
                if g.has_node(victim):
                    g.remove_node(victim)
                    nodes.discard(victim)
                    edges = {e for e in edges if victim not in e}
            g.check_invariants()
        return g, edges

    @pytest.mark.parametrize("backend", backends())
    def test_layout_invariants_under_random_edits(self, backend):
        g, edges = self._random_drive(backend)
        assert set(g.edges()) == edges
        assert g.num_edges == len(edges)

    @pytest.mark.parametrize("backend", backends())
    def test_compaction_preserves_neighbour_sets(self, backend):
        g, edges = self._random_drive(backend, steps=120, seed=9)
        before = {node: g.neighbors(node) for node in g.nodes()}
        mapping = g.compact()
        g.check_invariants()
        assert g.garbage_slots == 0
        assert {node: g.neighbors(node) for node in g.nodes()} == before
        assert set(g.edges()) == edges
        # compacted slices are sorted and gap-free (tombstones purged)
        for node in g.nodes():
            row = g.row_of(node)
            lo = g.starts[row]
            slice_ = list(g.targets[lo:lo + g.used[row]])
            assert slice_ == sorted(slice_) and -1 not in slice_
        # the returned mapping renumbers alive rows by ascending node
        # id: after compaction sorted ids occupy consecutive rows
        assert sorted(new for new in mapping if new >= 0) == list(
            range(g.num_nodes)
        )
        assert [g.row_of(node) for node in g.nodes()] == list(
            range(g.num_nodes)
        )

    def test_tombstone_threshold_is_deterministic(self):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph()
        g.insert_edges([(0, i) for i in range(1, 60)])
        assert not g.needs_compaction
        g.delete_edges([(0, i) for i in range(1, 50)])
        # 2 * garbage > live + 64 now holds; the flag is pure arithmetic
        assert 2 * g.garbage_slots > g.num_edges * 2 + 64
        assert g.needs_compaction

    def test_numpy_slot_level_equality(self):
        if not numpy_available():
            pytest.skip("needs numpy")
        drives = [
            self._random_drive(backend, steps=300, seed=17)[0]
            for backend in backends()
        ]
        a, b = drives
        assert bytes(a.targets) == bytes(b.targets)
        assert bytes(a.used) == bytes(b.used)
        assert bytes(a.starts) == bytes(b.starts)
        assert a.compactions == b.compactions

    @pytest.mark.parametrize("backend", backends())
    def test_reconverge_from_bounds_contract(self, backend):
        from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr
        from repro.graph.dynamic_csr import DynamicCSRGraph

        graph = gen.clique_graph(6)
        g = DynamicCSRGraph.from_graph(graph, backend=backend)
        est = array("q", [5] * 6)     # old coreness of K6
        g.delete_edges([(0, 1)])
        changed, rounds = backend.reconverge_from_bounds(
            g.starts, g.used, g.targets, est, list(range(6)), []
        )
        oracle = batagelj_zaversnik_csr(g.to_csr())
        assert list(est) == list(oracle) == [4] * 6
        assert changed == [0, 1, 2, 3, 4, 5]
        # Jacobi, backend-independent: round 1 drops rows 0 and 1,
        # round 2 the four rows their drops crossed; no drop-free third
        # round, since no row's support was crossed in round 2
        assert rounds == 2
        assert all(type(c) is int for c in changed)

    @pytest.mark.parametrize("backend", backends())
    @given(case=graphs_with_deletions())
    @settings(max_examples=60, deadline=None)
    def test_level_crossing_frontier_matches_full_jacobi(self, backend,
                                                         case):
        from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr
        from repro.graph.dynamic_csr import DynamicCSRGraph

        n, edges, doomed = case
        g = DynamicCSRGraph.from_edges(edges, backend=backend)
        before = g.to_csr()
        est = array("q", [0]) * g.num_rows
        for i, k in enumerate(batagelj_zaversnik_csr(before)):
            est[g.row_of(before.ids[i])] = k
        g.delete_edges(doomed)
        frontier = sorted({g.row_of(x) for e in doomed for x in e})
        ref_est = array("q", est)
        ref_changed, ref_rounds = _full_neighbourhood_jacobi(
            g.starts, g.used, g.targets, ref_est, frontier
        )
        changed, rounds = backend.reconverge_from_bounds(
            g.starts, g.used, g.targets, est, frontier, []
        )
        after = g.to_csr()
        oracle = batagelj_zaversnik_csr(after)
        assert [est[g.row_of(after.ids[i])] for i in range(after.num_nodes)] \
            == list(oracle)
        assert est == ref_est
        assert changed == ref_changed
        assert ref_rounds - 1 <= rounds <= ref_rounds

    @pytest.mark.parametrize("backend", backends())
    def test_reconverge_skips_dead_and_zero_rows(self, backend):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph(backend=backend)
        g.insert_edges([(0, 1), (1, 2)])
        g.add_node(7)                  # isolated: est 0, never touched
        est = array("q", [1, 1, 1, 0])
        changed, rounds = backend.reconverge_from_bounds(
            g.starts, g.used, g.targets, est, [0, 1, 2, 3], []
        )
        assert changed == [] and list(est) == [1, 1, 1, 0]

    @pytest.mark.parametrize("backend", backends())
    def test_insert_kernel_appends_in_batch_order(self, backend):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph(backend=backend)
        g.insert_edges([(0, 3), (0, 1), (0, 2)])
        row = g.row_of(0)
        lo = g.starts[row]
        # slot order is insertion order — the sorted view is derived
        assert list(g.targets[lo:lo + g.used[row]]) == [
            g.row_of(3), g.row_of(1), g.row_of(2)
        ]
        assert g.neighbors(0) == [1, 2, 3]

    @pytest.mark.parametrize("backend", backends())
    def test_delete_kernel_tombstones_first_match_only(self, backend):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph(backend=backend)
        g.insert_edges([(0, 1), (0, 2)])
        g.delete_edges([(0, 1)])
        row = g.row_of(0)
        lo = g.starts[row]
        assert list(g.targets[lo:lo + g.used[row]]) == [-1, g.row_of(2)]
        assert g.used[row] == 2        # used counts tombstones
        assert g.degree(0) == 1        # live degree does not
