"""The numpy kernel backend is bit-identical to the stdlib backend.

The contract of :mod:`repro.sim.kernels`: for every configuration that
accepts ``backend="numpy"``, swapping the backend changes *nothing
observable* — coreness, executed-round counts, execution time,
per-round send counts, per-node/per-host message counts, the converged
flag, and the Figure-5 overhead accounting (``estimates_sent_total`` /
``estimates_sent_per_node``) are equal value-for-value, per seed. The
acceptance grid from the issue — 12 dataset families × both protocols
× multiple seeds — runs below, followed by the flat baselines (h-index
and Pregel), shuffled/sparse node ids, the ``p2p_filter`` extension,
truncated runs, and hypothesis-generated graphs.

Everything here skips cleanly in a stdlib-only environment: the suite
(and only this suite) requires numpy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.assignment import ASSIGNMENT_POLICIES, assign
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.sharded import ShardedCSR
from repro.sim.kernels import numpy_available

from tests.conftest import assert_same_shards, graphs

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="the numpy kernel backend needs numpy; stdlib-only "
    "environments run everything else unchanged",
)

#: name -> builder; spans sparse/dense, regular/heavy-tailed, isolated
#: nodes, huge-diameter, and the paper's adversarial family — the same
#: twelve families as the flat-vs-object replay suites.
FAMILIES = {
    "empty": lambda: gen.empty_graph(9),
    "path": lambda: gen.path_graph(17),
    "clique": lambda: gen.clique_graph(9),
    "star": lambda: gen.star_graph(12),
    "grid": lambda: gen.grid_graph(6, 8),
    "worst-case": lambda: gen.worst_case_graph(24),
    "figure2": lambda: gen.figure2_example(),
    "er": lambda: gen.erdos_renyi_graph(120, 0.045, seed=7),
    "er-with-isolated": lambda: gen.erdos_renyi_graph(130, 0.012, seed=5),
    "ba": lambda: gen.preferential_attachment_graph(140, 3, seed=6),
    "plc": lambda: gen.powerlaw_cluster_graph(110, 3, 0.3, seed=4),
    "caveman": lambda: gen.caveman_graph(6, 6),
}

SEEDS = (0, 1, 2)

#: host counts of the construction grid; "surplus" is num_nodes + 3
HOST_COUNTS = (1, 2, 8, "surplus")


def _fingerprint(result):
    """Every observable a backend swap must preserve."""
    stats = result.stats
    fp = {
        "coreness": result.coreness,
        "rounds_executed": stats.rounds_executed,
        "execution_time": stats.execution_time,
        "sends_per_round": list(stats.sends_per_round),
        "sent_per_process": dict(stats.sent_per_process),
        "total_messages": stats.total_messages,
        "converged": stats.converged,
    }
    for key in (
        "estimates_sent_total",
        "estimates_sent_per_node",
        "cut_edges",
        "num_hosts",
    ):
        if key in stats.extra:
            fp[key] = stats.extra[key]
    return fp


def assert_backends_agree_one_to_one(graph, exact: bool = True, **kw):
    stdlib = run_one_to_one(
        graph, OneToOneConfig(engine="flat", backend="stdlib", **kw)
    )
    vectorised = run_one_to_one(
        graph, OneToOneConfig(engine="flat", backend="numpy", **kw)
    )
    assert _fingerprint(vectorised) == _fingerprint(stdlib)
    if exact:
        assert vectorised.coreness == batagelj_zaversnik(graph)


def assert_backends_agree_one_to_many(graph, exact: bool = True, **kw):
    stdlib = run_one_to_many(
        graph, OneToManyConfig(engine="flat", backend="stdlib", **kw)
    )
    vectorised = run_one_to_many(
        graph, OneToManyConfig(engine="flat", backend="numpy", **kw)
    )
    assert _fingerprint(vectorised) == _fingerprint(stdlib)
    if exact:
        assert vectorised.coreness == batagelj_zaversnik(graph)


class TestOneToOneGrid:
    """12 families, lockstep (the numpy-supported one-to-one mode)."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family):
        assert_backends_agree_one_to_one(
            FAMILIES[family](), mode="lockstep"
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_without_send_filter(self, family):
        assert_backends_agree_one_to_one(
            FAMILIES[family](), mode="lockstep", optimize_sends=False
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_shuffled_ids(self, family):
        graph = FAMILIES[family]().shuffled(seed=99)
        assert_backends_agree_one_to_one(graph, mode="lockstep")

    def test_truncated_run(self):
        graph = gen.worst_case_graph(30)
        assert_backends_agree_one_to_one(
            graph,
            exact=False,
            mode="lockstep",
            fixed_rounds=7,
            strict=False,
        )


class TestOneToManyGrid:
    """12 families × both modes × both communications × 3 seeds."""

    @pytest.mark.parametrize("mode", ("peersim", "lockstep"))
    @pytest.mark.parametrize("communication", ("broadcast", "p2p"))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families(self, family, communication, mode):
        graph = FAMILIES[family]()
        for seed in SEEDS:
            assert_backends_agree_one_to_many(
                graph,
                num_hosts=5,
                communication=communication,
                mode=mode,
                seed=seed,
            )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_p2p_filter(self, family):
        graph = FAMILIES[family]()
        for seed in SEEDS:
            assert_backends_agree_one_to_many(
                graph,
                num_hosts=5,
                communication="p2p",
                p2p_filter=True,
                seed=seed,
            )

    @pytest.mark.parametrize("policy", ("modulo", "block", "random", "bfs"))
    def test_placement_policies(self, policy):
        graph = FAMILIES["plc"]()
        for seed in SEEDS:
            assert_backends_agree_one_to_many(
                graph, num_hosts=4, policy=policy, seed=seed
            )

    def test_more_hosts_than_nodes(self):
        assert_backends_agree_one_to_many(
            gen.path_graph(5), num_hosts=9, seed=1
        )

    def test_truncated_run(self):
        assert_backends_agree_one_to_many(
            gen.worst_case_graph(30),
            exact=False,
            num_hosts=4,
            fixed_rounds=5,
            strict=False,
            seed=2,
        )


class TestFlatBaselines:
    """The kernel-layer baselines agree across backends too."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hindex(self, family):
        from repro.baselines.hindex import hindex_iteration

        graph = FAMILIES[family]()
        assert hindex_iteration(graph, backend="numpy") == hindex_iteration(
            graph, backend="stdlib"
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_pregel(self, family):
        from repro.pregel.kcore import run_pregel_kcore

        graph = FAMILIES[family]()
        stdlib = run_pregel_kcore(
            graph, num_workers=3, engine="flat", backend="stdlib"
        )
        vectorised = run_pregel_kcore(
            graph, num_workers=3, engine="flat", backend="numpy"
        )
        assert vectorised.coreness == stdlib.coreness
        assert _fingerprint(vectorised) == _fingerprint(stdlib)
        assert vectorised.stats.extra == stdlib.stats.extra


class TestHypothesis:
    @given(graphs(), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_one_to_one_lockstep(self, g, _seed):
        assert_backends_agree_one_to_one(g, mode="lockstep")

    @given(graphs(), st.integers(0, 3), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_one_to_many(self, g, seed, hosts):
        assert_backends_agree_one_to_many(
            g, num_hosts=hosts, seed=seed, communication="p2p"
        )


def _sparse(graph):
    """``graph`` with negative, non-contiguous ids (same shape)."""
    return Graph.from_edges(
        [(7 * u - 40, 7 * v - 40) for u, v in graph.edges()]
        + [(7 * u - 40,) * 2 for u in graph.nodes()]
    )


def _csr_state(csr, backend):
    """Every buffer a CSR build or its derived tables expose."""
    return (
        csr.offsets, csr.targets, csr.ids, csr._index_of,
        csr.mirror(backend), csr.edge_owners(backend),
    )


class TestConstructionGrid:
    """The construction kernels: numpy builds the stdlib's buffers."""

    @pytest.mark.parametrize("ids", ("dense", "sparse"))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_csr_from_graph(self, family, ids):
        graph = FAMILIES[family]()
        if ids == "sparse":
            graph = _sparse(graph)
        stdlib = CSRGraph.from_graph(graph, backend="stdlib")
        vectorised = CSRGraph.from_graph(graph, backend="numpy")
        assert _csr_state(vectorised, "numpy") == _csr_state(stdlib, "stdlib")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_csr_from_edges(self, family):
        graph = FAMILIES[family]()
        edges = list(graph.edges())
        # reversed duplicates and self-loops collapse the same way
        edges += [(v, u) for u, v in edges[::3]]
        edges += [(u, u) for u in list(graph.nodes())[::4]]
        for num_nodes in (None, graph.num_nodes + 2):
            stdlib = CSRGraph.from_edges(edges, num_nodes, backend="stdlib")
            vectorised = CSRGraph.from_edges(edges, num_nodes, backend="numpy")
            assert _csr_state(vectorised, "numpy") == _csr_state(
                stdlib, "stdlib"
            )

    @pytest.mark.parametrize("hosts", HOST_COUNTS)
    @pytest.mark.parametrize("policy", sorted(ASSIGNMENT_POLICIES))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_shards(self, family, policy, hosts):
        graph = FAMILIES[family]()
        count = graph.num_nodes + 3 if hosts == "surplus" else hosts
        assignment = assign(graph, count, policy=policy, seed=3)
        csr = CSRGraph.from_graph(graph)
        assert_same_shards(
            ShardedCSR(csr, assignment, "stdlib"),
            ShardedCSR(csr, assignment, "numpy"),
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_shards_sparse_ids(self, family):
        graph = _sparse(FAMILIES[family]()).shuffled(seed=8)
        assignment = assign(graph, 5, policy="random", seed=1)
        csr = CSRGraph.from_graph(graph)
        assert_same_shards(
            ShardedCSR(csr, assignment, "stdlib"),
            ShardedCSR(csr, assignment, "numpy"),
        )
