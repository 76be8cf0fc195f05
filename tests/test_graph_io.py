"""Tests for SNAP edge-list I/O."""

from __future__ import annotations

import gzip
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphIOError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.graph.io import _read, parse_edge_lines, read_edge_list, write_edge_list
from repro.sim.kernels import available_backends, numpy_available

#: the ingest backends this environment can run
BACKENDS = available_backends()

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="comparing the array ingest with the stdlib one needs numpy",
)


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        lines = [
            "# Directed graph: web-Example.txt",
            "# Nodes: 3 Edges: 2",
            "",
            "% percent comments too",
            "0\t1",
            "1\t2",
        ]
        assert list(parse_edge_lines(lines)) == [(0, 1), (1, 2)]

    def test_whitespace_variants(self):
        assert list(parse_edge_lines(["0 1", "2   3", " 4\t5 "])) == [
            (0, 1), (2, 3), (4, 5),
        ]

    def test_extra_fields_tolerated(self):
        # some SNAP files carry weights/timestamps in a third column
        assert list(parse_edge_lines(["0 1 0.5"])) == [(0, 1)]

    def test_single_field_rejected(self):
        with pytest.raises(GraphIOError):
            list(parse_edge_lines(["42"]))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphIOError):
            list(parse_edge_lines(["a b"]))


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        graph = gen.powerlaw_cluster_graph(80, 3, 0.2, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, relabel=False)
        assert loaded == graph

    def test_read_relabels_sparse_ids(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("1000\t2000\n2000\t5\n")
        graph = read_edge_list(path)
        assert sorted(graph.nodes()) == [0, 1, 2]
        assert graph.num_edges == 2

    def test_directed_input_symmetrised(self, tmp_path):
        path = tmp_path / "directed.txt"
        path.write_text("0\t1\n1\t0\n1\t2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2  # paper: both directions -> one edge

    def test_self_loops_dropped_but_node_kept(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0\t0\n0\t1\n")
        graph = read_edge_list(path, relabel=False)
        assert graph.num_edges == 1
        assert graph.has_node(0)

    def test_gzip_support(self, tmp_path):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0\t1\n1\t2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_header_contents(self, tmp_path):
        graph = gen.path_graph(3, name="demo")
        path = tmp_path / "out.txt"
        write_edge_list(graph, path)
        text = path.read_text()
        assert text.startswith("# Undirected graph: demo")
        assert "# Nodes: 3 Edges: 2" in text

    def test_headerless_write(self, tmp_path):
        graph = gen.path_graph(3)
        path = tmp_path / "bare.txt"
        write_edge_list(graph, path, header=False)
        assert path.read_text() == "0\t1\n1\t2\n"

    def test_coreness_preserved_through_roundtrip(self, tmp_path):
        from repro.baselines import batagelj_zaversnik

        graph = gen.worst_case_graph(15)
        path = tmp_path / "worst.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, relabel=False)
        assert batagelj_zaversnik(loaded) == batagelj_zaversnik(graph)


class TestBadFiles:
    """A file that is not edge-list text fails as GraphIOError naming it."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_gzip(self, tmp_path, backend):
        path = tmp_path / "cut.txt.gz"
        whole = gzip.compress(b"0\t1\n1\t2\n" * 200)
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(GraphIOError, match="cut.txt.gz: truncated"):
            _read(path, True, None, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_not_gzip(self, tmp_path, backend):
        path = tmp_path / "plain.txt.gz"
        path.write_bytes(b"0\t1\n1\t2\n")
        with pytest.raises(GraphIOError, match="plain.txt.gz: corrupt gzip"):
            _read(path, True, None, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_not_utf8(self, tmp_path, backend):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"# caf\xe9\n0\t1\n")
        with pytest.raises(GraphIOError, match="latin.txt: not UTF-8"):
            _read(path, True, None, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_line_names_path_and_line(self, tmp_path, backend):
        path = tmp_path / "short.txt"
        path.write_text("0 1\n42\n")
        with pytest.raises(GraphIOError, match="short.txt: line 2"):
            _read(path, True, None, backend)

    def test_missing_file_is_not_rewrapped(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_edge_list(tmp_path / "absent.txt")

    def test_default_reader_wraps_errors(self, tmp_path):
        path = tmp_path / "plain.txt.gz"
        path.write_bytes(b"0 1\n")
        with pytest.raises(GraphIOError, match="plain.txt.gz"):
            read_edge_list(path)


class TestHugeIds:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ids_beyond_int64(self, tmp_path, backend):
        big = 2**64 + 5
        path = tmp_path / "big.txt"
        path.write_text(f"{big} 3\n-{big} {big}\n3 3\n")
        graph = _read(path, False, None, backend)
        assert list(graph.nodes()) == [big, 3, -big]
        assert graph.neighbors(big) == {3, -big}
        relabeled = _read(path, True, None, backend)
        assert sorted(relabeled.nodes()) == [0, 1, 2]
        assert relabeled.num_edges == 2


# ----------------------------------------------------------------------
# array ingest == stdlib ingest on generated SNAP text
# ----------------------------------------------------------------------
#: dense, negative and sparse ids: what a plain SNAP file holds
_PLAIN_IDS = st.one_of(
    st.integers(0, 30),
    st.integers(-30, -1),
    st.integers(10**6, 10**6 + 8),
)
#: ...plus ids around 18 digits and at and beyond the int64 range
_IDS = st.one_of(
    _PLAIN_IDS,
    st.integers(10**17 - 2, 10**17 + 2),
    st.integers(-(10**17) - 2, -(10**17) + 2),
    st.integers(10**18 - 2, 10**18 + 2),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(-(2**63) - 3, -(2**63) + 3),
)
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_SEP = st.sampled_from([" ", "\t", "  ", " \t", "\t\t"])


@st.composite
def _id_text(draw, ids):
    value = draw(ids)
    spelled = [str(value)]
    if 0 <= value < 10**18:
        spelled += [f"+{value}", f"00{value}"]
    return draw(st.sampled_from(spelled))


@st.composite
def _data_line(draw, wide, extras):
    """``u v``; ids at the int64 edge if ``wide``, extra columns if
    ``extras``."""
    ids = _IDS if wide else _PLAIN_IDS
    u = draw(_id_text(ids))
    v = u if draw(st.integers(0, 7)) == 0 else draw(_id_text(ids))
    extra = draw(
        st.lists(st.sampled_from(["0.5", "7", "w", "#x"]), max_size=2)
    ) if extras else []
    sep = draw(_SEP)
    return draw(_BLANK) + sep.join([u, v, *extra]) + draw(_BLANK)


_COMMENT = st.builds(
    lambda pad, mark, body: pad + mark + body,
    _BLANK,
    st.sampled_from("#%"),
    st.text(alphabet="ab #%12\t\u00e9", max_size=8),
)
_BAD_LINE = st.sampled_from([
    "42", "a b", "1 x", "1.5 2", "- 3", "1 -", "1 2#", "1\x0c2",
    "1-2 3", "4 5+6", "+-1 2", "7 8\u00a0",
])


@st.composite
def snap_texts(draw):
    """SNAP-style text: comments, blanks, data and sometimes a bad line.

    Texts without extra columns or out-of-range ids are the shape the
    array parser takes; the rest go to the stdlib reader.
    """
    data = _data_line(draw(st.booleans()), draw(st.booleans()))
    lines = draw(st.lists(
        st.one_of(data, data, data, _BLANK, _COMMENT), max_size=25
    ))
    if draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_BAD_LINE))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if lines and draw(st.booleans()) else "")


def _ingest(path, relabel, backend):
    """Everything a reader's outcome exposes, comparable with ``==``."""
    try:
        graph = _read(path, relabel, None, backend)
    except GraphIOError as exc:
        return ("error", str(exc))
    return ("ok", graph, list(graph.nodes()), graph.name, graph.num_edges)


@needs_numpy
class TestIngestBackends:
    """The array reader replays the stdlib reader: same ``Graph`` (node
    order and name included) or the same ``GraphIOError``."""

    @given(snap_texts(), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_generated_text(self, text, relabel):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edges.txt")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            expected = _ingest(path, relabel, "stdlib")
            assert _ingest(path, relabel, "numpy") == expected

    @pytest.mark.parametrize("relabel", (True, False))
    @pytest.mark.parametrize("text", (
        "",
        "# only a header\n% and another\n\n",
        "5 5\n",
        "3 1\n1 3\n3 1\n",
        "# Nodes: 3\n 7\t-2 \n-2 9\n\n9 7 0.25\n",
        "9223372036854775807 -9223372036854775808\n",
        "9223372036854775808 1\n1 -9223372036854775809\n",
        "1000000000000000000 1\n-999999999999999999 +99999999999999999\n",
        "7 1-2\n",
        "7 -\n",
    ))
    def test_edge_cases(self, tmp_path, text, relabel):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        expected = _ingest(path, relabel, "stdlib")
        assert _ingest(path, relabel, "numpy") == expected

    @pytest.mark.parametrize("relabel", (True, False))
    def test_generator_round_trip(self, tmp_path, relabel):
        graph = gen.preferential_attachment_graph(400, 3, seed=2).shuffled(seed=1)
        path = tmp_path / "ba.txt.gz"
        write_edge_list(graph, tmp_path / "ba.txt")
        with open(tmp_path / "ba.txt", "rb") as src, gzip.open(path, "wb") as dst:
            dst.write(src.read())
        expected = _ingest(path, relabel, "stdlib")
        assert _ingest(path, relabel, "numpy") == expected
        assert expected[1] == (graph if not relabel else graph.relabeled()[0])

    def test_default_reader_uses_the_array_ingest(self, tmp_path, monkeypatch):
        from repro.sim.kernels.numpy_backend import NumpyBackend

        seen = []
        original = NumpyBackend.read_graph

        def spy(self, text, relabel, name):
            seen.append(name)
            return original(self, text, relabel, name)

        monkeypatch.setattr(NumpyBackend, "read_graph", spy)
        path = tmp_path / "e.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path) == Graph.from_edges([(0, 1)])
        assert seen == ["e.txt"]
