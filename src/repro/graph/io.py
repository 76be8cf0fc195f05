"""Edge-list I/O in the SNAP format used by the paper's datasets.

The Stanford Large Network Dataset collection ships plain-text edge
lists: ``#``-prefixed comment lines followed by one ``src<TAB>dst`` pair
per line. Directed inputs are symmetrised exactly as the paper does
("considering both directions for each link"). The loader tolerates
whitespace variations, duplicate edges and self-loops, and can relabel
nodes to the contiguous ``0..N-1`` range the modulo assignment policy
expects.
"""

from __future__ import annotations

import gzip
import os
import zlib
from typing import Iterator, TextIO

from repro.errors import GraphIOError
from repro.graph.graph import Graph

__all__ = ["read_edge_list", "write_edge_list", "parse_edge_lines"]


def _open_text(path: str | os.PathLike[str]) -> TextIO:
    path = os.fspath(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_edge_lines(lines: Iterator[str] | list[str]) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` pairs from SNAP-style text lines.

    Comment lines (``#`` or ``%``) and blank lines are skipped; anything
    else must start with two integer fields.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphIOError(f"line {lineno}: expected two fields, got {line!r}")
        try:
            yield int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphIOError(f"line {lineno}: non-integer node id in {line!r}") from exc


def read_edge_list(
    path: str | os.PathLike[str],
    relabel: bool = True,
    name: str | None = None,
) -> Graph:
    """Read a SNAP edge-list file into an undirected :class:`Graph`.

    ``relabel`` renumbers nodes to ``0..N-1`` (the default, since SNAP
    ids are sparse); the original ids are discarded. Self-loops and
    duplicate/reverse edges collapse into single undirected edges.

    A file that cannot be read as edge-list text — a bad line, a
    truncated or corrupt ``.gz``, bytes that are not UTF-8 — raises
    :class:`GraphIOError` naming ``path``. The numpy kernel backend
    builds the graph when numpy is importable, the stdlib one otherwise;
    both build the same ``Graph``.
    """
    from repro.sim.kernels import numpy_available

    return _read(path, relabel, name, "numpy" if numpy_available() else "stdlib")


def _read(
    path: str | os.PathLike[str],
    relabel: bool,
    name: str | None,
    backend: str,
) -> Graph:
    """:func:`read_edge_list` on a named kernel backend."""
    from repro.sim.kernels import resolve_backend

    path = os.fspath(path)
    kb = resolve_backend(backend)
    with _open_text(path) as handle:
        try:
            # decoded whole, so an undecodable file fails before any of
            # its lines is parsed, whichever backend parses them
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GraphIOError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except EOFError as exc:
            raise GraphIOError(f"{path}: truncated gzip stream ({exc})") from exc
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise GraphIOError(f"{path}: corrupt gzip stream ({exc})") from exc
    try:
        return kb.read_graph(text, relabel, name or os.path.basename(path))
    except GraphIOError as exc:
        raise GraphIOError(f"{path}: {exc}") from exc


def write_edge_list(
    graph: Graph,
    path: str | os.PathLike[str],
    header: bool = True,
) -> str:
    """Write ``graph`` as a SNAP-style edge list; returns the path."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# Undirected graph: {graph.name or 'unnamed'}\n")
            handle.write(
                f"# Nodes: {graph.num_nodes} Edges: {graph.num_edges}\n"
            )
            handle.write("# FromNodeId\tToNodeId\n")
        for u, v in sorted(graph.edges()):
            handle.write(f"{u}\t{v}\n")
    return path
