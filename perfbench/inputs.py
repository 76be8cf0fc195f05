"""Seeded inputs for the benchmark, generated before any timing starts.

Every input is a *generator dataset*: it is identified by the generator
that made it, the generator's parameters and the seed, not by a file
path. :func:`identity` records that triple (plus a digest of the bytes
actually produced), so two runs with the same identity measured the
same content.

The batch workloads read a SNAP edge-list file written with
``repro.graph.io.write_edge_list``. The churn workload replays a stream
from :func:`steady_state_stream`, a benchmark-local generator of the
same steady-state join/leave model as
``repro.workloads.churn.generate_churn_trace(rewire_rate=0)``: Poisson
joins at rate ``n / 60`` with two uniformly chosen live contacts, and
exponential sessions of mean 60, so the population stays near ``n``.
The library generator rescans the population on every event (O(n) per
event); this one keeps departures in a heap and the population in a
swap-remove list, so a 10k-event stream costs milliseconds. Its
streams are not event-for-event equal to the library's for the same
seed.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from dataclasses import dataclass

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
from repro.datasets import amazon_like
from repro.graph.generators import (
    erdos_renyi_graph,
    preferential_attachment_graph,
)
from repro.graph.io import write_edge_list
from repro.workloads.churn import ChurnEvent

#: amazon_like(scale) yields ~4940 * scale nodes (380 groups of 13).
_AMAZON_NODES_PER_SCALE = 4940
MEAN_SESSION = 60.0
CONTACTS_PER_JOIN = 2


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def identity(generator: str, params: dict, seed: int, digest: str) -> dict:
    """Content identity of one generated input."""
    return {
        "generator": generator,
        "params": params,
        "seed": seed,
        "sha256": digest,
    }


def graph_family(family: str, n: int, seed: int):
    """The graph of a batch workload, with its (generator, params)."""
    if family == "er":
        params = {"n": n, "p": 8.0 / (n - 1)}
        graph = erdos_renyi_graph(n, params["p"], seed=seed, name="er")
        return graph, "repro.graph.generators.erdos_renyi_graph", params
    if family == "ba":
        params = {"n": n, "m": 4}
        graph = preferential_attachment_graph(n, 4, seed=seed, name="ba")
        return graph, (
            "repro.graph.generators.preferential_attachment_graph"
        ), params
    raise ValueError(f"unknown graph family {family!r}")


@dataclass
class EdgeListInput:
    """A SNAP file on disk; its BZ oracle is taken on what the reader
    returns (the reader drops isolated nodes and renumbers ids)."""

    path: str
    identity: dict


def edge_list_input(family: str, n: int, seed: int, workdir: str) -> EdgeListInput:
    graph, generator, params = graph_family(family, n, seed)
    path = write_edge_list(
        graph, os.path.join(workdir, f"{family}-{n}-{seed}.txt")
    )
    return EdgeListInput(
        path=path,
        identity=identity(
            generator, dict(params, format="snap-edge-list"), seed,
            _file_digest(path),
        ),
    )


def steady_state_stream(
    graph, events: int, query_every: int, seed: int
) -> tuple[list, list]:
    """``events`` join/leave events over ``graph`` plus query targets.

    Returns ``(stream, queries)`` where ``queries[i]`` is a node alive
    after event ``(i + 1) * query_every`` — the point query issued
    there always names a present node.
    """
    rng = random.Random(seed)
    alive = sorted(graph.nodes())
    slot = {u: i for i, u in enumerate(alive)}
    departures = [(rng.expovariate(1.0 / MEAN_SESSION), u) for u in alive]
    heapq.heapify(departures)
    join_rate = len(alive) / MEAN_SESSION
    next_id = (alive[-1] + 1) if alive else 0
    next_join = rng.expovariate(join_rate)
    stream: list = []
    queries: list = []
    while len(stream) < events:
        if not departures or next_join <= departures[0][0]:
            now = next_join
            contacts = tuple(
                rng.sample(alive, min(CONTACTS_PER_JOIN, len(alive)))
            )
            node = next_id
            next_id += 1
            slot[node] = len(alive)
            alive.append(node)
            heapq.heappush(
                departures, (now + rng.expovariate(1.0 / MEAN_SESSION), node)
            )
            stream.append(ChurnEvent(now, "join", (node, *contacts)))
            next_join = now + rng.expovariate(join_rate)
        else:
            now, victim = heapq.heappop(departures)
            if len(alive) <= 3:
                continue
            last = alive.pop()
            at = slot.pop(victim)
            if last != victim:
                alive[at] = last
                slot[last] = at
            stream.append(ChurnEvent(now, "leave", (victim,)))
        if len(stream) % query_every == 0:
            queries.append(alive[rng.randrange(len(alive))])
    return stream, queries


def final_graph(graph, stream):
    """The graph after ``stream``, with ChurnService guard semantics."""
    current = graph.copy()
    for event in stream:
        if event.kind == "join":
            new, *contacts = event.nodes
            current.add_node(new)
            for contact in contacts:
                if current.has_node(contact):
                    current.add_edge(new, contact)
        elif current.has_node(event.nodes[0]):
            current.remove_node(event.nodes[0])
    return current


@dataclass
class ChurnInput:
    """Initial overlay, event stream, query targets and final oracle."""

    graph: object
    stream: list
    queries: list
    oracle: dict
    identity: dict


def churn_input(n: int, events: int, query_every: int, seed: int) -> ChurnInput:
    scale = n / _AMAZON_NODES_PER_SCALE
    graph = amazon_like(scale=scale, seed=seed)
    stream, queries = steady_state_stream(
        graph, events, query_every, seed + 1
    )
    digest = hashlib.sha256()
    for u, v in sorted(graph.edges()):
        digest.update(f"{u}\t{v}\n".encode())
    for event in stream:
        digest.update(f"{event.kind} {event.nodes}\n".encode())
    return ChurnInput(
        graph=graph,
        stream=stream,
        queries=queries,
        oracle=batagelj_zaversnik(final_graph(graph, stream)),
        identity=identity(
            "repro.datasets.amazon_like + perfbench.inputs."
            "steady_state_stream",
            {
                "scale": scale,
                "events": events,
                "query_every": query_every,
                "join_rate": "n/60",
                "mean_session": MEAN_SESSION,
                "contacts_per_join": CONTACTS_PER_JOIN,
                "stream_seed": seed + 1,
            },
            seed,
            digest.hexdigest(),
        ),
    )
