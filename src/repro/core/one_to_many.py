"""Algorithms 3-5 — the one-host-many-nodes protocol (Section 3.2).

A host ``x`` runs the node protocol on behalf of all nodes in ``V(x)``.
The crucial optimisation is the *internal cascade* (``improveEstimate``,
Algorithm 4): whenever external estimates arrive, all of their intra-host
consequences are computed locally, to fixpoint, before anything is sent
out — so only settled estimates cross the network.

Communication policies (Section 3.2.1):

* ``"broadcast"`` (Algorithm 3): a broadcast medium is available; each
  round the host emits *one* set ``S`` with every estimate changed since
  the last round. The Figure-5 overhead metric counts each estimate in
  ``S`` once, regardless of how many hosts hear the broadcast.
* ``"p2p"`` (Algorithm 5): point-to-point links; each neighbouring host
  ``y`` receives only the changed estimates of nodes that actually have
  a neighbour inside ``V(y)``, and the overhead counts one unit per
  (estimate, destination) pair. (As printed in the paper, Algorithm 5
  omits the ``changed[u]`` filter its round block clearly intends —
  without it no run could ever terminate; we apply the filter.)

The overhead figure of merit — "the average number of times a node
generates a new estimate that has to be sent to another host" — is
reported as ``stats.extra["estimates_sent_per_node"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.assignment import Assignment, assign
from repro.core.compute_index import (
    improve_estimate_naive,
    improve_estimate_worklist,
)
from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import Observer, RoundEngine
from repro.sim.node import Context, Message, Process
from repro.sim.shard_runtime import check_communication
from repro.telemetry import finish_run_telemetry, run_tracer

__all__ = ["KCoreHost", "OneToManyConfig", "run_one_to_many", "build_host_processes"]

#: Integer stand-in for the paper's +∞ estimate (any value > max degree works).
INFINITY_INT = 2**62


class KCoreHost(Process):
    """A host responsible for the nodes ``V(x)`` (Algorithm 3).

    State:

    * :attr:`est` — estimates for every node in ``V(x) ∪ neighborV(x)``
      (the paper deliberately stores both in one array);
    * :attr:`changed` — owned nodes whose estimate changed since the
      last transmission;
    * :attr:`estimates_sent` — Figure 5's overhead numerator.
    """

    __slots__ = (
        "owned",
        "adjacency",
        "est",
        "changed",
        "neighbor_hosts",
        "border",
        "external_watchers",
        "remote_neighbors",
        "communication",
        "use_worklist",
        "p2p_filter",
        "estimates_sent",
    )

    def __init__(
        self,
        pid: int,
        owned: Sequence[int],
        adjacency: dict[int, tuple[int, ...]],
        host_of: dict[int, int],
        communication: str = "broadcast",
        use_worklist: bool = True,
        p2p_filter: bool = False,
    ) -> None:
        super().__init__(pid)
        self.owned: tuple[int, ...] = tuple(owned)
        self.adjacency = adjacency
        self.communication = communication
        self.use_worklist = use_worklist
        self.p2p_filter = p2p_filter
        self.est: dict[int, int] = {}
        self.changed: set[int] = set()
        self.estimates_sent = 0

        owned_set = set(self.owned)
        # neighborH(x): hosts owning at least one neighbour of V(x)
        self.neighbor_hosts: tuple[int, ...] = tuple(
            sorted(
                {
                    host_of[v]
                    for u in self.owned
                    for v in adjacency[u]
                    if host_of[v] != pid
                }
            )
        )
        # border[y]: owned nodes with a neighbour on host y (Algorithm 5)
        border: dict[int, set[int]] = {y: set() for y in self.neighbor_hosts}
        # external_watchers[v]: owned nodes adjacent to external node v
        watchers: dict[int, list[int]] = {}
        # remote_neighbors[u][y]: u's neighbours living on host y (used
        # by the extension send filter)
        remote: dict[int, dict[int, list[int]]] = {}
        for u in self.owned:
            for v in adjacency[u]:
                if v not in owned_set:
                    border[host_of[v]].add(u)
                    watchers.setdefault(v, []).append(u)
                    remote.setdefault(u, {}).setdefault(
                        host_of[v], []
                    ).append(v)
        self.border: dict[int, frozenset[int]] = {
            y: frozenset(nodes) for y, nodes in border.items()
        }
        self.external_watchers: dict[int, tuple[int, ...]] = {
            v: tuple(us) for v, us in watchers.items()
        }
        self.remote_neighbors: dict[int, dict[int, tuple[int, ...]]] = {
            u: {y: tuple(vs) for y, vs in per_host.items()}
            for u, per_host in remote.items()
        }

    # ------------------------------------------------------------------
    def _improve(self, dirty: Sequence[int] | None) -> None:
        if self.use_worklist:
            improve_estimate_worklist(
                self.est, self.owned, self.adjacency, self.changed, dirty=dirty
            )
        else:
            improve_estimate_naive(
                self.est, self.owned, self.adjacency, self.changed
            )

    def _emit(self, ctx: Context, updates: list[tuple[int, int]]) -> None:
        """Send ``updates`` according to the communication policy."""
        if not updates or not self.neighbor_hosts:
            # nothing "has to be sent to another host" (Figure-5 metric)
            return
        if self.communication == "broadcast":
            # one transmission; every estimate counted once (Figure 5 left)
            self.estimates_sent += len(updates)
            for y in self.neighbor_hosts:
                ctx.send(y, updates)
        else:  # point-to-point, Algorithm 5
            for y in self.neighbor_hosts:
                subset = [
                    (u, k) for u, k in updates if u in self.border[y]
                ]
                if self.p2p_filter:
                    # extension (host-level analogue of §3.1.2): skip
                    # (u, k) for host y when every neighbour of u on y
                    # already has an estimate <= k — the value would be
                    # clamped away by their computeIndex anyway. Safe by
                    # the same argument as the one-to-one filter: our
                    # stored est[v] upper-bounds v's current estimate.
                    subset = [
                        (u, k)
                        for u, k in subset
                        if any(
                            self.est[v] > k
                            for v in self.remote_neighbors[u][y]
                        )
                    ]
                if subset:
                    self.estimates_sent += len(subset)
                    ctx.send(y, subset)

    # ------------------------------------------------------------------
    def on_init(self, ctx: Context) -> None:
        """Algorithm 3 initialisation: degrees in, cascade, full send."""
        owned_set = set(self.owned)
        self.est = {}
        for u in self.owned:
            for v in self.adjacency[u]:
                if v not in owned_set:
                    self.est[v] = INFINITY_INT
        for u in self.owned:
            self.est[u] = len(self.adjacency[u])
        self.changed = set()
        self.estimates_sent = 0
        self._improve(dirty=None)
        # the initial message carries *all* owned estimates
        self._emit(ctx, [(u, self.est[u]) for u in self.owned])
        self.changed.clear()

    def on_messages(self, ctx: Context, messages: Sequence[Message]) -> None:
        """Fold received estimate sets; cascade locally (Algorithm 3)."""
        dirty: set[int] = set()
        for _sender, payload in messages:
            for v, k in payload:  # type: ignore[misc]
                # hosts only broadcast their own nodes, so v is external;
                # entries outside V(x) ∪ neighborV(x) are ignored
                current = self.est.get(v)
                if current is not None and k < current:
                    self.est[v] = k
                    dirty.update(self.external_watchers.get(v, ()))
        if dirty:
            self._improve(dirty=sorted(dirty))

    def on_round(self, ctx: Context) -> None:
        """Periodic block: transmit estimates changed since last round."""
        if not self.changed:
            return
        updates = [(u, self.est[u]) for u in sorted(self.changed)]
        self._emit(ctx, updates)
        self.changed.clear()

    def is_quiescent(self) -> bool:
        return not self.changed


@dataclass
class OneToManyConfig:
    """Configuration for :func:`run_one_to_many`.

    ``num_hosts``, the assignment ``policy`` (Section 3.2.2, default the
    paper's modulo) and the ``communication`` policy (Section 3.2.1)
    select the scenario; the rest mirrors :class:`OneToOneConfig`.
    ``use_worklist=False`` switches the internal cascade to the
    paper-verbatim full-sweep loop (same fixpoint, more recompute).
    """

    num_hosts: int = 4
    policy: str = "modulo"
    communication: str = "broadcast"
    mode: str = "peersim"
    #: ``"round"`` (default), ``"flat"``, ``"mp"`` or ``"async"``.
    #: ``"flat"`` routes to the sharded CSR fast path
    #: (:mod:`repro.core.one_to_many_flat`) — an exact replay of the
    #: round engine (identical coreness, rounds, message counts and
    #: ``estimates_sent`` per seed), just faster; it rejects
    #: ``observers``. ``"mp"`` spawns one OS process per host shard
    #: (:mod:`repro.core.one_to_many_mp`) with host-to-host batches
    #: over real pipes — an exact replay of the flat lockstep path; it
    #: requires ``mode="lockstep"`` and >= 2 hosts and rejects
    #: ``observers``. ``"async"`` runs the host processes under
    #: arbitrary per-message latencies; it has no rounds, so combining
    #: it with ``fixed_rounds``, ``mode="lockstep"`` or ``observers``
    #: raises :class:`ConfigurationError`.
    engine: str = "round"
    #: Kernel backend for ``engine="flat"`` / ``engine="mp"`` (see
    #: :mod:`repro.sim.kernels`): ``"stdlib"`` (canonical, default) or
    #: ``"numpy"`` (vectorised, optional install). Both activation
    #: modes and all communication policies accept either backend with
    #: bit-identical results (the mp engine resolves it per worker
    #: process); a non-default backend on the object engines raises
    #: :class:`ConfigurationError`.
    backend: str = "stdlib"
    #: ``multiprocessing`` start method for ``engine="mp"`` (``None``
    #: means ``"spawn"`` — portable, and what a real fresh-interpreter
    #: deployment resembles; ``"fork"``/``"forkserver"`` start much
    #: faster on POSIX with identical results). Setting it on any other
    #: engine raises :class:`ConfigurationError` — nothing else spawns.
    mp_start_method: str | None = None
    #: Seconds the ``engine="mp"`` coordinator waits for any single
    #: worker's round report before its failure detector fires
    #: (``None`` derives a round-aware default from the per-worker load:
    #: :func:`repro.sim.mp_engine.default_reply_timeout`). Raise it for
    #: graphs whose per-round fold/cascade legitimately exceeds the
    #: derived value on slow machines; like ``mp_start_method``, it is
    #: rejected on every other engine.
    mp_reply_timeout: float | None = None
    #: Estimate transport for ``engine="mp"`` (``None`` means
    #: ``"queue"`` — per-worker ``multiprocessing.Queue`` inboxes with
    #: pickled batches). ``"shm"`` moves the estimate hot path into
    #: per-worker mailbox rings in ``multiprocessing.shared_memory``
    #: segments sized from the partition's cut structure
    #: (:mod:`repro.sim.shm_transport`): zero pickling per round, with
    #: a loud queue-lane fallback if a batch ever outgrows its ring.
    #: Results are bit-identical across transports; like the other
    #: ``mp_*`` knobs, rejected on every other engine.
    mp_transport: str | None = None
    #: Fault tolerance for ``engine="mp"``: a
    #: :class:`~repro.sim.checkpoint.CheckpointPolicy` makes the fleet
    #: snapshot worker state + in-flight mail every N rounds to an
    #: atomic, checksummed on-disk checkpoint, and enables in-flight
    #: recovery of a lost worker (respawn from the last checkpoint +
    #: deterministic replay). ``None`` (default) runs without snapshots.
    #: Like the other ``mp_*`` knobs, rejected on every other engine —
    #: the in-process engines cannot lose a worker.
    checkpoint: CheckpointPolicy | None = None
    seed: int | None = 0
    max_rounds: int = 1_000_000
    strict: bool = True
    fixed_rounds: int | None = None
    use_worklist: bool = True
    #: Extension beyond the paper: host-level send filter for the p2p
    #: policy (the paper notes the §3.1.2 filter "cannot be applied" as
    #: is; this is the sound host-level analogue). Default off.
    p2p_filter: bool = False
    observers: Sequence[Observer] = field(default_factory=tuple)
    #: ``True``/``False`` or a :class:`repro.telemetry.Tracer`; when
    #: enabled, the run is bracketed in spans — rounds on every engine,
    #: kernel phases on ``engine="flat"``, and on ``engine="mp"`` a
    #: full fleet timeline (coordinator lane + one lane per worker:
    #: queue waits, fold/cascade, serialization, barrier skew,
    #: checkpoint and recovery spans, shipped over the control pipes at
    #: gather time). A pure observer: results are bit-identical with
    #: tracing on or off. Rejected under ``engine="async"`` (no rounds
    #: to bracket).
    telemetry: object = None
    #: Path for the collected trace — Chrome trace-event JSON (loadable
    #: in Perfetto / ``chrome://tracing``; one lane per process), or
    #: JSON Lines when the path ends in ``.jsonl``. Implies
    #: ``telemetry=True``.
    trace_out: str | None = None


def build_host_processes(
    graph: Graph,
    assignment: Assignment,
    communication: str = "broadcast",
    use_worklist: bool = True,
    p2p_filter: bool = False,
) -> dict[int, KCoreHost]:
    """Instantiate one :class:`KCoreHost` per host of ``assignment``."""
    check_communication(communication, p2p_filter)
    adjacency_of = {
        u: graph.sorted_neighbors(u) for u in graph.nodes()
    }
    processes: dict[int, KCoreHost] = {}
    for host in range(assignment.num_hosts):
        owned = assignment.owned[host]
        processes[host] = KCoreHost(
            pid=host,
            owned=owned,
            adjacency={u: adjacency_of[u] for u in owned},
            host_of=assignment.host_of,
            communication=communication,
            use_worklist=use_worklist,
            p2p_filter=p2p_filter,
        )
    return processes


def run_one_to_many(
    graph: Graph,
    config: OneToManyConfig | None = None,
    assignment: Assignment | None = None,
) -> DecompositionResult:
    """Run Algorithms 3-5 over ``graph`` distributed on hosts.

    Returns the same coreness as the one-to-one protocol; the
    interesting output is ``stats``: rounds, engine-level messages, and
    ``stats.extra["estimates_sent_per_node"]`` — the Figure-5 overhead.
    """
    config = config or OneToManyConfig()
    if config.engine != "mp":
        for knob in (
            "mp_start_method",
            "mp_reply_timeout",
            "mp_transport",
            "checkpoint",
        ):
            if getattr(config, knob) is not None:
                raise ConfigurationError(
                    f"{knob}={getattr(config, knob)!r} configures the "
                    "multiprocessing fleet and applies to engine='mp' "
                    f"only, not engine={config.engine!r}; no other "
                    "engine spawns processes"
                )
    if config.engine == "flat":
        from repro.core.one_to_many_flat import run_one_to_many_flat

        return run_one_to_many_flat(graph, config, assignment)
    if config.engine == "mp":
        from repro.core.one_to_many_mp import run_one_to_many_mp

        return run_one_to_many_mp(graph, config, assignment)
    if config.backend != "stdlib":
        # kernel backends belong to the flat engine; silently ignoring
        # the knob would misreport what actually executed
        raise ConfigurationError(
            f"backend={config.backend!r} selects a flat-kernel backend "
            f"and applies to the kernel engines ('flat', 'mp') only, "
            f"not engine={config.engine!r}; the object engines run "
            "Process objects, not kernels"
        )
    if config.engine == "async":
        # the async engine has no rounds: silently ignoring round-engine
        # knobs would report misleading results, so reject them instead
        if config.fixed_rounds is not None:
            raise ConfigurationError(
                "fixed_rounds has no meaning under engine='async' "
                "(there are no rounds)"
            )
        if config.mode == "lockstep":
            raise ConfigurationError(
                "mode='lockstep' has no meaning under engine='async'; "
                "activation modes belong to the round engines"
            )
        if config.observers:
            raise ConfigurationError(
                "observers are round-engine hooks and are not invoked "
                "by engine='async'; use engine='round' for traced runs"
            )
        if config.telemetry or config.trace_out:
            raise ConfigurationError(
                "telemetry spans bracket rounds and kernel phases, "
                "which engine='async' does not have; use engine='round', "
                "'flat' or 'mp' for traced runs"
            )
    if assignment is None:
        assignment = assign(
            graph, config.num_hosts, policy=config.policy, seed=config.seed
        )
    processes = build_host_processes(
        graph,
        assignment,
        communication=config.communication,
        use_worklist=config.use_worklist,
        p2p_filter=config.p2p_filter,
    )
    tracer = run_tracer(config.telemetry, config.trace_out)
    if config.engine == "async":
        from repro.sim.async_engine import AsyncEngine

        async_engine = AsyncEngine(
            processes, seed=config.seed, strict=config.strict
        )
        stats = async_engine.run()
    elif config.engine == "round":
        max_rounds = config.max_rounds
        strict = config.strict
        if config.fixed_rounds is not None:
            max_rounds = config.fixed_rounds
            strict = False
        engine = RoundEngine(
            processes,
            mode=config.mode,
            seed=config.seed,
            max_rounds=max_rounds,
            strict=strict,
            observers=config.observers,
            telemetry=tracer,
        )
        stats = engine.run()
    else:
        raise ConfigurationError(f"unknown engine {config.engine!r}")

    coreness: dict[int, int] = {}
    estimates_sent = 0
    for host in processes.values():
        estimates_sent += host.estimates_sent
        for u in host.owned:
            coreness[u] = host.est[u]
    stats.extra["estimates_sent_total"] = estimates_sent
    stats.extra["estimates_sent_per_node"] = (
        estimates_sent / graph.num_nodes if graph.num_nodes else 0.0
    )
    stats.extra["num_hosts"] = assignment.num_hosts
    stats.extra["cut_edges"] = assignment.cut_edges(graph)
    if assignment.policy == "refined":
        stats.extra["cut_edges_after_refine"] = stats.extra["cut_edges"]
    finish_run_telemetry(tracer, config.trace_out, stats)
    return DecompositionResult(
        coreness=coreness,
        stats=stats,
        algorithm=f"one-to-many/{config.communication}/{assignment.policy}",
    )
