"""Flat fast path for Algorithm 1 (``engine="flat"``).

Thin glue between the protocol-level API (:class:`OneToOneConfig`,
:class:`DecompositionResult`) and the array engines in
:mod:`repro.sim.flat_engine`. Both delivery disciplines are supported:
``mode="lockstep"`` routes to :class:`FlatOneToOneEngine` (the
Section-4 synchronous model) and ``mode="peersim"`` to
:class:`FlatPeerSimEngine` (the randomized-activation cycle semantics
of the Section-5 experiments, RNG-identical to the object engine for
every seed). Generic observers are not supported — a fidelity feature
of the object engine — but :class:`~repro.sim.tracing.TraceRecorder`
instances in ``config.observers`` are fed through the engines'
array-diff recording path, and ``config.telemetry`` /
``config.trace_out`` enable span tracing; both are pure observers (see
the flat-engine module docstring for the tradeoff).
"""

from __future__ import annotations

from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sim.flat_engine import FlatOneToOneEngine, FlatPeerSimEngine
from repro.sim.kernels import resolve_backend
from repro.sim.tracing import recorders_from_observers
from repro.telemetry import finish_run_telemetry, run_tracer

__all__ = ["run_one_to_one_flat"]


def run_one_to_one_flat(
    graph: "Graph | CSRGraph", config=None
) -> DecompositionResult:
    """Run Algorithm 1 through the flat array engines.

    Accepts either a :class:`Graph` (converted to CSR internally) or a
    prebuilt :class:`CSRGraph` (conversion amortised by the caller).
    Produces bit-identical coreness and statistics to
    ``run_one_to_one(engine="round")`` under the same ``mode`` and
    ``seed``.

    >>> from repro.graph.generators import clique_graph
    >>> run_one_to_one_flat(clique_graph(4)).coreness
    {0: 3, 1: 3, 2: 3, 3: 3}
    """
    from repro.core.one_to_one import OneToOneConfig

    config = config or OneToOneConfig(mode="lockstep", engine="flat")
    if config.mode not in ("lockstep", "peersim"):
        raise ConfigurationError(
            f"unknown engine mode {config.mode!r}; the flat engine "
            "replays 'lockstep' or 'peersim' semantics"
        )
    # generic observers are rejected; TraceRecorder instances pass
    # through to the engines' array-diff recording path
    recorders = recorders_from_observers(config.observers, "flat")
    tracer = run_tracer(config.telemetry, config.trace_out)
    # resolved here, in the config layer, so an unknown name or a
    # missing numpy fails before any engine work starts
    backend = resolve_backend(config.backend)
    if config.mode == "peersim" and backend.name != "stdlib":
        raise ConfigurationError(
            f"backend={backend.name!r} is not supported under "
            "mode='peersim': PeerSim cycle semantics deliver messages "
            "immediately in a randomized per-node activation order, an "
            "inherently sequential loop with no batch to vectorise; "
            "use mode='lockstep' or the default backend='stdlib' "
            "(see the support matrix in repro.sim.kernels)"
        )
    if isinstance(graph, CSRGraph):
        csr = graph
        activation_ids = None
    else:
        csr = CSRGraph.from_graph(graph, backend=backend)
        # the object engine shuffles pids in process-dict insertion
        # order == graph.nodes() order; replaying the RNG stream
        # bit-exactly requires starting from that same base sequence
        activation_ids = (
            list(graph.nodes()) if config.mode == "peersim" else None
        )
    max_rounds = config.max_rounds
    strict = config.strict
    if config.fixed_rounds is not None:
        max_rounds = config.fixed_rounds
        strict = False
    if config.mode == "peersim":
        engine: FlatOneToOneEngine | FlatPeerSimEngine = FlatPeerSimEngine(
            csr,
            seed=config.seed,
            optimize_sends=config.optimize_sends,
            max_rounds=max_rounds,
            strict=strict,
            activation_ids=activation_ids,
            telemetry=tracer,
            recorders=recorders,
        )
    else:
        engine = FlatOneToOneEngine(
            csr,
            optimize_sends=config.optimize_sends,
            max_rounds=max_rounds,
            strict=strict,
            backend=backend,
            telemetry=tracer,
            recorders=recorders,
        )
    stats = engine.run()
    finish_run_telemetry(tracer, config.trace_out, stats)
    return DecompositionResult(
        coreness=engine.coreness(),
        stats=stats,
        algorithm=f"one-to-one/{config.mode}-flat",
    )
