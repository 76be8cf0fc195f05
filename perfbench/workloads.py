"""The four workloads and their timed operations.

A workload turns a seed into inputs (untimed, :mod:`inputs`), runs one
warm-up operation in-process and then repeats the *operation*, each
time in a forked copy of the warmed-up process, through the public
API:

* batch workloads (``one2one``, ``one2many``, ``fleet``): one operation
  is ``read_edge_list`` of the SNAP file followed by
  ``repro.core.api.decompose``, ending with the ``{node: coreness}``
  map in hand;
* ``churn``: one operation builds a ``ChurnService`` over the initial
  overlay and replays the whole stream through it as a closed loop with
  one client — events in chunks of ``CHUNK``, one ``coreness_of`` point
  query after every ``QUERY_EVERY`` events — ending with the full
  coreness map in hand.

Every operation's map is compared with Batagelj–Zaversnik (computed
once per seed, outside the timed region), and its replay counts with
the first operation of the run; a mismatch fails the operation.

Forking gives every timed operation the same starting heap. Run one
after another in one process, each operation leaves about 1 MiB of
interpreter arenas pinned by the small objects that outlive it, so the
resident set an operation starts from (and so its peak) would creep up
with the number of operations a run fits in.
"""

from __future__ import annotations

import ctypes
import gc
import os
import pickle
import resource
import sys
import threading
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
from repro.core.api import decompose
from repro.graph.io import read_edge_list
from repro.streaming import ChurnService
from repro.telemetry import Tracer

import inputs
from layers import layer_metrics, layer_probe, span_forest

# every third chunk completes a 64-event batch and every query flushes
# the 32 events behind it, so writes and reads both pay real work
BATCH_SIZE = 64
CHUNK = 32
QUERY_EVERY = 96


@dataclass(frozen=True)
class Spec:
    name: str
    #: "er" / "ba" for batch workloads, "amazon" for churn
    family: str
    algorithm: str = ""
    options: dict = field(default_factory=dict)


#: why each workload is in the benchmark is said in BENCHMARK.json
WORKLOADS = {
    spec.name: spec
    for spec in (
        # ER n=50k, average degree 8: construction-heavy; bypasses
        # placement, sharding, routing and transport
        Spec("one2one", "er", "one-to-one-flat", {"backend": "numpy"}),
        # BA n=50k, m=4: many rounds and a high cut
        Spec(
            "one2many", "ba", "one-to-many-flat",
            {"backend": "numpy", "num_hosts": 8, "communication": "p2p"},
        ),
        # the same BA file on 2 worker processes over shared memory
        Spec(
            "fleet", "ba", "one-to-many-mp",
            {"backend": "numpy", "num_hosts": 2, "communication": "p2p",
             "mp_transport": "shm"},
        ),
        # amazon-like n=50k under join/leave churn, default backend
        Spec("churn", "amazon"),
    )
}

#: node counts (and churn stream length) at full and at smoke size
FULL = {"n": 50_000, "events": 96 * 100}
SMOKE = {"n": 600, "events": 96 * 4}


# ----------------------------------------------------------------------
# process memory
# ----------------------------------------------------------------------
def settle_memory() -> None:
    """Hand the warm-up's garbage back to the OS before forking.

    The forked operations then start from the live set, not from the
    heap the warm-up happened to leave behind.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed heap pages stay resident


def reset_peak_rss() -> None:
    """Restart the kernel's resident-memory high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def peak_rss_mb() -> float:
    try:
        return _hwm_mb("self")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class ChildPeak:
    """Largest resident high-water mark among this process's children.

    The fleet's workers are spawned and reaped inside ``decompose``, and
    ``getrusage(RUSAGE_CHILDREN)`` would report the coordinator's size
    at spawn (the high-water mark survives exec), so a thread samples
    each child's own ``VmHWM`` while the ``with`` block runs. Traced
    operations only: the thread shares the coordinator's interpreter.
    """

    def __init__(self, every: float = 0.05):
        self.every = every
        self.peak_mb = 0.0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._done.set()
        self._thread.join()
        return False

    def _sample(self) -> None:
        me = str(os.getpid())
        while not self._done.wait(self.every):
            for pid in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{pid}/stat") as handle:
                        ppid = handle.read().rsplit(")", 1)[1].split()[1]
                    if ppid == me:
                        self.peak_mb = max(self.peak_mb, _hwm_mb(pid))
                except (OSError, IndexError):
                    continue  # the process ended between listing and reading


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
@dataclass
class Op:
    """What one operation measured."""

    ok: bool
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    #: replay counts that must repeat exactly across operations
    counts: tuple
    why_failed: str = ""
    batch_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    layers: dict | None = None
    #: largest peak among the fleet's worker processes
    workers_peak_rss_mb: float = 0.0


class Workload:
    """One workload bound to one seed's inputs."""

    def __init__(self, spec: Spec, seed: int, workdir: str, smoke: bool):
        self.spec = spec
        self.seed = seed
        size = SMOKE if smoke else FULL
        if spec.family == "amazon":
            self.input = inputs.churn_input(
                size["n"], size["events"], QUERY_EVERY, seed
            )
            self.oracle = self.input.oracle
        else:
            self.input = inputs.edge_list_input(
                spec.family, size["n"], seed, workdir
            )
            #: BZ on the first operation's graph, outside its timing
            self.oracle = None
        self._counts = None

    @property
    def identity(self) -> dict:
        return self.input.identity

    def warm_up(self) -> Op:
        """One verified operation in this process, not timed.

        It takes the batch oracle, imports what the library imports
        lazily and starts multiprocessing's helper process, so that the
        forked operations after it all start warm and from one state.
        """
        op = self._check(self._run_here(traced=False))
        settle_memory()
        # forked children then never dirty this heap's pages by
        # walking it in a collection
        gc.freeze()
        return op

    def run(self, traced: bool = False) -> Op:
        """One verified operation in a forked copy of this process.

        ``traced`` adds the per-layer split.
        """
        sys.stdout.flush()
        sys.stderr.flush()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                with os.fdopen(write_end, "wb") as pipe:
                    pickle.dump(self._run_here(traced), pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            payload = pipe.read()
        os.waitpid(pid, 0)
        if not payload:
            return Op(False, 0.0, 0.0, 0.0, (), why_failed="process died")
        return self._check(pickle.loads(payload))

    def _run_here(self, traced: bool) -> Op:
        gc.collect()
        try:
            if self.spec.family == "amazon":
                return self._churn(traced)
            with warnings.catch_warnings():
                # the mp fleet warns on tiny graphs (smoke size only)
                warnings.simplefilter("ignore", RuntimeWarning)
                return self._batch(traced)
        except Exception:  # a raising operation is a failed operation
            traceback.print_exc()
            return Op(False, 0.0, 0.0, 0.0, (), why_failed="raised")

    def _check(self, op: Op) -> Op:
        """Fail an operation whose replay counts differ from the first."""
        if op.ok:
            if self._counts is None:
                self._counts = op.counts
            elif op.counts != self._counts:
                op.ok = False
                op.why_failed = (
                    f"replay counts {op.counts} != first operation's "
                    f"{self._counts}"
                )
        return op

    # -- batch: SNAP file -> coreness map ------------------------------
    def _batch(self, traced: bool) -> Op:
        spec, path = self.spec, self.input.path
        tracer = Tracer() if traced else None
        options = dict(spec.options)
        if traced:
            options["telemetry"] = tracer
        span = tracer.span if traced else _no_span
        workers = None
        if traced and spec.algorithm == "one-to-many-mp":
            workers = ChildPeak()
        reset_peak_rss()
        with (
            layer_probe(tracer) if traced else nullcontext(),
            workers or nullcontext(),
            span("op"),
        ):
            t0 = time.perf_counter()
            with span("graph.io.read"):
                graph = read_edge_list(path)
            t1 = time.perf_counter()
            result = decompose(graph, spec.algorithm, **options)
            coreness = result.coreness
            t2 = time.perf_counter()
        peak = peak_rss_mb()
        if self.oracle is None:
            self.oracle = batagelj_zaversnik(graph)
        stats = result.stats
        op = Op(
            ok=coreness == self.oracle,
            wall_s=t2 - t0,
            setup_s=t1 - t0,
            peak_rss_mb=peak,
            counts=(
                stats.execution_time,
                stats.total_messages,
                stats.extra.get("estimates_sent_total", 0),
            ),
        )
        if not op.ok:
            op.why_failed = "coreness map differs from BZ"
        if workers is not None:
            op.workers_peak_rss_mb = workers.peak_mb
        if traced:
            op.layers = layer_metrics(
                span_forest(tracer.buffers()),
                op_name="op",
                edges=graph.num_edges,
                stats=stats,
            )
            t = time.perf_counter()
            batagelj_zaversnik(graph)
            op.layers["baselines.bz_s"] = time.perf_counter() - t
        return op

    # -- churn: closed-loop stream through ChurnService ----------------
    def _churn(self, traced: bool) -> Op:
        data = self.input
        stream, queries = data.stream, data.queries
        tracer = Tracer() if traced else None
        batch_s: list = []
        query_s: list = []
        clock = time.perf_counter
        span = tracer.span if traced else _no_span
        reset_peak_rss()
        with layer_probe(tracer) if traced else nullcontext(), span("op"):
            t0 = clock()
            service = ChurnService(
                data.graph, batch_size=BATCH_SIZE, telemetry=tracer
            )
            t1 = clock()
            for at in range(0, len(stream), CHUNK):
                chunk = stream[at:at + CHUNK]
                s = clock()
                ran = service.submit(chunk)
                e = clock()
                if ran:
                    batch_s.append(e - s)
                done = at + len(chunk)
                if done % QUERY_EVERY == 0:
                    s = clock()
                    service.coreness_of(queries[done // QUERY_EVERY - 1])
                    query_s.append(clock() - s)
            coreness = service.coreness()
            t2 = clock()
        peak = peak_rss_mb()
        metrics = service.metrics
        op = Op(
            ok=coreness == self.oracle,
            # the stream, from the first event to the final map in hand
            wall_s=t2 - t1,
            setup_s=t1 - t0,
            peak_rss_mb=peak,
            counts=(
                sum(metrics["reconverge_rounds_per_batch"]),
                metrics["dirty_nodes_total"],
                metrics["compactions"],
            ),
            batch_s=batch_s,
            query_s=query_s,
        )
        if not op.ok:
            op.why_failed = "final coreness map differs from BZ"
        if traced:
            op.layers = layer_metrics(
                span_forest(tracer.buffers()),
                op_name="op",
                churn_metrics=metrics,
            )
            t = time.perf_counter()
            batagelj_zaversnik(data.graph)
            op.layers["baselines.bz_s"] = time.perf_counter() - t
        return op


def _no_span(name):
    return nullcontext()
