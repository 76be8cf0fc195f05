"""One host's steps of the one-to-many protocol, written once.

In Algorithms 3-5 every host runs the same steps: seed its estimates
from the degrees and run the internal cascade (``improveEstimate``,
Algorithm 4), fold the estimates its neighbour hosts sent and cascade
again, and route the estimates that changed to the neighbour hosts
that need them. :class:`ShardRuntime` is those steps over one
:class:`~repro.graph.sharded.HostShard`, on either
:mod:`repro.sim.kernels` backend. Moving the batches between hosts is
left to the engine that runs it:
:class:`~repro.sim.flat_many_engine.FlatOneToManyEngine` runs one
runtime per host in one process and delivers through in-process
mailboxes, and each worker of
:class:`~repro.sim.mp_engine.MultiProcessOneToManyEngine` runs one
runtime and delivers over queues or shared memory.

State lives in the shard's local index space (owned nodes first, then
the external boundary):

* ``est[u]`` covers ``V(x) ∪ neighborV(x)`` — the paper stores both in
  one array, and here that array is literal;
* ``sup[u]`` is the support counter of the flat one-to-one engines:
  the number of u's neighbours (internal or external) whose estimate
  is >= ``est[u]``. ``computeIndex`` lowers ``est[u]`` iff fewer than
  ``est[u]`` neighbours sit at >= ``est[u]``, so a neighbour's drop
  needs a recompute only when it pushes ``sup`` below ``est``. The
  kernels maintain it exactly, so it is bit-identical across backends;
* ``queued`` and the changed flag/list are cascade scratch, empty
  between steps.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.graph.sharded import HostShard, ShardedCSR
from repro.sim.kernels import KernelBackend
from repro.sim.tracing import diff_round, reference_slice
from repro.telemetry.spans import NULL_TRACER

__all__ = [
    "ShardRuntime",
    "check_communication",
    "record_shards",
    "shard_references",
]


def check_communication(communication: str, p2p_filter: bool) -> None:
    """Reject an unknown communication policy, and ``p2p_filter``
    without the p2p policy it filters."""
    if communication not in ("broadcast", "p2p"):
        raise ConfigurationError(
            f"unknown communication policy {communication!r}; "
            "options: ['broadcast', 'p2p']"
        )
    if p2p_filter and communication != "p2p":
        raise ConfigurationError("p2p_filter requires the p2p policy")


class ShardRuntime:
    """Algorithms 3-5 for one host shard, without the delivery.

    A step is :meth:`init` (round 1) or :meth:`activate` (every later
    round); each returns the ``(owned node, estimate)`` updates the
    step must send, and :meth:`route` turns them into per-destination
    batches. The kernel phases are traced as ``kernel.seed_shard`` /
    ``kernel.fold_mailbox`` / ``kernel.cascade`` spans with a ``host``
    argument.
    """

    __slots__ = (
        "host",
        "shard",
        "kb",
        "broadcast",
        "p2p_filter",
        "tracer",
        "offsets",
        "targets",
        "watch_offsets",
        "watch_targets",
        "est",
        "sup",
        "queued",
        "changed_flag",
        "changed_list",
        "scratch",
        "estimates_sent",
        "record_refs",
        "record_prev",
    )

    def __init__(
        self,
        shard: HostShard,
        kb: KernelBackend,
        communication: str,
        p2p_filter: bool = False,
        tracer=NULL_TRACER,
    ) -> None:
        self.host = shard.host
        self.shard = shard
        self.kb = kb
        self.broadcast = communication == "broadcast"
        self.p2p_filter = p2p_filter
        self.tracer = tracer
        self.offsets = kb.graph_array(shard.offsets)
        self.targets = kb.graph_array(shard.targets)
        self.watch_offsets = kb.graph_array(shard.watch_offsets)
        self.watch_targets = kb.graph_array(shard.watch_targets)
        self.est = kb.full(shard.n_owned + shard.n_ext)
        self.sup = kb.full(shard.n_owned)
        self.queued = kb.worklist_flags(shard.n_owned)
        self.changed_flag = bytearray(shard.n_owned)
        self.changed_list: list[int] = []
        self.scratch: list[int] = []
        #: Figure-5 overhead numerator: estimates this host has sent.
        self.estimates_sent = 0
        #: TraceRecorder feeding state: reference slices over the owned
        #: nodes and the previous round's values (None = not recording)
        self.record_refs: "list[list[int] | None] | None" = None
        self.record_prev: "list[int] | None" = None

    # ------------------------------------------------------------------
    def init(self) -> list[tuple[int, int]]:
        """Algorithm 3's initialisation: degrees in, then the cascade.

        Returns every owned estimate — the initial message carries all
        of them.
        """
        # deferred: importing at module scope closes a cycle through
        # repro.sim.__init__ -> here -> core.one_to_many -> core.result
        from repro.core.one_to_many import INFINITY_INT

        shard = self.shard
        with self.tracer.span("kernel.seed_shard", host=self.host):
            dirty = self.kb.seed_shard(
                self.offsets, self.targets, shard.n_owned, shard.n_ext,
                INFINITY_INT, self.est, self.sup, self.queued,
            )
        self._cascade(dirty)
        self._take_changed()
        return list(enumerate(self.owned()))

    def activate(self, slots: list[int], vals: list[int]) -> list[tuple[int, int]]:
        """One activation: fold ``(ext-slot, value)`` mail, cascade.

        The pairs must come in the sending hosts' pid order — the order
        the object engine fills a mailbox in. Returns the owned
        estimates the cascade changed.
        """
        if slots:
            with self.tracer.span("kernel.fold_mailbox", host=self.host):
                dirty = self.kb.fold_mailbox(
                    slots, vals, self.shard.n_owned, self.est, self.sup,
                    self.watch_offsets, self.watch_targets, self.queued,
                )
            self._cascade(dirty)
        return self._take_changed()

    def _cascade(self, dirty) -> None:
        if len(dirty):
            with self.tracer.span("kernel.cascade", host=self.host):
                self.kb.cascade(
                    self.offsets, self.targets, self.shard.n_owned,
                    self.est, self.sup, dirty, self.queued,
                    self.changed_flag, self.changed_list, self.scratch,
                )

    def _take_changed(self) -> list[tuple[int, int]]:
        """The changed owned estimates; clears the changed set."""
        est = self.est
        clist = self.changed_list
        updates = [(u, int(est[u])) for u in clist]
        flags = self.changed_flag
        for u in clist:
            flags[u] = 0
        clist.clear()
        return updates

    # ------------------------------------------------------------------
    def route(
        self, updates: list[tuple[int, int]]
    ) -> "dict[int, tuple[list[int], list[int]]]":
        """Per-destination ``(ext-slots, values)`` batches for ``updates``.

        One batch is one message. Under ``broadcast`` (Algorithm 3)
        every neighbour host receives one, even when none of its border
        pairs changed, and every estimate costs one Figure-5 overhead
        unit. Under ``p2p`` (Algorithm 5) only hosts with a non-empty
        subset receive one, and each (estimate, destination) pair costs
        one unit. ``p2p_filter`` further drops a pair when no external
        neighbour on the destination is stored above the new value.
        Adds this step's overhead to :attr:`estimates_sent`.
        """
        shard = self.shard
        neighbor_hosts = shard.neighbor_hosts
        if not updates or not neighbor_hosts:
            # nothing "has to be sent to another host" (Figure 5)
            return {}
        if self.p2p_filter:
            est = self.est
            n_owned = shard.n_owned
            batches = {}
            for y in neighbor_hosts:
                dest_get = shard.dest_slots[y].get
                remote = shard.remote_slots[y]
                slots: list[int] = []
                vals: list[int] = []
                for u, k in updates:
                    s = dest_get(u)
                    if s is None:  # u has no neighbour on y
                        continue
                    if not any(est[n_owned + t] > k for t in remote[u]):
                        continue
                    slots.append(s)
                    vals.append(k)
                if slots:
                    batches[y] = (slots, vals)
                    self.estimates_sent += len(slots)
            return batches
        out_slots: dict[int, list[int]] = {y: [] for y in neighbor_hosts}
        out_vals: dict[int, list[int]] = {y: [] for y in neighbor_hosts}
        deliver = shard.deliver
        for u, k in updates:
            for y, s in deliver[u]:
                out_slots[y].append(s)
                out_vals[y].append(k)
        if self.broadcast:
            self.estimates_sent += len(updates)
            return {y: (out_slots[y], out_vals[y]) for y in neighbor_hosts}
        batches = {}
        for y in neighbor_hosts:
            slots = out_slots[y]
            if slots:
                batches[y] = (slots, out_vals[y])
                self.estimates_sent += len(slots)
        return batches

    # ------------------------------------------------------------------
    def owned(self) -> list[int]:
        """The owned estimates, in local order."""
        return self.est[: self.shard.n_owned].tolist()

    def enable_recording(
        self, refs: "list[list[int] | None]", restored: bool = False
    ) -> None:
        """Arm the per-round diff of the owned estimates.

        ``prev`` after any recorded round equals the owned estimates
        exactly (the diff copies every changed value), so a runtime
        restored from a snapshot reseeds it from those; a fresh one
        seeds ``-1`` so round 1 counts every node (the observer path's
        first-observation rule).
        """
        self.record_refs = refs
        if restored:
            self.record_prev = self.owned()
        else:
            self.record_prev = [-1] * self.shard.n_owned

    def record_diff(self) -> "tuple | None":
        """One round's ``(changed, errors)`` aggregate, or ``None``."""
        if self.record_refs is None:
            return None
        return diff_round(self.est, self.record_prev, self.record_refs)

    def resync_record_prev(self) -> None:
        """Re-align ``prev`` with the estimates after a recovery replay
        (equivalent to having diffed every replayed round)."""
        if self.record_prev is not None:
            self.record_prev = self.owned()


def shard_references(
    recorders, sharded: ShardedCSR
) -> "list[list[list[int] | None]]":
    """Per shard, each recorder's reference over the shard's owned nodes."""
    ids = sharded.csr.ids
    return [
        [
            reference_slice(rec.reference, [ids[g] for g in shard.owned_global])
            for rec in recorders
        ]
        for shard in sharded.shards
    ]


def record_shards(recorders, round_number: int, sends: int, diffs) -> None:
    """Sum the shards' ``(changed, errors)`` diffs; record one round.

    Addition is associative, so sharding does not change the totals.
    """
    changed = 0
    errors: "list[int | None]" = [
        0 if rec.reference is not None else None for rec in recorders
    ]
    for shard_changed, shard_errors in diffs:
        changed += shard_changed
        for j, err in enumerate(shard_errors):
            if err is not None:
                errors[j] += err
    for rec, err in zip(recorders, errors):
        rec.record(round_number, sends, changed, err)
