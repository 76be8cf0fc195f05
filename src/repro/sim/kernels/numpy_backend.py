"""The optional vectorised numpy kernel backend.

Implements the :class:`~repro.sim.kernels.base.KernelBackend` contract
with whole-phase array operations instead of per-node Python loops:
bucket counting becomes a segmented sort, support seeding becomes a
``bincount``, mailbox folds become masked gathers, and the shard
cascade runs as synchronous (Jacobi) relaxation rounds of the same
monotone operator — safe because Algorithm 4's fixpoint, changed set
and exact support counters are schedule-independent (the flat
one-to-many engine's module docstring carries the argument; the
backend-equivalence suite asserts bit-identity against the stdlib
backend on every gated configuration).

The heart is :meth:`NumpyBackend.batch_compute_index`: Algorithm 2 for
many nodes at once. Per node, ``computeIndex`` needs the largest
``i <= k`` with at least ``i`` neighbour estimates ``>= i``. Clamp the
estimates to ``k``, sort them *descending within each node's segment*
(one global ``np.sort`` over ``segment * B - value`` keys — segments
occupy disjoint key blocks, so one flat sort sorts every segment), and
the answer is the largest in-segment position ``p`` with
``sorted[p] >= p + 1`` — the classic h-index-by-sorting identity,
floored at 1 to match the scalar kernel's downward scan. The
post-condition support ``#{clamped >= t}`` falls out of the same
sorted array with a segmented sum.

The construction kernels apply the same idea to building the graph:
a CSR is one sort of ``(owner, neighbour)`` keys, a shard's external
slots and watcher lists come from stably grouping its cut edges by
external node, and plain SNAP text is tokenised over its bytes. What
stays per element in Python is wrapping the results into the builtin
containers a ``Graph`` or ``HostShard`` holds.

This module must only be imported through
:func:`repro.sim.kernels.resolve_backend`, which gates on numpy being
importable; nothing else in the package (or the engines) touches numpy,
so stdlib-only environments never pay — or need — the import.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain

import numpy as np

from repro.core.compute_index import compute_index
from repro.sim.kernels.base import KernelBackend
from repro.sim.kernels.stdlib_backend import StdlibBackend

__all__ = ["NumpyBackend"]

_I64 = np.int64


def _segments(offsets, nodes):
    """Gather indices for the concatenated CSR slices of ``nodes``.

    Returns ``(seg, idx, starts, lens)``: ``idx`` indexes the flat edge
    array so ``flat[idx]`` concatenates every node's slice, ``seg[p]``
    is the position in ``nodes`` that element ``p`` belongs to, and
    ``starts`` (length ``len(nodes) + 1``) bounds each segment.
    """
    lens = offsets[nodes + 1] - offsets[nodes]
    starts = np.zeros(len(nodes) + 1, dtype=_I64)
    np.cumsum(lens, out=starts[1:])
    total = int(starts[-1])
    seg = np.repeat(np.arange(len(nodes), dtype=_I64), lens)
    idx = offsets[nodes][seg] + (np.arange(total, dtype=_I64) - starts[seg])
    return seg, idx, starts, lens


def _unique_sorted(values):
    """Sorted distinct values: one sort and an adjacent compare.

    ``np.unique`` returns the same array, but on numpy 2.4 it took 59 ms
    against 7 ms here for 400k int64 values (2-vCPU x86-64 Linux).
    """
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _groups(values):
    """Group equal values, keeping their order within each group.

    Returns ``(order, group, starts)``: ``order`` stably sorts ``values``,
    ``group[p]`` numbers the group of ``values[order[p]]`` (groups
    ascend with the value) and ``starts[k]`` is the position in
    ``order`` where group ``k`` begins — so ``order[starts]`` is each
    distinct value's first occurrence.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    head = np.empty(len(ordered), dtype=bool)
    if len(head):
        head[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    group = np.cumsum(head) - 1
    return order, group, np.flatnonzero(head)


def _to_array(values) -> array:
    """An ``array('q')`` copy of an int64 ndarray (one memcpy)."""
    out = array("q")
    if len(values):
        out.frombytes(
            memoryview(np.ascontiguousarray(values, dtype=_I64)).cast("B")
        )
    return out


def _arrays(*values) -> list[array]:
    """:func:`_to_array` of each argument."""
    return [_to_array(v) for v in values]


#: a comment line: first non-blank character ``#`` or ``%``
_COMMENT_LINE = re.compile(r"^[ \t]*[#%][^\n]*", re.MULTILINE)
#: the bytes a plain two-column data line may hold
_DATA_BYTE = np.zeros(256, dtype=bool)
_DATA_BYTE[list(b"0123456789+- \t\n")] = True
#: longest token the fast parser takes: 18 characters, sign included,
#: always fit int64 (19 digits may not)
_MAX_TOKEN = 18


def _strip_comments(text: str) -> str:
    """``text`` without its comment lines (blank lines stay)."""
    if "#" in text or "%" in text:
        text = _COMMENT_LINE.sub("", text)
    return text


def _parse_pairs(text: str):
    """``(us, vs)`` of SNAP text in its plain shape, else ``None``.

    The plain shape: comment and blank lines, and data lines of exactly
    two ASCII integers of at most :data:`_MAX_TOKEN` characters
    separated by spaces or tabs. On it this parse equals
    :func:`repro.graph.io.parse_edge_lines`; anything else (extra
    columns, other whitespace, bad lines, huge ids) returns ``None`` and
    goes to the stdlib reader instead.
    """
    data = _strip_comments(text).encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    if not len(raw):
        empty = np.zeros(0, dtype=_I64)
        return empty, empty
    if not _DATA_BYTE[raw].all():
        return None
    newline = raw == 10
    sep = newline | (raw == 32) | (raw == 9)
    signs = np.flatnonzero((raw == 43) | (raw == 45))
    if len(signs):
        # a sign opens a token and is followed by a digit (the only
        # data bytes >= "0")
        after = signs + 1
        if after[-1] == len(raw) or (raw[after] < 48).any():
            return None
        if not sep[signs[signs > 0] - 1].all():
            return None
    # token boundaries: a non-separator after / before a separator
    edge = np.empty(len(raw) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(sep[1:], sep[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    if sep[0]:
        bounds = bounds[1:]
    if sep[-1]:
        bounds = bounds[:-1]
    starts = bounds[0::2]
    if (bounds[1::2] - starts > _MAX_TOKEN).any():
        return None
    per_line = np.bincount(np.searchsorted(np.flatnonzero(newline), starts))
    if ((per_line != 0) & (per_line != 2)).any():
        return None
    values = np.fromstring(data, dtype=_I64, sep=" ")
    if len(values) != len(starts):
        return None
    return values[0::2], values[1::2]


class NumpyBackend(KernelBackend):
    """Flat kernels over ``numpy.int64`` buffers (see module doc)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def full(self, n: int, fill: int = 0):
        return np.full(n, fill, dtype=_I64)

    def graph_array(self, arr):
        if isinstance(arr, np.ndarray):
            return arr
        # array('q') exposes the buffer protocol: zero-copy view
        return np.frombuffer(arr, dtype=_I64) if len(arr) else np.zeros(0, _I64)

    def degrees(self, offsets, n: int):
        offsets = self.graph_array(offsets)
        return offsets[1:] - offsets[:-1]

    def worklist_flags(self, n: int):
        return None  # dedupe happens with array sorts, no flag scratch

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def compute_index(self, estimates, k, scratch=None):
        # scalar calls stay on the canonical kernel: a handful of values
        # cannot amortise any vectorisation
        return compute_index(estimates, k, scratch)

    def _batch_core(self, seg, starts, caps_seg, vals):
        """Segmented Algorithm 2 over pre-gathered neighbour values.

        ``vals[p]`` is a neighbour estimate belonging to segment
        ``seg[p]`` with cap ``caps_seg[p]``; all segments are non-empty
        and all caps >= 1. Returns ``(t, support)`` per segment.
        """
        clamped = np.minimum(vals, caps_seg)
        # disjoint key blocks per segment; caps >= clamped >= 0
        bound = int(clamped.max()) + 2 if len(clamped) else 2
        key = seg * bound + (bound - 1 - clamped)
        key.sort()
        desc = (bound - 1) - (key - seg * bound)  # descending per segment
        pos = np.arange(len(vals), dtype=_I64) - starts[seg]
        rank = pos + 1
        t = np.maximum.reduceat(
            np.where(desc >= rank, rank, 0), starts[:-1]
        )
        # the scalar kernel's downward scan bottoms out at 1
        np.maximum(t, 1, out=t)
        support = np.add.reduceat(
            (desc >= t[seg]).astype(_I64), starts[:-1]
        )
        return t, support

    def batch_compute_index(self, nodes, caps, offsets, edge_values, scratch):
        nodes = np.asarray(nodes, dtype=_I64)
        caps = np.asarray(caps, dtype=_I64)
        offsets = self.graph_array(offsets)
        edge_values = self.graph_array(edge_values)
        values = np.zeros(len(nodes), dtype=_I64)
        supports = np.zeros(len(nodes), dtype=_I64)
        if not len(nodes):
            return values, supports
        lens = offsets[nodes + 1] - offsets[nodes]
        live = caps > 0
        # degree-0 nodes with a positive cap: the scalar kernel's scan
        # still bottoms out at 1 (support 0)
        values[live & (lens == 0)] = 1
        run = np.nonzero(live & (lens > 0))[0]
        if len(run):
            sub = nodes[run]
            seg, idx, starts, _ = _segments(offsets, sub)
            t, support = self._batch_core(
                seg, starts, caps[run][seg], edge_values[idx]
            )
            values[run] = t
            supports[run] = support
        return values, supports

    # ------------------------------------------------------------------
    # one-to-one lockstep phases
    # ------------------------------------------------------------------
    def seed_estimates(self, offsets, targets, owner, degree, est, sup, in_frontier):
        np.take(degree, targets, out=est)
        qualifying = est >= degree[owner]
        sup[:] = np.bincount(owner[qualifying], minlength=len(degree))
        return np.nonzero(sup < degree)[0]

    def fold_slots(self, slots, incoming, est, owner, core, sup, in_frontier):
        empty = np.zeros(0, dtype=_I64)
        if not len(slots):
            return empty
        vals = incoming[slots]
        old = est[slots]
        lowered = vals < old
        if not lowered.any():
            return empty
        hit = slots[lowered]
        vals = vals[lowered]
        old = old[lowered]
        est[hit] = vals  # slots are unique within a round: plain scatter
        owners = owner[hit]
        levels = core[owners]
        crossing = (old >= levels) & (vals < levels)
        starved = owners[crossing]
        np.subtract.at(sup, starved, 1)
        cand = _unique_sorted(starved)
        return cand[sup[cand] < core[cand]]

    def process_frontier(
        self,
        frontier,
        offsets,
        targets,
        mirror,
        est,
        core,
        sup,
        incoming,
        sent,
        optimize,
        scratch,
        in_frontier,
    ):
        if not len(frontier):
            return 0, np.zeros(0, dtype=_I64)
        caps = core[frontier]
        seg, idx, starts, _ = _segments(offsets, frontier)
        vals = est[idx]
        t, support = self._batch_core(seg, starts, caps[seg], vals)
        sup[frontier] = support
        dropped = t < caps
        core[frontier[dropped]] = t[dropped]
        emitting = dropped[seg]
        if optimize:
            # the Section 3.1.2 filter: only send below the neighbour's
            # last-heard estimate (est is untouched during this phase)
            emitting &= t[seg] < vals
        slots = mirror[idx[emitting]]
        incoming[slots] = t[seg[emitting]]
        counts = np.bincount(seg[emitting], minlength=len(frontier))
        senders = counts > 0
        sent[frontier[senders]] += counts[senders]
        return int(counts.sum()), slots

    # ------------------------------------------------------------------
    # one-to-many shard phases
    # ------------------------------------------------------------------
    def seed_shard(self, offsets, targets, n_owned, n_ext, infinity, est, sup, queued):
        degree = offsets[1:] - offsets[:-1]
        est[:n_owned] = degree
        est[n_owned:] = infinity
        if len(targets):
            owner = np.repeat(np.arange(n_owned, dtype=_I64), degree)
            qualifying = est[targets] >= degree[owner]
            sup[:] = np.bincount(owner[qualifying], minlength=n_owned)
        else:
            sup[:] = 0
        return np.nonzero(sup < degree)[0]

    def cascade(
        self,
        offsets,
        targets,
        n_owned,
        est,
        sup,
        dirty,
        queued,
        changed_flag,
        changed_list,
        scratch,
    ):
        # Jacobi relaxation rounds of Algorithm 4's monotone operator:
        # recompute the whole dirty set from a snapshot, apply every
        # drop at once, then derive the next dirty set from the level
        # crossings — same fixpoint, changed set and exact sup as the
        # stdlib worklist (schedule independence).
        flags = np.frombuffer(changed_flag, dtype=np.uint8)
        while len(dirty):
            caps = est[dirty]
            seg, idx, starts, _ = _segments(offsets, dirty)
            snapshot = est[targets[idx]]
            t, support = self._batch_core(seg, starts, caps[seg], snapshot)
            sup[dirty] = support
            drop = t < caps
            du = dirty[drop]
            if not len(du):
                break
            new_levels = t[drop]
            old_levels = caps[drop]
            est[du] = new_levels
            fresh = du[flags[du] == 0]
            flags[fresh] = 1
            changed_list.extend(fresh.tolist())
            # propagate: internal neighbours whose level the drop
            # crossed lose one support each (batch formula: crossings
            # are measured against the *post-round* neighbour levels)
            seg2, idx2, _, _ = _segments(offsets, du)
            nbrs = targets[idx2]
            internal = nbrs < n_owned
            nbrs = nbrs[internal]
            cur = old_levels[seg2[internal]]
            new = new_levels[seg2[internal]]
            levels = est[nbrs]
            crossing = (cur >= levels) & (new < levels)
            starved = nbrs[crossing]
            np.subtract.at(sup, starved, 1)
            cand = _unique_sorted(starved)
            dirty = cand[sup[cand] < est[cand]]

    def fold_mailbox(
        self, slots, vals, n_owned, est, sup, watch_offsets, watch_targets, queued
    ):
        empty = np.zeros(0, dtype=_I64)
        if not slots:
            return empty
        slots = np.asarray(slots, dtype=_I64)
        vals = np.asarray(vals, dtype=_I64)
        # min-fold duplicates first: estimates only decrease, so the
        # sequential fold's net effect per slot is the pairwise min
        order, _, starts = _groups(slots)
        uniq = slots[order[starts]]
        mins = np.minimum.reduceat(vals[order], starts)
        old = est[n_owned + uniq]
        lowered = mins < old
        if not lowered.any():
            return empty
        uniq = uniq[lowered]
        new = mins[lowered]
        old = old[lowered]
        est[n_owned + uniq] = new
        seg, idx, _, _ = _segments(watch_offsets, uniq)
        watchers = watch_targets[idx]
        levels = est[watchers]  # owned estimates are untouched by folds
        crossing = (old[seg] >= levels) & (new[seg] < levels)
        starved = watchers[crossing]
        np.subtract.at(sup, starved, 1)
        cand = _unique_sorted(starved)
        return cand[sup[cand] < est[cand]]

    # ------------------------------------------------------------------
    # dynamic-CSR edit kernels
    # ------------------------------------------------------------------
    def _mutable_view(self, arr):
        """A writable i64 view over a dynamic-CSR ``array('q')`` buffer.

        Dynamic graphs keep their storage in stdlib arrays (they grow
        with ``extend``); kernels mutate through a zero-copy view.
        """
        if isinstance(arr, np.ndarray):
            return arr
        return np.frombuffer(arr, dtype=_I64) if len(arr) else np.zeros(0, _I64)

    @staticmethod
    def _dyn_segments(starts, used, nodes):
        """Like :func:`_segments` for slack regions (``starts``/``used``)."""
        lens = used[nodes]
        seg_starts = np.zeros(len(nodes) + 1, dtype=_I64)
        np.cumsum(lens, out=seg_starts[1:])
        total = int(seg_starts[-1])
        seg = np.repeat(np.arange(len(nodes), dtype=_I64), lens)
        idx = starts[nodes][seg] + (np.arange(total, dtype=_I64) - seg_starts[seg])
        return seg, idx, seg_starts, lens

    def csr_insert_slots(self, starts, used, targets, owners, values):
        if not len(owners):
            return
        st = self._mutable_view(starts)
        us = self._mutable_view(used)
        tg = self._mutable_view(targets)
        own = self._mutable_view(owners)
        vals = self._mutable_view(values)
        # stable sort keeps batch order within each owner, so repeated
        # owners fill consecutive slots exactly like the stdlib loop
        order = np.argsort(own, kind="stable")
        so = own[order]
        group_first = np.concatenate(
            ([0], np.nonzero(np.diff(so))[0] + 1)
        ).astype(_I64)
        group_lens = np.diff(np.concatenate((group_first, [len(so)])))
        rank = np.arange(len(so), dtype=_I64) - np.repeat(group_first, group_lens)
        tg[st[so] + us[so] + rank] = vals[order]
        np.add.at(us, own, 1)

    def csr_delete_slots(self, starts, used, targets, owners, values):
        if not len(owners):
            return
        st = self._mutable_view(starts)
        us = self._mutable_view(used)
        tg = self._mutable_view(targets)
        own = self._mutable_view(owners)
        vals = self._mutable_view(values)
        seg, idx, seg_starts, _ = self._dyn_segments(st, us, own)
        match = tg[idx] == vals[seg]
        # first (== only) live slot per pair; the caller guarantees a
        # match exists, so the sentinel never survives the reduce
        pos = np.where(match, idx, np.iinfo(_I64).max)
        first = np.minimum.reduceat(pos, seg_starts[:-1])
        tg[first] = -1

    def reconverge_from_bounds(self, starts, used, targets, est, frontier,
                               scratch):
        st = self._mutable_view(starts)
        us = self._mutable_view(used)
        tg = self._mutable_view(targets)
        est_v = self._mutable_view(est)
        changed_flag = np.zeros(len(us), dtype=np.uint8)
        changed: list[int] = []
        work = np.asarray(frontier, dtype=_I64)
        work = work[est_v[work] > 0]
        rounds = 0
        while len(work):
            rounds += 1
            caps = est_v[work]
            seg, idx, _, _ = self._dyn_segments(st, us, work)
            tv = tg[idx]
            live = tv >= 0
            seg_l = seg[live]
            vals = est_v[tv[live]]
            live_lens = np.bincount(seg_l, minlength=len(work))
            new = np.zeros(len(work), dtype=_I64)
            run = np.nonzero(live_lens > 0)[0]
            if len(run):
                run_lens = live_lens[run]
                run_starts = np.zeros(len(run) + 1, dtype=_I64)
                np.cumsum(run_lens, out=run_starts[1:])
                seg2 = np.repeat(np.arange(len(run), dtype=_I64), run_lens)
                # vals is grouped by ascending segment and empty
                # segments contribute nothing, so it is already the
                # concatenation over the run subset
                t, _ = self._batch_core(
                    seg2, run_starts, caps[run][seg2], vals
                )
                new[run] = t
            drop = new < caps
            du = work[drop]
            if not len(du):
                break
            lo = new[drop]
            hi = caps[drop]
            est_v[du] = lo
            fresh = du[changed_flag[du] == 0]
            changed_flag[fresh] = 1
            changed.extend(fresh.tolist())
            # next frontier: neighbours whose support a drop crossed,
            # lo < est[t] <= hi (every other row is still a fixpoint)
            seg3, idx3, _, _ = self._dyn_segments(st, us, du)
            nbrs = tg[idx3]
            live = nbrs >= 0
            nbrs = nbrs[live]
            seg3 = seg3[live]
            at = est_v[nbrs]
            work = _unique_sorted(
                nbrs[(lo[seg3] < at) & (at <= hi[seg3])]
            )
        return sorted(changed), rounds

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    def read_graph(self, text: str, relabel: bool, name: str):
        from repro.graph.graph import Graph

        pairs = _parse_pairs(text)
        if pairs is None:
            # not plain two-column text: the reference reader parses it
            # (and raises the reference error for a bad line)
            return StdlibBackend().read_graph(text, relabel, name)
        us, vs = pairs
        offsets, targets, ids = self._csr(us, vs, None)
        n = len(ids)
        nodes = list(range(n)) if relabel else ids.tolist()
        # the sets reference the node list's own int objects: one
        # object per node, not one per adjacency entry
        members = np.array(nodes, dtype=object)[targets].tolist()
        bounds = offsets.tolist()
        rows = [set(members[a:b]) for a, b in zip(bounds, bounds[1:])]
        del members
        if relabel:
            adjacency = dict(zip(nodes, rows))
        else:
            # Graph.from_edges inserts nodes as the lines name them
            ends = np.empty(2 * len(us), dtype=_I64)
            ends[0::2] = us
            ends[1::2] = vs
            order, _, starts = _groups(np.searchsorted(ids, ends))
            adjacency = {
                nodes[i]: rows[i]
                for i in np.argsort(order[starts]).tolist()
            }
        return Graph._adopt(adjacency, len(targets) // 2, name)

    def _csr(self, us, vs, num_nodes):
        """:meth:`csr_from_pairs` as int64 ndarrays."""
        us = np.asarray(us, dtype=_I64)
        vs = np.asarray(vs, dtype=_I64)
        ends = [us, vs]
        if num_nodes:
            ends.append(np.arange(num_nodes, dtype=_I64))
        ids = _unique_sorted(np.concatenate(ends))
        n = len(ids)
        real = us != vs
        us = us[real]
        vs = vs[real]
        if n and not (ids[0] == 0 and ids[-1] == n - 1):
            us = np.searchsorted(ids, us)
            vs = np.searchsorted(ids, vs)
        # one key per directed edge, ordered (source, target): sorting
        # and deduplicating the keys is the whole segmented sort
        key = _unique_sorted(
            np.concatenate((us * n + vs, vs * n + us))
        )
        src = key // n if n else key
        offsets = np.zeros(n + 1, dtype=_I64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return offsets, key - src * n, ids

    def csr_from_pairs(self, us, vs, num_nodes):
        return _arrays(*self._csr(us, vs, num_nodes))

    def csr_from_graph(self, graph):
        n = graph.num_nodes
        nodes = list(graph.nodes())
        rows = list(map(graph.neighbors, nodes))
        node_ids = np.fromiter(nodes, dtype=_I64, count=n)
        degree = np.fromiter(map(len, rows), dtype=_I64, count=n)
        flat = np.fromiter(
            chain.from_iterable(rows), dtype=_I64, count=int(degree.sum())
        )
        del nodes, rows
        order = np.argsort(node_ids, kind="stable")
        ids = node_ids[order]
        contiguous = n == 0 or (ids[0] == 0 and ids[-1] == n - 1)
        rank = np.empty(n, dtype=_I64)
        rank[order] = np.arange(n, dtype=_I64)
        if not contiguous:
            flat = np.searchsorted(ids, flat)
        # segmented sort: (owner, neighbour) keys in one flat sort
        key = np.repeat(rank * n, degree) + flat
        key.sort()
        offsets = np.zeros(n + 1, dtype=_I64)
        np.cumsum(degree[order], out=offsets[1:])
        index_of = (
            None if contiguous
            else {u: i for i, u in enumerate(ids.tolist())}
        )
        targets = key % n if n else key
        return _to_array(offsets), _to_array(targets), _to_array(ids), index_of

    def csr_mirror(self, offsets, targets):
        targets = self.graph_array(targets)
        # stably ordered by target, the edges into v come owners
        # ascending — v's slice order — so the k-th of them is the
        # reverse of the edge at v's slice position k
        order = np.argsort(targets, kind="stable")
        mirror = np.empty(len(targets), dtype=_I64)
        mirror[order] = np.arange(len(targets), dtype=_I64)
        return _to_array(mirror)

    def csr_edge_owners(self, offsets):
        n = len(offsets) - 1
        return _to_array(np.repeat(
            np.arange(n, dtype=_I64), self.degrees(offsets, n)
        ))

    def shard_tables(self, offsets, targets, host_idx, num_hosts):
        offsets = self.graph_array(offsets)
        targets = self.graph_array(targets)
        host_idx = self.graph_array(host_idx)
        n = len(host_idx)
        # owned nodes per host, ascending, and each node's local rank
        by_host = np.argsort(host_idx, kind="stable")
        bounds = np.zeros(num_hosts + 1, dtype=_I64)
        np.cumsum(np.bincount(host_idx, minlength=num_hosts), out=bounds[1:])
        local_of = np.empty(n, dtype=_I64)
        local_of[by_host] = (
            np.arange(n, dtype=_I64) - bounds[host_idx[by_host]]
        )
        tables = []
        for x in range(num_hosts):
            owned = by_host[bounds[x]:bounds[x + 1]]
            n_owned = len(owned)
            # the shard's edges in (owned node, neighbour) order; every
            # temporary below is per shard, O(edges of the shard)
            seg, idx, starts, _ = _segments(offsets, owned)
            nbrs = targets[idx]
            loc = local_of[nbrs]
            cross = np.flatnonzero(host_idx[nbrs] != x)
            # group the cut edges by external node; a group's first edge
            # is where the external node is first encountered
            order, group, heads = _groups(nbrs[cross])
            by_first = np.argsort(order[heads])
            slot_of = np.empty(len(heads), dtype=_I64)
            slot_of[by_first] = np.arange(len(heads), dtype=_I64)
            slot = slot_of[group]  # per cut edge, in grouped order
            loc[cross[order]] = n_owned + slot
            ext_global = nbrs[cross[order[heads[by_first]]]]
            ext_host = host_idx[ext_global]
            # watchers: per slot the owned nodes adjacent to it, in edge
            # (== ascending local) order — a group keeps edge order
            sizes = np.bincount(slot, minlength=len(heads))
            watch_offsets = np.zeros(len(heads) + 1, dtype=_I64)
            np.cumsum(sizes, out=watch_offsets[1:])
            watch_targets = np.empty(len(slot), dtype=_I64)
            watch_targets[
                watch_offsets[slot] + np.arange(len(slot)) - heads[group]
            ] = seg[cross[order]]
            # directed cut per host, keyed in first-encounter order
            per_host = np.bincount(host_idx[nbrs[cross]], minlength=num_hosts)
            host_order, _, host_heads = _groups(ext_host)
            first = np.sort(host_order[host_heads])
            cut_to = {
                y: int(per_host[y]) for y in ext_host[first].tolist()
            }
            tables.append((
                *_arrays(owned, starts, loc, ext_global, ext_host,
                         watch_offsets, watch_targets),
                cut_to,
                [],
            ))
        # delivery lists: every (watching host y, y's slot) pair of each
        # node, hosts ascending. Host y's slots enumerate its ext list,
        # so position p of the concatenated ext lists stands for the
        # pair (y, p - ext_starts[y]); grouped by owning host, then by
        # node (a stable sort keeps y ascending), each owner's pairs are
        # one contiguous run, turned into tuples one owner at a time
        ext_sizes = [len(table[3]) for table in tables]
        ext_starts = np.zeros(num_hosts + 1, dtype=_I64)
        np.cumsum(ext_sizes, out=ext_starts[1:])
        nodes = np.concatenate(
            [self.graph_array(table[3]) for table in tables]
        ) if tables else np.zeros(0, dtype=_I64)
        per_node = np.bincount(nodes, minlength=n)
        order = np.argsort(nodes, kind="stable")
        order = order[np.argsort(host_idx[nodes[order]], kind="stable")]
        del nodes
        # one int object per slot number, shared by every host's tuples
        # (a fresh int per tuple added ~5 MB to one2many's peak RSS)
        slot_ints = np.array(range(max(ext_sizes, default=0)), dtype=object)
        run = 0
        for x, table in enumerate(tables):
            cuts = np.zeros(bounds[x + 1] - bounds[x] + 1, dtype=_I64)
            np.cumsum(per_node[by_host[bounds[x]:bounds[x + 1]]], out=cuts[1:])
            part = order[run:run + cuts[-1]]
            run += cuts[-1]
            watcher = np.searchsorted(ext_starts, part, side="right") - 1
            pairs = list(zip(
                watcher.tolist(),
                slot_ints[part - ext_starts[watcher]].tolist(),
            ))
            cuts = cuts.tolist()
            table[8].extend(pairs[a:b] for a, b in zip(cuts, cuts[1:]))
        return tables

    # ------------------------------------------------------------------
    # shared-memory transport primitives
    # ------------------------------------------------------------------
    def shm_view(self, buf, n: int):
        return np.ndarray((n,), dtype=_I64, buffer=buf)

    def shm_write_i64(self, view, start: int, values) -> None:
        view[start:start + len(values)] = np.asarray(values, dtype=_I64)

    def shm_read_i64(self, view, start: int, count: int):
        # .tolist() yields builtin ints — the bit-identical-payload
        # contract of the backend protocol
        return view[start:start + count].tolist()

    # ------------------------------------------------------------------
    # bulk-synchronous sweeps
    # ------------------------------------------------------------------
    def hindex_sweep(self, offsets, targets, values, scratch):
        n = len(values)
        out = np.zeros(n, dtype=_I64)
        if len(targets):
            # degree-0 nodes stay 0; so do nodes already at value 0
            # (computeIndex returns 0 whenever its cap is <= 0)
            nodes = np.nonzero(
                ((offsets[1:] - offsets[:-1]) > 0) & (values > 0)
            )[0]
            seg, idx, starts, _ = _segments(offsets, nodes)
            t, _ = self._batch_core(
                seg, starts, values[nodes][seg], values[targets[idx]]
            )
            out[nodes] = t
        changed = bool((out != values).any())
        return changed, out

    def count_intra(self, slots, owner, targets, worker_of):
        if slots is None:
            return int(
                (worker_of[owner] == worker_of[targets]).sum()
            )
        if not len(slots):
            return 0
        return int(
            (worker_of[owner[slots]] == worker_of[targets[slots]]).sum()
        )

    def count_distinct_owners(self, slots, owner, n):
        if slots is None:
            return int(len(_unique_sorted(owner)))
        if not len(slots):
            return 0
        return int(len(_unique_sorted(owner[slots])))
