"""Array helpers shared by the level-synchronous tree builds.

:class:`~repro.indexes.vptree.VPTree` and
:class:`~repro.core.gmvptree.GMVPTree` build in two steps.  A
count-only pass works out the tree's shape: a tree's shape depends only
on counts (a group no larger than the leaf limit is a leaf, every split
cuts a sorted group into ``np.array_split`` chunks) and every selector's
rng use depends only on the candidate count.  Level passes then apply
the draws to the data, paying one segmented metric call per pass for
every node in it.  The draws are made lazily, in preorder -- the order
of the recursive construction -- as far as the passes need them.

The only shape change that depends on data is a *zero-diameter* group,
one whose points all lie at distance 0 from its first vantage point; it
becomes one oversized leaf and its planned subtree goes.  Nodes keep
their planned preorder indices, so nothing else is renumbered.  When the
group's own draws and its planned subtree's draws equal those of a leaf
(a vp-tree group whose chunks are all leaves), no later draw moves.
Otherwise every later draw does, so it must be found before any later
draw is made.  Its points tie on their distance to every vantage point
above it (by the triangle inequality), so a pending node is *crowded*
when enough of its points tie on all those distances to fill the
smallest group of its planned subtree that would move draws, and a pass
takes the pending nodes in preorder only up to the first crowded one.
Draws stop at that node, and a zero-diameter group there redraws from
the rng state saved before its draws.  (Should a metric break the
triangle inequality, the group may turn up after later draws were made;
then the build starts over with the group marked, paying those
distances twice.)  Without ties every level is one pass.

The passes write the kernel's flat tables
(:mod:`repro.indexes.kernels`), not nodes: :func:`layout` places what
they built in the tables' slot order.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from repro._util import gather


class Replan(Exception):
    """A zero-diameter group turned up after draws that depend on it:
    build again from the start with the group at preorder index
    ``node`` marked."""

    def __init__(self, node: int):
        super().__init__(node)
        self.node = node


class Plan:
    """A tree's shape from counts, per node in preorder, and its
    selector draws, made in preorder as the passes ask for them.

    ``kids[i, c]`` is child ``c``'s preorder index (-1 when empty, and
    everywhere below a leaf); ``split[i]`` says whether node ``i``
    splits (a leaf or a zero-diameter group does not); ``live[i]``
    whether it is in the tree (not below a zero-diameter group).
    ``need[i]`` is the size of the smallest group in node ``i``'s
    planned subtree that would move later draws if it had zero
    diameter (more than any group size when none would).

    A group of more than ``limit`` points splits unless it is in
    ``zero`` (preorder indices of zero-diameter groups found by an
    earlier attempt); ``split(sizes)`` gives the draw sizes ``(k, d)``
    and child sizes ``(k, fanout)`` of ``k`` splitting groups.  A leaf
    makes ``leaf_draws`` draws and a zero-diameter group ``zero_draws``,
    each over its whole group.
    """

    def __init__(
        self,
        n: int,
        depth: int,
        limit: int,
        split,
        leaf_draws: int,
        zero_draws: int,
        zero: set,
        selector,
        rng,
    ):
        # Per level: group sizes, their draw sizes (-1: none) and their
        # children's positions in the next level (-1: none).
        sizes = [np.array([n], dtype=np.intp)]
        draw_sizes, kids = [], []
        while True:
            size = sizes[-1]
            splitting = size > limit
            grow, child = split(size[splitting])
            per = np.repeat(size[:, None], max(grow.shape[1], leaf_draws), axis=1)
            per[splitting, : grow.shape[1]] = grow
            wanted = np.where(splitting, grow.shape[1], leaf_draws)
            draw_sizes.append(
                np.where(np.arange(per.shape[1]) < wanted[:, None], per, -1)
            )
            kid = np.full((len(size), child.shape[1]), -1, dtype=np.intp)
            order = np.cumsum(child > 0).reshape(child.shape) - 1
            kid[splitting] = np.where(child > 0, order, -1)
            kids.append(kid)
            if not (child > 0).any():
                break
            sizes.append(child[child > 0])
        # Subtree node counts bottom-up, then preorder indices top-down.
        totals = [np.ones(len(sizes[-1]), dtype=np.intp)]
        for kid in reversed(kids[:-1]):
            totals.append(1 + np.where(kid >= 0, totals[-1][kid], 0).sum(axis=1))
        totals.reverse()
        pre = [np.zeros(1, dtype=np.intp)]
        for lvl, kid in enumerate(kids[:-1]):
            width = np.where(kid >= 0, totals[lvl + 1][kid], 0)
            start = pre[lvl][:, None] + 1 + np.cumsum(width, axis=1) - width
            nxt = np.empty(len(sizes[lvl + 1]), dtype=np.intp)
            nxt[kid[kid >= 0]] = start[kid >= 0]
            pre.append(nxt)
        count = int(totals[0][0])
        self.size = np.empty(count, dtype=np.intp)
        self.depth = np.empty(count, dtype=np.intp)
        self.total = np.empty(count, dtype=np.intp)
        self.kids = np.full((count, kids[0].shape[1]), -1, dtype=np.intp)
        most = max(d.shape[1] for d in draw_sizes)
        per_node = np.full((count, most), -1, dtype=np.intp)
        for lvl, kid in enumerate(kids):
            at = pre[lvl]
            self.size[at] = sizes[lvl]
            self.depth[at] = depth + lvl
            self.total[at] = totals[lvl]
            per_node[at, : draw_sizes[lvl].shape[1]] = draw_sizes[lvl]
            rows, cols = np.nonzero(kid >= 0)
            if rows.size:
                self.kids[at[rows], cols] = pre[lvl + 1][kid[rows, cols]]
        self.split = self.size > limit
        self.live = np.ones(count, dtype=bool)
        wanted = per_node >= 0
        # A zero-diameter group moves later draws unless it draws what
        # its planned subtree would: its own draws, and none below it.
        drawn = offsets(wanted.sum(axis=1))
        nodes = np.arange(count)
        own = (drawn[1:] - drawn[:-1] == zero_draws) & (
            per_node[:, :zero_draws] == self.size[:, None]
        ).all(axis=1)
        below = drawn[nodes + self.total] > drawn[nodes + 1]
        moves = self.split & (~own | below)
        self._moves = moves.tolist()
        # The least size of such a group per subtree, bottom-up.
        self.need = np.where(moves, self.size, n + 1)
        for lvl in range(len(kids) - 2, -1, -1):
            at, kid = pre[lvl], kids[lvl]
            least = np.where(kid >= 0, self.need[pre[lvl + 1][kid]], n + 1)
            self.need[at] = np.minimum(self.need[at], least.min(axis=1))
        # Flat lists, not one container per node: a build keeps them
        # alive throughout, and every container it keeps alive adds to
        # the garbage collector's work in the whole process.  Node i's
        # planned draw sizes are _sizes[_at[i]:_at[i + 1]].
        self._sizes = per_node[wanted].tolist()
        self._at = offsets(wanted.sum(axis=1)).tolist()
        self._drawing = np.flatnonzero(wanted.any(axis=1)).tolist()
        # Per node: how far the draws move on past it (a leaf or a
        # zero-diameter group skips its planned subtree).
        self._step = np.where(self.split, 1, self.total).tolist()
        self._zero_sizes: dict = {}  # per zero-diameter group: its draw sizes
        self._zero_draws = zero_draws
        self._selector, self._rng = selector, rng
        self._made: list = []  # the draws made, in preorder
        self._start = [0] * count  # per node: where its draws start in _made
        self._end = [0] * count
        self._next = 0  # the next node to draw, in preorder
        self._saved = (-1, None)  # the last node asked for, and the rng before it
        for node in sorted(zero):
            if self.live[node]:
                self._flatten(node)

    def draws(self, nodes, t: int = 0) -> list:
        """Draw ``t`` (``-1``: the last) of every node, in the order
        given; makes the draws of every node up to the furthest one in
        preorder."""
        nodes = np.asarray(nodes).tolist()
        if not nodes:
            return []
        self._reach(max(nodes))
        made, at = self._made, self._start if t >= 0 else self._end
        return [made[at[node] + t] for node in nodes]

    def _reach(self, target: int) -> None:
        """Make the draws of every node up to ``target`` in preorder."""
        draw, rng, made = self._selector.draw, self._rng, self._made
        sizes, at, zero, step = self._sizes, self._at, self._zero_sizes, self._step
        start, end, drawing, after = self._start, self._end, self._drawing, self._next
        for i in range(bisect.bisect_left(drawing, after), len(drawing)):
            node = drawing[i]
            if node > target:
                break
            if node < after:
                continue  # below a zero-diameter group
            if node == target:
                self._saved = (node, rng.bit_generator.state)
            start[node] = len(made)
            ks = zero[node] if node in zero else sizes[at[node] : at[node + 1]]
            made.extend([draw(k, rng) for k in ks])
            end[node] = len(made)
            after = node + step[node]
        self._next = max(after, target + 1)

    def flatten(self, node: int) -> None:
        """Node ``node`` is a zero-diameter group: it becomes one leaf.

        When that moves later draws, it must be the last node drawn, and
        it draws again from the rng state saved before its draws; else
        raises :class:`Replan`.
        """
        if not self.split[node]:
            return  # marked by an earlier attempt
        end = node + int(self.total[node])
        moves = self._moves[node]
        if moves and (self._saved[0] != node or self._next != node + 1):
            raise Replan(node)
        self._flatten(node)
        if moves:
            self._rng.bit_generator.state = self._saved[1]
            del self._made[self._start[node] :]
            self._next = node
            self._reach(node)
        else:
            self._next = max(self._next, end)

    def _zero(self, node: int) -> list:
        return [int(self.size[node])] * self._zero_draws

    def _flatten(self, node: int) -> None:
        self.split[node] = False
        self._step[node] = int(self.total[node])
        self._zero_sizes[node] = self._zero(node)
        self.live[node + 1 : node + int(self.total[node])] = False


def offsets(counts) -> np.ndarray:
    """Where consecutive runs of ``counts`` rows start, and the end:
    ``[0, c0, c0 + c1, ...]``."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where each run of rows with equal ``keys`` starts."""
    change = np.zeros(len(keys[0]), dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def split_sizes(sizes: np.ndarray, m: int) -> np.ndarray:
    """``np.array_split`` chunk sizes of every group: ``(len(sizes), m)``."""
    q, extra = np.divmod(np.asarray(sizes, dtype=np.intp), m)
    return q[:, None] + (np.arange(m) < extra[:, None])


def chunk_of(rank: np.ndarray, size: np.ndarray, m: int) -> np.ndarray:
    """The ``np.array_split`` chunk of the row at ``rank`` in a sorted
    group of ``size`` rows (both per row): the first ``size % m`` chunks
    take one row more."""
    q, extra = np.divmod(size, m)
    wide = extra * (q + 1)
    return np.where(
        rank < wide, rank // (q + 1), extra + (rank - wide) // np.maximum(q, 1)
    )


def chunk_cutoffs(
    values: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """The ``m - 1`` cutoffs of every split group: chunk ``g``'s last
    sorted value, the previous cutoff for an empty chunk, 0 before any.

    ``starts`` holds every group's first row; ``sizes`` its
    ``(groups, m)`` chunk sizes.
    """
    ends = starts[:, None] + np.cumsum(sizes, axis=1)
    last = np.maximum.accumulate(np.where(sizes > 0, ends - 1, -1), axis=1)
    return np.where(last >= 0, values[np.maximum(last, 0)], 0.0)[:, :-1]


class Frontier:
    """The groups still to split, in preorder: their rows back to back;
    per group its preorder index, size and whether it is crowded.  A
    pass takes the groups up to the first crowded one, whose draws
    cannot move.

    A group is crowded when at least ``need[node]`` (:attr:`Plan.need`)
    of its rows tie on their distance to every vantage point above
    them, as the points of a zero-diameter group in its subtree that
    moves later draws would.  ``tie[row]`` labels the row's class of
    such rows within its group; it is -1 once the row is in a class too
    small for its group, which can never hold such a group: classes
    only shrink on the way down, and ``need`` only grows.
    """

    def __init__(self, rows: np.ndarray, need: np.ndarray):
        self.rows = rows
        self.nodes = np.zeros(1, dtype=np.intp)
        self.sizes = np.array([len(rows)])
        self.crowd = np.ones(1, dtype=bool)  # per group: crowded?
        self.need = need
        self.tie = np.zeros(int(rows.max()) + 1 if rows.size else 0, dtype=np.intp)
        self.taken = self.width = 0

    def take(self):
        """The next pass's groups: preorder indices, rows and sizes."""
        crowd = self.crowd
        self.taken = int(np.argmax(crowd)) + 1 if crowd.any() else len(crowd)
        self.width = int(self.sizes[: self.taken].sum())
        return (
            self.nodes[: self.taken],
            self.rows[: self.width],
            self.sizes[: self.taken],
        )

    def push(self, nodes, sizes, rows, values, *others) -> None:
        """Replace the groups taken with those of their children that
        split further (preorder indices, sizes, rows); they precede every
        group still pending.  ``values`` holds each row's distance to its
        parent's last vantage point, sorted within each group, and
        ``others`` its distances to the parent's other vantage points."""
        tie, need = self.tie, self.need[nodes]
        group = np.repeat(np.arange(len(nodes)), sizes)
        # Runs of equal values sit together; only long ones can hold a
        # large class.
        first = run_starts(group, values)
        runs = np.diff(first, append=len(rows))
        live = np.repeat(runs >= need[group[first]], runs) & (tie[rows] >= 0)
        tie[rows[~live]] = -1
        at = np.flatnonzero(live)
        fresh = np.zeros(len(nodes), dtype=bool)
        if at.size:
            run = np.repeat(np.arange(len(first)), runs)[at]
            keys = [tie[rows[at]]] + [other[at] for other in others]
            order = np.lexsort(keys + [run])
            at = at[order]
            start = run_starts(run[order], *(key[order] for key in keys))
            count = np.diff(start, append=len(at))
            big = count >= need[group[at[start]]]
            tie[rows[at]] = np.repeat(np.where(big, np.arange(len(start)), -1), count)
            fresh[group[at[start[big]]]] = True
        self.rows = np.concatenate([rows, self.rows[self.width :]])
        self.nodes = np.concatenate([nodes, self.nodes[self.taken :]])
        self.sizes = np.concatenate([sizes, self.sizes[self.taken :]])
        self.crowd = np.concatenate([fresh, self.crowd[self.taken :]])


def layout(plan: Plan, built: np.ndarray, leaves: np.ndarray, sizes: np.ndarray):
    """Where the kernel tables put what the passes built.

    A node's slot is its rank among the live nodes of its kind
    (internal or leaf) in preorder with each node's children taken
    last-first: the order the flatten of a node graph gives
    (:func:`repro.indexes.kernels._gmvp_arrays`), so tables, store bytes
    and persisted form do not depend on how the tree was made.  That order is
    postorder reversed, and a node's postorder rank is its preorder
    rank plus its subtree's size, less its depth and one: the live
    nodes up to its subtree's end, less its depth and one.

    ``built`` holds the internal nodes' preorder indices in the order
    the passes built them, ``leaves`` the leaves' and ``sizes`` their
    point counts, in the order the passes built them, which is also the
    order of their points, back to back.  Returns the built internal nodes' positions in slot order, the
    ``(internal, fanout)`` child kind and slot tables (kinds as in the
    kernel: 0 none, 1 internal, 2 leaf), the built leaves' positions in
    slot order, and the points' positions in slot order.
    """
    live, split = plan.live, plan.split
    before = offsets(live)  # live nodes before each preorder index
    post = before[np.arange(len(live)) + plan.total] - plan.depth
    slot = np.zeros(len(live), dtype=np.intp)
    order = []
    for ids in (built, leaves):
        rank = np.argsort(-post[ids])
        slot[ids[rank]] = np.arange(len(ids))
        order.append(rank)
    kids = plan.kids[built[order[0]]]
    present = kids >= 0
    kind = np.where(present, np.where(split[kids], 1, 2), 0).astype(np.int8)
    child = np.where(present, slot[kids], 0)
    starts = offsets(sizes)[:-1][order[1]]
    count = sizes[order[1]]
    rows = np.repeat(starts - np.cumsum(count) + count, count) + np.arange(count.sum())
    return order[0], kind, child, order[1], rows


def build(grow, rng):
    """Run ``grow(zero)`` -- the level passes, with ``zero`` the
    preorder indices of zero-diameter groups to mark from the start --
    until it finishes without a :class:`Replan`; returns its result.

    Each attempt starts from the rng state the first one did.  Marks
    after a new one in preorder were found under draws it moves, so
    they go.
    """
    state = rng.bit_generator.state
    zero: set = set()
    while True:
        try:
            return grow(zero)
        except Replan as replan:
            zero = {node for node in zero if node < replan.node} | {replan.node}
            rng.bit_generator.state = state


def pick(
    index, selector, draws: Sequence, ids: np.ndarray, starts, sizes
) -> np.ndarray:
    """Every group's chosen vantage point, as a row of ``ids``.

    Group ``i`` is ``ids[starts[i]:starts[i] + sizes[i]]`` with draw
    ``draws[i]``; the selector's data step for all groups pays its
    distances in one :meth:`~repro.indexes.base.MetricIndex._segment_dist`
    call.
    """
    starts = np.asarray(starts, dtype=np.intp)
    sizes = np.asarray(sizes).tolist()
    runs = [selector.runs(n, draw) for n, draw in zip(sizes, draws)]
    if not any(runs):
        chosen = [selector.pick(draw, None) for draw in draws]
        return starts + np.asarray(chosen, dtype=np.intp)
    rows, counts, points = [], [], []
    for start, run in zip(starts.tolist(), runs):
        if run is not None:
            rows.append(run[0] + start)
            counts.append(np.diff(run[1]))
            points.append(run[2] + start)
    distances = index._segment_dist(
        gather(index.objects, ids[np.concatenate(rows)]),
        offsets(np.concatenate(counts)),
        gather(index.objects, ids[np.concatenate(points)]),
    )
    chosen = []
    at = 0
    for draw, run in zip(draws, runs):
        if run is None:
            chosen.append(selector.pick(draw, None))
        else:
            width = int(run[1][-1])
            chosen.append(selector.pick(draw, distances[at : at + width]))
            at += width
    return starts + np.asarray(chosen, dtype=np.intp)
