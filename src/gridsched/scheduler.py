"""Controller-side scheduling strategies.

The offline optimum adapts the classic minimum-energy (YDS style)
critical-interval construction to discrete slots: repeatedly locate the
endpoint interval of maximum energy intensity, serve its contained jobs
flat at that intensity with EDF, excise the interval from the timeline
(shifting later slots left and clamping straddling windows to the cut)
and repeat until no jobs remain.  The resulting flat-by-segment profile
simultaneously minimizes every non-decreasing convex per-slot cost.  One
private generator, ``_peel``, runs that loop on numpy arrays; the optimal
schedule, its load segments and its cost all iterate it.

No critical interval spans a slot that no window covers, so ``_peel``
splits the jobs at every run of such slots (``_components``), peels each
component alone and merges the components' intervals by level, leftmost
first on ties: bit for bit the peel of the whole instance, on tables no
wider than the largest component.  The optimal schedule maps each
interval's slots back after the peel, in one array of its entries, by
undoing the cuts latest first, not through a map as long as the horizon.
The EDF fill takes each interval's members as arrays.

Each round maximizes over tables of contained energy and intensity with
one row per arrival point and one column per deadline point of the jobs
left: a maximum-intensity interval starts at a release and ends at a
deadline (Yao, Demers and Shenker, FOCS 1995).  One function,
``_critical_rows``, rebuilds such tables every round for a batch of whole
instances at once: the small components of an instance, or the exact
oracle's enumerated instances.  Each instance's first maximum in
row-major order is, bit for bit, that of tables over every endpoint pair
of its own jobs:

- extra rows: a row with no arrival adds only exact +0.0, so it holds the
  next row's sums over a longer span (below 2^52 slots C / span and
  C / (span + 1) round apart) or zeros past the last arrival: lower;
- extra columns: a column with no deadline repeats the previous column's
  sums over an equal or longer span, so it is lower or ties later in
  row-major order;
- sum order: finished and padding jobs weigh +0.0, and zero terms change
  no sum, so every other cell adds the same terms in the same order.

Rebuilding the tables every round costs O(segments * rows * columns), so
a component of ``_INCREMENTAL_MIN_POINTS`` table points or more keeps them
from its first round to its last (``_PeelTables``).  A cut [s, e] changes
only the cells in rows whose arrival point is <= s and columns whose
deadline point is >= s - 1, after the cut: rows to its right only shift,
and no job in a column left of s - 1 moves.  That rectangle is recomputed
from the unchanged row below it and column left of it, so every sum adds
the same terms in the same order as a rebuild, every cell is bit for bit
a rebuild's, and the intervals, levels and members are too.  Spans are
differences of int64 slots, exact at any slot offset.  Below the switch,
the batched rebuild is cheaper.

An online heuristic that spreads each job evenly over its own window is
provided for comparison; it upper-bounds the offline optimum.  Both the
schedule and its cost come from one array form of the spread,
``_even_spread``; ``even_cost`` sums the slot loads without building a
``Schedule``, bit for bit the cost of the materialized one.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import itemgetter

import numpy as np

from .model import CostModel, Instance, Schedule, _added, _job_arrays, _slot_cost


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an array; ``np.unique`` costs several times more on a peel's small arrays."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _excise(windows: np.ndarray, start, end) -> np.ndarray:
    """Relabel windows (arrivals stacked on deadlines) after cutting slots [start, end] out of the timeline.

    ``start`` and ``end`` may be (rows, 1) columns, one cut per row of (2, rows, n) windows.
    """
    clamp = start - np.array([0, 1]).reshape((2,) + (1,) * (windows.ndim - 1))  # a deadline clamps before the cut
    return np.where(windows > end, windows - (end - start + 1), np.minimum(windows, clamp))


_TABLE_CELLS = 1 << 14
"""Bounds a batch's memory: rows peeled together by ``_critical_rows`` times their largest job count
squared, and the brute-force oracle's (rows, slots) loads.  On the benchmark's desk-scale oracle pass
(Python 3.11, numpy 2.4) the peak RSS was the same at 2^14 and 2^16 cells and 4 MiB higher at 2^18."""

# Most entries a schedule or even spread may hold: 2^22 dict entries take ~1 GiB; the workloads build 2.2e4 at most.
_MAX_ENTRIES = 1 << 22


def _critical_rows(windows: np.ndarray, energies: np.ndarray):
    """The peel loop on every row's instance at once, all rows in lockstep.

    ``windows`` stacks the (rows, n) arrivals and deadlines, one instance
    per row; a job of ``energies`` +0.0 pads a row and is never peeled.
    Each round yields (rows, start, end, level, member, windows) for the
    unfinished rows: their indices, critical intervals and levels, the mask
    of their members and the windows they were found on.  Then each row's
    interval is cut with ``_excise``.

    A round ranks each row's live points densely from 1 up; rank 0 takes
    only finished jobs and is dropped.  A cut keeps every row's order, so
    each row is sorted once.
    """
    count, n = energies.shape
    far, axes = np.iinfo(np.int64).max, np.arange(2)[:, None, None]  # axes: arrivals, deadlines
    weights = np.array(energies, dtype=np.float64)
    live = weights > 0.0
    todo = np.arange(count)
    order = windows.argsort(axis=2)
    back = order.argsort(axis=2)  # each job's place in its row's order
    while True:
        line = np.arange(count)
        base = np.arange(0, 2 * count * n, n).reshape(2, count, 1)  # each row's first flat index
        order_at, back_at = order + base, back + base
        # each row's live points in order with repeats, after a floor below every slot
        seen = np.full((2, count, n + 1), -far)
        while True:
            np.maximum.accumulate(np.where(live, windows, -far).take(order_at), axis=2, out=seen[:, :, 1:])
            rank = (seen[:, :, 1:] > seen[:, :, :-1]).cumsum(axis=2)  # 0 before the first live point
            height, width = rank[:, :, -1].max(axis=1).tolist()
            points = np.full((2, count, max(height, width) + 1), far)
            points[axes, line[:, None], rank] = seen[:, :, 1:]
            starts, ends = points[0, :, 1 : height + 1], points[1, :, 1 : width + 1]
            at = rank.take(back_at)
            cell = np.ravel_multi_index((line[:, None], at[0], at[1]), (count, height + 1, width + 1))
            table = np.bincount(cell.ravel(), weights=weights.ravel(), minlength=count * (height + 1) * (width + 1))
            table = table.reshape(count, height + 1, width + 1)[:, :0:-1, 1:].cumsum(axis=1)[:, ::-1].cumsum(axis=2)
            span = np.maximum(ends[:, None, :] - (starts[:, :, None] - 1), 1)  # int64; an empty span reads 0
            table /= span
            flat = table.reshape(count, -1)
            best = flat.argmax(axis=1)  # row-major first maximum: smallest start, then end
            level = flat[line, best]
            i, j = np.divmod(best, width)
            start, end = starts[line, i][:, None], ends[line, j][:, None]
            member = (windows[0] >= start) & (windows[1] <= end) & live
            yield todo, start[:, 0], end[:, 0], level, member, windows
            live ^= member
            weights[member] = 0.0
            going = live.any(axis=1)
            if not going.all():
                break
            windows = _excise(windows, start, end)
        if not going.any():
            return
        todo, live, weights, order, back = todo[going], live[going], weights[going], order[:, going], back[:, going]
        windows, count = _excise(windows[:, going], start[going], end[going]), todo.size


# A component of this many table points (arrival points plus deadline points)
# or more is peeled on kept tables from its first round to its last; a smaller
# one is rebuilt every round in a _critical_rows batch with the other small
# components, where the fixed numpy-call overhead of an update outweighs the
# cells it saves.  Median CPU time of fig3's 200 peels and controller-n400's 16
# (its 8 draws and their online attacks), seed-1 draws, the values alternated
# in one process over 12 rounds (Python 3.11, numpy 2.4, shared 2-vCPU x86-64),
# at 96 / 128 / 192 / 256 points: fig3 0.689 / 0.571 / 0.569 / 0.594 s,
# controller 0.158 / 0.162 / 0.156 / 0.161 s.  At seed 2 over 16 rounds, 128
# against 192 read fig3 0.599 vs 0.603 s and controller 0.166 vs 0.158 s.
_INCREMENTAL_MIN_POINTS = 128


class _PeelTables:
    """The intensity tables of one peel, kept across its rounds.

    Row i stands for the arrival point ``starts[i]`` and column j for the
    deadline point ``ends[j]``.  ``R[i, j]`` is the energy of the jobs due
    at ends[j] that arrive at starts[i] or later, summed from the last row
    up; ``C[i, j]`` sums row i of R from column 0 to j; ``I[i, j]`` is C
    over the span ends[j] - starts[i] + 1, or -1 where the span is empty.
    Each is formed in the same order as in ``_critical_rows``.  The
    tables sit at rows ``[row_offset, row_offset + starts.size)`` and
    columns ``[col_offset, col_offset + ends.size)`` of their buffers,
    which never grow; ``best`` and ``best_col`` hold each row's maximum
    intensity and its first argmax.
    """

    def __init__(
        self, starts: np.ndarray, ends: np.ndarray, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray
    ):
        shape = (starts.size, ends.size)
        self.R, self.C, self.I = (np.empty(shape) for _ in range(3))
        self.row_offset = self.col_offset = 0
        self.starts, self.ends = starts, ends
        self.best = np.empty(starts.size)
        self.best_col = np.empty(starts.size, dtype=np.intp)
        self._recompute(starts.size, 0, arrivals, deadlines, energies)

    def critical(self) -> tuple[int, int, float]:
        """(start, end, level) of the first maximum in row-major order."""
        row = int(self.best.argmax())
        return int(self.starts[row]), int(self.ends[self.best_col[row]]), float(self.best[row])

    def cut(
        self, start: int, end: int, starts: np.ndarray, ends: np.ndarray,
        arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray,
    ) -> _PeelTables:
        """Tables for the jobs left after cutting [start, end]; the points and windows are post-cut.

        Every new point at ``start`` or ``start - 1`` is the image of an old
        point in [start, end + 1], so the tables never grow.  The rows past
        ``start`` (old arrival points past ``end + 1``) keep their cells in
        the columns from ``start`` on (old deadline points past ``end``),
        and every row keeps its cells in the columns before ``start - 1``.
        The smaller of those two blocks moves into place, and the rectangle
        of rows up to ``start`` and columns from ``start - 1`` on is
        recomputed.  The rows past ``start`` hold R = C = 0 and I = -1 in
        the columns before ``start``: their deadlines precede their
        arrivals.  Where the rows past ``start`` move, the column of
        ``start - 1`` below them is reset to that.
        """
        rows = int(np.searchsorted(starts, start, "right"))
        col0 = int(np.searchsorted(ends, start - 1))
        kept_col = int(np.searchsorted(ends, start))
        old_rows = int(np.searchsorted(self.starts, end + 1, "right"))
        row_shift = old_rows - rows
        col_shift = int(np.searchsorted(self.ends, end, "right")) - kept_col
        if row_shift or col_shift:
            r, c = self.row_offset, self.col_offset
            below, right = starts.size - rows, ends.size - kept_col
            tables = (self.R, self.C, self.I)
            if rows * col0 <= below * right:
                for table in tables:
                    table[r + row_shift : r + row_shift + rows, c + col_shift : c + col_shift + col0] = table[
                        r : r + rows, c : c + col0
                    ]
                self.row_offset, self.col_offset = r + row_shift, c + col_shift
            else:
                for table in tables:
                    table[r + rows : r + rows + below, c + kept_col : c + kept_col + right] = table[
                        r + old_rows : r + old_rows + below, c + kept_col + col_shift : c + kept_col + col_shift + right
                    ]
                strip = (slice(r + rows, r + rows + below), slice(c + col0, c + kept_col))
                self.R[strip] = self.C[strip] = 0.0
                self.I[strip] = -1.0
        self.best = np.concatenate((self.best[:rows], self.best[old_rows:]))
        self.best_col = np.concatenate((self.best_col[:rows], self.best_col[old_rows:] - col_shift))
        self.starts, self.ends = starts, ends
        if rows:
            self._recompute(rows, col0, arrivals, deadlines, energies)
        return self

    def _recompute(
        self, rows: int, col0: int, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray
    ) -> None:
        """Recompute rows [0, rows) x columns [col0, ends.size), then the maxima of rows [0, rows).

        R continues up from row ``rows`` and C continues right from column
        ``col0 - 1``, both unchanged, so every sum adds the terms of a full
        rebuild in the same order.
        """
        starts, ends = self.starts, self.ends
        height, width = starts.size, ends.size
        r, c = self.row_offset, self.col_offset
        R, C, I = (table[r : r + height, c : c + width] for table in (self.R, self.C, self.I))
        if col0 < width:
            if rows < height or col0:
                inside = (arrivals <= starts[rows - 1]) & (deadlines >= ends[col0])
                arrivals, deadlines, energies = arrivals[inside], deadlines[inside], energies[inside]
            # the rectangle's weights transposed, bottom row first and led by the
            # unchanged row below if there is one: R's column sums then run along
            # contiguous memory
            below = int(rows < height)
            tall = rows + below
            position = rows - 1 + below - np.searchsorted(starts, arrivals)
            cell = (np.searchsorted(ends, deadlines) - col0) * tall + position
            weights = np.bincount(cell, weights=energies, minlength=(width - col0) * tall).reshape(width - col0, tall)
            if below:
                weights[:, 0] = R[rows, col0:]
            np.cumsum(weights, axis=1, out=R[:tall, col0:][::-1].T)
            del weights
            # each row's running sum starts from C's unchanged column col0 - 1
            C[:rows, col0:] = R[:rows, col0:]
            row_sums = C[:rows, max(col0 - 1, 0) :]
            np.cumsum(row_sums, axis=1, out=row_sums)
            span = ends[col0:] - (starts[:rows, None] - 1)  # exact in int64
            rect = I[:rows, col0:]
            rect.fill(-1.0)
            np.divide(C[:rows, col0:], span, out=rect, where=span > 0)
        I[:rows].argmax(axis=1, out=self.best_col[:rows])
        self.best[:rows] = I[np.arange(rows), self.best_col[:rows]]


def _components(arrivals: np.ndarray, deadlines: np.ndarray) -> tuple[np.ndarray, int]:
    """Split the jobs, at least one, at the runs of slots that no window covers.

    Returns each job's component, numbered left to right, and how many
    slots the windows cover.  Sorted by arrival, a job opens a new
    component when it arrives more than one slot past every earlier
    deadline.
    """
    order = np.argsort(arrivals, kind="stable")
    reach = np.maximum.accumulate(deadlines[order])
    gaps = arrivals[order[1:]] - reach[:-1] - 1
    label = np.empty_like(order)
    label[order] = np.concatenate(([0], np.cumsum(gaps > 0)))
    return label, int(reach[-1] - arrivals[order[0]] + 1 - gaps[gaps > 0].sum())


def _peel_component(index: np.ndarray, windows: np.ndarray, energies: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """One component's (start, end, level, picked, member windows) per interval, every round on its kept tables."""
    tables = _PeelTables(starts, ends, *windows, energies)
    while True:
        start, end, level = tables.critical()
        mask = (windows[0] >= start) & (windows[1] <= end)
        yield start, end, level, index[mask], windows[:, mask]
        keep = ~mask
        if not keep.any():
            return
        windows = _excise(windows[:, keep], start, end)
        energies = energies[keep]
        index = index[keep]
        tables = tables.cut(start, end, _distinct(windows[0]), _distinct(windows[1]), *windows, energies)


def _peel(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """Critical intervals in peel order, each cut from the timeline before the next is found.

    Yields (start, end, level, picked, member_arrivals, member_deadlines)
    per interval: [start, end] and the member windows are in the
    coordinates of the timeline left by the earlier cuts, and ``picked``
    indexes the members in the input arrays, in ascending order.  The
    inputs are not modified; empty arrays peel nothing.

    The jobs split at every run of uncovered slots (``_components``), and
    each component is peeled on its own tables.  That is the whole peel's
    result, bit for bit:

    - An interval over an uncovered slot has an intensity strictly below
      the better of its two sides, by a relative margin of at least one
      over its span, far above rounding; so no critical interval spans
      one, and a cut never closes one.
    - Inside a component, the whole instance's tables add only exact
      zeros from the other components, and a span is a difference of
      slots.  So each component's intervals, levels and members are those
      of the whole peel, and the whole peel takes the highest head of any
      component, ties to the leftmost (its row-major first maximum).

    ``heapq.merge`` keyed on -level merges the heads in that order, ties
    to the lower component index, and each yield is shifted left by the
    width already cut from the components to its left.

    Which tables a component is peeled on is decided once, at its first
    round.  A component of ``_INCREMENTAL_MIN_POINTS`` table points or more
    is peeled by ``_peel_component``.  The smaller ones are peeled together
    by ``_critical_rows``, sorted by job count, in batches whose rows times
    largest job count squared stay within ``_TABLE_CELLS``.
    """
    if not arrivals.size:
        return
    label, _ = _components(arrivals, deadlines)
    by_label = np.argsort(label, kind="stable")  # each component's jobs in input order
    sizes = np.bincount(label).tolist()
    members = [by_label[hi - size : hi] for size, hi in zip(sizes, np.cumsum(sizes).tolist())]
    windows = np.array((arrivals, deadlines))
    peels: list = [[] for _ in sizes]
    small = []
    for k, m in enumerate(members):
        if 2 * m.size >= _INCREMENTAL_MIN_POINTS:  # n jobs have at most 2n table points
            starts, ends = _distinct(arrivals[m]), _distinct(deadlines[m])
            if starts.size + ends.size >= _INCREMENTAL_MIN_POINTS:
                peels[k] = _peel_component(m, windows[:, m], energies[m], starts, ends)
                continue
        small.append(k)
    small.sort(key=sizes.__getitem__)
    while small:
        rows = 1
        while rows < len(small) and (rows + 1) * sizes[small[rows]] ** 2 <= _TABLE_CELLS:
            rows += 1
        batch, small = small[:rows], small[rows:]
        index = np.full((rows, sizes[batch[-1]]), -1)  # -1 pads: the instance's last job, at weight +0.0
        for row, k in zip(index, batch):
            row[: sizes[k]] = members[k]
        for todo, start, end, level, member, found in _critical_rows(
            windows[:, index], np.where(index >= 0, energies[index], 0.0)
        ):
            for q, (r, s, e, x) in enumerate(zip(todo.tolist(), start.tolist(), end.tolist(), level.tolist())):
                mask = member[q]
                peels[batch[r]].append((s, e, x, index[r][mask], found[:, q].compress(mask, axis=1)))
    cut = [0] * len(peels)  # width cut so far from each component
    for k, (start, end, level, picked, member_windows) in heapq.merge(
        *(zip(repeat(k), peel) for k, peel in enumerate(peels)), key=lambda head: -head[1][2]
    ):
        shift = sum(cut[:k])
        yield (start - shift, end - shift, level, picked, *(member_windows - shift))
        cut[k] += end - start + 1


def optimal_load_segments(instance: Instance) -> list[tuple[int, float]]:
    """(width, level) segments of the optimal load profile, in peel order.

    The optimal profile is constant on each extracted interval; successive
    levels are non-increasing.
    """
    _, arrivals, deadlines, energies = _job_arrays(instance)
    return [(end - start + 1, level) for start, end, level, *_ in _peel(arrivals, deadlines, energies)]


def min_cost(instance: Instance, cost: CostModel) -> float:
    """Optimal (minimum) total cost without materializing the schedule.

    Each segment is charged ``width * cost(level)`` with Python's scalar
    ``**``, summed in peel order.
    """
    total = 0.0
    for start, end, level, *_ in _peel(*_job_arrays(instance)[1:]):
        total += (end - start + 1) * cost(level)
    return total


def edf_fill(
    ids: np.ndarray, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray,
    start: int, end: int, level: float,
) -> dict[tuple[int, int], float]:
    """Fill every slot of [start, end] to exactly ``level`` using EDF order.

    The jobs are given as parallel arrays, in the order of ``_job_arrays``;
    they must all be contained in the interval and their total energy must
    equal level * width within 1e-9 * total.  Slots are processed left to
    right; at each slot the unfinished arrived jobs are served in order of
    earliest deadline (ties by smaller id), each taking the rest of its
    energy up to the slot's remaining capacity, or all of it when it is at
    most ``fill_tol`` = 1e-9 * level above; what a slot ends over or under
    ``level`` (at most ``fill_tol``) goes to the next slot's capacity, so it
    never adds up.  A slot serves on while its capacity exceeds ``fill_tol``
    or the first job's whole rest fits, so no job is too small to serve.
    Both bounds are relative: energies scaled by 2^k scale every entry by
    2^k exactly.  Returns the positive allocations as a (job id, slot) ->
    amount mapping of Python numbers.  Raises RuntimeError when a slot
    cannot be filled, a deadline is missed or energy is left unserved,
    which a valid critical interval rules out: a raise is a caller bug.
    """
    ordered = sorted(zip(arrivals.tolist(), deadlines.tolist(), ids.tolist(), energies.tolist()))
    width = end - start + 1
    if width < 1:
        raise ValueError(f"empty interval: start {start} > end {end}")
    for arrival, deadline, jid, _ in ordered:
        if arrival < start or deadline > end:
            raise ValueError(f"job {jid} window [{arrival}, {deadline}] not contained in [{start}, {end}]")
    total = _added(energy for *_, energy in ordered)
    if abs(total - level * width) > 1e-9 * total:
        raise ValueError(f"level {level!r} inconsistent with total energy {total!r} over {width} slots")

    remaining = {jid: energy for _, _, jid, energy in ordered}
    allocations: dict[tuple[int, int], float] = {}
    heap: list[tuple[int, int]] = []
    fill_tol = 1e-9 * level
    next_job, capacity = 0, 0.0
    for slot in range(start, end + 1):
        while next_job < len(ordered) and ordered[next_job][0] <= slot:
            heapq.heappush(heap, ordered[next_job][1:3])  # (deadline, id)
            next_job += 1
        capacity += level  # what the last slot left over or under, at most fill_tol, carries on
        while heap and (capacity > fill_tol or remaining[heap[0][1]] <= capacity + fill_tol):
            deadline, jid = heap[0]
            if deadline < slot:
                raise RuntimeError(f"EDF fill missed the deadline of job {jid}; infeasible input")
            take = remaining[jid] if remaining[jid] <= capacity + fill_tol else capacity
            allocations[(jid, slot)] = take  # a job is taken at most once per slot
            remaining[jid] -= take
            capacity -= take
            if remaining[jid] <= 0.0:
                heapq.heappop(heap)
        if capacity > fill_tol:
            raise RuntimeError(f"EDF fill cannot raise slot {slot} to level {level!r}; infeasible input")
    if leftovers := {jid: rem for jid, rem in remaining.items() if rem > 0.0}:
        raise RuntimeError(f"EDF fill left energy unserved: {leftovers!r}")
    return allocations


def schedule_optimal_offline(instance: Instance, cost: CostModel | None = None) -> Schedule:
    """Minimum-cost admissible schedule via critical-interval peeling.

    The flat-by-segment construction is optimal for every non-decreasing
    convex per-slot cost at once, so ``cost`` only documents the caller's
    objective and does not influence the schedule.

    Each segment is filled by ``edf_fill`` in the timeline left by the
    earlier cuts.  After the peel every entry's slot is mapped back to the
    original timeline in one array: the cuts are undone latest first, each
    moving the later segments' slots at or past its start right by its
    width.  The allocation dict is then built once, segment by segment in
    peel order and each segment in its fill order.
    """
    del cost
    ids, arrivals, deadlines, energies = _job_arrays(instance)
    # a slot's fill makes at most one entry besides those that finish a job
    if ids.size and (entries := _components(arrivals, deadlines)[1] + ids.size) > _MAX_ENTRIES:
        raise ValueError(f"the optimal schedule would hold up to {entries} entries, over the {_MAX_ENTRIES} allowed")
    # a job lies in one segment, so no two segments' fills share a key
    local: dict[tuple[int, int], float] = {}
    cuts = []  # (entries of the segments so far, start, width) per segment
    for start, end, level, picked, member_arrivals, member_deadlines in _peel(arrivals, deadlines, energies):
        local.update(edf_fill(ids[picked], member_arrivals, member_deadlines, energies[picked], start, end, level))
        cuts.append((len(local), start, end - start + 1))
    slots = np.fromiter(map(itemgetter(1), local), np.int64, len(local))
    for bound, start, width in reversed(cuts[:-1]):
        later = slots[bound:]
        np.add(later, width, out=later, where=later >= start)
    return Schedule(instance, dict(zip(zip(map(itemgetter(0), local), slots.tolist()), local.values())))


def _even_spread(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """Job index, slot and share of every entry of the even spread, jobs in input order, slots ascending."""
    widths = deadlines - arrivals + 1
    if (entries := sum(widths.tolist())) > _MAX_ENTRIES:  # Python ints: the widths may add past int64
        raise ValueError(f"the even spread would hold {entries} entries, over the {_MAX_ENTRIES} allowed")
    job = np.repeat(np.arange(widths.size), widths)
    first = np.cumsum(widths) - widths  # position of each job's first entry
    slot = np.arange(job.size) + (arrivals - first)[job]
    return job, slot, (energies / widths)[job]


def schedule_online_even(instance: Instance) -> Schedule:
    """Spread each job's energy evenly over its own window."""
    ids, arrivals, deadlines, energies = _job_arrays(instance)
    job, slot, share = _even_spread(arrivals, deadlines, energies)
    return Schedule(instance, dict(zip(zip(ids[job].tolist(), slot.tolist()), share.tolist())))


def even_cost(instance: Instance, cost: CostModel) -> float:
    """Cost of the even spread without materializing the schedule."""
    _, arrivals, deadlines, energies = _job_arrays(instance)
    _, slot, share = _even_spread(arrivals, deadlines, energies)
    return _slot_cost(slot, share, cost)
