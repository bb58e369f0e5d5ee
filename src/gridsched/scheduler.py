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
interval's slots back through the runs cut so far, not through a map as
long as the horizon.

Each round maximizes over q x q tables of contained energy and intensity,
one row and column per endpoint.  Rebuilding them every round costs
O(segments * q^2), so from ``_INCREMENTAL_MIN_POINTS`` endpoints up the
peel keeps them (``_PeelTables``).  A cut [s, e] changes only the cells
in rows whose point is <= s and columns whose point is >= s - 1, after
the cut: rows to its right only shift, and no job in a column left of
s - 1 moves.  That rectangle is recomputed from the unchanged row below
it and column left of it, so every sum adds the same terms in the same
order as a rebuild, every cell is bit for bit a rebuild's, and the
intervals, levels and members are too.  Below the switch a round
rebuilds, which is cheaper on small tables.

An online heuristic that spreads each job evenly over its own window is
provided for comparison; it upper-bounds the offline optimum.  Both the
schedule and its cost come from one array form of the spread,
``_even_spread``; ``even_cost`` sums the slot loads without building a
``Schedule``, bit for bit the cost of the materialized one.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Iterable

import numpy as np

from .model import CostModel, Instance, Job, Schedule, _job_arrays, _slot_cost


def _critical_arrays(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """Maximizer of the intensity over endpoint pairs, ties to smallest start then end.

    Returns (start, end, intensity, member_mask) in the coordinates of the
    given arrays.
    """
    points = np.unique(np.concatenate((arrivals, deadlines)))
    q = points.size
    a_idx = np.searchsorted(points, arrivals)
    d_idx = np.searchsorted(points, deadlines)
    weights = np.bincount(a_idx * q + d_idx, weights=energies, minlength=q * q).reshape(q, q)
    # contained[i, j] = total energy of jobs with arrival >= points[i], deadline <= points[j]
    contained = weights[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)
    span = points[None, :] - points[:, None] + 1
    intensity = np.where(span > 0, contained / np.maximum(span, 1), -1.0)
    flat = int(intensity.argmax())  # row-major first maximum: smallest start, then end
    i, j = divmod(flat, q)
    start = int(points[i])
    end = int(points[j])
    level = float(intensity[i, j])
    mask = (arrivals >= start) & (deadlines <= end)
    return start, end, level, mask


def _excise(arrivals: np.ndarray, deadlines: np.ndarray, start: int, end: int):
    """Relabel windows after cutting slots [start, end] out of the timeline.

    ``start`` and ``end`` may be (rows, 1) columns, one cut per row of
    (rows, n) windows, as the batched oracle peel uses it.
    """
    width = end - start + 1
    new_a = np.where(arrivals > end, arrivals - width, np.minimum(arrivals, start))
    new_d = np.where(deadlines > end, deadlines - width, np.minimum(deadlines, start - 1))
    return new_a, new_d


# Below this many endpoints a round rebuilds its tables with _critical_arrays:
# there the fixed numpy-call overhead of an update outweighs the cells it
# saves.  Whole peels of generate_instance draws, kept tables against
# rebuilds (Python 3.11, numpy 2.4, shared 2-vCPU x86-64): 1.2 vs 0.7 ms at
# q ~ 35, 2.7 vs 2.6 ms at q ~ 100, 5.2 vs 9.6 ms at q ~ 160.  Switch
# values from 64 to 96 timed alike on q = 85..210; 128 was 8% slower.
_INCREMENTAL_MIN_POINTS = 96


class _PeelTables:
    """The intensity tables of one peel, kept across its rounds.

    ``R[i, j]`` is the energy of the jobs ending at point j and starting
    at point i or later, summed from the last row up; ``C[i, j]`` sums row
    i of R from column 0 to j; ``I[i, j]`` is C over the span, or -1 where
    the span is empty.  Each is formed in the same order as in
    ``_critical_arrays``.  The tables sit in the square ``[offset, offset +
    q)`` of their buffers, which never grow; ``best`` and ``best_col`` hold
    each row's maximum intensity and its first argmax.
    """

    def __init__(self, points: np.ndarray, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
        q = points.size
        self.R, self.C, self.I = (np.empty((q, q)) for _ in range(3))
        self.offset = 0
        self.points = points
        self.best = np.empty(q)
        self.best_col = np.empty(q, dtype=np.intp)
        self._recompute(q, 0, arrivals, deadlines, energies)

    def critical(self) -> tuple[int, int, float]:
        """(start, end, level) of the first maximum in row-major order."""
        row = int(self.best.argmax())
        return int(self.points[row]), int(self.points[self.best_col[row]]), float(self.best[row])

    def cut(
        self, start: int, end: int,
        points: np.ndarray, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray,
    ) -> _PeelTables:
        """Tables for the jobs left after cutting [start, end]; ``points`` and the windows are post-cut.

        Rows past ``start`` (old points past ``end + 1``) and columns
        before ``start - 1`` keep their cells.  The smaller of the two
        unchanged blocks moves into place, its lower triangle of zeros and
        -1 with it, and the rectangle between them is recomputed.  A cut
        that adds a point gets fresh tables; that is rare.
        """
        old = self.points
        q, q_new = old.size, points.size
        if q_new > q:
            return _PeelTables(points, arrivals, deadlines, energies)
        rows = int(np.searchsorted(points, start, "right"))
        col0 = int(np.searchsorted(points, start - 1))
        right = int(np.searchsorted(old, end + 1, "right"))
        shift = right - rows
        o = self.offset
        if shift:
            if col0 <= q - right:
                src, dst, size = o, o + shift, col0
                self.offset = o + shift
            else:
                src, dst, size = o + right, o + rows, q - right
            for table in (self.R, self.C, self.I):
                table[dst : dst + size, dst : dst + size] = table[src : src + size, src : src + size]
        self.best = np.concatenate((self.best[:rows], self.best[right:]))
        self.best_col = np.concatenate((self.best_col[:rows], self.best_col[right:] - shift))
        self.points = points
        if rows:
            self._recompute(rows, col0, arrivals, deadlines, energies)
        return self

    def _recompute(
        self, rows: int, col0: int, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray
    ) -> None:
        """Recompute rows [0, rows) x columns [col0, q), then the maxima of rows [0, rows).

        R continues up from row ``rows`` and C continues right from column
        ``col0 - 1``, both unchanged, so every sum adds the terms of a full
        rebuild in the same order.
        """
        points = self.points
        q = points.size
        o = self.offset
        R, C, I = (table[o : o + q, o : o + q] for table in (self.R, self.C, self.I))
        width = q - col0
        if width:
            if rows < q or col0:
                inside = (arrivals <= points[rows - 1]) & (deadlines >= points[col0])
                arrivals, deadlines, energies = arrivals[inside], deadlines[inside], energies[inside]
            # the rectangle's weights transposed, bottom row first and led by the
            # unchanged row below if there is one: R's column sums then run along
            # contiguous memory
            below = int(rows < q)
            height = rows + below
            position = rows - 1 + below - np.searchsorted(points, arrivals)
            cell = (np.searchsorted(points, deadlines) - col0) * height + position
            weights = np.bincount(cell, weights=energies, minlength=width * height).reshape(width, height)
            if below:
                weights[:, 0] = R[rows, col0:]
            np.cumsum(weights, axis=1, out=R[:height, col0:][::-1].T)
            del weights
            # each row's running sum starts from C's unchanged column col0 - 1
            C[:rows, col0:] = R[:rows, col0:]
            row_sums = C[:rows, max(col0 - 1, 0) :]
            np.cumsum(row_sums, axis=1, out=row_sums)
            rect = I[:rows, col0:]
            span = points[col0:] - (points[:rows, None] - 1.0)
            # only rows past col0 hold empty spans (column before row)
            low = span[col0 + 1 :]
            empty = low <= 0
            np.maximum(low, 1.0, out=low)
            np.divide(C[:rows, col0:], span, out=rect)
            np.copyto(rect[col0 + 1 :], -1.0, where=empty)
        I[:rows].argmax(axis=1, out=self.best_col[:rows])
        self.best[:rows] = I[np.arange(rows), self.best_col[:rows]]


def _components(arrivals: np.ndarray, deadlines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the jobs at the runs of slots that no window covers.

    Returns each job's component, numbered left to right, and the length
    of the uncovered run before each component but the first.  Sorted by
    arrival, a job opens a new component when it arrives more than one
    slot past every earlier deadline.
    """
    order = np.argsort(arrivals, kind="stable")
    reach = np.maximum.accumulate(deadlines[order])
    gaps = arrivals[order[1:]] - reach[:-1] - 1
    label = np.empty_like(order)
    label[order] = np.concatenate(([0], np.cumsum(gaps > 0)))
    return label, gaps[gaps > 0]


def _peel_component(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """The peel loop on one component's jobs; yields as ``_peel`` does, in the component's own indices."""
    index = np.arange(arrivals.size)
    tables = None
    if 2 * arrivals.size >= _INCREMENTAL_MIN_POINTS:  # n jobs have at most 2n endpoints
        points = np.unique(np.concatenate((arrivals, deadlines)))
        if points.size >= _INCREMENTAL_MIN_POINTS:
            tables = _PeelTables(points, arrivals, deadlines, energies)
    while True:
        if tables is None:
            start, end, level, mask = _critical_arrays(arrivals, deadlines, energies)
        else:
            start, end, level = tables.critical()
            mask = (arrivals >= start) & (deadlines <= end)
        yield start, end, level, index[mask], arrivals[mask], deadlines[mask]
        keep = ~mask
        if not keep.any():
            return
        arrivals, deadlines = _excise(arrivals[keep], deadlines[keep], start, end)
        energies = energies[keep]
        index = index[keep]
        if tables is not None:
            points = np.unique(np.concatenate((arrivals, deadlines)))
            if points.size < _INCREMENTAL_MIN_POINTS:
                tables = None
            else:
                tables = tables.cut(start, end, points, arrivals, deadlines, energies)


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

    From ``_INCREMENTAL_MIN_POINTS`` endpoints up, a component's tables
    are kept in ``_PeelTables`` and each cut recomputes only the rectangle
    it changes; every other cell is bit for bit what a rebuild would give,
    so the intervals, levels and members equal those of rebuilding every
    round with ``_critical_arrays``.  Once a round finds fewer endpoints,
    the rest of the component's peel rebuilds every round.
    """
    if not arrivals.size:
        return
    label, _ = _components(arrivals, deadlines)
    by_label = np.argsort(label, kind="stable")  # each component's jobs in input order
    members = np.split(by_label, np.cumsum(np.bincount(label))[:-1])
    peels = [
        zip(repeat(k), _peel_component(arrivals[m], deadlines[m], energies[m])) for k, m in enumerate(members)
    ]
    cut = [0] * len(peels)  # width cut so far from each component
    for k, (start, end, level, picked, member_arrivals, member_deadlines) in heapq.merge(
        *peels, key=lambda head: -head[1][2]
    ):
        shift = sum(cut[:k])
        yield (
            start - shift, end - shift, level, members[k][picked],
            member_arrivals - shift, member_deadlines - shift,
        )
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


def edf_fill(jobs: Iterable[Job], start: int, end: int, level: float) -> dict[tuple[int, int], float]:
    """Fill every slot of [start, end] to exactly ``level`` using EDF order.

    The jobs must all be contained in the interval and their total energy
    must equal level * width.  Slots are processed left to right; at each
    slot the unfinished arrived jobs are served in order of earliest
    deadline (ties by smaller id).  Returns the positive allocations as a
    (job id, slot) -> amount mapping.

    Raises RuntimeError when a slot cannot be filled or a deadline is
    missed; with a valid critical interval this cannot happen, so a raise
    indicates a caller bug.
    """
    ordered = sorted(jobs, key=lambda j: (j.arrival, j.deadline, j.id))
    width = end - start + 1
    if width < 1:
        raise ValueError(f"empty interval: start {start} > end {end}")
    for job in ordered:
        if job.arrival < start or job.deadline > end:
            raise ValueError(f"job {job.id} window [{job.arrival}, {job.deadline}] not contained in [{start}, {end}]")
    total = sum(j.energy for j in ordered)
    if abs(total - level * width) > 1e-9 * max(1.0, total):
        raise ValueError(f"level {level!r} inconsistent with total energy {total!r} over {width} slots")

    remaining = {j.id: j.energy for j in ordered}
    allocations: dict[tuple[int, int], float] = {}
    heap: list[tuple[int, int]] = []
    fill_tol = 1e-9 * max(1.0, level)
    next_job = 0
    for slot in range(start, end + 1):
        while next_job < len(ordered) and ordered[next_job].arrival <= slot:
            job = ordered[next_job]
            heapq.heappush(heap, (job.deadline, job.id))
            next_job += 1
        capacity = level
        while capacity > fill_tol and heap:
            deadline, jid = heap[0]
            if deadline < slot:
                raise RuntimeError(f"EDF fill missed the deadline of job {jid}; infeasible input")
            take = min(remaining[jid], capacity)
            allocations[(jid, slot)] = take  # a job is taken at most once per slot
            remaining[jid] -= take
            capacity -= take
            if remaining[jid] <= 0.0:
                heapq.heappop(heap)
        if capacity > fill_tol:
            raise RuntimeError(f"EDF fill cannot raise slot {slot} to level {level!r}; infeasible input")
    leftovers = {jid: rem for jid, rem in remaining.items() if rem > fill_tol}
    if leftovers:
        raise RuntimeError(f"EDF fill left energy unserved: {leftovers!r}")
    return allocations


def schedule_optimal_offline(instance: Instance, cost: CostModel | None = None) -> Schedule:
    """Minimum-cost admissible schedule via critical-interval peeling.

    The flat-by-segment construction is optimal for every non-decreasing
    convex per-slot cost at once, so ``cost`` only documents the caller's
    objective and does not influence the schedule.
    """
    del cost
    ids, arrivals, deadlines, energies = _job_arrays(instance)
    # The slots cut so far, as sorted disjoint runs of the original timeline:
    # run k starts at slot cut_starts[k] and is cut_widths[k] slots wide.
    cut_starts = cut_widths = np.empty(0, dtype=np.int64)
    allocations: dict[tuple[int, int], float] = {}
    for start, end, level, picked, member_arrivals, member_deadlines in _peel(arrivals, deadlines, energies):
        members = [
            Job(int(ids[t]), int(a), int(d), float(energies[t]))
            for t, a, d in zip(picked, member_arrivals, member_deadlines)
        ]
        fragment = edf_fill(members, start, end, level)
        behind = np.concatenate(([0], np.cumsum(cut_widths)))  # widths of the first k runs
        after = cut_starts - behind[:-1]  # the slot just past run k, in the timeline left by the cuts
        slots = np.arange(start, end + 1)
        original = (slots + behind[np.searchsorted(after, slots, "right")]).tolist()
        for (jid, slot), amount in fragment.items():
            allocations[(jid, original[slot - start])] = amount
        # the cut and the runs inside it make one run
        first, last = original[0], original[-1]
        lo, hi = np.searchsorted(cut_starts, first), np.searchsorted(cut_starts, last, "right")
        cut_starts = np.concatenate((cut_starts[:lo], [first], cut_starts[hi:]))
        cut_widths = np.concatenate((cut_widths[:lo], [last - first + 1], cut_widths[hi:]))
    return Schedule(instance, allocations)


def _even_spread(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """Job index, slot and share of every entry of the even spread, jobs in input order, slots ascending."""
    widths = deadlines - arrivals + 1
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
