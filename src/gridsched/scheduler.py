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
one row per arrival point and one column per deadline point: a
maximum-intensity interval starts at a release and ends at a deadline
(Yao, Demers and Shenker, FOCS 1995).  Their first maximum in row-major
order is, bit for bit, that of tables over every endpoint pair:

- an endpoint row with no arrival adds only exact +0.0 to the sums, so
  its cells hold those of the next arrival row over a strictly longer
  span; their intensity is strictly lower (the energy is positive, and
  below 2^52 slots C / span and C / (span + 1) round apart), so it never
  holds the first maximum;
- a column with no deadline repeats the previous column's sums, with the
  same effect;
- dropping those rows and columns removes only +0.0 terms, so every
  other cell adds the same terms in the same order, and row-major order
  is kept.

Rebuilding the tables every round costs O(segments * rows * columns), so
from ``_INCREMENTAL_MIN_POINTS`` table points up the peel keeps them
(``_PeelTables``).  A cut [s, e] changes only the cells in rows whose
arrival point is <= s and columns whose deadline point is >= s - 1,
after the cut: rows to its right only shift, and no job in a column left
of s - 1 moves.  That rectangle is recomputed from the unchanged row
below it and column left of it, so every sum adds the same terms in the
same order as a rebuild, every cell is bit for bit a rebuild's, and the
intervals, levels and members are too.  Spans are differences of int64
slots, exact at any slot offset.  Below the switch a round rebuilds,
which is cheaper on small tables.

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


def _critical_arrays(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """Maximizer of the intensity over arrival-deadline pairs, ties to smallest start then end.

    Returns (start, end, intensity, member_mask) in the coordinates of the
    given arrays.
    """
    starts = _distinct(arrivals)
    ends = _distinct(deadlines)
    width = ends.size
    cell = np.searchsorted(starts, arrivals) * width + np.searchsorted(ends, deadlines)
    weights = np.bincount(cell, weights=energies, minlength=starts.size * width).reshape(starts.size, width)
    # contained[i, j] = total energy of jobs with arrival >= starts[i], deadline <= ends[j]
    contained = weights[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)
    span = ends[None, :] - starts[:, None] + 1
    intensity = np.where(span > 0, contained / np.maximum(span, 1), -1.0)
    flat = int(intensity.argmax())  # row-major first maximum: smallest start, then end
    i, j = divmod(flat, width)
    start = int(starts[i])
    end = int(ends[j])
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


# Below this many table points (arrival points plus deadline points) a round
# rebuilds its tables with _critical_arrays: there the fixed numpy-call
# overhead of an update outweighs the cells it saves.  Whole peels of
# one-component generate_instance draws, every round on kept tables against
# every round rebuilt (Python 3.11, numpy 2.4, shared 2-vCPU x86-64, CPU time,
# best of 7): 1.1 vs 0.7 ms at 48 points, 2.5 vs 1.9 ms at 144, 4.4 vs 4.6 ms
# at 210, 5.0 vs 6.5 ms at 249.  On fig3's 200 peels (about 190 points each)
# switch values from 128 to 224 timed alike; 96 and 256 were slower in most runs.
_INCREMENTAL_MIN_POINTS = 128


class _PeelTables:
    """The intensity tables of one peel, kept across its rounds.

    Row i stands for the arrival point ``starts[i]`` and column j for the
    deadline point ``ends[j]``.  ``R[i, j]`` is the energy of the jobs due
    at ends[j] that arrive at starts[i] or later, summed from the last row
    up; ``C[i, j]`` sums row i of R from column 0 to j; ``I[i, j]`` is C
    over the span ends[j] - starts[i] + 1, or -1 where the span is empty.
    Each is formed in the same order as in ``_critical_arrays``.  The
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
    if 2 * arrivals.size >= _INCREMENTAL_MIN_POINTS:  # n jobs have at most 2n table points
        starts, ends = _distinct(arrivals), _distinct(deadlines)
        if starts.size + ends.size >= _INCREMENTAL_MIN_POINTS:
            tables = _PeelTables(starts, ends, arrivals, deadlines, energies)
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
            starts, ends = _distinct(arrivals), _distinct(deadlines)
            if starts.size + ends.size < _INCREMENTAL_MIN_POINTS:
                tables = None
            else:
                tables = tables.cut(start, end, starts, ends, arrivals, deadlines, energies)


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

    From ``_INCREMENTAL_MIN_POINTS`` table points (arrival points plus
    deadline points) up, a component's tables are kept in ``_PeelTables``
    and each cut recomputes only the rectangle it changes; every other
    cell is bit for bit what a rebuild would give, so the intervals,
    levels and members equal those of rebuilding every round with
    ``_critical_arrays``.  Once a round finds fewer table points, the rest
    of the component's peel rebuilds every round.
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


def edf_fill(
    ids: np.ndarray, arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray,
    start: int, end: int, level: float,
) -> dict[tuple[int, int], float]:
    """Fill every slot of [start, end] to exactly ``level`` using EDF order.

    The jobs are given as parallel arrays, in the order of ``_job_arrays``;
    they must all be contained in the interval and their total energy must
    equal level * width.  Slots are processed left to right; at each slot
    the unfinished arrived jobs are served in order of earliest deadline
    (ties by smaller id).  Returns the positive allocations as a (job id,
    slot) -> amount mapping of Python numbers.

    Raises RuntimeError when a slot cannot be filled or a deadline is
    missed; with a valid critical interval this cannot happen, so a raise
    indicates a caller bug.
    """
    ordered = sorted(zip(arrivals.tolist(), deadlines.tolist(), ids.tolist(), energies.tolist()))
    width = end - start + 1
    if width < 1:
        raise ValueError(f"empty interval: start {start} > end {end}")
    for arrival, deadline, jid, _ in ordered:
        if arrival < start or deadline > end:
            raise ValueError(f"job {jid} window [{arrival}, {deadline}] not contained in [{start}, {end}]")
    total = _added(energy for *_, energy in ordered)
    if abs(total - level * width) > 1e-9 * max(1.0, total):
        raise ValueError(f"level {level!r} inconsistent with total energy {total!r} over {width} slots")

    remaining = {jid: energy for _, _, jid, energy in ordered}
    allocations: dict[tuple[int, int], float] = {}
    heap: list[tuple[int, int]] = []
    fill_tol = 1e-9 * max(1.0, level)
    next_job = 0
    for slot in range(start, end + 1):
        while next_job < len(ordered) and ordered[next_job][0] <= slot:
            heapq.heappush(heap, ordered[next_job][1:3])  # (deadline, id)
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

    Each segment is filled by ``edf_fill`` in the timeline left by the
    earlier cuts.  After the peel every entry's slot is mapped back to the
    original timeline in one array: the cuts are undone latest first, each
    moving the later segments' slots at or past its start right by its
    width.  The allocation dict is then built once, segment by segment in
    peel order and each segment in its fill order.
    """
    del cost
    ids, arrivals, deadlines, energies = _job_arrays(instance)
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
