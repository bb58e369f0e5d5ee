"""Exact small-scale reference solvers and a schedule optimality certifier.

These are deliberately dumb: the attack maximum is found by enumerating
every joint slot assignment, the budgeted attack by enumerating every
altered subset and compression and peeling the optimal controller on
each altered instance, and schedule optimality is certified via residual
transfer paths.  Everything is guarded to desk scale and used to
validate the polynomial algorithms elsewhere in the package.

Both enumerations come from one generator, ``_altered_windows``: the
brute force is its case with every job altered, each assignment's loads
added up in job order on the grid of covered slots.  ``_TABLE_CELLS``
sizes every batch.

The budgeted oracle peels a batch of altered instances at once
(``_peel_rows``).  Each round builds the contained-energy and intensity
tables of every unfinished row on one slot grid, in the summation order
of ``scheduler._critical_arrays``; the grid's rows and columns that are
no endpoint add exact zeros, so each row finds the intervals and levels
of its own peel bit for bit.  Levels are charged with Python's scalar
``**``, as ``min_cost`` does: numpy's array ``**`` rounds the last bit
differently on some loads.  The grid keeps one slot of each run of slots
that no window covers, so it is at most the windows' total plus n slots
wide, whatever the gaps between the jobs.  A grid so wide that one row's
table would exceed ``_TABLE_CELLS`` is rejected before any enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .model import CostModel, Instance, Schedule, _job_arrays
from .scheduler import _components, _excise

ENUMERATION_GUARD = 10_000_000
"""Maximum number of joint assignments an oracle call may enumerate."""

_TABLE_CELLS = 1 << 14
"""Cells of one batch: the budgeted oracle's (rows, slots, slots) tables and
the brute force's (rows, slots) loads.

Bounds the rows enumerated together, and so a batch's memory.  On the
benchmark's desk-scale oracle pass (Python 3.11, numpy 2.4) the peak RSS
was the same at 2^14 and 2^16 cells and about 4 MiB higher at 2^18.
"""


def _guarded_product(counts: list[int]) -> int:
    total = 1
    for count in counts:
        total *= count
        if total > ENUMERATION_GUARD:
            raise ValueError(
                f"instance too large for exhaustive enumeration (> {ENUMERATION_GUARD} assignments)"
            )
    return total


def brute_force_max_cost(instance: Instance, cost: CostModel) -> float:
    """Exact maximum total cost over all single-slot service assignments.

    Enumerates every t_j in [arrival_j, deadline_j] and evaluates the
    stacked per-slot cost.  The assignments are ``_altered_windows``' with
    every job altered, at most ``_TABLE_CELLS`` load cells at a time; each
    slot's load adds the jobs in job order, on the grid of covered slots.
    Guarded: the product of window sizes must not exceed
    ENUMERATION_GUARD.
    """
    if instance.n == 0:
        return 0.0
    _guarded_product([j.allowance + 1 for j in instance.jobs])
    _, arrivals, deadlines, energies = _job_arrays(instance)
    grid = np.unique(np.concatenate([np.arange(a, d + 1) for a, d in zip(arrivals, deadlines)]))
    best = 0.0
    for slots, _ in _altered_windows(arrivals, deadlines, instance.n, max(1, _TABLE_CELLS // grid.size)):
        rows = len(slots)
        cells = np.arange(rows)[:, None] * grid.size + np.searchsorted(grid, slots)
        loads = np.bincount(cells.ravel(), weights=np.tile(energies, rows), minlength=rows * grid.size)
        best = max(best, float(cost(loads.reshape(-1, grid.size)).sum(axis=1).max()))
    return best


def _altered_windows(arrivals: np.ndarray, deadlines: np.ndarray, size: int, rows: int):
    """Windows of every altered set of ``size`` jobs under every compression, ``rows`` at a time.

    Yields (arrivals, deadlines) arrays of shape (rows, n), the last one
    possibly shorter.  An altered job's window is the one slot it is
    compressed to.  Sets come in ``combinations`` order and, within a
    set, compressions in ``product`` order; at most ``rows`` sets are
    held at once.
    """
    n = arrivals.size
    sets = combinations(range(n), size)
    while block := list(islice(sets, rows)):
        chosen = np.array(block, dtype=np.intp).reshape(len(block), size)
        widths = (deadlines - arrivals + 1)[chosen]
        # mixed-radix digits of a set's compressions, its last job fastest
        strides = np.ones_like(widths)
        for col in range(size - 2, -1, -1):
            strides[:, col] = strides[:, col + 1] * widths[:, col + 1]
        counts = widths.prod(axis=1)
        first = np.cumsum(counts) - counts
        total = int(first[-1] + counts[-1])
        for lo in range(0, total, rows):
            row = np.arange(lo, min(lo + rows, total))
            owner = np.searchsorted(first, row, "right") - 1
            picked = chosen[owner]
            slots = arrivals[picked] + (row - first[owner])[:, None] // strides[owner] % widths[owner]
            altered_a = np.repeat(arrivals[None], row.size, axis=0)
            altered_d = np.repeat(deadlines[None], row.size, axis=0)
            np.put_along_axis(altered_a, picked, slots, axis=1)
            np.put_along_axis(altered_d, picked, slots, axis=1)
            yield altered_a, altered_d


def _peel_rows(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray, cost: CostModel) -> np.ndarray:
    """Optimal cost of every row's instance, all rows peeled at once.

    ``arrivals`` and ``deadlines`` are (rows, n) windows on the slots
    0..H-1, and ``energies`` are the n energies every row shares.  Each
    round takes, per row, the first row-major maximum of the intensity
    over slot pairs, adds ``width * cost(level)`` to the row's total, and
    cuts the interval out with ``_excise``.  A maximum with
    positive energy lies on an arrival and a deadline, where the grid's
    table holds exactly the sums of ``_critical_arrays``' endpoint table
    (the grid's other rows and columns add zeros), so every row's total
    is bit for bit that of its own peel.  Empty spans hold no energy and
    read 0 here instead of -1; neither can be a positive maximum.
    """
    grid = np.arange(int(deadlines.max()) + 1)
    divisor = np.maximum(grid - grid[:, None] + 1, 1)  # the span j - i + 1 of slots i..j, or 1
    totals = np.zeros(arrivals.shape[0])
    todo = np.arange(arrivals.shape[0])
    live = np.ones(arrivals.shape, dtype=bool)
    shared = np.repeat(energies[None], todo.size, axis=0)
    while todo.size:
        count = todo.size
        horizon = int(deadlines[live].max()) + 1  # every cut shortens each row's timeline
        cells = (np.arange(count)[:, None] * horizon + arrivals) * horizon + deadlines
        table = np.bincount(cells[live], weights=shared[live], minlength=count * horizon * horizon)
        table = table.reshape(count, horizon, horizon)
        # the energy of row r's live jobs with arrival >= i and deadline <= j, then over the span
        upward = table[:, ::-1]
        np.cumsum(upward, axis=1, out=upward)
        np.cumsum(table, axis=2, out=table)
        table /= divisor[:horizon, :horizon]
        intensity = table.reshape(count, -1)
        flat = intensity.argmax(axis=1)  # row-major first maximum: smallest start, then end
        level = intensity[np.arange(count), flat]
        start, end = np.divmod(flat, horizon)
        totals[todo] += (end - start + 1) * np.array([cost(x) for x in level.tolist()])
        start, end = start[:, None], end[:, None]
        live &= (arrivals < start) | (deadlines > end)
        arrivals, deadlines = _excise(arrivals, deadlines, start, end)
        going = live.any(axis=1)
        if not going.all():
            todo, live, shared = todo[going], live[going], shared[going]
            arrivals, deadlines = arrivals[going], deadlines[going]
    return totals


def exact_limited_attack_curve(instance: Instance, cost: CostModel, max_budget: int | None = None) -> list[float]:
    """Exact best attack value per alteration budget 0..max_budget.

    Entry m is the maximum, over altered sets of size <= m and all
    compressions of those jobs, of the optimal controller's cost on the
    altered instance.  Entry 0 is the unattacked optimum.  Guarded via
    the subset-times-compression count.

    The altered instances of one set size are peeled in batches of at
    most ``_TABLE_CELLS`` table cells by ``_peel_rows``, each level
    charged with Python's scalar ``**``; every entry equals, bit for
    bit, the maximum of ``min_cost`` over the enumerated instances.  Also
    guarded: one row's table, the squeezed grid's slots squared, must fit
    in ``_TABLE_CELLS``.
    """
    if max_budget is not None and max_budget < 0:
        raise ValueError("budget must be non-negative")
    n = instance.n
    cap = n if max_budget is None else min(max_budget, n)
    if n == 0:
        return [0.0] * (cap + 1)
    _guarded_product([j.allowance + 2 for j in instance.jobs])

    _, arrivals, deadlines, energies = _job_arrays(instance)
    # The peel is unchanged by a shift of every slot, and by the length of a
    # run of uncovered slots: it peels the components on either side alone.
    # So the grid starts at the first arrival and each run keeps one slot.
    # Altered windows lie inside the original ones, so every run stays
    # uncovered in every altered instance and in every round.
    label, gaps = _components(arrivals, deadlines)
    squeeze = np.concatenate(([arrivals.min()], gaps - 1)).cumsum()[label]
    arrivals, deadlines = arrivals - squeeze, deadlines - squeeze
    slots = int(deadlines.max()) + 1
    if slots * slots > _TABLE_CELLS:
        raise ValueError(
            f"instance too large for exhaustive enumeration ({slots}-slot grid; {_TABLE_CELLS} table cells at most)"
        )
    rows = _TABLE_CELLS // (slots * slots)
    best = []
    top = -np.inf
    for size in range(cap + 1):
        for altered_a, altered_d in _altered_windows(arrivals, deadlines, size, rows):
            top = max(top, float(_peel_rows(altered_a, altered_d, energies, cost).max()))
        best.append(top)
    return best


@dataclass(frozen=True)
class MinOptimalityResult:
    """Outcome of the schedule optimality check.

    ``witness`` is a chain of (from_slot, job_id, to_slot) transfers that
    would strictly reduce a strictly convex cost; empty when optimal.
    """

    optimal: bool
    witness: tuple[tuple[int, int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.optimal


def check_min_optimality(
    instance: Instance,
    schedule: Schedule,
    cost: CostModel,
    tol: float = 1e-7,
) -> MinOptimalityResult:
    """Certify first-order optimality of an admissible schedule.

    Builds the residual slot graph with an arc t -> t' whenever some job
    holds more than ``tol`` energy at t and t' lies inside its window.
    The schedule minimizes every strictly convex separable cost iff no
    slot can reach, along such arcs, a slot whose load is lower by more
    than ``tol * max(1, largest slot load)``: the loads carry rounding
    error in proportion to their size.  Single swaps are not enough:
    improving moves may need chains of transfers, hence the path search.
    Linear costs (exponent 1) make every admissible schedule optimal.
    """
    if cost.exponent == 1.0:
        return MinOptimalityResult(True)
    loads: dict[int, float] = {}
    movers: dict[int, list[int]] = {}
    for (jid, slot), amount in schedule.allocations.items():
        loads[slot] = loads.get(slot, 0.0) + amount
        if amount > tol:
            movers.setdefault(slot, []).append(jid)
    for jobs_here in movers.values():
        jobs_here.sort()
    gap_tol = tol * max(1.0, max(loads.values(), default=0.0))

    for source in sorted(movers):
        seen = {source}
        parent: dict[int, tuple[int, int]] = {}
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for here in frontier:
                for jid in movers.get(here, ()):
                    job = instance.job(jid)
                    for there in range(job.arrival, job.deadline + 1):
                        if there in seen:
                            continue
                        seen.add(there)
                        parent[there] = (here, jid)
                        if loads[source] - loads.get(there, 0.0) > gap_tol:
                            hops: list[tuple[int, int, int]] = []
                            at = there
                            while at != source:
                                prev, via = parent[at]
                                hops.append((prev, via, at))
                                at = prev
                            return MinOptimalityResult(False, tuple(reversed(hops)))
                        nxt.append(there)
            frontier = nxt
    return MinOptimalityResult(True)
