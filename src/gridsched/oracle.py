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
sizes every batch.  The brute force's work is its assignments times its
grid's slots, so it is refused past ``_LOAD_CELLS`` load cells as well as
past ``ENUMERATION_GUARD`` assignments.

The budgeted oracle peels a batch of altered instances at once
(``_peel_rows``) with the controller's batched critical-interval search,
``scheduler._critical_rows``: each row finds the intervals and levels of
its own peel bit for bit, on tables of arrival rank by deadline rank whose
size does not depend on the slots or the gaps between the jobs.  Levels
are charged with Python's scalar ``**``, as ``min_cost`` does: numpy's
array ``**`` rounds the last bit differently on some loads.  Altered sets
are drawn only from the jobs whose window is wider than one slot:
compressing a one-slot job changes nothing, so a set holding one is the
same instance as the smaller set without it, already counted.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .model import CostModel, Instance, Schedule, _distinct, _job_arrays
from .scheduler import _TABLE_CELLS, _components, _critical_rows

ENUMERATION_GUARD = 10_000_000
"""Maximum number of joint assignments an oracle call may enumerate."""

_LOAD_CELLS = 100_000_000
"""Maximum assignments times grid slots the brute force may evaluate."""


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
    ENUMERATION_GUARD, and that product times the grid's slots must not
    exceed ``_LOAD_CELLS``.  A cost past float64 raises
    ``FloatingPointError``, an ``ArithmeticError``.
    """
    if instance.n == 0:
        return 0.0
    assignments = _guarded_product([j.allowance + 1 for j in instance.jobs])
    _, arrivals, deadlines, energies = _job_arrays(instance)
    _, covered = _components(arrivals, deadlines)
    if assignments * covered > _LOAD_CELLS:
        raise ValueError(
            f"instance too large for exhaustive enumeration ({assignments} assignments on a {covered}-slot grid"
            f" are {assignments * covered} load cells; {_LOAD_CELLS} at most)"
        )
    grid = _distinct(np.concatenate([np.arange(a, d + 1) for a, d in zip(arrivals, deadlines)]))
    best = 0.0
    everyone = np.arange(instance.n)
    for slots, _ in _altered_windows(arrivals, deadlines, everyone, instance.n, max(1, _TABLE_CELLS // grid.size)):
        rows = len(slots)
        cells = np.arange(rows)[:, None] * grid.size + np.searchsorted(grid, slots)
        loads = np.bincount(cells.ravel(), weights=np.tile(energies, rows), minlength=rows * grid.size)
        with np.errstate(over="raise"):
            best = max(best, float(cost(loads.reshape(-1, grid.size)).sum(axis=1).max()))
    return best


def _altered_windows(arrivals: np.ndarray, deadlines: np.ndarray, movable: np.ndarray, size: int, rows: int):
    """Windows of every altered set of ``size`` jobs under every compression, ``rows`` at a time.

    The sets are drawn from the job indices ``movable``.  Yields (2, rows,
    n) arrays of arrivals stacked on deadlines, the last one possibly
    shorter.  An altered job's window is the one slot it is compressed to.
    Sets come in ``combinations`` order and, within a set, compressions in
    ``product`` order; at most ``rows`` sets are held at once.
    """
    sets = combinations(movable.tolist(), size)
    windows = np.array((arrivals, deadlines))
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
            altered = np.repeat(windows[:, None], row.size, axis=1)
            altered[:, np.arange(row.size)[:, None], picked] = slots
            yield altered


def _peel_rows(windows: np.ndarray, energies: np.ndarray, cost: CostModel) -> np.ndarray:
    """Optimal cost of every row's instance of (2, rows, n) windows, all peeled at once by ``_critical_rows``.

    Every row shares the n ``energies``.  Each round adds, per row,
    ``width * cost(level)`` of its critical interval, as ``min_cost`` does.
    """
    totals = np.zeros(windows.shape[1])
    for rows, start, end, level, *_ in _critical_rows(windows, np.broadcast_to(energies, windows.shape[1:])):
        totals[rows] += (end - start + 1) * np.array([cost(x) for x in level.tolist()])
    return totals


def exact_limited_attack_curve(instance: Instance, cost: CostModel, max_budget: int | None = None) -> list[float]:
    """Exact best attack value per alteration budget 0..max_budget.

    Entry m is the maximum, over altered sets of size <= m and all
    compressions of those jobs, of the optimal controller's cost on the
    altered instance.  Entry 0 is the unattacked optimum.  Guarded via
    the subset-times-compression count.

    The altered instances of one set size are peeled by ``_peel_rows``,
    ``_TABLE_CELLS`` over n squared at a time (n jobs have at most n points
    of each kind); every entry equals, bit for bit, the maximum of
    ``min_cost`` over the enumerated instances.  Sets holding a one-slot
    job are skipped: each is the instance of the smaller set without it.
    """
    if max_budget is not None and max_budget < 0:
        raise ValueError("budget must be non-negative")
    n = instance.n
    cap = n if max_budget is None else min(max_budget, n)
    if n == 0:
        return [0.0] * (cap + 1)
    _guarded_product([j.allowance + 2 for j in instance.jobs])

    _, arrivals, deadlines, energies = _job_arrays(instance)
    rows = max(1, _TABLE_CELLS // (n * n))
    movable = np.flatnonzero(deadlines > arrivals)
    best = []
    top = -np.inf
    for size in range(cap + 1):
        for altered in _altered_windows(arrivals, deadlines, movable, size, rows):
            top = max(top, float(_peel_rows(altered, energies, cost).max()))
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
    holds more than g = ``tol`` * largest slot load at t and t' lies inside
    its window.  The schedule minimizes every strictly convex separable cost
    iff no slot can reach, along such arcs, a slot whose load is lower by
    more than g: the loads carry rounding error in proportion to their size,
    so scaling every energy by 2^k leaves the verdict as it is.  g is
    relative at every load: at a largest load of 1e6 and the default
    ``tol``, a job holding 0.1 or less at a slot is no mover.  Single swaps
    are not enough: improving moves may need chains of transfers, hence the
    path search.  Linear costs (exponent 1) make every admissible schedule
    optimal.  Raises ValueError unless ``tol`` is finite and >= 0.

    The search from a slot visits, in each mover's window, only the
    occupied slots, in ascending order, so a window costs its occupied
    slots and not its width.  An unoccupied slot has no movers and a load
    of 0, so it is a witness of every source searched (below), and the
    window's first one is the witness a slot-by-slot walk would return:
    the walk stops there.

    Every slot reached by a search that finds no witness keeps a floor: a
    lower bound on the loads reachable from it, the lowest load that search
    reached, or a floor of a slot it did not expand.  No load is below 0, so
    a slot without a floor has the floor 0.  A source whose load exceeds its
    floor by at most g has no witness and is skipped.  A search checks a
    slot whose floor passes that test against its source as a witness, but
    does not expand it: nothing behind it is a witness, and every other
    slot is found in the same order from the same parent.  So the verdict
    and the witness chain are those of a search from every mover's slot.

    A search expands each mover once: its window's slots are all found the
    first time, so expanding it again from another slot it holds finds
    nothing.  One job spread over W slots then costs O(W log W) and not
    O(W^2).
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    if cost.exponent == 1.0:
        return MinOptimalityResult(True)
    loads = schedule.slot_loads()
    occupied = list(loads)  # ascending
    movers: dict[int, list[int]] = {}  # each slot's movers by ascending id
    gap_tol = tol * max(loads.values(), default=0.0)
    for (jid, slot), amount in sorted(schedule.allocations.items()):
        if amount > gap_tol:
            movers.setdefault(slot, []).append(jid)

    floor: dict[int, float] = {}
    for source in sorted(movers):
        top = loads[source]
        if top - floor.get(source, 0.0) <= gap_tol:
            continue
        seen, expanded = {source}, set()  # the slots found and the movers whose windows were, this search
        parent: dict[int, tuple[int, int]] = {}
        frontier, reached = [source], [source]
        low = top  # the lowest load reached so far, through floors too
        while frontier:
            nxt: list[int] = []
            for here in frontier:
                for jid in movers.get(here, ()):
                    if jid in expanded:  # its window's slots were all found, from the same parents
                        continue
                    expanded.add(jid)
                    job = instance.job(jid)
                    window = occupied[bisect_left(occupied, job.arrival) : bisect_right(occupied, job.deadline)]
                    # the window's occupied slots up to its first unoccupied one, then that one
                    free = next((k for k, slot in enumerate(window) if slot != job.arrival + k), len(window))
                    if job.arrival + free <= job.deadline:
                        window = window[:free] + [job.arrival + free]
                    for there in window:
                        if there in seen:
                            continue
                        seen.add(there)
                        parent[there] = (here, jid)
                        if top - loads.get(there, 0.0) > gap_tol:
                            hops: list[tuple[int, int, int]] = []
                            at = there
                            while at != source:
                                prev, via = parent[at]
                                hops.append((prev, via, at))
                                at = prev
                            return MinOptimalityResult(False, tuple(reversed(hops)))
                        if there in floor and top - floor[there] <= gap_tol:
                            low = min(low, floor[there])
                        else:
                            low = min(low, loads[there])
                            nxt.append(there)
            frontier = nxt
            reached += nxt
        for slot in reached:
            floor[slot] = max(low, floor.get(slot, low))
    return MinOptimalityResult(True)
