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

An online heuristic that spreads each job evenly over its own window is
provided for comparison; it upper-bounds the offline optimum.
"""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from .model import CostModel, Instance, Job, Schedule, _job_arrays


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
    """Relabel windows after cutting slots [start, end] out of the timeline."""
    width = end - start + 1
    new_a = np.where(arrivals > end, arrivals - width, np.minimum(arrivals, start))
    new_d = np.where(deadlines > end, deadlines - width, np.minimum(deadlines, start - 1))
    return new_a, new_d


def _peel(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """Critical intervals in peel order, each cut from the timeline before the next is found.

    Yields (start, end, level, picked, member_arrivals, member_deadlines)
    per interval: [start, end] and the member windows are in the
    coordinates of the timeline left by the earlier cuts, and ``picked``
    indexes the members in the input arrays, in ascending order.  The
    inputs are not modified; empty arrays peel nothing.
    """
    index = np.arange(arrivals.size)
    while index.size:
        start, end, level, mask = _critical_arrays(arrivals, deadlines, energies)
        yield start, end, level, index[mask], arrivals[mask], deadlines[mask]
        keep = ~mask
        if not keep.any():
            return
        arrivals, deadlines = _excise(arrivals[keep], deadlines[keep], start, end)
        energies = energies[keep]
        index = index[keep]


def _min_cost_arrays(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray, cost: CostModel) -> float:
    total = 0.0
    for start, end, level, *_ in _peel(arrivals, deadlines, energies):
        total += (end - start + 1) * cost(level)
    return float(total)


def optimal_load_segments(instance: Instance) -> list[tuple[int, float]]:
    """(width, level) segments of the optimal load profile, in peel order.

    The optimal profile is constant on each extracted interval; successive
    levels are non-increasing.
    """
    _, arrivals, deadlines, energies = _job_arrays(instance)
    return [(end - start + 1, level) for start, end, level, *_ in _peel(arrivals, deadlines, energies)]


def min_cost(instance: Instance, cost: CostModel) -> float:
    """Optimal (minimum) total cost without materializing the schedule."""
    return _min_cost_arrays(*_job_arrays(instance)[1:], cost)


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
            if remaining[jid] <= 0.0:
                heapq.heappop(heap)
                continue
            if deadline < slot:
                raise RuntimeError(f"EDF fill missed the deadline of job {jid}; infeasible input")
            take = min(remaining[jid], capacity)
            allocations[(jid, slot)] = allocations.get((jid, slot), 0.0) + take
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
    slot_map = np.arange(1, instance.horizon + 1, dtype=np.int64)
    allocations: dict[tuple[int, int], float] = {}
    for start, end, level, picked, member_arrivals, member_deadlines in _peel(arrivals, deadlines, energies):
        members = [
            Job(int(ids[t]), int(a), int(d), float(energies[t]))
            for t, a, d in zip(picked, member_arrivals, member_deadlines)
        ]
        fragment = edf_fill(members, start, end, level)
        for (jid, slot), amount in fragment.items():
            allocations[(jid, int(slot_map[slot - 1]))] = amount
        slot_map = np.delete(slot_map, np.s_[start - 1 : end])
    return Schedule(instance, allocations)


def schedule_online_even(instance: Instance) -> Schedule:
    """Spread each job's energy evenly over its own window."""
    allocations: dict[tuple[int, int], float] = {}
    for job in instance.jobs:
        share = job.energy / (job.allowance + 1)
        for slot in range(job.arrival, job.deadline + 1):
            allocations[(job.id, slot)] = share
    return Schedule(instance, allocations)
