"""Exact small-scale reference solvers and a schedule optimality certifier.

These are deliberately dumb: the attack maximum is found by enumerating
every joint slot assignment, the budgeted attack by enumerating every
altered subset and compression (one peel of the optimal controller per
enumerated instance, for every budget at once), and schedule optimality
is certified via residual transfer paths.  Everything is guarded to desk
scale and used to validate the polynomial algorithms elsewhere in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .model import CostModel, Instance, Schedule, _job_arrays
from .scheduler import _min_cost_arrays

ENUMERATION_GUARD = 10_000_000
"""Maximum number of joint assignments an oracle call may enumerate."""

_CHUNK = 1 << 16


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
    stacked per-slot cost.  Guarded: the product of window sizes must not
    exceed ENUMERATION_GUARD.
    """
    if instance.n == 0:
        return 0.0
    jobs = instance.jobs
    sizes = [j.allowance + 1 for j in jobs]
    total = _guarded_product(sizes)

    slots = sorted({t for j in jobs for t in range(j.arrival, j.deadline + 1)})
    dense = {slot: idx for idx, slot in enumerate(slots)}
    col_maps = [np.array([dense[j.arrival + off] for off in range(sz)]) for j, sz in zip(jobs, sizes)]
    strides = np.ones(len(jobs), dtype=np.int64)
    for idx in range(len(jobs) - 2, -1, -1):
        strides[idx] = strides[idx + 1] * sizes[idx + 1]
    energies = [j.energy for j in jobs]

    best = 0.0
    for lo in range(0, total, _CHUNK):
        rows = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        loads = np.zeros((rows.size, len(slots)))
        local = np.arange(rows.size)
        for j_idx in range(len(jobs)):
            digits = (rows // strides[j_idx]) % sizes[j_idx]
            loads[local, col_maps[j_idx][digits]] += energies[j_idx]
        chunk_best = float(cost(loads).sum(axis=1).max())
        best = max(best, chunk_best)
    return best


def exact_limited_attack_curve(instance: Instance, cost: CostModel, max_budget: int | None = None) -> list[float]:
    """Exact best attack value per alteration budget 0..max_budget.

    Entry m is the maximum, over altered sets of size <= m and all
    compressions of those jobs, of the optimal controller's cost on the
    altered instance.  Entry 0 is the unattacked optimum.  Guarded via
    the subset-times-compression count.
    """
    n = instance.n
    cap = n if max_budget is None else min(max_budget, n)
    if n == 0:
        return [0.0] * (cap + 1)
    _guarded_product([j.allowance + 2 for j in instance.jobs])

    _, base_a, base_d, base_e = _job_arrays(instance)
    best = [_min_cost_arrays(base_a, base_d, base_e, cost)]
    work_a = base_a.copy()
    work_d = base_d.copy()
    for size in range(1, cap + 1):
        top = best[size - 1]
        for chosen in combinations(range(n), size):
            chosen = list(chosen)
            windows = [range(base_a[j], base_d[j] + 1) for j in chosen]
            for slots in product(*windows):
                work_a[:] = base_a
                work_d[:] = base_d
                work_a[chosen] = slots
                work_d[chosen] = slots
                value = _min_cost_arrays(work_a, work_d, base_e, cost)
                if value > top:
                    top = value
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
    horizon = instance.horizon
    loads = [0.0] * (horizon + 1)
    movers: dict[int, list[int]] = {}
    for (jid, slot), amount in schedule.allocations.items():
        loads[slot] += amount
        if amount > tol:
            movers.setdefault(slot, []).append(jid)
    for jobs_here in movers.values():
        jobs_here.sort()
    gap_tol = tol * max(1.0, max(loads))

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
                        if loads[source] - loads[there] > gap_tol:
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
