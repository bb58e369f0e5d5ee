"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import math
import signal
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter

import numpy as np
import pytest

from gridsched.attacker import full_attack_dp, limited_greedy_from_partition
from gridsched.model import (
    ENERGY_TOL,
    AttackPlan,
    CliquePartition,
    CostModel,
    Instance,
    Job,
    Schedule,
    _added,
    _job_arrays,
)
from gridsched.oracle import MinOptimalityResult
from gridsched.scheduler import _excise


def random_instance(
    rng: np.random.Generator,
    max_jobs: int = 7,
    min_jobs: int = 1,
    max_gap: int = 3,
    max_window: int = 5,
    min_window: int = 1,
    energy_low: float = 1.0,
    energy_high: float = 5.0,
) -> Instance:
    """Jobs with strictly increasing arrivals (one arrival per slot) and bounded windows."""
    n = int(rng.integers(min_jobs, max_jobs + 1))
    jobs = []
    arrival = 1
    for idx in range(n):
        if idx:
            arrival += int(rng.integers(1, max_gap + 1))
        width = int(rng.integers(min_window, max_window + 1))
        energy = float(rng.uniform(energy_low, energy_high))
        jobs.append(Job(idx, arrival, arrival + width - 1, energy))
    return Instance(jobs)


def random_instance_in_horizon(
    rng: np.random.Generator,
    max_jobs: int,
    horizon: int,
    max_window: int = 5,
    energy_low: float = 1.0,
    energy_high: float = 5.0,
) -> Instance:
    """Jobs packed inside [1, horizon]; arrivals may collide."""
    n = int(rng.integers(1, max_jobs + 1))
    jobs = []
    for idx in range(n):
        arrival = int(rng.integers(1, horizon + 1))
        deadline = int(rng.integers(arrival, min(arrival + max_window - 1, horizon) + 1))
        energy = float(rng.uniform(energy_low, energy_high))
        jobs.append(Job(idx, arrival, deadline, energy))
    return Instance(jobs)


@contextmanager
def within_seconds(seconds: float):
    """Fail the test once the block has run ``seconds`` of wall time, instead of letting it run on.

    Needs POSIX timers, so call it from the main thread.
    """

    def expire(signum, frame):
        pytest.fail(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def intensity(instance: Instance, start: int, end: int) -> float:
    """Energy intensity of [start, end]: contained energy divided by slot count, by a plain sum."""
    total = sum(j.energy for j in instance.jobs if j.arrival >= start and j.deadline <= end)
    return total / (end - start + 1)


def reference_critical_arrays(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """The first critical interval on q x q tables, one row and one column per endpoint.

    Returns (start, end, intensity, member_mask): the row-major first
    maximum of the intensity, ties to the smallest start, then end, as
    ``scheduler._critical_rows`` finds it for one row.
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
    flat = int(intensity.argmax())
    i, j = divmod(flat, q)
    start = int(points[i])
    end = int(points[j])
    mask = (arrivals >= start) & (deadlines <= end)
    return start, end, float(intensity[i, j]), mask


def reference_peel(arrivals: np.ndarray, deadlines: np.ndarray, energies: np.ndarray):
    """The peel with every round rebuilt from scratch on endpoint tables; yields as _peel does."""
    index = np.arange(arrivals.size)
    while index.size:
        start, end, level, mask = reference_critical_arrays(arrivals, deadlines, energies)
        yield start, end, level, index[mask], arrivals[mask], deadlines[mask]
        keep = ~mask
        if not keep.any():
            return
        arrivals, deadlines = _excise(np.array((arrivals[keep], deadlines[keep])), start, end)
        energies = energies[keep]
        index = index[keep]


def component_points(instance: Instance) -> list[int]:
    """Endpoint count of each run of jobs between slots that no window covers, left to right."""
    counts, points, reach = [], set(), None
    for job in sorted(instance.jobs, key=lambda j: j.arrival):
        if reach is not None and job.arrival > reach + 1:
            counts.append(len(points))
            points = set()
        points |= {job.arrival, job.deadline}
        reach = job.deadline if reach is None else max(reach, job.deadline)
    return counts + [len(points)] if points else counts


def spread_out(instance: Instance, offset: int, gap: int) -> Instance:
    """The instance moved right by ``offset`` slots, with ``gap`` more uncovered slots after each one."""
    covered = {t for j in instance.jobs for t in range(j.arrival, j.deadline + 1)}
    before = np.cumsum([gap * (t not in covered) for t in range(max(covered) + 1)]).tolist()
    return Instance(
        Job(j.id, j.arrival + offset + before[j.arrival], j.deadline + offset + before[j.arrival], j.energy)
        for j in instance.jobs
    )


def reference_exact_limited_attack_curve(instance: Instance, cost: CostModel, max_budget: int | None = None) -> list[float]:
    """The budgeted oracle one enumerated altered instance at a time, each peeled by reference_peel."""
    n = instance.n
    cap = n if max_budget is None else min(max_budget, n)
    if n == 0:
        return [0.0] * (cap + 1)
    _, base_a, base_d, base_e = _job_arrays(instance)

    def peel_cost(arrivals, deadlines):
        total = 0.0
        for start, end, level, *_ in reference_peel(arrivals, deadlines, base_e):
            total += (end - start + 1) * cost(level)
        return float(total)

    best = [peel_cost(base_a, base_d)]
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
                value = peel_cost(work_a, work_d)
                if value > top:
                    top = value
        best.append(top)
    return best


def reference_schedule(instance: Instance, allocations) -> dict[tuple[int, int], float]:
    """Schedule's checks entry by entry in insertion order; returns the kept allocations or raises.

    The first failing check of the first offending entry raises: a
    non-finite amount, then (zero amounts being dropped) a negative one, an
    unknown job id, a slot that is not a Python int inside the window.
    Then the first job in instance order whose total misses its energy.
    """
    cleaned: dict[tuple[int, int], float] = {}
    totals: dict[int, float] = {j.id: 0.0 for j in instance.jobs}
    for (job_id, slot), raw in allocations.items():
        amount = float(raw)
        if not math.isfinite(amount):
            raise ValueError(f"non-finite allocation {amount!r} for job {job_id} at slot {slot}")
        if amount == 0.0:
            continue
        if amount < 0.0:
            raise ValueError(f"negative allocation {amount!r} for job {job_id} at slot {slot}")
        try:
            job = instance.job(job_id)
        except KeyError:
            raise ValueError(f"unknown job id {job_id}") from None
        if not isinstance(slot, int) or not job.arrival <= slot <= job.deadline:
            raise ValueError(f"job {job_id}: slot {slot} outside window [{job.arrival}, {job.deadline}]")
        cleaned[(job_id, slot)] = amount
        totals[job_id] += amount
    for job in instance.jobs:
        if not abs(totals[job.id] - job.energy) <= ENERGY_TOL * job.energy:
            raise ValueError(f"job {job.id}: allocated {totals[job.id]!r} does not conserve energy {job.energy!r}")
    return cleaned


def baseline_schedule(instance: Instance) -> Schedule:
    """The inelastic schedule: every job served entirely at its arrival slot."""
    return Schedule(instance, {(j.id, j.arrival): j.energy for j in instance.jobs})


def reference_online_even(instance: Instance) -> dict[tuple[int, int], float]:
    """The even spread's allocations, inserted job by job and slot by slot."""
    allocations = {}
    for job in instance.jobs:
        share = job.energy / (job.allowance + 1)
        for slot in range(job.arrival, job.deadline + 1):
            allocations[(job.id, slot)] = share
    return allocations


def reference_slot_loads(allocations: dict[tuple[int, int], float]) -> dict[int, float]:
    """Loads accumulated per slot in insertion order, ascending by slot.

    The loop ``Schedule.slot_loads`` and the certifier's load map ran before
    both read ``model._slot_loads``.
    """
    loads: dict[int, float] = {}
    for (_, slot), amount in allocations.items():
        loads[slot] = loads.get(slot, 0.0) + amount
    return dict(sorted(loads.items()))


def reference_entry_arrays(allocations: dict[tuple[int, int], float]) -> tuple[np.ndarray, np.ndarray]:
    """The slots and amounts of the allocations in insertion order: ``evaluate_cost``'s conversion of the dict."""
    slots = np.fromiter(map(itemgetter(1), allocations), np.int64, len(allocations))
    return slots, np.fromiter(allocations.values(), np.float64, len(allocations))


def reference_cost(allocations: dict[tuple[int, int], float], cost: CostModel) -> float:
    """Loads accumulated per slot in insertion order, then scalar cost(load) summed over ascending slots."""
    total = 0.0
    for load in reference_slot_loads(allocations).values():
        total += cost(load)  # left to right; the built-in sum compensates from Python 3.12 on
    return total


def reference_check_min_optimality(
    instance: Instance, schedule: Schedule, cost: CostModel, tol: float = 1e-7
) -> MinOptimalityResult:
    """The certifier's search visiting every slot of each mover's window, occupied or not.

    ``check_min_optimality`` ran this walk before it visited only the
    occupied slots; it costs each window's width.
    """
    if cost.exponent == 1.0:
        return MinOptimalityResult(True)
    loads = schedule.slot_loads()
    movers: dict[int, list[int]] = {}  # each slot's movers by ascending id
    gap_tol = tol * max(loads.values(), default=0.0)
    for (jid, slot), amount in sorted(schedule.allocations.items()):
        if amount > gap_tol:
            movers.setdefault(slot, []).append(jid)

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


def reference_online_edf_attack(instance: Instance, cost: CostModel) -> tuple[AttackPlan, CliquePartition, float]:
    """``online_edf_attack`` as two loops over the Job objects: suffix minima of the deadlines, then the blocks.

    Each block's load adds its energies in id order, as ``online_edf_attack``
    prices them.  The partition maps the jobs in instance order, the k-th
    block's members to label k and its pin.
    """
    jobs = instance.jobs
    if not jobs:
        return AttackPlan({}), CliquePartition({}), 0.0
    suffix_min = [0] * len(jobs)
    running = jobs[-1].deadline
    for idx in range(len(jobs) - 1, -1, -1):
        running = min(running, jobs[idx].deadline)
        suffix_min[idx] = running

    cliques: dict[int, tuple[int, int]] = {}
    value = 0.0
    idx = label = 0
    while idx < len(jobs):
        pin = suffix_min[idx]
        group = []
        while idx < len(jobs) and jobs[idx].arrival <= pin:
            group.append(jobs[idx])
            cliques[jobs[idx].id] = (label, pin)
            idx += 1
        label += 1
        value += float(cost(_added(j.energy for j in sorted(group, key=lambda j: j.id))))
    partition = CliquePartition(cliques)
    return partition.to_plan(instance), partition, value


def partition_blocks(partition: CliquePartition) -> list[tuple[int, frozenset[int]]]:
    """The partition's cliques as (slot, members) pairs in label order; a clique's slot is its first member's."""
    blocks: dict[int, tuple[int, set[int]]] = {}
    for jid, (label, slot) in partition.cliques.items():
        blocks.setdefault(label, (slot, set()))[1].add(jid)
    return [(slot, frozenset(members)) for _, (slot, members) in sorted(blocks.items())]


def partition_from_blocks(blocks) -> CliquePartition:
    """The partition whose clique k is the k-th (slot, members) pair, its members mapped in ascending id order."""
    return CliquePartition({jid: (k, slot) for k, (slot, members) in enumerate(blocks) for jid in sorted(members)})


def limited_greedy(instance: Instance, beta: float, cost: CostModel) -> tuple[AttackPlan, float]:
    """The budgeted greedy attack on the optimal partition, as the CLI's attack-limited runs it."""
    _, partition, _ = full_attack_dp(instance, cost)
    return limited_greedy_from_partition(instance, partition, beta, cost)


def reference_limited_attack_curve(instance: Instance, cost, max_budget: int) -> np.ndarray:
    """Interval-by-interval, anchor-by-anchor evaluation of limited_attack_curve's recursion.

    Forms every sum in the same order as the library, so the two agree exactly.
    """
    n = instance.n
    if n == 0:
        return np.zeros(max_budget + 1)
    budget = min(max_budget, n)
    points = sorted(instance.endpoints())
    q = len(points)
    a_idx = [points.index(j.arrival) for j in instance.jobs]
    d_idx = [points.index(j.deadline) for j in instance.jobs]
    energy = np.array([j.energy for j in instance.jobs], dtype=np.float64)
    single = np.asarray(cost(energy), dtype=np.float64)
    by_energy = sorted(range(n), key=lambda k: (-instance.jobs[k].energy, instance.jobs[k].id))

    def convolve(left, right, cols):
        return np.array([max(left[s] + right[k - s] for s in range(k + 1)) for k in range(cols)])

    table = np.zeros((q + 2, q + 2, budget + 1))
    for width in range(q):
        for i in range(q - width):
            j = i + width
            contained = [k for k in range(n) if a_idx[k] >= i and d_idx[k] <= j]
            if not contained:
                continue
            cols = min(budget, len(contained)) + 1
            best = np.full(cols, -np.inf)
            for z in range(i, j + 1):
                clique = [k for k in contained if a_idx[k] <= z <= d_idx[k]]
                anchor = [k for k in clique if a_idx[k] == z]
                members = [k for k in by_energy if k in clique and k not in anchor]
                anchor_energy = float(energy[anchor[0]]) if anchor else 0.0
                picked_energy = np.concatenate(([0.0], np.cumsum(energy[members])))
                picked_single = np.concatenate(([0.0], np.cumsum(single[members])))
                values = np.asarray(cost(anchor_energy + picked_energy), dtype=np.float64)
                values += picked_single[-1] - picked_single
                gains = values[np.minimum(np.arange(cols), len(members))] if clique else np.zeros(cols)
                split = convolve(table[i + 1, z], table[z + 2, j + 1], cols)
                best = np.maximum(best, convolve(gains, split, cols))
            table[i + 1, j + 1, :cols] = best
            table[i + 1, j + 1, cols:] = best[-1]
    curve = table[1, q]
    return np.concatenate([curve, np.full(max_budget - budget, curve[-1])])


def reference_full_attack_dp(instance: Instance, cost) -> tuple[float, list[tuple[int, frozenset[int]]]]:
    """Cell-by-cell, anchor-by-anchor evaluation of full_attack_dp's recursion.

    One row per arrival point and one column per deadline point, with the
    same 2-D prefix sums.  Every sum is formed in the same order and the
    first best anchor wins ties, so the two agree exactly.  Returns the
    value and the partition as (slot, members) pairs sorted by slot, each
    block at its latest member arrival.
    """
    if instance.n == 0:
        return 0.0, []
    starts = sorted({job.arrival for job in instance.jobs})
    ends = sorted({job.deadline for job in instance.jobs})
    rows, cols = len(starts), len(ends)
    row = [starts.index(job.arrival) for job in instance.jobs]
    col = [ends.index(job.deadline) for job in instance.jobs]
    weights = [[0.0] * cols for _ in range(rows)]
    for job, r, c in zip(instance.jobs, row, col):
        weights[r][c] += job.energy
    column = [[0.0] * cols for _ in range(rows)]  # cumulative sums down each column
    prefix = [[0.0] * (cols + 1) for _ in range(rows + 1)]
    for r in range(rows):
        for c in range(cols):
            column[r][c] = weights[r][c] if r == 0 else column[r - 1][c] + weights[r][c]
            prefix[r + 1][c + 1] = column[r][c] if c == 0 else prefix[r + 1][c] + column[r][c]
    after = [bisect_right(starts, end) for end in ends]  # arrival points at or before each deadline point

    value: dict[tuple[int, int], float] = {}  # cells that hold an interval; any other part is worth 0
    anchor: dict[tuple[int, int], int] = {}
    for diagonal in range(1 - rows, cols):
        for r in range(rows):
            c = r + diagonal
            if not 0 <= c < cols or ends[c] < starts[r]:
                continue
            ks = [k for k in range(c + 1) if ends[k] >= starts[r]]
            cliques = [
                prefix[after[k]][c + 1] - prefix[r][c + 1] - prefix[after[k]][k] + prefix[r][k] for k in ks
            ]
            with np.errstate(invalid="ignore"):
                costs = np.asarray(cost(np.array(cliques)), dtype=np.float64)
            best, best_k = -np.inf, None
            for k, clique_cost in zip(ks, costs.tolist()):
                clique_cost = 0.0 if np.isnan(clique_cost) else clique_cost
                total = clique_cost + value.get((r, k - 1), 0.0) + value.get((after[k], c), 0.0)
                if total > best:
                    best, best_k = total, k
            value[(r, c)] = best
            anchor[(r, c)] = best_k

    blocks = []
    stack = [(0, cols - 1)]
    while stack:
        r, c = stack.pop()
        if not any(r <= a and d <= c for a, d in zip(row, col)):
            continue
        k = anchor[(r, c)]
        members = [job for job, a, d in zip(instance.jobs, row, col) if r <= a < after[k] and k <= d <= c]
        if members:
            blocks.append((max(job.arrival for job in members), frozenset(job.id for job in members)))
        stack.append((r, k - 1))
        stack.append((after[k], c))
    return value[(0, cols - 1)], sorted(blocks, key=lambda block: block[0])


def exact_max_cost(instance: Instance, exponent: int) -> Fraction:
    """The maximum clique-partition cost in exact rational arithmetic.

    An interval recursion over all endpoint pairs [i, j] and every endpoint
    anchor z in it: the jobs of [i, j] covering z form one clique, and the
    jobs before and after z recurse.  The energies convert to ``Fraction``
    exactly and the exponent is an integer, so the value is the true
    optimum of the inputs as given.
    """
    points = sorted(instance.endpoints())
    jobs = [(points.index(job.arrival), points.index(job.deadline), Fraction(job.energy)) for job in instance.jobs]
    best: dict[tuple[int, int], Fraction] = {}

    def solve(i: int, j: int) -> Fraction:
        if i > j:
            return Fraction(0)
        if (i, j) not in best:
            inside = [job for job in jobs if i <= job[0] and job[1] <= j]
            best[(i, j)] = max(
                sum(energy for a, d, energy in inside if a <= z <= d) ** exponent + solve(i, z - 1) + solve(z + 1, j)
                for z in range(i, j + 1)
            )
        return best[(i, j)]

    return solve(0, len(points) - 1)


def exact_partition_cost(instance: Instance, blocks, exponent: int) -> Fraction:
    """The cost of a partition's (slot, members) blocks in exact rational arithmetic."""
    return sum(
        (sum(Fraction(instance.job(jid).energy) for jid in members) ** exponent for _, members in blocks), Fraction(0)
    )
