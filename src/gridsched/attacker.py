"""Demand-alteration attack strategies.

An unlimited attacker compresses every job to a single slot, which turns
cost maximization into finding a clique partition of the induced interval
graph that maximizes the summed per-clique cost.  Because every maximal
clique of an interval graph is anchored at some window endpoint, an
interval dynamic program over endpoint pairs solves this exactly; a
single-pass EDF grouping gives an online alternative.

A budget-limited attacker alters at most floor(beta * n) jobs.  The
greedy strategy reuses the unlimited partition, picks whole cliques by
fractional knapsack and spends the leftover budget on the highest-energy
members of the next clique, unless spending the whole budget inside that
clique, whose members already pinned at its slot join for free, is worth
more; it reports the cost of the compressed components only, a certified
lower bound.  A second dynamic program estimates an upper bound by
optimizing the attack against a controller that serves demands
inelastically at their arrival slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    AttackPlan,
    CliqueBlock,
    CliquePartition,
    CostModel,
    Instance,
    apply_attack,
    evaluate_cost,
)
from .scheduler import schedule_optimal_offline

_BUDGET_EPS = 1e-9


def attack_budget(beta: float, n: int) -> int:
    """Alteration budget floor(beta * n), robust to float beta just below an integer."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    return int(math.floor(beta * n + _BUDGET_EPS))


@dataclass(frozen=True)
class KnapsackResult:
    """Greedy fractional-knapsack selection.

    ``order`` permutes the input items by non-increasing value/weight
    ratio (ties by larger value, then input position).  The first
    ``chosen_count`` items of that order fit the weight budget whole;
    ``fraction`` of the next item's weight would exhaust it exactly.
    ``chosen_value`` sums the whole items only.
    """

    chosen_count: int
    fraction: float
    chosen_value: float
    order: tuple[int, ...]


def fractional_knapsack(items: Sequence[tuple[float, float]], budget_fraction: float) -> KnapsackResult:
    """Greedy solution for a weight budget of ``budget_fraction`` times the total weight.

    Items are (value >= 0, weight > 0) pairs.  Comparisons against the
    budget carry a relative 1e-9 slack so that budgets meant to be whole
    numbers of unit-weight items are not lost to float rounding.
    """
    if not items:
        raise ValueError("fractional knapsack needs at least one item")
    if not 0.0 <= budget_fraction <= 1.0:
        raise ValueError(f"budget fraction must lie in [0, 1], got {budget_fraction!r}")
    for value, weight in items:
        if weight <= 0.0:
            raise ValueError(f"item weights must be positive, got {weight!r}")
        if value < 0.0:
            raise ValueError(f"item values must be non-negative, got {value!r}")

    order = sorted(
        range(len(items)),
        key=lambda idx: (-(items[idx][0] / items[idx][1]), -items[idx][0], idx),
    )
    total_weight = sum(weight for _, weight in items)
    budget = budget_fraction * total_weight
    slack = _BUDGET_EPS * max(1.0, abs(total_weight))

    chosen = 0
    used = 0.0
    value_sum = 0.0
    for idx in order:
        value, weight = items[idx]
        if used + weight <= budget + slack:
            used += weight
            value_sum += value
            chosen += 1
        else:
            break
    if chosen < len(items):
        next_weight = items[order[chosen]][1]
        fraction = min(1.0, max(0.0, (budget - used) / next_weight))
    else:
        fraction = 0.0
    return KnapsackResult(chosen, fraction, value_sum, tuple(order))


def _endpoint_index(instance: Instance):
    points = np.array(instance.endpoints(), dtype=np.int64)
    arrivals = np.array([j.arrival for j in instance.jobs], dtype=np.int64)
    deadlines = np.array([j.deadline for j in instance.jobs], dtype=np.int64)
    a_idx = np.searchsorted(points, arrivals)
    d_idx = np.searchsorted(points, deadlines)
    return points, a_idx, d_idx


def full_attack_dp(instance: Instance, cost: CostModel) -> tuple[AttackPlan, CliquePartition, float]:
    """Optimal unlimited attack: maximum-cost clique partition by interval DP.

    Solves, over endpoint pairs [k, l] in increasing width, the recursion
    that anchors a maximal clique at some endpoint z of [k, l] (the
    contained jobs covering z) and recurses on [k, z-1] and [z+1, l].
    Returns the full-compression plan, the achieving partition, and the
    maximum cost.  Ties prefer the smallest anchor slot.
    """
    if instance.n == 0:
        return AttackPlan.empty(), CliquePartition(()), 0.0

    points, a_idx, d_idx = _endpoint_index(instance)
    q = points.size
    energies = np.array([j.energy for j in instance.jobs], dtype=np.float64)

    weights = np.bincount(a_idx * q + d_idx, weights=energies, minlength=q * q).reshape(q, q)
    prefix = np.zeros((q + 1, q + 1))
    prefix[1:, 1:] = weights.cumsum(axis=0).cumsum(axis=1)

    table = np.zeros((q + 2, q + 2))
    anchor = np.zeros((q, q), dtype=np.int64)
    for width in range(q):
        i = np.arange(q - width, dtype=np.int64)
        j = i + width
        z = i[:, None] + np.arange(width + 1, dtype=np.int64)[None, :]
        jj = (j + 1)[:, None]
        ii = i[:, None]
        # clique energy: jobs with arrival index in [i, z] and deadline index in [z, j]
        clique = prefix[z + 1, jj] - prefix[ii, jj] - prefix[z + 1, z] + prefix[ii, z]
        left = table[ii + 1, z]
        right = table[z + 2, jj]
        combined = cost(clique) + left + right
        table[i + 1, j + 1] = combined.max(axis=1)
        anchor[i, j] = i + combined.argmax(axis=1)
    c_max = float(table[1, q])

    blocks: list[CliqueBlock] = []
    stack = [(0, q - 1)]
    while stack:
        i, j = stack.pop()
        if i > j:
            continue
        if prefix[q, j + 1] - prefix[i, j + 1] == 0.0:
            continue  # no contained jobs
        z = int(anchor[i, j])
        members = frozenset(
            job.id
            for job, ai, di in zip(instance.jobs, a_idx, d_idx)
            if i <= ai <= z <= di <= j
        )
        if members:
            blocks.append(CliqueBlock(int(points[z]), members))
        stack.append((i, z - 1))
        stack.append((z + 1, j))
    blocks.sort(key=lambda block: block.slot)
    partition = CliquePartition(tuple(blocks))
    return partition.to_plan(instance), partition, c_max


def online_edf_attack(instance: Instance, cost: CostModel) -> tuple[AttackPlan, CliquePartition, float]:
    """Single-pass attack grouping jobs into cliques by earliest deadline.

    Repeatedly take the earliest deadline among remaining jobs, gather
    every remaining job arriving by then into one block pinned at that
    deadline, and drop them.  Runs in O(n log n); the value never exceeds
    the optimal attack.
    """
    jobs = instance.jobs
    if not jobs:
        return AttackPlan.empty(), CliquePartition(()), 0.0
    suffix_min = [0] * len(jobs)
    running = jobs[-1].deadline
    for idx in range(len(jobs) - 1, -1, -1):
        running = min(running, jobs[idx].deadline)
        suffix_min[idx] = running

    blocks: list[CliqueBlock] = []
    value = 0.0
    idx = 0
    while idx < len(jobs):
        pin = suffix_min[idx]
        group = []
        while idx < len(jobs) and jobs[idx].arrival <= pin:
            group.append(jobs[idx])
            idx += 1
        blocks.append(CliqueBlock(pin, frozenset(j.id for j in group)))
        value += float(cost(sum(j.energy for j in group)))
    partition = CliquePartition(tuple(blocks))
    return partition.to_plan(instance), partition, value


def limited_greedy_from_partition(
    instance: Instance,
    partition: CliquePartition,
    beta: float,
    cost: CostModel,
) -> tuple[AttackPlan, float]:
    """Budgeted greedy attack given an already-computed optimal clique partition.

    Whole cliques are ranked by cost per member and compressed as long as
    the budget admits; the first clique that does not fit is the next
    clique.  Two selections are compared: (a) those whole cliques plus the
    highest-energy members of the next clique that the leftover budget
    pays for, and (b) the whole budget spent inside the next clique on its
    highest-energy members whose window changes, together with its members
    already pinned at the clique slot, which compressing does not alter.
    The better of the two is adopted (ties to (a)), and only the
    compressed components are counted, so the reported value is a lower
    bound on what the attack actually forces.
    """
    budget = attack_budget(beta, instance.n)
    blocks = partition.blocks
    if not blocks:
        return AttackPlan.empty(), 0.0

    block_energy = [partition.block_energy(instance, block) for block in blocks]
    block_size = [len(block.members) for block in blocks]
    clique_pick = fractional_knapsack(
        [(float(cost(energy)), float(size)) for energy, size in zip(block_energy, block_size)],
        min(1.0, budget / sum(block_size)),
    )
    whole_blocks = [blocks[idx] for idx in clique_pick.order[: clique_pick.chosen_count]]
    leftover = budget - sum(len(block.members) for block in whole_blocks)

    ranked: list[int] = []
    pinned: list[int] = []
    next_slot = 0
    if clique_pick.chosen_count < len(blocks):
        nxt = blocks[clique_pick.order[clique_pick.chosen_count]]
        next_slot = nxt.slot
        ranked = sorted(nxt.members, key=lambda jid: (-instance.job(jid).energy, jid))
        # members whose window already is [next_slot, next_slot]: compressing them alters nothing
        pinned = [
            jid for jid in ranked if instance.job(jid).arrival == instance.job(jid).deadline == next_slot
        ]
    top_up = ranked[:leftover]
    inside = pinned + [jid for jid in ranked if jid not in pinned][:budget]

    def members_cost(job_ids: list[int]) -> float:
        return float(cost(sum(instance.job(jid).energy for jid in job_ids)))

    value_whole = clique_pick.chosen_value + members_cost(top_up)
    value_inside = members_cost(inside)

    slots: dict[int, int] = {}
    if value_whole >= value_inside:
        for block in whole_blocks:
            for jid in block.members:
                slots[jid] = block.slot
        picked = top_up
    else:
        picked = inside
    for jid in picked:
        slots[jid] = next_slot
    plan = AttackPlan.from_compression(instance, slots)
    return plan, max(value_whole, value_inside)


def limited_greedy_attack(instance: Instance, beta: float, cost: CostModel) -> tuple[AttackPlan, float]:
    """Budgeted greedy attack: optimal partition first, then knapsack selection.

    With beta = 1 the whole partition is compressed and the value equals
    the optimal unlimited attack exactly.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    if instance.n == 0:
        return AttackPlan.empty(), 0.0
    _, partition, _ = full_attack_dp(instance, cost)
    return limited_greedy_from_partition(instance, partition, beta, cost)


def realized_attack_cost(instance: Instance, plan: AttackPlan, cost: CostModel) -> float:
    """Cost the optimal controller actually pays once the plan is applied.

    Always at least the conservative value reported for the same plan by
    the greedy attack, since uncompressed jobs only add load.
    """
    altered = apply_attack(instance, plan)
    return evaluate_cost(schedule_optimal_offline(altered, cost), cost)


def _maxplus_columns(left: np.ndarray, right: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Column-wise max-plus convolution of (C, rows) arrays, truncated to C entries.

    out[k, r] = max over s + t = k of left[s, r] + right[t, r], for k < C.
    Columns come sorted by non-increasing ``reach``; column r of ``left`` is
    constant from entry reach[r] on and column r of ``right`` is
    non-decreasing, so no shift s > reach[r] can win and each shift only
    visits the columns that still reach it.
    """
    width = left.shape[0]
    active = np.searchsorted(-reach, -np.arange(width), side="right")
    out = left[0] + right
    scratch = np.empty_like(out)
    for shift in range(1, min(width, int(reach[0]) + 1)):
        cut = active[shift]
        term = np.add(left[shift, :cut], right[: width - shift, :cut], out=scratch[: width - shift, :cut])
        np.maximum(out[shift:, :cut], term, out=out[shift:, :cut])
    return out


def _flat_prefix(terms: np.ndarray, listed: np.ndarray, span: int) -> np.ndarray:
    """Row-wise prefix sums 0, t0, t0 + t1, ... of the listed terms, held flat after them.

    ``listed`` marks a leading run of each row; the sums run left to right
    and fill ``span`` columns.
    """
    out = np.zeros((terms.shape[0], span))
    width = terms.shape[1]
    np.cumsum(np.where(listed, terms, 0.0), axis=1, out=out[:, 1 : width + 1])
    out[:, width + 1 :] = out[:, width : width + 1]
    return out


def limited_attack_curve(instance: Instance, cost: CostModel, max_budget: int) -> np.ndarray:
    """Upper-bound estimates for the budgeted attack, one entry per budget 0..max_budget.

    Assumes the controller serves every demand at its (possibly altered)
    arrival slot, and that at most one job arrives per slot (rejected
    otherwise).  An interval DP anchors a clique at an endpoint z of each
    considered interval: the job arriving exactly at z joins for free,
    each further member costs one budget unit, members are added in
    non-increasing energy order (ties by id), and members covering z but
    left out are charged as singletons at their own arrivals.  Remaining
    budget splits freely between the two sub-intervals.  Entry 0 equals
    the inelastic baseline cost.

    The DP runs width by width.  Each width is evaluated in a few array
    operations over every interval that contains a job and every kept
    anchor of it; an anchor is kept when it has clique members or is the
    first of a run of memberless anchors, which all split alike.  Budget
    vectors are non-decreasing and saturate once every contained job can
    be altered, so a width is solved only up to its largest contained job
    count, each interval's vector is held flat beyond its own count, and
    the max-plus convolutions over the budget stop shifting a vector once
    it has gone flat.  Sums are formed in the same order as a per-anchor
    evaluation would, so the result does not depend on the batching.
    """
    if max_budget < 0:
        raise ValueError("budget must be non-negative")
    arrivals = [j.arrival for j in instance.jobs]
    if len(set(arrivals)) != len(arrivals):
        raise ValueError("upper-bound recursion requires at most one arrival per slot")
    n = instance.n
    if n == 0:
        return np.zeros(max_budget + 1)

    budget = min(max_budget, n)
    points, a_idx, d_idx = _endpoint_index(instance)
    q = points.size
    energy = np.array([j.energy for j in instance.jobs], dtype=np.float64)
    job_ids = np.array([j.id for j in instance.jobs], dtype=np.int64)
    single_cost = np.asarray(cost(energy), dtype=np.float64)

    counts = np.bincount(a_idx * q + d_idx, minlength=q * q).reshape(q, q)
    cnt = np.zeros((q + 1, q + 1), dtype=np.int64)
    cnt[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1)

    # cover[z]: jobs covering endpoint z except the one arriving there, sorted by
    # energy desc (ties by id) and padded with the sentinel job n, which no interval contains
    by_energy = np.lexsort((job_ids, -energy))
    ends = np.arange(q)[:, None]
    covers = (a_idx[by_energy] <= ends) & (d_idx[by_energy] >= ends) & (a_idx[by_energy] != ends)
    width_k = max(1, int(covers.sum(axis=1).max()))
    packed = np.argsort(~covers, axis=1, kind="stable")[:, :width_k]
    cover = np.where(np.take_along_axis(covers, packed, axis=1), by_energy[packed], n)
    a_ext = np.append(a_idx, -1)
    d_ext = np.append(d_idx, q)
    energy_ext = np.append(energy, 0.0)
    single_ext = np.append(single_cost, 0.0)
    # energy of the job arriving at each endpoint; it joins its anchor's clique for free
    arrival_energy = np.zeros(q)
    arrival_energy[a_idx] = energy
    arrival_deadline = np.full(q, q, dtype=np.int64)
    arrival_deadline[a_idx] = d_idx

    # table[i + 1, j + 1] is the budget vector of [i, j], zero when [i, j]
    # contains no job.  Every vector is exactly non-decreasing and constant
    # beyond its own cap, and a gains column is constant beyond its member
    # count, which is what lets _maxplus_columns skip shifts.
    table = np.zeros((q + 2, q + 2, budget + 1))
    for width in range(q):
        i = np.arange(q - width, dtype=np.int64)
        j = i + width
        contained = cnt[q, j + 1] - cnt[i, j + 1]
        live = contained > 0
        if not live.any():
            continue
        i, j, contained = i[live], j[live], contained[live]
        caps = np.minimum(budget, contained)
        cols = int(caps.max()) + 1

        z = i[:, None] + np.arange(width + 1, dtype=np.int64)[None, :]
        ii, jj = i[:, None], (j + 1)[:, None]
        has_members = (cnt[z + 1, jj] - cnt[ii, jj] - cnt[z + 1, z] + cnt[ii, z]) > 0
        keep = has_members.copy()
        keep[:, 0] = True
        keep[:, 1:] |= has_members[:, :-1]
        cell, offset = np.nonzero(keep)
        ci, cj = i[cell], j[cell]
        cz = ci + offset

        # split: the best use of each budget on [i, z-1] and [z+1, j] together;
        # addition commutes exactly, so shift whichever side saturates first
        left_cap = np.minimum(budget, cnt[q, cz] - cnt[ci, cz])
        right_cap = np.minimum(budget, cnt[q, cj + 1] - cnt[cz + 1, cj + 1])
        swap = right_cap < left_cap
        reach = np.minimum(left_cap, right_cap)
        by_reach = np.argsort(-reach, kind="stable")
        lx, ly = np.where(swap, cz + 2, ci + 1)[by_reach], np.where(swap, cj + 1, cz)[by_reach]
        rx, ry = np.where(swap, ci + 1, cz + 2)[by_reach], np.where(swap, cz, cj + 1)[by_reach]
        split = _maxplus_columns(table[lx, ly, :cols].T, table[rx, ry, :cols].T.copy(), reach[by_reach])

        # gains: the clique anchored at z with its first m members, by member count
        anchored = arrival_deadline[cz] <= cj
        member_count = cnt[cz + 1, cj + 1] - cnt[ci, cj + 1] - cnt[cz + 1, cz] + cnt[ci, cz] - anchored
        by_count = np.argsort(-member_count, kind="stable")
        gi, gj, gz, count = ci[by_count], cj[by_count], cz[by_count], member_count[by_count]
        members = cover[gz]
        inside = (a_ext[members] >= gi[:, None]) & (d_ext[members] <= gj[:, None])
        # stable compaction keeps the energy order, so each cumsum adds the same terms in turn;
        # zeroing the non-members behind them holds every prefix flat from the member count on
        members = np.take_along_axis(members, np.argsort(~inside, axis=1, kind="stable"), axis=1)
        listed = np.arange(width_k) < count[:, None]
        span = max(width_k, cols - 1) + 1
        anchor_energy = np.where(anchored[by_count], arrival_energy[gz], 0.0)[:, None]
        picked = _flat_prefix(energy_ext[members], listed, span)[:, :cols] + anchor_energy
        gains = np.asarray(cost(picked), dtype=np.float64)
        # members covering z but left out are charged as singletons
        picked = _flat_prefix(single_ext[members], listed, span)
        gains += picked[:, -1:] - picked[:, :cols]
        del picked

        split = split[:, np.argsort(by_reach)[by_count]]
        value = _maxplus_columns(gains.T, split, count)
        del gains, split  # keeps the peak at a few (budget, rows) arrays
        # back to rows grouped by interval, then the best anchor of each
        best = np.maximum.reduceat(value[:, np.argsort(by_count)], np.flatnonzero(offset == 0), axis=1)
        saturate = np.minimum(np.arange(budget + 1)[:, None], caps)
        table[i + 1, j + 1] = np.take_along_axis(best, saturate, axis=0).T

    curve = table[1, q].copy()
    if max_budget > budget:
        curve = np.concatenate([curve, np.full(max_budget - budget, curve[-1])])
    return curve


def limited_attack_dp(instance: Instance, beta: float, cost: CostModel) -> float:
    """Upper-bound estimate for the budgeted attack at fraction beta.

    See limited_attack_curve for the recursion; this evaluates it at
    budget floor(beta * n).  At beta = 0 the value is the inelastic
    baseline cost.
    """
    budget = attack_budget(beta, instance.n)
    if instance.n == 0:
        return 0.0
    return float(limited_attack_curve(instance, cost, budget)[budget])
