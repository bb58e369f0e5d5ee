"""Demand-alteration attack strategies.

An unlimited attacker compresses every job to a single slot, which turns
cost maximization into finding a clique partition of the induced interval
graph that maximizes the summed per-clique cost.  Because every maximal
clique of an interval graph is anchored at some window endpoint, an
interval dynamic program over endpoint pairs solves this exactly; a
single-pass EDF grouping gives an online alternative.

A budget-limited attacker alters at most floor(beta * n) jobs.  The
greedy strategy (``limited_greedy_from_partition``) reuses the unlimited
partition of ``full_attack_dp``, picks whole cliques by cost per member
and spends the leftover budget on the highest-energy members of the next
clique, unless spending the whole budget inside that clique is worth
more; members already pinned at their clique's slot, and cliques pinned
whole, join for free.  It reports the cost of the compressed components
only, a lower bound up to rounding.  A second dynamic program
(``limited_attack_curve``) estimates an upper bound for every budget at
once by optimizing the attack against a controller that serves demands
inelastically at their arrival slots.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (
    AttackPlan,
    CliqueBlock,
    CliquePartition,
    CostModel,
    Instance,
    _job_arrays,
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


def _endpoint_index(arrivals: np.ndarray, deadlines: np.ndarray):
    """Sorted endpoint slots and each job's arrival and deadline position among them."""
    points = np.unique(np.concatenate((arrivals, deadlines)))
    return points, np.searchsorted(points, arrivals), np.searchsorted(points, deadlines)


def full_attack_dp(instance: Instance, cost: CostModel) -> tuple[AttackPlan, CliquePartition, float]:
    """Optimal unlimited attack: maximum-cost clique partition by interval DP.

    Solves, over endpoint pairs [k, l] in increasing width, the recursion
    that anchors a maximal clique at some endpoint z of [k, l] (the
    contained jobs covering z) and recurses on [k, z-1] and [z+1, l].
    Returns the full-compression plan, the achieving partition, and the
    maximum cost.  Ties prefer the smallest anchor slot.

    Clique energies come from 2-D prefix sums by inclusion-exclusion.  For
    a fixed width w every operand is affine in the interval start i and
    the anchor offset k (z = i + k, j = i + w), so each is stored once in
    a skewed table, indexed by start or by end, and a whole width is
    evaluated on basic slices of those tables, in the same operation order
    and with the same first-maximum tie rule as an anchor-by-anchor loop.
    Each width is evaluated in place in one scratch buffer, allocated once
    and sized for the largest width's (q - w) x (w + 1) block, about q^2/4
    cells; ``np.power`` into that buffer equals ``cost`` bit for bit.
    The rounding residue of the inclusion-exclusion can leave a clique that
    contains no job a slightly negative energy, whose cost a non-integer
    exponent makes NaN; such a cost counts as zero.  That scan runs only at
    non-integer exponents: integer exponents make no NaN and keep the
    residue's own cost, so their results stay bit for bit those of the
    plain evaluation.
    """
    if instance.n == 0:
        return AttackPlan.empty(), CliquePartition(()), 0.0

    job_ids, arrivals, deadlines, energies = _job_arrays(instance)
    points, a_idx, d_idx = _endpoint_index(arrivals, deadlines)
    q = points.size

    weights = np.bincount(a_idx * q + d_idx, weights=energies, minlength=q * q).reshape(q, q)
    prefix = np.zeros((q + 1, q + 1))
    prefix[1:, 1:] = weights.cumsum(axis=0).cumsum(axis=1)
    del weights  # the loop below holds six q-by-q tables; a seventh would only raise the peak

    # skewed copies of prefix, so that every operand of a width is a basic slice:
    # by_start[i, m] = prefix[i, i+m], by_end[j, q-m] = prefix[j+1-m, j+1] and
    # diag[i, m] = prefix[i+m+1, i+m]; entries past the table edge are never read
    by_start = np.zeros((q, q + 1))
    by_end = np.zeros((q, q + 1))
    for row in range(q):
        by_start[row, : q + 1 - row] = prefix[row, row:]
        by_end[row, q - row - 1 :] = prefix[: row + 2, row + 1]
    diag = sliding_window_view(np.append(np.diagonal(prefix, -1), np.zeros(q)), q + 1)

    # lefts[i, k]: value of [i, i+k-1]; rights[j, q-m]: value of [j-m+1, j]
    lefts = np.zeros((q, q + 1))
    rights = np.zeros((q, q + 1))
    offset = np.zeros((q, q), dtype=np.int64)  # offset[i, j]: best anchor of [i, j] minus i
    diagonals = offset.ravel()  # diagonals[w :: q+1] runs along the intervals of width w
    # every width is evaluated in place in one buffer, sized for the largest (q - w) x (w + 1)
    scratch = np.empty(max((q - w) * (w + 1) for w in range(q)))
    rows = np.arange(q)
    integer_exponent = cost.exponent.is_integer()
    with np.errstate(invalid="ignore"):
        for width in range(q):
            count = q - width
            # clique energy: jobs with arrival index in [i, z] and deadline index in [z, j]
            clique = scratch[: count * (width + 1)].reshape(count, width + 1)
            np.subtract(by_end[width:, q - width :], by_start[:count, width + 1 : width + 2], out=clique)
            clique -= diag[:count, : width + 1]
            clique += by_start[:count, : width + 1]
            np.power(clique, cost.exponent, out=clique)
            if not integer_exponent:
                # a clique with no job may carry a rounding residue just below zero, which a
                # non-integer exponent (and only such) turns into NaN; such a clique costs nothing
                np.copyto(clique, 0.0, where=np.isnan(clique))
            clique += lefts[:count, : width + 1]
            clique += rights[width:, q - width :]
            best = clique.argmax(axis=1)
            diagonals[width :: q + 1][:count] = best
            value = clique[rows[:count], best]
            lefts[:count, width + 1] = value
            rights[width:, q - width - 1] = value
    c_max = float(lefts[0, q])

    blocks: list[CliqueBlock] = []
    stack = [(0, q - 1)]
    while stack:
        i, j = stack.pop()
        if i > j:
            continue
        if prefix[q, j + 1] - prefix[i, j + 1] == 0.0:
            continue  # no contained jobs
        z = i + int(offset[i, j])
        members = job_ids[(a_idx >= i) & (a_idx <= z) & (d_idx >= z) & (d_idx <= j)]
        if members.size:
            blocks.append(CliqueBlock(int(points[z]), frozenset(members.tolist())))
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

    Whole cliques are ranked by cost per member (ties by larger cost, then
    position in the partition) and compressed while their members fit the
    budget; the first clique that does not fit is the next clique.  Two
    selections are compared: (a) those whole cliques plus the
    highest-energy members of the next clique that the leftover budget
    pays for, and (b) the whole budget spent inside the next clique on its
    highest-energy members.  A member already pinned at its clique's slot
    (window [slot, slot]) is not altered by compressing it, so it uses no
    budget: the leftover of (a) counts only the altered members of the
    whole cliques, and both (a) and (b) take every pinned member of the
    next clique.  In either selection, the pinned members of every clique
    it leaves uncompressed join at their slot too, for free.  The better
    of the two is adopted (ties to (a)).  Only the compressed components
    are counted.

    In exact arithmetic the value is then a lower bound on what the attack
    forces (``realized_attack_cost``), and at beta = 1, where every clique
    fits, it is the partition's cost, which ``full_attack_dp`` reports.
    The three paths add the same energies and costs in different orders,
    so in floating point either relation can miss by a few ulps.  On 300
    generator draws (n = 5-59, b in {1, 1.5, 2, 3}) the beta = 1 value
    differed from c_max on 1,059 of 1,200 results, by at most 3.1e-15
    relative, and exceeded the realized cost on 324 of the 900 with
    b > 1, by at most 8.7e-16 relative; at beta = 0.5 it never did.
    Clique values are added left to right, in ranking order.
    """
    budget = attack_budget(beta, instance.n)
    blocks = partition.blocks

    def value(job_ids) -> float:
        return float(cost(sum(instance.job(jid).energy for jid in job_ids)))

    def added(terms) -> float:
        # left to right; the built-in sum compensates from Python 3.12 on
        return reduce(add, terms, 0.0)

    values = [value(block.members) for block in blocks]
    order = sorted(
        range(len(blocks)), key=lambda idx: (-(values[idx] / len(blocks[idx].members)), -values[idx], idx)
    )
    ranked = [blocks[idx] for idx in order]
    # per ranked clique: its members pinned at its slot, and those that compressing alters
    pinned, altered = [], []
    for block in ranked:
        jobs = [instance.job(jid) for jid in block.members]
        pinned.append([j.id for j in jobs if j.arrival == j.deadline == block.slot])
        altered.append([j.id for j in jobs if not j.arrival == j.deadline == block.slot])
    # the whole cliques are the longest prefix of the ranking whose members fit the budget
    count = bisect_right(list(accumulate(len(block.members) for block in ranked)), budget)
    whole, beyond = range(count), range(count + 1, len(ranked))
    next_slot, next_pinned, next_altered = None, [], []
    if count < len(ranked):
        next_slot, next_pinned, next_altered = ranked[count].slot, pinned[count], altered[count]
    for members in (next_pinned, next_altered):
        members.sort(key=lambda jid: (-instance.job(jid).energy, jid))

    leftover = budget - sum(len(altered[k]) for k in whole)
    top_up = next_pinned + next_altered[:leftover]
    inside = next_pinned + next_altered[:budget]
    value_whole = added(values[order[k]] for k in whole) + value(top_up)
    value_inside = value(inside) + added(value(pinned[k]) for k in whole)
    slots = {jid: ranked[k].slot for k in (*whole, *beyond) for jid in pinned[k]}
    if value_whole >= value_inside:
        slots.update((jid, ranked[k].slot) for k in whole for jid in altered[k])
        picked = top_up
    else:
        picked = inside
    slots.update(dict.fromkeys(picked, next_slot))
    beyond_pinned = added(value(pinned[k]) for k in beyond)
    return AttackPlan.from_compression(instance, slots), max(value_whole, value_inside) + beyond_pinned


def realized_attack_cost(instance: Instance, plan: AttackPlan, cost: CostModel) -> float:
    """Cost the optimal controller actually pays once the plan is applied.

    In exact arithmetic at least the conservative value reported for the
    same plan by the greedy attack, since uncompressed jobs only add load;
    the two sum in different orders, so that value can exceed this one by
    a few ulps.
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
    job_ids, arrivals, deadlines, energy = _job_arrays(instance)
    if np.unique(arrivals).size != arrivals.size:
        raise ValueError("upper-bound recursion requires at most one arrival per slot")
    n = instance.n
    if n == 0:
        return np.zeros(max_budget + 1)

    budget = min(max_budget, n)
    points, a_idx, d_idx = _endpoint_index(arrivals, deadlines)
    q = points.size
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
