"""Demand-alteration attack strategies.

An unlimited attacker compresses every job to a single slot, which turns
cost maximization into finding a clique partition of the induced interval
graph that maximizes the summed per-clique cost.  Some optimum holds all
the jobs covering some deadline point as one clique, so an interval DP
over arrival-to-deadline intervals anchored at deadline points solves
this exactly; a single-pass EDF grouping gives an online alternative.

The DP, the online attack and the greedy all report ``model._plan_cost``
of their plan's compressed jobs, what the optimal controller pays on
their slots; the DP's table only chooses the partition.

A budget-limited attacker alters at most floor(beta * n) jobs.  The
greedy strategy (``limited_greedy_from_partition``) reuses the unlimited
partition of ``full_attack_dp``, picks whole cliques by cost per member
and spends the leftover budget on the highest-energy members of the next
clique, unless spending the whole budget inside that clique is worth
more; members already pinned at their clique's slot, and cliques pinned
whole, join for free.  It reports the cost of the compressed components
only, a lower bound on what its plan realizes.  A second dynamic program
(``limited_attack_curve``) estimates an upper bound for every budget at
once by optimizing the attack against a controller that serves demands
inelastically at their arrival slots.  An interval's value there depends
only on the jobs it contains, so that DP evaluates only the intervals
that start at an arrival and end at a deadline, and reads every other
interval at the one of those with the same jobs.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .model import (
    AttackPlan,
    CliquePartition,
    CostModel,
    Instance,
    _distinct,
    _job_arrays,
    _plan_cost,
    _ranks,
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


def _plan_and_partition(ids: np.ndarray, labels: np.ndarray, slots: np.ndarray) -> tuple[AttackPlan, CliquePartition]:
    """The plan pinning each job at its slot, and the partition of each job's (label, slot)."""
    ids, slots = ids.tolist(), slots.tolist()
    return AttackPlan(dict(zip(ids, slots))), CliquePartition(dict(zip(ids, zip(labels.tolist(), slots))))


def full_attack_dp(instance: Instance, cost: CostModel) -> tuple[AttackPlan, CliquePartition, float]:
    """Optimal unlimited attack: maximum-cost clique partition by interval DP.

    Returns the full-compression plan, the achieving partition, and c_max,
    ``_plan_cost`` of the plan: exactly ``realized_attack_cost`` of the
    plan and the baseline cost of the attacked instance.  The table only
    chooses the partition.  It has a row r per arrival point A_r and a
    column c per deadline point D_c; cell (r, c) is [A_r, D_c].  Its
    anchors are the deadline points D_k inside it.  With s(k) the number of
    arrival points <= D_k, the clique at D_k holds the jobs of arrival row
    in [r, s(k)) and deadline column in [k, c], the left part is cell
    (r, k - 1) and the right part cell (s(k), c), each worth 0 if it holds
    no interval.  The smallest best anchor wins ties, and a block is pinned
    at its latest member arrival, which every member covers.  Blocks are
    labelled 0, 1, ... by slot, ties in the order they are found.

    This is exact in real numbers: every interval holds the jobs of a cell,
    and an optimum's largest-energy block, pinned at its earliest deadline,
    can take every other job covering it without losing cost, by convexity.
    In floats each clique energy is the inclusion-exclusion of 2-D prefix
    sums, bit for bit as over all endpoint pairs; rounding residues can
    still break ties, as at exponent 1, where every partition costs the same.

    The DP runs one diagonal d = c - r at a time, both parts lying below,
    as one block of rows by anchors.  Each operand is a strided view with a
    contiguous anchor axis: the prefix sums by row and, at row s(k), by
    column and anchor; the right parts by column and anchor.  The left table
    holds -inf before each row's first anchor and 0 at it, and results go
    back with ``np.maximum``, so a cell that holds no interval keeps its 0
    or -inf.  Sums run in the order of an anchor-by-anchor loop, and
    ``np.power`` equals ``cost`` bit for bit.  At non-integer exponents the
    NaN cost of an empty clique's negative residue counts as zero, zeroed
    before the mask is added.  A masked anchor's cost that overflows to inf
    turns NaN under the mask, which raises ``FloatingPointError``; a chosen
    clique's cost past float64 raises ``OverflowError`` in ``_plan_cost``.
    """
    if instance.n == 0:
        return AttackPlan({}), CliquePartition({}), 0.0

    ids, arrivals, deadlines, energies = _job_arrays(instance)
    starts, ends = _distinct(arrivals), _distinct(deadlines)
    rows, cols = starts.size, ends.size
    row, col = np.searchsorted(starts, arrivals), np.searchsorted(ends, deadlines)
    first = np.searchsorted(ends, starts)  # each row's first anchor
    after = np.searchsorted(starts, ends, side="right")  # s(k)

    # row r holds intervals on diagonals first[r] - r to cols - 1 - r: per diagonal, the first and last such row
    slack = first - np.arange(rows)
    diagonals = np.arange(slack.min(), cols)
    low = np.searchsorted(-np.minimum.accumulate(slack), -diagonals)
    last = np.searchsorted(np.minimum.accumulate(slack[::-1])[::-1], diagonals, side="right") - 1
    high = np.minimum(last, cols - 1 - diagonals)
    # and the smallest first-anchor offset k - r among the rows between them
    least = np.minimum.reduceat(np.append(slack, 0), np.stack((low, high + 1), axis=1).ravel())[::2]
    # float tables keep anchor (or column) k at entry pad + k, the pad holding the anchors k < 0 that a block reaches
    pad = max(0, -int((low + least).min()))
    stride = pad + cols + 1

    by_row = np.zeros((rows + 1, stride))  # by_row[r, pad + c]: jobs of arrival row < r and deadline column < c
    by_row[1:, pad + 1 :] = np.bincount(row * cols + col, energies, rows * cols).reshape(rows, cols).cumsum(0).cumsum(1)
    # by_anchor[c, pad + k] = by_row[s(k), pad + c] and corner[pad + k] = by_row[s(k), pad + k]
    by_anchor = np.pad(by_row[after, pad:].T.copy(), ((0, 0), (pad, 1)))
    corner = np.pad(by_row[after, pad + np.arange(cols)], (pad, 1))
    lefts = np.full((rows, stride), -np.inf)  # lefts[r, pad + k]: value of cell (r, k - 1)
    lefts[np.arange(rows), pad + first] = 0.0
    holds = np.append(first, cols)[after] <= np.arange(cols)[:, None]  # cell (s(k), c) holds an interval
    rights = np.pad(np.where(holds, -np.inf, 0.0), ((0, 0), (pad, 1)))  # rights[c, pad + k]: value of cell (s(k), c)
    # cell (s, s + d) is the right part of every anchor k with s(k) = s, at rights[s + d, pad + k]
    shares, spots = np.bincount(after, minlength=rows + 1), after * stride + pad + np.arange(cols)
    lower, upper = np.searchsorted(after, low), np.searchsorted(after, high, side="right")
    anchors = np.empty((diagonals.size, rows), dtype=np.int32)  # anchors[d - diagonals[0], r]: best k - r

    scratch = np.empty(int(((high - low + 1) * (diagonals - least + 1)).max()))
    index, flat_rights, integer_exponent = np.arange(rows), rights.ravel(), cost.exponent.is_integer()
    down, skew = (8 * (stride + 1),), (8 * (stride + 1), 8)  # byte strides of the next row and the next anchor
    bounds = zip(diagonals.tolist(), low.tolist(), high.tolist(), least.tolist(), lower.tolist(), upper.tolist())
    with np.errstate(invalid="ignore", over="ignore"):
        for d, lo, hi, t, k0, k1 in bounds:
            shape = (hi - lo + 1, d - t + 1)
            at = 8 * (lo * (stride + 1) + pad + t)  # byte offset of entry (lo, pad + lo + t) of a row table
            # clique energy: jobs of arrival row in [r, s(k)) and deadline column in [k, r + d]
            clique = scratch[: shape[0] * shape[1]].reshape(shape)
            totals = np.ndarray(shape, float, by_row, at + 8 * (d + 1 - t), (down[0], 0))
            np.subtract(np.ndarray(shape, float, by_anchor, at + 8 * (d + 1) * stride, skew), totals, out=clique)
            clique -= np.ndarray(shape, float, corner, 8 * (pad + lo + t), (8, 8))
            clique += np.ndarray(shape, float, by_row, at, skew)
            np.power(clique, cost.exponent, out=clique)
            if not integer_exponent:
                np.copyto(clique, 0.0, where=np.isnan(clique))
            clique += np.ndarray(shape, float, lefts, at, skew)
            clique += np.ndarray(shape, float, rights, at + 8 * d * stride, skew)
            best = clique.argmax(axis=1)
            value = clique[index[: shape[0]], best]
            np.add(best, t, out=anchors[d - diagonals[0], lo : hi + 1])
            out = np.ndarray(shape[:1], float, lefts, at + 8 * (d + 1 - t), down)
            np.maximum(out, value, out=out)
            if k0 < k1:
                spot = spots[k0:k1] + d * stride
                flat_rights[spot] = np.maximum(flat_rights[spot], np.repeat(value, shares[lo : hi + 1]))
    if math.isnan(lefts[0, -1]):
        raise FloatingPointError("clique costs overflow float64")

    begin = np.searchsorted(row, np.arange(rows + 1))  # jobs come sorted by arrival: row r's run from begin[r]
    reach = np.append(np.minimum.accumulate(col[::-1])[::-1], cols)[begin]  # earliest deadline column from row r on
    slots, found, pins, stack = np.empty(instance.n, np.int64), np.empty(instance.n, np.intp), [], [(0, cols - 1)]
    while stack:
        r, c = stack.pop()
        if c < reach[r]:
            continue  # no contained jobs
        k = r + int(anchors[c - r - diagonals[0], r])
        jobs = slice(begin[r], begin[after[k]])
        members = (col[jobs] >= k) & (col[jobs] <= c)
        if members.any():
            slot = int(arrivals[jobs][members].max())
            slots[jobs][members] = slot
            found[jobs][members] = len(pins)
            pins.append(slot)
        stack.append((r, k - 1))
        stack.append((int(after[k]), c))
    labels = np.argsort(np.argsort(pins, kind="stable"))[found]  # blocks ranked by slot, ties as found
    return *_plan_and_partition(ids, labels, slots), _plan_cost(ids, slots, energies, cost)


def online_edf_attack(instance: Instance, cost: CostModel) -> tuple[AttackPlan, CliquePartition, float]:
    """Single-pass attack grouping jobs into cliques by earliest deadline.

    Repeatedly take the earliest deadline among remaining jobs, gather
    every remaining job arriving by then into one block pinned at that
    deadline, and drop them.  Runs in O(n log n); the value never exceeds
    the optimal attack.  The value is ``_plan_cost`` of the per-job pins,
    exactly the plan's realized cost.  Blocks are labelled 0, 1, ... in
    pin order.
    """
    ids, arrivals, deadlines, energies = _job_arrays(instance)
    slots = np.minimum.accumulate(deadlines[::-1])[::-1]  # the earliest deadline from each job on
    arrival_list, first = arrivals.tolist(), 0
    while first < instance.n:
        pin = int(slots[first])
        stop = bisect_right(arrival_list, pin, first)  # past the last job arriving by the pin
        slots[first:stop] = pin  # now each job's block pin
        first = stop
    # each block's first job arrives after the last pin and is due no earlier, so the pins increase
    labels = _ranks(slots)[1]
    return *_plan_and_partition(ids, labels, slots), _plan_cost(ids, slots, energies, cost)


def limited_greedy_from_partition(
    instance: Instance,
    partition: CliquePartition,
    beta: float,
    cost: CostModel,
) -> tuple[AttackPlan, float]:
    """Budgeted greedy attack given an already-computed optimal clique partition.

    Whole cliques are ranked by cost per member (ties by larger cost, then
    label) and compressed while their members fit the budget; the first
    clique that does not fit is the next clique.  Two selections are
    compared: (a) those whole cliques plus the highest-energy members of
    the next clique that the leftover budget pays for, and (b) the whole
    budget spent inside the next clique on its highest-energy members.  A
    member already pinned at its clique's slot (window [slot, slot]) is
    not altered by compressing it, so it uses no budget: the leftover of
    (a) counts only the altered members of the whole cliques, and both (a)
    and (b) take every pinned member of the next clique.  In either
    selection, the pinned members of every clique it leaves uncompressed
    join at their slot too, for free.  The better of the two is adopted
    (ties to (a)).  Only the compressed components are counted.

    Every job needs a clique whose one slot lies in its window: the check
    ``CliquePartition.validate`` makes, with its errors, which also gives
    each job's clique rank and slot.  Cliques are ranked by the costs of
    their ``np.bincount`` energies, and each selection, a mask over the
    jobs, is valued by ``_plan_cost``.  That value is at most
    ``realized_attack_cost`` of the plan, with no slack; at beta = 1, on a
    partition from ``full_attack_dp``, it is c_max bit for bit.
    """
    budget = attack_budget(beta, instance.n)
    ids, arrivals, deadlines, energies = _job_arrays(instance)
    label, slot = partition._assignment(instance)  # each job's clique rank and its slot
    sizes = np.bincount(label)  # every clique has a member
    pinned = (arrivals == slot) & (deadlines == slot)  # compressed without being altered

    values = cost(np.bincount(label, energies, sizes.size))
    order = np.lexsort((np.arange(sizes.size), -values, -values / sizes))
    # the whole cliques are the longest prefix of the ranking whose members fit the budget
    count = int(np.searchsorted(np.cumsum(sizes[order]), budget, side="right"))
    place = np.argsort(order)[label]  # each job's clique's place in the ranking
    whole = place < count
    next_altered = np.flatnonzero((place == count) & ~pinned)
    next_altered = next_altered[np.lexsort((ids[next_altered], -energies[next_altered]))]

    top_up, inside = pinned | whole, pinned.copy()
    top_up[next_altered[: budget - np.count_nonzero(whole & ~pinned)]] = True
    inside[next_altered[:budget]] = True
    value_whole, value_inside = (_plan_cost(ids[mask], slot[mask], energies[mask], cost) for mask in (top_up, inside))
    picked = top_up if value_whole >= value_inside else inside
    return AttackPlan(dict(zip(ids[picked].tolist(), slot[picked].tolist()))), max(value_whole, value_inside)


def realized_attack_cost(instance: Instance, plan: AttackPlan, cost: CostModel) -> float:
    """Cost the optimal controller actually pays once the plan is applied.

    Equal to ``_plan_cost`` of a full compression, and at least the
    greedy's value for its plan: other jobs only add to those slots' loads.
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

    Only the intervals [i, j] with a job arriving at endpoint i and a job
    due at endpoint j are evaluated.  Any other interval holds the same
    jobs as one of those, [first arrival point >= i, last deadline point
    <= j], and has its value bit for bit: if no job arrives at i, anchor i
    has no members, so its gains are the zero vector and its split is the
    value of [i + 1, j] unchanged (0 + x == x, and a max-plus against the
    zero vector returns a non-decreasing vector as it is); every other
    anchor has the same clique, members and sub-interval contents as in
    [i + 1, j], so by induction on the width the same value; and the max
    over anchors is exact.  The case of no deadline at j is symmetric.
    So each sub-interval [i, z - 1] is read at [i, last deadline point <=
    z - 1], and [z + 1, j] at [first arrival point >= z + 1, j]; an empty
    one reads a zero cell.  Point 0 is an arrival and point q - 1 a
    deadline, so the whole instance is one of the evaluated intervals.
    The table therefore holds one budget vector per pair of an arrival
    point and a deadline point at or after it, plus one shared zero
    vector; a map over (arrival point, deadline point) pairs sends every
    other pair, and the row and column that stand for none, to that one.

    The DP runs width by width.  Each width is evaluated in a few array
    operations over every evaluated interval and every anchor of it, as one
    dense block; an interval with no job comes out as exact zeros.  Budget
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
    if _distinct(arrivals).size != arrivals.size:
        raise ValueError("upper-bound recursion requires at most one arrival per slot")
    n = instance.n
    if n == 0:
        return np.zeros(max_budget + 1)

    budget = min(max_budget, n)
    points = _distinct(np.concatenate((arrivals, deadlines)))  # the sorted endpoint slots
    a_idx, d_idx = np.searchsorted(points, arrivals), np.searchsorted(points, deadlines)
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
    # [i, j] holds the jobs of [first arrival point >= i, last deadline point <= j]:
    # first_arrival[i] is that start's row of the pair map, its rank among the arrival
    # points, and last_deadline[j + 1] that end's column, one past its rank among the
    # deadline points; row len(starts) and column 0 stand for none
    starts = np.sort(a_idx)
    ends = _distinct(d_idx)
    first_arrival = np.searchsorted(starts, np.arange(q + 1))
    last_deadline = np.searchsorted(ends, np.arange(q + 1))
    is_deadline = np.zeros(q, dtype=bool)
    is_deadline[d_idx] = True

    # table[pair[first_arrival[i], last_deadline[j + 1]]] is the budget vector of [i, j]
    # for i an arrival point and j a deadline point, zero when [i, j] contains no
    # job.  Only the pairs with j >= i get a row of their own; every other pair, and
    # row len(starts) and column 0, read row 0, which stays zero.  Every vector is
    # exactly non-decreasing and constant beyond its own cap, and a gains column is
    # constant beyond its member count, which is what lets _maxplus_columns skip shifts.
    evaluated = starts[:, None] <= ends
    pair = np.zeros((starts.size + 1, ends.size + 1), dtype=np.intp)
    pair[:-1, 1:][evaluated] = np.arange(1, np.count_nonzero(evaluated) + 1)
    table = np.zeros((pair.max() + 1, budget + 1))
    for width in range(q):
        i = starts[: np.searchsorted(starts, q - width)]
        i = i[is_deadline[i + width]]
        if not i.size:
            continue
        j = i + width
        caps = np.minimum(budget, cnt[q, j + 1] - cnt[i, j + 1])
        cols = int(caps.max()) + 1
        # every interval with each of its width + 1 anchors, interval by interval
        ci, cj = np.repeat(i, width + 1), np.repeat(j, width + 1)
        cz = (i[:, None] + np.arange(width + 1)).ravel()

        # split: the best use of each budget on [i, z-1] and [z+1, j] together;
        # addition commutes exactly, so shift whichever side saturates first
        left_cap = np.minimum(budget, cnt[q, cz] - cnt[ci, cz])
        right_cap = np.minimum(budget, cnt[q, cj + 1] - cnt[cz + 1, cj + 1])
        swap = right_cap < left_cap
        reach = np.minimum(left_cap, right_cap)
        by_reach = np.argsort(-reach, kind="stable")
        row, column = first_arrival[ci], last_deadline[cj + 1]
        left_end, right_start = last_deadline[cz], first_arrival[cz + 1]
        lx, ly = np.where(swap, right_start, row)[by_reach], np.where(swap, column, left_end)[by_reach]
        rx, ry = np.where(swap, row, right_start)[by_reach], np.where(swap, left_end, column)[by_reach]
        split = _maxplus_columns(table[pair[lx, ly], :cols].T, table[pair[rx, ry], :cols].T.copy(), reach[by_reach])

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
        gains = _flat_prefix(energy_ext[members], listed, span)[:, :cols] + anchor_energy
        np.power(gains, cost.exponent, out=gains)  # bit for bit cost(gains)
        # members covering z but left out are charged as singletons
        picked = _flat_prefix(single_ext[members], listed, span)
        gains += picked[:, -1:] - picked[:, :cols]
        del picked

        split = split[:, np.argsort(by_reach)[by_count]]
        value = _maxplus_columns(gains.T, split, count)
        del gains, split  # keeps the peak at a few (budget, rows) arrays
        # back to rows grouped by interval, then the best anchor of each
        best = value[:, np.argsort(by_count)].reshape(cols, i.size, width + 1).max(axis=2)
        saturate = np.minimum(np.arange(budget + 1)[:, None], caps)
        table[pair[first_arrival[i], last_deadline[j + 1]]] = np.take_along_axis(best, saturate, axis=0).T
        del value, best  # before the next width's split

    curve = table[pair[0, ends.size]].copy()
    if max_budget > budget:
        curve = np.concatenate([curve, np.full(max_budget - budget, curve[-1])])
    return curve
