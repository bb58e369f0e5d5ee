"""Metamorphic properties of the attack DP, the peel and the budgeted attacks, and the array paths' references."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsched.attacker import (
    full_attack_dp,
    limited_attack_curve,
    limited_greedy_from_partition,
    online_edf_attack,
    realized_attack_cost,
)
from gridsched.model import (
    CliquePartition,
    CostModel,
    Instance,
    Job,
    Schedule,
    _distinct,
    _ranks,
    _slot_cost,
    apply_attack,
    baseline_cost,
    evaluate_cost,
)
from gridsched.oracle import check_min_optimality, exact_limited_attack_curve
from gridsched.scheduler import min_cost, schedule_online_even, schedule_optimal_offline

from helpers import (
    baseline_schedule,
    partition_blocks,
    reference_check_min_optimality,
    reference_clique_clash,
    reference_cost,
    reference_entry_arrays,
    reference_online_edf_attack,
    reference_slot_loads,
    spread_out,
)

EXPONENTS = st.sampled_from([1.0, 1.5, 2.0, 3.0])

# (arrival, allowance, energy) per job; arrivals may collide
JOB_SPECS = st.lists(
    st.tuples(
        st.integers(1, 10),
        st.integers(0, 5),
        st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=7,
)


def build(specs, ids=None, shift=0, scale=1.0) -> Instance:
    ids = range(len(specs)) if ids is None else ids
    return Instance(
        Job(jid, arrival + shift, arrival + allowance + shift, energy * scale)
        for jid, (arrival, allowance, energy) in zip(ids, specs)
    )


def attack_and_peel(instance: Instance, cost: CostModel) -> tuple[float, float]:
    return full_attack_dp(instance, cost)[2], min_cost(instance, cost)


@settings(max_examples=40)
@given(JOB_SPECS, st.integers(1, 50), EXPONENTS)
def test_shifting_every_slot_changes_nothing(specs, shift, exponent):
    cost = CostModel(exponent)
    # both work on the order of the window endpoints only
    assert attack_and_peel(build(specs, shift=shift), cost) == attack_and_peel(build(specs), cost)


INTEGER_EXPONENTS = st.sampled_from([1.0, 2.0, 3.0])


@settings(max_examples=60)
@given(JOB_SPECS, st.sampled_from([2**53, 2**60]), INTEGER_EXPONENTS)
def test_far_shift_moves_the_attack_partition_and_keeps_its_value(specs, shift, exponent):
    cost = CostModel(exponent)
    _, partition, c_max = full_attack_dp(build(specs), cost)
    _, shifted, shifted_max = full_attack_dp(build(specs, shift=shift), cost)
    assert repr(shifted_max) == repr(c_max)
    assert [(slot - shift, members) for slot, members in partition_blocks(shifted)] == partition_blocks(partition)


@settings(max_examples=60)
@given(JOB_SPECS, INTEGER_EXPONENTS)
def test_scaling_energies_by_1024_scales_the_attack_exactly(specs, exponent):
    # a power of two scales every sum and power without rounding
    cost = CostModel(exponent)
    _, partition, c_max = full_attack_dp(build(specs), cost)
    _, scaled, scaled_max = full_attack_dp(build(specs, scale=1024.0), cost)
    assert scaled_max == c_max * 1024.0**exponent
    assert scaled == partition


@settings(max_examples=60)
@given(JOB_SPECS, st.integers(-80, 80), INTEGER_EXPONENTS)
def test_scaling_energies_by_a_power_of_two_scales_the_schedule_exactly(specs, k, exponent):
    # every tolerance is relative, so the fill and the certifier see the same numbers at any scale
    cost, scale = CostModel(exponent), 2.0**k
    inst, scaled_inst = build(specs), build(specs, scale=scale)
    schedule, scaled = schedule_optimal_offline(inst), schedule_optimal_offline(scaled_inst)
    assert scaled.allocations == {entry: amount * scale for entry, amount in schedule.allocations.items()}
    assert evaluate_cost(scaled, cost) == evaluate_cost(schedule, cost) * scale**exponent
    assert min_cost(scaled_inst, cost) == min_cost(inst, cost) * scale**exponent
    assert check_min_optimality(scaled_inst, scaled, cost) == check_min_optimality(inst, schedule, cost)
    # the inelastic schedule is rarely optimal: its verdict and witness must not move either
    baseline = check_min_optimality(inst, baseline_schedule(inst), cost)
    assert check_min_optimality(scaled_inst, baseline_schedule(scaled_inst), cost) == baseline


# energies whose ratios reach far below the fill's relative tolerance of 1e-9
MIXED_SCALES = st.lists(
    st.tuples(st.integers(1, 10), st.integers(0, 5), st.floats(0.5, 8.0), st.integers(-90, 0)),
    min_size=1,
    max_size=7,
).map(lambda drawn: [(arrival, allowance, energy * 2.0**j) for arrival, allowance, energy, j in drawn])


@settings(max_examples=60)
@given(MIXED_SCALES, st.integers(-80, 80), INTEGER_EXPONENTS)
def test_energies_of_every_scale_are_served(specs, k, exponent):
    # Schedule refuses a job whose entries miss its energy by more than ENERGY_TOL of it
    cost, scale = CostModel(exponent), 2.0**k
    inst = build(specs)
    schedule, scaled = schedule_optimal_offline(inst), schedule_optimal_offline(build(specs, scale=scale))
    assert evaluate_cost(schedule, cost) == pytest.approx(min_cost(inst, cost), rel=1e-12)
    assert check_min_optimality(inst, schedule, cost).optimal
    assert scaled.allocations == {entry: amount * scale for entry, amount in schedule.allocations.items()}


# energies just above the smallest normal float, the least Job takes, in windows of at most 64 slots
SMALLEST_NORMAL = st.lists(
    st.tuples(st.integers(1, 64), st.integers(0, 63), st.floats(1.0, 16.0)),
    min_size=1,
    max_size=7,
).map(lambda drawn: [(arrival, allowance, energy * sys.float_info.min) for arrival, allowance, energy in drawn])


@settings(max_examples=40)
@given(SMALLEST_NORMAL, EXPONENTS)
def test_energies_at_the_smallest_normal_float_are_served_and_certified(specs, exponent):
    # the shares and fill tolerances are subnormal here; Schedule still conserves within ENERGY_TOL * energy
    cost, inst = CostModel(exponent), build(specs)
    assert check_min_optimality(inst, schedule_optimal_offline(inst), cost).optimal
    # the even spread gets the verdict of its copy at ordinary energies, scaled by 2^1000
    scaled = build(specs, scale=2.0**1000)
    even = check_min_optimality(inst, schedule_online_even(inst), cost)
    assert even.optimal == check_min_optimality(scaled, schedule_online_even(scaled), cost).optimal


def slot_free_results(instance: Instance, cost: CostModel):
    """min_cost, the sorted slot loads, the oracle curve and the certifier's verdict."""
    schedule = schedule_optimal_offline(instance, cost)
    return (
        min_cost(instance, cost),
        sorted(schedule.slot_loads().values()),
        exact_limited_attack_curve(instance, cost),
        check_min_optimality(instance, schedule, cost).optimal,
    )


@settings(max_examples=15)
@given(
    st.lists(st.tuples(st.integers(1, 16), st.integers(0, 2), st.floats(0.5, 8.0)), min_size=1, max_size=4),
    st.integers(0, 10**12),
    st.integers(0, 10**6),
    EXPONENTS,
)
def test_wider_gaps_and_far_slots_change_nothing(specs, shift, gap, exponent):
    # a run of uncovered slots splits the peel whatever its length
    cost = CostModel(exponent)
    inst = build(specs)
    assert slot_free_results(spread_out(inst, shift, gap), cost) == slot_free_results(inst, cost)


@settings(max_examples=40)
@given(JOB_SPECS, st.randoms(use_true_random=False), EXPONENTS)
def test_permuting_job_ids_changes_nothing(specs, random, exponent):
    cost = CostModel(exponent)
    ids = list(range(len(specs)))
    random.shuffle(ids)
    # jobs sharing an arrival are ordered by id, so energies may be summed in another order
    permuted = attack_and_peel(build(specs, ids=ids), cost)
    assert permuted == pytest.approx(attack_and_peel(build(specs), cost), rel=1e-12)


@settings(max_examples=40)
@given(JOB_SPECS, st.floats(0.01, 100.0), EXPONENTS)
def test_scaling_energies_scales_costs_by_power(specs, scale, exponent):
    cost = CostModel(exponent)
    scaled = attack_and_peel(build(specs, scale=scale), cost)
    expected = [value * scale**exponent for value in attack_and_peel(build(specs), cost)]
    assert scaled == pytest.approx(expected, rel=1e-9)


# up to 12 jobs whose ids are shuffled against their arrival order, spread out or colliding
SHUFFLED_IDS = st.tuples(
    st.lists(st.tuples(st.integers(1, 20), st.integers(0, 5), st.floats(0.5, 8.0)), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
).map(lambda drawn: build(drawn[0], ids=drawn[1].sample(range(len(drawn[0])), len(drawn[0]))))


@settings(max_examples=40)
@given(SHUFFLED_IDS, EXPONENTS)
def test_full_budget_greedy_equals_optimal_attack(inst, exponent):
    cost = CostModel(exponent)
    _, partition, c_max = full_attack_dp(inst, cost)
    _, value = limited_greedy_from_partition(inst, partition, 1.0, cost)
    assert value == c_max


@settings(max_examples=40)
@given(SHUFFLED_IDS, EXPONENTS)
def test_attack_values_are_what_their_plans_realize(inst, exponent):
    cost = CostModel(exponent)
    for plan, _, value in (full_attack_dp(inst, cost), online_edf_attack(inst, cost)):
        assert value == realized_attack_cost(inst, plan, cost) == baseline_cost(apply_attack(inst, plan), cost)


@settings(max_examples=40)
@given(SHUFFLED_IDS, EXPONENTS)
def test_attack_plans_pin_every_job_at_its_block_slot(inst, exponent):
    # the plans come from the attacks' own per-job slots; their partitions say the same
    for plan, partition, _ in (full_attack_dp(inst, CostModel(exponent)), online_edf_attack(inst, CostModel(exponent))):
        assert plan == partition.to_plan(inst)


@settings(max_examples=40)
@given(SHUFFLED_IDS, EXPONENTS)
def test_each_producers_schedule_equals_the_schedule_of_its_dict(inst, exponent):
    cost = CostModel(exponent)
    for schedule in (schedule_optimal_offline(inst), schedule_online_even(inst)):
        rebuilt = Schedule(inst, dict(schedule.allocations))
        assert repr(list(schedule.allocations.items())) == repr(list(rebuilt.allocations.items()))
        arrays = [(s.allocations._ids, s.allocations._slots, s.allocations._amounts) for s in (schedule, rebuilt)]
        for ours, theirs in zip(*arrays):
            assert (ours.dtype, ours.tobytes()) == (theirs.dtype, theirs.tobytes())
        assert repr(evaluate_cost(schedule, cost)) == repr(evaluate_cost(rebuilt, cost))
        assert list(schedule.slot_loads().items()) == list(rebuilt.slot_loads().items())


@settings(max_examples=25)
@given(SHUFFLED_IDS, EXPONENTS)
def test_greedy_never_exceeds_what_its_plan_realizes(inst, exponent):
    cost = CostModel(exponent)
    _, partition, _ = full_attack_dp(inst, cost)
    for budget in range(inst.n + 1):
        plan, value = limited_greedy_from_partition(inst, partition, budget / inst.n, cost)
        assert value <= realized_attack_cost(inst, plan, cost)


@settings(max_examples=30)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 4), st.floats(0.5, 8.0)), min_size=1, max_size=6),
    EXPONENTS,
)
def test_budget_curve_is_monotone(gaps, exponent):
    # the upper-bound recursion needs at most one arrival per slot
    arrivals = np.cumsum([gap for gap, _, _ in gaps]).tolist()
    inst = Instance(
        Job(idx, arrival, arrival + allowance, energy)
        for idx, (arrival, (_, allowance, energy)) in enumerate(zip(arrivals, gaps))
    )
    curve = limited_attack_curve(inst, CostModel(exponent), inst.n + 1)
    assert all(curve[m] <= curve[m + 1] for m in range(inst.n + 1))


def specs_of(max_arrival: int, max_allowance: int):
    jobs = st.tuples(st.integers(1, max_arrival), st.integers(0, max_allowance), st.floats(0.5, 8.0))
    return st.lists(jobs, max_size=12)


# random (arrivals spread out), colliding (most jobs share an arrival) and pinned (every window one slot)
ARRAY_INSTANCES = st.one_of(specs_of(40, 6), specs_of(3, 4), specs_of(8, 0)).map(build)


@settings(max_examples=60)
@given(ARRAY_INSTANCES, EXPONENTS)
def test_online_attack_equals_job_loops(inst, exponent):
    cost = CostModel(exponent)
    plan, partition, value = online_edf_attack(inst, cost)
    ref_plan, ref_partition, ref_value = reference_online_edf_attack(inst, cost)
    assert (plan, partition, repr(value)) == (ref_plan, ref_partition, repr(ref_value))
    assert partition_blocks(partition) == partition_blocks(ref_partition)
    # both map the jobs in instance order
    assert list(partition.cliques.items()) == list(ref_partition.cliques.items())


@settings(max_examples=60)
@given(ARRAY_INSTANCES, EXPONENTS)
def test_schedule_loads_and_cost_equal_dict_loops(inst, exponent):
    cost = CostModel(exponent)
    attacked = apply_attack(inst, online_edf_attack(inst, cost)[0])
    schedules = (
        schedule_optimal_offline(inst),
        schedule_online_even(inst),
        baseline_schedule(inst),
        schedule_optimal_offline(attacked),
    )
    for schedule in schedules:
        allocations = schedule.allocations
        assert list(schedule.slot_loads().items()) == list(reference_slot_loads(allocations).items())
        slots, amounts = reference_entry_arrays(allocations)
        value = repr(evaluate_cost(schedule, cost))
        assert value == repr(_slot_cost(slots, amounts, cost)) == repr(reference_cost(allocations, cost))


def perturbed_schedule(inst: Instance, seed: int) -> Schedule:
    """An admissible schedule that splits each job at random over a random part of its window."""
    rng = np.random.default_rng(seed)
    allocations = {}
    for job in inst.jobs:
        shares = rng.random(job.allowance + 1) * (rng.random(job.allowance + 1) < 0.6)
        if not shares.any():
            shares[rng.integers(shares.size)] = 1.0
        shares = shares / shares.sum() * job.energy
        allocations.update(((job.id, job.arrival + k), float(share)) for k, share in enumerate(shares))
    return Schedule(inst, allocations)


@settings(max_examples=60)
@given(ARRAY_INSTANCES, st.integers(0, 2**32 - 1))
def test_certifier_equals_slot_by_slot_walk(inst, seed):
    cost = CostModel(2.0)
    schedules = (
        schedule_optimal_offline(inst),
        schedule_online_even(inst),
        baseline_schedule(inst),
        perturbed_schedule(inst, seed),
    )
    for schedule in schedules:
        for tol in (0.0, 1e-7, 0.05):
            verdict = check_min_optimality(inst, schedule, cost, tol)
            assert verdict == reference_check_min_optimality(inst, schedule, cost, tol)


INT64 = st.integers(-(2**63), 2**63 - 1)
# int64 arrays (empty and single-value among them), all-equal ones and shuffled ones with repeats;
# then partition labels as a CliquePartition holds them: Python ints past int64 and bools among them
SET_INPUTS = st.one_of(
    st.lists(INT64, max_size=20).map(lambda values: np.array(values, dtype=np.int64)),
    st.tuples(INT64, st.integers(1, 20)).map(lambda pair: np.full(pair[1], pair[0], dtype=np.int64)),
    st.lists(st.integers(-3, 3), max_size=20).flatmap(st.permutations).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.one_of(st.integers(-(2**70), 2**70), st.booleans()), max_size=12),
)


@settings(max_examples=200)
@given(SET_INPUTS, st.randoms(use_true_random=False))
def test_distinct_and_ranks_equal_numpy_unique(values, random):
    array = np.asarray(values)  # labels are read as numpy's unique reads them: int64, uint64, float64, bool or object
    expected, first, inverse = np.unique(array, return_index=True, return_inverse=True)
    distinct = _distinct(array)
    assert distinct.dtype == expected.dtype and np.array_equal(distinct, expected)
    for kind in (None, "stable"):
        distinct, rank, order = _ranks(array, kind)
        assert distinct.dtype == expected.dtype and np.array_equal(distinct, expected)
        assert np.array_equal(rank, inverse)
        assert np.array_equal(rank[order], np.sort(rank))
    # a stable sort puts each value's first element in the array first in the sort
    assert np.array_equal(order[np.searchsorted(rank[order], np.arange(distinct.size))], first)

    # the same errors as the reference's on jobs labelled so: most cliques keep one slot;
    # a label past int64, or a bool, is refused for the first job that has one
    labels = array.tolist() if isinstance(values, np.ndarray) else values
    slots = [1 + int(r) % 3 if random.random() < 0.8 else random.randint(1, 3) for r in inverse]
    instance = Instance(Job(j, 1, 3, 1.0) for j in range(len(labels)))
    partition = CliquePartition({j: (label, slot) for j, (label, slot) in enumerate(zip(labels, slots))})
    refused = [j for j, label in enumerate(labels) if isinstance(label, bool) or not -(2**63) <= label < 2**63]
    if refused:
        with pytest.raises(ValueError, match=f"^job {refused[0]}: clique label must be an integer in "):
            partition.validate(instance)
    elif (clash := reference_clique_clash(labels, slots)) is None:
        partition.validate(instance)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(clash)}$"):
            partition.validate(instance)
