"""Attack strategies: unlimited DP, online grouping, budgeted greedy, budget DP."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from gridsched.attacker import (
    attack_budget,
    full_attack_dp,
    limited_attack_curve,
    limited_greedy_from_partition,
    online_edf_attack,
    realized_attack_cost,
)
from gridsched.harness import GenParams, generate_instance, make_identical_instance
from gridsched.model import (
    AttackPlan,
    CliquePartition,
    CostModel,
    Instance,
    Job,
    _plan_cost,
    apply_attack,
    baseline_cost,
)
from gridsched.oracle import brute_force_max_cost, exact_limited_attack_curve
from gridsched.scheduler import min_cost

from helpers import (
    exact_max_cost,
    exact_partition_cost,
    limited_greedy,
    partition_blocks,
    partition_from_blocks,
    random_instance,
    random_instance_in_horizon,
    reference_full_attack_dp,
    reference_limited_attack_curve,
    within_seconds,
)

LINEAR = CostModel(1.0)
QUAD = CostModel(2.0)


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


def block_energy(instance: Instance, members: frozenset[int]) -> float:
    return sum(instance.job(jid).energy for jid in members)


def blocks_cost(instance: Instance, blocks, cost: CostModel) -> float:
    """``_plan_cost`` of compressing every member of the (slot, members) blocks to its slot."""
    ids = [jid for _, members in blocks for jid in members]
    slots = [slot for slot, members in blocks for _ in members]
    energies = [instance.job(jid).energy for jid in ids]
    return _plan_cost(np.array(ids, dtype=np.int64), np.array(slots, dtype=np.int64), np.array(energies), cost)


class TestAttackBudget:
    def test_floor_and_float_robustness(self):
        assert attack_budget(0.5, 2) == 1
        assert attack_budget(0.0, 10) == 0
        assert attack_budget(1.0, 10) == 10
        # 0.58 * 50 rounds to 28.999999999999996; the budget must still be 29
        assert attack_budget(0.58, 50) == 29

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            attack_budget(1.1, 5)
        with pytest.raises(ValueError):
            attack_budget(-0.1, 5)


class TestFullAttackDp:
    def test_two_job_example(self):
        plan, partition, value = full_attack_dp(two_job_instance(), QUAD)
        assert value == pytest.approx(16.0)
        assert partition_blocks(partition) == [(2, {1, 2})]
        assert plan.compressed == {1: 2, 2: 2}

    def test_single_job(self):
        inst = Instance([Job(1, 1, 5, 3.0)])
        _, partition, value = full_attack_dp(inst, QUAD)
        assert value == pytest.approx(9.0)
        assert len(partition_blocks(partition)) == 1

    def test_disjoint_jobs_cannot_merge(self):
        inst = Instance([Job(1, 1, 1, 3.0), Job(2, 10, 10, 1.0)])
        _, partition, value = full_attack_dp(inst, QUAD)
        assert value == pytest.approx(10.0)
        assert sorted(len(members) for _, members in partition_blocks(partition)) == [1, 1]

    def test_empty_instance(self):
        plan, partition, value = full_attack_dp(Instance([]), QUAD)
        assert value == 0.0
        assert partition_blocks(partition) == []

    def test_matches_brute_force_and_partition_valid(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            inst = random_instance(rng, max_jobs=7)
            plan, partition, value = full_attack_dp(inst, QUAD)
            partition.validate(inst)
            plan.validate(inst)
            assert value == pytest.approx(brute_force_max_cost(inst, QUAD), abs=1e-9)
            # the full-compression plan realizes exactly the DP value
            assert realized_attack_cost(inst, plan, QUAD) == value

    def test_partition_value_consistent(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            inst = random_instance(rng, max_jobs=8)
            _, partition, value = full_attack_dp(inst, QUAD)
            assert value == baseline_cost(apply_attack(inst, partition.to_plan(inst)), QUAD)

    def test_matches_reference_exactly(self):
        rng = np.random.default_rng(56)
        # 1.5 and 2.5 run the NaN rule for empty cliques, which integer exponents skip
        for exponent in (1.0, 2.0, 3.0, 1.5, 2.5):
            cost = CostModel(exponent)
            instances = [random_instance(rng, max_jobs=10, max_gap=2, max_window=6) for _ in range(10)]
            # colliding arrivals and shared windows
            instances += [random_instance_in_horizon(rng, 12, 8, max_window=6) for _ in range(10)]
            instances.append(make_identical_instance(8, 5.0, 4, 1))
            for inst in instances:
                _, partition, value = full_attack_dp(inst, cost)
                # the reference's table value only picks its partition; c_max prices that partition
                _, expected_blocks = reference_full_attack_dp(inst, cost)
                assert partition_blocks(partition) == expected_blocks
                assert value == blocks_cost(inst, expected_blocks, cost)

    def test_exact_values_pinned(self):
        # exact float equality: the evaluation order of the recursion is part of the contract
        assert full_attack_dp(two_job_instance(), QUAD)[2] == 16.0
        _, partition, value = full_attack_dp(make_identical_instance(12, 5.0, 6, 2), QUAD)
        assert value == 1200.0
        assert [(slot, sorted(members)) for slot, members in partition_blocks(partition)] == [
            (7, [0, 1, 2, 3]), (15, [4, 5, 6, 7]), (23, [8, 9, 10, 11]),
        ]
        draw = generate_instance(GenParams(100, 5.0, 25.0, 1.0, 5.0, 11))
        assert full_attack_dp(draw, CostModel(1.0))[2] == 294.9028890816083
        assert full_attack_dp(draw, QUAD)[2] == 6097.429246557936
        assert full_attack_dp(draw, CostModel(3.0))[2] == 178980.34896938785

    def test_non_integer_exponent_is_finite(self):
        # cliques without jobs carry rounding residues just below zero, which
        # a fractional power would turn into NaN
        draw = generate_instance(GenParams(100, 5.0, 25.0, 1.0, 5.0, 11))
        cost = CostModel(1.5)
        _, partition, value = full_attack_dp(draw, cost)
        assert np.isfinite(value)
        partition.validate(draw)
        recomputed = sum(cost(block_energy(draw, members)) for _, members in partition_blocks(partition))
        assert recomputed == pytest.approx(value, rel=1e-12)

    def test_non_integer_exponent_matches_brute_force(self):
        rng = np.random.default_rng(57)
        for exponent in (1.5, 2.5):
            cost = CostModel(exponent)
            for _ in range(40):
                inst = random_instance(rng, max_jobs=7)
                _, partition, value = full_attack_dp(inst, cost)
                partition.validate(inst)
                assert value == pytest.approx(brute_force_max_cost(inst, cost), rel=1e-9)

    def test_overflowing_costs_raise_instead_of_looping(self):
        # cliques of 3e154 cost inf at exponent 2, and so can the negated energy at a masked anchor
        inst = Instance(
            Job(jid, arrival, deadline, 1e154)
            for jid, arrival, deadline in [(2, 2, 6), (9, 2, 7), (4, 3, 5), (6, 4, 4), (3, 7, 8), (7, 7, 8), (8, 8, 8)]
        )
        with within_seconds(10), np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="overflow"):
            full_attack_dp(inst, QUAD)

    def test_within_rounding_of_exact_optimum(self):
        """c_max, and the exact cost of the partition returned with it, lie within k n eps of the exact maximum.

        Relative to the exact maximum, with k = 4 and eps the float64 machine
        epsilon.  On 1,000 draws of this kind (n <= 10) the worst c_max was
        1.1 n eps off, at exponent 3, and every partition was an exact optimum.
        """
        rng = np.random.default_rng(58)
        for exponent in (1, 2, 3):
            cost = CostModel(exponent)
            instances = [random_instance(rng, max_jobs=10, max_gap=2, max_window=6) for _ in range(25)]
            instances += [random_instance_in_horizon(rng, 10, 8, max_window=6) for _ in range(25)]
            for inst in instances:
                exact = exact_max_cost(inst, exponent)
                _, partition, value = full_attack_dp(inst, cost)
                bound = 4 * inst.n * Fraction(np.finfo(float).eps) * exact
                assert abs(Fraction(value) - exact) <= bound
                assert abs(exact_partition_cost(inst, partition_blocks(partition), exponent) - exact) <= bound


class TestOnlineEdfAttack:
    def test_two_job_example(self):
        _, partition, value = online_edf_attack(two_job_instance(), QUAD)
        assert value == pytest.approx(16.0)
        assert partition_blocks(partition) == [(2, {1, 2})]

    def test_three_job_example(self):
        inst = Instance([Job(1, 1, 2, 1.0), Job(2, 2, 4, 1.0), Job(3, 3, 5, 1.0)])
        _, partition, value = online_edf_attack(inst, QUAD)
        assert value == pytest.approx(5.0)
        assert partition_blocks(partition) == [(2, {1, 2}), (5, {3})]

    def test_single_job_pinned_at_deadline(self):
        inst = Instance([Job(1, 2, 7, 4.0)])
        _, partition, value = online_edf_attack(inst, QUAD)
        assert len(partition_blocks(partition)) == 1
        assert partition_blocks(partition)[0][0] == 7
        assert value == pytest.approx(16.0)

    def test_never_beats_optimal_attack(self):
        rng = np.random.default_rng(44)
        for _ in range(80):
            inst = random_instance(rng, max_jobs=9)
            plan, partition, value = online_edf_attack(inst, QUAD)
            partition.validate(inst)
            _, _, best = full_attack_dp(inst, QUAD)
            assert value <= best + 1e-9


def three_cliques() -> tuple[Instance, CliquePartition]:
    """Cliques of sizes 2, 1 and 4 whose values at b = 1 are 6, 5 and 4; no member is pinned."""
    jobs = [Job(0, 1, 2, 3.0), Job(1, 1, 2, 3.0), Job(2, 4, 5, 5.0)] + [Job(i, 7, 8, 1.0) for i in range(3, 7)]
    blocks = [(2, frozenset({0, 1})), (5, frozenset({2})), (8, frozenset(range(3, 7)))]
    return Instance(jobs), partition_from_blocks(blocks)


class TestGreedySelection:
    """The greedy's whole-clique selection on hand-built partitions, at b = 1."""

    def test_worked_example(self):
        # cost per member 3, 5 and 1: budget 3 takes the 1- and then the 2-clique
        inst, partition = three_cliques()
        plan, value = limited_greedy_from_partition(inst, partition, 3 / 7, LINEAR)
        assert value == 11.0
        assert plan.compressed == {0: 2, 1: 2, 2: 5}

    def test_ties_by_cost_then_position(self):
        # both cliques cost 2 per member: the larger cost ranks first and fills budget 2
        inst = Instance([Job(0, 1, 2, 2.0), Job(1, 4, 5, 2.0), Job(2, 4, 5, 2.0)])
        partition = partition_from_blocks([(2, {0}), (5, {1, 2})])
        plan, value = limited_greedy_from_partition(inst, partition, 2 / 3, LINEAR)
        assert value == 4.0
        assert plan.compressed == {1: 5, 2: 5}
        # equal cost and size: the smaller label ranks first, whatever its slot
        inst = Instance([Job(0, 1, 2, 3.0), Job(1, 4, 5, 3.0)])
        partition = partition_from_blocks([(5, {1}), (2, {0})])
        plan, value = limited_greedy_from_partition(inst, partition, 1 / 2, LINEAR)
        assert value == 3.0
        assert plan.compressed == {1: 5}

    def test_zero_budget(self):
        inst, partition = three_cliques()
        plan, value = limited_greedy_from_partition(inst, partition, 0.0, LINEAR)
        assert value == 0.0
        assert plan.compressed == {}

    def test_full_budget(self):
        inst, partition = three_cliques()
        plan, value = limited_greedy_from_partition(inst, partition, 1.0, LINEAR)
        assert value == 15.0
        assert plan == partition.to_plan(inst)
        assert plan.altered(inst) == inst.job_ids


    def test_partition_must_cover_every_job_in_its_window(self):
        inst, partition = three_cliques()
        with pytest.raises(ValueError, match="every job"):
            limited_greedy_from_partition(inst, partition_from_blocks(partition_blocks(partition)[:2]), 1.0, LINEAR)
        moved = partition_from_blocks([(3, {0, 1}), *partition_blocks(partition)[1:]])
        with pytest.raises(ValueError, match="outside a member's window"):
            limited_greedy_from_partition(inst, moved, 1.0, LINEAR)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda blocks: partition_from_blocks(blocks[:2]), r"do not cover every job: missing ids \[3, 4, 5, 6\]$"),
            (lambda blocks: partition_from_blocks([*blocks[:2], (8, {3, 4, 5, 6, 9})]), "unknown job id 9"),
            (lambda blocks: partition_from_blocks([(3, {0}), *blocks[1:]]), r"job 0 does not cover block slot 3: .*"
             r"outside a member's window \[1, 2\]"),
            # job 2 joins clique 0, pinned at slot 2, at its own slot 5
            (lambda blocks: CliquePartition({**partition_from_blocks(blocks).cliques, 2: (0, 5)}),
             r"clique 0 names two slots, 2 and 5$"),
        ],
        ids=["missing", "unknown-id", "outside-window", "two-slots"],
    )
    def test_every_partition_check_raises_the_same_error(self, build, message):
        inst, partition = three_cliques()
        bad = build(partition_blocks(partition))
        errors = []
        for check in (bad.validate, bad.to_plan, lambda inst: limited_greedy_from_partition(inst, bad, 1.0, LINEAR)):
            with pytest.raises(ValueError, match=message) as raised:
                check(inst)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] == errors[2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sparse_labels_rank_densely(self):
        # labels 5 and 0 are the cliques ranked 1 and 0: no empty clique lies between them to rank by 0 / 0
        inst = Instance([Job(0, 1, 2, 3.0), Job(1, 4, 5, 3.0)])
        partition = CliquePartition({0: (5, 2), 1: (0, 5)})
        ranks, slots = partition._assignment(inst)
        assert (ranks.tolist(), slots.tolist()) == ([1, 0], [2, 5])
        # equal cost and size: label 0 ranks first
        plan, value = limited_greedy_from_partition(inst, partition, 1 / 2, LINEAR)
        assert (plan.compressed, value) == ({1: 5}, 3.0)


class TestLimitedGreedyAttack:
    def test_two_job_example(self):
        inst = two_job_instance()
        plan, value = limited_greedy(inst, 0.5, QUAD)
        assert value == pytest.approx(4.0)
        assert plan.compressed == {1: 2}
        assert plan.altered(inst) == frozenset({1})

    def test_full_budget_equals_optimal_attack(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            inst = random_instance(rng, max_jobs=10)
            _, _, best = full_attack_dp(inst, QUAD)
            _, value = limited_greedy(inst, 1.0, QUAD)
            assert value == pytest.approx(best, rel=1e-12)

    def test_identical_overlapping_jobs_follow_budget_square(self):
        # 50 identical jobs, all sharing one slot: value is (5B)^2 = beta^2 * c_max
        jobs = [Job(i, 1 + i, 51 + i, 5.0) for i in range(50)]
        inst = Instance(jobs)
        _, _, c_max = full_attack_dp(inst, QUAD)
        assert c_max == pytest.approx(62500.0)
        for budget in (1, 7, 29, 50):
            beta = budget / 50
            _, value = limited_greedy(inst, beta, QUAD)
            assert value == pytest.approx((5.0 * budget) ** 2, abs=1e-9)
            assert value / c_max == pytest.approx(beta**2, abs=1e-9)

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            limited_greedy(two_job_instance(), 1.2, QUAD)

    def test_monotone_budget_and_undetectability(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            inst = random_instance(rng, max_jobs=12, min_jobs=2)
            previous = -1.0
            for budget in range(inst.n + 1):
                beta = budget / inst.n
                plan, value = limited_greedy(inst, beta, QUAD)
                plan.validate(inst)
                assert len(plan.altered(inst)) <= budget
                assert value >= previous - 1e-12
                previous = value
                assert realized_attack_cost(inst, plan, QUAD) >= value

    def test_leftover_budget_tops_up_next_clique(self):
        # cliques of sizes 6 x 8 and 2; budget 47 takes seven whole 6-cliques
        # and spends the 5 left over inside the next 6-clique
        inst = make_identical_instance(50, 5.0, 50, 10)
        plan, value = limited_greedy(inst, 47 / 50, QUAD)
        assert value == pytest.approx(7 * 900.0 + 25.0**2, abs=1e-9)
        self._check_plan(inst, plan, value, 47)

    def test_whole_budget_inside_next_clique_still_wins(self):
        # whole cliques plus top-up give 1 + 2.7^2 = 8.29; ten members of the
        # larger clique give 3^2 = 9
        jobs = [Job(0, 1, 2, 1.0)] + [Job(i, 5, 6, 0.3) for i in range(1, 11)]
        inst = Instance(jobs)
        plan, value = limited_greedy(inst, 10 / 11, QUAD)
        assert value == pytest.approx(9.0, abs=1e-9)
        assert plan.compressed == {i: 5 for i in range(1, 11)}
        self._check_plan(inst, plan, value, 10)

    def test_members_already_pinned_cost_no_budget(self):
        # job 0 already sits on [1, 1]: compressing both jobs at slot 1 alters only job 1
        inst = Instance([Job(0, 1, 1, 1.0), Job(1, 1, 3, 5.0)])
        plan, value = limited_greedy(inst, 0.5, QUAD)
        assert value == pytest.approx(36.0, abs=1e-9)
        assert len(plan.altered(inst)) == 1
        self._check_plan(inst, plan, value, 1)

    def test_pinned_members_of_whole_cliques_cost_no_budget(self):
        # every job already sits on [1, 1] or [5, 5]: the whole partition is
        # compressed without altering anything, so the budget of 10 reaches c_max
        jobs = [Job(0, 1, 1, 1.0)] + [Job(i, 5, 5, 0.3) for i in range(1, 11)]
        inst = Instance(jobs)
        _, _, c_max = full_attack_dp(inst, QUAD)
        plan, value = limited_greedy(inst, 10 / 11, QUAD)
        assert value == pytest.approx(c_max, abs=1e-9)
        assert value == pytest.approx(10.0, abs=1e-9)
        assert len(plan.altered(inst)) == 0
        self._check_plan(inst, plan, value, 10)

    def test_wholly_pinned_cliques_beyond_the_next_join_for_free(self):
        # the greedy takes job 0's clique whole and the clique at slot 5 comes next with no
        # budget left; the clique at slot 9 alters nothing, so it joins: 9 + 16 + 16 = c_max
        jobs = [Job(0, 1, 2, 3.0)] + [Job(i, 5, 5, 1.0) for i in range(1, 5)] + [Job(i, 9, 9, 1.0) for i in range(5, 9)]
        inst = Instance(jobs)
        _, _, c_max = full_attack_dp(inst, QUAD)
        plan, value = limited_greedy(inst, 1 / 9, QUAD)
        assert value == 41.0
        assert value == c_max
        assert len(plan.altered(inst)) == 1
        self._check_plan(inst, plan, value, 1)

    def test_pinned_members_of_uncompressed_cliques_join_for_free(self):
        # as above, but job 8 on [8, 9] leaves the slot-9 clique not wholly pinned;
        # its pinned jobs 5-7 still join at slot 9 without budget: 9 + 16 + 3^2
        jobs = (
            [Job(0, 1, 2, 3.0)]
            + [Job(i, 5, 5, 1.0) for i in range(1, 5)]
            + [Job(i, 9, 9, 1.0) for i in range(5, 8)]
            + [Job(8, 8, 9, 1.0)]
        )
        inst = Instance(jobs)
        plan, value = limited_greedy(inst, 1 / 9, QUAD)
        assert value == 34.0
        assert len(plan.altered(inst)) == 1
        assert {jid: plan.compressed.get(jid) for jid in range(5, 9)} == {5: 9, 6: 9, 7: 9, 8: None}
        self._check_plan(inst, plan, value, 1)

    @staticmethod
    def _check_plan(inst, plan, value, budget):
        plan.validate(inst)
        assert len(plan.altered(inst)) <= budget
        assert realized_attack_cost(inst, plan, QUAD) >= value


def _greedy_draws() -> list[Instance]:
    """Fixed draws for the pinned greedy results: spread, colliding and pinned-heavy windows."""
    rng = np.random.default_rng(61)
    draws = [random_instance(rng, max_jobs=10, min_jobs=2, max_gap=2, max_window=6) for _ in range(12)]
    draws += [random_instance_in_horizon(rng, 12, 8, max_window=4) for _ in range(12)]
    draws += [random_instance(rng, max_jobs=10, min_jobs=2, max_gap=2, max_window=2) for _ in range(12)]
    draws += [random_instance_in_horizon(rng, 12, 6, max_window=2) for _ in range(6)]
    draws.append(make_identical_instance(12, 5.0, 6, 2))
    return draws


class TestGreedyPinned:
    """Exact greedy plans, altered sets and values at every budget, recorded once."""

    DIGESTS = {
        1.0: "a39d1faf45027f60ad2af0eefa1548ba93ad45cae7a0b57bb6f9b555ab60ad99",
        1.5: "e30a3708cc30c0ad9dcb089ddffa9ac70962043ac65a700954893b83e2fe0f58",
        2.0: "01af101070b807ccd029723085724413b3446074ed1841f8a9eb756ae2ec6e7d",
        3.0: "860b51f8bc059abeef834efc70ea94942aefaf94e3485297e5d0372fee8843d5",
    }

    @pytest.mark.parametrize("exponent", sorted(DIGESTS))
    def test_every_budget(self, exponent):
        cost = CostModel(exponent)
        results = []
        for inst in _greedy_draws():
            _, partition, _ = full_attack_dp(inst, cost)
            for budget in range(inst.n + 1):
                plan, value = limited_greedy_from_partition(inst, partition, budget / inst.n, cost)
                results.append((sorted(plan.compressed.items()), sorted(plan.altered(inst)), value))
        assert len(results) == 317
        assert hashlib.sha256(repr(results).encode()).hexdigest() == self.DIGESTS[exponent]


class TestRealizedAttackCost:
    def test_single_alteration_example(self):
        inst = two_job_instance()
        plan = AttackPlan({1: 2})
        assert realized_attack_cost(inst, plan, QUAD) == pytest.approx(8.0)

    def test_empty_plan_gives_unattacked_minimum(self):
        inst = two_job_instance()
        assert realized_attack_cost(inst, AttackPlan({}), QUAD) == pytest.approx(16 / 3)

    def test_invalid_plan_propagates(self):
        inst = two_job_instance()
        with pytest.raises(ValueError):
            realized_attack_cost(inst, AttackPlan({1: 9}), QUAD)


class TestLimitedAttackDp:
    def test_two_job_example(self):
        assert limited_attack_curve(two_job_instance(), QUAD, 1)[1] == pytest.approx(16.0)

    def test_zero_budget_is_baseline(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            inst = random_instance(rng, max_jobs=8)
            assert limited_attack_curve(inst, QUAD, 0)[0] == pytest.approx(
                baseline_cost(inst, QUAD), rel=1e-9
            )

    def test_full_budget_dominates_optimal_attack(self):
        rng = np.random.default_rng(49)
        for _ in range(30):
            inst = random_instance(rng, max_jobs=8)
            _, _, c_max = full_attack_dp(inst, QUAD)
            assert limited_attack_curve(inst, QUAD, inst.n)[inst.n] >= c_max - 1e-9

    def test_simultaneous_arrivals_rejected(self):
        inst = Instance([Job(1, 2, 4, 1.0), Job(2, 2, 5, 1.0)])
        with pytest.raises(ValueError, match="one arrival"):
            limited_attack_curve(inst, QUAD, 1)[1]

    def test_curve_monotone_and_dominates_exact(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            inst = random_instance(rng, max_jobs=5, max_window=4)
            exact = exact_limited_attack_curve(inst, QUAD)
            upper = limited_attack_curve(inst, QUAD, inst.n)
            assert all(upper[m] <= upper[m + 1] + 1e-9 for m in range(inst.n))
            for m in range(inst.n + 1):
                assert upper[m] >= exact[m] - 1e-9 * max(1.0, exact[m])

    def test_curve_saturates_beyond_job_count(self):
        inst = two_job_instance()
        curve = limited_attack_curve(inst, QUAD, 5)
        assert curve[2] == curve[3] == curve[4] == curve[5]

    def test_empty_instance_gives_zeros(self):
        assert limited_attack_curve(Instance([]), QUAD, 3).tolist() == [0.0] * 4

    def test_curve_matches_reference_exactly(self):
        rng = np.random.default_rng(55)
        for exponent in (1.0, 1.5, 2.0, 3.0):
            cost = CostModel(exponent)
            instances = [random_instance(rng, max_jobs=9, max_gap=2, max_window=6) for _ in range(8)]
            instances.append(make_identical_instance(8, 5.0, 4, 1))  # energy ties everywhere
            for inst in instances:
                for max_budget in (0, inst.n // 2, inst.n, inst.n + 2):
                    expected = reference_limited_attack_curve(inst, cost, max_budget)
                    assert np.array_equal(limited_attack_curve(inst, cost, max_budget), expected)
        # shapes where most endpoint intervals do not start at an arrival and end at a deadline
        shapes = [
            # nested windows: only deadlines fall at 4, 6, 9, 11 and 12
            Instance([
                Job(0, 1, 12, 2.0), Job(1, 2, 4, 1.5), Job(2, 5, 6, 3.0), Job(3, 7, 11, 1.0), Job(4, 8, 9, 2.5),
            ]),
            # pinned jobs (arrival == deadline) inside and beside wider windows
            Instance([Job(0, 1, 1, 2.0), Job(1, 2, 7, 1.5), Job(2, 3, 3, 3.0), Job(3, 4, 9, 1.0), Job(4, 6, 6, 2.5)]),
            # uncovered gaps between clusters
            Instance([
                Job(0, 1, 3, 2.0), Job(1, 2, 5, 1.5), Job(2, 20, 22, 3.0), Job(3, 21, 21, 1.0), Job(4, 40, 45, 2.5),
            ]),
        ]
        for exponent in (1.0, 2.5):
            cost = CostModel(exponent)
            for inst in shapes:
                for max_budget in (1, inst.n):
                    expected = reference_limited_attack_curve(inst, cost, max_budget)
                    assert np.array_equal(limited_attack_curve(inst, cost, max_budget), expected)

    def test_curve_exact_values_pinned(self):
        # exact float equality: the evaluation order of the recursion is part of the contract
        assert limited_attack_curve(two_job_instance(), QUAD, 2).tolist() == [8.0, 16.0, 16.0]
        assert limited_attack_curve(make_identical_instance(12, 5.0, 6, 2), QUAD, 12).tolist() == [
            300.0, 350.0, 450.0, 600.0, 650.0, 750.0, 900.0, 950.0, 1050.0, 1200.0, 1200.0, 1200.0, 1200.0,
        ]
        inst = random_instance(np.random.default_rng(53), max_jobs=9, min_jobs=8, max_gap=2, max_window=7)
        cubic = CostModel(3.0)
        assert limited_attack_curve(inst, cubic, inst.n).tolist() == [
            514.5494496042471, 951.610473935051, 1941.309755446665, 3020.291157265676,
            3457.35218159648, 3457.35218159648, 3457.35218159648, 3457.35218159648,
            3457.35218159648, 3457.35218159648,
        ]
        assert limited_attack_curve(inst, cubic, 0).tolist() == [514.5494496042471]
        assert limited_attack_curve(two_job_instance(), QUAD, 5).tolist() == [8.0] + [16.0] * 5
        single = Instance([Job(0, 3, 6, 2.5)])
        assert limited_attack_curve(single, QUAD, 3).tolist() == [6.25, 6.25, 6.25, 6.25]
        assert limited_attack_curve(single, QUAD, 0).tolist() == [6.25]


class TestAttackOrderingChain:
    def test_min_le_maxmin_le_max(self):
        rng = np.random.default_rng(51)
        for _ in range(25):
            inst = random_instance(rng, max_jobs=8, min_jobs=2)
            lo = min_cost(inst, QUAD)
            _, _, hi = full_attack_dp(inst, QUAD)
            for budget in (0, inst.n // 2, inst.n):
                _, value = limited_greedy(inst, budget / inst.n, QUAD)
                assert value <= hi + 1e-9
            assert lo <= hi + 1e-9
