"""Exact enumeration oracles and the optimality certifier."""

import numpy as np
import pytest

from gridsched.harness import GenParams, generate_instance
from gridsched.model import CostModel, Instance, Job, Schedule, evaluate_cost
from gridsched.oracle import (
    brute_force_max_cost,
    check_min_optimality,
    exact_limited_attack_curve,
)
from gridsched.scheduler import min_cost, schedule_optimal_offline

from helpers import baseline_schedule, random_instance

QUAD = CostModel(2.0)


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


class TestBruteForceMaxCost:
    def test_two_job_example(self):
        assert brute_force_max_cost(two_job_instance(), QUAD) == pytest.approx(16.0)

    def test_single_job(self):
        assert brute_force_max_cost(Instance([Job(1, 2, 6, 3.0)]), QUAD) == pytest.approx(9.0)

    def test_disjoint_jobs(self):
        inst = Instance([Job(1, 1, 2, 3.0), Job(2, 7, 9, 2.0)])
        assert brute_force_max_cost(inst, QUAD) == pytest.approx(13.0)

    def test_empty(self):
        assert brute_force_max_cost(Instance([]), QUAD) == 0.0

    def test_guard_rejects_huge_enumerations(self):
        jobs = [Job(i, 1 + 30 * i, 1000 + 30 * i, 1.0) for i in range(4)]
        with pytest.raises(ValueError, match="too large"):
            brute_force_max_cost(Instance(jobs), QUAD)

    def test_chunked_enumeration_matches_small_path(self):
        # product just above one chunk, exercising the chunk loop
        jobs = [Job(i, 1 + 2 * i, 1 + 2 * i + 8, 1.0 + 0.1 * i) for i in range(6)]
        inst = Instance(jobs)
        import gridsched.oracle as oracle_mod

        value = brute_force_max_cost(inst, QUAD)
        original = oracle_mod._CHUNK
        try:
            oracle_mod._CHUNK = 1000
            assert brute_force_max_cost(inst, QUAD) == pytest.approx(value, rel=1e-12)
        finally:
            oracle_mod._CHUNK = original


class TestBruteForceLimitedAttack:
    def test_two_job_example(self):
        inst = two_job_instance()
        assert exact_limited_attack_curve(inst, QUAD, 1)[1] == pytest.approx(8.0)

    def test_zero_budget_is_unattacked_minimum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst = random_instance(rng, max_jobs=5, max_window=4)
            assert exact_limited_attack_curve(inst, QUAD, 0)[0] == pytest.approx(
                min_cost(inst, QUAD), rel=1e-12
            )

    def test_full_budget_equals_max_cost(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            inst = random_instance(rng, max_jobs=5, max_window=4)
            assert exact_limited_attack_curve(inst, QUAD, inst.n)[inst.n] == pytest.approx(
                brute_force_max_cost(inst, QUAD), rel=1e-9
            )

    def test_curve_sandwiched_and_monotone(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            inst = random_instance(rng, max_jobs=5, max_window=4)
            curve = exact_limited_attack_curve(inst, QUAD)
            lo = min_cost(inst, QUAD)
            hi = brute_force_max_cost(inst, QUAD)
            assert curve[0] == pytest.approx(lo, rel=1e-12)
            for m in range(len(curve) - 1):
                assert curve[m] <= curve[m + 1] + 1e-9
            assert lo - 1e-9 <= curve[-1] <= hi + 1e-9

    def test_guard_rejects_huge_enumerations(self):
        jobs = [Job(i, 1 + 40 * i, 900 + 40 * i, 1.0) for i in range(4)]
        with pytest.raises(ValueError, match="too large"):
            exact_limited_attack_curve(Instance(jobs), QUAD, 4)


class TestExactCurvePinned:
    def test_desk_instance(self):
        # exact float equality, recorded once: every entry is a peel of some altered instance
        inst = random_instance(np.random.default_rng(5), max_jobs=6, min_jobs=6, max_window=3)
        assert [(j.arrival, j.deadline) for j in inst.jobs] == [(1, 3), (4, 5), (6, 8), (7, 8), (9, 9), (10, 10)]
        assert exact_limited_attack_curve(inst, QUAD) == [
            41.58835475366118, 53.5269010426028, 56.741039284692484, 62.725619095435476,
            65.02228404667032, 65.02228404667032, 65.02228404667032,
        ]
        assert exact_limited_attack_curve(inst, CostModel(1.5), 3) == [
            25.245260134710847, 28.924538330412673, 30.10728628292109, 31.950368311497687,
        ]


class TestCheckMinOptimality:
    def test_flat_profile_accepted(self):
        inst = two_job_instance()
        sched = schedule_optimal_offline(inst, QUAD)
        result = check_min_optimality(inst, sched, QUAD)
        assert result.optimal
        assert result.witness == ()
        assert bool(result)

    def test_baseline_rejected_with_transfer_witness(self):
        inst = two_job_instance()
        result = check_min_optimality(inst, baseline_schedule(inst), QUAD)
        assert not result.optimal
        # the chain ends by moving mass of job 2 from slot 2 into the empty slot 3
        assert result.witness[-1] == (2, 2, 3)
        source = result.witness[0][0]
        target = result.witness[-1][2]
        loads = baseline_schedule(inst).slot_loads()
        assert loads.get(source, 0.0) - loads.get(target, 0.0) > 1e-7

    def test_single_slot_windows_accepted(self):
        inst = Instance([Job(1, 1, 1, 4.0), Job(2, 3, 3, 1.0)])
        result = check_min_optimality(inst, baseline_schedule(inst), QUAD)
        assert result.optimal

    def test_linear_cost_always_optimal(self):
        inst = two_job_instance()
        result = check_min_optimality(inst, baseline_schedule(inst), CostModel(1.0))
        assert result.optimal

    @pytest.mark.parametrize("low, high", [(1e8, 1e9), (1e11, 1e12)])
    def test_optimal_schedules_accepted_at_large_energies(self, low, high):
        # slot loads of one segment differ by rounding error that grows with the energies
        for seed in range(5):
            inst = generate_instance(GenParams(40, 2.0, 10.0, low, high, seed))
            assert check_min_optimality(inst, schedule_optimal_offline(inst, QUAD), QUAD).optimal

    def test_real_transfer_rejected_at_large_energies(self):
        inst = Instance([Job(1, 1, 2, 2e11)])
        uneven = Schedule(inst, {(1, 1): 1e11 + 5e5, (1, 2): 1e11 - 5e5})
        result = check_min_optimality(inst, uneven, QUAD)
        assert not result.optimal
        assert result.witness == ((1, 1, 2),)
        scaled = Instance([Job(1, 1, 2, 2e11), Job(2, 2, 3, 2e11)])
        assert not check_min_optimality(scaled, baseline_schedule(scaled), QUAD).optimal

    def test_rejects_improvable_random_schedules(self):
        # an even spread is optimal only when no load-decreasing chain exists;
        # compare the certifier's verdict with a cost comparison against the optimum
        rng = np.random.default_rng(34)
        from gridsched.scheduler import schedule_online_even

        checked_suboptimal = 0
        for _ in range(60):
            inst = random_instance(rng, max_jobs=7)
            even = schedule_online_even(inst)
            verdict = check_min_optimality(inst, even, QUAD, tol=1e-9)
            gap = evaluate_cost(even, QUAD) - min_cost(inst, QUAD)
            if gap > 1e-6:
                assert not verdict.optimal
                checked_suboptimal += 1
            elif verdict.optimal:
                assert gap <= 1e-6
        assert checked_suboptimal > 10
