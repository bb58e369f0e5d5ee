"""Exact enumeration oracles and the optimality certifier."""

import numpy as np
import pytest

import gridsched.oracle as oracle_mod
from gridsched.attacker import limited_attack_curve
from gridsched.harness import GenParams, generate_instance
from gridsched.model import CostModel, Instance, Job, Schedule, evaluate_cost
from gridsched.oracle import (
    MinOptimalityResult,
    brute_force_max_cost,
    check_min_optimality,
    exact_limited_attack_curve,
)
from gridsched.scheduler import min_cost, schedule_optimal_offline

from helpers import (
    baseline_schedule,
    random_instance,
    random_instance_in_horizon,
    reference_exact_limited_attack_curve,
    within_seconds,
)

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

    def test_guard_counts_load_cells(self, monkeypatch):
        # 2W assignments, each a row of W load cells: 8e6 cells pass, 1.28e8 are refused at once
        def wide(width: int) -> Instance:
            return Instance([Job(0, 1, width, 1.0), Job(1, 1, 2, 1.0)])

        assert brute_force_max_cost(wide(2000), QUAD) == 4.0

        def enumerated(*args):
            raise AssertionError("enumerated past the load-cell limit")

        monkeypatch.setattr(oracle_mod, "_altered_windows", enumerated)
        with pytest.raises(ValueError, match="too large.*16000 assignments on a 8000-slot grid"):
            brute_force_max_cost(wide(8000), QUAD)

    def test_chunked_enumeration_matches_small_path(self, monkeypatch):
        # 531,441 assignments on a 19-slot grid, in batches of 862 rows and then of 1000
        jobs = [Job(i, 1 + 2 * i, 1 + 2 * i + 8, 1.0 + 0.1 * i) for i in range(6)]
        inst = Instance(jobs)
        value = brute_force_max_cost(inst, QUAD)
        monkeypatch.setattr(oracle_mod, "_TABLE_CELLS", 19 * 1000)
        assert brute_force_max_cost(inst, QUAD) == value


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

    def test_negative_budget_rejected(self):
        inst = Instance([Job(0, 1, 3, 2.0), Job(1, 2, 4, 1.0)])
        with pytest.raises(ValueError, match="budget must be non-negative"):
            exact_limited_attack_curve(inst, QUAD, -1)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            limited_attack_curve(inst, QUAD, -1)
        with pytest.raises(ValueError, match="budget must be non-negative"):
            exact_limited_attack_curve(Instance([]), QUAD, -1)


def elementary_sum(sizes: list[int], cap: int) -> int:
    """e_0 + ... + e_cap of the window sizes: the (altered set, compression) pairs of budget cap."""
    coeffs = [1] + [0] * cap
    for size in sizes:
        for k in range(cap, 0, -1):
            coeffs[k] += coeffs[k - 1] * size
    return sum(coeffs)


class TestExactCurveBatched:
    """The batched peel against the loop that peels one altered instance at a time."""

    def test_equals_reference_loop_exactly(self):
        rng = np.random.default_rng(36)
        instances = [random_instance(rng, max_jobs=5, max_window=3) for _ in range(4)]
        instances += [random_instance_in_horizon(rng, 5, 6, max_window=3) for _ in range(4)]  # arrivals collide
        # three one-slot jobs: the sets holding one are skipped, and the loop still enumerates them
        instances.append(
            Instance([Job(0, 1, 1, 2.0), Job(1, 1, 3, 1.5), Job(2, 2, 2, 3.0), Job(3, 3, 5, 1.0), Job(4, 5, 5, 2.5)])
        )
        for exponent in (1.0, 1.5, 2.0, 2.5, 3.0):
            cost = CostModel(exponent)
            for inst in instances:
                # the loop's curve for budget m is the first m + 1 entries of its full curve
                reference = reference_exact_limited_attack_curve(inst, cost)
                for max_budget in (0, 1, inst.n // 2, None):
                    cap = inst.n if max_budget is None else min(max_budget, inst.n)
                    assert exact_limited_attack_curve(inst, cost, max_budget) == reference[: cap + 1]

    def test_empty_and_single_job(self):
        assert exact_limited_attack_curve(Instance([]), QUAD) == [0.0]
        assert exact_limited_attack_curve(Instance([]), QUAD, 3) == [0.0]  # capped at n
        single = Instance([Job(0, 3, 6, 2.5)])
        assert exact_limited_attack_curve(single, QUAD) == [0.625**2 * 4, 6.25]
        assert exact_limited_attack_curve(single, QUAD, 5) == [0.625**2 * 4, 6.25]
        assert exact_limited_attack_curve(single, QUAD, 0) == [min_cost(single, QUAD)]

    def test_one_row_per_batch_matches(self, monkeypatch):
        inst = random_instance(np.random.default_rng(37), max_jobs=5, min_jobs=5, max_window=3)
        expected = exact_limited_attack_curve(inst, CostModel(1.5))
        side = inst.n  # n jobs have at most n points of each kind
        batches = []
        peel_rows = oracle_mod._peel_rows

        def recorded(windows, *args):
            batches.append(windows.shape[1])
            return peel_rows(windows, *args)

        monkeypatch.setattr(oracle_mod, "_TABLE_CELLS", side * side)
        monkeypatch.setattr(oracle_mod, "_peel_rows", recorded)
        assert exact_limited_attack_curve(inst, CostModel(1.5)) == expected
        assert set(batches) == {1}
        # sets holding a one-slot job are not enumerated: they repeat a smaller set's instance
        assert len(batches) == elementary_sum([j.allowance + 1 for j in inst.jobs if j.allowance], inst.n)

    def test_peels_every_enumeration_once(self, monkeypatch):
        peel_rows = oracle_mod._peel_rows
        rows = 0

        def counted(windows, *args):
            nonlocal rows
            rows += windows.shape[1]
            return peel_rows(windows, *args)

        monkeypatch.setattr(oracle_mod, "_peel_rows", counted)
        rng = np.random.default_rng(38)
        for inst in [random_instance(rng, max_jobs=6, max_window=4) for _ in range(5)]:
            sizes = [j.allowance + 1 for j in inst.jobs if j.allowance]
            for cap in (0, 2, inst.n):
                rows = 0
                exact_limited_attack_curve(inst, QUAD, cap)
                assert rows == elementary_sum(sizes, cap)


class TestExactCurveGapped:
    """The peel does not see the length of a run of uncovered slots; the curves do not change."""

    @staticmethod
    def two_clusters(gap: int) -> Instance:
        jobs = []
        for c, base in enumerate((1, 6 + gap)):
            jobs += [Job(3 * c, base, base + 2, 2.0), Job(3 * c + 1, base + 1, base + 3, 1.5)]
            jobs.append(Job(3 * c + 2, base + 2, base + 4, 3.0))
        return Instance(jobs)

    def test_grid_squeezed_and_curve_unchanged(self):
        expected = exact_limited_attack_curve(self.two_clusters(1), QUAD)
        # each cluster spans 5 slots, with 1 or 300 uncovered slots between them
        assert exact_limited_attack_curve(self.two_clusters(300), QUAD) == expected

    def test_equals_reference_loop_exactly(self):
        rng = np.random.default_rng(39)
        for _ in range(4):
            inst = random_instance(rng, max_jobs=5, min_jobs=3, max_gap=8, max_window=3)
            assert exact_limited_attack_curve(inst, QUAD) == reference_exact_limited_attack_curve(inst, QUAD)


class TestExactCurveWideWindows:
    """The rank tables do not grow with window widths: wide windows are solved, not refused."""

    @staticmethod
    def wide(width: int) -> Instance:
        return Instance([Job(0, 1, width, 1.0), Job(1, 2, 3, 1.0)])

    def test_wide_window_solved(self):
        # about 600 altered instances, each on tables of at most 2 x 2 cells
        inst = self.wide(200)
        assert exact_limited_attack_curve(inst, QUAD) == reference_exact_limited_attack_curve(inst, QUAD)

    def test_table_cells_do_not_bound_the_window(self, monkeypatch):
        # two jobs make one row of at most 4 cells, however wide the window
        monkeypatch.setattr(oracle_mod, "_TABLE_CELLS", 4)
        for width in (5, 6, 50):
            inst = self.wide(width)
            assert exact_limited_attack_curve(inst, QUAD) == reference_exact_limited_attack_curve(inst, QUAD)


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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        inst = Instance([Job(1, 1, 3, 6.0)])
        with pytest.raises(ValueError, match=f"got {tol!r}"):
            check_min_optimality(inst, Schedule(inst, {(1, 1): 6.0}), QUAD, tol=tol)

    def test_widest_window_costs_its_occupied_slots(self):
        # a slot-by-slot walk of this window would visit 2^62 slots
        width = 2**62 - 10
        inst = Instance([Job(1, 1, width, 0.05), Job(2, width + 5, width + 5, 1e6)])
        schedule = baseline_schedule(inst)
        with within_seconds(1):
            # the gap tolerance (1e-7 of the largest load) is above slot 1's load, so no slot beats it
            assert check_min_optimality(inst, schedule, QUAD) == MinOptimalityResult(True)
            # at tolerance 0 the first unoccupied slot of the window is the witness
            assert check_min_optimality(inst, schedule, QUAD, tol=0.0).witness == ((1, 1, 2),)

    def test_wide_window_certifies_in_time_with_the_same_verdict(self):
        # each search once expanded the one mover again from each of its slots: over 1 s at 4,000 slots, growing as W^2
        width = 20_000
        inst = Instance([Job(1, 1, width, width / 2)])
        flat = schedule_optimal_offline(inst)
        with within_seconds(0.5):
            assert check_min_optimality(inst, flat, QUAD) == MinOptimalityResult(True)
        assert check_min_optimality(inst, flat, QUAD, tol=0.0) == MinOptimalityResult(True)
        rest = width / 4 / (width - 1)
        heavy = Schedule(inst, {(1, 1): width / 4, **{(1, slot): rest for slot in range(2, width + 1)}})
        assert check_min_optimality(inst, heavy, QUAD).witness == ((1, 1, 2),)

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
