"""Controller strategies: intensity, critical intervals, EDF fill, optimal and even schedules."""

import numpy as np
import pytest

from gridsched.harness import GenParams, generate_instance
from gridsched.model import CostModel, Instance, Job, baseline_cost, evaluate_cost
from gridsched.oracle import check_min_optimality
from gridsched.scheduler import (
    compute_intensity,
    critical_interval,
    edf_fill,
    min_cost,
    optimal_load_segments,
    schedule_online_even,
    schedule_optimal_offline,
)

from helpers import random_instance, random_instance_in_horizon

QUAD = CostModel(2.0)


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


class TestComputeIntensity:
    def test_examples(self):
        inst = two_job_instance()
        assert compute_intensity(inst, 1, 3) == pytest.approx(4 / 3)
        assert compute_intensity(inst, 1, 2) == pytest.approx(1.0)
        assert compute_intensity(inst, 5, 9) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            compute_intensity(two_job_instance(), 3, 1)


class TestCriticalInterval:
    def test_two_job_example(self):
        ci = critical_interval(two_job_instance())
        assert (ci.start, ci.end) == (1, 3)
        assert ci.intensity == pytest.approx(4 / 3)
        assert ci.members == frozenset({1, 2})
        assert ci.width == 3

    def test_single_job(self):
        ci = critical_interval(Instance([Job(1, 3, 3, 5.0)]))
        assert (ci.start, ci.end, ci.intensity) == (3, 3, 5.0)

    def test_peak_beats_spread(self):
        ci = critical_interval(Instance([Job(1, 1, 1, 10.0), Job(2, 5, 9, 1.0)]))
        assert (ci.start, ci.end) == (1, 1)
        assert ci.intensity == pytest.approx(10.0)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError):
            critical_interval(Instance([]))

    def test_matches_exhaustive_endpoint_search(self):
        rng = np.random.default_rng(21)
        for _ in range(80):
            inst = random_instance(rng, max_jobs=7)
            ci = critical_interval(inst)
            points = inst.endpoints()
            best = max(
                (compute_intensity(inst, k, l), -k, -l)
                for k in points
                for l in points
                if k <= l
            )
            assert ci.intensity == pytest.approx(best[0], abs=1e-12)
            assert (ci.start, ci.end) == (-best[1], -best[2])


class TestEdfFill:
    def test_hand_simulated_split(self):
        jobs = [Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)]
        alloc = edf_fill(jobs, 1, 3, 4 / 3)
        assert alloc[(1, 1)] == pytest.approx(4 / 3)
        assert alloc[(1, 2)] == pytest.approx(2 / 3)
        assert alloc[(2, 2)] == pytest.approx(2 / 3)
        assert alloc[(2, 3)] == pytest.approx(4 / 3)
        assert (1, 3) not in alloc and (2, 1) not in alloc
        loads = {}
        for (_, slot), amount in alloc.items():
            loads[slot] = loads.get(slot, 0.0) + amount
        assert all(v == pytest.approx(4 / 3) for v in loads.values())

    def test_forced_even_split(self):
        alloc = edf_fill([Job(1, 1, 2, 4.0)], 1, 2, 2.0)
        assert alloc == {(1, 1): 2.0, (1, 2): 2.0}

    def test_single_slot_pair(self):
        alloc = edf_fill([Job(1, 1, 1, 1.0), Job(2, 1, 1, 1.0)], 1, 1, 2.0)
        assert alloc == {(1, 1): 1.0, (2, 1): 1.0}

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError, match="contained"):
            edf_fill([Job(1, 1, 4, 2.0)], 1, 3, 2 / 3)

    def test_inconsistent_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            edf_fill([Job(1, 1, 2, 2.0)], 1, 2, 5.0)

    def test_infeasible_input_reported(self):
        # level is consistent but the first slot cannot be filled
        with pytest.raises(RuntimeError):
            edf_fill([Job(1, 3, 3, 3.0)], 1, 3, 1.0)


class TestScheduleOptimalOffline:
    def test_two_job_example(self):
        inst = two_job_instance()
        sched = schedule_optimal_offline(inst, QUAD)
        assert evaluate_cost(sched, QUAD) == pytest.approx(16 / 3)
        loads = sched.slot_loads()
        assert sorted(loads) == [1, 2, 3]
        assert all(v == pytest.approx(4 / 3) for v in loads.values())

    def test_single_job_even_spread(self):
        sched = schedule_optimal_offline(Instance([Job(1, 1, 4, 4.0)]), QUAD)
        assert sched.slot_loads() == pytest.approx({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
        assert evaluate_cost(sched, QUAD) == pytest.approx(4.0)

    def test_no_freedom(self):
        inst = Instance([Job(1, 1, 1, 3.0), Job(2, 10, 10, 1.0)])
        assert evaluate_cost(schedule_optimal_offline(inst, QUAD), QUAD) == pytest.approx(10.0)

    def test_empty_instance(self):
        sched = schedule_optimal_offline(Instance([]), QUAD)
        assert sched.allocations == {}

    def test_min_cost_matches_schedule(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            inst = random_instance(rng, max_jobs=9)
            sched = schedule_optimal_offline(inst, QUAD)
            assert min_cost(inst, QUAD) == pytest.approx(evaluate_cost(sched, QUAD), rel=1e-12)

    def test_profile_matches_segments(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            inst = random_instance(rng, max_jobs=8)
            segments = optimal_load_segments(inst)
            expected = sorted(
                level for width, level in segments for _ in range(width)
            )
            actual = sorted(schedule_optimal_offline(inst).slot_loads().values())
            assert np.allclose(actual, expected, atol=1e-9)

    def test_peel_levels_non_increasing(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            inst = random_instance(rng, max_jobs=9)
            levels = [level for _, level in optimal_load_segments(inst)]
            assert all(levels[i] >= levels[i + 1] - 1e-9 for i in range(len(levels) - 1))

    @pytest.mark.parametrize("low, high", [(1e5, 1e6), (1e7, 1e8), (1e11, 1e12)])
    def test_large_energies_conserve_within_relative_tolerance(self, low, high):
        # float error in the EDF fill grows with the energy scale; conservation is checked relative to it
        for seed in range(2):
            inst = generate_instance(GenParams(200, 2.0, 40.0, low, high, seed))
            sched = schedule_optimal_offline(inst, QUAD)
            assert evaluate_cost(sched, QUAD) <= baseline_cost(inst, QUAD) * (1 + 1e-12)

    def test_certified_optimal_on_randoms(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            inst = random_instance_in_horizon(rng, max_jobs=10, horizon=15)
            sched = schedule_optimal_offline(inst, QUAD)
            assert check_min_optimality(inst, sched, QUAD, tol=1e-7).optimal


class TestScheduleOnlineEven:
    def test_two_job_example(self):
        inst = two_job_instance()
        sched = schedule_online_even(inst)
        assert sched.slot_loads() == pytest.approx({1: 1.0, 2: 2.0, 3: 1.0})
        assert evaluate_cost(sched, QUAD) == pytest.approx(6.0)

    def test_single_slot_window(self):
        sched = schedule_online_even(Instance([Job(1, 2, 2, 5.0)]))
        assert sched.slot_loads() == {2: 5.0}

    def test_ordering_chain(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            inst = random_instance(rng, max_jobs=9)
            optimal = evaluate_cost(schedule_optimal_offline(inst, QUAD), QUAD)
            even = evaluate_cost(schedule_online_even(inst), QUAD)
            assert optimal <= even + 1e-9
            assert optimal <= baseline_cost(inst, QUAD) + 1e-9
