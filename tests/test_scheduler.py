"""Controller strategies: critical intervals, recorded peel results, EDF fill, optimal and even schedules."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from gridsched import scheduler
from gridsched.attacker import full_attack_dp, online_edf_attack, realized_attack_cost
from gridsched.harness import GenParams, generate_instance, make_identical_instance
from gridsched.model import (
    AttackPlan,
    CostModel,
    Instance,
    Job,
    Schedule,
    _job_arrays,
    apply_attack,
    baseline_cost,
    evaluate_cost,
)
from gridsched.oracle import check_min_optimality
from gridsched.scheduler import (
    _critical_rows,
    _peel,
    edf_fill,
    min_cost,
    optimal_load_segments,
    schedule_online_even,
    schedule_optimal_offline,
)

from helpers import (
    component_points,
    exact_min_cost,
    intensity,
    random_instance,
    random_instance_in_horizon,
    reference_cost,
    reference_critical_arrays,
    reference_online_even,
    reference_peel,
    spread_out,
    within_seconds,
)

QUAD = CostModel(2.0)


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


def critical(inst: Instance) -> tuple[int, int, float, frozenset[int]]:
    """(start, end, level, member ids) of the instance's first critical interval, by the endpoint reference.

    The first round of ``_critical_rows`` on the instance as one row must
    give the reference's interval, level and members exactly.
    """
    ids, arrivals, deadlines, energies = _job_arrays(inst)
    start, end, level, mask = reference_critical_arrays(arrivals, deadlines, energies)
    first_round = _critical_rows(np.array((arrivals, deadlines))[:, None], energies[None])
    _, got_start, got_end, got_level, member, _ = next(first_round)
    assert (got_start.tolist(), got_end.tolist(), got_level.tolist()) == ([start], [end], [level])
    assert np.array_equal(member[0], mask)
    return start, end, level, frozenset(ids[mask].tolist())


class TestCriticalInterval:
    def test_two_job_example(self):
        start, end, level, members = critical(two_job_instance())
        assert (start, end) == (1, 3)
        assert level == pytest.approx(4 / 3)
        assert members == frozenset({1, 2})
        assert end - start + 1 == 3

    def test_single_job(self):
        start, end, level, _ = critical(Instance([Job(1, 3, 3, 5.0)]))
        assert (start, end, level) == (3, 3, 5.0)

    def test_peak_beats_spread(self):
        start, end, level, _ = critical(Instance([Job(1, 1, 1, 10.0), Job(2, 5, 9, 1.0)]))
        assert (start, end) == (1, 1)
        assert level == pytest.approx(10.0)

    def test_ties_to_smallest_start_then_end(self):
        # [1, 1], [1, 2], [1, 3], [2, 2], [2, 3] and [3, 3] all reach 2.0
        inst = Instance([Job(1, 1, 1, 2.0), Job(2, 2, 2, 2.0), Job(3, 3, 3, 2.0)])
        assert critical(inst) == (1, 1, 2.0, frozenset({1}))

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError):
            critical(Instance([]))

    def test_matches_exhaustive_endpoint_search(self):
        rng = np.random.default_rng(21)
        for _ in range(80):
            inst = random_instance(rng, max_jobs=7)
            start, end, level, _ = critical(inst)
            points = inst.endpoints()
            best = max(
                (intensity(inst, k, l), -k, -l)
                for k in points
                for l in points
                if k <= l
            )
            assert level == pytest.approx(best[0], abs=1e-12)
            assert (start, end) == (-best[1], -best[2])


def fill_items(ids: np.ndarray, slots: np.ndarray, amounts: np.ndarray) -> dict[tuple[int, int], float]:
    """``edf_fill``'s entry arrays, checked for their dtypes, as a (job id, slot) -> amount dict in fill order."""
    assert (ids.dtype, slots.dtype, amounts.dtype) == (np.int64, np.int64, np.float64)
    return dict(zip(zip(ids.tolist(), slots.tolist()), amounts.tolist()))


class TestEdfFill:
    def test_hand_simulated_split(self):
        jobs = [Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)]
        alloc = fill_items(*edf_fill(*_job_arrays(Instance(jobs)), 1, 3, 4 / 3))
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
        alloc = fill_items(*edf_fill(*_job_arrays(Instance([Job(1, 1, 2, 4.0)])), 1, 2, 2.0))
        assert alloc == {(1, 1): 2.0, (1, 2): 2.0}

    def test_single_slot_pair(self):
        alloc = fill_items(*edf_fill(*_job_arrays(Instance([Job(1, 1, 1, 1.0), Job(2, 1, 1, 1.0)])), 1, 1, 2.0))
        assert alloc == {(1, 1): 1.0, (2, 1): 1.0}

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError, match="contained"):
            edf_fill(*_job_arrays(Instance([Job(1, 1, 4, 2.0)])), 1, 3, 2 / 3)

    def test_inconsistent_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            edf_fill(*_job_arrays(Instance([Job(1, 1, 2, 2.0)])), 1, 2, 5.0)

    def test_infeasible_input_reported(self):
        # level is consistent but the first slot cannot be filled
        with pytest.raises(RuntimeError):
            edf_fill(*_job_arrays(Instance([Job(1, 3, 3, 3.0)])), 1, 3, 1.0)


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

    @pytest.mark.parametrize(
        "jobs",
        [
            # jobs 0 and 1 each finish up to fill_tol over a slot's level, so slot 3 gets less
            [Job(0, 1, 3, 1 + 9e-10), Job(1, 1, 3, 1 + 9e-10), Job(2, 1, 3, 1 - 1.8e-9)],
            # slots 1 and 3 each end up to fill_tol under the level, so slot 2 gets more
            [Job(0, 1, 1, 200.0), Job(1, 3, 3, 200.0), Job(2, 1, 3, 200.0000003026706)],
        ],
    )
    def test_what_a_slot_ends_over_or_under_its_level_carries_on(self, jobs):
        sched = schedule_optimal_offline(Instance(jobs), QUAD)
        level = sum(job.energy for job in jobs) / 3
        assert sched.slot_loads() == pytest.approx({1: level, 2: level, 3: level}, rel=2e-9)

    def test_min_cost_matches_schedule(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            inst = random_instance(rng, max_jobs=9)
            sched = schedule_optimal_offline(inst, QUAD)
            assert min_cost(inst, QUAD) == pytest.approx(evaluate_cost(sched, QUAD), rel=1e-12)

    def test_min_cost_within_rounding_of_the_exact_peel(self):
        """min_cost lies within k n eps of the exact minimum, relative to it, with k = 4.

        eps is the float64 machine epsilon.  On 2,400 draws of this kind
        (n <= 10) the worst was 1.6 n eps off, at exponent 3.
        """
        rng = np.random.default_rng(59)
        for exponent in (1, 2, 3):
            cost = CostModel(exponent)
            instances = [random_instance(rng, max_jobs=10, max_gap=2, max_window=6) for _ in range(25)]
            instances += [random_instance_in_horizon(rng, 10, 8, max_window=6) for _ in range(25)]
            for inst in instances:
                exact = exact_min_cost(inst, exponent)
                bound = 4 * inst.n * Fraction(np.finfo(float).eps) * exact
                assert abs(Fraction(min_cost(inst, cost)) - exact) <= bound

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

    def test_tiny_energies_are_served_and_checked(self):
        # energies of 1e-10 once fell under absolute floors: the fill served nothing, and no check noticed
        inst = Instance([Job(1, 1, 2, 1e-10), Job(2, 2, 3, 3e-10)])
        sched = schedule_optimal_offline(inst, QUAD)
        assert sched.allocations == {(2, 2): 1.5e-10, (2, 3): 1.5e-10, (1, 1): 1e-10}
        assert evaluate_cost(sched, QUAD) == min_cost(inst, QUAD) == pytest.approx(5.5e-20, rel=1e-15)
        assert check_min_optimality(inst, sched, QUAD).optimal
        with pytest.raises(ValueError, match="job 1: allocated 0.0 does not conserve energy 1e-10"):
            Schedule(inst, {})
        # job 1 can move from slot 2, loaded 4e-10, to the empty slot 1
        stacked = Schedule(inst, {(1, 2): 1e-10, (2, 2): 3e-10})
        assert check_min_optimality(inst, stacked, QUAD).witness == ((2, 1, 1),)
        realized = realized_attack_cost(inst, AttackPlan({1: 2}), QUAD)
        assert realized == pytest.approx(min_cost(apply_attack(inst, AttackPlan({1: 2})), QUAD), rel=1e-15)
        assert realized == pytest.approx(8e-20, rel=1e-15)

    def test_a_job_far_below_the_fill_tolerance_is_served(self):
        # job 1 leaves each slot within 1e-12 of the level, under fill_tol; job 2's 1e-12 must still fit there
        inst = Instance([Job(1, 1, 2, 2.0), Job(2, 1, 2, 1e-12)])
        sched = schedule_optimal_offline(inst, QUAD)
        assert sched.allocations[(2, 2)] == 1e-12
        assert sched.allocations[(1, 1)] + sched.allocations[(1, 2)] == pytest.approx(2.0, rel=1e-15)
        assert evaluate_cost(sched, QUAD) == pytest.approx(min_cost(inst, QUAD), rel=1e-15)
        assert check_min_optimality(inst, sched, QUAD).optimal
        plan = AttackPlan({2: 1})
        assert realized_attack_cost(inst, plan, QUAD) == pytest.approx(min_cost(apply_attack(inst, plan), QUAD), rel=1e-15)

    @pytest.mark.parametrize(
        "jobs",
        [
            [Job(1, 1, 7000, 1.3)],
            [Job(1, 1, 8000, 1.0)],
            [Job(1, 1, 32768, 1.0), Job(2, 16385, 32770, 1.3)],
            [Job(1, 1, 2**16, 1.3)],
            [Job(1, 1, 2**16, 1e-300), Job(2, 2**15, 2**16, 7e-301)],
            [Job(1, 1, 2**16 - 3, 1e6)],
        ],
        ids=["width-7000", "width-8000", "two-jobs-32770", "width-2^16", "width-2^16-tiny", "width-2^16-large"],
    )
    def test_wide_windows_are_served_and_conserved(self, jobs):
        # one plain subtraction per slot drifted the rest like width * eps * energy, past fill_tol
        inst = Instance(jobs)
        sched = schedule_optimal_offline(inst, QUAD)  # Schedule checks that every job is conserved
        width = max(j.deadline for j in jobs) - min(j.arrival for j in jobs) + 1
        assert len(sched.allocations) >= width
        # the cost adds one term per slot, so it may round up to width * eps away from min_cost
        assert evaluate_cost(sched, CostModel(1.5)) == pytest.approx(
            min_cost(inst, CostModel(1.5)), rel=4 * width * 2.0**-52
        )

    def test_certified_optimal_on_randoms(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            inst = random_instance_in_horizon(rng, max_jobs=10, horizon=15)
            sched = schedule_optimal_offline(inst, QUAD)
            assert check_min_optimality(inst, sched, QUAD, tol=1e-7).optimal


def _digest(value) -> str:
    """sha256 of repr: floats repr exactly, so equal digests mean bit-identical values."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestPeelPinned:
    """Exact peel results, recorded once; any change to the peel's arithmetic shows here."""

    def test_generated_n100(self):
        inst = generate_instance(GenParams(100, 3.0, 10.0, 1.0, 5.0, seed=2024))
        assert min_cost(inst, QUAD) == 376.89563410265936
        assert min_cost(inst, CostModel(1.5)) == 333.34848025873686
        segments = optimal_load_segments(inst)
        assert len(segments) == 35
        assert _digest(segments) == "f70735cc54c25c518bef9a5596d23f0d5b8a4cd5fc751f8b41263f5b20acdcad"
        allocations = sorted(schedule_optimal_offline(inst, QUAD).allocations.items())
        assert len(allocations) == 363
        assert _digest(allocations) == "ae7c303bed05c1a0994a71ede8ec63413beab0d640da545321f4cdf5c9dc6a5f"

    def test_colliding_arrivals(self):
        inst = random_instance_in_horizon(np.random.default_rng(7), max_jobs=14, horizon=8, max_window=4)
        assert [j.arrival for j in inst.jobs] == [1, 1, 1, 2, 3, 3, 3, 5, 6, 7, 7, 8, 8, 8]
        assert min_cost(inst, QUAD) == 250.61555027105004
        assert min_cost(inst, CostModel(1.5)) == 102.09693266725608
        assert optimal_load_segments(inst) == [
            (1, 9.674459351258083), (1, 5.563860865495217), (6, 4.583736445327035),
        ]
        assert sorted(schedule_optimal_offline(inst, QUAD).allocations.items()) == [
            ((0, 6), 4.1027427609807745), ((1, 8), 1.9008287599623674), ((2, 1), 0.5692755188577672),
            ((2, 2), 3.9249382627272804), ((3, 8), 4.284913673531065), ((4, 1), 2.871739811374883),
            ((5, 7), 2.1137024484030933), ((6, 4), 2.7803052235305863), ((7, 3), 3.21398940829797),
            ((8, 5), 4.170647676855012), ((9, 8), 3.4887169177646506), ((10, 4), 0.9671523401241116),
            ((10, 5), 0.413088768472023), ((10, 6), 0.4809936843462612), ((11, 7), 3.450158417092123),
            ((12, 1), 1.1427211150943846), ((13, 2), 0.6587981825997544), ((13, 3), 1.369747037029065),
            ((13, 4), 0.836278881672337),
        ]


class TestOptimalSchedulePinned:
    """The optimal schedule's items in insertion order, recorded once; any change to the fill or the slot map shows here."""

    @staticmethod
    def items_digest(inst: Instance) -> str:
        return _digest(list(schedule_optimal_offline(inst).allocations.items()))

    def test_generated_n100_and_its_online_attack(self):
        inst = generate_instance(GenParams(100, 5.0, 50.0, 1.0, 5.0, seed=17))
        assert self.items_digest(inst) == "4806a6ed856f9cf25f47bd74c4df90a985126122ac29966f4e55d66789d14a66"
        plan, _, _ = online_edf_attack(inst, QUAD)
        attacked = apply_attack(inst, plan)
        assert len(component_points(attacked)) == 23
        assert self.items_digest(attacked) == "f5ba887a539a1cc07be735e9b7a4dadfc444c927ac4c6c1d6641b68413a3072e"

    def test_gapped_draw_shifted_far(self):
        inst = spread_out(generate_instance(GenParams(60, 6.0, 3.0, 1.0, 5.0, seed=17)), 10**7, 100)
        assert len(component_points(inst)) == 19 and inst.jobs[0].arrival > 10**7
        assert self.items_digest(inst) == "8f7e49a15b6c952c61960d4cce538640c054fbb4dd275af880b574c1a6e03659"


def assert_peel_matches_reference(inst: Instance) -> int:
    """_peel's yields equal the rebuild-every-round reference exactly; returns the interval count."""
    arrays = _job_arrays(inst)[1:]
    peeled = list(_peel(*arrays))
    expected = list(reference_peel(*arrays))
    assert len(peeled) == len(expected)
    for got, want in zip(peeled, expected):
        assert got[:3] == want[:3]
        for got_array, want_array in zip(got[3:], want[3:]):
            assert np.array_equal(got_array, want_array)
    return len(peeled)


class TestPeelKeptTables:
    """The kept tables recompute only what a cut changes, so every yield equals a full rebuild's."""

    def test_small_instances_on_kept_tables(self, monkeypatch):
        # with the size switch at 0 every round runs on the kept tables, so the
        # rectangle's edge cases come up: no new point at start - 1 or start,
        # start the last arrival point, the rectangle at column 0
        monkeypatch.setattr(scheduler, "_INCREMENTAL_MIN_POINTS", 0)
        rng = np.random.default_rng(20)
        for k in range(1000):
            if k % 2:
                inst = random_instance(rng, max_jobs=12)
            else:
                inst = random_instance_in_horizon(rng, max_jobs=14, horizon=10, max_window=5)
            assert_peel_matches_reference(inst)

    @pytest.mark.parametrize("switch", [0, 10**9])
    def test_equal_energies_tie(self, monkeypatch, switch):
        # unit energies make many intervals reach the same level; each round
        # takes the row-major first maximum, on kept tables and on rebuilds
        monkeypatch.setattr(scheduler, "_INCREMENTAL_MIN_POINTS", switch)
        rng = np.random.default_rng(23)
        for _ in range(100):
            assert_peel_matches_reference(
                random_instance_in_horizon(rng, max_jobs=12, horizon=8, max_window=4, energy_low=1.0, energy_high=1.0)
            )

    def test_cut_edge_cases(self, monkeypatch):
        # every round on the kept tables, and each edge case of a cut [s, e] seen:
        # a clamped arrival making row s, a clamped deadline making column s - 1,
        # both from one old point, the rectangle at column 0, no row below row s
        monkeypatch.setattr(scheduler, "_INCREMENTAL_MIN_POINTS", 0)
        seen = dict.fromkeys(("row s", "column s - 1", "one point", "column 0", "no row below"), 0)
        excise = scheduler._excise

        def recorded(windows, start, end):
            arrivals, deadlines = windows
            clamped_a = arrivals[(arrivals > start) & (arrivals <= end)]
            clamped_d = deadlines[(deadlines >= start) & (deadlines <= end)]
            seen["row s"] += clamped_a.size > 0
            seen["column s - 1"] += clamped_d.size > 0
            seen["one point"] += np.intersect1d(clamped_a, clamped_d).size > 0
            seen["column 0"] += bool(deadlines.min() >= start - 1)
            seen["no row below"] += bool(arrivals.max() <= end + 1)
            return excise(windows, start, end)

        monkeypatch.setattr(scheduler, "_excise", recorded)
        rng = np.random.default_rng(22)
        for _ in range(150):
            assert_peel_matches_reference(random_instance_in_horizon(rng, max_jobs=16, horizon=9, max_window=6))
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("switch", [0, scheduler._INCREMENTAL_MIN_POINTS])
    @pytest.mark.parametrize("shift", [2**53, 2**60])
    def test_slots_past_float_precision(self, monkeypatch, switch, shift):
        # spans are differences of int64 slots: a slot past 2^53 has no exact float
        inst = generate_instance(GenParams(100, 3.0, 10.0, 1.0, 5.0, seed=2024))
        monkeypatch.setattr(scheduler, "_INCREMENTAL_MIN_POINTS", switch)
        far = Instance(Job(j.id, j.arrival + shift, j.deadline + shift, j.energy) for j in inst.jobs)
        assert assert_peel_matches_reference(far) == 35
        assert min_cost(far, QUAD) == min_cost(inst, QUAD) == 376.89563410265936

    @pytest.mark.parametrize("low, high", [(1.0, 5.0), (1e5, 1e6)])
    def test_generated_n400_and_its_online_attack(self, low, high):
        inst = generate_instance(GenParams(400, 5.0, 20.0, low, high, seed=3))
        assert max(component_points(inst)) >= scheduler._INCREMENTAL_MIN_POINTS
        assert assert_peel_matches_reference(inst) > 1
        plan, _, _ = online_edf_attack(inst, QUAD)
        assert_peel_matches_reference(apply_attack(inst, plan))

    def test_kept_tables_to_the_last_round(self, monkeypatch):
        # a large component stays on its kept tables down to its last job
        inst = generate_instance(GenParams(100, 3.0, 10.0, 1.0, 5.0, seed=2024))
        points = component_points(inst)
        assert len(points) == 1 and points[0] >= scheduler._INCREMENTAL_MIN_POINTS
        cuts = []

        def rebuilt(windows, energies):
            raise AssertionError("a large component's rounds are rebuilt")

        class Kept(scheduler._PeelTables):
            def cut(self, *args):
                cuts.append(args[:2])
                return super().cut(*args)

        monkeypatch.setattr(scheduler, "_critical_rows", rebuilt)
        monkeypatch.setattr(scheduler, "_PeelTables", Kept)
        segments = assert_peel_matches_reference(inst)
        assert len(cuts) == segments - 1


class TestPeelComponents:
    """Each run of jobs between uncovered slots is peeled alone; the merged yields equal the whole peel's."""

    def test_identical_components_leftmost_first(self):
        # equal levels everywhere: ties go to the leftmost component
        inst = make_identical_instance(6, 2.0, 3, 6)
        assert component_points(inst) == [2] * 6
        assert_peel_matches_reference(inst)
        assert [picked.tolist() for _, _, _, picked, *_ in _peel(*_job_arrays(inst)[1:])] == [[k] for k in range(6)]
        twice = Instance([*inst.jobs, *(Job(j.id + 6, j.arrival + 1, j.deadline + 1, j.energy) for j in inst.jobs)])
        assert component_points(twice) == [4] * 6
        assert_peel_matches_reference(twice)

    def test_wide_gaps_and_far_shift(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            inst = random_instance(rng, max_jobs=10, max_gap=8, max_window=4)
            far = spread_out(inst, 10**12, 10**6)
            assert_peel_matches_reference(far)
            # widths, levels and members do not see the gaps' lengths or the offset
            near = [(e - s, level, picked.tolist()) for s, e, level, picked, *_ in _peel(*_job_arrays(inst)[1:])]
            assert [(e - s, level, picked.tolist()) for s, e, level, picked, *_ in _peel(*_job_arrays(far)[1:])] == near

    def test_online_attacked_n400(self):
        inst = generate_instance(GenParams(400, 5.0, 5.0, 1.0, 5.0, seed=3))
        plan, _, _ = online_edf_attack(inst, QUAD)
        attacked = apply_attack(inst, plan)
        assert len(component_points(attacked)) > 200
        assert_peel_matches_reference(attacked)

    @pytest.mark.parametrize("switch", [0, scheduler._INCREMENTAL_MIN_POINTS])
    def test_no_table_wider_than_a_component(self, monkeypatch, switch):
        monkeypatch.setattr(scheduler, "_INCREMENTAL_MIN_POINTS", switch)
        widths = []

        def rebuilt(windows, energies):
            # a batch's tables are as wide as its widest row's live points, at the first round
            widths.append(max(np.unique(w[:, live]).size for w, live in zip(windows.swapaxes(0, 1), energies > 0)))
            return _critical_rows(windows, energies)

        class Kept(scheduler._PeelTables):
            def __init__(self, starts, ends, *args):
                widths.append(np.union1d(starts, ends).size)
                super().__init__(starts, ends, *args)

        monkeypatch.setattr(scheduler, "_critical_rows", rebuilt)
        monkeypatch.setattr(scheduler, "_PeelTables", Kept)
        inst = generate_instance(GenParams(200, 5.0, 5.0, 1.0, 5.0, seed=3))
        min_cost(inst, QUAD)
        assert widths and max(widths) <= max(component_points(inst)) < len(inst.endpoints()) // 10


class TestCriticalRows:
    """One batch of rows of mixed sizes, padded: each row's rounds equal its own peel's."""

    @staticmethod
    def rows() -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(40)
        rows = [_job_arrays(random_instance_in_horizon(rng, 12, 8, max_window=4))[1:] for _ in range(4)]
        rows.append((np.ones(300, np.int64), np.full(300, 3), rng.uniform(1.0, 5.0, 300)))  # colliding windows
        _, arrivals, deadlines, energies = _job_arrays(generate_instance(GenParams(40, 3.0, 5.0, 1.0, 5.0, seed=7)))
        rows.append((arrivals + 2**60, deadlines + 2**60, energies))
        big = 2**53  # one component whose window spans more than 2^53 slots
        rows.append(
            (np.array([1, 5, 9, big // 2, 3]), np.array([big + 7, 6, 9, big // 2 + 1, big + 7]),
             np.array([3.0, 2.0, 1.5, 4.0, 0.5]))
        )
        return rows

    def test_mixed_batch_equals_each_rows_peel(self):
        rows = self.rows()
        width = max(a.size for a, _, _ in rows) + 3
        rng = np.random.default_rng(41)
        windows = rng.integers(1, 2**62, (2, len(rows), width))  # the padding's windows: anything
        energies = np.zeros((len(rows), width))  # padding weighs +0.0
        columns = []
        for r, (arrivals, deadlines, row_energies) in enumerate(rows):
            cols = np.sort(rng.choice(width, arrivals.size, replace=False))  # padding before, between and after
            windows[:, r, cols] = arrivals, deadlines
            energies[r, cols] = row_energies
            columns.append(cols)
        got = [[] for _ in rows]
        for todo, start, end, level, member, found in _critical_rows(windows, energies):
            for q, r in enumerate(todo.tolist()):
                got[r].append((start[q], end[q], level[q], np.flatnonzero(member[q]), found[:, q, member[q]]))
        for r, (arrivals, deadlines, row_energies) in enumerate(rows):
            expected = list(reference_peel(arrivals, deadlines, row_energies))
            assert len(got[r]) == len(expected) > 0
            for (start, end, level, cols, found), (*want, picked, want_a, want_d) in zip(got[r], expected):
                assert (start, end, level) == tuple(want)
                assert np.array_equal(cols, columns[r][picked])
                assert np.array_equal(found, [want_a, want_d])

    def test_table_grows_with_points_not_jobs(self, monkeypatch):
        arrivals, deadlines, energies = self.rows()[4]
        sizes = []
        bincount = np.bincount

        def recorded(*args, minlength=0, **kwargs):
            sizes.append(minlength)
            return bincount(*args, minlength=minlength, **kwargs)

        monkeypatch.setattr(np, "bincount", recorded)
        rounds = list(_critical_rows(np.array((arrivals, deadlines))[:, None], energies[None]))
        # 300 jobs in [1, 3]: one arrival point by one deadline point, and the front row and column
        assert len(rounds) == 1 and sizes == [2 * 2]


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

    def test_allocations_and_order_match_reference(self):
        rng = np.random.default_rng(13)
        instances = [random_instance(rng, max_jobs=9) for _ in range(30)]
        instances += [random_instance_in_horizon(rng, 12, 6) for _ in range(30)]
        instances.append(generate_instance(GenParams(60, 3.0, 10.0, 1, 5, seed=4)))
        for inst in instances:
            expected = reference_online_even(inst)
            assert list(schedule_online_even(inst).allocations.items()) == list(expected.items())


class TestEvenCost:
    """The even spread's cost is bit for bit the reference spread's."""

    @staticmethod
    def assert_exact(inst: Instance, cost: CostModel) -> None:
        assert evaluate_cost(schedule_online_even(inst), cost) == reference_cost(reference_online_even(inst), cost)

    def test_generator_draws(self):
        for exponent in (1.0, 1.5, 2.0, 3.0):
            for seed in range(3):
                self.assert_exact(generate_instance(GenParams(50, 3.0, 15.0, 1, 5, seed=seed)), CostModel(exponent))

    def test_energy_scales(self):
        for low, high in ((1, 5), (1e5, 1e6), (1e11, 1e12)):
            for seed in range(3):
                self.assert_exact(generate_instance(GenParams(40, 2.0, 10.0, low, high, seed=seed)), QUAD)

    def test_colliding_arrivals(self):
        rng = np.random.default_rng(14)
        for exponent in (1.5, 2.0):
            for _ in range(40):
                self.assert_exact(random_instance_in_horizon(rng, 12, 6), CostModel(exponent))

    def test_scalar_pow_on_a_single_slot(self):
        # Python's scalar ** and numpy's array ** round this square differently
        load = 12.428327649956394
        assert load**2.0 != (np.array([load]) ** 2.0)[0]
        inst = Instance([Job(0, 3, 3, load)])
        assert evaluate_cost(schedule_online_even(inst), QUAD) == load**2.0
        self.assert_exact(inst, QUAD)

    def test_empty_instance(self):
        assert evaluate_cost(schedule_online_even(Instance([])), QUAD) == 0.0


class TestEntryBound:
    """Schedules and even spreads past ``_MAX_ENTRIES`` entries are refused before any is built."""

    def test_window_one_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(scheduler, "_MAX_ENTRIES", 10)
        # the optimal schedule counts covered slots plus jobs, the even spread its window widths
        inst = Instance([Job(1, 5, 14, 6.0)])
        with pytest.raises(ValueError, match="optimal schedule would hold up to 11 entries, over the 10 allowed"):
            schedule_optimal_offline(inst)
        assert len(schedule_online_even(inst).allocations) == 10
        assert len(schedule_optimal_offline(Instance([Job(1, 5, 13, 6.0)])).allocations) == 9
        wider = Instance([Job(1, 5, 15, 6.0)])
        with pytest.raises(ValueError, match="even spread would hold 11 entries, over the 10 allowed"):
            schedule_online_even(wider)

    def test_widest_windows(self):
        top = 2**63 - 1
        inst = Instance([Job(1, 1, top, 6.0)])
        with within_seconds(1.0), pytest.raises(ValueError, match=f"up to {top + 1} entries"):
            schedule_optimal_offline(inst)
        # the widths add past int64
        with pytest.raises(ValueError, match=f"hold {2 * top} entries"):
            schedule_online_even(Instance([Job(1, 1, top, 6.0), Job(2, 1, top, 6.0)]))
        assert min_cost(inst, QUAD) == pytest.approx(36.0 / top, rel=1e-12)
        assert full_attack_dp(inst, QUAD)[2] == 36.0
