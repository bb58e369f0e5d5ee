"""Domain type invariants, attack application, and cost evaluation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsched.model import (
    AttackPlan,
    CliquePartition,
    CostModel,
    Instance,
    Job,
    Schedule,
    _job_arrays,
    _slot_cost,
    apply_attack,
    baseline_cost,
    evaluate_cost,
    read_instance_csv,
    write_instance_csv,
)

from gridsched.scheduler import schedule_online_even, schedule_optimal_offline

from helpers import (
    baseline_schedule,
    partition_from_blocks,
    random_instance,
    random_instance_in_horizon,
    reference_cost,
    reference_schedule,
)

QUAD = CostModel(2.0)


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


class TestJob:
    def test_fields_and_allowance(self):
        job = Job(3, 2, 5, 1.5)
        assert job.allowance == 3
        assert [job.arrival <= slot <= job.deadline for slot in (2, 5, 6)] == [True, True, False]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(id=-1, arrival=1, deadline=2, energy=1.0),
            dict(id=0, arrival=0, deadline=2, energy=1.0),
            dict(id=0, arrival=3, deadline=2, energy=1.0),
            dict(id=0, arrival=1, deadline=2, energy=0.0),
            dict(id=0, arrival=1, deadline=2, energy=-1.0),
            dict(id=0, arrival=1, deadline=2, energy=math.inf),
            dict(id=2**63, arrival=1, deadline=2, energy=1.0),
            dict(id=0, arrival=1, deadline=2**63, energy=1.0),
            dict(id=0, arrival=2**63, deadline=2**63, energy=1.0),
            # subnormal: ENERGY_TOL * energy underflows, and 5e-324 cannot be split over two slots
            dict(id=0, arrival=1, deadline=3, energy=1e-315),
            dict(id=0, arrival=1, deadline=3, energy=1e-320),
            dict(id=0, arrival=1, deadline=3, energy=5e-324),
        ],
    )
    def test_invalid_jobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Job(**kwargs)

    def test_last_int64_slot_and_id(self):
        from gridsched.attacker import full_attack_dp
        from gridsched.scheduler import min_cost, schedule_optimal_offline

        top = 2**63 - 1
        inst = Instance([Job(top, top - 1, top, 6.0)])
        assert min_cost(inst, QUAD) == 18.0
        assert full_attack_dp(inst, QUAD)[2] == 36.0
        assert schedule_optimal_offline(inst).allocations == {(top, top - 1): 3.0, (top, top): 3.0}


class TestInstance:
    def test_sorted_by_arrival_and_horizon(self):
        inst = Instance([Job(2, 5, 6, 1.0), Job(1, 1, 3, 1.0)])
        assert [j.id for j in inst.jobs] == [1, 2]
        assert inst.horizon == 6
        assert inst.n == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Instance([Job(1, 1, 2, 1.0), Job(1, 3, 4, 1.0)])

    def test_empty_instance_is_legal(self):
        inst = Instance([])
        assert inst.horizon == 0
        assert inst.total_energy == 0.0
        assert inst.endpoints() == ()

    def test_non_jobs_rejected_with_type_error(self):
        with pytest.raises(TypeError, match="expected Job, got int"):
            Instance([1, 2])
        with pytest.raises(TypeError, match="expected Job, got str"):
            Instance([Job(0, 1, 2, 1.0), "x"])

    def test_derived_queries(self):
        inst = two_job_instance()
        assert inst.endpoints() == (1, 2, 3)
        assert inst.allowance_range() == (1, 1)

    def test_job_arrays_built_once_and_read_only(self):
        inst = Instance([Job(7, 2, 4, 1.5), Job(3, 1, 1, 2.0)])
        arrays = _job_arrays(inst)
        assert all(again is first for again, first in zip(_job_arrays(inst), arrays))
        assert [a.tolist() for a in arrays] == [[3, 7], [1, 2], [1, 4], [2.0, 1.5]]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5
            with pytest.raises(ValueError, match="read-only"):
                np.add(array, 1, out=array)


class TestCostModel:
    def test_power_family(self):
        assert QUAD(0.0) == 0.0
        assert QUAD(3.0) == 9.0
        assert CostModel(1.0)(7.5) == 7.5
        assert CostModel(3.0)(5.0) == 125.0

    def test_vectorized(self):
        out = QUAD(np.array([0.0, 2.0, 4.0]))
        assert np.allclose(out, [0.0, 4.0, 16.0])

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            CostModel(0.5)


class TestSchedule:
    def test_conservation_enforced(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="conserve"):
            Schedule(inst, {(1, 1): 1.0, (2, 2): 2.0})

    def test_window_enforced(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="window"):
            Schedule(inst, {(1, 3): 2.0, (2, 2): 2.0})

    def test_negative_rejected(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="negative"):
            Schedule(inst, {(1, 1): 3.0, (1, 2): -1.0, (2, 2): 2.0})

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, amount):
        inst = Instance([Job(0, 1, 2, 1.0)])
        with pytest.raises(ValueError, match="non-finite allocation .* for job 0 at slot 1"):
            Schedule(inst, {(0, 1): amount, (0, 2): 1.0})

    def test_unknown_job_rejected(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="unknown"):
            Schedule(inst, {(9, 1): 1.0, (1, 1): 2.0, (2, 2): 2.0})

    def test_loads_and_job_allocation(self):
        inst = two_job_instance()
        sched = Schedule(inst, {(1, 1): 1.5, (1, 2): 0.5, (2, 2): 2.0})
        assert sched.slot_loads() == {1: 1.5, 2: 2.5}


    def test_allocations_are_a_read_only_view(self):
        inst = Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0), Job(3, 2, 4, 3.0)])
        for sched in (schedule_optimal_offline(inst), schedule_online_even(inst), baseline_schedule(inst)):
            expected = dict(sched.allocations)
            with pytest.raises(TypeError):
                sched.allocations[(1, 1)] = 5.0
            with pytest.raises(TypeError):
                del sched.allocations[next(iter(expected))]
            assert dict(sched.allocations) == expected == sched.allocations
            assert repr(sched.allocations) == repr(expected)
            assert all(sched.allocations[key] == amount and key in sched.allocations for key, amount in expected.items())
            assert (9, 1) not in sched.allocations and sched.allocations.get((9, 1)) is None

    @pytest.mark.parametrize(
        "jobs, match",
        [
            ([Job(1, 1, 2, 2.0), Job(7, 2, 3, 2.0), Job(3, 2, 4, 3.0)], "unknown job id 2"),
            ([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0), Job(3, 4, 5, 3.0)], r"job 3: slot \d outside window \[4, 5\]"),
            ([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.5), Job(3, 2, 4, 3.0)], "job 2: allocated 2.0 does not conserve"),
        ],
        ids=["unknown-id", "outside-window", "conservation"],
    )
    def test_a_view_raises_what_its_dict_raises(self, jobs, match):
        inst = Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0), Job(3, 2, 4, 3.0)])
        other = Instance(jobs)
        for sched in (schedule_optimal_offline(inst), schedule_online_even(inst)):
            with pytest.raises(ValueError, match=match) as from_dict:
                Schedule(other, dict(sched.allocations))
            with pytest.raises(ValueError) as from_view:
                Schedule(other, sched.allocations)
            assert str(from_view.value) == str(from_dict.value)

# amounts that each trip a different check, or none
ODD_AMOUNTS = st.sampled_from([0.0, -0.0, -1.0, 1e-300, math.nan, math.inf, -math.inf])


def odd_slot(data, slot: int):
    """The slot, a neighbour, slot 0 or one past int64, or the slot as a numpy int or a float."""
    return data.draw(
        st.sampled_from([slot, slot - 1, slot + 1, 0, 10**19, np.int64(slot), float(slot), slot + 0.5])
    )


def assert_matches_reference(inst: Instance, allocations) -> None:
    """Schedule raises the reference's error, or keeps the reference's items in its order and types."""
    try:
        expected = reference_schedule(inst, allocations)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Schedule(inst, allocations)
        assert str(raised.value) == str(exc)
    else:
        assert repr(list(Schedule(inst, allocations).allocations.items())) == repr(list(expected.items()))


class TestScheduleMatchesReference:
    """Schedule's array checks raise the entry-by-entry loop's error, or keep the same items."""

    @settings(max_examples=150)
    @given(st.data())
    def test_validation_matches_reference(self, data):
        specs = data.draw(
            st.lists(st.tuples(st.integers(1, 6), st.integers(0, 5), st.floats(0.5, 8.0)), min_size=1, max_size=4)
        )
        inst = Instance(Job(jid, a, a + w, e) for jid, (a, w, e) in enumerate(specs))
        entries = []  # [job id, slot, amount, the job's slot]; each job's energy split over some of its slots
        for job in inst.jobs:
            slots = data.draw(st.lists(st.integers(job.arrival, job.deadline), min_size=1, max_size=5, unique=True))
            weights = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(slots), max_size=len(slots)))
            entries += [[job.id, slot, job.energy * w / sum(weights), slot] for slot, w in zip(slots, weights)]
        ids = [j.id for j in inst.jobs] + [99]
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(["add", "amount", "slot", "job", "scale"]))
            if kind == "add":
                slot = data.draw(st.integers(1, 11))
                entries.insert(
                    data.draw(st.integers(0, len(entries))),
                    [data.draw(st.sampled_from(ids)), odd_slot(data, slot), data.draw(ODD_AMOUNTS), slot],
                )
                continue
            entry = data.draw(st.sampled_from(entries))
            if kind == "amount":
                entry[2] = data.draw(ODD_AMOUNTS)
            elif kind == "slot":
                entry[1] = odd_slot(data, entry[3])
            elif kind == "job":
                entry[0] = data.draw(st.sampled_from(ids))
            else:
                entry[2] *= 1 + 1e-8  # off by more than ENERGY_TOL
        assert_matches_reference(inst, {(jid, slot): amount for jid, slot, amount, _ in entries})

    @pytest.mark.parametrize(
        "jobs, allocations",
        [
            ([], {(3, 1): 0.0}),
            ([], {(3, 1): 1.0}),
            ([Job(1, 1, 2, 2.0)], {(1, None): 2.0}),
            ([Job(1, 1, 2, 2.0)], {(1, 10**19): 0.0, (1, 1): 2.0}),
        ],
        ids=["empty-instance-zero", "empty-instance-unknown-id", "slot-none", "slot-past-int64-zero"],
    )
    def test_fixed_cases(self, jobs, allocations):
        assert_matches_reference(Instance(jobs), allocations)


class TestApplyAttack:
    def test_direct_substitution(self):
        inst = two_job_instance()
        plan = AttackPlan({1: 2, 2: 2})
        altered = apply_attack(inst, plan)
        assert [(j.arrival, j.deadline, j.energy) for j in altered.jobs] == [(2, 2, 2.0), (2, 2, 2.0)]

    def test_empty_plan_is_identity(self):
        inst = two_job_instance()
        assert apply_attack(inst, AttackPlan({})) == inst

    def test_single_job_compression_and_altered_set(self):
        inst = Instance([Job(1, 1, 5, 3.0)])
        plan = AttackPlan({1: 3})
        assert plan.altered(inst) == frozenset({1})
        altered = apply_attack(inst, plan)
        assert altered.jobs[0] == Job(1, 3, 3, 3.0)

    def test_unknown_id_rejected(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="unknown"):
            AttackPlan({7: 2}).validate(inst)

    def test_out_of_window_slot_rejected(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="outside"):
            AttackPlan({1: 3}).validate(inst)

    @pytest.mark.parametrize(
        "slot",
        [2.0, np.int64(2), 2**64, True, False, 0, 2**63, 10**19],
        ids=["float", "numpy-integer", "past-int64", "true", "false", "zero", "2^63", "10^19"],
    )
    def test_slot_must_be_an_int_in_the_window_as_in_schedules(self, slot):
        # what Job refuses as a slot lies in no window; True once passed as slot 1 until Job(...) refused it
        inst = two_job_instance()
        with pytest.raises(ValueError, match="job 1: arrival must be an integer slot"):
            Job(1, slot, 2, 2.0)
        with pytest.raises(ValueError, match=f"job 1: slot {slot} outside window"):
            Schedule(inst, {(1, slot): 2.0, (2, 2): 2.0})
        with pytest.raises(ValueError, match=f"moves job 1 to slot {slot} outside its window"):
            AttackPlan({1: slot}).validate(inst)
        with pytest.raises(ValueError, match=f"moves job 1 to slot {slot} outside its window"):
            apply_attack(inst, AttackPlan({1: slot}))
        with pytest.raises(ValueError, match=f"job 1 does not cover block slot {slot}"):
            partition_from_blocks([(slot, {1, 2})]).validate(inst)

    def test_already_compressed_job_not_altered(self):
        inst = Instance([Job(1, 4, 4, 2.0)])
        plan = AttackPlan({1: 4})
        assert plan.altered(inst) == frozenset()

    def test_energy_preserved_and_resorted(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            inst = random_instance(rng, max_jobs=8)
            slots = {
                j.id: int(rng.integers(j.arrival, j.deadline + 1))
                for j in inst.jobs
                if rng.random() < 0.6
            }
            altered = apply_attack(inst, AttackPlan(slots))
            assert altered.total_energy == pytest.approx(inst.total_energy, abs=1e-12)
            arrivals = [j.arrival for j in altered.jobs]
            assert arrivals == sorted(arrivals)
            # altered windows are sub-windows of the originals
            for job in altered.jobs:
                original = inst.job(job.id)
                assert original.arrival <= job.arrival <= job.deadline <= original.deadline

    def test_schedules_of_altered_instance_admissible_for_original(self):
        from gridsched.scheduler import schedule_optimal_offline

        rng = np.random.default_rng(12)
        for _ in range(20):
            inst = random_instance(rng, max_jobs=6)
            slots = {j.id: int(rng.integers(j.arrival, j.deadline + 1)) for j in inst.jobs}
            altered = apply_attack(inst, AttackPlan(slots))
            sched = schedule_optimal_offline(altered)
            # re-validating the allocations against the original instance succeeds
            Schedule(inst, sched.allocations)


class TestCosts:
    def test_evaluate_cost_examples(self):
        inst = Instance([Job(1, 1, 1, 2.0), Job(2, 2, 2, 2.0)])
        assert evaluate_cost(baseline_schedule(inst), QUAD) == pytest.approx(8.0)
        flat = Instance([Job(1, 1, 3, 4.0)])
        sched = Schedule(flat, {(1, 1): 4 / 3, (1, 2): 4 / 3, (1, 3): 4 / 3})
        assert evaluate_cost(sched, QUAD) == pytest.approx(16 / 3)
        single = Instance([Job(1, 2, 2, 5.0)])
        assert evaluate_cost(baseline_schedule(single), CostModel(3.0)) == pytest.approx(125.0)

    def test_baseline_cost_examples(self):
        assert baseline_cost(two_job_instance(), QUAD) == pytest.approx(8.0)
        shared = Instance([Job(1, 2, 2, 2.0), Job(2, 2, 2, 2.0)])
        assert baseline_cost(shared, QUAD) == pytest.approx(16.0)
        single = Instance([Job(1, 1, 9, 7.0)])
        assert baseline_cost(single, QUAD) == pytest.approx(49.0)

    def test_baseline_cost_matches_inelastic_schedule(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            inst = random_instance(rng, max_jobs=9)
            assert baseline_cost(inst, QUAD) == pytest.approx(
                evaluate_cost(baseline_schedule(inst), QUAD), abs=1e-12
            )

    def test_costs_equal_scalar_reference_exactly(self):
        # loads summed per slot in input order, scalar cost(load) summed over ascending slots
        rng = np.random.default_rng(12)
        for exponent in (1.0, 1.5, 2.0, 3.0):
            cost = CostModel(exponent)
            for _ in range(20):
                for inst in (random_instance(rng, max_jobs=9), random_instance_in_horizon(rng, 12, 6)):
                    inelastic = {(j.id, j.arrival): j.energy for j in inst.jobs}
                    assert baseline_cost(inst, cost) == reference_cost(inelastic, cost)
                    assert evaluate_cost(baseline_schedule(inst), cost) == reference_cost(inelastic, cost)

    def test_slot_costs_added_left_to_right(self):
        # a compensated sum (math.fsum, or the built-in sum from Python 3.12 on) gives 1e16 + 2
        assert _slot_cost(np.array([1, 2, 3]), np.array([1e16, 1.0, 1.0]), CostModel(1.0)) == 1e16
        assert Instance([Job(0, 1, 1, 1e16), Job(1, 2, 2, 1.0), Job(2, 3, 3, 1.0)]).total_energy == 1e16

    def test_cost_invariant_under_id_permutation_and_slot_relabeling(self):
        inst = Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 1.0)])
        sched = Schedule(inst, {(1, 1): 2.0, (2, 3): 1.0})
        renamed = Instance([Job(9, 1, 2, 2.0), Job(4, 2, 3, 1.0)])
        sched2 = Schedule(renamed, {(9, 1): 2.0, (4, 3): 1.0})
        shifted = Instance([Job(1, 5, 6, 2.0), Job(2, 6, 7, 1.0)])
        sched3 = Schedule(shifted, {(1, 5): 2.0, (2, 7): 1.0})
        value = evaluate_cost(sched, QUAD)
        assert evaluate_cost(sched2, QUAD) == pytest.approx(value)
        assert evaluate_cost(sched3, QUAD) == pytest.approx(value)


class TestCliquePartition:
    def test_validate_covers_and_windows(self):
        inst = two_job_instance()
        good = partition_from_blocks([(2, {1, 2})])
        good.validate(inst)
        with pytest.raises(ValueError, match="cover"):
            partition_from_blocks([(2, {1})]).validate(inst)
        with pytest.raises(ValueError, match="cover block slot"):
            partition_from_blocks([(1, {1, 2})]).validate(inst)
        # a job is in one clique by construction, and a clique has one slot
        with pytest.raises(ValueError, match="clique 0 names two slots, 2 and 3"):
            CliquePartition({1: (0, 2), 2: (0, 3)}).validate(inst)

    def test_to_plan(self):
        inst = two_job_instance()
        plan = partition_from_blocks([(2, {1, 2})]).to_plan(inst)
        assert plan.compressed == {1: 2, 2: 2}
        assert plan.altered(inst) == frozenset({1, 2})


class TestInstanceCsv:
    def test_round_trip(self, tmp_path):
        inst = Instance([Job(0, 1, 4, 2.25), Job(1, 3, 3, 0.5)])
        path = tmp_path / "inst.csv"
        write_instance_csv(inst, path)
        assert read_instance_csv(path) == inst
        text = path.read_text()
        assert text.splitlines()[0] == "id,arrival,deadline,energy"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,start,deadline,energy\n0,1,2,1.0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_instance_csv(path)

    def test_line_numbered_invariant_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,arrival,deadline,energy\n0,1,2,1.0\n1,5,4,1.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_instance_csv(path)

    @pytest.mark.parametrize("row", ["1,1,18446744073709551616,6.0", "9223372036854775808,1,3,6.0"])
    def test_past_int64_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,arrival,deadline,energy\n0,1,2,1.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3: .*2\\^63 - 1"):
            read_instance_csv(path)

    def test_subnormal_energy_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,arrival,deadline,energy\n0,1,2,1.0\n1,2,4,1e-320\n")
        with pytest.raises(ValueError, match="line 3: job 1: energy must be a finite real of at least"):
            read_instance_csv(path)

    def test_non_integer_slot_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,arrival,deadline,energy\n0,1.5,2,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_instance_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing header id,arrival,deadline,energy"),
            ("id,arrival,deadline,energy\n0,1,2,1.0\n1,2,4\n", "line 3: expected 4 fields, got 3"),
            ("id,arrival,deadline,energy\n1,1,2,1.0\n1,3,4,1.0\n", "duplicate job id 1"),
        ],
        ids=["empty-file", "three-fields", "duplicate-id"],
    )
    def test_malformed_file_rejected_with_its_path(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_instance_csv(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("id,arrival,deadline,energy\n\n0,1,4,2.25\n  \n1,3,3,0.5\n\n")
        assert read_instance_csv(path) == Instance([Job(0, 1, 4, 2.25), Job(1, 3, 3, 0.5)])
        path.write_text("id,arrival,deadline,energy\n\n0,1,4,2.25\n\n1,5,3,0.5\n")
        with pytest.raises(ValueError, match="line 5: job 1: arrival 5 exceeds deadline 3"):
            read_instance_csv(path)
