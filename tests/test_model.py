"""Domain type invariants, attack application, and cost evaluation."""

import math

import numpy as np
import pytest

from gridsched.model import (
    AttackPlan,
    CliqueBlock,
    CliquePartition,
    CostModel,
    Instance,
    Job,
    Schedule,
    apply_attack,
    baseline_cost,
    evaluate_cost,
    read_instance_csv,
    write_instance_csv,
)

from helpers import baseline_schedule, random_instance, random_instance_in_horizon, reference_cost

QUAD = CostModel(2.0)


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


class TestJob:
    def test_fields_and_allowance(self):
        job = Job(3, 2, 5, 1.5)
        assert job.allowance == 3
        assert job.covers(2) and job.covers(5) and not job.covers(6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(id=-1, arrival=1, deadline=2, energy=1.0),
            dict(id=0, arrival=0, deadline=2, energy=1.0),
            dict(id=0, arrival=3, deadline=2, energy=1.0),
            dict(id=0, arrival=1, deadline=2, energy=0.0),
            dict(id=0, arrival=1, deadline=2, energy=-1.0),
            dict(id=0, arrival=1, deadline=2, energy=math.inf),
        ],
    )
    def test_invalid_jobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Job(**kwargs)


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


class TestApplyAttack:
    def test_direct_substitution(self):
        inst = two_job_instance()
        plan = AttackPlan.from_compression(inst, {1: 2, 2: 2})
        altered = apply_attack(inst, plan)
        assert [(j.arrival, j.deadline, j.energy) for j in altered.jobs] == [(2, 2, 2.0), (2, 2, 2.0)]

    def test_empty_plan_is_identity(self):
        inst = two_job_instance()
        assert apply_attack(inst, AttackPlan.empty()) == inst

    def test_single_job_compression_and_altered_set(self):
        inst = Instance([Job(1, 1, 5, 3.0)])
        plan = AttackPlan.from_compression(inst, {1: 3})
        assert plan.altered(inst) == frozenset({1})
        altered = apply_attack(inst, plan)
        assert altered.jobs[0] == Job(1, 3, 3, 3.0)

    def test_unknown_id_rejected(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="unknown"):
            AttackPlan.from_compression(inst, {7: 2})

    def test_out_of_window_slot_rejected(self):
        inst = two_job_instance()
        with pytest.raises(ValueError, match="outside"):
            AttackPlan.from_compression(inst, {1: 3})

    def test_already_compressed_job_not_altered(self):
        inst = Instance([Job(1, 4, 4, 2.0)])
        plan = AttackPlan.from_compression(inst, {1: 4})
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
            altered = apply_attack(inst, AttackPlan.from_compression(inst, slots))
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
            altered = apply_attack(inst, AttackPlan.from_compression(inst, slots))
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
        good = CliquePartition((CliqueBlock(2, frozenset({1, 2})),))
        good.validate(inst)
        with pytest.raises(ValueError, match="cover"):
            CliquePartition((CliqueBlock(2, frozenset({1})),)).validate(inst)
        with pytest.raises(ValueError, match="more than one"):
            CliquePartition(
                (CliqueBlock(2, frozenset({1, 2})), CliqueBlock(2, frozenset({2})))
            ).validate(inst)
        with pytest.raises(ValueError, match="cover block slot"):
            CliquePartition((CliqueBlock(1, frozenset({1, 2})),)).validate(inst)

    def test_to_plan(self):
        inst = two_job_instance()
        plan = CliquePartition((CliqueBlock(2, frozenset({1, 2})),)).to_plan(inst)
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

    def test_non_integer_slot_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,arrival,deadline,energy\n0,1.5,2,1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_instance_csv(path)
