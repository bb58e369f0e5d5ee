"""Closed-form bound evaluators and their relations to the computed attacks."""

import numpy as np
import pytest

from gridsched.analysis import (
    allowance_ratio,
    arrival_packing_ratio,
    limited_attack_lower_bound,
    max_cost_bound_value,
    max_cost_lower_bound,
    online_attack_factor,
)
from gridsched.attacker import full_attack_dp, limited_greedy_from_partition, online_edf_attack
from gridsched.model import CostModel, Instance, Job


from helpers import partition_blocks, random_instance


def two_job_instance() -> Instance:
    return Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)])


class TestMaxCostLowerBound:
    def test_two_job_example(self):
        assert max_cost_lower_bound(two_job_instance(), 2.0) == pytest.approx(16 / 9)

    def test_single_job(self):
        inst = Instance([Job(1, 1, 2, 3.0)])
        assert max_cost_lower_bound(inst, 2.0) == pytest.approx(2.25)
        _, _, c_max = full_attack_dp(inst, CostModel(2.0))
        assert max_cost_lower_bound(inst, 2.0) <= c_max

    def test_degenerate_allowance_returns_zero(self):
        inst = Instance([Job(1, 2, 2, 3.0)])
        assert max_cost_lower_bound(inst, 2.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_cost_lower_bound(Instance([]), 2.0)

    def test_grid_formula_increases_in_lmin_and_n(self):
        # fixed mean energy 10 and mean interarrival 5
        values = {
            (n, l): max_cost_bound_value(l, 10.0 * n, 5 * (n - 1), 2.0)
            for n in (50, 100, 200)
            for l in (5, 10, 20, 40)
        }
        for n in (50, 100, 200):
            seq = [values[(n, l)] for l in (5, 10, 20, 40)]
            assert all(a < b for a, b in zip(seq, seq[1:]))
        for l in (5, 10, 20, 40):
            seq = [values[(n, l)] for n in (50, 100, 200)]
            assert all(a < b for a, b in zip(seq, seq[1:]))


class TestOnlineAttackFactor:
    def test_formula_examples(self):
        inst = Instance([Job(0, 1, 3, 1.0), Job(1, 2, 6, 1.0)])  # allowances 2 and 4
        assert allowance_ratio(2, 4) == 3
        assert online_attack_factor(inst, 2.0) == pytest.approx(1 / 3)
        homogeneous = Instance([Job(0, 1, 3, 1.0), Job(1, 4, 6, 1.0)])
        assert online_attack_factor(homogeneous, 2.0) == pytest.approx(0.5)
        assert online_attack_factor(homogeneous, 1.0) == 1.0

    def test_degenerate(self):
        inst = Instance([Job(0, 1, 1, 1.0), Job(1, 2, 4, 1.0)])
        assert online_attack_factor(inst, 2.0) == 0.0

    def test_integer_ceiling_is_exact(self):
        assert allowance_ratio(3, 9) == 4
        assert allowance_ratio(3, 10) == 5
        assert allowance_ratio(7, 7) == 2

    def test_invalid_allowances_rejected(self):
        with pytest.raises(ValueError, match="^minimum allowance must be >= 1, got 0$"):
            allowance_ratio(0, 3)
        with pytest.raises(ValueError, match="^l_max 2 smaller than l_min 3$"):
            allowance_ratio(3, 2)


class TestArrivalPackingRatio:
    def test_value_and_block_cap(self):
        inst = two_job_instance()
        assert arrival_packing_ratio(inst) == pytest.approx(2 * 1 / 1)

    def test_infinite_when_arrivals_coincide(self):
        import math

        inst = Instance([Job(0, 1, 3, 1.0), Job(1, 1, 5, 1.0)])
        assert arrival_packing_ratio(inst) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^packing ratio undefined for an empty instance$"):
            arrival_packing_ratio(Instance([]))

    def test_bounds_online_block_count(self):
        rng = np.random.default_rng(85)
        for _ in range(60):
            inst = random_instance(rng, max_jobs=12, min_jobs=2, min_window=2)
            ratio = arrival_packing_ratio(inst)
            blocks = len(partition_blocks(online_edf_attack(inst, CostModel(2.0))[1]))
            assert blocks <= inst.n / ratio + 2 + 1e-9


class TestLimitedAttackLowerBound:
    def test_examples(self):
        assert limited_attack_lower_bound(16.0, 0.5, 2.0) == pytest.approx(2.0)
        assert limited_attack_lower_bound(16.0, 1.0, 2.0) == pytest.approx(8.0)
        assert limited_attack_lower_bound(16.0, 0.0, 2.0) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            limited_attack_lower_bound(-1.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            limited_attack_lower_bound(1.0, 1.5, 2.0)


@pytest.mark.parametrize("exponent", [float("nan"), float("inf"), 0.5])
def test_bad_exponent_rejected(exponent):
    with pytest.raises(ValueError, match="cost exponent"):
        online_attack_factor(two_job_instance(), exponent)
    with pytest.raises(ValueError, match="cost exponent"):
        max_cost_bound_value(5, 10.0, 4, exponent)
    with pytest.raises(ValueError, match="cost exponent"):
        limited_attack_lower_bound(16.0, 0.5, exponent)


class TestBoundsHoldOnRandoms:
    @pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0])
    def test_online_attack_within_factor(self, exponent):
        cost = CostModel(exponent)
        rng = np.random.default_rng(60 + int(exponent))
        for _ in range(60):
            inst = random_instance(rng, max_jobs=10, min_window=2)
            _, _, best = full_attack_dp(inst, cost)
            _, _, online = online_edf_attack(inst, cost)
            factor = online_attack_factor(inst, exponent)
            assert online >= factor * best - 1e-9 * max(1.0, best)

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0])
    def test_max_cost_above_closed_form(self, exponent):
        cost = CostModel(exponent)
        rng = np.random.default_rng(70 + int(exponent))
        for _ in range(60):
            inst = random_instance(rng, max_jobs=10, min_window=2)
            _, _, best = full_attack_dp(inst, cost)
            assert best >= max_cost_lower_bound(inst, exponent) - 1e-9 * max(1.0, best)

    def test_greedy_above_budget_bound_on_integral_grid(self):
        cost = CostModel(2.0)
        rng = np.random.default_rng(80)
        for _ in range(30):
            inst = random_instance(rng, max_jobs=12, min_jobs=2, min_window=2)
            _, partition, c_max = full_attack_dp(inst, cost)
            for budget in range(inst.n + 1):
                beta = budget / inst.n
                _, value = limited_greedy_from_partition(inst, partition, beta, cost)
                bound = limited_attack_lower_bound(c_max, beta, 2.0)
                assert value >= bound - 1e-9 * max(1.0, bound)

