"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Criteria are property- and oracle-based: exact equivalence of the attack
DP with brute force, certified controller optimality, the three
closed-form guarantees with zero violations, upper-bound validity
against exhaustive search, reproduction of the reference experiment
relations, and byte-identical reruns.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np

from gridsched.analysis import (
    limited_attack_lower_bound,
    max_cost_lower_bound,
    online_attack_factor,
)
from gridsched.attacker import (
    full_attack_dp,
    limited_attack_curve,
    limited_greedy_from_partition,
    online_edf_attack,
)
from gridsched.harness import Experiment, ExperimentConfig, run_experiment
from gridsched.model import CostModel, baseline_cost, evaluate_cost
from gridsched.oracle import (
    brute_force_max_cost,
    check_min_optimality,
    exact_limited_attack_curve,
)
from gridsched.scheduler import min_cost, schedule_online_even, schedule_optimal_offline

from helpers import random_instance, random_instance_in_horizon

QUAD = CostModel(2.0)
REL_TOL = 1e-9


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")


def _spearman(x, y) -> float:
    rank_x = np.argsort(np.argsort(x))
    rank_y = np.argsort(np.argsort(y))
    return float(np.corrcoef(rank_x, rank_y)[0, 1])


def _sha256(result) -> str:
    # the default-config CSV bytes; the preamble carries the package version
    return hashlib.sha256(result.to_csv_text().encode("utf-8")).hexdigest()


def test_criterion_01_full_attack_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        inst = random_instance(rng, max_jobs=7, max_window=5, energy_low=1.0, energy_high=5.0)
        dp_value = full_attack_dp(inst, QUAD)[2]
        exact = brute_force_max_cost(inst, QUAD)
        worst = max(worst, abs(dp_value - exact))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "full attack equals brute force on 200 instances", ok, f"max |diff| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_controller_optimality():
    rng = np.random.default_rng(102)
    certified = 0
    for _ in range(500):
        inst = random_instance_in_horizon(rng, max_jobs=10, horizon=15)
        schedule = schedule_optimal_offline(inst, QUAD)
        if check_min_optimality(inst, schedule, QUAD, tol=1e-7).optimal:
            certified += 1
    matches = 0
    dominated = 0
    for _ in range(100):
        inst = random_instance(rng, max_jobs=5, max_window=4)
        optimal = evaluate_cost(schedule_optimal_offline(inst, QUAD), QUAD)
        unattacked = exact_limited_attack_curve(inst, QUAD, 0)[0]
        if abs(optimal - unattacked) <= 1e-9 * max(1.0, optimal):
            matches += 1
        even = evaluate_cost(schedule_online_even(inst), QUAD)
        if optimal <= even + 1e-9 and optimal <= baseline_cost(inst, QUAD) + 1e-9:
            dominated += 1
    ok = certified == 500 and matches == 100 and dominated == 100
    _report(2, "optimal controller certified and dominant", ok, f"certified {certified}/500, matched {matches}/100")
    assert certified == 500
    assert matches == 100
    assert dominated == 100


def _bound_check_instances(seed: int):
    rng = np.random.default_rng(seed)
    for index in range(300):
        exponent = float([1.0, 2.0, 3.0][index % 3])
        yield exponent, random_instance(rng, max_jobs=10, min_jobs=1, max_window=8, min_window=2)


def test_criterion_03_online_attack_approximation_factor():
    violations = 0
    for exponent, inst in _bound_check_instances(103):
        cost = CostModel(exponent)
        best = full_attack_dp(inst, cost)[2]
        online = online_edf_attack(inst, cost)[2]
        factor = online_attack_factor(inst, exponent)
        if online < factor * best - REL_TOL * max(1.0, best):
            violations += 1
    ok = violations == 0
    _report(3, "online attack within its approximation factor", ok, "300 instances, b in {1,2,3}")
    assert violations == 0


def test_criterion_04_max_cost_lower_bound():
    violations = 0
    for exponent, inst in _bound_check_instances(103):
        cost = CostModel(exponent)
        best = full_attack_dp(inst, cost)[2]
        if best < max_cost_lower_bound(inst, exponent) - REL_TOL * max(1.0, best):
            violations += 1
    ok = violations == 0
    _report(4, "optimal attack above the closed-form floor", ok, "same 300 instances")
    assert violations == 0


def test_criterion_05_budgeted_attack_lower_bound():
    # the guarantee assumes an integral alteration budget, so job counts are
    # drawn from {10, 20, 30}, making beta * n whole on the 0.1 grid
    rng = np.random.default_rng(105)
    betas = [i / 10 for i in range(1, 11)]
    violations = 0
    for index in range(200):
        n = int(rng.choice([10, 20, 30]))
        inst = random_instance(rng, max_jobs=n, min_jobs=n, max_gap=4, max_window=8)
        _, partition, c_max = full_attack_dp(inst, QUAD)
        for beta in betas:
            value = limited_greedy_from_partition(inst, partition, beta, QUAD)[1]
            bound = limited_attack_lower_bound(c_max, beta, 2.0)
            if value < bound - REL_TOL * max(1.0, bound):
                violations += 1
    ok = violations == 0
    _report(5, "greedy attack above beta^b/2 of the optimum", ok, "200 instances x 10 betas")
    assert violations == 0


def test_criterion_06_upper_bound_dominates_exact_maxmin():
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(100):
        inst = random_instance(rng, max_jobs=6, max_window=4)
        exact = exact_limited_attack_curve(inst, QUAD)
        for budget in range(1, inst.n + 1):
            estimate = limited_attack_curve(inst, QUAD, budget)[budget]
            if estimate < exact[budget] - REL_TOL * max(1.0, exact[budget]):
                violations += 1
    ok = violations == 0
    _report(6, "baseline-controller DP dominates exact maxmin", ok, "100 instances, all budgets")
    assert violations == 0


def test_criterion_06_exact_curve_at_seven_jobs():
    # the same gate at n = 7, where the exact curve is also pinned at both ends
    rng = np.random.default_rng(206)
    violations = []
    for trial in range(20):
        inst = random_instance(rng, min_jobs=7, max_jobs=7, max_window=3)
        exact = exact_limited_attack_curve(inst, QUAD)
        upper = limited_attack_curve(inst, QUAD, inst.n)
        if exact[0] != min_cost(inst, QUAD):
            violations.append((trial, "exact[0] != min_cost"))
        if abs(exact[inst.n] - brute_force_max_cost(inst, QUAD)) > 1e-9:
            violations.append((trial, "exact[n] != brute force"))
        for budget in range(inst.n + 1):
            if upper[budget] < exact[budget] - REL_TOL * max(1.0, exact[budget]):
                violations.append((trial, f"upper < exact at budget {budget}"))
    _report(6, "DP dominates exact maxmin at n = 7", not violations, "20 instances, all budgets")
    assert violations == []


def test_criterion_07_fig5_reproduction():
    config = ExperimentConfig.default(Experiment.FIG5_ORDERED_RATIO, seed=107)
    config = replace(config, interarrival_grid=(1, 10))
    result = run_experiment(config)
    rows = result.rows_as_dicts()
    tight = {row["beta"]: row["ratio"] for row in rows if row["interarrival"] == 1}
    spaced = {row["beta"]: row["ratio"] for row in rows if row["interarrival"] == 10}

    square_worst = max(abs(ratio - beta**2) for beta, ratio in tight.items())
    clause1 = square_worst <= 1e-9

    dominance_gaps = {beta: spaced[beta] - tight[beta] for beta in tight}
    worst_beta = min(dominance_gaps, key=dominance_gaps.get)
    clause2 = dominance_gaps[worst_beta] >= -1e-12

    ok = clause1 and clause2
    _report(
        7,
        "identical-job ratio curves",
        ok,
        f"|ratio - beta^2| <= {square_worst:.1e}; min(Ma10 - Ma1) = {dominance_gaps[worst_beta]:.4f} at beta={worst_beta}",
    )
    assert clause1, f"tight-grouping ratio deviates from beta^2 by {square_worst}"
    assert clause2, (
        f"spaced curve dips below the tight curve at beta={worst_beta}: "
        f"{spaced[worst_beta]:.6f} < {tight[worst_beta]:.6f}"
    )
    assert _sha256(result) == "fc11b748ea2d5f05b4b2ed8bfc46e7e6721bb8ee210fdb4c15f25b0615ba0116"


def test_criterion_08_fig3_trends():
    start = time.monotonic()
    config = ExperimentConfig.default(Experiment.FIG3_COSTS, seed=2024, trials=20)
    result = run_experiment(config)
    rows = result.rows_as_dicts()
    elapsed = time.monotonic() - start
    means = [row["allowance_mean"] for row in rows]
    c_min = [row["c_min_offline"] for row in rows]
    c_max = [row["c_max_offline"] for row in rows]
    rho_min = _spearman(means, c_min)
    rho_max = _spearman(means, c_max)
    final_ratio = rows[-1]["c_max_offline"] / rows[-1]["c_base"]
    ok = rho_min <= -0.9 and rho_max >= 0.9 and final_ratio >= 2.0 and elapsed < 120.0
    _report(
        8,
        "allowance sweep trends",
        ok,
        f"rho_min {rho_min:.2f}, rho_max {rho_max:.2f}, max/base {final_ratio:.2f}, {elapsed:.0f}s",
    )
    assert rho_min <= -0.9
    assert rho_max >= 0.9
    assert final_ratio >= 2.0
    assert elapsed < 120.0
    assert _sha256(result) == "598ea4fb1a16a5f2a5036beb921f260946adaad8747c199ac627f8fbffbc8f49"


def test_criterion_09_fig2_monotonicity():
    rows = run_experiment(ExperimentConfig.default(Experiment.FIG2_BOUND, seed=109)).rows_as_dicts()
    ok = True
    for n in (50, 100, 200):
        seq = [row["lower_bound"] for row in rows if row["n"] == n]
        ok &= all(a <= b for a, b in zip(seq, seq[1:]))
    lmins = sorted({row["l_min"] for row in rows})
    for l_min in lmins:
        seq = [row["lower_bound"] for row in sorted(rows, key=lambda r: r["n"]) if row["l_min"] == l_min]
        ok &= all(a <= b for a, b in zip(seq, seq[1:]))
    _report(9, "closed-form bound monotone in l_min and n", bool(ok))
    assert ok


def test_criterion_10_experiment_determinism(tmp_path):
    configs = [
        ExperimentConfig.default(Experiment.FIG2_BOUND, seed=110),
        replace(
            ExperimentConfig.default(Experiment.FIG3_COSTS, seed=110, trials=2),
            allowance_means=(5.0, 25.0),
            fig3_jobs=30,
        ),
        replace(
            ExperimentConfig.default(Experiment.FIG4_MAXMIN_BOUNDS, seed=110, trials=1),
            fig4_jobs=12,
            betas=(0.25, 0.5, 1.0),
        ),
        replace(ExperimentConfig.default(Experiment.FIG5_ORDERED_RATIO, seed=110), interarrival_grid=(1, 5)),
    ]
    ok = True
    for config in configs:
        first = run_experiment(config)
        first.write(tmp_path / "a.csv")
        second = run_experiment(config)
        second.write(tmp_path / "b.csv")
        ok &= first.to_csv_text() == second.to_csv_text()
        ok &= (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _report(10, "reruns emit byte-identical CSV", bool(ok), "all four experiments")
    assert ok
