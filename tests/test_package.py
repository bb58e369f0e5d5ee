"""The package's public names."""

from inspect import ismodule

import gridsched

PUBLIC = [
    "AttackPlan", "CliquePartition", "CostModel", "ENERGY_TOL", "Experiment", "ExperimentConfig", "GenParams",
    "Instance", "Job", "Schedule", "__version__", "allowance_ratio", "apply_attack", "arrival_packing_ratio",
    "attack_budget", "baseline_cost", "brute_force_max_cost", "check_min_optimality", "evaluate_cost",
    "exact_limited_attack_curve", "full_attack_dp", "generate_instance", "limited_attack_curve",
    "limited_attack_lower_bound", "limited_greedy_from_partition", "make_identical_instance", "max_cost_bound_value",
    "max_cost_lower_bound", "min_cost", "online_attack_factor", "online_edf_attack", "optimal_load_segments",
    "read_instance_csv", "realized_attack_cost", "run_experiment", "schedule_online_even", "schedule_optimal_offline",
]


def test_public_names_are_pinned():
    # a name added to or dropped from the surface shows up here first
    assert len(PUBLIC) == 37
    assert sorted(gridsched.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(gridsched, name)] == []
    # the package namespace holds nothing else but its modules
    names = {name for name, value in vars(gridsched).items() if not name.startswith("_") and not ismodule(value)}
    assert sorted(names) == [name for name in PUBLIC if name != "__version__"]
