"""Slotted demand scheduling, demand-alteration attacks, and their performance bounds."""

__version__ = "0.1.0"

from .model import (
    ENERGY_TOL,
    AttackPlan,
    CliquePartition,
    CostModel,
    Instance,
    Job,
    Schedule,
    apply_attack,
    baseline_cost,
    evaluate_cost,
    read_instance_csv,
)
from .scheduler import (
    min_cost,
    optimal_load_segments,
    schedule_online_even,
    schedule_optimal_offline,
)
from .attacker import (
    attack_budget,
    full_attack_dp,
    limited_attack_curve,
    limited_greedy_from_partition,
    online_edf_attack,
    realized_attack_cost,
)
from .analysis import (
    allowance_ratio,
    arrival_packing_ratio,
    limited_attack_lower_bound,
    max_cost_bound_value,
    max_cost_lower_bound,
    online_attack_factor,
)
from .oracle import (
    brute_force_max_cost,
    check_min_optimality,
    exact_limited_attack_curve,
)
from .harness import (
    Experiment,
    ExperimentConfig,
    GenParams,
    generate_instance,
    make_identical_instance,
    run_experiment,
)

__all__ = [
    "__version__",
    "ENERGY_TOL",
    "AttackPlan",
    "CliquePartition",
    "CostModel",
    "Experiment",
    "ExperimentConfig",
    "GenParams",
    "Instance",
    "Job",
    "Schedule",
    "allowance_ratio",
    "apply_attack",
    "arrival_packing_ratio",
    "attack_budget",
    "baseline_cost",
    "brute_force_max_cost",
    "check_min_optimality",
    "evaluate_cost",
    "exact_limited_attack_curve",
    "full_attack_dp",
    "generate_instance",
    "limited_attack_curve",
    "limited_attack_lower_bound",
    "limited_greedy_from_partition",
    "make_identical_instance",
    "max_cost_bound_value",
    "max_cost_lower_bound",
    "min_cost",
    "online_attack_factor",
    "online_edf_attack",
    "optimal_load_segments",
    "read_instance_csv",
    "realized_attack_cost",
    "run_experiment",
    "schedule_online_even",
    "schedule_optimal_offline",
]
