"""Command line interface.

Subcommands operate on instance CSV files (header id,arrival,deadline,energy)
or run the experiment harness.  All numeric output is printed with 12
significant digits.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (
    allowance_ratio,
    arrival_packing_ratio,
    limited_attack_lower_bound,
    max_cost_lower_bound,
    online_attack_factor,
)
from .attacker import (
    attack_budget,
    full_attack_dp,
    limited_greedy_from_partition,
    online_edf_attack,
)
from .harness import Experiment, ExperimentConfig, run_experiment
from .model import CostModel, evaluate_cost, read_instance_csv
from .oracle import brute_force_max_cost, check_min_optimality, exact_limited_attack_curve
from .scheduler import schedule_optimal_offline


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _print_profile(schedule) -> None:
    for slot, load in schedule.slot_loads().items():
        print(f"  {slot} {_fmt(load)}")


def _print_blocks(partition) -> None:
    for block in partition.blocks:
        members = ",".join(str(jid) for jid in sorted(block.members))
        print(f"  slot={block.slot} members={members}")


def _cmd_solve_min(args) -> int:
    instance = read_instance_csv(args.instance)
    cost = CostModel(args.b)
    schedule = schedule_optimal_offline(instance, cost)
    print(f"c_min = {_fmt(evaluate_cost(schedule, cost))}")
    print("profile:")
    _print_profile(schedule)
    return 0


def _cmd_attack(args) -> int:
    instance = read_instance_csv(args.instance)
    _, partition, value = args.attack(instance, CostModel(args.b))
    print(f"{args.label} = {_fmt(value)}")
    print("cliques:")
    _print_blocks(partition)
    return 0


def _cmd_attack_limited(args) -> int:
    instance = read_instance_csv(args.instance)
    cost = CostModel(args.b)
    budget = attack_budget(args.beta, instance.n)
    _, partition, _ = full_attack_dp(instance, cost)
    plan, value = limited_greedy_from_partition(instance, partition, args.beta, cost)
    print(f"c_maxmin_lower = {_fmt(value)}")
    print(f"budget = {budget}")
    print(f"altered = {len(plan.altered(instance))}")
    for jid in sorted(plan.compressed):
        print(f"  job {jid} -> slot {plan.compressed[jid]}")
    return 0


def _cmd_bounds(args) -> int:
    instance = read_instance_csv(args.instance)
    l_min, l_max = instance.allowance_range()
    degenerate = l_min == 0
    _, _, c_max = full_attack_dp(instance, CostModel(args.b))
    lines = [
        f"n = {instance.n}",
        f"l_min = {l_min}",
        f"l_max = {l_max}",
        f"allowance_ratio = {0 if degenerate else allowance_ratio(l_min, l_max)}",
        f"packing_ratio = {_fmt(arrival_packing_ratio(instance))}",
        f"degenerate = {'true' if degenerate else 'false'}",
        f"online_factor = {_fmt(online_attack_factor(instance, args.b))}",
        f"max_cost_lower = {_fmt(max_cost_lower_bound(instance, args.b))}",
        f"limited_lower(beta={_fmt(args.beta)}) = {_fmt(limited_attack_lower_bound(c_max, args.beta, args.b))}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_oracle(args) -> int:
    instance = read_instance_csv(args.instance)
    cost = CostModel(args.b)
    if args.mode == "pmax":
        print(f"c_max_exact = {_fmt(brute_force_max_cost(instance, cost))}")
        return 0
    if args.mode == "maxmin":
        budget = attack_budget(args.beta, instance.n)
        print(f"c_maxmin_exact = {_fmt(exact_limited_attack_curve(instance, cost, budget)[budget])}")
        print(f"budget = {budget}")
        return 0
    schedule = schedule_optimal_offline(instance, cost)
    outcome = check_min_optimality(instance, schedule, cost, tol=args.tol)
    print(f"c_min = {_fmt(evaluate_cost(schedule, cost))}")
    print(f"optimal = {'true' if outcome.optimal else 'false'}")
    for source, jid, target in outcome.witness:
        print(f"  transfer slot {source} -> slot {target} via job {jid}")
    return 0 if outcome.optimal else 1


def _cmd_experiment(args) -> int:
    experiment = Experiment(args.figure)
    config = ExperimentConfig.default(
        experiment,
        seed=args.seed,
        trials=args.trials,
        exponent=args.b,
    )
    result = run_experiment(config)
    result.write(args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsched",
        description="Demand scheduling, demand-alteration attacks, and their bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("instance", help="instance CSV file (id,arrival,deadline,energy)")
        cmd.add_argument("--b", type=float, default=2.0, help="cost exponent (default 2)")
        return cmd

    cmd = add_instance_command("solve-min", "optimal offline schedule and its cost")
    cmd.set_defaults(handler=_cmd_solve_min)

    cmd = add_instance_command("attack-full", "optimal unlimited attack")
    cmd.set_defaults(handler=_cmd_attack, attack=full_attack_dp, label="c_max")

    cmd = add_instance_command("attack-online", "online EDF attack")
    cmd.set_defaults(handler=_cmd_attack, attack=online_edf_attack, label="c_max_online")

    cmd = add_instance_command("attack-limited", "budgeted greedy attack")
    cmd.add_argument("--beta", type=float, required=True, help="alteration fraction in [0, 1]")
    cmd.set_defaults(handler=_cmd_attack_limited)

    cmd = add_instance_command("bounds", "closed-form performance bounds")
    cmd.add_argument("--beta", type=float, default=1.0, help="alteration fraction for the budgeted bound")
    cmd.set_defaults(handler=_cmd_bounds)

    cmd = sub.add_parser("oracle", help="exact reference solvers")
    cmd.add_argument("mode", choices=("pmax", "maxmin", "verify-min"))
    cmd.add_argument("instance", help="instance CSV file (id,arrival,deadline,energy)")
    cmd.add_argument("--beta", type=float, default=1.0, help="alteration fraction (maxmin only)")
    cmd.add_argument("--b", type=float, default=2.0, help="cost exponent (default 2)")
    cmd.add_argument(
        "--tol", type=float, default=1e-7,
        help="optimality tolerance, times the largest slot load when above 1 (verify-min only)",
    )
    cmd.set_defaults(handler=_cmd_oracle)

    cmd = sub.add_parser("experiment", help="run an experiment and write CSV")
    cmd.add_argument("figure", choices=[e.value for e in Experiment])
    cmd.add_argument("--seed", type=int, required=True, help="master seed")
    cmd.add_argument("--trials", type=int, default=None, help="trials per sweep point")
    cmd.add_argument("--out", required=True, help="output CSV path")
    cmd.add_argument("--b", type=float, default=2.0, help="cost exponent (default 2)")
    cmd.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # Python's float pow raises OverflowError where numpy returns inf
        print(f"error: a cost overflows float64 ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
