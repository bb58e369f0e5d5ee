"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that the untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and the traced run exactly its
per-layer metrics, each with its unit; that the traced pass returns the same
verdicts, values and CSV bytes as the untraced one and leaves gridsched as
it found it; and that counts computed from the inputs match the counts the
tracer recorded.  Last, it checks that the benchmark fails, without printing
a result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import layertrace
import run  # puts the checkout's src/ first on sys.path, through workloads
import workloads
from workloads import gs

SEED = 3


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def q_of(instance) -> int:
    return len({j.arrival for j in instance.jobs} | {j.deadline for j in instance.jobs})


def expected_counts(name: str, inputs) -> dict[str, int]:
    """Layer counts that follow from the inputs alone, for the workload ``name``."""
    if name == "fig3-costs":
        draws = inputs.trials * len(inputs.allowance_means)
        return {
            "harness.generate_instance.calls": draws,
            "attacker.full_attack_dp.calls": draws,
            "scheduler.min_cost.calls": draws,
            "instances.n_sum": draws * inputs.fig3_jobs,
        }
    if name == "fig45-budget":
        fig4, fig5 = inputs
        redraws = run.fig4_draws(workloads.pass_fig45(inputs))[1]
        return {
            "harness.generate_instance.calls": fig4.trials + redraws,
            "harness.fig4.redraws": redraws,
            "attacker.limited_attack_curve.calls": fig4.trials,
            "attacker.limited_attack_curve.budget": fig4.trials * gs.attack_budget(max(fig4.betas), fig4.fig4_jobs),
            "attacker.full_attack_dp.calls": fig4.trials + len(fig5.interarrival_grid),
            "attacker.limited_greedy_from_partition.calls": fig4.trials * len(fig4.betas)
            + len(fig5.interarrival_grid) * len(fig5.fig5_betas),
        }
    if name == "controller-n400":
        # one peel iteration, hence one EDF fill, per optimal load segment
        segments = 0
        for inst in inputs:
            plan = gs.online_edf_attack(inst, workloads.COST)[0]
            segments += len(gs.optimal_load_segments(inst))
            segments += len(gs.optimal_load_segments(gs.apply_attack(inst, plan)))
        return {
            "scheduler.edf_fill.calls": segments,
            "scheduler.schedule_optimal_offline.calls": 2 * len(inputs),
            "instances.n_sum": sum(inst.n for inst in inputs),
            "instances.q_sum": sum(q_of(inst) for inst in inputs),
        }
    max_cost, curve = inputs
    assignments = 0
    for inst in max_cost:
        product = 1
        for job in inst.jobs:
            product *= job.deadline - job.arrival + 1
        assignments += product
    return {
        "oracle.brute_force_max_cost.assignments": assignments,
        "oracle.exact_limited_attack_curve.calls": len(curve),
        "oracle.exact_limited_attack_curve.enumerations": sum(
            layertrace.elementary_sum([j.deadline - j.arrival + 1 for j in inst.jobs], inst.n) for inst in curve
        ),
        "attacker.full_attack_dp.cells": sum(q * (q + 1) * (q + 2) // 6 for q in map(q_of, max_cost)),
        "instances.q_sum": sum(q_of(inst) for inst in [*max_cost, *curve]),
    }


def count_peels(curve) -> int:
    """Peel calls exact_limited_attack_curve makes, counted at the private helper it uses today."""
    oracle = sys.modules["gridsched.oracle"]
    original = oracle._min_cost_arrays
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    oracle._min_cost_arrays = counted
    try:
        for inst in curve:
            gs.exact_limited_attack_curve(inst, workloads.COST)
    finally:
        oracle._min_cost_arrays = original
    return calls


def check_workload(spec: dict, name: str) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    originals = {(mod, attr): getattr(sys.modules[f"gridsched.{mod}"], attr) for mod, attr in layertrace.TRACED}

    plain_record, plain = run.run(name, SEED, 0.0, trace=False, tiny=True)
    traced_record, traced = run.run(name, SEED, 0.0, trace=True, tiny=True)
    for record, result, expected in ((plain_record, plain, end_to_end), (traced_record, traced, per_layer)):
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
        check(result["correct"], f"{name}: passes disagree ({record['outputs_sha256']})")
        check(0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1, f"{name}: counts")
        units = {key: m["unit"] for key, m in result["metrics"].items()}
        check(units == expected, f"{name}: metrics differ from BENCHMARK.json: {set(units) ^ set(expected)}")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), f"{name}: values")
        json.dumps(result, allow_nan=False)
    check(plain["metrics"]["wall_s"]["value"] > 0 and plain["metrics"]["setup_s"]["value"] > 0, f"{name}: zero time")

    check(traced_record["outputs_sha256"][1] == plain_record["outputs_sha256"][0], f"{name}: traced outputs differ")
    check(traced_record["csv_sha256"][1] == plain_record["csv_sha256"][0], f"{name}: traced CSV bytes differ")
    check(
        all(getattr(sys.modules[f"gridsched.{mod}"], attr) is fn for (mod, attr), fn in originals.items()),
        f"{name}: tracer left a wrapper behind",
    )

    inputs = workloads.WORKLOADS[name].build(SEED, tiny=True)
    metrics = {key: m["value"] for key, m in traced["metrics"].items()}
    for key, expected in expected_counts(name, inputs).items():
        check(metrics[key] == expected, f"{name}: {key} traced {metrics[key]} != computed {expected}")
    if name == "oracle-desk" and hasattr(sys.modules["gridsched.oracle"], "_min_cost_arrays"):
        peels = count_peels(inputs[1])
        check(metrics["oracle.exact_limited_attack_curve.enumerations"] == peels, f"{name}: enumerations != {peels} peels")
    print(f"selftest ok: {name} ({plain['attempted']} operations, {len(metrics)} layer metrics)")


def check_fails_without_source(spec: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "oracle-desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
    check(proc.returncode != 0, "benchmark succeeded without the source tree")
    check('"metrics"' not in proc.stdout, "benchmark printed a result without the source tree")
    print("selftest ok: fails without the source tree")


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    for name in workloads.WORKLOADS:
        check_workload(spec, name)
    check_fails_without_source(spec)


if __name__ == "__main__":
    main()
