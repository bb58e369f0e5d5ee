"""The benchmark's four workloads: seeded inputs, one pass of fixed work, output checks.

Each workload has a build function, ``build(seed, tiny)``, that turns the seed into
the inputs gridsched receives, and a pass, ``run_pass(inputs)``, that does
the workload's fixed work once and checks every result.  A pass returns one
verdict per operation; an operation that raises or fails its check is a
failed operation, and the pass goes on with the next one.  ``tiny`` shrinks
every size for the self-test.

gridsched is looked up through the package attributes at call time
(``gs.full_attack_dp`` and so on), so the layer tracer sees these calls.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Benchmark the checkout's own source tree, never an installed copy.
SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
import gridsched as gs  # noqa: E402

if not Path(gs.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"gridsched imported from {gs.__file__}, not from {SRC}")

COST = gs.CostModel(2.0)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """Verdict of one operation: its label, whether it passed, and its output as text."""

    label: str
    ok: bool
    output: str


@dataclass
class PassResult:
    """Verdicts of one pass and the experiment CSVs it emitted, by experiment name."""

    ops: list[Op] = field(default_factory=list)
    csv: dict[str, str] = field(default_factory=dict)

    def add(self, label: str, ok: bool, output: object) -> None:
        self.ops.append(Op(label, bool(ok), output if isinstance(output, str) else repr(output)))

    def digest(self) -> str:
        """sha256 over every verdict, output and CSV, so two passes compare in one string."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.label}\t{op.ok}\t{op.output}\n".encode())
        for name in sorted(self.csv):
            h.update(name.encode() + b"\0" + self.csv[name].encode() + b"\0")
        return h.hexdigest()

    def csv_sha256(self) -> dict[str, str]:
        return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in sorted(self.csv.items())}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _le(a: float, b: float) -> bool:
    """a <= b up to a relative REL_TOL slack."""
    return a <= b + REL_TOL * max(1.0, abs(b))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def sub_seed(seed: int, *key: int) -> int:
    """An independent 64-bit seed for the stream ``key`` under the workload seed."""
    words = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])


# --- fig3-costs: the allowance sweep at its default config -------------------------


def build_fig3(seed: int, tiny: bool = False) -> gs.ExperimentConfig:
    config = gs.ExperimentConfig.default(gs.Experiment.FIG3_COSTS, seed=seed)
    if tiny:
        config = replace(config, trials=2, fig3_jobs=20, allowance_means=(5.0, 25.0))
    return config


def pass_fig3(config: gs.ExperimentConfig) -> PassResult:
    """One fig3 run; each CSV row is one operation, checked against criterion 08's ordering."""
    out = PassResult()
    try:
        result = gs.run_experiment(config)
    except Exception as exc:  # the whole sweep is lost: every row it owed fails
        for mean in config.allowance_means:
            out.add(f"fig3 allowance_mean={mean}", False, _error(exc))
        return out
    out.csv["fig3"] = result.to_csv_text()
    rows = result.rows_as_dicts()
    for mean, row in zip(config.allowance_means, rows):
        ok = (
            row["allowance_mean"] == mean
            and _le(row["c_min_offline"], min(row["c_min_online"], row["c_base"]))
            and _le(row["c_max_online"], row["c_max_offline"])
        )
        out.add(f"fig3 allowance_mean={mean}", ok, tuple(row.values()))
    for mean in config.allowance_means[len(rows) :]:
        out.add(f"fig3 allowance_mean={mean}", False, "row missing")
    return out


# --- fig45-budget: the budgeted-attack studies -----------------------------------


# fig4 runs 3 of its default 5 trials: a pass of 5 takes about 20 s, and with
# two passes per run the whole benchmark would not fit its time budget.
FIG4_TRIALS = 3


def build_fig45(seed: int, tiny: bool = False) -> tuple[gs.ExperimentConfig, gs.ExperimentConfig]:
    fig4 = gs.ExperimentConfig.default(gs.Experiment.FIG4_MAXMIN_BOUNDS, seed=seed, trials=FIG4_TRIALS)
    fig5 = gs.ExperimentConfig.default(gs.Experiment.FIG5_ORDERED_RATIO, seed=seed)
    if tiny:
        fig4 = replace(fig4, trials=1, fig4_jobs=12)
    return fig4, fig5


def pass_fig45(configs: tuple[gs.ExperimentConfig, gs.ExperimentConfig]) -> PassResult:
    """fig4 then fig5; each CSV row is one operation.

    fig4 rows: the greedy lower bound never exceeds c_max, and at beta = 1
    lower = upper = c_max.  fig5 rows: both clauses of criterion 07 -- the
    spacing-1 ratio is beta^2, and the spacing-10 ratio is at least the
    spacing-1 ratio at the same beta.
    """
    fig4, fig5 = configs
    out = PassResult()
    try:
        result = gs.run_experiment(fig4)
    except Exception as exc:
        for beta in fig4.betas:
            out.add(f"fig4 beta={beta}", False, _error(exc))
    else:
        out.csv["fig4"] = result.to_csv_text()
        rows = result.rows_as_dicts()
        for beta, row in zip(fig4.betas, rows):
            ok = row["beta"] == beta and _le(row["c_maxmin_lower"], row["c_max"])
            if beta == 1.0:
                ok = ok and _close(row["c_maxmin_lower"], row["c_max"]) and _close(row["c_maxmin_upper"], row["c_max"])
            out.add(f"fig4 beta={beta}", ok, tuple(row.values()))
        for beta in fig4.betas[len(rows) :]:
            out.add(f"fig4 beta={beta}", False, "row missing")

    expected = [(m, beta) for m in fig5.interarrival_grid for beta in fig5.fig5_betas]
    try:
        result = gs.run_experiment(fig5)
    except Exception as exc:
        for m, beta in expected:
            out.add(f"fig5 interarrival={m} beta={beta}", False, _error(exc))
        return out
    out.csv["fig5"] = result.to_csv_text()
    rows = result.rows_as_dicts()
    tight = {row["beta"]: row["ratio"] for row in rows if row["interarrival"] == 1}
    for (m, beta), row in zip(expected, rows):
        ratio = row["ratio"]
        ok = row["interarrival"] == m and row["beta"] == beta
        if m == 1:
            ok = ok and abs(ratio - beta**2) <= 1e-9
        elif m == 10:
            ok = ok and beta in tight and ratio >= tight[beta] - 1e-12
        else:
            ok = ok and 0.0 <= ratio <= 1.0 + REL_TOL
        out.add(f"fig5 interarrival={m} beta={beta}", ok, tuple(row.values()))
    for m, beta in expected[len(rows) :]:
        out.add(f"fig5 interarrival={m} beta={beta}", False, "row missing")
    return out


# --- controller-n400: the controller and the online attacker at n = 400 ------------

CONTROLLER_JOBS = 400
CONTROLLER_ALLOWANCE_MEANS = (5.0, 50.0)
# U[1e5, 1e6] energies reach the scale where the absolute ENERGY_TOL stops fitting
CONTROLLER_ENERGIES = ((1.0, 5.0), (1e5, 1e6))
CONTROLLER_DRAWS = 2


def build_controller(seed: int, tiny: bool = False) -> list[gs.Instance]:
    n = 40 if tiny else CONTROLLER_JOBS
    instances = []
    for a, mean in enumerate(CONTROLLER_ALLOWANCE_MEANS):
        for e, (low, high) in enumerate(CONTROLLER_ENERGIES):
            for draw in range(CONTROLLER_DRAWS):
                params = gs.GenParams(n, 5.0, mean, low, high, seed=sub_seed(seed, 1, a, e, draw))
                instances.append(gs.generate_instance(params))
    return instances


def pass_controller(instances: list[gs.Instance]) -> PassResult:
    """Per instance, three operations: the optimal schedule, the even spread, the online attack.

    The optimal schedule must cost no more than the inelastic baseline or
    the even spread; the even spread no less than the optimum; the online
    attack's realized cost must equal the value it reports.
    """
    out = PassResult()
    for idx, inst in enumerate(instances):
        try:
            optimal = gs.evaluate_cost(gs.schedule_optimal_offline(inst, COST), COST)
        except Exception as exc:
            optimal = exc
        try:
            even = gs.evaluate_cost(gs.schedule_online_even(inst), COST)
        except Exception as exc:
            even = exc
        base = gs.baseline_cost(inst, COST)
        if isinstance(optimal, Exception):
            out.add(f"instance {idx} optimal", False, _error(optimal))
        else:
            ok = _le(optimal, base) and (isinstance(even, Exception) or _le(optimal, even))
            out.add(f"instance {idx} optimal", ok, optimal)
        if isinstance(even, Exception):
            out.add(f"instance {idx} even", False, _error(even))
        else:
            ok = math.isfinite(even) and (isinstance(optimal, Exception) or _le(optimal, even))
            out.add(f"instance {idx} even", ok, even)
        try:
            plan, _, value = gs.online_edf_attack(inst, COST)
            realized = gs.realized_attack_cost(inst, plan, COST)
        except Exception as exc:
            out.add(f"instance {idx} online attack", False, _error(exc))
        else:
            out.add(f"instance {idx} online attack", _close(realized, value), (value, realized))
    return out


# --- oracle-desk: the oracle cross-checks of criteria 01, 02 and 06 ---------------

# Shapes (job count and window sizes) come from a fixed stream so that the
# enumeration work of a pass is the same for every seed; the seed draws the
# arrivals, which job gets which window, and the energies.
_SHAPE_SEED = 20120907
ORACLE_MAX_COST_SHAPES = 100  # criterion 01 scale: n <= 7, windows <= 5
ORACLE_CURVE_SHAPES = 40  # criterion 06 scale: n <= 6, windows <= 4


def _desk_shapes(count: int, max_jobs: int, max_window: int, stream: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng([_SHAPE_SEED, stream])
    return [
        tuple(int(w) for w in rng.integers(1, max_window + 1, size=int(rng.integers(1, max_jobs + 1))))
        for _ in range(count)
    ]


def desk_instance(rng: np.random.Generator, windows: tuple[int, ...]) -> gs.Instance:
    """Jobs with the given window sizes in random order, one arrival per slot, gaps of 1..3."""
    jobs = []
    arrival = 1
    for idx, width in enumerate(rng.permutation(np.array(windows, dtype=np.int64))):
        if idx:
            arrival += int(rng.integers(1, 4))
        jobs.append(gs.Job(idx, arrival, arrival + int(width) - 1, float(rng.uniform(1.0, 5.0))))
    return gs.Instance(jobs)


def build_oracle(seed: int, tiny: bool = False) -> tuple[list[gs.Instance], list[gs.Instance]]:
    scale = 10 if tiny else 1
    max_cost = [
        desk_instance(np.random.default_rng(sub_seed(seed, 2, k)), shape)
        for k, shape in enumerate(_desk_shapes(ORACLE_MAX_COST_SHAPES // scale, 7, 5, 1))
    ]
    curve = [
        desk_instance(np.random.default_rng(sub_seed(seed, 3, k)), shape)
        for k, shape in enumerate(_desk_shapes(ORACLE_CURVE_SHAPES // scale, 6, 4, 2))
    ]
    return max_cost, curve


def pass_oracle(inputs: tuple[list[gs.Instance], list[gs.Instance]]) -> PassResult:
    """The three oracle cross-checks, one operation per instance and check.

    Criterion 01: full_attack_dp equals brute_force_max_cost.  Criterion 02:
    the optimal schedule is certified by check_min_optimality, costs no
    more than the even spread or the baseline, and equals the exact
    unattacked optimum.  Criterion 06: limited_attack_curve dominates
    exact_limited_attack_curve at every budget.
    """
    max_cost, curve = inputs
    out = PassResult()
    for idx, inst in enumerate(max_cost):
        try:
            value = gs.full_attack_dp(inst, COST)[2]
            exact = gs.brute_force_max_cost(inst, COST)
        except Exception as exc:
            out.add(f"max-cost {idx}", False, _error(exc))
        else:
            out.add(f"max-cost {idx}", abs(value - exact) <= 1e-9, (value, exact))
        try:
            schedule = gs.schedule_optimal_offline(inst, COST)
            certified = gs.check_min_optimality(inst, schedule, COST, tol=1e-7).optimal
            optimal = gs.evaluate_cost(schedule, COST)
            even = gs.evaluate_cost(gs.schedule_online_even(inst), COST)
            base = gs.baseline_cost(inst, COST)
        except Exception as exc:
            out.add(f"certify {idx}", False, _error(exc))
        else:
            ok = certified and _le(optimal, even) and _le(optimal, base)
            out.add(f"certify {idx}", ok, (certified, optimal))
    for idx, inst in enumerate(curve):
        try:
            exact = gs.exact_limited_attack_curve(inst, COST)
            upper = gs.limited_attack_curve(inst, COST, inst.n)
            optimal = gs.evaluate_cost(gs.schedule_optimal_offline(inst, COST), COST)
        except Exception as exc:
            out.add(f"budget-curve {idx}", False, _error(exc))
        else:
            ok = _close(exact[0], optimal) and all(
                upper[b] >= exact[b] - REL_TOL * max(1.0, exact[b]) for b in range(1, inst.n + 1)
            )
            out.add(f"budget-curve {idx}", ok, (tuple(exact), tuple(float(v) for v in upper)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Any]  # (seed, tiny) -> inputs
    run_pass: Callable[[Any], PassResult]
    solved: Callable[[Any], list] | None  # inputs -> solved instances; None: those the tracer saw


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig3-costs", build_fig3, pass_fig3, None),
        Workload("fig45-budget", build_fig45, pass_fig45, None),
        Workload("controller-n400", build_controller, pass_controller, lambda inputs: list(inputs)),
        Workload("oracle-desk", build_oracle, pass_oracle, lambda inputs: [*inputs[0], *inputs[1]]),
    )
}
