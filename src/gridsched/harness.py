"""Random instance generation and the experiment harness.

Experiments reproduce four studies as plot-ready CSV: the closed-form
attack lower bound over (n, l_min) grids, the cost of all scheduling and
attack strategies versus the mean job allowance, the budgeted-attack
lower/upper bounds versus the alteration fraction, and the budgeted
attack ratio on identical evenly spaced jobs.

``run_experiment`` returns an ``ExperimentResult``, whose ``write`` saves
the CSV.

Reproducibility: every trial draws from an RNG stream derived from the
master seed and the trial's position, so reruns with the same
configuration emit byte-identical CSV regardless of execution order.
fig3 and fig4 run their trials through one loop (``_trial_means``) on one
draw (``_draw_params``).  The generator's arrivals strictly increase, as
fig4's upper bound requires, so no draw is redrawn; fig4's preamble keeps
the field ``redraws=0`` for its readers, such as perfbench's fig4_draws.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import max_cost_bound_value
from .attacker import (
    attack_budget,
    full_attack_dp,
    limited_attack_curve,
    limited_greedy_from_partition,
    online_edf_attack,
)
from .model import CostModel, Instance, Job, _is_int, baseline_cost, evaluate_cost
from .scheduler import min_cost, schedule_online_even


class Experiment(Enum):
    FIG2_BOUND = "fig2"
    FIG3_COSTS = "fig3"
    FIG4_MAXMIN_BOUNDS = "fig4"
    FIG5_ORDERED_RATIO = "fig5"


@dataclass(frozen=True)
class GenParams:
    """Parameters of the random instance generator.

    Arrivals follow a Poisson-style process: interarrival gaps are
    exponential with the given mean, rounded to the nearest integer and
    floored at 1 (so arrivals are strictly increasing and the first job
    arrives at slot 1).  Allowances are exponential, rounded, floored at
    1; energies are uniform on [energy_low, energy_high].
    """

    n: int
    mean_interarrival: float
    mean_allowance: float
    energy_low: float
    energy_high: float
    seed: int

    def __post_init__(self) -> None:
        if not _is_int(self.n, 1, math.inf):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        for name in ("mean_interarrival", "mean_allowance", "energy_low", "energy_high"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive real, got {value!r}")
            if name.startswith("energy") and value < sys.float_info.min:  # as Job rejects a subnormal energy
                raise ValueError(f"{name} must be a normal float, at least {sys.float_info.min!r}, got {value!r}")
        if self.energy_low > self.energy_high:
            raise ValueError(f"need energy_low <= energy_high, got ({self.energy_low}, {self.energy_high})")
        if not _is_int(self.seed, 0, 2**64 - 1):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


# The gaps and the largest allowance each stay below this, so every slot fits int64.
_SLOT_LIMIT = 2**62


def generate_instance(params: GenParams) -> Instance:
    """Deterministically draw an instance from the generator parameters."""
    rng = np.random.default_rng(params.seed)
    gaps = np.maximum(1, np.rint(rng.exponential(params.mean_interarrival, size=params.n - 1)))
    allowances = np.maximum(1, np.rint(rng.exponential(params.mean_allowance, size=params.n)))
    energies = rng.uniform(params.energy_low, params.energy_high, size=params.n)
    # the last deadline is below 1 + the sum of the gaps + the largest allowance
    for name, reach in (("mean_interarrival", gaps.sum()), ("mean_allowance", allowances.max())):
        if not reach < _SLOT_LIMIT:
            raise ValueError(
                f"{name}={getattr(params, name)!r} draws slots past {_SLOT_LIMIT} at seed {params.seed}"
            )
    gaps, allowances = gaps.astype(np.int64), allowances.astype(np.int64)
    arrivals = np.concatenate(([1], 1 + np.cumsum(gaps)))
    jobs = [
        Job(idx, int(arrivals[idx]), int(arrivals[idx] + allowances[idx]), float(energies[idx]))
        for idx in range(params.n)
    ]
    return Instance(jobs)


def make_identical_instance(n: int, energy: float, allowance: int, interarrival: int) -> Instance:
    """n identical jobs spaced ``interarrival`` slots apart, first arrival at slot 1."""
    for name, value in (("n", n), ("allowance", allowance), ("interarrival", interarrival)):
        if not _is_int(value, 1, math.inf):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    jobs = [
        Job(idx, 1 + idx * interarrival, 1 + idx * interarrival + allowance, float(energy))
        for idx in range(n)
    ]
    return Instance(jobs)


# The paper's fixed setups, which no run varies.
_MEAN_INTERARRIVAL = 5.0
_FIG2_N_GRID = (50, 100, 200)
_FIG2_LMIN_GRID = tuple(range(5, 55, 5))
_FIG2_MEAN_ENERGY = 10.0
_FIG3_ENERGY = (1.0, 5.0)
_FIG4_ENERGY = (1.0, 20.0)
_FIG4_MEAN_ALLOWANCE = 40.0
_FIG5_JOBS = 50
_FIG5_ENERGY = 5.0
_FIG5_ALLOWANCE = 50

# Default sweep grids and trial counts of ExperimentConfig.
_FIG3_ALLOWANCE_MEANS = tuple(float(v) for v in range(5, 55, 5))
_FIG4_BETAS = tuple(i / 10 for i in range(1, 11))
_FIG5_BETAS = tuple(i / 50 for i in range(1, 51))
_DEFAULT_TRIALS = {
    Experiment.FIG2_BOUND: 1,
    Experiment.FIG3_COSTS: 20,
    Experiment.FIG4_MAXMIN_BOUNDS: 5,
    Experiment.FIG5_ORDERED_RATIO: 1,
}


def _draw_params(n: int, mean_allowance: float, energy: tuple[float, float], seed: int) -> GenParams:
    """The generator setup of a fig3 or fig4 trial: arrivals _MEAN_INTERARRIVAL apart on average."""
    return GenParams(n, _MEAN_INTERARRIVAL, mean_allowance, *energy, seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: which study, its sweep grids, and the master seed.

    Defaults encode the reference setups of the four experiments; the parts
    of a setup that no run varies (fig2's grid, the generator's means and
    energy ranges, fig5's identical job) are module constants.  ``default``
    builds a config for a given experiment.  Construction, and so
    ``dataclasses.replace``, checks the parameters the experiment uses.
    """

    experiment: Experiment
    seed: int
    trials: int
    exponent: float = 2.0
    # allowance-mean sweep
    fig3_jobs: int = 100
    allowance_means: tuple[float, ...] = _FIG3_ALLOWANCE_MEANS
    # budgeted-attack bound sweep
    fig4_jobs: int = 50
    betas: tuple[float, ...] = _FIG4_BETAS
    # identical-job ratio sweep
    interarrival_grid: tuple[int, ...] = (1, 2, 5, 10)
    fig5_betas: tuple[float, ...] = _FIG5_BETAS

    @classmethod
    def default(
        cls,
        experiment: Experiment,
        seed: int,
        trials: int | None = None,
        exponent: float = 2.0,
    ) -> "ExperimentConfig":
        return cls(
            experiment=experiment,
            seed=seed,
            trials=trials if trials is not None else _DEFAULT_TRIALS[experiment],
            exponent=exponent,
        )

    def __post_init__(self) -> None:
        if not _is_int(self.trials, 1, math.inf):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        CostModel(self.exponent)  # rejects an exponent below 1 or not finite
        if not _is_int(self.seed, 0, 2**64 - 1):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.experiment is Experiment.FIG3_COSTS:
            if not self.allowance_means:
                raise ValueError("fig3 needs an allowance-mean sweep")
            for mean in self.allowance_means:
                _draw_params(self.fig3_jobs, mean, _FIG3_ENERGY, 0)
        elif self.experiment is Experiment.FIG4_MAXMIN_BOUNDS:
            if not self.betas or any(not 0 <= b <= 1 for b in self.betas):
                raise ValueError("fig4 needs a beta grid inside [0, 1]")
            _draw_params(self.fig4_jobs, _FIG4_MEAN_ALLOWANCE, _FIG4_ENERGY, 0)
        elif self.experiment is Experiment.FIG5_ORDERED_RATIO:
            if not self.fig5_betas or any(not 0 <= b <= 1 for b in self.fig5_betas):
                raise ValueError("fig5 needs a beta grid inside [0, 1]")
            if not self.interarrival_grid:
                raise ValueError("fig5 needs an interarrival grid")
            for spacing in self.interarrival_grid:
                make_identical_instance(_FIG5_JOBS, _FIG5_ENERGY, _FIG5_ALLOWANCE, spacing)


@dataclass
class ExperimentResult:
    """CSV-shaped experiment output: a metadata preamble, a header, and rows."""

    preamble: str
    header: tuple[str, ...]
    rows: list[tuple]

    def to_csv_text(self) -> str:
        lines = [self.preamble, ",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        path = Path(path)
        try:
            path.write_text(self.to_csv_text(), encoding="utf-8", newline="\n")
        except OSError as exc:
            raise OSError(f"cannot write experiment output to {path}: {exc}") from exc

    def rows_as_dicts(self) -> list[dict[str, float]]:
        return [dict(zip(self.header, row)) for row in self.rows]


def _format_cell(cell) -> str:
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return f"{float(cell):.12g}"


def _trial_seed(master_seed: int, *key: int) -> int:
    words = np.random.SeedSequence(master_seed, spawn_key=tuple(key)).generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment and return its rows; ``ExperimentResult.write`` writes them as CSV."""
    runner = {
        Experiment.FIG2_BOUND: _run_fig2,
        Experiment.FIG3_COSTS: _run_fig3,
        Experiment.FIG4_MAXMIN_BOUNDS: _run_fig4,
        Experiment.FIG5_ORDERED_RATIO: _run_fig5,
    }[config.experiment]
    return runner(config)


def _preamble(config: ExperimentConfig, extra: str = "") -> str:
    base = (
        f"# experiment={config.experiment.value} seed={config.seed} "
        f"trials={config.trials} b={_format_cell(config.exponent)} version={__version__}"
    )
    return base + (f" {extra}" if extra else "")


def _run_fig2(config: ExperimentConfig) -> ExperimentResult:
    """Closed-form attack lower bound over an (n, l_min) grid.

    Uses the expected totals of the generator setup: total energy
    _FIG2_MEAN_ENERGY * n and arrival span _MEAN_INTERARRIVAL * (n - 1).
    """
    rows = []
    for n in _FIG2_N_GRID:
        span = int(round(_MEAN_INTERARRIVAL * (n - 1)))
        for l_min in _FIG2_LMIN_GRID:
            bound = max_cost_bound_value(l_min, _FIG2_MEAN_ENERGY * n, span, config.exponent)
            rows.append((n, l_min, bound))
    return ExperimentResult(_preamble(config), ("n", "l_min", "lower_bound"), rows)


def _trial_means(config: ExperimentConfig, n, mean_allowance, energy, key, context, measure) -> np.ndarray:
    """The mean of ``measure(instance, cost)`` over a sweep point's trials, as a float64 array.

    Trial t draws ``n`` jobs by ``_draw_params`` at the seed
    ``_trial_seed(config.seed, *key(t))``, and the sums add the trials in
    order.  A failing trial raises RuntimeError naming the experiment,
    ``context``, the trial and its seed.
    """
    cost = CostModel(config.exponent)
    sums = 0.0
    for trial in range(config.trials):
        seed = _trial_seed(config.seed, *key(trial))
        try:
            sums += np.asarray(measure(generate_instance(_draw_params(n, mean_allowance, energy, seed)), cost))
        except Exception as exc:
            raise RuntimeError(
                f"{config.experiment.value} trial failed ({context}trial={trial}, seed={seed}): {exc}"
            ) from exc
    return sums / config.trials


def _fig3_costs(instance: Instance, cost: CostModel) -> tuple[float, ...]:
    """One draw's minimum offline, minimum online, baseline, maximum offline and maximum online costs."""
    _, _, c_max_offline = full_attack_dp(instance, cost)
    _, _, c_max_online = online_edf_attack(instance, cost)
    c_min_online = evaluate_cost(schedule_online_even(instance), cost)
    return min_cost(instance, cost), c_min_online, baseline_cost(instance, cost), c_max_offline, c_max_online


def _run_fig3(config: ExperimentConfig) -> ExperimentResult:
    """Average strategy costs versus the mean job allowance."""
    header = (
        "allowance_mean",
        "c_min_offline",
        "c_min_online",
        "c_base",
        "c_max_offline",
        "c_max_online",
        "max_offline_over_base",
        "min_offline_over_base",
    )
    rows = []
    for point, mean in enumerate(config.allowance_means):
        key, context = (lambda trial: (point, trial)), f"allowance_mean={mean}, "
        means = _trial_means(config, config.fig3_jobs, mean, _FIG3_ENERGY, key, context, _fig3_costs)
        rows.append((mean, *means, means[3] / means[2], means[0] / means[2]))
    return ExperimentResult(_preamble(config), header, rows)


def _run_fig4(config: ExperimentConfig) -> ExperimentResult:
    """Budgeted-attack lower and upper bounds versus the alteration fraction."""
    budgets = [attack_budget(beta, config.fig4_jobs) for beta in config.betas]

    def bounds(instance: Instance, cost: CostModel) -> list[tuple[float, float, float, float]]:
        _, partition, c_max = full_attack_dp(instance, cost)
        c_base = baseline_cost(instance, cost)
        upper = limited_attack_curve(instance, cost, max(budgets))
        return [
            (limited_greedy_from_partition(instance, partition, beta, cost)[1], float(upper[budget]), c_base, c_max)
            for beta, budget in zip(config.betas, budgets)
        ]

    means = _trial_means(
        config, config.fig4_jobs, _FIG4_MEAN_ALLOWANCE, _FIG4_ENERGY, lambda trial: (trial, 0), "", bounds
    )
    header = ("beta", "budget", "c_maxmin_lower", "c_maxmin_upper", "c_base", "c_max")
    rows = [(beta, budget, *row) for beta, budget, row in zip(config.betas, budgets, means)]
    return ExperimentResult(_preamble(config, "redraws=0"), header, rows)


def _run_fig5(config: ExperimentConfig) -> ExperimentResult:
    """Budgeted attack ratio to the optimal attack on identical evenly spaced jobs."""
    cost = CostModel(config.exponent)
    header = ("interarrival", "beta", "budget", "ratio", "c_limited", "c_max")
    rows = []
    for interarrival in config.interarrival_grid:
        instance = make_identical_instance(_FIG5_JOBS, _FIG5_ENERGY, _FIG5_ALLOWANCE, interarrival)
        _, partition, c_max = full_attack_dp(instance, cost)
        for beta in config.fig5_betas:
            _, value = limited_greedy_from_partition(instance, partition, beta, cost)
            rows.append((interarrival, beta, attack_budget(beta, _FIG5_JOBS), value / c_max, value, c_max))
    return ExperimentResult(_preamble(config), header, rows)
