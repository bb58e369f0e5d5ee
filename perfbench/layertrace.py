"""Per-layer timings measured from outside gridsched.

A ``LayerTracer`` replaces each traced function (or class) with a timing
wrapper at every gridsched module attribute that holds it, which is where
its callers look it up: ``gridsched.harness.full_attack_dp``,
``gridsched.scheduler.edf_fill``, ``gridsched.scheduler.Schedule``,
``gridsched.attacker.schedule_optimal_offline`` and so on.  It records calls,
total time and self time (total minus the time of traced calls made inside),
plus a few counts computed from the call arguments.  Leaving the ``with``
block puts every original back.  A name that a later version of gridsched no
longer defines is skipped and reads as zero.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

TRACED = (
    ("model", "Schedule"),
    ("model", "evaluate_cost"),
    ("model", "baseline_cost"),
    ("model", "apply_attack"),
    ("scheduler", "min_cost"),
    ("scheduler", "schedule_optimal_offline"),
    ("scheduler", "schedule_online_even"),
    ("scheduler", "edf_fill"),
    ("attacker", "full_attack_dp"),
    ("attacker", "online_edf_attack"),
    ("attacker", "limited_greedy_from_partition"),
    ("attacker", "limited_attack_curve"),
    ("attacker", "realized_attack_cost"),
    ("oracle", "exact_limited_attack_curve"),
    ("oracle", "brute_force_max_cost"),
    ("oracle", "check_min_optimality"),
    ("harness", "generate_instance"),
    ("harness", "run_experiment"),
)


def endpoint_count(instance) -> int:
    """q: the number of distinct arrival and deadline slots."""
    return len(instance.endpoints())


def elementary_sum(sizes: list[int], cap: int) -> int:
    """Sum of the elementary symmetric polynomials e_0..e_cap of ``sizes``.

    For window sizes this counts (altered subset of at most cap jobs,
    compression) pairs, which is how many schedules the exact budgeted
    oracle evaluates.
    """
    coeffs = [1] + [0] * cap
    for size in sizes:
        for k in range(cap, 0, -1):
            coeffs[k] += coeffs[k - 1] * size
    return sum(coeffs)


def _windows(instance) -> list[int]:
    return [job.deadline - job.arrival + 1 for job in instance.jobs]


def _count_schedule(counts, args):
    counts["allocations"] += len(args["allocations"])


def _count_full_attack(counts, args):
    q = endpoint_count(args["instance"])
    counts["cells"] += q * (q + 1) * (q + 2) // 6


def _count_limited_curve(counts, args):
    counts["q_sum"] += endpoint_count(args["instance"])
    counts["budget"] += int(args["max_budget"])


def _count_exact_curve(counts, args):
    instance = args["instance"]
    budget = args.get("max_budget")
    cap = instance.n if budget is None else min(budget, instance.n)
    counts["enumerations"] += elementary_sum(_windows(instance), cap)


def _count_brute_force(counts, args):
    product = 1
    for size in _windows(args["instance"]):
        product *= size
    counts["assignments"] += product if args["instance"].n else 0


# computed counts: derived from the arguments alone, so they repeat exactly
COUNTERS = {
    "model.Schedule": (("allocations",), _count_schedule),
    "attacker.full_attack_dp": (("cells",), _count_full_attack),
    "attacker.limited_attack_curve": (("q_sum", "budget"), _count_limited_curve),
    "oracle.exact_limited_attack_curve": (("enumerations",), _count_exact_curve),
    "oracle.brute_force_max_cost": (("assignments",), _count_brute_force),
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class LayerTracer:
    """Context manager that times every TRACED name while it is active."""

    def __init__(self) -> None:
        self.stats = {f"{mod}.{name}": LayerStats() for mod, name in TRACED}
        for key, (names, _) in COUNTERS.items():
            self.stats[key].counts = dict.fromkeys(names, 0)
        self.full_attack_instances: list = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, original):
        stats = self.stats[key]
        stack = self._stack
        counter = COUNTERS.get(key, (None, None))[1]
        signature = inspect.signature(original) if counter else None
        keep_instance = key == "attacker.full_attack_dp"
        seen = self.full_attack_instances

        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(stats.counts, bound.arguments)
                if keep_instance:
                    seen.append(bound.arguments["instance"])
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def __enter__(self) -> "LayerTracer":
        modules = [m for name, m in sys.modules.items() if name == "gridsched" or name.startswith("gridsched.")]
        for mod, name in TRACED:
            home = sys.modules.get(f"gridsched.{mod}")
            original = getattr(home, name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key, stats in self.stats.items():
            out[f"{key}.calls"] = (stats.calls, "count")
            out[f"{key}.total_s"] = (stats.total_s, "s")
            out[f"{key}.self_s"] = (stats.self_s, "s")
            for name, value in stats.counts.items():
                out[f"{key}.{name}"] = (value, "count")
        return out

