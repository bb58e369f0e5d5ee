"""Closed-form performance bounds for power costs (load ** b).

Three guarantees are evaluated here:

* the online EDF attack achieves at least 1 / r**(b-1) of the optimal
  attack value, where r = ceil(l_max / l_min) + 1 over the job
  allowances;
* the optimal attack value is at least
  (l_min * total_energy / (2 * l_min + arrival_span)) ** b;
* the budgeted greedy attack achieves at least beta**b / 2 of the
  optimal attack value.

All three need every allowance to be positive; instances containing a
job with arrival == deadline make the first two vacuous, and their
evaluators return 0 rather than raise.
"""

from __future__ import annotations

import math

from .model import CostModel, Instance


def _check_non_negative(name: str, value: float) -> None:
    """Raise ValueError naming the argument unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def allowance_ratio(l_min: int, l_max: int) -> int:
    """ceil(l_max / l_min) + 1, computed in exact integer arithmetic.

    Caps how many consecutive online-attack blocks a single optimal block
    can straddle; not to be confused with the packing ratio below.
    """
    if l_min < 1:
        raise ValueError(f"minimum allowance must be >= 1, got {l_min}")
    if l_max < l_min:
        raise ValueError(f"l_max {l_max} smaller than l_min {l_min}")
    return -(-l_max // l_min) + 1


def arrival_packing_ratio(instance: Instance) -> float:
    """n * l_min / arrival_span, the density that limits the online block count.

    The online attack forms at most n / ratio + 2 blocks.  Infinite when
    all jobs arrive together (span 0).
    """
    if instance.n == 0:
        raise ValueError("packing ratio undefined for an empty instance")
    l_min, _ = instance.allowance_range()
    span = instance.jobs[-1].arrival - instance.jobs[0].arrival
    if span == 0:
        return math.inf
    return instance.n * l_min / span


def online_attack_factor(instance: Instance, exponent: float) -> float:
    """Guaranteed fraction of the optimal attack the online attack achieves.

    Returns r ** -(exponent - 1) with r = ceil(l_max / l_min) + 1, or 0
    when some allowance is zero (degenerate, bound vacuous).
    """
    CostModel(exponent)  # rejects an exponent below 1 or not finite
    l_min, l_max = instance.allowance_range()
    if l_min == 0:
        return 0.0
    return float(allowance_ratio(l_min, l_max) ** -(exponent - 1.0))


def max_cost_bound_value(l_min: int, total_energy: float, arrival_span: int, exponent: float) -> float:
    """(l_min * total_energy / (2 * l_min + arrival_span)) ** exponent.

    Raises ValueError if ``total_energy`` or ``arrival_span`` is NaN or negative.
    """
    CostModel(exponent)  # rejects an exponent below 1 or not finite
    _check_non_negative("total_energy", total_energy)
    _check_non_negative("arrival_span", arrival_span)
    if l_min < 1:
        return 0.0
    return float((l_min * total_energy / (2 * l_min + arrival_span)) ** exponent)


def max_cost_lower_bound(instance: Instance, exponent: float) -> float:
    """Explicit lower bound on the optimal attack value, 0 when degenerate."""
    if instance.n == 0:
        raise ValueError("bound undefined for an empty instance")
    l_min, _ = instance.allowance_range()
    span = instance.jobs[-1].arrival - instance.jobs[0].arrival
    return max_cost_bound_value(l_min, instance.total_energy, span, exponent)


def limited_attack_lower_bound(c_max: float, beta: float, exponent: float) -> float:
    """Guaranteed value of the budgeted greedy attack: beta**exponent * c_max / 2."""
    CostModel(exponent)  # rejects an exponent below 1 or not finite
    _check_non_negative("c_max", c_max)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    return beta**exponent * c_max / 2.0
