"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from gridsched.model import Instance, Job


def random_instance(
    rng: np.random.Generator,
    max_jobs: int = 7,
    min_jobs: int = 1,
    max_gap: int = 3,
    max_window: int = 5,
    min_window: int = 1,
    energy_low: float = 1.0,
    energy_high: float = 5.0,
) -> Instance:
    """Jobs with strictly increasing arrivals (one arrival per slot) and bounded windows."""
    n = int(rng.integers(min_jobs, max_jobs + 1))
    jobs = []
    arrival = 1
    for idx in range(n):
        if idx:
            arrival += int(rng.integers(1, max_gap + 1))
        width = int(rng.integers(min_window, max_window + 1))
        energy = float(rng.uniform(energy_low, energy_high))
        jobs.append(Job(idx, arrival, arrival + width - 1, energy))
    return Instance(jobs)


def random_instance_in_horizon(
    rng: np.random.Generator,
    max_jobs: int,
    horizon: int,
    max_window: int = 5,
    energy_low: float = 1.0,
    energy_high: float = 5.0,
) -> Instance:
    """Jobs packed inside [1, horizon]; arrivals may collide."""
    n = int(rng.integers(1, max_jobs + 1))
    jobs = []
    for idx in range(n):
        arrival = int(rng.integers(1, horizon + 1))
        deadline = int(rng.integers(arrival, min(arrival + max_window - 1, horizon) + 1))
        energy = float(rng.uniform(energy_low, energy_high))
        jobs.append(Job(idx, arrival, deadline, energy))
    return Instance(jobs)


def reference_limited_attack_curve(instance: Instance, cost, max_budget: int) -> np.ndarray:
    """Interval-by-interval, anchor-by-anchor evaluation of limited_attack_curve's recursion.

    Forms every sum in the same order as the library, so the two agree exactly.
    """
    n = instance.n
    if n == 0:
        return np.zeros(max_budget + 1)
    budget = min(max_budget, n)
    points = sorted(instance.endpoints())
    q = len(points)
    a_idx = [points.index(j.arrival) for j in instance.jobs]
    d_idx = [points.index(j.deadline) for j in instance.jobs]
    energy = np.array([j.energy for j in instance.jobs], dtype=np.float64)
    single = np.asarray(cost(energy), dtype=np.float64)
    by_energy = sorted(range(n), key=lambda k: (-instance.jobs[k].energy, instance.jobs[k].id))

    def convolve(left, right, cols):
        return np.array([max(left[s] + right[k - s] for s in range(k + 1)) for k in range(cols)])

    table = np.zeros((q + 2, q + 2, budget + 1))
    for width in range(q):
        for i in range(q - width):
            j = i + width
            contained = [k for k in range(n) if a_idx[k] >= i and d_idx[k] <= j]
            if not contained:
                continue
            cols = min(budget, len(contained)) + 1
            best = np.full(cols, -np.inf)
            for z in range(i, j + 1):
                clique = [k for k in contained if a_idx[k] <= z <= d_idx[k]]
                anchor = [k for k in clique if a_idx[k] == z]
                members = [k for k in by_energy if k in clique and k not in anchor]
                anchor_energy = float(energy[anchor[0]]) if anchor else 0.0
                picked_energy = np.concatenate(([0.0], np.cumsum(energy[members])))
                picked_single = np.concatenate(([0.0], np.cumsum(single[members])))
                values = np.asarray(cost(anchor_energy + picked_energy), dtype=np.float64)
                values += picked_single[-1] - picked_single
                gains = values[np.minimum(np.arange(cols), len(members))] if clique else np.zeros(cols)
                split = convolve(table[i + 1, z], table[z + 2, j + 1], cols)
                best = np.maximum(best, convolve(gains, split, cols))
            table[i + 1, j + 1, :cols] = best
            table[i + 1, j + 1, cols:] = best[-1]
    curve = table[1, q]
    return np.concatenate([curve, np.full(max_budget - budget, curve[-1])])
