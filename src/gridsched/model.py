"""Core domain model for slotted demand scheduling under adversarial alteration.

Time is discrete, 1-based and inclusive on both ends: a job with
arrival == deadline == t occupies exactly slot t, and a window [k, l]
spans l - k + 1 slots.  Energies are real valued; attack slots are
integers.  All types are immutable values after construction and every
operation is a pure function, so everything here is safe to share across
concurrent callers.  A ``Schedule`` keeps its allocations as a dict but
checks them as numpy arrays, with the errors of an entry-by-entry loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, islice, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

ENERGY_TOL = 1e-9
"""Relative tolerance for energy-conservation checks on real-valued schedules.

A job's allocations must sum to its energy within ENERGY_TOL * max(1, energy),
so the check scales with the data and is absolute for energies below 1.
"""

INSTANCE_CSV_HEADER = ("id", "arrival", "deadline", "energy")


@dataclass(frozen=True)
class Job:
    """A single energy demand: serve ``energy`` units within [arrival, deadline]."""

    id: int
    arrival: int
    deadline: int
    energy: float

    def __post_init__(self) -> None:
        # every array path holds ids and slots as int64
        if not isinstance(self.id, int) or isinstance(self.id, bool) or not 0 <= self.id <= 2**63 - 1:
            raise ValueError(f"job id must be an integer in [0, 2^63 - 1], got {self.id!r}")
        for name in ("arrival", "deadline"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 2**63 - 1:
                raise ValueError(f"job {self.id}: {name} must be an integer slot in [1, 2^63 - 1], got {value!r}")
        if self.arrival > self.deadline:
            raise ValueError(f"job {self.id}: arrival {self.arrival} exceeds deadline {self.deadline}")
        object.__setattr__(self, "energy", float(self.energy))
        if not math.isfinite(self.energy) or self.energy <= 0.0:
            raise ValueError(f"job {self.id}: energy must be a finite positive real, got {self.energy!r}")

    @property
    def allowance(self) -> int:
        """Slack between deadline and arrival; the window spans allowance + 1 slots."""
        return self.deadline - self.arrival

    def covers(self, slot: int) -> bool:
        return self.arrival <= slot <= self.deadline


@dataclass(frozen=True, init=False)
class Instance:
    """An ordered collection of jobs, sorted by arrival (ties by id)."""

    jobs: tuple[Job, ...]

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        jobs = tuple(jobs)
        for job in jobs:
            if not isinstance(job, Job):
                raise TypeError(f"expected Job, got {type(job).__name__}")
        ordered = tuple(sorted(jobs, key=lambda j: (j.arrival, j.id)))
        seen: set[int] = set()
        for job in ordered:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)
        object.__setattr__(self, "jobs", ordered)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def horizon(self) -> int:
        """Largest deadline over all jobs; 0 for an empty instance."""
        return max((j.deadline for j in self.jobs), default=0)

    @cached_property
    def _by_id(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}

    def job(self, job_id: int) -> Job:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise KeyError(f"unknown job id {job_id}") from None

    @property
    def job_ids(self) -> frozenset[int]:
        return frozenset(self._by_id)

    @cached_property
    def total_energy(self) -> float:
        return _added(j.energy for j in self.jobs)

    def endpoints(self) -> tuple[int, ...]:
        """Sorted set of all arrival and deadline slots."""
        points = {j.arrival for j in self.jobs} | {j.deadline for j in self.jobs}
        return tuple(sorted(points))

    def allowance_range(self) -> tuple[int, int]:
        """(smallest, largest) allowance over the jobs; rejects empty instances."""
        if not self.jobs:
            raise ValueError("allowance range of an empty instance is undefined")
        allowances = [j.allowance for j in self.jobs]
        return min(allowances), max(allowances)


def _job_arrays(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ids, arrivals, deadlines and energies of the jobs as numpy arrays, in instance order."""
    jobs = instance.jobs
    return (
        np.array([j.id for j in jobs], dtype=np.int64),
        np.array([j.arrival for j in jobs], dtype=np.int64),
        np.array([j.deadline for j in jobs], dtype=np.int64),
        np.array([j.energy for j in jobs], dtype=np.float64),
    )


@dataclass(frozen=True)
class CostModel:
    """Per-slot cost of serving a load: non-decreasing, convex, with zero cost at zero load.

    The power family charges load ** exponent; exponent 1 is the linear
    edge case, exponent 2 the quadratic cost used in the experiments.
    Calls accept scalars or numpy arrays.
    """

    exponent: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", float(self.exponent))
        if not math.isfinite(self.exponent) or self.exponent < 1.0:
            raise ValueError(f"cost exponent must be a finite real >= 1, got {self.exponent!r}")

    def __call__(self, load):
        return load ** self.exponent


@dataclass(frozen=True, init=False)
class Schedule:
    """Energy allocations (job id, slot) -> amount for one instance.

    Invariants enforced at construction: allocations are finite and
    non-negative, stay inside each job's window, and sum to each job's
    energy within ENERGY_TOL * max(1, energy).  Zero entries are dropped.

    The entries are checked as arrays: amounts through ``float``, job ids
    by dict lookup, slots as Python ints (numpy integers and floats are
    rejected) inside the job's window, and each job's total by
    ``np.bincount`` in insertion order, the sum an entry-by-entry loop
    forms.  A failure raises for the first offending entry, checking its
    amount's finiteness, then its sign, its job id and its slot; once every
    entry passes, for the first job in instance order whose total misses
    its energy.
    """

    instance: Instance
    allocations: dict[tuple[int, int], float]

    def __init__(self, instance: Instance, allocations: Mapping[tuple[int, int], float]) -> None:
        jobs, size = instance.jobs, len(allocations)
        index = {job.id: k for k, job in enumerate(jobs)}
        # one window per job, and for unknown ids a last one that holds no slot
        arrivals, deadlines = np.array([(job.arrival, job.deadline) for job in jobs] + [(1, 0)]).T
        energies = np.array([job.energy for job in jobs])
        where = np.fromiter(map(index.get, map(itemgetter(0), allocations), repeat(len(jobs))), np.intp, size)
        slots = list(map(itemgetter(1), allocations))
        amounts = np.fromiter(map(float, allocations.values()), np.float64, size)
        try:
            at = np.fromiter(slots, np.int64, size)
        except (TypeError, ValueError, OverflowError):  # a slot past int64 or not a number: compare objects
            at = np.array([slot if isinstance(slot, int) else 0 for slot in slots], dtype=object)
        inside = (arrivals[where] <= at) & (at <= deadlines[where])
        inside &= np.fromiter(map(isinstance, slots, repeat(int)), bool, size)
        zero = amounts == 0.0
        good = zero | np.isfinite(amounts) & (amounts > 0.0) & inside
        if not good.all():
            (job_id, slot), amount = next(islice(allocations.items(), int(good.argmin()), None))
            amount = float(amount)
            if not math.isfinite(amount):
                raise ValueError(f"non-finite allocation {amount!r} for job {job_id} at slot {slot}")
            if amount < 0.0:
                raise ValueError(f"negative allocation {amount!r} for job {job_id} at slot {slot}")
            try:
                job = instance.job(job_id)
            except KeyError as exc:
                raise ValueError(str(exc)) from None
            raise ValueError(f"job {job_id}: slot {slot} outside window [{job.arrival}, {job.deadline}]")
        # zero entries add exact zeros; those of unknown ids land in the last bin
        totals = np.bincount(where, weights=amounts, minlength=len(jobs) + 1)[:-1]
        short = ~(np.abs(totals - energies) <= ENERGY_TOL * np.maximum(1.0, energies))
        if short.any():
            k = int(short.argmax())
            raise ValueError(
                f"job {jobs[k].id}: allocated {float(totals[k])!r} does not conserve energy {jobs[k].energy!r}"
            )
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "allocations", dict(compress(zip(allocations, amounts.tolist()), (~zero).tolist())))

    def slot_loads(self) -> dict[int, float]:
        """Total load per slot, ascending by slot; zero-load slots omitted."""
        loads: dict[int, float] = {}
        for (_, slot), amount in self.allocations.items():
            loads[slot] = loads.get(slot, 0.0) + amount
        return dict(sorted(loads.items()))


@dataclass(frozen=True)
class AttackPlan:
    """Per-job compression slots.

    A compressed job is forced to arrival == deadline == slot; a job whose
    window already equals (slot, slot) is compressed but not altered.
    Energies are never modified.
    """

    compressed: dict[int, int]

    @classmethod
    def empty(cls) -> "AttackPlan":
        return cls({})

    @classmethod
    def from_compression(cls, instance: Instance, slots: Mapping[int, int]) -> "AttackPlan":
        """Build a validated plan from a job id -> slot mapping."""
        plan = cls({int(jid): int(slot) for jid, slot in slots.items()})
        plan.validate(instance)
        return plan

    def validate(self, instance: Instance) -> None:
        """Raise ValueError when the plan is infeasible (hence detectable) for the instance."""
        for jid, slot in self.compressed.items():
            job = _plan_job(instance, jid)
            if not job.covers(slot):
                raise ValueError(
                    f"attack plan moves job {jid} to slot {slot} outside its window "
                    f"[{job.arrival}, {job.deadline}]"
                )

    def altered(self, instance: Instance) -> frozenset[int]:
        """Ids of the jobs whose window the plan actually changes."""
        return frozenset(
            jid
            for jid, slot in self.compressed.items()
            if (instance.job(jid).arrival, instance.job(jid).deadline) != (slot, slot)
        )


def _plan_job(instance: Instance, job_id: int) -> Job:
    try:
        return instance.job(job_id)
    except KeyError:
        raise ValueError(f"attack plan references unknown job id {job_id}") from None


@dataclass(frozen=True)
class CliqueBlock:
    """A set of job ids sharing a common feasible slot."""

    slot: int
    members: frozenset[int]


@dataclass(frozen=True)
class CliquePartition:
    """Blocks of jobs, each block pinned to one slot covered by all members."""

    blocks: tuple[CliqueBlock, ...]

    def validate(self, instance: Instance) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            for jid in block.members:
                if jid in seen:
                    raise ValueError(f"job {jid} appears in more than one block")
                seen.add(jid)
                job = _plan_job(instance, jid)
                if not job.covers(block.slot):
                    raise ValueError(f"job {jid} does not cover block slot {block.slot}")
        if seen != set(instance.job_ids):
            missing = set(instance.job_ids) - seen
            raise ValueError(f"blocks do not cover job ids {sorted(missing)}")

    def to_plan(self, instance: Instance) -> AttackPlan:
        """Compression plan sending every member to its block slot."""
        slots = {jid: block.slot for block in self.blocks for jid in block.members}
        return AttackPlan.from_compression(instance, slots)


def apply_attack(instance: Instance, plan: AttackPlan) -> Instance:
    """Return the instance the controller sees after the attack.

    Each compressed job gets arrival = deadline = its plan slot; other
    jobs and all energies are unchanged.  Rejects plans referencing
    unknown ids or slots outside a job's window.
    """
    plan.validate(instance)
    jobs = []
    for job in instance.jobs:
        slot = plan.compressed.get(job.id)
        if slot is None:
            jobs.append(job)
        else:
            jobs.append(Job(job.id, slot, slot, job.energy))
    return Instance(jobs)


def _added(terms: Iterable[float]) -> float:
    """Sum of the terms, added strictly left to right.

    The built-in ``sum`` compensates float rounding from Python 3.12 on,
    so it would give other bits on other Pythons.
    """
    return reduce(add, terms, 0.0)


def _slot_cost(slots: np.ndarray, amounts: np.ndarray, cost: CostModel) -> float:
    """Total cost of the loads that ``amounts`` put on ``slots``.

    Each slot's load is added up in input order (``np.bincount`` adds in
    input order, as accumulating into a dict does), and cost(load) is summed
    left to right over the occupied slots in ascending order with Python's
    scalar pow: numpy's array ``**`` differs from it in the last bit on some
    loads.
    """
    occupied, where = np.unique(slots, return_inverse=True)
    loads = np.bincount(where, weights=amounts, minlength=occupied.size)
    return _added(cost(load) for load in loads.tolist())


def evaluate_cost(schedule: Schedule, cost: CostModel) -> float:
    """Total cost of a schedule: sum of the per-slot cost over its load profile."""
    allocations = schedule.allocations
    slots = np.fromiter(map(itemgetter(1), allocations), np.int64, len(allocations))
    return _slot_cost(slots, np.fromiter(allocations.values(), np.float64, len(allocations)), cost)


def baseline_cost(instance: Instance, cost: CostModel) -> float:
    """Cost of inelastic service; jobs sharing an arrival slot stack before the cost applies."""
    _, arrivals, _, energies = _job_arrays(instance)
    return _slot_cost(arrivals, energies, cost)


def read_instance_csv(path: str | Path) -> Instance:
    """Parse an instance file: header ``id,arrival,deadline,energy``, one job per line.

    Violations of the job invariants are rejected with the offending line
    number in the error message.
    """
    path = Path(path)
    jobs: list[Job] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: line 1: missing header {','.join(INSTANCE_CSV_HEADER)}") from None
        if tuple(col.strip() for col in header) != INSTANCE_CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header {','.join(INSTANCE_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            try:
                job = Job(
                    id=int(row[0]),
                    arrival=int(row[1]),
                    deadline=int(row[2]),
                    energy=float(row[3]),
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            jobs.append(job)
    try:
        return Instance(jobs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_instance_csv(instance: Instance, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(INSTANCE_CSV_HEADER)
        for job in instance.jobs:
            writer.writerow([job.id, job.arrival, job.deadline, repr(job.energy)])
