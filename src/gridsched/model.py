"""Core domain model for slotted demand scheduling under adversarial alteration.

Time is discrete, 1-based and inclusive on both ends: a job with
arrival == deadline == t occupies exactly slot t, and a window [k, l]
spans l - k + 1 slots.  Energies are real valued; attack slots are
integers.  All types are immutable values after construction and every
operation is a pure function, so everything here is safe to share across
concurrent callers.  Computations read an ``Instance``'s job arrays and a
``Schedule``'s entry arrays; set operations go through ``_distinct`` and ``_ranks``.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, islice, repeat
from operator import add, itemgetter
from pathlib import Path

import numpy as np

ENERGY_TOL = 1e-9
"""Relative tolerance for energy-conservation checks on real-valued schedules.

A job's allocations must sum to its energy within ENERGY_TOL * energy at
every energy scale, so scaling all energies by 2^k scales the bound with them.
"""

INSTANCE_CSV_HEADER = ("id", "arrival", "deadline", "energy")


@dataclass(frozen=True)
class Job:
    """A single energy demand: serve ``energy`` units within [arrival, deadline].

    Arrival and deadline are slots, integers in [1, 2^63 - 1] by
    ``_is_int``; the energy is a finite normal float, so no subnormal
    energy reaches a schedule's tolerances.
    """

    id: int
    arrival: int
    deadline: int
    energy: float

    def __post_init__(self) -> None:
        # every array path holds ids and slots as int64
        if not _is_int(self.id, 0, 2**63 - 1):
            raise ValueError(f"job id must be an integer in [0, 2^63 - 1], got {self.id!r}")
        for name in ("arrival", "deadline"):
            value = getattr(self, name)
            if not _is_int(value, 1, 2**63 - 1):
                raise ValueError(f"job {self.id}: {name} must be an integer slot in [1, 2^63 - 1], got {value!r}")
        if self.arrival > self.deadline:
            raise ValueError(f"job {self.id}: arrival {self.arrival} exceeds deadline {self.deadline}")
        object.__setattr__(self, "energy", float(self.energy))
        # below the smallest normal float ENERGY_TOL * energy underflows, and 5e-324 cannot be split at all
        if not sys.float_info.min <= self.energy < math.inf:
            raise ValueError(
                f"job {self.id}: energy must be a finite real of at least {sys.float_info.min!r}"
                f" (the smallest normal float), got {self.energy!r}"
            )

    @property
    def allowance(self) -> int:
        """Slack between deadline and arrival; the window spans allowance + 1 slots."""
        return self.deadline - self.arrival


@dataclass(frozen=True, init=False)
class Instance:
    """One demand set: its ``jobs`` sorted by arrival (ties by id), counted by ``n``."""

    jobs: tuple[Job, ...]

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        jobs = tuple(jobs)
        for job in jobs:
            if not isinstance(job, Job):
                raise TypeError(f"expected Job, got {type(job).__name__}")
        ordered = tuple(sorted(jobs, key=lambda j: (j.arrival, j.id)))
        positions: dict[int, int] = {}  # each job id's position in ``jobs``
        for k, job in enumerate(ordered):
            if positions.setdefault(job.id, k) != k:
                raise ValueError(f"duplicate job id {job.id}")
        object.__setattr__(self, "jobs", ordered)
        object.__setattr__(self, "_positions", positions)

    @property
    def n(self) -> int:
        return len(self.jobs)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        arrays = (
            np.array([j.id for j in self.jobs], dtype=np.int64),
            np.array([j.arrival for j in self.jobs], dtype=np.int64),
            np.array([j.deadline for j in self.jobs], dtype=np.int64),
            np.array([j.energy for j in self.jobs], dtype=np.float64),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def job(self, job_id: int) -> Job:
        try:
            return self.jobs[self._positions[job_id]]
        except KeyError:
            raise KeyError(f"unknown job id {job_id}") from None

    @property
    def job_ids(self) -> frozenset[int]:
        return frozenset(self._positions)

    @cached_property
    def total_energy(self) -> float:
        return _added(j.energy for j in self.jobs)

    def endpoints(self) -> tuple[int, ...]:
        """Sorted set of all arrival and deadline slots."""
        return tuple(_distinct(np.concatenate(self._arrays[1:3])).tolist())

    def allowance_range(self) -> tuple[int, int]:
        """(smallest, largest) allowance over the jobs; rejects empty instances."""
        if not self.jobs:
            raise ValueError("allowance range of an empty instance is undefined")
        allowances = [j.allowance for j in self.jobs]
        return min(allowances), max(allowances)


def _is_int(value, lo, hi) -> bool:
    """One integer rule for ids, slots, clique labels, seeds and counts: a Python ``int``, not ``bool``, in [lo, hi]."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def _job_arrays(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ids, arrivals, deadlines and energies of the jobs in instance order: read-only, built once per instance."""
    return instance._arrays


def _placed(instance: Instance, ids: Iterable, slots: list | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each entry's job position in the instance, its slot as int64, and whether the slot lies in that job's window.

    The one placement check of schedules, attack plans and partitions.  An
    unknown id gets position n, whose window holds no slot.  A listed slot
    outside ``_is_int``'s [1, 2^63 - 1] is read as 0, which lies in no window.  Given
    int64 arrays of ids and slots, as a schedule's entries hold them, each
    id is looked up in the instance's sorted ids, with no per-entry object.
    """
    size, n = len(slots), instance.n
    job_ids, arrivals, deadlines, _ = _job_arrays(instance)
    if isinstance(slots, np.ndarray):
        order = np.argsort(job_ids)
        where = np.append(order, n)[np.searchsorted(job_ids, ids, sorter=order)]
        where[np.append(job_ids, -1)[where] != ids] = n  # ids are non-negative, so -1 matches none
        at = slots
    else:
        where = np.fromiter(map(instance._positions.get, ids, repeat(n)), np.intp, size)
        at = np.fromiter((slot if _is_int(slot, 1, 2**63 - 1) else 0 for slot in slots), np.int64, size)
    inside = (np.append(arrivals, 1)[where] <= at) & (at <= np.append(deadlines, 0)[where])
    return where, at, inside


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


class _Entries(Mapping):
    """A schedule's entries as a read-only (job id, slot) -> amount mapping over arrays in entry order.

    The int64 job ids and slots and the float64 amounts are kept as given
    and made read-only.  ``len`` and iteration read them directly; a key ->
    amount dict is built from them on the first read by key, which
    ``Mapping``'s ``values``, ``items`` and ``==`` go through, as ``repr`` does.
    """

    __slots__ = ("_ids", "_slots", "_amounts", "_index")

    def __init__(self, ids: np.ndarray, slots: np.ndarray, amounts: np.ndarray) -> None:
        for array in (ids, slots, amounts):
            array.flags.writeable = False
        self._ids, self._slots, self._amounts = ids, slots, amounts
        self._index: dict[tuple[int, int], float] | None = None

    def __len__(self) -> int:
        return self._amounts.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._ids.tolist(), self._slots.tolist())

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self._keyed()[key]

    def __repr__(self) -> str:
        return repr(self._keyed())

    def _keyed(self) -> dict[tuple[int, int], float]:
        if self._index is None:
            self._index = dict(zip(self, self._amounts.tolist()))
        return self._index


@dataclass(frozen=True, init=False)
class Schedule:
    """Energy allocations (job id, slot) -> amount for one instance.

    Invariants enforced at construction: allocations are finite and
    non-negative, stay inside each job's window, and sum to each job's
    energy within ENERGY_TOL * energy.  Zero entries are dropped.

    The entries are checked as arrays: job ids and slots by ``_placed``,
    amounts through ``float``, and each job's total by ``np.bincount`` in
    entry order, the sum an entry-by-entry loop forms.  A failure raises
    for the first offending entry, checking its amount's finiteness, then
    its sign, its job id and its slot; once every entry passes, for the
    first job in instance order whose total misses its energy.

    ``allocations`` is a read-only mapping over the kept entries' arrays,
    which ``evaluate_cost`` and ``slot_loads`` read.  Another schedule's
    ``allocations`` are taken as they are, arrays and all, and checked
    against the given instance; any other mapping is read entry by entry.
    """

    instance: Instance
    allocations: Mapping[tuple[int, int], float]

    def __init__(self, instance: Instance, allocations: Mapping[tuple[int, int], float]) -> None:
        jobs = instance.jobs
        job_ids, _, _, energies = _job_arrays(instance)
        if isinstance(allocations, _Entries):
            ids, slots, amounts = allocations._ids, allocations._slots, allocations._amounts
        else:
            ids, slots = map(itemgetter(0), allocations), list(map(itemgetter(1), allocations))
            amounts = np.fromiter(map(float, allocations.values()), np.float64, len(allocations))
        where, at, inside = _placed(instance, ids, slots)
        zero = amounts == 0.0
        good = zero | np.isfinite(amounts) & (amounts > 0.0) & inside
        if not good.all():
            k = int(good.argmin())
            (job_id, slot), amount = next(islice(allocations.items(), k, None))
            amount = float(amount)
            if not math.isfinite(amount):
                raise ValueError(f"non-finite allocation {amount!r} for job {job_id} at slot {slot}")
            if amount < 0.0:
                raise ValueError(f"negative allocation {amount!r} for job {job_id} at slot {slot}")
            if where[k] == len(jobs):
                raise ValueError(f"unknown job id {job_id}")
            job = jobs[where[k]]
            raise ValueError(f"job {job_id}: slot {slot} outside window [{job.arrival}, {job.deadline}]")
        # zero entries add exact zeros; those of unknown ids land in the last bin
        totals = np.bincount(where, weights=amounts, minlength=len(jobs) + 1)[:-1]
        short = ~(np.abs(totals - energies) <= ENERGY_TOL * energies)
        if short.any():
            k = int(short.argmax())
            raise ValueError(
                f"job {jobs[k].id}: allocated {float(totals[k])!r} does not conserve energy {jobs[k].energy!r}"
            )
        if not isinstance(allocations, _Entries) or zero.any():
            allocations = _Entries(job_ids[where[~zero]], at[~zero], amounts[~zero])
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "allocations", allocations)

    def slot_loads(self) -> dict[int, float]:
        """Total load per slot, ascending by slot; zero-load slots omitted."""
        loads = _slot_loads(self.allocations._slots, self.allocations._amounts)
        return dict(zip(*(array.tolist() for array in loads)))


@dataclass(frozen=True)
class AttackPlan:
    """Per-job compression slots.

    A compressed job is forced to arrival == deadline == slot; a job whose
    window already equals (slot, slot) is compressed but not altered.
    Energies are never modified.  A plan is feasible when ``_placed`` puts
    each slot in its job's window, as for a schedule's entries.
    """

    compressed: dict[int, int]

    def validate(self, instance: Instance) -> None:
        """Raise ValueError when the plan is infeasible (hence detectable) for the instance."""
        where, _, inside = _placed(instance, self.compressed, list(self.compressed.values()))
        if not inside.all():
            k = int(inside.argmin())
            jid, slot = next(islice(self.compressed.items(), k, None))
            if where[k] == instance.n:
                raise ValueError(f"attack plan references unknown job id {jid}")
            job = instance.jobs[where[k]]
            window = f"[{job.arrival}, {job.deadline}]"
            raise ValueError(f"attack plan moves job {jid} to slot {slot} outside its window {window}")

    def altered(self, instance: Instance) -> frozenset[int]:
        """Ids of the jobs whose window the plan actually changes; rejects what ``validate`` rejects."""
        self.validate(instance)
        where = _placed(instance, self.compressed, list(self.compressed.values()))[0]
        _, arrivals, deadlines, _ = _job_arrays(instance)
        # a slot inside a one-slot window is that slot
        return frozenset(compress(self.compressed, (arrivals[where] != deadlines[where]).tolist()))


@dataclass(frozen=True)
class CliquePartition:
    """Jobs grouped into cliques, each pinned at one slot that all its members cover.

    ``cliques`` maps each job id to its (clique label, clique slot), in
    instance order, each label an integer in int64's range.  Jobs that share
    a label form one clique and share its slot, cliques rank by label, and
    every job is in exactly one clique, so a clique with no member cannot be
    written down.
    """

    cliques: dict[int, tuple[int, int]]

    def validate(self, instance: Instance) -> None:
        self._assignment(instance)

    def to_plan(self, instance: Instance) -> AttackPlan:
        """Compression plan sending every job to its clique's slot."""
        _, slots = self._assignment(instance)
        return AttackPlan(dict(zip(_job_arrays(instance)[0].tolist(), slots.tolist())))

    def _assignment(self, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
        """Each job's clique rank (0, 1, ... in label order) and clique slot in instance order.

        ``validate``, ``to_plan`` and the greedy share it.  Raises ValueError
        for the first job, in mapping order, whose label is not an integer
        in int64's range by ``_is_int``; then for the first that is unknown
        or does not cover its slot; then for the first whose slot differs
        from its clique's first member's; then for the jobs the mapping
        leaves out.
        """
        for jid, (label, _) in self.cliques.items():
            if not _is_int(label, -(2**63), 2**63 - 1):
                raise ValueError(f"job {jid}: clique label must be an integer in [-2^63, 2^63 - 1], got {label!r}")
        ids = list(self.cliques)
        labels = [label for label, _ in self.cliques.values()]
        slots = [slot for _, slot in self.cliques.values()]
        where, at, inside = _placed(instance, ids, slots)
        if not inside.all():
            k = int(inside.argmin())
            if where[k] == instance.n:
                raise ValueError(f"blocks reference unknown job id {ids[k]}")
            job = instance.jobs[where[k]]
            window = f"outside a member's window [{job.arrival}, {job.deadline}]"
            raise ValueError(f"job {ids[k]} does not cover block slot {slots[k]}: {window}")
        _, rank, order = _ranks(np.array(labels, dtype=np.int64), kind="stable")
        first = order[np.searchsorted(rank[order], rank)]  # each clique's first member in mapping order, as sorted
        clash = at != at[first]
        if clash.any():
            k = int(clash.argmax())
            raise ValueError(f"clique {labels[k]} names two slots, {slots[first[k]]} and {slots[k]}")
        if len(ids) < instance.n:
            raise ValueError(f"blocks do not cover every job: missing ids {sorted(instance.job_ids - set(ids))}")
        back = np.argsort(where)  # the mapped jobs' positions are a permutation of the jobs'
        return rank[back], at[back]


def apply_attack(instance: Instance, plan: AttackPlan) -> Instance:
    """Return the instance the controller sees after the attack.

    Each compressed job gets arrival = deadline = its plan slot; other
    jobs and all energies are unchanged.  Rejects plans referencing
    unknown ids or slots outside a job's window.
    """
    plan.validate(instance)
    slots = plan.compressed
    return Instance(
        Job(job.id, slots[job.id], slots[job.id], job.energy) if job.id in slots else job for job in instance.jobs
    )


def _added(terms: Iterable[float]) -> float:
    """Sum of the terms, added strictly left to right.

    The built-in ``sum`` compensates float rounding from Python 3.12 on,
    so it would give other bits on other Pythons.
    """
    return reduce(add, terms, 0.0)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array; numpy's ``unique`` costs more and imports ``numpy.ma``."""
    ordered = values.copy()
    ordered.sort()
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _ranks(values: np.ndarray, kind: str | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct values of a 1-D array, each element's rank among them, and the argsort that ranked them."""
    order = values.argsort(kind=kind)
    ordered = values[order]
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    rank = np.empty(ordered.size, dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return ordered[first], rank, order


def _slot_loads(slots: np.ndarray, amounts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The occupied slots, ascending, and their loads, each added in input order from 0.0 as a dict loop adds."""
    occupied, where, _ = _ranks(slots)
    return occupied, np.bincount(where, weights=amounts, minlength=occupied.size)


def _slot_cost(slots: np.ndarray, amounts: np.ndarray, cost: CostModel) -> float:
    """Total cost of the loads that ``amounts`` put on ``slots``.

    cost(load) is summed left to right over the occupied slots in ascending
    order with Python's scalar pow: numpy's array ``**`` differs from it in
    the last bit on some loads.
    """
    return _added(cost(load) for load in _slot_loads(slots, amounts)[1].tolist())


def _plan_cost(ids: np.ndarray, slots: np.ndarray, energies: np.ndarray, cost: CostModel) -> float:
    """``_slot_cost`` of jobs compressed to ``slots``, each slot's load added in id order.

    The optimal controller fills a compressed slot in that order, one entry of exact energy per job (``edf_fill``).
    """
    order = np.argsort(ids, kind="stable")
    return _slot_cost(slots[order], energies[order], cost)


def evaluate_cost(schedule: Schedule, cost: CostModel) -> float:
    """Total cost of a schedule: ``_slot_cost`` of the entries it kept, the cost of ``slot_loads()``."""
    return _slot_cost(schedule.allocations._slots, schedule.allocations._amounts, cost)


def baseline_cost(instance: Instance, cost: CostModel) -> float:
    """Cost of inelastic service; jobs sharing an arrival slot stack before the cost applies."""
    _, arrivals, _, energies = _job_arrays(instance)
    return _slot_cost(arrivals, energies, cost)


def read_instance_csv(path: str | Path) -> Instance:
    """Parse an instance file: header ``id,arrival,deadline,energy``, one job per line.

    Violations of the job invariants are rejected with the offending line
    number in the error message.  A UTF-8 byte-order mark, as spreadsheet
    exports write it, is skipped.
    """
    path = Path(path)
    jobs: list[Job] = []
    with path.open(newline="", encoding="utf-8-sig") as handle:
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
