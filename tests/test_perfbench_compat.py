"""The benchmark under perfbench/ finds every gridsched name it times and calls.

The layer tracer reads a name it cannot find as zero, so deleting or
renaming a traced function would silently drop its layer; these checks
make that a test failure instead.  perfbench/ is only read as text, never
imported or modified.
"""

import ast
import inspect
import re
from pathlib import Path

import gridsched

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced() -> tuple[tuple[str, str], ...]:
    """layertrace.TRACED, read from the source without running the module."""
    tree = ast.parse((PERFBENCH / "layertrace.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layertrace.py defines no TRACED")


def test_every_traced_name_exists():
    traced = _traced()
    assert traced
    missing = [f"{mod}.{name}" for mod, name in traced if not hasattr(getattr(gridsched, mod), name)]
    assert missing == []


def test_schedule_takes_allocations_by_name():
    # the tracer binds Schedule's arguments and counts len(allocations)
    assert "allocations" in inspect.signature(gridsched.model.Schedule).parameters


def test_the_tracer_counts_each_producers_entries(monkeypatch):
    # as the tracer wraps Schedule: bind the arguments by name and count len(allocations)
    original = gridsched.scheduler.Schedule
    signature = inspect.signature(original)
    counted = []

    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counted.append(len(bound.arguments["allocations"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(gridsched.scheduler, "Schedule", traced)
    inst = gridsched.generate_instance(gridsched.GenParams(30, 3.0, 5.0, 1.0, 5.0, seed=3))
    for producer in (gridsched.scheduler.schedule_optimal_offline, gridsched.scheduler.schedule_online_even):
        counted.clear()
        schedule = producer(inst)
        assert counted == [len(schedule.allocations)] and len(schedule.allocations) > inst.n

def test_every_package_name_the_workloads_use_exists():
    # workloads.py binds the package to gs, and selftest.py imports it from there
    used = {name for path in PERFBENCH.glob("*.py") for name in re.findall(r"\bgs\.(\w+)", path.read_text())}
    assert {"full_attack_dp", "apply_attack", "optimal_load_segments", "exact_limited_attack_curve"} <= used
    assert sorted(name for name in used if not hasattr(gridsched, name)) == []


def test_the_fill_runs_once_per_load_segment(monkeypatch):
    # the self-test expects one traced edf_fill call per optimal_load_segments entry, wrapped as the tracer wraps it
    original = gridsched.scheduler.edf_fill
    calls = []

    def traced(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gridsched.scheduler, "edf_fill", traced)
    inst = gridsched.generate_instance(gridsched.GenParams(60, 3.0, 8.0, 1.0, 5.0, seed=5))
    plan = gridsched.online_edf_attack(inst, gridsched.CostModel(2.0))[0]
    for instance in (inst, gridsched.apply_attack(inst, plan)):
        calls.clear()
        gridsched.scheduler.schedule_optimal_offline(instance)
        assert len(calls) == len(gridsched.optimal_load_segments(instance)) > 1
