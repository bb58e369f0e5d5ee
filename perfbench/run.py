"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3-costs --seed 1 --seconds 10 --trace 0

A closed loop: one caller in one process, no threads.  With ``--trace 0``
the run times the set-up in fresh interpreters, then repeats the workload's
pass until ``--seconds`` have elapsed (at least twice, so that two passes
can be compared byte for byte), and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced pass and one pass under the layer
tracer, and reports the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  Before it come a run record (environment, seed, CSV sha256
digests, failed operations) and a one-line summary.  ``correct`` says that
every pass produced identical outputs and CSV bytes, traced or not; an
operation that raises or fails its output check is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layertrace import LayerTracer
from workloads import WORKLOADS, PassResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
MIN_PASSES = 2


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported gridsched and built the inputs.

    The probes run with one BLAS thread.  gridsched makes no BLAS calls, and
    starting numpy's BLAS thread pool was the noisiest part of set-up when
    the other core was busy.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} exited with {proc.returncode}")
        times.append(elapsed)
    return times


def timed_pass(workload, inputs) -> tuple[float, PassResult]:
    gc.collect()  # every pass starts from the same heap state
    start = time.perf_counter()
    result = workload.run_pass(inputs)
    return time.perf_counter() - start, result


def fig4_draws(result: PassResult) -> tuple[int, int]:
    """(accepted, redrawn) fig4 instance draws, read from the fig4 CSV preamble."""
    text = result.csv.get("fig4")
    if text is None:
        return 0, 0
    fields = dict(token.split("=", 1) for token in text.splitlines()[0].split()[1:] if "=" in token)
    return int(fields["trials"]), int(fields["redraws"])


def layer_metrics(workload, inputs, tracer: LayerTracer, result: PassResult, untraced_s: float, traced_s: float):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    metrics = tracer.metrics()
    solved = workload.solved(inputs) if workload.solved else tracer.full_attack_instances
    metrics["instances.n_sum"] = (sum(inst.n for inst in solved), "count")
    metrics["instances.q_sum"] = (sum(len(inst.endpoints()) for inst in solved), "count")
    accepted, redraws = fig4_draws(result)
    metrics["harness.fig4.redraws"] = (redraws, "count")
    metrics["harness.fig4.draw_accept_ratio"] = (accepted / (accepted + redraws) if accepted else 0.0, "ratio")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run the workload; return (run record, result object for the last output line)."""
    workload = WORKLOADS[name]
    record: dict = {"workload": name, "seed": seed, "trace": int(trace), **environment()}
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        setup = measure_setup(name, seed)
        record["setup_samples_s"] = setup
        metrics["setup_s"] = (statistics.median(setup), "s")
    inputs = workload.build(seed, tiny)
    workload.run_pass(workload.build(seed, tiny=True))  # warm-up: lazy imports and first-call costs

    passes: list[tuple[float, PassResult]] = []
    if trace:
        passes.append(timed_pass(workload, inputs))
        with LayerTracer() as tracer:
            passes.append(timed_pass(workload, inputs))
        metrics.update(layer_metrics(workload, inputs, tracer, passes[1][1], passes[0][0], passes[1][0]))
    else:
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(timed_pass(workload, inputs))
        metrics["wall_s"] = (statistics.median(t for t, _ in passes), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")

    digests = [result.digest() for _, result in passes]
    attempted = sum(len(result.ops) for _, result in passes)
    failed = sum(not op.ok for _, result in passes for op in result.ops)
    record.update(
        pass_s=[t for t, _ in passes],
        csv_sha256=[result.csv_sha256() for _, result in passes],
        outputs_sha256=digests,
        ops_per_pass=len(passes[0][1].ops),
        failed_ops=[f"{op.label}: {op.output}" for op in passes[0][1].ops if not op.ok][:20],
        failed_frac=failed / attempted,
    )
    result = {
        "correct": len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return record, result


def summary(name: str, seed: int, record: dict, result: dict) -> str:
    """One readable line: the end-to-end metrics, or the tracing overhead, and failed_frac."""
    shown = {k: m for k, m in result["metrics"].items() if record["trace"] == 0 or k.startswith("trace.")}
    return (
        f"{name} seed={seed}: "
        + " ".join(f"{key}={m['value']:.6g} {m['unit']}" for key, m in shown.items())
        + f" failed_frac={record['failed_frac']:.6g} ratio ({result['failed']}/{result['attempted']})"
        + f" correct={result['correct']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        record, result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"record": record}))
        if args.trace:
            for key, m in result["metrics"].items():
                print(f"  {name} {key} = {m['value']:.6g} {m['unit']}")
        print(summary(name, args.seed, record, result))
        results[name] = result
    if len(results) > 1:  # --workload all: one combined line, metrics prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
