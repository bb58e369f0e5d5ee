"""Set-up probe: import gridsched, build one workload's inputs, print ``ready``.

    python3 perfbench/probe.py WORKLOAD SEED

run.py starts this in a fresh interpreter several times and times each
start until ``ready`` as the workload's set-up time.
"""

import sys

import workloads


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].build(seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
