"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SHORT

Prints the seconds set-up took, imports excluded.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv):
    workload, seed, short = argv[0], int(argv[1]), argv[2] == "1"
    t0 = workloads.clock()
    workloads.SETUPS[workload](seed, short)
    print(workloads.clock() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
