"""Set-up probe for `setup_s`: one fresh interpreter, one first point.

    PYTHONPATH=src python3 perfbench/first_point.py WORKLOAD SEED OUTDIR

Imports qmet, builds the workload's model and completes its first point,
then prints the wall-clock time (`time.time()`) at which the point finished.
The caller subtracts the time at which it started this interpreter.
"""

import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    block = workloads.WORKLOADS[name](seed, outdir).first_point()
    block.call()
    print(repr(time.time()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
