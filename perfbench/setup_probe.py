"""Time one fresh process's set-up for a workload.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Measures the process CPU time, from the first line of this script, of
importing the package and running the workload's untimed set-up operations,
which fill the package's caches.  Prints the seconds as the last line.
``run.py`` starts it with the package on PYTHONPATH and the BLAS/OpenMP
thread pins set.
"""

import time

_START = time.process_time()

import sys  # noqa: E402
import warnings  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    warnings.filterwarnings("ignore", message="weak-subtraction", category=UserWarning)
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.prepare()
    for index in range(workload.warmup):
        workloads.execute(workload.op(index))
    print(time.process_time() - _START)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
