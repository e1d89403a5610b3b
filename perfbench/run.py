"""Run one ddikit benchmark workload, or all of them, from a checkout's root.

    python3 perfbench/run.py --workload finetune-paper --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Each workload runs in a fresh Python process whose BLAS thread count is
pinned here, in the environment it starts with, so numpy reads it when it
loads. The last line of output is the result object; ``--workload all`` runs
the three workloads in turn and prints each one's report.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("finetune-paper", "infer-paper", "pipeline-small")
TIMEOUT_S = 175
MAX_BLAS_THREADS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "ddikit", "__init__.py")):
        print(f"perfbench: no ddikit sources under {ROOT}/src", file=sys.stderr)
        return 2

    threads = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    code = 0
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
        cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
        try:
            code = subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S).returncode or code
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print(f"perfbench: {workload} exceeded {TIMEOUT_S} s", file=sys.stderr)
            code = 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
