"""One-shot wall-time table of every subcommand at default flags (not a workload, no bounds).

    python3 bench/defaults_table.py

Runs each subcommand once, in process, on the fixed configs in
``bench/configs/`` (d=1 uniform, raised-cosine and exponential-tail models and
one d=2 model), with BLAS pinned to one thread.  Only ``moments`` on the d=2
model sets a flag (``--box 6``).  Each job goes through the benchmark's output
check.  Exits 1 if a job fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, Runner, environment
from workloads import Job

CONFIGS = ROOT / "bench" / "configs"

ROWS = [  # (subcommand, config, extra flags)
    ("spectrum", "uniform_d1", []),
    ("green-identities", "uniform_d1", []),
    ("averaging", "uniform_d1", []),
    ("moments", "uniform_d1", []),
    ("moments", "uniform_d2", ["--box", "6"]),
    ("decay", "uniform_d1", []),
    ("decay", "raised_cosine_d1", []),
    ("finite-volume", "uniform_d1", []),
    ("wegner", "exp_tail_d1", []),
    ("poscomb", "exp_tail_d1", []),
    ("regularity", "uniform_d1", []),
    ("conditional", "uniform_d1", []),
    ("apriori", "raised_cosine_d1", []),
]


def main() -> int:
    workdir = ROOT / ".bench_out" / f"defaults-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        print(f"{'subcommand':18s} {'config':18s} {'flags':10s} {'wall_s':>8s}  check")
        for name, cfg, flags in ROWS:
            argv = [name, "--config", str(CONFIGS / f"{cfg}.json"), *flags]
            passed, wall, _ = runner.run(Job(name, argv))
            print(f"{name:18s} {cfg:18s} {' '.join(flags):10s} {wall:8.3f}  {'pass' if passed else 'FAIL'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(environment("defaults-table", None), sort_keys=True))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
