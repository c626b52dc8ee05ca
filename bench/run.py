"""alloylab benchmark: closed-loop verification jobs, end to end or traced per layer.

    python3 bench/run.py --workload chain-moments --seed 1 --seconds 25 --trace 0

One client in one process runs the workload's jobs back to back (a closed
loop): each job is an in-process ``alloylab.cli.run(argv)`` call, except
``detgen_check``, which has no subcommand and is called directly.  Configs and
flags come from ``--seed`` (see ``workloads.py``).  Every job must exit 0 with
all asserted checks passing; its CSV outputs are hashed.

``--trace 0`` measures set-up time in fresh interpreters, runs round 0 as a
warm-up (its output hashes form the run's digest, and one job per subcommand
is re-run to show identical bytes), then runs whole rounds until ``--seconds``
have passed and prints the end-to-end metrics.

``--trace 1`` runs a fixed list of rounds untraced and then traced by
``layertrace``, and prints the per-layer metrics and the tracing overhead.
Its counts repeat exactly for a seed, so it ignores ``--seconds``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give the output digest, the unscaled timings
and the environment.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; --threads alone sets parallelism
BLAS_PINS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layer_metrics  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS, round_jobs, write_configs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

SETUP_REPEATS = 5
TRACE_ROUNDS = {"chain-moments": 2, "box-moments": 2, "exact-checks": 6}

END_TO_END = {  # name -> unit
    "setup_s": "s", "jobs_per_s": "1/s", "trials_per_s": "1/s", "job_p50_s": "s",
    "peak_rss_mb": "MB", "passed_fraction": "ratio",
}

_SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import alloylab.cli as cli
cli.build_parser()
for path in sys.argv[2:]:
    cli.load_model_config(path)
print("ready", flush=True)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine speed

# median probe time on the 2-core x86 VM (scipy-openblas) the bounds were set on
PROBE_NOMINAL_S = 0.0018


class SpeedProbe:
    """A fixed interpreter loop plus a small complex solve, timed between jobs.

    The machine is shared, and its speed moves by up to a half within seconds,
    for Python and LAPACK work alike.  ``scale(wall)`` divides a wall time by
    the mean of the probe times just before and just after it, and multiplies
    by PROBE_NOMINAL_S: the time at the nominal speed.  The probe calls no
    alloylab code, so a change to alloylab cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(120, 120)) + 1j * rng.normal(size=(120, 120))
        self._rhs = np.ones(120, dtype=complex)
        self.times: list[float] = []
        self.measure()

    def measure(self):
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        np.linalg.solve(self._matrix, self._rhs)
        self.times.append(time.perf_counter() - start)

    def scale(self, wall: float) -> float:
        before = self.times[-1]
        self.measure()
        return wall * PROBE_NOMINAL_S / ((before + self.times[-1]) / 2)


# ---------------------------------------------------------------------------
# jobs


class Runner:
    """Runs jobs in process and checks and hashes their outputs."""

    def __init__(self, workdir: Path):
        import alloylab.cli  # noqa: F401  (loads every alloylab module)

        self.base = str(workdir / "job")
        self.attempted = 0
        self.failed = 0

    def run(self, job) -> tuple[bool, float, str]:
        """(passed, wall seconds, output hash) of one job."""
        self.attempted += 1
        try:
            if job.params is not None:
                passed, wall, blob = self._detgen(job.params)
            else:
                passed, wall, blob = self._cli(job.argv)
        except Exception:  # a crashing job is a failed job; the run goes on
            traceback.print_exc(file=sys.stderr)
            passed, wall, blob = False, 0.0, b""
        if not passed:
            self.failed += 1
            print(f"job failed: {job.name} {job.argv or ''}", file=sys.stderr)
        return passed, wall, hashlib.sha256(blob).hexdigest()

    def run_jobs(self, jobs) -> list[tuple]:
        """[(job, passed, wall, hash)] in order."""
        return [(job, *self.run(job)) for job in jobs]

    def _cli(self, argv):
        # looked up per call, so a traced run reaches the patched function
        run = sys.modules["alloylab.cli"].run
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(argv + ["--out", self.base])
        wall = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(sink.getvalue())
        blob = b""
        for suffix in (".csv", "_summary.csv"):
            with open(self.base + suffix, "rb") as fh:
                data = fh.read()
            os.remove(self.base + suffix)
            blob += suffix.encode() + b"\0" + data
        verdicts = [row["pass"] for row in csv.DictReader(io.StringIO(data.decode()))]
        passed = code == 0 and bool(verdicts) and all(v in ("true", "") for v in verdicts)
        return passed, wall, blob

    def _detgen(self, params):
        averaging = sys.modules["alloylab.averaging"]
        density = sys.modules["alloylab.model"].DisorderDensity("uniform", (0.0, 1.0))
        start = time.perf_counter()
        chk = averaging.detgen_check(params["A"], params["Vs"], params["alpha"], density,
                                     params["t"], trials=params["trials"], seed=params["seed"])
        wall = time.perf_counter() - start
        return chk.holds(), wall, repr((chk.integral_value, chk.bound_value, chk.error)).encode()


def digest(results) -> str:
    h = hashlib.sha256()
    for job, _passed, _wall, out_hash in results:
        h.update(f"{job.name}:{out_hash}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# measurements


def measure_setup(cfg_paths, probe) -> tuple[float, float]:
    """Median (probe-scaled, raw) time for a fresh interpreter to import the CLI,
    build the parser and load the configs; the first, cold start is discarded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        probe.measure()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, str(SRC), *cfg_paths],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up child failed")
        raw.append(wall)
        scaled.append(probe.scale(wall))
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def environment(workload: str, seed) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        revision = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown (git unavailable)"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_thread_pins": BLAS_PINS,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
    }


def determinism_reruns(runner, reference) -> bool:
    """Re-run the fastest round-0 job of each subcommand; outputs must match."""
    fastest = {}
    for job, _passed, wall, out_hash in reference:
        if job.name not in fastest or wall < fastest[job.name][1]:
            fastest[job.name] = (job, wall, out_hash)
    same = True
    for job, _wall, out_hash in fastest.values():
        if runner.run(job)[2] != out_hash:
            print(f"re-run of {job.name} changed its outputs", file=sys.stderr)
            same = False
    return same


def end_to_end(runner, workload, seed, seconds, cfg_paths, env) -> tuple[bool, dict]:
    probe = SpeedProbe()
    setup_s, setup_raw = measure_setup(list(cfg_paths.values()), probe)
    reference = runner.run_jobs(round_jobs(workload, seed, 0, cfg_paths))
    print(f"digest {digest(reference)} jobs={len(reference)}")
    same = determinism_reruns(runner, reference)

    # slots[i]: (realisations, raw wall, probe-scaled wall) of the i-th job of each round
    slots: dict[int, list] = {}
    probe.measure()
    start = time.perf_counter()
    k = 1
    while time.perf_counter() - start < seconds:
        for i, job in enumerate(round_jobs(workload, seed, k, cfg_paths)):
            _passed, wall, _hash = runner.run(job)
            slots.setdefault(i, []).append((job.realisations, wall, probe.scale(wall)))
        k += 1
    env["rounds"] = k - 1
    env["jobs"] = sum(len(jobs) for jobs in slots.values())

    def timings(col):
        # a typical round: each slot at its median time over the rounds, so a job
        # caught by a change of machine speed mid-run does not move the result
        typical = [(jobs[0][0], statistics.median(job[col] for job in jobs)) for jobs in slots.values()]
        return {"jobs_per_s": len(typical) / sum(t for _, t in typical),
                "trials_per_s": sum(n for n, _ in typical) / sum(t for n, t in typical if n),
                "job_p50_s": statistics.median(job[col] for jobs in slots.values() for job in jobs)}

    print("raw " + json.dumps({"setup_s": setup_raw, "probe_median_s": statistics.median(probe.times),
                               **timings(1)}, sort_keys=True))
    return same, {
        "setup_s": setup_s,
        **timings(2),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_fraction": 1.0 - runner.failed / runner.attempted,
    }


def traced(runner, workload, seed, cfg_paths, env) -> tuple[bool, dict]:
    jobs = [job for k in range(TRACE_ROUNDS[workload]) for job in round_jobs(workload, seed, k, cfg_paths)]
    runner.run_jobs(round_jobs(workload, seed, 0, cfg_paths))  # warm-up
    start = time.perf_counter()
    plain = runner.run_jobs(jobs)
    untraced_s = time.perf_counter() - start
    tracer = Tracer()
    traced_results = []
    start = time.perf_counter()
    with tracer:
        for i, job in enumerate(jobs):
            with tracer.job(i, job.name):
                traced_results.append((job, *runner.run(job)))
    traced_s = time.perf_counter() - start
    env["rounds"] = TRACE_ROUNDS[workload]
    env["jobs"] = len(jobs)
    print(f"digest {digest(plain)} jobs={len(plain)}")
    same = digest(plain) == digest(traced_results)
    if not same:
        print("tracing changed job outputs", file=sys.stderr)
    return same, layer_metrics.compute(tracer, untraced_s, traced_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alloylab" / "__init__.py").is_file():
        print(f"error: no alloylab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cfg_paths = write_configs(args.workload, args.seed, str(workdir))
        runner = Runner(workdir)
        env = environment(args.workload, args.seed)
        if args.trace:
            same, metrics = traced(runner, args.workload, args.seed, cfg_paths, env)
        else:
            same, values = end_to_end(runner, args.workload, args.seed, args.seconds, cfg_paths, env)
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": same and runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
