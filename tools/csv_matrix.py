"""Digest of every subcommand's outputs on every ledger config: the value ledger.

    python3 tools/csv_matrix.py > tools/csv_matrix.expected

Runs all 11 subcommands on 7 configs, the 4 in ``bench/configs/`` and the 3
in ``tools/``, at seeds 3 and 7, and each trial subcommand once
more at seed 3 with ``--threads 2`` (``decay`` always runs with it), in this
process, through ``alloylab.cli.run`` on the ``src/`` of this checkout, with
BLAS pinned to one thread.  Flags are small, so the whole matrix takes
seconds.  A run that a config cannot take (``decay`` on the d=2 model, say)
exits 1 and is digested like any other.  The configs in ``tools/`` reach what
no benchmark config does: ``piecewise_linear_d1`` samples that density kind,
``gap_d1`` has a gap in supp u, so ``decay`` runs ``moments.gap_constants``,
and ``raised_cosine_d2`` is a d=2 model that ``apriori`` accepts.

The first line stamps the numpy and scipy versions and the BLAS build of
each, since another BLAS may round differently.  Then each run prints one
line: subcommand, config, seed, threads (``-`` for a subcommand without
``--threads``), exit code, then the sha256 of each CSV it wrote and of its
stdout+stderr.  The runs work in a temporary directory under relative
paths, so no path of the checkout reaches an output.  ``tools/value_diff.py``
runs the same list, keeping the CSV text.  The committed
``csv_matrix.expected`` is this output; ``tests/test_ledger.py`` compares a
fresh run with it, and a change that moves values on purpose regenerates it.
"""

from __future__ import annotations

import os

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (3, 7)
THREADED_SEED = 3
FLAGS = {  # subcommand: small flags; every MC reduction still runs past numpy's 128-element pairwise block
    "spectrum": ["--box", "4"],
    "green-identities": ["--instances", "3"],
    "averaging": ["--instances", "4"],
    "moments": ["--box", "3", "--dist", "2", "--trials", "300"],
    "decay": ["--box", "12", "--trials", "300", "--threads", "2"],
    "finite-volume": ["--region", "8", "--L", "3", "--trials", "200"],
    "wegner": ["--l", "3", "--trials", "300"],
    "poscomb": ["--l", "3"],
    "regularity": ["--L", "2", "--separation", "30", "--grid", "5", "--trials", "200"],
    "conditional": ["--attempts", "20000"],
    "apriori": ["--box", "6", "--trials", "200"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stamp() -> str:
    """The software stack whose rounding the digests depend on: numpy, scipy and the BLAS build of each."""

    def blas(pkg) -> str:
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']} ({info.get('openblas configuration', '').strip()})"

    return f"# numpy {numpy.__version__} [{blas(numpy)}] scipy {scipy.__version__} [{blas(scipy)}]"


def outputs(run):
    """Each ledger run through ``run`` (``alloylab.cli.run``), in ledger order.

    Yields ((subcommand, config, seed, threads), exit code, {file name: bytes}
    of the CSVs it wrote, its stdout+stderr).  The runs work in a temporary
    directory under relative paths.
    """
    configs = sorted([*(ROOT / "bench" / "configs").glob("*.json"), *(ROOT / "tools").glob("*.json")],
                     key=lambda path: path.name)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.mkdir("configs")
            for path in configs:
                shutil.copy(path, "configs")
            for name, flags in FLAGS.items():
                variants = [(seed, flags) for seed in SEEDS]
                if "--trials" in flags and "--threads" not in flags:  # a trial subcommand that FLAGS runs on one thread
                    variants.append((THREADED_SEED, [*flags, "--threads", "2"]))
                for cfg in configs:
                    for seed, run_flags in variants:
                        threads = run_flags[run_flags.index("--threads") + 1] if "--threads" in run_flags else "-"
                        os.mkdir("out")
                        streams = io.StringIO()
                        argv = [name, "--config", f"configs/{cfg.name}", "--seed", str(seed), "--out", "out/o",
                                *run_flags]
                        with contextlib.redirect_stdout(streams), contextlib.redirect_stderr(streams):
                            code = run(argv)
                        files = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
                        yield (name, cfg.stem, seed, threads), code, files, streams.getvalue()
                        shutil.rmtree("out")
        finally:
            os.chdir(home)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from alloylab.cli import run

    print(stamp(), flush=True)
    for key, code, files, stdio in outputs(run):
        digests = [f"{name}={_sha(data)}" for name, data in files.items()]
        print(*key, code, *digests, f"stdio={_sha(stdio.encode())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
