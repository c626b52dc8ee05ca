"""Alternating parent/change runs of the benchmark, summarised as a BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT --workload W --seed S --pairs N --number n

Makes two clean copies in a temporary directory: the commit PARENT (by
``git archive``) and the files of this working tree that git would commit
(tracked files as they are on disk, plus untracked files that ``.gitignore``
does not exclude).  Then it runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` N times in each copy, one after the other on this
machine, the parent first in even-numbered pairs and the change first in odd
ones.  T is ``run_seconds`` of ``BENCHMARK.json``.  Nothing runs from this
checkout's ``bench/``, and nothing needs the network.

The result goes under ``workloads["W seed S"]`` of ``BENCH_<n>.json`` in the
working tree, beside what that file already holds.  For each end-to-end
metric of ``BENCHMARK.json`` it lists every run of each side with their
median, q1 and q3 (``statistics.quantiles(method="inclusive")``), the
change-over-parent ratio of the medians, how many pairs the change won (ties
count for neither), the parent's interquartile range, and two verdicts:
``gain_shown``, the change won at least nine tenths of the pairs and its
median beats the parent's by more than the parent's interquartile range; and
``worse_beyond_bound``, the change's median is worse than the parent's by
more than the metric's ``bound``, taken as a fraction of the parent's median.
It also lists which side ran first in each pair, each side's round-0 output
digests, whether every run reported correct, the parent's full revision and
the ``env`` line of the change's first run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def copy_parent(revision: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", revision))) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted on disk is not part of the change
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end benchmark run in a copy: its metrics, digest line, env and correctness."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py finds its own src/
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py failed in {checkout.name}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": next(line for line in lines if line.startswith("digest ")),
        "env": json.loads(next(line for line in lines if line.startswith("env "))[4:]),
        "correct": result["correct"],
    }


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's runs of both sides, paired in run order, with the verdicts of the module docstring."""
    sign = -1 if spec["better"] == "lower" else 1  # sign * (change - parent) > 0: the change is better
    p, c = summarise(parent), summarise(change)
    wins = sum(sign * (cv - pv) > 0 for cv, pv in zip(change, parent))
    gain, iqr = sign * (c["median"] - p["median"]), p["q3"] - p["q1"]
    return {
        "unit": spec["unit"], "better": spec["better"], "parent": p, "change": c,
        "change_over_parent": round(c["median"] / p["median"], 4) if p["median"] else None,
        "change_wins_pairs": f"{wins} of {len(parent)}",
        "parent_iqr": round(iqr, 6),
        "gain_shown": 10 * wins >= 9 * len(parent) and gain > iqr,
        "worse_beyond_bound": -gain > spec["bound"] * abs(p["median"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent commit (any git revision)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--number", type=int, required=True, help="write BENCH_<number>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs needs at least 2, to have quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    revision = git("rev-parse", args.parent).decode().strip()

    runs = {"parent": [], "change": []}
    first_side = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in copies.values():
            path.mkdir()
        copy_parent(revision, copies["parent"])
        copy_working_tree(copies["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first_side.append(order[0])
            for side in order:
                runs[side].append(run_once(copies[side], args.workload, args.seed, seconds))
                print(f"pair {i} {side}: " + json.dumps(runs[side][-1]["metrics"]), flush=True)

    entry = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs, "seconds": seconds,
             "first_side": first_side}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        entry[name] = compare(metric, [r["metrics"][name] for r in runs["parent"]],
                              [r["metrics"][name] for r in runs["change"]])
    entry["digests"] = sorted({(side, r["digest"]) for side, rs in runs.items() for r in rs})
    entry["all_correct"] = all(r["correct"] for rs in runs.values() for r in rs)
    path = ROOT / f"BENCH_{args.number}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc["parent_revision"] = revision
    doc.setdefault("env", runs["change"][0]["env"])
    doc.setdefault("workloads", {})[f"{args.workload} seed {args.seed}"] = entry
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
