"""How far each ledger run's values moved between a revision and this tree: the value-move report.

    python3 tools/value_diff.py REV

Copies ``src/`` of the commit REV (by ``git archive``) into a temporary
directory, then runs the run list of ``tools/csv_matrix.py`` twice, each time
in a fresh interpreter: once on REV's ``src/`` and once on this tree's.  Both
runs take this tree's configs and flags, so only the code differs.  It keeps
the CSV text, not only its hash.  For each run whose outputs differ it prints:

* the files that moved (``stdio`` is the run's stdout+stderr), and the rows
  each CSV gained or lost: rows are paired by position, so the surplus rows of
  the longer file are the added or removed ones;
* per numeric column (a cell that ``complex`` parses), the largest |Δ| and
  |Δ|/|x|, with x the value at REV, and the count of other cells that changed;
* every exit code and every ``pass`` cell that flipped.

Then it gives the largest move per subcommand and column over all runs, and a
last line counts the runs that moved, per subcommand, and the flips.  Runs
whose outputs are identical print nothing.  It needs only the standard
library and a git checkout; the report is not a gate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _number(cell: str) -> complex | None:
    try:
        return complex(cell)
    except ValueError:
        return None


def diff_csv(name: str, old: str, new: str) -> tuple[list[str], list[str], dict]:
    """(report lines, flip lines, moves) for one CSV file at REV (``old``) and here (``new``).

    ``moves`` maps "<file> <column>" to (largest |d|, largest |d|/|x|) over the
    column's moved numeric cells.  All three are empty when the texts are equal.
    """
    if old == new:
        return [], [], {}
    (old_head, *old_rows), (new_head, *new_rows) = (list(csv.reader(io.StringIO(text))) or [[]] for text in (old, new))
    lines, flips, moves = [], [], {}
    if old_head != new_head:
        lines.append(f"{name} header: {','.join(old_head)} -> {','.join(new_head)}")
    paired = min(len(old_rows), len(new_rows))
    if len(old_rows) != len(new_rows):
        lines.append(f"{name} rows: {len(old_rows)} -> {len(new_rows)}")
        lines += [f"{name} - {','.join(row)}" for row in old_rows[paired:]]
        lines += [f"{name} + {','.join(row)}" for row in new_rows[paired:]]
    for column in [c for c in new_head if c in old_head]:
        i, j = old_head.index(column), new_head.index(column)
        abs_max = rel_max = 0.0
        moved = other = 0
        for r, (a_row, b_row) in enumerate(zip(old_rows[:paired], new_rows[:paired])):
            a, b = (a_row[i] if i < len(a_row) else ""), (b_row[j] if j < len(b_row) else "")
            if a == b:
                continue
            if column == "pass":
                label = f" ({a_row[0]})" if a_row and a_row[0] == b_row[0] else ""
                flips.append(f"{name} row {r + 1}{label}: pass {a or '(empty)'} -> {b or '(empty)'}")
                continue
            x, y = _number(a), _number(b)
            delta = abs(y - x) if x is not None and y is not None else float("nan")
            if delta == delta:  # both numbers and no NaN involved
                moved += 1
                abs_max = max(abs_max, delta)
                rel_max = max(rel_max, delta / abs(x) if x else float("inf"))
            else:
                other += 1
        if moved:
            moves[f"{name} {column}"] = (abs_max, rel_max)
            lines.append(f"{name} {column}: {moved} cells moved, {_sizes(abs_max, rel_max)}")
        if other:
            lines.append(f"{name} {column}: {other} other cells changed")
    return lines, flips, moves


def _sizes(abs_max: float, rel_max: float) -> str:
    return f"max |d| {abs_max:.3g}, max |d|/|x| {rel_max:.3g}"


def diff_run(old: dict, new: dict) -> tuple[list[str], list[str], dict]:
    """``diff_csv``'s (lines, flips, moves) for one run's {code, files, stdio} at REV and here, over its files."""
    if old == new:
        return [], [], {}
    lines, flips, moves = [], [], {}
    if old["code"] != new["code"]:
        flips.append(f"exit code {old['code']} -> {new['code']}")
    names = sorted(old["files"].keys() | new["files"].keys())
    moved = [n for n in names if old["files"].get(n) != new["files"].get(n)]
    if old["stdio"] != new["stdio"]:
        moved.append("stdio")
    if moved:
        lines.append("moved: " + " ".join(moved))
    for n in moved:
        if n == "stdio":
            continue
        if n not in old["files"] or n not in new["files"]:
            lines.append(f"{n}: {'added' if n in new['files'] else 'removed'}")
            continue
        more, more_flips, more_moves = diff_csv(n, old["files"][n], new["files"][n])
        lines += more
        flips += more_flips
        moves |= more_moves
    return lines, flips, moves


def report(old: dict, new: dict) -> list[str]:
    """The report for two {run key: {code, files, stdio}} maps, in this tree's run order.

    After the runs that moved come one line per subcommand and column with the
    largest move over all its runs, and the count line.
    """
    out = []
    moved, flipped, largest = Counter(), 0, {}
    for key in list(new) + [k for k in old if k not in new]:
        name = key.split()[0]
        if key not in old or key not in new:
            out.append(f"{key}: run {'added' if key in new else 'removed'}")
            moved[name] += 1
            continue
        lines, flips, moves = diff_run(old[key], new[key])
        if lines or flips:
            moved[name] += 1
            flipped += len(flips)
            out.append(key)
            out += ["  " + line for line in lines] + ["  FLIP " + line for line in flips]
        for column, sizes in moves.items():
            largest[name, column] = tuple(map(max, sizes, largest.get((name, column), sizes)))
    out += [f"{name} {column}: {_sizes(*sizes)}" for (name, column), sizes in largest.items()]
    if moved:
        per = ", ".join(f"{name} {count}" for name, count in moved.items())
        out.append(f"{sum(moved.values())} of {len(old.keys() | new.keys())} runs moved ({per}); "
                   f"{flipped} exit codes or pass cells flipped")
    return out


def dump(src: str) -> None:
    """Print each ledger run on ``src`` as one JSON line: key, exit code, CSV texts and stdio."""
    sys.path.insert(0, src)
    import csv_matrix  # pins BLAS to one thread before numpy loads
    from alloylab.cli import run

    for key, code, files, stdio in csv_matrix.outputs(run):
        record = {"code": code, "files": {n: data.decode() for n, data in files.items()}, "stdio": stdio}
        print(json.dumps([" ".join(map(str, key)), record]), flush=True)


def collect(src: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--dump", str(src)], capture_output=True, text=True, check=True)
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="the revision to compare with (any git revision)")
    ap.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)  # the per-tree worker
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not args.rev:
        ap.error("give the revision to compare with")
    archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="value_diff_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        old = collect(Path(tmp) / "src")
    for line in report(old, collect(ROOT / "src")):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
