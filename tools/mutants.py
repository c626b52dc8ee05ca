"""Does the test suite notice a wrong explicit constant or index?  The committed mutant list, applied one at a time.

    python3 tools/mutants.py

Makes one copy of the tree in a temporary directory: ``git archive HEAD``,
then the files of this working tree that git would commit on top.  It runs
the suite once on the copy as it is, and stops if that fails.  For each
mutant of ``MUTANTS`` it replaces the mutant's old text,
which must occur exactly once in its file, by the new text, runs the Tier-1
suite with ``-x`` and without two tests: ``tests/test_ledger.py``, which only
says that bytes moved, and ``tests/test_mutants.py``, which fails on any
applied mutant.  Then it puts the file back and prints KILLED and the first
failing test when pytest fails, SURVIVED when it passes.  A last line counts
both.  The exit
code is 0 when every mutant was killed.  It needs only the standard library
and a git checkout; the whole list takes a few minutes, so it is not part of
Tier-1.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import copy_parent, copy_working_tree  # noqa: E402


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    formula: str  # what the thesis says, which the new text breaks


MUTANTS = [
    Mutant("one_d C: lambda^-2s", "src/alloylab/moments.py",
           "C = C_u * C_rho / coupling ** s", "C = C_u * C_rho / coupling ** (2 * s)",
           "C = C_u C_rho lambda^{-s}"),
    Mutant("one_d C_rho_plus: min", "src/alloylab/moments.py",
           "C_rho_plus = max(density.linf ** s,", "C_rho_plus = min(density.linf ** s,",
           "C_rho+ = max(||rho||_inf^s, ||rho||_inf^{s/n}) C_s"),
    Mutant("one_d C_u_plus: min", "src/alloylab/moments.py",
           "C_u_plus = max(p ** (-s / n)", "C_u_plus = min(p ** (-s / n)",
           "C_u+ = max_i |u(0) .. u(i)|^{-s/n}"),
    Mutant("gap d0: (r+1)^r", "src/alloylab/moments.py",
           "d0 = 1.0 / ((n + r) * (r + 1) ** (r / 2.0))", "d0 = 1.0 / ((n + r) * (r + 1) ** r)",
           "d0 = 1 / ((n+r) (r+1)^{r/2})"),
    Mutant("gap D: exponent -s/n", "src/alloylab/moments.py",
           "(1.0 + ratio) ** (r * s) * prod_l ** (-s / (n + r))", "(1.0 + ratio) ** (r * s) * prod_l ** (-s / n)",
           "D = ... prod_i (lambda |<alpha, w_i>|)^{-s/(n+r)}"),
    Mutant("finite-volume xi: min", "src/alloylab/moments.py",
           "xi = max(lam ** (-exponent), lam ** (-2 * s))", "xi = min(lam ** (-exponent), lam ** (-2 * s))",
           "Xi_s(lambda) = max(lambda^{-s/(2|Theta|)}, lambda^{-2s})"),
    Mutant("finite-volume L^2(d-1)", "src/alloylab/moments.py",
           "L ** (3 * (d - 1))", "L ** (2 * (d - 1))",
           "scaled = raw L^{3(d-1)} Xi_s(lambda) / lambda^{2s/(2|Theta|)}"),
    Mutant("finite-volume lambda^s", "src/alloylab/moments.py",
           "lam ** (2 * s / (2 * theta_count))", "lam ** s",
           "scaled = raw L^{3(d-1)} Xi_s(lambda) / lambda^{2s/(2|Theta|)}"),
    Mutant("exp weights C: x d", "src/alloylab/moments.py",
           "C = ((math.exp(c) + 1.0) / (math.exp(c) - 1.0)) ** d",
           "C = ((math.exp(c) + 1.0) / (math.exp(c) - 1.0)) * d",
           "C = ((e^c + 1) / (e^c - 1))^d"),
    Mutant("R_l: 4 (d+|I0|)^2", "src/alloylab/poscomb.py",
           "second = 8.0 * (d + deg) ** 2 / alpha ** 2", "second = 4.0 * (d + deg) ** 2 / alpha ** 2",
           "R_l >= 8 (d + |I0|)^2 / alpha^2"),
    Mutant("wegner sum: (2l)^d", "src/alloylab/poscomb.py",
           "total = (2 * l + 1) ** d * per_j", "total = (2 * l) ** d * per_j",
           "sum over the (2l+1)^d sites j of the l-box of ||t_j||_1"),
    Mutant("wegner bound: 1/lambda", "src/alloylab/spectra.py",
           "bound = (1.0 / (2.0 * model.coupling)", "bound = (1.0 / model.coupling",
           "E #{ev in I} <= |I| / (2 lambda) ||rho||_Var sum_j ||t_j||_1"),
    Mutant("detgen: (1+ratio)^t", "src/alloylab/averaging.py",
           "(1.0 + ratio) ** (N * t)", "(1.0 + ratio) ** t",
           "|det comb|^{-t/n} |alpha_0|^t (1 + max_i |alpha_i / alpha_0|)^{Nt} C_t (2R)^{Nt} ||rho||_inf^{(N+1)t}"),
    Mutant("resolvent: s(n-1)", "src/alloylab/averaging.py",
           "** (s * (n - 1) / n)", "** (s * (n - 1))",
           "||rho||_inf^s (||A|| + R ||V||)^{s(n-1)/n} C_s |det V|^{-s/n}"),
    Mutant("C_s: (1-s)^(1/2)", "src/alloylab/averaging.py",
           "return 2.0 ** s * s ** (-s) / (1.0 - s)", "return 2.0 ** s * s ** (-s) / (1.0 - s) ** 0.5",
           "C_s = 2^s s^{-s} / (1 - s)"),
    Mutant("graf bound: x2", "src/alloylab/averaging.py",
           "bound = density.linf ** s * pref\n    beta", "bound = 2 * density.linf ** s * pref\n    beta",
           "int |xi - beta|^{-s} rho(xi) dxi <= ||rho||_inf^s C_s"),
    Mutant("dissipative: 2e-10", "src/alloylab/averaging.py",
           "< -1e-10:", "< -2e-10:",
           "Im A >= 0, up to a rounding of 1e-10"),
    Mutant("count domain: >= 0", "src/alloylab/model.py",
           "operator.index(v) >= 1,", "operator.index(v) >= 0,",
           "trials, threads and the other counts are >= 1"),
    Mutant("pool hash: MULT_B + 2", "src/alloylab/rng.py",
           "0x58F38DED", "0x58F38DEF",
           "X_i = INIT_B MULT_B^i mod 2^32 with numpy's MULT_B = 0x58F38DED"),
    Mutant("pool hash: >> 15", "src/alloylab/rng.py",
           "v ^ v >> 16", "v ^ v >> 15",
           "each hashed word w becomes w ^ (w >> 16)"),
    Mutant("pool hash: halves swapped", "src/alloylab/rng.py",
           "(p0 ^ x0) * x1 & m | ((p1 ^ x1) * x2 & m) << 32", "(p1 ^ x1) * x2 & m | ((p0 ^ x0) * x1 & m) << 32",
           "uint64 j holds word 2j in its low half and word 2j + 1 in its high half"),
    Mutant("pair index: transposed", "src/alloylab/moments.py",
           "sources.index(x) * len(geometry) + geometry.index_of(y)",
           "geometry.index_of(y) * len(sources) + sources.index(x)",
           "G(y, x) sits at (source of x) * n + (row of y) of the Fortran-ordered (n, sources) column block"),
    Mutant("hopping: sign dropped", "src/alloylab/model.py",
           "np.negative(out, out=out)", "np.positive(out, out=out)",
           "H = -Delta + lambda V: -1 on every bond"),
    Mutant("complement: keeps the rows", "src/alloylab/green.py",
           "np.flatnonzero(~inside)", "np.flatnonzero(inside)",
           "ext = the sites of the geometry outside L"),
    Mutant("potential memo: key ignores u's values", "src/alloylab/model.py",
           "frozenset(stored.items())", "frozenset(stored)",
           "V(x) = sum_k omega_k u(x - k): a map per u, not per supp u"),
    Mutant("regularity threshold: strict", "src/alloylab/spectra.py",
           "np.max(np.abs(rows), axis=2) <= thresh)", "np.max(np.abs(rows), axis=2) < thresh)",
           "(m, E)-regular: |G(E; x, w)| <= e^{-m L} for every w in the interior boundary"),
]


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's old text replaced; the old text must occur exactly once."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def first_failure(checkout: Path) -> str | None:
    """Run Tier-1 as above, stopping at the first failure: that test's summary line, or None when all pass."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
           "--ignore=tests/test_ledger.py", "--ignore=tests/test_mutants.py", "--continue-on-collection-errors"]
    run = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit code {run.returncode}"


def killer(checkout: Path, mutant: Mutant) -> str | None:
    """``first_failure`` on the checkout with the mutant applied; the file is put back afterwards."""
    target = checkout / mutant.path
    original = target.read_text()
    target.write_text(apply(original, mutant))
    try:
        return first_failure(checkout)
    finally:
        target.write_text(original)


def main() -> int:
    counts = {"KILLED": 0, "SURVIVED": 0}
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp)
        copy_parent("HEAD", checkout)
        copy_working_tree(checkout)
        failure = first_failure(checkout)
        if failure:
            print(f"the suite fails without a mutant, so no verdict would mean anything: {failure}", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            start = time.perf_counter()
            failure = killer(checkout, mutant)
            verdict = "SURVIVED" if failure is None else "KILLED"
            counts[verdict] += 1
            print(f"{verdict:8} {mutant.name:24} {time.perf_counter() - start:5.1f} s  "
                  f"{mutant.path}: {mutant.formula}", flush=True)
            if failure:
                print(f"         {failure}", flush=True)
    print(f"{counts['KILLED']} killed, {counts['SURVIVED']} survived")
    return 0 if counts["SURVIVED"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
