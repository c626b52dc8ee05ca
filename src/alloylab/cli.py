"""Experiment runner: every verification as a subcommand, CSV in, CSV out.

Each subcommand reads the model from a JSON config, runs its check, writes a
CSV table plus a machine-readable summary (check, value, bound, margin,
pass), and exits 0 when all asserted checks pass, 2 when one fails, 1 on
usage or config errors.  Identical flags and seed give byte-identical
output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys

import numpy as np

from . import averaging, gaussian, moments, poscomb, spectra
from .green import verify_resolvent_identities, verify_schur_identity, verify_two_step_schur
from .model import (
    Site,
    _require,
    build_box,
    explicit_geometry,
    load_model_config,
    sample_configuration,  # unused: bench/test_layertrace.py pins this binding
)
from .rng import trial_stream


def _fmt(x) -> str:
    if x is None:  # no value: an empty cell
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return f"{x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}j"
    return str(x)


class Output:
    """Collects table rows and summary rows, then writes them as CSV."""

    def __init__(self, base: str | None):
        self.base = base
        self.rows: list[list] = []
        self.header: list[str] | None = None
        self.summary: list[dict] = []

    def table(self, header, rows):
        self.header = list(header)
        self.rows = [list(r) for r in rows]

    def check(self, name: str, value: float | None, bound: float | None, passed: bool | None):
        margin = None if bound is None else bound - value
        self.summary.append({"check": name, "value": value, "bound": bound,
                             "margin": margin, "pass": passed})

    def write(self) -> int:
        if self.base:
            with open(self.base + ".csv", "w", newline="") as fh:
                w = csv.writer(fh)
                if self.header:
                    w.writerow(self.header)
                for row in self.rows:
                    w.writerow([_fmt(v) for v in row])
            with open(self.base + "_summary.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                columns = ("check", "value", "bound", "margin", "pass")
                w.writerow(columns)
                for s in self.summary:
                    w.writerow([_fmt(s[key]) for key in columns])
        for s in self.summary:
            verdict = "----" if s["pass"] is None else ("PASS" if s["pass"] else "FAIL")
            line = f"[{verdict}] {s['check']}: value={_fmt(s['value'])}"
            if s["bound"] is not None:
                line += f" bound={_fmt(s['bound'])} margin={_fmt(s['margin'])}"
            print(line)
        failed = any(s["pass"] is False for s in self.summary)
        return 2 if failed else 0


def _load(args) -> tuple:
    """(model, seed) from --config and --seed; a subcommand that draws disorder needs a seed."""
    model, cfg_seed = load_model_config(args.config)
    seed = args.seed if args.seed is not None else cfg_seed
    if seed is None and args.needs_seed:
        raise ValueError("this subcommand needs --seed (or a seed in the config)")
    return model, seed


def _positive_int(text: str) -> int:
    """argparse type of the count flags: --trials, --threads, --instances, --grid and --attempts."""
    try:
        value = int(text)
        _require("count", value=value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    return value


# ---------------------------------------------------------------------------
# subcommand implementations: cmd_<name> runs subcommand <name> (dashes become underscores);
# run loads (model, seed), and each fills the Output that run writes


def _couplings(model, geometry, seed: int) -> dict[Site, float]:
    """One realisation's couplings on lambda_plus(geometry) as {site: omega}, from one keyed draw.

    They are row 0 of ``DisorderSampler.omega(seed, 1)``: one ``trial_stream(seed, 0)``
    key for the whole realisation, in ``coupling_sites`` order.
    """
    sampler = moments.DisorderSampler(model, geometry)
    return dict(zip(sampler.potential.coupling_sites, sampler.omega(seed, 1)[0].tolist()))


def cmd_spectrum(args, model, seed, out: Output) -> None:
    geometry = build_box(args.box, (0,) * model.dimension)
    sampler = moments.DisorderSampler(model, geometry)
    H = sampler.hamiltonian(sampler.diagonals(sampler.omega(seed, 1)[0]))
    ev = spectra.eigenvalues(H)
    out.table(["index", "eigenvalue"], [[i, float(v)] for i, v in enumerate(ev)])
    sym = 0.0 if np.array_equal(H, H.T) else float(np.max(np.abs(H - H.T)))  # exact symmetry, the usual case
    out.check("hamiltonian-symmetry", sym, 1e-12, sym <= 1e-12)
    out.check("eigenvalue-count", float(len(ev)), None, len(ev) == len(geometry))


def cmd_green_identities(args, model, seed, out: Output) -> None:
    rng = trial_stream(seed, 0)
    rows, worst = [], 0.0
    d = model.dimension
    for i in range(args.instances):
        radius = int(rng.integers(6, 13)) if d == 1 else int(rng.integers(2, 4))
        geometry = build_box(radius, (0,) * d)
        omega = _couplings(model, geometry, int(rng.integers(2 ** 62)))
        z = complex(float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 2.0)))
        inner = build_box(max(0, radius - 2), (0,) * d).sites
        inner2 = build_box(radius - 1, (0,) * d).sites
        disc1 = verify_schur_identity(model, omega, geometry, inner, z)
        disc2 = verify_two_step_schur(model, omega, geometry, inner, inner2, z)
        f, s_ = verify_resolvent_identities(model, omega, geometry, inner, z)
        rows.append([i, _fmt(z), disc1, disc2, f, s_])
        worst = max(worst, disc1, disc2, f, s_)
    out.table(["instance", "z", "schur", "two_step_schur", "first_order", "second_order"], rows)
    out.check("exact-identities-max-discrepancy", worst, 1e-8, worst <= 1e-8)


def cmd_averaging(args, model, seed, out: Output) -> None:
    rng = trial_stream(seed, 1)
    rho = model.density
    rows = []
    ok = True
    for i in range(args.instances):
        s = float(rng.uniform(0.2, 0.8))
        n = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        V = rng.normal(size=(n, n))
        while abs(np.linalg.det(V)) < 1e-3:
            V = rng.normal(size=(n, n))
        beta = complex(float(rng.uniform(-1, 2)), float(rng.uniform(-0.5, 0.5)))
        checks = {
            "pole": averaging.graf_check(rho, s, beta),
            "determinant": averaging.det_average_check(A, V, rho, s),
            "resolvent-norm": averaging.resolvent_average_check(A, V, rho, s),
        }
        for name, chk in checks.items():
            rows.append([i, name, chk.integral_value, chk.bound_value, chk.margin, chk.error])
            ok = ok and chk.holds()
    out.table(["instance", "check", "integral", "bound", "margin", "error"], rows)
    out.check("averaging-bounds-hold", float(ok), None, ok)


def cmd_moments(args, model, seed, out: Output) -> None:
    geometry = build_box(args.box, (0,) * model.dimension)
    z = complex(args.energy, args.imag)
    x = (0,) * model.dimension
    y = tuple([args.dist] + [0] * (model.dimension - 1))
    est = moments.estimate_moment(model, geometry, z, args.s, x, y,
                                  args.trials, seed, args.threads)
    out.table(["x", "y", "z", "exponent", "mean", "stderr", "trials"],
              [[x, y, _fmt(z), args.s, est.mean, est.stderr, args.trials]])
    out.check("moment-estimate", est.mean, None, None)


def cmd_decay(args, model, seed, out: Output) -> None:
    z = complex(args.energy, args.imag)
    prof = moments.decay_profile(model, args.box, z, args.s, args.trials, seed, args.threads)
    out.table(["distance", "mean", "stderr", "bound", "pass"],
              [[r["distance"], r["mean"], r["stderr"],
                "" if math.isinf(r["bound"]) else r["bound"], r["pass"]] for r in prof["rows"]])
    checked = [r for r in prof["rows"] if r["pass"] is not None]
    verdict = all(r["pass"] for r in checked) if checked else None  # no distance reached min_dist: nothing compared
    out.check("1d-decay-bound", float(sum(not r["pass"] for r in checked)), 0.0, verdict)
    out.check("decay-rate-fit", prof["fit"], None, None)


def cmd_finite_volume(args, model, seed, out: Output) -> None:
    region = build_box(args.region, (0,) * model.dimension)
    z = complex(args.energy, args.imag)
    res = moments.finite_volume_sum(model, region, (0,) * model.dimension, z,
                                    args.s, args.L, args.trials, seed, args.threads)
    out.table(["boundary_site", "mean", "stderr"],
              [[w, float(mu), float(se)] for w, mu, se in
               zip(res["boundary_sites"], res["means"], res["stderrs"])])
    out.check("screened-sum-raw", res["raw_sum"], None, None)
    out.check("screened-sum-scaled", res["scaled"], None, None)


def cmd_wegner(args, model, seed, out: Output) -> None:
    rep = spectra.wegner_mc(model, args.l, (args.emin, args.emax), args.trials, seed, args.threads)
    out.table(["interval_min", "interval_max", "l", "mean_count", "stderr", "trials", "bound"],
              [[args.emin, args.emax, args.l, rep.mean_count, rep.stderr, args.trials, rep.abstract_bound]])
    out.check("eigenvalue-count-bound", rep.mean_count + 3 * rep.stderr,
              rep.abstract_bound, rep.bound_satisfied)


def cmd_poscomb(args, model, seed, out: Output) -> None:
    lead = poscomb.find_I0(model.potential)
    coeff = poscomb.wegner_coefficients(model.potential, args.l, lead)
    p2 = poscomb.prop2_min(model.potential, args.l, coeff["R_int"], lead)
    out.table(["l", "I0", "c_u", "R", "R_int", "t_l1_total", "prop2_min"],
              [[args.l, lead.I0, lead.c_u, coeff["R"], coeff["R_int"],
                coeff["t_l1_total"], p2]])
    tol = 10 * lead.truncation_error / max(abs(lead.c_u), 1e-300)
    out.check("positive-combination-min", p2, None, p2 >= 1.0 - tol - 1e-9)
    print(f"I0={lead.I0} c_u={lead.c_u!r} R_l={coeff['R']!r} prop2_min={p2!r}")


def cmd_regularity(args, model, seed, out: Output) -> None:
    d = model.dimension
    x = (0,) * d
    y = tuple([args.separation] + [0] * (d - 1))
    rep = spectra.pair_regularity_probability(model, args.L, x, y, (args.emin, args.emax),
                                              args.grid, args.m, args.trials, seed, args.threads)
    out.table(["energy", "frequency"],
              [[float(E), float(f)] for E, f in zip(rep.energies, rep.per_energy_frequency)])
    out.check("pair-regularity-frequency", rep.pair_frequency, None, None)


def cmd_conditional(args, model, seed, out: Output) -> None:
    pairs = [(a, sigma) for a in (0.5, 1.0, 2.0) for sigma in (0.5, 1.0)]
    a, sigma = np.array(pairs).T
    blocks = [(l, m) for l in range(1, 5) for m in range(0, 5)]
    # per (l, m) block: formula mean, formula variance, oracle mean, oracle variance, one column per pair
    values = np.array([(*gaussian.gaussian_conditional(a, sigma, l, m), *gaussian.conditional_oracle(a, sigma, l, m))
                       for l, m in blocks])
    rows = []
    worst = 0.0
    for p, pair in enumerate(pairs):
        for (l, m), (got_mean, got_var, want_mean, want_var) in zip(blocks, values[:, :, p].tolist()):
            diff = max(abs(got_mean - want_mean), abs(got_var - want_var))
            worst = max(worst, diff)
            rows.append([*pair, l, m, got_var, want_var, diff])
    out.table(["u_minus1", "sigma", "l", "m", "variance_formula", "variance_oracle", "diff"], rows)
    out.check("conditional-variance-agreement", worst, 1e-10, worst <= 1e-10)
    res = gaussian.negexample_check(model.potential, args.delta, args.delta_prime,
                                    args.attempts, seed)
    out.check("pinned-interval-violations", float(res["violations"]), 0.0,
              res["violations"] == 0 and not res["inconclusive"])


def cmd_apriori(args, model, seed, out: Output) -> None:
    info = moments.nonlocal_apriori_bound(model.potential, model.density, model.coupling, args.s)
    if model.dimension == 1:
        geometry = explicit_geometry([(k,) for k in range(args.box)])
    else:
        geometry = build_box(args.box, (0,) * model.dimension)
    rows = []
    ok = True
    sites = list(geometry.sites)
    pairs = [(sites[0], sites[-1]), (sites[len(sites) // 2], sites[len(sites) // 2]),
             (sites[0], sites[len(sites) // 2])]
    estimates = moments.estimate_moments(model, geometry, complex(0.0, args.imag), args.s,
                                         pairs, args.trials, seed, args.threads)
    for (x, y), est in zip(pairs, estimates):
        passed = est.mean <= info["bound"] + 3 * est.stderr
        ok = ok and passed
        rows.append([x, y, est.mean, est.stderr, info["bound"], passed])
    out.table(["x", "y", "mean", "stderr", "bound", "pass"], rows)
    out.check("nonlocal-apriori-bound", float(sum(not r[-1] for r in rows)), 0.0, ok)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="alloylab",
                                description="verification experiments for alloy-type random operators")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mc: bool):
        sp.add_argument("--config", required=True, help="JSON model config")
        sp.add_argument("--out", default=None, help="base path for CSV outputs")
        sp.add_argument("--seed", type=int, default=None,
                        help="random seed" + (" (required for MC)" if mc else ""))
        sp.set_defaults(needs_seed=mc)

    def trial_flags(sp, trials: int):  # only the subcommands that run MC trials
        sp.add_argument("--trials", type=_positive_int, default=trials)
        sp.add_argument("--threads", type=_positive_int, default=1, help="worker thread cap")

    sp = sub.add_parser("spectrum", help="eigenvalues of one disorder realization")
    common(sp, True)
    sp.add_argument("--box", type=int, default=10)

    sp = sub.add_parser("green-identities", help="Schur and resolvent identity residuals")
    common(sp, True)
    sp.add_argument("--instances", type=_positive_int, default=20)

    sp = sub.add_parser("averaging", help="spectral-averaging integrals vs closed-form bounds")
    common(sp, True)
    sp.add_argument("--instances", type=_positive_int, default=50)

    sp = sub.add_parser("moments", help="one fractional-moment MC estimate")
    common(sp, True)
    sp.add_argument("--box", type=int, default=20)
    sp.add_argument("--dist", type=int, default=5)
    sp.add_argument("--s", type=float, default=0.25)
    sp.add_argument("--energy", type=float, default=0.0)
    sp.add_argument("--imag", type=float, default=0.5)
    trial_flags(sp, 1000)

    sp = sub.add_parser("decay", help="moment decay profile vs the explicit bound")
    common(sp, True)
    sp.add_argument("--box", type=int, default=60, help="number of chain sites")
    sp.add_argument("--s", type=float, default=0.5)
    sp.add_argument("--energy", type=float, default=0.0)
    sp.add_argument("--imag", type=float, default=0.5)
    trial_flags(sp, 5000)

    sp = sub.add_parser("finite-volume", help="screened moment sum across the annulus")
    common(sp, True)
    sp.add_argument("--region", type=int, default=12, help="radius of the host box")
    sp.add_argument("--L", type=int, default=3)
    sp.add_argument("--s", type=float, default=0.3)
    sp.add_argument("--energy", type=float, default=0.0)
    sp.add_argument("--imag", type=float, default=0.5)
    trial_flags(sp, 500)

    sp = sub.add_parser("wegner", help="eigenvalue-count MC vs the exact bound")
    common(sp, True)
    sp.add_argument("--l", type=int, default=6)
    sp.add_argument("--emin", type=float, default=-0.1)
    sp.add_argument("--emax", type=float, default=0.1)
    trial_flags(sp, 2000)

    sp = sub.add_parser("poscomb", help="leading derivative, radius and positive combination")
    common(sp, False)
    sp.add_argument("--l", type=int, default=5)

    sp = sub.add_parser("regularity", help="two-box regularity frequency over an energy grid")
    common(sp, True)
    sp.add_argument("--L", type=int, default=5)
    sp.add_argument("--separation", type=int, default=20)
    sp.add_argument("--emin", type=float, default=-1.0)
    sp.add_argument("--emax", type=float, default=1.0)
    sp.add_argument("--grid", type=_positive_int, default=21)
    sp.add_argument("--m", type=float, default=0.2)
    trial_flags(sp, 200)

    sp = sub.add_parser("conditional", help="Gaussian conditional formulas and the pinned interval")
    common(sp, True)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--delta-prime", dest="delta_prime", type=float, default=0.05)
    sp.add_argument("--attempts", type=_positive_int, default=100000)

    sp = sub.add_parser("apriori", help="non-local a-priori bound vs MC moments")
    common(sp, True)
    sp.add_argument("--box", type=int, default=15, help="number of chain sites (radius in d>1)")
    sp.add_argument("--s", type=float, default=1.0 / 3.0)
    sp.add_argument("--imag", type=float, default=0.5)
    trial_flags(sp, 800)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree that run parses with, built once per process: parsing keeps no state in it."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        model, seed = _load(args)
        out = Output(args.out)
        # the subcommand's function is looked up on every call, not stored in the cached parser,
        # so a cmd_* that is patched later (as the benchmark's tracer does) is the one that runs
        globals()["cmd_" + args.command.replace("-", "_")](args, model, seed, out)
        return out.write()
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
