"""The three benchmark workloads: model configs and job rounds, generated from a seed.

A workload is a sequence of rounds.  Every round holds the same job slots
(subcommand, config and size: chain length, box radius, trial count) in the
same order, so every round and every seed does about the same amount of work.
The seed draws what does not set the amount of work: energies, exponents,
distances, job seeds, and the couplings and density shapes of the configs
where the work does not depend on them.  Round ``k`` is a pure function of
``(seed, k)``.

Sizes are chosen per workload to load a different layer:

* ``chain-moments``: d=1 ``decay``/``apriori``/``moments`` on 10-60 sites with
  raised-cosine and piecewise-linear densities (bisection quantile, 64 cdf
  evaluations per draw) at ``--threads 2``.
* ``box-moments``: d=2 ``moments`` on every box radius 4..12 (81-625 sites,
  complex matrices 0.1-6.25 MB against a 4 MiB L2) and ``finite-volume``, plus
  d=1 exponential-tail ``wegner``; uniform densities (closed-form sampler),
  ``--threads 1``.
* ``exact-checks``: site-keyed and closed-form jobs with no trial engine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("chain-moments", "box-moments", "exact-checks")


@dataclass
class Job:
    """One verification job: a CLI argv, or a direct ``detgen_check`` call."""

    name: str                 # subcommand, or "detgen_check"
    argv: list = field(default_factory=list)
    params: dict | None = None  # detgen_check arguments
    realisations: int = 0     # disorder realisations this job draws (0: none)


def _r(x: float) -> str:
    """Round a drawn flag value so argv stays short and exactly reproducible."""
    return repr(round(float(x), 4))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def _uniform(a: float, b: float) -> dict:
    return {"kind": "uniform", "params": [a, b]}


def _raised_cosine(rng) -> dict:
    a = round(float(rng.uniform(-0.5, 0.0)), 3)
    return {"kind": "raised_cosine", "params": [a, round(a + float(rng.uniform(1.0, 2.0)), 3)]}


def _piecewise_linear(rng) -> dict:
    # zero at both ends, so the density has an integrable derivative (apriori needs it)
    a = round(float(rng.uniform(-0.5, 0.0)), 3)
    w = float(rng.uniform(1.0, 2.0))
    peak = a + w * float(rng.uniform(0.2, 0.8))
    return {"kind": "piecewise_linear",
            "params": [[a, 0.0], [round(peak, 3), round(float(rng.uniform(1.0, 2.0)), 3)],
                       [round(a + w, 3), 0.0]]}


def _config(d: int, lam: float, support, density: dict, tail=None) -> dict:
    pot = {"support": [[list(site), round(float(v), 3)] for site, v in support]}
    if tail is not None:
        pot["tail"] = tail
    return {"dimension": d, "lambda": round(float(lam), 3), "potential": pot, "density": density}


# ---------------------------------------------------------------------------
# configs


def configs(workload: str, seed: int) -> dict[str, dict]:
    """The workload's model configs, keyed by name."""
    rng = _rng(seed, 0)
    if workload == "chain-moments":
        return {
            "rc2": _config(1, rng.uniform(8, 30), [((0,), 1.0), ((1,), -rng.uniform(0.1, 0.6))],
                           _raised_cosine(rng)),
            "pl2": _config(1, rng.uniform(8, 30), [((0,), 1.0), ((1,), -rng.uniform(0.1, 0.6))],
                           _piecewise_linear(rng)),
            # a gap in supp u sends decay through the hyperplane-search constants
            "rcgap": _config(1, rng.uniform(8, 30), [((0,), 1.0), ((2,), -rng.uniform(0.1, 0.6))],
                             _raised_cosine(rng)),
            "pl3": _config(1, rng.uniform(8, 30),
                           [((0,), 1.0), ((1,), rng.uniform(0.2, 0.6)), ((2,), -rng.uniform(0.1, 0.4))],
                           _piecewise_linear(rng)),
        }
    if workload == "box-moments":
        return {
            "d2a": _config(2, rng.uniform(2, 10), [((0, 0), 1.0), ((1, 0), -rng.uniform(0.1, 0.6))],
                           _uniform(0.0, 1.0)),
            "d2b": _config(2, rng.uniform(2, 10),
                           [((0, 0), 1.0), ((0, 1), -rng.uniform(0.1, 0.4)), ((1, 1), rng.uniform(0.2, 0.6))],
                           _uniform(-0.5, 0.5)),
            "exp1": _config(1, rng.uniform(0.5, 2.0), [], _uniform(0.0, 1.0),
                            tail={"C": 1.0, "alpha": round(float(rng.uniform(0.8, 1.5)), 3), "radius": 12}),
        }
    if workload == "exact-checks":
        # fixed where the value sets the amount of work: the coupling decides how
        # often regularity stops after the first box, the density shapes how far
        # quad subdivides, the tail rate the poscomb box radius
        return {
            "un1": _config(1, rng.uniform(1, 30), [((0,), 1.0), ((1,), -rng.uniform(0.1, 0.9))],
                           _uniform(0.0, 1.0)),
            "un2": _config(2, 10.0, [((0, 0), 1.0), ((1, 0), -rng.uniform(0.1, 0.9))],
                           _uniform(0.0, 1.0)),
            "rc1": _config(1, 10.0, [((0,), 1.0)], {"kind": "raised_cosine", "params": [0.0, 1.0]}),
            "pl1": _config(1, 10.0, [((0,), 1.0)],
                           {"kind": "piecewise_linear", "params": [[0.0, 0.0], [0.3, 1.5], [1.0, 0.0]]}),
            "neg": _config(1, 1.0, [((0,), 1.0), ((1,), -rng.uniform(0.5, 1.0))], _uniform(0.0, 1.0)),
            "exp": _config(1, 1.0, [], _uniform(0.0, 1.0), tail={"C": 1.0, "alpha": 1.0, "radius": 40}),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, seed: int, directory: str) -> dict[str, str]:
    """Write the configs as JSON files; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, cfg in configs(workload, seed).items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh, sort_keys=True)
    return paths


# ---------------------------------------------------------------------------
# rounds


def _cli(name: str, cfg: str, seed: int, realisations: int, **flags) -> Job:
    argv = [name, "--config", cfg, "--seed", str(seed)]
    for key, val in flags.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return Job(name, argv, realisations=realisations)


def _seed(rng) -> int:
    return int(rng.integers(1, 2 ** 31))


def _chain_round(rng, cfg) -> list[Job]:
    jobs = []

    def z():
        return {"energy": _r(rng.uniform(-1.0, 1.0)), "imag": _r(rng.uniform(0.3, 1.0))}

    for name, sites, trials in (("rc2", 60, 240), ("pl3", 30, 120), ("rcgap", 10, 240)):
        jobs.append(_cli("decay", cfg[name], _seed(rng), trials, box=sites,
                         s=_r(rng.uniform(0.3, 0.7)), trials=trials, threads=2, **z()))
    for name, sites, trials in (("rc2", 40, 80), ("pl2", 20, 40)):
        jobs.append(_cli("apriori", cfg[name], _seed(rng), 3 * trials, box=sites,
                         s=_r(rng.uniform(0.2, 0.6)), imag=_r(rng.uniform(0.2, 1.0)),
                         trials=trials, threads=2))
    for name, radius, trials in (("rc2", 25, 240), ("pl2", 5, 120)):  # 51 and 11 sites
        jobs.append(_cli("moments", cfg[name], _seed(rng), trials, box=radius,
                         dist=int(rng.integers(1, radius + 1)), s=_r(rng.uniform(0.2, 0.8)),
                         trials=trials, threads=2, **z()))
    return jobs


# trials per d=2 box radius.  Radii 4-9 take about half a second each, so the
# median job lies inside a cluster of similar jobs and does not jump between
# sizes; radii 10-12 (matrices past L2) get 20-30 trials, beside a set-up
# loop that takes about half of those jobs
BOX_TRIALS = {4: 1800, 5: 780, 6: 350, 7: 170, 8: 77, 9: 26, 10: 30, 11: 25, 12: 20}


def _box_round(rng, cfg) -> list[Job]:
    jobs = []
    for radius, trials in BOX_TRIALS.items():
        jobs.append(_cli("moments", cfg[("d2a", "d2b")[radius % 2]], _seed(rng), trials, box=radius,
                         dist=int(rng.integers(1, radius + 1)), s=_r(rng.uniform(0.2, 0.8)),
                         energy=_r(rng.uniform(-1.0, 1.0)), imag=_r(rng.uniform(0.3, 1.0)),
                         trials=trials, threads=1))
    for name in ("d2a", "d2b"):
        jobs.append(_cli("finite-volume", cfg[name], _seed(rng), 200, region=6,
                         L=3, s=_r(rng.uniform(0.2, 0.8)), energy=_r(rng.uniform(-1.0, 1.0)),
                         imag=_r(rng.uniform(0.3, 1.0)), trials=200, threads=1))
    for l in (4, 8):
        half = float(rng.uniform(0.05, 0.2))
        jobs.append(_cli("wegner", cfg["exp1"], _seed(rng), 1000, l=l,
                         emin=_r(-half), emax=_r(half), trials=1000, threads=1))
    return jobs


def _exact_round(rng, cfg) -> list[Job]:
    jobs = []
    jobs.append(_cli("green-identities", cfg["un1"], _seed(rng), 10, instances=10))
    jobs.append(_cli("green-identities", cfg["un2"], _seed(rng), 4, instances=4))
    jobs.append(_cli("spectrum", cfg["un2"], _seed(rng), 0, box=10))
    # separation >= 2L + diam(supp u) + 1 = 8; m is fixed, like the coupling
    jobs.append(_cli("regularity", cfg["un2"], _seed(rng), 16, L=3, separation=8 + int(rng.integers(0, 4)),
                     grid=7, m=0.3, trials=16))
    for name in ("un1", "rc1", "pl1"):
        jobs.append(_cli("averaging", cfg[name], _seed(rng), 0, instances=10))
    delta = float(rng.uniform(0.04, 0.08))
    jobs.append(_cli("conditional", cfg["neg"], _seed(rng), 0, attempts=100000, delta=_r(delta),
                     delta_prime=_r(delta * float(rng.uniform(0.6, 1.0)))))
    jobs.append(Job("poscomb", ["poscomb", "--config", cfg["exp"], "--l", "5"]))
    jobs.append(Job("detgen_check", params=_detgen_params(rng), realisations=3000))
    return jobs


def _detgen_params(rng) -> dict:
    """Random (A, V_0..V_2, alpha) with an invertible alpha-combination, as in C4."""
    n = int(rng.integers(1, 4))
    N = 2  # three matrices; the draw loop's cost is set by N, not by n <= 3
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Vs = [rng.normal(size=(n, n)) for _ in range(N + 1)]
    alpha = np.zeros(N + 1)
    while abs(np.linalg.det(sum(a * V for a, V in zip(alpha, Vs)))) < 1e-3:
        alpha = rng.uniform(-1, 1, size=N + 1)
        alpha[0] = float(rng.uniform(0.3, 1.0))
    return {"A": A, "Vs": Vs, "alpha": alpha, "t": float(rng.uniform(0.2, 0.8)),
            "trials": 3000, "seed": _seed(rng)}


_ROUNDS = {"chain-moments": _chain_round, "box-moments": _box_round, "exact-checks": _exact_round}


def round_jobs(workload: str, seed: int, k: int, cfg_paths: dict[str, str]) -> list[Job]:
    """Jobs of round ``k``; identical for identical (workload, seed, k)."""
    return _ROUNDS[workload](_rng(seed, 1, k), cfg_paths)
