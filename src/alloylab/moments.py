"""Monte Carlo fractional moments of Green functions and the explicit bounds.

The centerpiece is E|G(z; x, y)|^s over the disorder, estimated trial by trial with per-trial
random streams (drawn, and made into lambda V, as one block that all pairs of an estimator
share) on the calling thread, since scipy's ``zgbsv`` wrapper holds the GIL.  It is compared
against the explicit 1-D decay constants, the gap-construction bounds, the finite-volume
screening sum, and the non-local a-priori bound from the exponential-weight transform.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .averaging import _fractional_prefactor, _mean_stderr, _scipy_module
from .green import annulus
from .model import (
    BoxGeometry,
    DisorderDensity,
    ModelConfig,
    SingleSitePotential,
    Site,
    SitePotential,
    _as_site,
    _chain_values,
    _require,
    _site_list,
    explicit_geometry,
    exterior_boundary,
    l1_norm,
    site_sub,
)
from .rng import trial_stream

__all__ = [
    "MomentEstimate",
    "OneDConstants",
    "GapConstants",
    "DisorderSampler",
    "estimate_moment",
    "estimate_moments",
    "one_d_constants",
    "gap_constants",
    "decay_profile",
    "finite_volume_sum",
    "nonlocal_apriori_bound",
    "w_xy",
    "run_trials",
]


# ---------------------------------------------------------------------------
# trial harness


def run_trials(fn, trials: int, threads: int = 1) -> np.ndarray:
    """fn(block) on contiguous ranges of trial indices, concatenated in trial order.

    ``fn`` takes a ``range`` of trial indices and returns one entry per trial in it: shape
    (len(block),) for scalars, (len(block), k) for rows.  w = min(threads, trials) workers take
    one contiguous block each (block w is ``range(trials * w // workers, trials * (w + 1) //
    workers)``); one worker calls ``fn(range(trials))`` with no pool.  A trial depends only on
    its index (row ``trial`` of the ``DisorderSampler.omega`` block), so if ``fn`` computes each
    trial on its own, the result is bitwise the same for any number of workers.  Workers pay
    only where ``fn`` releases the GIL, as the numpy eigensolves of ``spectra`` do; the ``zgbsv``
    solves of ``estimate_moments`` do not, so it calls with one worker.
    """
    _require("count", trials=trials, threads=threads)
    workers = min(threads, trials)
    if workers == 1:
        return np.asarray(fn(range(trials)))
    blocks = [range(trials * w // workers, trials * (w + 1) // workers) for w in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(fn, blocks)))


@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    stderr: float
    x: Site
    y: Site

    def upper(self) -> float:
        return self.mean + 3 * self.stderr


class DisorderSampler:
    """Assembly data, each part built on its first use: per trial only the diagonal changes.

    The hopping part of H is the geometry's ``hopping``; the random diagonal
    is lambda V, with V from the geometry's ``site_potential``, the map that
    assemble_hamiltonian also reads, one coupling per ``coupling_sites`` site.
    ``omega`` draws all trials' couplings as one block through one density
    transform, and ``diagonals`` makes its lambda V; a trial takes one row.

    The Green column comes from a banded LU (LAPACK ``gbsv``).  The
    half-bandwidth k is the longest index span of ``geometry.bonds``: 1 for a
    chain, side^(d-1) for a lexicographically ordered box, and up to n - 1 for
    an arbitrary site order, which is still exact, only slower.  The band is
    kept in Fortran order, the layout LAPACK reads, so f2py hands each
    trial's copy to ``gbsv`` as it is, with no second, transposing copy.
    """

    def __init__(self, model: ModelConfig, geometry: BoxGeometry):
        self.model = model
        self.geometry = geometry

    @cached_property
    def potential(self) -> SitePotential:
        """The coupling-to-V map, the geometry's own for this potential: ``assemble_hamiltonian`` reads the same."""
        return self.geometry.site_potential(self.model.potential)

    @cached_property
    def half_bandwidth(self) -> int:
        """The longest index span of ``geometry.bonds``, read on the first solve: only the band needs the bonds."""
        i, j = self.geometry.bonds.T
        return int(np.max(j - i, initial=0))

    @cached_property
    def _band(self) -> np.ndarray:
        """-Delta in gbsv layout, Fortran-ordered, built on the first solve.

        a[i, j] sits at row 2k + i - j; rows 0..k-1 hold the LU fill-in.  In
        C order f2py would copy (and transpose) the band before every solve.
        """
        k = self.half_bandwidth
        i, j = self.geometry.bonds.T
        band = np.zeros((3 * k + 1, len(self.geometry)), dtype=complex, order="F")
        band[2 * k + i - j, j] = band[2 * k + j - i, i] = -1.0
        return band

    @cached_property
    def _gbsv(self):
        """LAPACK zgbsv, the routine get_lapack_funcs("gbsv", dtype=complex) returns, loaded on the first solve."""
        return _scipy_module("scipy.linalg._flapack").zgbsv

    def omega(self, seed: int, trials: int) -> np.ndarray:
        """Couplings of trials 0..trials-1 as one (trials, |coupling_sites|) block.

        Row t holds the uniforms of ``trial_stream(seed, t)``, drawn in place
        exactly as a single trial would draw them, and the whole block goes
        through one ``DisorderDensity.sample`` call, so the raised cosine's
        bisection quantile (the uniform and piecewise-linear ones are closed
        forms) runs once per estimator, not once per trial.  The block holds
        trials x |coupling_sites| doubles: 5000 x 61, about 2.4 MB, at the
        ``decay`` defaults.
        """
        _require("count", trials=trials)
        block = np.empty((trials, len(self.potential.coupling_sites)))
        for t in range(trials):
            trial_stream(seed, t).random(out=block[t])
        return self.model.density.sample(block)

    def diagonals(self, omega: np.ndarray) -> np.ndarray:
        """lambda V for a coupling vector, or row by row for a (trials, couplings) block."""
        return self.model.coupling * self.potential(omega)

    def hamiltonian(self, diagonal: np.ndarray) -> np.ndarray:
        """-Delta + diag(diagonal) as (n, n), or as the (trials, n, n) stack for a (trials, n) block.

        Each matrix is a copy of ``geometry.hopping`` with its diagonal written, so
        ``hamiltonian(block)[t]`` equals ``hamiltonian(block[t])`` bit for bit.
        """
        hopping = self.geometry.hopping
        H = np.broadcast_to(hopping, diagonal.shape[:-1] + hopping.shape).copy()
        sites = np.arange(len(self.geometry))
        H[..., sites, sites] = diagonal
        return H

    def green_column(self, diagonal: np.ndarray, z: complex, sources) -> np.ndarray:
        """G(z; ., i) for each row i in ``sources``, as (n, len(sources)) from one banded LU; singular H - z raises."""
        k = self.half_bandwidth
        ab = self._band.copy(order="F")  # a plain copy() would be C-ordered
        np.subtract(diagonal, z, out=ab[2 * k])
        rhs = np.zeros((ab.shape[1], len(sources)), dtype=complex, order="F")
        for j, i in enumerate(sources):  # scalar writes: a fancy-indexed write costs as much as the solve
            rhs[i, j] = 1.0
        _, _, cols, info = self._gbsv(k, k, ab, rhs, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"H - z is singular: zero pivot {info} in the banded LU")
        if info < 0:
            raise np.linalg.LinAlgError(f"gbsv rejected its argument {-info}")
        return cols


def estimate_moments(model: ModelConfig, geometry: BoxGeometry, z: complex, s_exp: float,
                     pairs, trials: int, seed: int, threads: int = 1) -> list[MomentEstimate]:
    """Unbiased MC means of |G(z; x, y)|^s over i.i.d. disorder, one per (x, y) pair.

    The pairs share one disorder block and one banded LU per trial; each trial writes its pairs' G
    values into its row of one preallocated (trials, pairs) block, with one ``take`` of precomputed
    flat indices, and |G|^s is taken once, as np.abs(block) ** s.  ``threads`` must be >= 1, but
    the solves run on the calling thread: scipy's ``zgbsv`` holds the GIL."""
    _require("off_axis", z=z)
    _require("exponent", s_exp=s_exp)
    _require("count", trials=trials, threads=threads)
    pairs = [(_as_site(x), _as_site(y)) for x, y in pairs]
    if not pairs:
        raise ValueError("need at least one (x, y) pair")
    geometry.rows([site for pair in pairs for site in pair])  # raises on a site outside the geometry
    sources = list(dict.fromkeys(x for x, _ in pairs))
    source_rows = [geometry.index_of(x) for x in sources]
    # pair (x, y) reads entry (row of y, source of x) of the (n, sources) column block, flattened in Fortran order
    flat = np.array([sources.index(x) * len(geometry) + geometry.index_of(y) for x, y in pairs])
    sampler = DisorderSampler(model, geometry)
    diagonals = sampler.diagonals(sampler.omega(seed, trials))

    def values(block: range) -> np.ndarray:  # one banded LU per trial; one take reads its pairs into its row
        out = np.empty((len(block), len(pairs)), dtype=complex)
        for row, t in zip(out, block):  # flat is in range: "clip" skips the buffer of the bounds check
            sampler.green_column(diagonals[t], z, source_rows).ravel(order="F").take(flat, out=row, mode="clip")
        return out

    means, stderrs = _mean_stderr(np.abs(run_trials(values, trials)) ** s_exp)
    return [MomentEstimate(float(mean), float(stderr), x, y)
            for (x, y), mean, stderr in zip(pairs, means, stderrs)]


def estimate_moment(model: ModelConfig, geometry: BoxGeometry, z: complex, s_exp: float,
                    x, y, trials: int, seed: int, threads: int = 1) -> MomentEstimate:
    """Unbiased MC mean of |G(z; x, y)|^s over i.i.d. disorder; ``threads`` as in ``estimate_moments``."""
    return estimate_moments(model, geometry, z, s_exp, [(x, y)], trials, seed, threads)[0]


# ---------------------------------------------------------------------------
# explicit one-dimensional constants


@dataclass(frozen=True)
class OneDConstants:
    n: int
    C_u: float
    C_rho: float
    C: float            # C_u C_rho / lambda^s, the per-step contraction
    C_u_plus: float
    C_rho_plus: float
    C_plus: float       # prefactor of the decay bound
    mu: float           # -ln C, positive above the disorder threshold
    disorder_threshold: float

    def bound(self, dist: int) -> float:
        """C_plus * exp(-mu * floor(dist / n)), the decay bound at a separation."""
        return self.C_plus * math.exp(-self.mu * (dist // self.n))


def one_d_constants(u: SingleSitePotential, density: DisorderDensity,
                    coupling: float, s: float) -> OneDConstants:
    """Explicit decay constants for connected supp u = {0..n-1} in d = 1; the bounds divide by a power of lambda > 0."""
    _require("exponent", s=s)
    _require("positive", coupling=coupling)
    pref = _fractional_prefactor(s)
    vals = _chain_values(u)
    n = len(vals)
    if 0.0 in vals:
        raise ValueError("supp u must be connected {0..n-1}; use gap_constants otherwise")
    prod_all = abs(math.prod(vals))
    C_u = prod_all ** (-s / n)
    C_rho = density.linf ** s * pref
    C = C_u * C_rho / coupling ** s
    prefix_products = [abs(math.prod(vals[: i + 1])) for i in range(n)]
    C_u_plus = max(p ** (-s / n) for p in prefix_products)
    C_rho_plus = max(density.linf ** s, density.linf ** (s / n)) * pref
    C_plus = C_u_plus * C_rho_plus * max(coupling ** (-s), coupling ** (-s / n))
    mu = -math.log(C)
    threshold = (C_u * C_rho) ** (1.0 / s)  # lambda above this gives C < 1
    return OneDConstants(n, C_u, C_rho, C, C_u_plus, C_rho_plus, C_plus, mu, threshold)


# ---------------------------------------------------------------------------
# gap construction for non-connected supports


@dataclass(frozen=True)
class GapConstants:
    n: int
    r: int
    alpha: tuple[float, ...]     # the searched direction in [0,1]^{r+1}
    min_distance: float          # achieved min distance to the u-hyperplanes
    d0: float                    # volume-argument radius 1/((n+r)(r+1)^{r/2})
    D: float                     # direct bound evaluated at alpha
    D_volume: float              # alpha-free closed-form bound
    D_plus: float                # direct short-segment bound at alpha
    D_plus_volume: float         # alpha-free closed-form short-segment bound
    mu: float                    # -ln D when D < 1, else <= 0

    def bound(self, dist: int) -> float:
        return self.D_plus * math.exp(-self.mu * (dist // (self.n + self.r)))


def largest_gap(u: SingleSitePotential) -> int:
    """Number of sites in the largest run missing from supp u (0 if connected)."""
    supp = [k for k, v in enumerate(_chain_values(u)) if v != 0.0]
    return max((b - a - 1 for a, b in zip(supp, supp[1:])), default=0)


def gap_constants(u: SingleSitePotential, density: DisorderDensity, coupling: float,
                  s: float, search_samples: int = 10000, seed: int = 1) -> GapConstants:
    """Bound constants for finite supp u with gaps, via the hyperplane search.

    A direction alpha in [0,1]^{r+1} is drawn uniformly and kept when its
    Euclidean distance to every hyperplane sum_k alpha_k u(i-k) = 0 is at
    least half the volume-argument radius d0; existence is guaranteed because
    those neighborhoods cover at most half the cube.
    """
    _require("exponent", s=s)
    _require("positive", coupling=coupling)
    _require("count", search_samples=search_samples)
    pref = _fractional_prefactor(s)
    r = largest_gap(u)  # also checks d = 1 and min supp u = 0
    n = len(_chain_values(u))
    R = density.support_radius
    # every window meets supp u: one holding neither 0 nor n - 1 lies in [1, n - 2] and is
    # longer than the largest gap r, so no norm is zero
    rows = [np.array([u.value((i - k,)) for k in range(r + 1)]) for i in range(n + r)]
    norms = np.array([np.linalg.norm(row) for row in rows])
    d0 = 1.0 / ((n + r) * (r + 1) ** (r / 2.0))

    # all candidates in one block (the same numbers as successive random(r + 1)
    # draws); the first candidate farthest from every hyperplane wins
    cands = trial_stream(seed, 0).random((search_samples, r + 1))
    dists = np.min(np.abs(cands @ np.array(rows).T) / norms, axis=1)
    if np.max(dists, initial=-1.0) < d0 / 2.0:
        raise RuntimeError("hyperplane search failed to reach the guaranteed distance; "
                           f"best {np.max(dists, initial=-1.0):.3g} < d0/2 = {d0 / 2.0:.3g}")
    alpha = cands[int(np.argmax(dists))]
    # the chosen alpha's distance from one dot per row: the block product may
    # round differently (BLAS gemv for a single candidate)
    dots = [float(row @ alpha) for row in rows]
    best_dist = float(min(abs(dot) / norm for dot, norm in zip(dots, norms)))

    ratio = 0.0 if r == 0 else max(abs(alpha[i]) / abs(alpha[0]) for i in range(1, r + 1))

    # the bound on the first l + 1 rows; at l = n + r - 1 it is the full-period D
    def d_plus_direct(l: int) -> float:
        t = s * (l + 1) / (n + r)
        prod_l = math.prod(abs(dot) * coupling for dot in dots[: l + 1])
        return (density.linf ** ((r + 1) * t) * (2 * R) ** (r * t) * pref
                * abs(alpha[0]) ** t * (1.0 + ratio) ** (r * s) * prod_l ** (-s / (n + r)))

    def d_plus_volume(l: int) -> float:
        t = s * (l + 1) / (n + r)
        vol_l = 2.0 * (l + 1) * (r + 1) ** (r / 2.0)
        prod_sq_l = math.prod(float(rows[i] @ rows[i]) * coupling ** 2 for i in range(l + 1))
        return (density.linf ** ((r + 1) * t) * (2 * R) ** (r * t) * pref
                * (1.0 + vol_l) ** (r * s) * vol_l ** s / prod_sq_l ** (s / (2 * (n + r))))

    direct = [d_plus_direct(l) for l in range(n + r)]
    volume = [d_plus_volume(l) for l in range(n + r)]
    mu = -math.log(direct[-1]) if direct[-1] < 1 else 0.0
    return GapConstants(n, r, tuple(float(a) for a in alpha), best_dist, d0,
                        direct[-1], volume[-1], max(direct), max(volume), mu)


# ---------------------------------------------------------------------------
# decay profiles


def decay_profile(model: ModelConfig, box_sites: int, z: complex, s: float,
                  trials: int, seed: int, threads: int = 1) -> dict:
    """Moment sweep E|G(z; x, y)|^{s/n} along a 1-D box, with the decay bound.

    x is the left end of the box, y sweeps; for connected supp u the exponent
    is s/n and the bound uses the explicit contraction constants, otherwise
    s/(n+r) with the gap constants.  ``fit`` is the slope of a weighted
    least-squares line through log(mean) against distance, or None when fewer
    than two distances have a fittable mean.  ``threads`` is checked, not used (``estimate_moments``).
    """
    _require("off_axis", z=z)
    _require("exponent", s=s)
    _require("count", box_sites=box_sites, trials=trials, threads=threads)
    if model.dimension != 1:
        raise ValueError("decay profiles are one-dimensional")
    if box_sites < 2:
        raise ValueError(f"a decay profile needs at least two chain sites, got {box_sites}")
    geometry = explicit_geometry([(k,) for k in range(box_sites)])
    r = largest_gap(model.potential)
    step = len(_chain_values(model.potential)) + r  # n + r, and r = 0 when connected
    exponent = s / step
    if model.coupling == 0.0:
        # flat diagnostic profile: no decay bound applies without disorder, so
        # min_dist lies past the box and no distance is compared to a bound
        consts, min_dist = None, len(geometry) + 1
    else:
        consts = (one_d_constants if r == 0 else gap_constants)(model.potential, model.density,
                                                                model.coupling, s)
        min_dist = 2 * step

    estimates = estimate_moments(model, geometry, z, exponent, [((0,), y) for y in geometry.sites[1:]],
                                 trials, seed, threads)

    fittable = [est for est in estimates if est.mean > 0 and est.stderr < est.mean]
    dists = [est.y[0] for est in fittable]
    logs = [math.log(est.mean) for est in fittable]
    weights = [1.0 / (est.stderr / est.mean if est.stderr > 0 else 1e-6) ** 2 for est in fittable]
    fit = None  # fewer than two fittable distances: no rate, not a rate of 0
    if len(dists) >= 2:
        fit = float(np.polyfit(dists, logs, 1, w=np.sqrt(weights))[0])

    rows = []
    for est in estimates:
        dist = est.y[0]
        compared = dist >= min_dist  # nearer rows, and every row at lambda = 0, meet no bound
        bound = consts.bound(dist) if compared else math.inf
        rows.append({
            "distance": dist,
            "mean": est.mean,
            "stderr": est.stderr,
            "bound": bound,
            "pass": bool(est.upper() <= bound) if compared else None,
        })
    return {
        "rows": rows,
        "fit": fit,
        "constants": consts,
        "exponent": exponent,
        "min_dist": min_dist,
    }


# ---------------------------------------------------------------------------
# finite-volume screening sum


def finite_volume_sum(model: ModelConfig, region: BoxGeometry, x, z: complex, s: float,
                      L: int, trials: int, seed: int, threads: int = 1) -> dict:
    """Screened moment sum across the annulus around x, and its scaled form.

    raw = sum over w in the exterior boundary of W_x (within the region,
    zero-convention for the rest) of the MC mean of
    |G_{region minus W_x}(z; x, w)|^{s/(2|Theta|)}; the scaled value
    multiplies by L^{3(d-1)} Xi_s(lambda) / lambda^{2s/(2|Theta|)}, leaving
    out only the non-explicit prefactor of the criterion, so ``scaled`` is
    not the criterion itself.  z, ``trials`` and ``threads`` go to ``estimate_moments``, which checks them.
    """
    _require("exponent", s=s)  # the moments take s / (2 |Theta|), which lies in (0, 1) for more s
    _require("positive", coupling=model.coupling)
    region.rows([x])  # raises on an x outside the region
    ann = annulus(region, x, L, model.potential)
    # x is never in W_x: 0 in supp u puts hat-W_x at sup distance >= L - diam >= 2 from x
    depleted_sites = region.site_set() - ann.W_x
    sub = region.subset(depleted_sites)
    boundary = sorted(exterior_boundary(ann.W_x) & depleted_sites)
    theta_count = len(model.potential.support())
    exponent = s / (2 * theta_count)

    estimates = estimate_moments(model, sub, z, exponent, [(x, w) for w in boundary], trials, seed, threads)
    means = np.array([est.mean for est in estimates])
    stderrs = np.array([est.stderr for est in estimates])
    raw = float(means.sum())
    lam = model.coupling
    xi = max(lam ** (-exponent), lam ** (-2 * s))
    d = model.dimension
    scaled = raw * L ** (3 * (d - 1)) * xi / lam ** (2 * s / (2 * theta_count))
    return {
        "boundary_sites": boundary,
        "means": means,
        "stderrs": stderrs,
        "raw_sum": raw,
        "scaled": scaled,
        "xi": xi,
        "exponent": exponent,
        "annulus": ann,
    }


# ---------------------------------------------------------------------------
# non-local a-priori bound


def exponential_weights(u: SingleSitePotential) -> dict:
    """Rate and l1 mass of the exponential coefficient family for u.

    c = ln(1 + ubar / (2 ||u||_1)) / diam and C = ((e^c + 1)/(e^c - 1))^d;
    when sum u < 0 the sign of u is flipped first (the couplings absorb it).
    """
    ubar = u.total()
    if ubar == 0:
        raise ValueError("sum of u vanishes; the transform degenerates")
    flipped = ubar < 0
    ubar = abs(ubar)
    n = u.diameter_l1()
    if n < 1:
        raise ValueError("single-site support must have diameter >= 1; "
                         "rank-one potentials take the scalar pole route instead")
    d = u.dimension
    c = math.log(1.0 + ubar / (2.0 * u.l1())) / n
    C = ((math.exp(c) + 1.0) / (math.exp(c) - 1.0)) ** d
    return {"c": c, "C": C, "ubar": ubar, "sign_flipped": flipped}


def nonlocal_apriori_bound(u: SingleSitePotential, density: DisorderDensity,
                           coupling: float, s: float) -> dict:
    """Closed-form bound on E|G(z;x,y)|^s from the exponential-weight transform.

    Needs ubar = sum u != 0 (the sign is flipped when negative), a density
    with integrable derivative, and diameter n >= 1.  The bound is
    8 ubar^{-s} s^{-s}/(1-s) ||rho'||^s C^s lambda^{-s}.
    """
    _require("exponent", s=s)
    _require("positive", coupling=coupling)
    if density.deriv_l1 is None:
        raise ValueError("density must have an integrable derivative")
    info = exponential_weights(u)
    bound = (8.0 / info["ubar"] ** s * s ** (-s) / (1.0 - s)
             * density.deriv_l1 ** s * info["C"] ** s / coupling ** s)
    return {"bound": bound, **info}


def w_xy(u: SingleSitePotential, x, y, window) -> dict:
    """Exponential-coefficient combination W(k) = sum_j alpha(j) u(k - j).

    alpha(j) = (e^{-c|j-x|_1} + e^{-c|j-y|_1}) / 2 with the rate c of the
    exponential weights; reports the least margin W(k) - alpha(k) ubar / 2
    over the window (should be >= 0) and W at x, y against ubar / 4.
    """
    info = exponential_weights(u)
    sign = -1.0 if info["sign_flipped"] else 1.0
    c = info["c"]
    x, y = _as_site(x), _as_site(y)

    def alpha(k: Site) -> float:
        return 0.5 * (math.exp(-c * l1_norm(site_sub(k, x)))
                      + math.exp(-c * l1_norm(site_sub(k, y))))

    supp = u.support()
    values = {k: sum(alpha(site_sub(k, t)) * sign * u.value(t) for t in supp) for k in _site_list(window)}
    return {
        "values": values,
        "min_margin": min(w - alpha(k) * info["ubar"] / 2.0 for k, w in values.items()),
        "at_x": values.get(x),
        "at_y": values.get(y),
        "quarter_ubar": info["ubar"] / 4.0,
        **info,
    }
