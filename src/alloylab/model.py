"""Lattice geometry, single-site potentials, disorder densities and Hamiltonians.

The operator under study is H = -Delta + lambda * V on a finite subset of Z^d,
where Delta is the discrete hopping Laplacian without its diagonal part and
V(x) = sum_k omega_k u(x - k) couples i.i.d. random variables omega_k through
a fixed profile u.  Hamiltonians are assembled as dense matrices: boxes stay
at desk scale (a few thousand sites), where dense solves and eigensolves are
simple and exactly reproducible.  Only the Monte Carlo trials in ``moments``
solve for a Green column in band storage instead.  A geometry knows its
lattice facts once: ``rows`` maps a site set to its indices, and the cached
``bonds`` lists the hopping pairs that the dense and banded layouts scatter.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import site_stream

__all__ = [
    "Site",
    "BoxGeometry",
    "SingleSitePotential",
    "DisorderDensity",
    "ModelConfig",
    "build_box",
    "explicit_geometry",
    "interior_boundary",
    "exterior_boundary",
    "lambda_plus",
    "SitePotential",
    "assemble_hamiltonian",
    "sample_configuration",
    "load_model_config",
]

Site = tuple[int, ...]


def _as_site(x) -> Site:
    if isinstance(x, int):
        return (x,)
    return tuple(map(int, x))


def l1_norm(x: Site) -> int:
    return sum(abs(c) for c in x)


def linf_norm(x: Site) -> int:
    return max(abs(c) for c in x)


def site_add(a: Site, b: Site) -> Site:
    return tuple(x + y for x, y in zip(a, b))


def site_sub(a: Site, b: Site) -> Site:
    return tuple(x - y for x, y in zip(a, b))


def neighbors(x: Site) -> list[Site]:
    """The 2d sites at l1-distance one."""
    out = []
    for i in range(len(x)):
        for step in (-1, 1):
            y = list(x)
            y[i] += step
            out.append(tuple(y))
    return out


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class BoxGeometry:
    """An ordered finite subset of Z^d with site <-> index maps.

    Sites are kept in lexicographic order so that matrix layouts, random
    draws and CSV outputs are reproducible across runs.
    """

    sites: tuple[Site, ...]

    def __post_init__(self):
        if not self.sites:
            raise ValueError("geometry must contain at least one site")
        d = len(self.sites[0])
        if any(len(s) != d for s in self.sites):
            raise ValueError("all sites must share one dimension")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites in geometry")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.sites)})

    @property
    def dimension(self) -> int:
        return len(self.sites[0])

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, site) -> bool:
        return _as_site(site) in self._index

    def index_of(self, site) -> int:
        return self._index[_as_site(site)]

    def site_set(self) -> frozenset[Site]:
        return frozenset(self.sites)

    def rows(self, sites) -> np.ndarray:
        """Indices of the given sites in this geometry's order; raises on a site outside it."""
        keep = _site_set(sites)
        if not keep <= self._index.keys():
            raise ValueError(f"sites not in geometry: {sorted(keep - self._index.keys())[:4]}")
        return np.array(sorted(self._index[s] for s in keep), dtype=np.intp)

    def subset(self, sites) -> "BoxGeometry":
        """Sub-geometry on the given sites (kept in this geometry's order)."""
        return BoxGeometry(tuple(self.sites[i] for i in self.rows(sites)))

    @cached_property
    def bonds(self) -> np.ndarray:
        """The l1-adjacent index pairs (i, j), i < j, as a read-only (bonds, 2) array in lexicographic order."""
        pairs = []
        for i, site in enumerate(self.sites):
            for axis in range(len(site)):
                j = self._index.get(site[:axis] + (site[axis] + 1,) + site[axis + 1:])
                if j is not None:
                    pairs.append((min(i, j), max(i, j)))
        out = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)
        out.flags.writeable = False
        return out


def build_box(L: int, center=0) -> BoxGeometry:
    """All sites with |k - center|_inf <= L, in lexicographic order."""
    if L < 0:
        raise ValueError("L must be >= 0")
    center = _as_site(center)
    ranges = [range(c - L, c + L + 1) for c in center]
    sites = tuple(itertools.product(*ranges))
    return BoxGeometry(sites)


def explicit_geometry(sites) -> BoxGeometry:
    """Geometry on an explicit site set, sorted lexicographically."""
    return BoxGeometry(tuple(sorted({_as_site(s) for s in sites})))


def _site_list(sites) -> list[Site]:
    """A BoxGeometry, or an iterable of ints, lists or tuples, as a list of site tuples in the given order."""
    return [_as_site(s) for s in (sites.sites if isinstance(sites, BoxGeometry) else sites)]


def _site_set(sites) -> set[Site]:
    return set(_site_list(sites))


def interior_boundary(sites) -> set[Site]:
    """Sites of the set with fewer than 2d neighbors inside the set."""
    pts = _site_set(sites)
    if not pts:
        raise ValueError("empty site set")
    d = len(next(iter(pts)))
    return {x for x in pts if sum(1 for y in neighbors(x) if y in pts) < 2 * d}


def exterior_boundary(sites) -> set[Site]:
    """Sites outside the set that are l1-adjacent to it."""
    pts = _site_set(sites)
    if not pts:
        raise ValueError("empty site set")
    return {y for x in pts for y in neighbors(x)} - pts


# ---------------------------------------------------------------------------
# single-site potential


@dataclass(frozen=True)
class SingleSitePotential:
    """Profile u: Z^d -> R with finite support or a truncated exponential tail.

    ``support_values`` holds the explicitly stored core, zeros included, on
    sites of one dimension.  When ``tail`` is present, sites outside the core
    but within ``truncation_radius`` (l1) take the value
    sign * tail_amplitude * exp(-tail_rate * |k|_1), sign = +-1; a stored 0.0
    stays 0 and out of the support.  Beyond the truncation radius u is
    treated as zero and ``tail_l1_error`` bounds the discarded l1 mass.  u is
    tabulated once on its effective support.
    """

    support_values: dict[Site, float]
    tail_amplitude: float | None = None
    tail_rate: float | None = None
    truncation_radius: int = 0
    tail_sign: int = 1

    def __post_init__(self):
        stored = {_as_site(k): float(v) for k, v in self.support_values.items()}
        vals = {k: v for k, v in stored.items() if v != 0.0}
        if self.tail_amplitude is None and not vals:
            raise ValueError("potential must not be identically zero")
        if not stored:
            raise ValueError("a tail needs at least one stored site to fix the dimension")
        if len({len(k) for k in stored}) != 1:
            raise ValueError("all stored sites must share one dimension")
        object.__setattr__(self, "support_values", stored)
        if self.tail_sign not in (1, -1):
            raise ValueError(f"tail sign must be 1 or -1, got {self.tail_sign!r}")
        table = dict(vals)
        if self.tail_amplitude is not None:
            if self.tail_amplitude <= 0 or self.tail_rate is None or self.tail_rate <= 0:
                raise ValueError("tail requires amplitude > 0 and rate > 0")
            if self.truncation_radius < 1:
                raise ValueError("tail requires a truncation radius >= 1")
            for k, v in vals.items():
                if abs(v) > self.tail_amplitude * math.exp(-self.tail_rate * l1_norm(k)) + 1e-12:
                    raise ValueError(f"stored value at {k} exceeds the exponential envelope")
            rad = self.truncation_radius
            for k in itertools.product(range(-rad, rad + 1), repeat=self.dimension):
                if l1_norm(k) <= rad and k not in stored:
                    table[k] = self.tail_sign * self.tail_amplitude * math.exp(-self.tail_rate * l1_norm(k))
        if (0,) * self.dimension not in table:
            raise ValueError("u must satisfy 0 in supp u (translate the profile)")
        # {site: u(site)} in sorted site order; not a field, so equality and repr see only the fields
        object.__setattr__(self, "_table", dict(sorted(table.items())))

    @property
    def dimension(self) -> int:
        return len(next(iter(self.support_values)))

    def support(self) -> tuple[Site, ...]:
        """Effective support Theta (core plus truncated tail), sorted."""
        return tuple(self._table)

    def value(self, k) -> float:
        return self._table.get(_as_site(k), 0.0)

    def tail_l1_error(self) -> float:
        """Upper bound on the l1 mass discarded by truncating the tail."""
        return _tail_sum(self, 0)

    def diameter_linf(self) -> int:
        supp = self.support()
        return max(linf_norm(site_sub(a, b)) for a in supp for b in supp)

    def diameter_l1(self) -> int:
        supp = self.support()
        return max(l1_norm(site_sub(a, b)) for a in supp for b in supp)

    def total(self) -> float:
        """The sum of u over its effective support (symbolically: u-bar)."""
        return sum(self.value(k) for k in self.support())

    def l1(self) -> float:
        return sum(abs(self.value(k)) for k in self.support())

    @staticmethod
    def delta(d: int = 1, value: float = 1.0) -> "SingleSitePotential":
        return SingleSitePotential({(0,) * d: value})

    @staticmethod
    def from_values(values: dict) -> "SingleSitePotential":
        return SingleSitePotential(values)

    @staticmethod
    def exponential(rate: float, truncation_radius: int, d: int = 1,
                    amplitude: float = 1.0, sign: int = 1) -> "SingleSitePotential":
        """u(k) = sign * amplitude * exp(-rate * |k|_1), truncated."""
        return SingleSitePotential({(0,) * d: sign * amplitude}, tail_amplitude=amplitude,
                                   tail_rate=rate, truncation_radius=truncation_radius,
                                   tail_sign=sign)


def _l1_sphere_count(d: int, m: int) -> int:
    """Number of sites in Z^d with |k|_1 = m."""
    if m == 0:
        return 1
    total = 0
    for j in range(1, min(d, m) + 1):  # j = number of nonzero coordinates
        total += math.comb(d, j) * (2 ** j) * math.comb(m - 1, j - 1)
    return total


def _tail_sum(u: SingleSitePotential, degree: int) -> float:
    """sum over |k|_1 > truncation radius of |tail(k)| (|k|_1 + degree)^degree.

    Bounds the l1 mass (degree 0) and the degree-th derivative mass that the
    truncation drops; the series runs until its terms stop mattering.
    """
    if u.tail_amplitude is None:
        return 0.0
    total = 0.0
    m = u.truncation_radius + 1
    while True:
        term = (_l1_sphere_count(u.dimension, m) * u.tail_amplitude * math.exp(-u.tail_rate * m)
                * float(m + degree) ** degree)
        total += term
        if term < 1e-300 or term < 1e-16 * total:
            return total
        m += 1


def _chain_values(u: SingleSitePotential) -> list[float]:
    """[u(0), ..., u(n-1)] of a one-dimensional profile with min supp u = 0 and max supp u = n - 1 (0.0 in gaps)."""
    if u.dimension != 1:
        raise ValueError("one-dimensional potentials only")
    supp = u.support()
    if supp[0] != (0,):
        raise ValueError("normalize supp u so that min supp = 0")
    return [u.value((k,)) for k in range(supp[-1][0] + 1)]


# ---------------------------------------------------------------------------
# disorder density


class DisorderDensity:
    """Compactly supported probability density with norms and a sampler.

    Supported kinds: ``uniform(a, b)``, ``raised_cosine(a, b)`` and
    ``piecewise_linear(knots)``.  Atomic (discrete) disorder is rejected at
    construction; every bound evaluated by this package needs a density.
    """

    def __init__(self, kind: str, params):
        self.kind = kind
        if kind == "uniform":
            a, b = map(float, params)
            if not b > a:
                raise ValueError("uniform(a,b) needs b > a")
            self.a, self.b = a, b
            self.linf = 1.0 / (b - a)
            self.total_variation = 2.0 / (b - a)
            self.deriv_l1 = None  # not W^{1,1}
        elif kind == "raised_cosine":
            a, b = map(float, params)
            if not b > a:
                raise ValueError("raised_cosine(a,b) needs b > a")
            self.a, self.b = a, b
            self.linf = 2.0 / (b - a)
            self.deriv_l1 = 4.0 / (b - a)
            self.total_variation = self.deriv_l1
        elif kind == "piecewise_linear":
            knots = [(float(t), float(y)) for t, y in params]
            if len(knots) < 2:
                raise ValueError("piecewise_linear needs at least two knots")
            ts = [t for t, _ in knots]
            ys = [y for _, y in knots]
            if sorted(ts) != ts or len(set(ts)) != len(ts):
                raise ValueError("knot abscissae must be strictly increasing")
            if min(ys) < 0:
                raise ValueError("density values must be nonnegative")
            mass = sum((ys[i] + ys[i + 1]) / 2 * (ts[i + 1] - ts[i]) for i in range(len(ts) - 1))
            if mass <= 0:
                raise ValueError("density must have positive mass")
            ys = [y / mass for y in ys]
            self._ts, self._ys = ts, ys
            self.knots_t = np.array(ts)
            self.knots_y = np.array(ys)
            self._rise, self._run = np.diff(self.knots_y), np.diff(self.knots_t)
            seg = (self.knots_y[:-1] + self.knots_y[1:]) / 2 * self._run
            self._knot_mass = np.concatenate([[0.0], np.cumsum(seg)])
            self.a, self.b = ts[0], ts[-1]
            self.linf = max(ys)
            jumps = abs(ys[0]) + abs(ys[-1])  # jumps onto/off the support
            slopes_tv = sum(abs(ys[i + 1] - ys[i]) for i in range(len(ys) - 1))
            self.total_variation = slopes_tv + jumps
            self.deriv_l1 = slopes_tv if ys[0] == 0.0 and ys[-1] == 0.0 else None
        elif kind == "discrete":
            raise ValueError("atomic disorder measures are not supported; use a density")
        else:
            raise ValueError(f"unknown density kind {kind!r}")
        # interior abscissae where rho has a kink, for quadrature to split at
        self.breakpoints = self._ts[1:-1] if kind == "piecewise_linear" else []
        self.support_radius = max(abs(self.a), abs(self.b))

    # -- evaluation ---------------------------------------------------------

    def pdf(self, t: float) -> float:
        """rho at one abscissa, 0 outside [a, b]."""
        a, b = self.a, self.b
        if not a <= t <= b:
            return 0.0
        if self.kind == "uniform":
            return 1.0 / (b - a)
        if self.kind == "raised_cosine":
            return (1.0 - math.cos(2 * math.pi * ((t - a) / (b - a)))) / (b - a)
        i = min(bisect.bisect_right(self._ts, t), len(self._ts) - 1)  # rho(b) is the last knot value
        t0, t1, y0, y1 = self._ts[i - 1], self._ts[i], self._ys[i - 1], self._ys[i]
        return (y1 - y0) / (t1 - t0) * (t - t0) + y0 if t < t1 else y1

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "uniform":
            return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)
        if self.kind == "raised_cosine":
            x = np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)
            return x - np.sin(2 * np.pi * x) / (2 * np.pi)
        ts = self.knots_t
        tc = np.minimum(np.maximum(t, self.a), self.b)
        idx = np.minimum(np.searchsorted(ts, tc, side="right") - 1, len(ts) - 2)  # >= 0, as tc >= ts[0]
        y0 = self.knots_y[idx]
        dt = tc - ts[idx]
        y_t = y0 + self._rise[idx] * dt / self._run[idx]
        return np.minimum(np.maximum(self._knot_mass[idx] + (y0 + y_t) / 2 * dt, 0.0), 1.0)

    def quantile(self, q):
        """The generalised inverse inf{t : F(t) >= q}, elementwise over an array of q in [0, 1].

        Uniform and piecewise linear are closed forms: ``a + (b - a) q``, and
        on the segment whose knot masses bracket q the stable root of one
        quadratic.  A q at a knot mass lands on the left end of any
        zero-density plateau after it, and a q above the rounded total mass
        on b.  The raised cosine, whose cdf x - sin(2 pi x) / 2 pi has no
        closed inverse, takes a 64-step bisection of [a, b] (about 1e-14 from
        the root), every step over every element.
        """
        q = np.asarray(q, dtype=float)
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * q
        if self.kind == "piecewise_linear":
            return self._linear_quantile(q)
        return self._bisect(q)

    def _linear_quantile(self, q):
        # side="left": a q equal to a knot mass stays on the segment below it,
        # so it ends at the knot, not past the zero-density plateau that follows
        k = np.clip(np.searchsorted(self._knot_mass, q, side="left") - 1, 0, len(self._run) - 1)
        c = q - self._knot_mass[k]
        y0, run = self.knots_y[k], self._run[k]
        slope = self._rise[k] / run
        # M_k + y0 dt + slope dt^2 / 2 = q, by the root without cancellation
        root = np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.where(c > 0.0, 2.0 * c / (y0 + root), 0.0)
        return np.where(dt < run, self.knots_t[k] + dt, self.knots_t[k + 1])

    def _bisect(self, q):
        """64 bisection steps, each halving every bracket: lo takes mid where F(mid) < q, else hi does.

        The two branches are one int64 bit-mask select on the float bits, as
        np.where(below, mid, lo) and np.where(below, hi, mid) would give.
        """
        lo = np.full(q.shape, self.a)
        hi = np.full(q.shape, self.b)
        mid = np.empty(q.shape)
        mask = np.empty(q.shape, dtype=np.int64)
        flip = np.empty(q.shape, dtype=np.int64)
        lo_bits, hi_bits, mid_bits = lo.view(np.int64), hi.view(np.int64), mid.view(np.int64)
        for _ in range(64):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            np.negative(self.cdf(mid) < q, out=mask, dtype=np.int64, casting="unsafe")  # -1: all 64 bits set
            np.bitwise_xor(lo_bits, mid_bits, out=flip)
            flip &= mask
            lo_bits ^= flip
            np.bitwise_xor(hi_bits, mid_bits, out=flip)
            flip &= mask
            np.bitwise_xor(mid_bits, flip, out=hi_bits)
        return 0.5 * (lo + hi)

    # -- sampling -----------------------------------------------------------

    def sample(self, u):
        """The draws for an array of uniforms in [0, 1): ``quantile(u)``, the inverse transform, elementwise."""
        return self.quantile(u)

    def __repr__(self):
        return f"DisorderDensity({self.kind}, [{self.a}, {self.b}])"


# ---------------------------------------------------------------------------
# configurations and Hamiltonians


@dataclass(frozen=True)
class ModelConfig:
    dimension: int
    coupling: float
    potential: SingleSitePotential
    density: DisorderDensity

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not self.coupling >= 0:  # NaN fails too
            raise ValueError("coupling lambda must be >= 0")
        if self.potential.dimension != self.dimension:
            raise ValueError("potential dimension does not match the model")


def adjacency_matrix(geometry: BoxGeometry) -> np.ndarray:
    """0/1 matrix of l1-adjacent in-set pairs (the hopping pattern), scattered from ``geometry.bonds``."""
    A = np.zeros((len(geometry), len(geometry)))
    i, j = geometry.bonds.T
    A[i, j] = A[j, i] = 1.0
    return A


def lambda_plus(geometry, u: SingleSitePotential) -> set[Site]:
    """Sites whose coupling influences the potential inside the geometry.

    omega_k enters V(x) exactly when u(x - k) != 0, so the influencing set
    is { x - t : x in the geometry, t in supp u }.
    """
    supp = u.support()
    return {site_sub(x, t) for x in _site_set(geometry) for t in supp}


class SitePotential:
    """V(x) = sum_k omega_k u(x - k) on a geometry, as a map of the couplings.

    ``coupling_sites`` is lambda_plus(geometry, u), sorted; a coupling vector
    lists omega_k in that order.  ``positions[j, i]`` is the position of
    x_i - t_j in ``coupling_sites`` for the j-th site t_j of the sorted supp u,
    and ``values[j] = u(t_j)``.
    """

    def __init__(self, geometry: BoxGeometry, u: SingleSitePotential):
        supp = u.support()
        shifts = (np.array(geometry.sites)[None, :, :] - np.array(supp)[:, None, :]).reshape(-1, geometry.dimension)
        # the sorted distinct rows and each row's rank among them, as np.unique(axis=0, return_inverse=True)
        # gives them, from one lexsort (last key first) and a flag on the first row of each run; the columns
        # are compared as they are, since one combined int64 key per row overflows for sites far apart
        order = np.lexsort(shifts.T[::-1])
        ordered = shifts[order]
        first = np.ones(len(ordered), dtype=bool)
        first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        self.coupling_sites: tuple[Site, ...] = tuple(map(tuple, ordered[first].tolist()))
        self.positions = inverse.reshape(len(supp), len(geometry))
        self.values = np.array([u.value(t) for t in supp])

    def __call__(self, omega: np.ndarray) -> np.ndarray:
        """V on the sites, for couplings ordered like ``coupling_sites``, or per row of a (trials, couplings) block."""
        V = np.zeros(omega.shape[:-1] + self.positions.shape[1:])
        # term by term in supp-u order, as the exact sum over supp u adds: np.add.reduce may sum pairwise
        for value, pos in zip(self.values, self.positions):
            V += value * omega[..., pos]
        return V


def assemble_hamiltonian(model: ModelConfig, omega: dict[Site, float], geometry: BoxGeometry) -> np.ndarray:
    """H = -Delta_Gamma + lambda V_Gamma as a dense real symmetric (n, n) matrix in the geometry's site order."""
    potential = SitePotential(geometry, model.potential)
    omega_vec = np.array([omega[k] for k in potential.coupling_sites])  # KeyError names a missing site
    H = -adjacency_matrix(geometry)
    np.fill_diagonal(H, model.coupling * potential(omega_vec))
    return H


def sample_configuration(model: ModelConfig, sites, seed: int) -> dict[Site, float]:
    """One i.i.d. draw per site, as {site: omega_site} in sorted site order; a pure function of (seed, site).

    Each site takes one uniform from its own ``site_stream``, and all of them
    go through one density transform, which is elementwise, so every value is
    what transforming that site's uniform alone gives.  No subcommand draws
    this way: they take a realisation as one ``DisorderSampler.omega`` row,
    and site-keyed draws are the tests' oracle.
    """
    keys = sorted({_as_site(x) for x in sites})
    draws = model.density.sample(np.array([site_stream(seed, s).random() for s in keys]))
    return dict(zip(keys, draws.tolist()))


# ---------------------------------------------------------------------------
# config files

_REQUIRED = object()
# every config key as key: (JSON type, default); the type of a section's key is the section's
# own table, and _REQUIRED marks a key that has no default
_SCHEMA = {
    "dimension": (int, _REQUIRED),
    "lambda": (float, _REQUIRED),
    "potential": ({"support": (list, ()), "tail": ({"C": (float, _REQUIRED), "alpha": (float, _REQUIRED),
                                                    "radius": (int, _REQUIRED), "sign": (int, 1)}, None)}, _REQUIRED),
    "density": ({"kind": (str, _REQUIRED), "params": (list, _REQUIRED)}, _REQUIRED),
    "seed": (int, None),
}
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a JSON list", dict: "a JSON object"}


def _typed(value, kind, path: str = "", n: int | None = None):
    """A config value of JSON type ``kind``, named by its dotted key ``path`` (empty for the whole config).

    A real (``float``) may be written as a JSON integer and must be finite (json
    reads NaN, Infinity and integers past every float); true and false are no
    number.  With ``n``, a list has n entries.  A section table as ``kind``
    takes a JSON object with no other keys, and gives each of its keys the
    checked value, or the key's default when the value is missing or null.
    """
    table, kind = (kind, dict) if isinstance(kind, dict) else (None, kind)
    number = kind in (int, float)
    if not isinstance(value, (int, float) if kind is float else kind) or (number and isinstance(value, bool)):
        raise ValueError(f"{path or 'config'} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    if n is not None and len(value) != n:
        raise ValueError(f"{path} must have {n} entries, got {len(value)}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, +-Infinity or an integer past every float
        raise ValueError(f"{path} must be finite")
    if table is None:
        return float(value) if kind is float else value
    if not table.keys() >= value.keys():
        raise ValueError(f"unknown {path or 'config'} keys: {sorted(value.keys() - table.keys())}")
    section = {}
    for key, (sub, default) in table.items():
        where = f"{path}.{key}" if path else key
        if key not in value and default is _REQUIRED:
            raise ValueError(f"config missing required key {where!r}")
        optional_and_unset = default is not _REQUIRED and value.get(key) is None
        section[key] = default if optional_and_unset else _typed(value[key], sub, where)
    return section


def _real_pair(value, path: str) -> list[float]:
    return [_typed(v, float, f"{path}[{i}]") for i, v in enumerate(_typed(value, list, path, n=2))]


@contextlib.contextmanager
def _section(name: str):
    """Prefix a range error of a section's constructor with the section name, as in ``density: ...``."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from err


def load_model_config(path) -> tuple[ModelConfig, int | None]:
    """Load a model from a JSON config file, with the keys of ``_SCHEMA``; returns (model, default seed).

    potential.support is [[site, value], ...].  Unknown keys, missing required
    keys and values of the wrong JSON type or length are rejected with an
    error that names the key path.  A range error of the potential or density
    constructor is raised again with its section's name in front.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}") from err

    cfg = _typed(raw, _SCHEMA)
    d, pot, dens = cfg["dimension"], cfg["potential"], cfg["density"]
    support = {}
    for i, entry in enumerate(pot["support"]):
        where = f"potential.support[{i}]"
        site, value = _typed(entry, list, where, n=2)
        site = tuple(_typed(c, int, f"{where}[0]") for c in (site if isinstance(site, list) else [site]))
        if len(site) != d:
            raise ValueError(f"{where}[0] has {len(site)} coordinates in dimension {d}")
        support[site] = _typed(value, float, f"{where}[1]")
    tail = pot["tail"]
    with _section("potential"):
        if tail is not None:
            u = SingleSitePotential(support or {(0,) * d: tail["C"]}, tail_amplitude=tail["C"],
                                    tail_rate=tail["alpha"], truncation_radius=tail["radius"], tail_sign=tail["sign"])
        else:
            u = SingleSitePotential(support)

    kind, params = dens["kind"], dens["params"]
    if kind == "piecewise_linear":
        params = [_real_pair(knot, f"density.params[{i}]") for i, knot in enumerate(params)]
    elif kind in ("uniform", "raised_cosine"):
        params = _real_pair(params, "density.params")
    with _section("density"):
        density = DisorderDensity(kind, params)
    return ModelConfig(d, cfg["lambda"], u, density), cfg["seed"]
