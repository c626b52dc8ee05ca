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
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import site_stream

__all__ = [
    "Site",
    "BoxGeometry",
    "SingleSitePotential",
    "DisorderDensity",
    "Configuration",
    "ModelConfig",
    "HamiltonianMatrix",
    "build_box",
    "explicit_geometry",
    "interior_boundary",
    "exterior_boundary",
    "lambda_plus",
    "SitePotential",
    "potential_value",
    "assemble_hamiltonian",
    "sample_configuration",
    "connected_components",
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
    descriptor: str = "explicit"

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
        pts = np.array(self.sites)
        n, d = pts.shape
        # the sites, then each site one step up each axis; equal points share an id
        steps = np.concatenate([pts, *(pts + e for e in np.eye(d, dtype=pts.dtype))])
        order = np.lexsort(steps.T)
        first = np.concatenate([[True], np.any(np.diff(steps[order], axis=0) != 0, axis=1)])
        ids = (np.cumsum(first) - 1)[np.argsort(order)]
        index = np.full(ids.max() + 1, -1)
        index[ids[:n]] = np.arange(n)
        ahead = index[ids[n:]]  # the site one step up, or -1
        pairs = np.sort(np.stack([np.tile(np.arange(n), d), ahead], axis=1)[ahead >= 0], axis=1)
        pairs = pairs[np.lexsort(pairs.T[::-1])]
        pairs.flags.writeable = False
        return pairs


def build_box(L: int, center=0, d: int | None = None) -> BoxGeometry:
    """All sites with |k - center|_inf <= L, in lexicographic order."""
    if L < 0:
        raise ValueError("L must be >= 0")
    if d is None:
        center = _as_site(center)
        d = len(center)
    else:
        center = _as_site(center) if not isinstance(center, int) else (center,) * d
        if len(center) != d:
            raise ValueError("center/dimension mismatch")
    ranges = [range(c - L, c + L + 1) for c in center]
    sites = tuple(itertools.product(*ranges))
    return BoxGeometry(sites, descriptor=f"cube(L={L}, center={center})")


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


def connected_components(sites) -> list[set[Site]]:
    """Connected components under l1-adjacency (flood fill)."""
    remaining = _site_set(sites)
    comps = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            x = frontier.pop()
            for y in neighbors(x):
                if y in remaining:
                    remaining.discard(y)
                    comp.add(y)
                    frontier.append(y)
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# single-site potential


@dataclass(frozen=True)
class SingleSitePotential:
    """Profile u: Z^d -> R with finite support or a truncated exponential tail.

    ``support_values`` holds the explicitly stored core.  When ``tail`` is
    present, sites outside the core but within ``truncation_radius`` (l1)
    take the value sign * tail_amplitude * exp(-tail_rate * |k|_1); beyond
    the truncation radius u is treated as zero and ``tail_l1_error`` bounds
    the discarded l1 mass.
    """

    support_values: dict[Site, float]
    tail_amplitude: float | None = None
    tail_rate: float | None = None
    truncation_radius: int = 0
    tail_sign: int = 1

    def __post_init__(self):
        vals = {_as_site(k): float(v) for k, v in self.support_values.items() if v != 0.0}
        if self.tail_amplitude is None and not vals:
            raise ValueError("potential must not be identically zero")
        object.__setattr__(self, "support_values", vals)
        if self.tail_amplitude is not None:
            if self.tail_amplitude <= 0 or self.tail_rate is None or self.tail_rate <= 0:
                raise ValueError("tail requires amplitude > 0 and rate > 0")
            if self.truncation_radius < 1:
                raise ValueError("tail requires a truncation radius >= 1")
            for k, v in vals.items():
                if abs(v) > self.tail_amplitude * math.exp(-self.tail_rate * l1_norm(k)) + 1e-12:
                    raise ValueError(f"stored value at {k} exceeds the exponential envelope")
        if (0,) * self.dimension not in self._effective_support():
            raise ValueError("u must satisfy 0 in supp u (translate the profile)")

    @property
    def dimension(self) -> int:
        if self.support_values:
            return len(next(iter(self.support_values)))
        return 1

    def _effective_support(self) -> set[Site]:
        supp = set(self.support_values)
        if self.tail_amplitude is not None:
            d = self.dimension
            rad = self.truncation_radius
            for k in itertools.product(range(-rad, rad + 1), repeat=d):
                if l1_norm(k) <= rad:
                    supp.add(k)
        return supp

    def support(self) -> tuple[Site, ...]:
        """Effective support Theta (core plus truncated tail), sorted."""
        return tuple(sorted(self._effective_support()))

    def value(self, k) -> float:
        k = _as_site(k)
        if k in self.support_values:
            return self.support_values[k]
        if self.tail_amplitude is not None and l1_norm(k) <= self.truncation_radius:
            return self.tail_sign * self.tail_amplitude * math.exp(-self.tail_rate * l1_norm(k))
        return 0.0

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
    def from_values(values: dict, d: int | None = None) -> "SingleSitePotential":
        vals = {}
        for k, v in values.items():
            k = _as_site(k)
            if d is not None and len(k) != d:
                raise ValueError("site dimension mismatch")
            vals[k] = float(v)
        return SingleSitePotential(vals)

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


def _chain_support(u: SingleSitePotential) -> list[int]:
    """supp u of a one-dimensional profile as sorted offsets, which must start at 0."""
    if u.dimension != 1:
        raise ValueError("one-dimensional potentials only")
    supp = [k[0] for k in u.support()]
    if supp[0] != 0:
        raise ValueError("normalize supp u so that min supp = 0")
    return supp


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
        self.l1 = 1.0
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
        """Inverse CDF by vectorized bisection; deterministic to ~1e-14."""
        q = np.asarray(q, dtype=float)
        lo = np.full(q.shape, self.a)
        hi = np.full(q.shape, self.b)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < q
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    # -- sampling -----------------------------------------------------------

    def sample(self, rng, size=None):
        """Draws by inverse transform from one Generator, or one row per Generator.

        ``rng`` is a Generator, or an iterable of them: row t is then the
        t-th Generator's ``random(size)``, and the whole block goes through
        one density transform.  The transform is elementwise, so every row is
        bit for bit what sampling its Generator alone gives.
        """
        if isinstance(rng, np.random.Generator):
            u = rng.random(size)
        else:
            u = np.array([g.random(size) for g in rng])
        if self.kind == "uniform":
            return self.a + (self.b - self.a) * u
        out = self.quantile(u)
        return float(out) if np.ndim(out) == 0 else out

    def __repr__(self):
        return f"DisorderDensity({self.kind}, [{self.a}, {self.b}])"


# ---------------------------------------------------------------------------
# configurations and Hamiltonians


@dataclass(frozen=True)
class Configuration:
    """Realized couplings omega_k on a finite set of sites."""

    values: dict[Site, float]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", {_as_site(k): float(v) for k, v in self.values.items()})

    def __getitem__(self, site) -> float:
        return self.values[_as_site(site)]

    def __contains__(self, site) -> bool:
        return _as_site(site) in self.values


@dataclass(frozen=True)
class ModelConfig:
    dimension: int
    coupling: float
    potential: SingleSitePotential
    density: DisorderDensity

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.coupling < 0:
            raise ValueError("coupling lambda must be >= 0")
        if self.potential.dimension != self.dimension:
            raise ValueError("potential dimension does not match the model")


@dataclass(frozen=True)
class HamiltonianMatrix:
    geometry: BoxGeometry
    entries: np.ndarray

    def __post_init__(self):
        n = len(self.geometry)
        if self.entries.shape != (n, n):
            raise ValueError("matrix shape does not match geometry")


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
        shifts = np.array(geometry.sites)[None, :, :] - np.array(supp)[:, None, :]
        keys, inverse = np.unique(shifts.reshape(-1, geometry.dimension), axis=0, return_inverse=True)
        self.coupling_sites: tuple[Site, ...] = tuple(map(tuple, keys.tolist()))
        self.positions = inverse.reshape(len(supp), len(geometry))
        self.values = np.array([u.value(t) for t in supp])

    def __call__(self, omega: np.ndarray) -> np.ndarray:
        """V on the sites, for couplings ordered like ``coupling_sites``, or per row of a (trials, couplings) block."""
        V = np.zeros(omega.shape[:-1] + self.positions.shape[1:])
        # term by term in supp-u order, as potential_value adds: np.add.reduce may sum pairwise
        for value, pos in zip(self.values, self.positions):
            V += value * omega[..., pos]
        return V


def potential_value(u: SingleSitePotential, omega: Configuration, x) -> float:
    """V(x) = sum_k omega_k u(x - k), an exact finite sum over supp u."""
    x = _as_site(x)
    total = 0.0
    for t in u.support():
        k = site_sub(x, t)
        if k not in omega:
            raise KeyError(f"configuration missing omega at {k} (needed for V({x}))")
        total += omega[k] * u.value(t)
    return total


def assemble_hamiltonian(model: ModelConfig, omega: Configuration, geometry: BoxGeometry) -> HamiltonianMatrix:
    """H = -Delta_Gamma + lambda V_Gamma as a dense real symmetric matrix."""
    potential = SitePotential(geometry, model.potential)
    omega_vec = np.array([omega.values[k] for k in potential.coupling_sites])  # KeyError names a missing site
    H = -adjacency_matrix(geometry)
    np.fill_diagonal(H, model.coupling * potential(omega_vec))
    return HamiltonianMatrix(geometry, H)


def sample_configuration(model: ModelConfig, sites, seed: int) -> Configuration:
    """One i.i.d. draw per site; a pure function of (seed, site).

    Each site draws from its own ``site_stream``, and all draws go through
    one density transform, which is elementwise, so every value is what
    sampling that site's stream alone gives.
    """
    keys = sorted({_as_site(x) for x in sites})
    draws = model.density.sample([site_stream(seed, s) for s in keys])
    return Configuration(dict(zip(keys, draws.tolist())), seed=seed)


# ---------------------------------------------------------------------------
# config files

_TOP_KEYS = {"dimension", "lambda", "potential", "density", "seed"}
_POT_KEYS = {"support", "tail"}
_TAIL_KEYS = {"C", "alpha", "radius", "sign"}
_DENS_KEYS = {"kind", "params"}
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", list: "a JSON list", dict: "a JSON object"}
_REQUIRED = object()


def _typed(value, kind, path: str, keys: set | None = None, n: int | None = None):
    """A config value of JSON type ``kind``, named by its dotted key ``path``.

    A real (``float``) may be written as a JSON integer; true and false are no
    number.  With ``keys``, an object uses no other keys; with ``n``, a list has n entries.
    """
    number = kind in (int, float)
    if not isinstance(value, (int, float) if kind is float else kind) or (number and isinstance(value, bool)):
        raise ValueError(f"{path} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    if keys is not None and set(value) - keys:
        raise ValueError(f"unknown {path} keys: {sorted(set(value) - keys)}")
    if n is not None and len(value) != n:
        raise ValueError(f"{path} must have {n} entries, got {len(value)}")
    return float(value) if kind is float else value


def _field(section: dict, path: str, kind, default=_REQUIRED, keys: set | None = None):
    """``_typed`` of the value at dotted key ``path`` in ``section``; an optional key missing or null is ``default``."""
    key = path.rsplit(".", 1)[-1]
    if default is not _REQUIRED and section.get(key) is None:
        return default
    if key not in section:
        raise ValueError(f"config missing required key {path!r}")
    return _typed(section[key], kind, path, keys)


def _real_pair(value, path: str) -> list[float]:
    return [_typed(v, float, f"{path}[{i}]") for i, v in enumerate(_typed(value, list, path, n=2))]


def load_model_config(path) -> tuple[ModelConfig, int | None]:
    """Load a model from a JSON config file; returns (model, default seed).

    Keys: dimension, lambda, potential.support = [[site, value], ...],
    potential.tail = {C, alpha, radius, sign}, density = {kind, params}, seed.
    Unknown keys, missing required keys and values of the wrong JSON type or
    length are rejected with an error that names the key path.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}") from err

    _typed(raw, dict, "config", _TOP_KEYS)
    d = _field(raw, "dimension", int)
    lam = _field(raw, "lambda", float)
    pot_raw = _field(raw, "potential", dict, keys=_POT_KEYS)
    dens_raw = _field(raw, "density", dict, keys=_DENS_KEYS)
    seed = _field(raw, "seed", int, default=None)

    support = {}
    for i, entry in enumerate(_field(pot_raw, "potential.support", list, default=[])):
        where = f"potential.support[{i}]"
        site, value = _typed(entry, list, where, n=2)
        site = tuple(_typed(c, int, f"{where}[0]") for c in (site if isinstance(site, list) else [site]))
        if len(site) != d:
            raise ValueError(f"{where}[0] has {len(site)} coordinates in dimension {d}")
        support[site] = _typed(value, float, f"{where}[1]")
    tail_raw = _field(pot_raw, "potential.tail", dict, default=None, keys=_TAIL_KEYS)
    if tail_raw is not None:
        C = _field(tail_raw, "potential.tail.C", float)
        u = SingleSitePotential(support or {(0,) * d: C}, tail_amplitude=C,
                                tail_rate=_field(tail_raw, "potential.tail.alpha", float),
                                truncation_radius=_field(tail_raw, "potential.tail.radius", int),
                                tail_sign=_field(tail_raw, "potential.tail.sign", int, default=1))
    else:
        u = SingleSitePotential(support)

    kind = _field(dens_raw, "density.kind", str)
    params = _field(dens_raw, "density.params", list)
    if kind == "piecewise_linear":
        params = [_real_pair(knot, f"density.params[{i}]") for i, knot in enumerate(params)]
    elif kind in ("uniform", "raised_cosine"):
        params = _real_pair(params, "density.params")
    return ModelConfig(d, lam, u, DisorderDensity(kind, params)), seed
