"""Reflection groups with round-carpet limit sets and their circle orbits.

For integer q > 6 the group is generated by four inversions: in the real
axis, in the line through the origin at angle pi/q, in a circle orthogonal
to the unit circle crossing the real axis at angle pi/3, and in a circle
|z| = r_q crossing the previous one at angle pi/3.  The orbit of the unit
circle under the group accumulates on a round Sierpinski carpet; everything
here works with plain (center, radius) circles and closed-form inversion
images, which is much faster than composing Mobius maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    BudgetExceeded,
    InsufficientRange,
    InvalidQ,
    SupportViolation,
)
from .gasket import PowerLawFit, fit_power_law
from .geom import MobiusMap, invert_circle_in_circle, reflect_circle_in_line

TWO_PI = 2.0 * math.pi

# expansion cutoff as a fraction of the storage cutoff (see enumerate_circles):
# a heuristic checked by cutoff-inclusion tests, not a proven pruning bound
EXPAND_MARGIN = 0.3

# separation_stats examines the pairs with normalized gap below this
SEPARATION_EPS_CAP = 2.0


@dataclass(frozen=True)
class GroupConfig:
    q: int
    t_q: float  # center distance of the orthogonal circle
    s_q: float  # its radius
    r_q: float  # radius of the concentric inversion circle
    residuals: tuple[float, float, float]  # orthogonality, angle(l1,l2), angle(l2,l4)
    angle_residual_alt: float  # third constraint under the opposite sign convention


def solve_params(q: int) -> GroupConfig:
    """Closed-form group parameters, cross-checked by bisection on the residuals.

    Constraints: t^2 = 1 + s^2 (orthogonality to the unit circle),
    t sin(pi/q) = s cos(pi/3) (the circle meets the real axis at pi/3), and
    (1 - r^2) / (2 r s) = cos(pi/3) (it meets |z| = r at pi/3, taking the
    root in (0,1)).  Eliminating s gives t = 1/sqrt(1 - 4 sin^2(pi/q)),
    which needs sin(pi/q) < 1/2, i.e. q > 6.
    """
    if not isinstance(q, int) or q <= 6:
        raise InvalidQ(f"q must be an integer above 6, got {q!r}")
    sq_sin = math.sin(math.pi / q)
    t = 1.0 / math.sqrt(1.0 - 4.0 * sq_sin * sq_sin)
    s = 2.0 * t * sq_sin
    r = 0.5 * (math.sqrt(s * s + 4.0) - s)

    t_bis = _bisect(lambda x: x * x - 1.0 - (2.0 * x * sq_sin) ** 2, 1.0, 1e3)
    r_bis = _bisect(lambda x: x * x + x * s - 1.0, 0.0, 1.0)
    if abs(t_bis - t) > 1e-9 * t or abs(r_bis - r) > 1e-9 * r:
        raise ArithmeticError("closed forms disagree with the bisection solve")

    res = (
        t * t - (1.0 + s * s),
        t * sq_sin - s * math.cos(math.pi / 3.0),
        (1.0 - r * r) / (2.0 * r * s) - math.cos(math.pi / 3.0),
    )
    res_alt = -(1.0 - r * r) / (2.0 * r * s) - math.cos(math.pi / 3.0)
    return GroupConfig(q=q, t_q=t, s_q=s, r_q=r, residuals=res, angle_residual_alt=res_alt)


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def generators(cfg: GroupConfig) -> tuple[MobiusMap, MobiusMap, MobiusMap, MobiusMap]:
    """The four inversions (real axis, orthogonal circle, ray at pi/q, |z|=r_q)."""
    center2 = cfg.t_q * cmath.exp(1j * math.pi / cfg.q)
    return (
        MobiusMap.line_reflection(0j, 0.0),
        MobiusMap.inversion(center2, cfg.s_q),
        MobiusMap.line_reflection(0j, math.pi / cfg.q),
        MobiusMap.inversion(0j, cfg.r_q),
    )


@dataclass
class CircleOrbit:
    """Deduplicated limit-set circles of the orbit, with BFS generations."""

    config: GroupConfig
    min_radius: float
    centers: np.ndarray  # complex array
    radii: np.ndarray
    generations: np.ndarray

    def __len__(self):
        return len(self.radii)

    def curvatures(self) -> np.ndarray:
        return 1.0 / self.radii

    def to_csv(self) -> str:
        lines = ["center_x,center_y,radius,generation"]
        for c, r, g in zip(self.centers, self.radii, self.generations):
            lines.append(f"{c.real:.17g},{c.imag:.17g},{r:.17g},{g}")
        return "\n".join(lines) + "\n"


def _circle_maps(cfg: GroupConfig):
    center2 = cfg.t_q * cmath.exp(1j * math.pi / cfg.q)
    s_q, r_q, q = cfg.s_q, cfg.r_q, cfg.q

    def m1(c, r):
        return reflect_circle_in_line(c, r, 0j, 0.0)

    def m2(c, r):
        return invert_circle_in_circle(c, r, center2, s_q)

    def m3(c, r):
        return reflect_circle_in_line(c, r, 0j, math.pi / q)

    def m4(c, r):
        return invert_circle_in_circle(c, r, 0j, r_q)

    return (m1, m2, m3, m4)


def enumerate_circles(
    cfg: GroupConfig,
    min_radius: float,
    cap: int = 10**7,
) -> CircleOrbit:
    """Breadth-first orbit of the unit circle under the four inversions.

    Circles are deduplicated geometrically on (center, radius) rounded at
    1e-9; circles smaller than the cutoff are not stored, but anything
    above ``EXPAND_MARGIN`` times the cutoff is still expanded so that a
    large image of a small circle is not missed.  Completeness at desk
    scale is checked in the tests by cutoff-inclusion runs.
    """
    if min_radius <= 0.0:
        raise ValueError("min_radius must be positive")
    maps = _circle_maps(cfg)
    expand_radius = EXPAND_MARGIN * min_radius
    tol = 1e-9

    # neighbor-aware geometric hash: a circle reached along two group words
    # drifts by roundoff, and plain key rounding would duplicate it whenever
    # it lands near a bucket boundary; path drift is far below 1e-3 buckets,
    # so a neighbor bucket needs scanning only inside that guard band
    seen: dict[tuple[int, int, int], list[tuple[complex, float]]] = {}
    guard = 2e-3

    def _axis(v):
        q = v / tol
        k = round(q)
        f = q - k
        if f > 0.5 - guard:
            return (k, k + 1)
        if f < guard - 0.5:
            return (k, k - 1)
        return (k,)

    def remember(c, r) -> bool:
        xs, ys, rs = _axis(c.real), _axis(c.imag), _axis(r)
        for nx in xs:
            for ny in ys:
                for nr in rs:
                    for c0, r0 in seen.get((nx, ny, nr), ()):
                        if abs(c - c0) <= tol and abs(r - r0) <= tol:
                            return False
        seen.setdefault((xs[0], ys[0], rs[0]), []).append((c, r))
        return True

    remember(0j, 1.0)
    stored: list[tuple[complex, float, int]] = []
    frontier = [(0j, 1.0)]
    generation = 0
    while frontier:
        generation += 1
        nxt = []
        for c, r in frontier:
            for mp in maps:
                c2, r2 = mp(c, r)
                if not remember(c2, r2):
                    continue
                if r2 >= min_radius:
                    stored.append((c2, r2, generation))
                    if len(stored) > cap:
                        raise BudgetExceeded(f"orbit exceeded {cap} circles")
                if r2 >= expand_radius:
                    nxt.append((c2, r2))
        frontier = nxt

    stored.sort(key=lambda t: (-t[1], t[0].real, t[0].imag))
    centers = np.array([c for c, _, _ in stored], dtype=complex)
    radii = np.array([r for _, r, _ in stored])
    gens = np.array([g for _, _, g in stored], dtype=int)
    return CircleOrbit(
        config=cfg, min_radius=min_radius, centers=centers, radii=radii, generations=gens
    )


def separation_stats(o: CircleOrbit):
    """Smallest gap/min(radius) over stored circle pairs, via a KD-tree.

    A pair with normalized gap below ``SEPARATION_EPS_CAP`` has center
    distance at most (2 + SEPARATION_EPS_CAP) times the larger radius, so
    querying each circle's ball of that size against all not-larger circles
    sees every candidate pair.
    """
    n = len(o)
    if n < 2:
        raise ValueError("need at least two circles")
    pts = np.column_stack([o.centers.real, o.centers.imag])
    tree = cKDTree(pts)
    eps_best = math.inf
    pairs = 0
    radii = o.radii
    for i in range(n):
        r_i = radii[i]
        idx = tree.query_ball_point(pts[i], (2.0 + SEPARATION_EPS_CAP) * r_i)
        idx = [j for j in idx if j != i and (radii[j] < r_i or (radii[j] == r_i and j > i))]
        if not idx:
            continue
        idx = np.asarray(idx)
        d = np.hypot(pts[idx, 0] - pts[i, 0], pts[idx, 1] - pts[i, 1])
        gap = d - r_i - radii[idx]
        eps_vals = gap / np.minimum(r_i, radii[idx])
        pairs += len(idx)
        m = float(eps_vals.min())
        if m < eps_best:
            eps_best = m
    return eps_best, pairs


def fit_carpet_dimension(o: CircleOrbit, expect_in=(1.0, 2.0)) -> PowerLawFit:
    """Power-law exponent of the circle count over the top curvature decade."""
    if len(o) < 1000:
        raise InsufficientRange("need at least 1000 circles")
    curv = np.sort(o.curvatures())
    lam_hi = 1.0 / o.min_radius
    lam_lo = lam_hi / 10.0
    grid = np.exp(np.linspace(math.log(lam_lo), math.log(lam_hi), 24))
    counts = np.searchsorted(curv, grid, side="right")
    fit = fit_power_law(list(zip(grid.tolist(), counts.tolist())), keep_from=0)
    if expect_in is not None and not (expect_in[0] < fit.slope < expect_in[1]):
        raise InsufficientRange(
            f"fitted dimension {fit.slope:.4f} outside {expect_in}"
        )
    return fit


# ---------------------------------------------------------------------------
# the harmonicity residual


class RadialBump:
    """Smooth bump A exp(1 - 1/(1 - |z - z0|^2 / R^2)) supported on |z-z0| < R."""

    def __init__(self, center, radius, amplitude: float = 1.0):
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.amplitude = float(amplitude)

    def support_in_unit_disk(self, margin: float = 1e-9) -> bool:
        cx, cy = self.center
        return math.hypot(cx, cy) + self.radius < 1.0 - margin

    def __call__(self, x, y):
        s2 = ((x - self.center[0]) ** 2 + (y - self.center[1]) ** 2) / self.radius**2
        out = np.zeros_like(np.asarray(s2, dtype=float))
        inside = s2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    def gradient(self, x, y):
        dx = x - self.center[0]
        dy = y - self.center[1]
        s2 = (dx * dx + dy * dy) / self.radius**2
        gx = np.zeros_like(np.asarray(x, dtype=float))
        gy = np.zeros_like(gx)
        inside = s2 < 1.0
        one_m = 1.0 - s2[inside]
        f = self.amplitude * np.exp(1.0 - 1.0 / one_m)
        pref = -2.0 * f / (one_m * one_m * self.radius**2)
        gx[inside] = pref * dx[inside]
        gy[inside] = pref * dy[inside]
        return gx, gy


def harmonicity_contributions(
    o: CircleOrbit, v, refine: int = 256, coordinate: int = 1
) -> np.ndarray:
    """Per-circle arc integrals of <grad_C h_i, grad_C v> rad dH^1."""
    if not isinstance(v, RadialBump):
        raise TypeError("test function must be a RadialBump")
    if not v.support_in_unit_disk():
        raise SupportViolation("bump support must be strictly inside the unit disk")
    if coordinate not in (1, 2):
        raise ValueError("coordinate must be 1 or 2")

    th = TWO_PI * np.arange(refine) / refine
    cosv, sinv = np.cos(th), np.sin(th)
    out = np.empty(len(o))
    for k, (c, r) in enumerate(zip(o.centers, o.radii)):
        x = c.real + r * cosv
        y = c.imag + r * sinv
        gx, gy = v.gradient(x, y)
        # d/dtheta of v along the circle, periodic trapezoid rule
        dv = r * (-sinv * gx + cosv * gy)
        du = -r * sinv if coordinate == 1 else r * cosv
        out[k] = float(np.sum(du * dv)) * (TWO_PI / refine)
    return out


def harmonicity_residual(
    o: CircleOrbit, v, refine: int = 256, coordinate: int = 1
) -> float:
    """Energy pairing of a coordinate function with a test function.

    The pairing against the full infinite circle family vanishes, so the
    truncated sum is a residual that must decay as the cutoff shrinks.
    """
    return float(harmonicity_contributions(o, v, refine, coordinate).sum())


def circle_pairing_gauss_green(c: complex, r: float, v, refine: int = 4096) -> float:
    """Independent per-circle value: rad * integral of v * n_x dtheta."""
    th = TWO_PI * np.arange(refine) / refine
    x = c.real + r * np.cos(th)
    y = c.imag + r * np.sin(th)
    vals = v(x, y)
    return float(r * np.sum(vals * np.cos(th)) * (TWO_PI / refine))
