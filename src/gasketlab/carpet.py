"""Reflection groups with round-carpet limit sets and their circle orbits.

For integer q > 6 the group is generated by four inversions: in the real
axis, in the line through the origin at angle pi/q, in a circle orthogonal
to the unit circle crossing the real axis at angle pi/3, and in a circle
|z| = r_q crossing the previous one at angle pi/3.  The orbit of the unit
circle under the group accumulates on a round Sierpinski carpet; everything
here works with plain (center, radius) circles and their closed-form images.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    InsufficientRange,
    InvalidQ,
    SupportViolation,
)
from .gasket import PowerLawFit, fit_power_law
from .geom import invert_circle_in_circle, reflect_circle_in_line

TWO_PI = 2.0 * math.pi

# separation_stats examines the pairs with normalized gap below this
SEPARATION_EPS_CAP = 2.0

# sample points per block of circles in harmonicity_contributions: the
# fastest of 1 << 11 ... 1 << 17 on the q=8, r_min=1e-3 orbit (BENCH_17.json);
# each row is summed on its own, so the block size cannot change a bit
_HARMONICITY_CHUNK = 1 << 13


@dataclass(frozen=True)
class GroupConfig:
    q: int
    t_q: float  # center distance of the orthogonal circle
    s_q: float  # its radius
    r_q: float  # radius of the concentric inversion circle
    residuals: tuple[float, float, float]  # orthogonality, angle(l1,l2), angle(l2,l4)


def solve_params(q: int) -> GroupConfig:
    """Closed-form group parameters, cross-checked by bisection on the residuals.

    Constraints: t^2 = 1 + s^2 (orthogonality to the unit circle),
    t sin(pi/q) = s cos(pi/3) (the circle meets the real axis at pi/3), and
    (1 - r^2) / (2 r s) = cos(pi/3) (it meets |z| = r at pi/3, taking the
    root in (0,1)).  Eliminating s gives t = 1/sqrt(1 - 4 sin^2(pi/q)),
    which needs sin(pi/q) < 1/2, i.e. q > 6.  ``q`` is a Python or numpy
    integer, not a bool.
    """
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q <= 6:
        raise InvalidQ(f"q must be an integer above 6, got {q!r}")
    q = int(q)
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
    return GroupConfig(q=q, t_q=t, s_q=s, r_q=r, residuals=res)


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


def generators(cfg: GroupConfig):
    """The four inversions (real axis, orthogonal circle, ray at pi/q, |z|=r_q).

    Each is a circle map (c, r) -> (c', r') on a complex center and a radius,
    or on arrays of them, and this tuple is the one definition of the group.
    The maps look up ``reflect_circle_in_line`` and ``invert_circle_in_circle``
    in this module when called.
    """
    center2 = cfg.t_q * cmath.exp(1j * math.pi / cfg.q)
    return (
        lambda c, r: reflect_circle_in_line(c, r, 0j, 0.0),
        lambda c, r: invert_circle_in_circle(c, r, center2, cfg.s_q),
        lambda c, r: reflect_circle_in_line(c, r, 0j, math.pi / cfg.q),
        lambda c, r: invert_circle_in_circle(c, r, 0j, cfg.r_q),
    )


@dataclass
class CircleOrbit:
    """Limit-set circles of the orbit, each stored once, with BFS generations."""

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
        cols = (self.centers.real.tolist(), self.centers.imag.tolist(),
                self.radii.tolist(), self.generations.tolist())
        lines = ["center_x,center_y,radius,generation"]
        lines += [f"{x:.17g},{y:.17g},{r:.17g},{g}" for x, y, r, g in zip(*cols)]
        return "\n".join(lines) + "\n"


def _past_mirrors(cfg: GroupConfig, c, r) -> np.ndarray:
    """(4, n) bool: row t is true where circle (c, r) lies strictly past mirror t.

    "Past" is the side away from the fundamental domain, which lies above
    the real axis, below the ray at pi/q and outside both inversion circles.
    """
    center2 = cfg.t_q * cmath.exp(1j * math.pi / cfg.q)
    return np.stack([
        c.imag + r < 0.0,
        np.abs(c - center2) + r < cfg.s_q,
        (c * cmath.exp(-1j * math.pi / cfg.q)).imag > r,
        np.abs(c) + r < cfg.r_q,
    ])


def enumerate_circles(
    cfg: GroupConfig,
    min_radius: float,
    cap: int = 10**7,
) -> CircleOrbit:
    """Breadth-first orbit of the unit circle under the four inversions.

    Each step maps the whole previous generation through the four generators
    at once; images are laid out generator-major, parent-minor.

    Descent test.  The unit circle is fixed by g1, g2 and g3, so the orbit is
    the coset space W/W_123 and a circle's generation is the length of its
    minimal coset representative.  A circle of the orbit lies strictly on
    one side of every mirror that does not fix it, and s shortens its
    representative exactly when it lies past the mirror of s (Bjorner &
    Brenti, ch. 2).  So the image sC of a generation g-1 circle C is a
    generation g circle exactly when sC lies strictly past the mirror of s,
    and every generation g circle D is the image of sD for each mirror s it
    lies past.  D is kept once: from parent sD, where s is the first such
    mirror in ``generators`` order.  No tolerance and no search is involved,
    and no comparison is close: down to r = 1e-3 every image clears each
    mirror by at least 0.16 of its radius at q=8 (0.009 at q=24).

    Pruning.  A circle's BFS parent is never smaller than the circle.  If s
    lengthens the minimal representative w, it lengthens every element of
    w W_123, so the whole circle lies on the fundamental domain's side of the
    mirror of s.  Line reflections keep the radius; an inversion in a circle
    of radius rho takes a circle of radius r outside it (center distance
    d >= rho + r) to radius rho^2 r / (d^2 - r^2) < r.  So every ancestor of
    a circle of radius >= ``min_radius`` is at least as large, and circles
    below the cutoff are neither stored nor expanded.  The tests pin both
    arguments (closure and monotonicity at q=8, and equality with an
    unpruned global-hash enumeration).

    ``cap`` bounds the stored count, checked once per generation.
    """
    if not 0.0 < min_radius < math.inf:
        raise ValueError(f"min_radius must be positive and finite, got {min_radius!r}")
    gens = generators(cfg)
    layers = [(np.zeros(1, dtype=complex), np.ones(1))]
    stored = 0
    while len(layers[-1][1]):
        c, r = layers[-1]
        images = [g(c, r) for g in gens]
        ic = np.concatenate([im[0] for im in images])
        ir = np.concatenate([im[1] for im in images])
        past = _past_mirrors(cfg, ic, ir)
        by = np.repeat(np.arange(len(gens)), len(r))  # the generator of each image
        keep = past.any(0) & (past.argmax(0) == by) & (ir >= min_radius)
        layers.append((ic[keep], ir[keep]))
        stored += int(keep.sum())
        if stored > cap:
            raise BudgetExceeded(f"orbit exceeded {cap} circles")

    body = layers[1:]
    centers = np.concatenate([c for c, _ in body])
    radii = np.concatenate([r for _, r in body])
    gens = np.repeat(np.arange(1, len(layers)), [len(r) for _, r in body])
    order = np.lexsort((centers.imag, centers.real, -radii))
    return CircleOrbit(
        config=cfg,
        min_radius=min_radius,
        centers=centers[order],
        radii=radii[order],
        generations=gens[order],
    )


def separation_stats(o: CircleOrbit):
    """Smallest gap/min(radius) over stored circle pairs, by a banded grid.

    A pair with normalized gap below ``SEPARATION_EPS_CAP`` has center
    distance at most w = (2 + SEPARATION_EPS_CAP) times the larger radius,
    and the pairs examined are exactly the pairs within w of each other,
    each once.  The larger circles are taken in radius
    bands (R / 1.25, R], largest first.  For one band, every circle not
    larger than R goes on a uniform grid of cell size h >= w(R), and each
    band circle looks in its 3 x 3 neighbouring cells: a partner is not
    larger than the band circle, so it is on the grid, and it lies within
    w(R) <= h of the band circle in each coordinate, so in a cell at most
    one column and one row away.  h exceeds w(R) by the roundoff of w and
    of the cell coordinates (x - x0) / h, and is raised to span / 2^30 when
    that is larger, so that the integer cell keys stay below 2^61 at any
    radius; a coarser grid only adds candidates.  Each band's candidates
    are filtered by the distance bound before the next band, so no more
    than one band's candidates are ever held.  The band circles lead the
    grid, so the grid's one sort of its keys also puts the band's windows in
    ascending order, the order in which ``searchsorted`` finds them fastest
    (numpy starts each binary search from the previous one's result).
    """
    n = len(o)
    if n < 2:
        raise ValueError("need at least two circles")
    # by radius, largest first: a pair (a, b) of positions in this order is
    # examined once, as a < b, with the bound of the larger radius (on a tie
    # either one, so the order of equal radii does not matter)
    order = np.argsort(-o.radii)
    x, y, r = o.centers.real[order], o.centers.imag[order], o.radii[order]
    reach = 2.0 + SEPARATION_EPS_CAP
    eps, pairs = math.inf, 0
    start = 0
    while start < n:
        R = r[start]
        stop = start + int(np.searchsorted(-r[start:], -R / 1.25, side="left"))
        gx, gy = x[start:], y[start:]  # the grid: every circle not larger than R
        x0, y0 = gx.min(), gy.min()
        span = max(gx.max() - x0, gy.max() - y0)
        extent = max(float(np.abs(gx).max()), float(np.abs(gy).max()))
        h = max(reach * R * (1.0 + 1e-12) + 8.0 * np.finfo(float).eps * extent, span / 2.0**30)
        col = np.floor((gx - x0) / h).astype(np.int64)
        row = np.floor((gy - y0) / h).astype(np.int64)
        width = int(row.max()) + 3  # rows -1 .. max + 1 of one column are contiguous keys
        key = col * width + row + 1
        by_key = np.argsort(key)
        band = by_key[by_key < stop - start]  # the band leads the grid: in key order
        lo = np.concatenate([key[band] + dc * width - 1 for dc in (-1, 0, 1)])
        # each window [lo, lo + 2]'s run of sorted keys, expanded into pairs
        # with the run's sorted positions
        sorted_keys = key[by_key]
        first = np.searchsorted(sorted_keys, lo, side="left")
        sizes = np.searchsorted(sorted_keys, lo + 2, side="right") - first
        a = np.repeat(np.tile(band, 3), sizes)
        b = by_key[np.arange(len(a)) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)]
        a, b = a[a < b] + start, b[a < b] + start
        d = np.hypot(x[b] - x[a], y[b] - y[a])
        near = d <= reach * r[a]
        if near.any():
            a, b, d = a[near], b[near], d[near]
            eps = min(eps, float(((d - r[a] - r[b]) / r[b]).min()))
            pairs += len(d)
        start = stop
    return eps, pairs


def fit_carpet_dimension(o: CircleOrbit) -> PowerLawFit:
    """Power-law exponent, in (1, 2), of the circle count over the top curvature decade."""
    if len(o) < 1000:
        raise InsufficientRange("need at least 1000 circles")
    curv = np.sort(o.curvatures())
    lam_hi = 1.0 / o.min_radius
    lam_lo = lam_hi / 10.0
    grid = np.exp(np.linspace(math.log(lam_lo), math.log(lam_hi), 24))
    fit = fit_power_law(grid, np.searchsorted(curv, grid, side="right"))
    if not 1.0 < fit.slope < 2.0:
        raise InsufficientRange(f"fitted dimension {fit.slope:.4f} outside (1, 2)")
    return fit


# ---------------------------------------------------------------------------
# the harmonicity residual


class RadialBump:
    """Smooth bump A exp(1 - 1/(1 - |z - z0|^2 / R^2)) supported on |z-z0| < R."""

    def __init__(self, center, radius, amplitude: float = 1.0):
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        if not math.isfinite(self.amplitude):
            raise ValueError(f"bump amplitude must be finite, got {amplitude!r}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"bump center must be finite, got {center!r}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"bump radius must be finite and positive, got {radius!r}")

    def support_in_unit_disk(self) -> bool:
        """True when the support stays 1e-9 inside the unit circle."""
        cx, cy = self.center
        return math.hypot(cx, cy) + self.radius < 1.0 - 1e-9

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


@functools.lru_cache(maxsize=8)
def _unit_circle(refine: int):
    """(cos theta, sin theta) at theta = 2 pi j / refine, read-only and shared."""
    if isinstance(refine, bool) or not isinstance(refine, (int, np.integer)) or refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine!r}")
    th = TWO_PI * np.arange(refine) / refine
    table = np.cos(th), np.sin(th)
    for a in table:
        a.flags.writeable = False
    return table


def harmonicity_contributions(
    o: CircleOrbit, v, refine: int = 256, coordinate: int = 1
) -> np.ndarray:
    """Per-circle arc integrals of <grad_C h_i, grad_C v> rad dH^1.

    Periodic trapezoid rule with ``refine`` points per circle, evaluated on
    blocks of circles at once.  The 256-point default is only good to about
    5e-7 relative on large circles that cross the edge of the bump's support
    (against the Gauss-Green value, 6 of 120 random bumps missed 1e-9
    relative); the Gauss-Green cross-checks use 2048 points or more.
    """
    if not isinstance(v, RadialBump):
        raise TypeError("test function must be a RadialBump")
    if not v.support_in_unit_disk():
        raise SupportViolation("bump support must be strictly inside the unit disk")
    if coordinate not in (1, 2):
        raise ValueError("coordinate must be 1 or 2")

    cosv, sinv = _unit_circle(refine)
    out = np.zeros(len(o))
    # a circle with |c - z0| >= R + r keeps every sample at s^2 >= 1 up to
    # roundoff, where the bump's exp underflows: its contribution is exactly 0
    x0, y0 = v.center
    near = np.flatnonzero(np.hypot(o.centers.real - x0, o.centers.imag - y0) < v.radius + o.radii)
    rows = max(1, _HARMONICITY_CHUNK // refine)
    for start in range(0, len(near), rows):
        k = near[start : start + rows]
        c, r = o.centers[k, None], o.radii[k, None]
        x = c.real + r * cosv
        y = c.imag + r * sinv
        gx, gy = v.gradient(x, y)
        # d/dtheta of v along each circle, periodic trapezoid rule per row
        dv = r * (-sinv * gx + cosv * gy)
        du = -r * sinv if coordinate == 1 else r * cosv
        out[k] = np.sum(du * dv, axis=1) * (TWO_PI / refine)
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
    cosv, sinv = _unit_circle(refine)
    x = c.real + r * cosv
    y = c.imag + r * sinv
    vals = v(x, y)
    return float(r * np.sum(vals * cosv) * (TWO_PI / refine))
