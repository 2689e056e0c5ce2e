"""Plane geometry of tangent disks and half-planes.

Everything here is a pure function on immutable values.  Points are
``(x, y)`` tuples.  Geometric comparisons are relative to the local scale
(the largest radius involved); algebraic identities use a tighter tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTriple,
    HalfPlanePresent,
    NotPositivelyOriented,
    NotTangent,
    NumericBreakdown,
    TwoHalfPlanes,
    UnrepresentableImage,
)

GEOM_RTOL = 1e-9
ALG_RTOL = 1e-12
RESIDUAL_RTOL = 1e-6  # inscribed disk tangency residuals, relative to its radius

Point = tuple[float, float]


# ---------------------------------------------------------------------------
# generalized disks


@dataclass(frozen=True)
class GeneralizedDisk:
    """Open disk (center, radius) or open half-plane {z : <z, normal> < offset}.

    The half-plane normal points out of the region, toward the side where
    tangent disks live.  ``curvature`` is 1/radius for disks and exactly 0
    for half-planes.
    """

    curvature: float
    center: Point | None = None
    radius: float | None = None
    normal: Point | None = None
    offset: float | None = None

    def __post_init__(self):
        data = (*(self.center or ()), *(self.normal or ()), self.radius, self.offset)
        if not all(math.isfinite(x) for x in data if x is not None):
            raise ValueError("disk and half-plane data must be finite")
        if self.center is not None:
            if self.radius is None or self.radius <= 0.0:
                raise ValueError("disk needs a positive radius")
            if abs(self.curvature * self.radius - 1.0) > ALG_RTOL:
                raise ValueError("curvature * radius must be 1")
        else:
            if self.normal is None or self.offset is None:
                raise ValueError("half-plane needs normal and offset")
            nx, ny = self.normal
            if abs(math.hypot(nx, ny) - 1.0) > ALG_RTOL:
                raise ValueError("half-plane normal must be unit length")
            if self.curvature != 0.0:
                raise ValueError("half-plane curvature must be exactly 0")

    @property
    def is_disk(self) -> bool:
        return self.center is not None


def disk(center: Point, radius: float) -> GeneralizedDisk:
    """Open disk with the stated center and radius."""
    radius = float(radius)
    if not radius > 0.0:  # before 1/radius; NaN fails here too
        raise ValueError("disk needs a positive radius")
    return GeneralizedDisk(
        curvature=1.0 / radius,
        center=(float(center[0]), float(center[1])),
        radius=radius,
    )


def halfplane(normal: Point, offset: float) -> GeneralizedDisk:
    """Open half-plane {z : <z, normal> < offset}."""
    return GeneralizedDisk(
        curvature=0.0,
        normal=(float(normal[0]), float(normal[1])),
        offset=float(offset),
    )


def disk_from_json(obj: dict) -> GeneralizedDisk:
    """One ``--triple`` member, in the form in which ``gasket cells`` writes each
    inscribed disk; ``ValueError`` names a malformed entry."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    keys = {"disk": ("center", "radius"), "halfplane": ("normal", "offset")}.get(kind)
    if keys is None:
        raise ValueError(f"a disk must be an object of type disk or halfplane, got {obj!r}")
    if any(key not in obj for key in keys):
        raise ValueError(f"a {kind} needs {keys[0]!r} and {keys[1]!r}, got {obj!r}")
    point, value = obj[keys[0]], obj[keys[1]]
    if not (isinstance(point, (list, tuple)) and len(point) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in (*point, value))):
        raise ValueError(f"a {kind} needs two numbers as {keys[0]!r} and a number as {keys[1]!r}")
    return (disk if kind == "disk" else halfplane)(tuple(point), value)


# ---------------------------------------------------------------------------
# tangency


# roundoff in a coordinate difference scales with the ambient magnitude, not
# with the (possibly tiny) local radii; tolerances carry both terms
_AMBIENT_EPS = 4096.0 * 2.220446049250313e-16


def tangency_point(d1: GeneralizedDisk, d2: GeneralizedDisk) -> Point:
    """Unique common boundary point of two externally tangent members."""
    if not d1.is_disk and not d2.is_disk:
        raise TwoHalfPlanes("tangency point of two half-planes is not defined")
    if not d1.is_disk:
        d1, d2 = d2, d1
    hp = None if d2.is_disk else (d2.normal, d2.offset)
    c2, r2 = (d2.center, d2.radius) if d2.is_disk else ((math.nan, math.nan), math.inf)
    p = tangency_points(
        np.array([d1.center]), np.array([d1.radius]), np.array([[c2]]), np.array([[r2]]), hp
    )
    return tuple(p[0, 0].tolist())


def tangency_points(z, r, centers, radii, halfplane=None):
    """Points (n, k, 2) where the disks of centers ``z`` (n, 2) and radii
    ``r`` (n,) touch their members (``centers`` (n, k, 2), ``radii`` (n, k)).

    A half-plane member has radius inf and center nan, and ``halfplane`` =
    (normal, offset) describes it.  ``NotTangent`` is raised if any pair's
    boundary gap exceeds ``GEOM_RTOL`` times the larger radius plus the ambient
    roundoff of the coordinates.
    """
    hp = np.isinf(radii)
    x1, y1, r1 = z[:, :1], z[:, 1:], r[:, None]
    x2, y2, r2 = centers[..., 0], centers[..., 1], np.where(hp, np.nan, radii)
    gap = np.hypot(x2 - x1, y2 - y1) - (r1 + r2)
    tol = GEOM_RTOL * np.maximum(r1, r2) + _AMBIENT_EPS * (
        np.abs(x1) + np.abs(y1) + np.abs(x2) + np.abs(y2) + r1 + r2
    )
    s = 1.0 / (r1 + r2)
    px, py = (r2 * x1 + r1 * x2) * s, (r2 * y1 + r1 * y2) * s
    if halfplane is not None:
        (nx, ny), off = halfplane
        gap = np.where(hp, x1 * nx + y1 * ny - off - r1, gap)
        ambient = np.abs(x1) + np.abs(y1) + abs(off) + r1
        tol = np.where(hp, GEOM_RTOL * r1 + _AMBIENT_EPS * ambient, tol)
        px, py = np.where(hp, x1 - r1 * nx, px), np.where(hp, y1 - r1 * ny, py)
    bad = np.abs(gap) > tol
    if np.any(bad):
        raise NotTangent(f"boundary gap {gap[bad][0]:.3e} exceeds tolerance")
    return np.stack((px, py), axis=-1)


def _signed_area(p1: Point, p2: Point, p3: Point) -> float:
    return 0.5 * (
        (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p3[0] - p1[0]) * (p2[1] - p1[1])
    )


@dataclass(frozen=True)
class DiskTriple:
    """Validated positively oriented tangential disk triple.

    ``q`` holds the tangency points: q[j] is the common point of the two
    members other than member j.  ``quad`` is the curvature quadruple
    (alpha, beta, gamma, kappa) with kappa = sqrt(bg + ga + ab).
    """

    disks: tuple[GeneralizedDisk, GeneralizedDisk, GeneralizedDisk]
    q: tuple[Point, Point, Point]
    quad: tuple[float, float, float, float]

    @property
    def kappa(self) -> float:
        return self.quad[3]

    @property
    def is_bounded(self) -> bool:
        return all(d.is_disk for d in self.disks)


def validate_triple(d1: GeneralizedDisk, d2: GeneralizedDisk, d3: GeneralizedDisk) -> DiskTriple:
    """Check tangency and orientation, attach tangency points and quadruple."""
    if sum(not d.is_disk for d in (d1, d2, d3)) > 1:
        raise TwoHalfPlanes("a tangential disk triple admits at most one half-plane")
    q1 = tangency_point(d2, d3)
    q2 = tangency_point(d3, d1)
    q3 = tangency_point(d1, d2)
    if _signed_area(q1, q2, q3) <= 0.0:
        raise NotPositivelyOriented("tangency points are clockwise")
    a, b, c = d1.curvature, d2.curvature, d3.curvature
    kappa = math.sqrt(b * c + c * a + a * b)
    return DiskTriple(disks=(d1, d2, d3), q=(q1, q2, q3), quad=(a, b, c, kappa))


# ---------------------------------------------------------------------------
# circumscribed / inscribed disks


def _circumcircle(p1: Point, p2: Point, p3: Point) -> tuple[Point, float]:
    """Center and radius of the circle through three points."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(bx - ax), abs(by - ay), abs(cx - ax), abs(cy - ay), 1e-300)
    if abs(d) <= 1e-14 * scale * scale:
        raise DegenerateTriple("tangency points are numerically collinear")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    return (ux, uy), r


def circumscribed_disk(t: DiskTriple) -> GeneralizedDisk:
    """Disk through the three tangency points; orthogonal to every member."""
    center, r = _circumcircle(*t.q)
    return disk(center, r)


def inscribed_disk(t: DiskTriple) -> GeneralizedDisk:
    """Disk inside the ideal triangle tangent to all three members (one row
    of ``inscribed_disks``)."""
    hp = next(((d.normal, d.offset) for d in t.disks if not d.is_disk), None)
    centers = [d.center if d.is_disk else (math.nan, math.nan) for d in t.disks]
    radii = [d.radius if d.is_disk else math.inf for d in t.disks]
    z, r, k = inscribed_disks(np.array([t.quad]), np.array([centers]), np.array([radii]), hp)
    return GeneralizedDisk(curvature=float(k[0]), center=tuple(z[0].tolist()), radius=float(r[0]))


def inscribed_disks(quads, centers, radii, halfplane=None):
    """Inscribed disks of n triples at once: centers (n, 2), radii and curvatures.

    ``quads`` (n, 4) are the curvature quadruples and ``centers`` (n, 3, 2),
    ``radii`` (n, 3) the members in slot order.  A half-plane member has
    radius inf and center nan; ``halfplane`` = (normal, offset) describes it
    (a call has at most one).  The curvature is alpha + beta + gamma + 2 kappa.
    The center comes from the linear system obtained by differencing the
    tangency constraints (trilateration), in coordinates local to the
    smallest member disk: differencing squared global coordinates would
    cancel catastrophically deep in the gasket, and the smallest center is
    the one nearest the solution.  Each row is computed in the operation
    order of the one-triple construction, so the bits do not depend on n.
    ``NumericBreakdown`` is raised if any row fails its tangency residual or,
    for bounded triples, the complex Descartes cross-check.
    """
    a, b, c, kappa = quads.T
    k_in = a + b + c + 2.0 * kappa
    r_in = 1.0 / k_in
    idx = np.arange(len(k_in))
    i0 = np.argmin(radii, axis=1)  # first of equal radii, like min()
    ox, oy = centers[idx, i0].T
    r0 = radii[idx, i0]

    def disk_row(j):
        dx, dy = centers[idx, j, 0] - ox, centers[idx, j, 1] - oy
        rj = radii[idx, j]
        return 2.0 * dx, 2.0 * dy, dx * dx + dy * dy + (r_in + r0) ** 2 - (r_in + rj) ** 2

    # the other two slots in increasing order give the two rows
    j1, j2 = np.where(i0 == 0, 1, 0), np.where(i0 == 2, 1, 2)
    (a11, a12, b1), (a21, a22, b2) = disk_row(j1), disk_row(j2)
    is_hp = np.isinf(radii)
    hp = is_hp.any(axis=1)  # slot i0 is never the half-plane
    if halfplane is not None:
        # the half-plane row comes first, the remaining disk row second
        (nx, ny), off = halfplane
        hp2 = is_hp[idx, j2]
        a21, a22, b2 = (np.where(hp2, u, v) for u, v in ((a11, a21), (a12, a22), (b1, b2)))
        a11, a12 = np.where(hp, nx, a11), np.where(hp, ny, a12)
        b1 = np.where(hp, off + r_in - (ox * nx + oy * ny), b1)
    det = a11 * a22 - a12 * a21
    if np.any(det == 0.0):
        raise NumericBreakdown("trilateration system is singular")
    ux = (b1 * a22 - b2 * a12) / det
    uy = (a11 * b2 - a21 * b1) / det
    zx, zy = ox + ux, oy + uy

    tol = RESIDUAL_RTOL * r_in + _AMBIENT_EPS * (np.abs(ox) + np.abs(oy) + 1.0)
    dx, dy = centers[..., 0] - ox[:, None], centers[..., 1] - oy[:, None]
    resid = np.hypot(ux[:, None] - dx, uy[:, None] - dy) - (r_in[:, None] + radii)
    if halfplane is not None:
        hp_resid = (zx * nx + zy * ny - off) - r_in
        resid = np.where(is_hp, hp_resid[:, None], resid)
    bad = np.abs(resid) > tol[:, None]
    if np.any(bad):
        raise NumericBreakdown(
            f"tangency residual {resid[bad][0]:.3e} exceeds {RESIDUAL_RTOL:g}*r_in"
        )

    z1, z2, z3 = (dx + 1j * dy).T
    root = np.sqrt(a * b * z1 * z2 + b * c * z2 * z3 + c * a * z3 * z1)
    base = a * z1 + b * z2 + c * z3
    z_loc = ux + 1j * uy
    err = np.minimum(abs((base + 2 * root) / k_in - z_loc), abs((base - 2 * root) / k_in - z_loc))
    bad = (err > tol) & ~hp
    if np.any(bad):
        raise NumericBreakdown(f"Descartes cross-check off by {err[bad][0]:.3e}")
    return np.column_stack((zx, zy)), r_in, k_in


def triangle_area(t: DiskTriple) -> float:
    """Area of the triangle spanned by the three disk centers."""
    if not t.is_bounded:
        raise HalfPlanePresent("center triangle requires three bounded disks")
    c1, c2, c3 = (d.center for d in t.disks)
    return abs(_signed_area(c1, c2, c3))


# ---------------------------------------------------------------------------
# canonical constructions used by tests and the CLI


def _check_curvatures(*ks: float) -> None:
    if not all(math.isfinite(k) and k > 0.0 for k in ks):
        raise ValueError("curvatures must be finite and positive")


def triple_from_curvatures(a: float, b: float, c: float) -> DiskTriple:
    """Canonical triple with given curvatures: first two disks on the x-axis."""
    _check_curvatures(a, b, c)
    r1, r2, r3 = 1.0 / a, 1.0 / b, 1.0 / c
    d12, d13, d23 = r1 + r2, r1 + r3, r2 + r3
    x = (d12 * d12 + d13 * d13 - d23 * d23) / (2.0 * d12)
    y = math.sqrt(max(d13 * d13 - x * x, 0.0))
    return validate_triple(
        disk((0.0, 0.0), r1),
        disk((d12, 0.0), r2),
        disk((x, y), r3),
    )


def triple_with_halfplane(a: float, b: float) -> DiskTriple:
    """Two disks of curvature a, b resting on the x-axis plus the lower half-plane."""
    _check_curvatures(a, b)
    r1, r2 = 1.0 / a, 1.0 / b
    x = 2.0 * math.sqrt(r1 * r2)
    return validate_triple(
        disk((0.0, r1), r1),
        halfplane((0.0, 1.0), 0.0),
        disk((x, r2), r2),
    )


def transform_triple(
    t: DiskTriple,
    scale: float = 1.0,
    rotate: float = 0.0,
    translate: Point = (0.0, 0.0),
) -> DiskTriple:
    """Apply a direct similarity (dilation, rotation, translation)."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    co, si = math.cos(rotate), math.sin(rotate)
    tx, ty = translate

    def _map_point(p: Point) -> Point:
        x, y = p
        return (scale * (co * x - si * y) + tx, scale * (si * x + co * y) + ty)

    members = []
    for d in t.disks:
        if d.is_disk:
            members.append(disk(_map_point(d.center), scale * d.radius))
        else:
            nx, ny = d.normal
            n2 = (co * nx - si * ny, si * nx + co * ny)
            off2 = scale * d.offset + n2[0] * tx + n2[1] * ty
            members.append(halfplane(n2, off2))
    return validate_triple(*members)


# ---------------------------------------------------------------------------
# circle transforms (the generators of the carpet group are built from them)


def _complex(re, im):
    """Complex scalar or array from its parts; ``re + 1j * im`` would drop signed zeros."""
    if np.ndim(re) == 0:
        return complex(re, im)
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


# Both transforms accept a complex scalar center or a complex array of centers
# (with matching radii).  The complex products are written out in the operation
# order of Python's complex ``*`` (a float factor enters as ``factor + 0j``), so
# an array call gives the same bits as the scalar calls; numpy's complex multiply
# does not.


def reflect_circle_in_line(center, radius, point: complex, angle: float):
    """Image of a circle under reflection in a line (radius preserved)."""
    u = cmath.exp(2.0j * angle)
    dx = center.real - point.real  # conj(center - point)
    dy = -(center.imag - point.imag)
    return _complex(
        point.real + (u.real * dx - u.imag * dy), point.imag + (u.real * dy + u.imag * dx)
    ), radius


def invert_circle_in_circle(center, radius, inv_center: complex, inv_radius: float):
    """Image of a circle under inversion; raises if any circle passes through the center."""
    s2 = inv_radius * inv_radius
    dx = center.real - inv_center.real
    dy = center.imag - inv_center.imag
    denom = dx * dx + dy * dy - radius * radius
    if np.any(abs(denom) < 1e-15 * (np.hypot(dx, dy) ** 2 + radius * radius)):
        raise UnrepresentableImage("circle passes through the inversion center")
    factor = s2 / denom
    return _complex(
        inv_center.real + (factor * dx - 0.0 * dy), inv_center.imag + (factor * dy + 0.0 * dx)
    ), abs(factor) * radius
