"""Discrete carriers of the canonical energy form on a gasket.

Two discretizations are built from the same cell complex:

* the exact trace form on the tangency vertex set V_m, a weighted graph
  whose per-cell conductances are (kappa^2 + a_j^2) / (2 kappa a_j);
* a one-dimensional finite element network living on the circular arcs
  (outer boundary arcs plus inscribed circles), with per-segment stiffness
  rad/len and lumped mass rad*len.

Both are ``Network`` instances: points, an edge index array, per-edge
conductances and (for the arc network) per-edge masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import HalfPlanePresent
from .gasket import GasketComplex, build_complex
from .geom import DiskTriple, Point

TWO_PI = 2.0 * math.pi


def cell_conductances(t: DiskTriple) -> tuple[float, float, float]:
    """Edge conductances of a single cell; edge j joins q_{j+1} and q_{j+2}."""
    if not t.is_bounded:
        raise HalfPlanePresent("trace conductances need three bounded disks")
    return tuple(_conductances(np.array(t.quad)).tolist())


def _conductances(quad: np.ndarray) -> np.ndarray:
    """(kappa^2 + a_j^2) / (2 kappa a_j) for curvature quadruples (..., 4)."""
    kappa, alpha = quad[..., 3:], quad[..., :3]
    return (kappa * kappa + alpha * alpha) / (2.0 * kappa * alpha)


@dataclass
class Network:
    """Weighted graph with energy E(u) = sum_e c_e (u_i - u_j)^2.

    ``points`` is an (n, 2) array and ``edges`` an (E, 2) int array of endpoint ids.  ``edge_mass`` is the
    per-edge measure, lumped half to each endpoint; the mass methods need it,
    and it is None for the trace form.  Vertex sums accumulate edge by edge
    over the endpoint sequence i_0, j_0, i_1, j_1, ...
    """

    points: np.ndarray
    edges: np.ndarray
    conductance: np.ndarray
    edge_mass: np.ndarray | None

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def total_mass(self) -> float:
        return float(self.edge_mass.sum())

    def stiffness(self) -> sp.csr_matrix:
        rows = self.edges[:, [0, 1, 0, 1]].ravel()
        cols = self.edges[:, [1, 0, 0, 1]].ravel()
        vals = np.outer(self.conductance, [-1.0, -1.0, 1.0, 1.0]).ravel()
        n = self.n_vertices
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    def energy(self, u) -> float:
        d = np.asarray(u, dtype=float)[self.edges]
        d = d[:, 0] - d[:, 1]
        return float(np.dot(self.conductance, d * d))

    def laplacian_residual(self, u) -> np.ndarray:
        """(L u)(x) = sum_y c_xy (u(x) - u(y)) at every vertex."""
        d = np.asarray(u, dtype=float)[self.edges]
        flux = self.conductance * (d[:, 0] - d[:, 1])
        return self._endpoint_sum(np.column_stack((flux, -flux)))

    def vertex_conductance_scale(self) -> np.ndarray:
        return self._endpoint_sum(np.repeat(self.conductance, 2))

    def mass_vector(self) -> MassVector:
        return MassVector(
            values=self._endpoint_sum(np.repeat(0.5 * self.edge_mass, 2)), scheme="arc-lumped"
        )

    def _endpoint_sum(self, weights) -> np.ndarray:
        """Per-vertex sum of ``weights`` given per edge endpoint, (E, 2) or flat."""
        return np.bincount(
            self.edges.ravel(), weights=np.ravel(weights), minlength=self.n_vertices
        )


@dataclass
class TraceForm(Network):
    """Graph energy sum over depth-m cells of the per-cell conductance form."""

    depth: int


def assemble_trace_form(t: DiskTriple, m: int, cx: GasketComplex | None = None) -> TraceForm:
    if not t.is_bounded:
        raise HalfPlanePresent("trace form needs three bounded disks")
    if cx is None or cx.depth < m:
        cx = build_complex(t, m)
    cond = _conductances(cx.quads[m]).ravel()
    vids = cx.vertex_ids[m]
    # edge j of a cell joins q_{j+1} and q_{j+2}; each depth-m edge lies on
    # exactly one depth-m cell, so no two cells contribute the same edge
    ends = np.sort(np.stack((vids[:, [1, 2, 0]], vids[:, [2, 0, 1]]), axis=-1), axis=-1)
    ends = ends.reshape(-1, 2)
    order = np.lexsort((ends[:, 1], ends[:, 0]))
    return TraceForm(
        points=cx.points[: cx.num_vertices_at(m)],
        edges=ends[order],
        conductance=cond[order],
        edge_mass=None,
        depth=m,
    )


@dataclass
class MassVector:
    values: np.ndarray
    scheme: str

    @property
    def total(self) -> float:
        return float(self.values.sum())


def assemble_mass_trace(
    t: DiskTriple, m: int, cx: GasketComplex | None = None, scheme: str = "thirds"
) -> MassVector:
    """Lump a discrete volume measure onto the tangency vertex set V_m.

    ``thirds`` splits each cell measure 2*vol2(center triangle) equally over
    its three vertices and ``arclen`` splits it in proportion to the boundary
    arc lengths meeting at each vertex; child center triangles tile the
    parent one, so both totals equal 2*vol2 of the root center triangle at
    every depth.  ``mu`` instead lumps the arc measure rad*length of the
    depth-m arc family itself, half a piece to each piece endpoint; its
    total is the truncated arc measure (slightly below 2*vol2) but it keeps
    the local mass-to-stiffness ratios of the continuum, which the cell
    lumpings distort badly high in the spectrum.
    """
    if not t.is_bounded:
        raise HalfPlanePresent("trace mass needs three bounded disks")
    if cx is None or cx.depth < m:
        cx = build_complex(t, m)
    if scheme == "mu":
        return MassVector(values=_mu_vertex_masses(t, m, cx), scheme="mu")
    cell_mass = 2.0 * cx.areas[m][:, None]
    if scheme == "thirds":
        w = np.repeat(cell_mass / 3.0, 3, axis=1)
    elif scheme == "arclen":
        lens = _cell_arc_lengths(cx, m)
        tot = lens[:, :1] + lens[:, 1:2] + lens[:, 2:]
        w = cell_mass * (lens[:, [1, 2, 0]] + lens[:, [2, 0, 1]]) / (2.0 * tot)
    else:
        raise ValueError(f"unknown mass scheme {scheme!r}")
    vids = cx.vertex_ids[m]
    masses = np.bincount(vids.ravel(), weights=w.ravel(), minlength=cx.num_vertices_at(m))
    return MassVector(values=masses, scheme=scheme)


def _mu_vertex_masses(t: DiskTriple, m: int, cx: GasketComplex) -> np.ndarray:
    return assemble_arc_fem(t, m, 1, cx).mass_vector().values[: cx.num_vertices_at(m)]


def _cell_arc_lengths(cx: GasketComplex, m: int) -> np.ndarray:
    """(3^m, 3) lengths of each depth-m cell's boundary arc on each member."""
    cids = cx.circle_ids[m]
    q = cx.points[cx.vertex_ids[m]]
    c = cx.centers[cids]
    sweep = _facing_arc(_angles(q[:, [1, 2, 0]] - c), _angles(q[:, [2, 0, 1]] - c))[1]
    return cx.radii[cids] * sweep


def _angles(d: np.ndarray) -> np.ndarray:
    """Polar angles of (..., 2) offsets by ``math.atan2``: ``np.arctan2``
    rounds differently in the last bit on some inputs."""
    x, y = d.reshape(-1, 2).T.tolist()
    return np.array(list(map(math.atan2, y, x))).reshape(d.shape[:-1])


def _facing_arc(theta_a, theta_b):
    """(start, sweep) of the arc between two boundary angles of a member that
    faces the ideal triangle.

    That arc spans the angle of the center triangle at the member, which is
    below pi (the tangency points lie on the center segments), so it is the
    shorter of the two: from ``theta_a`` if (theta_b - theta_a) mod 2 pi is
    below pi, else from ``theta_b``.
    """
    sweep = np.mod(theta_b - theta_a, TWO_PI)
    short = sweep < math.pi
    return np.where(short, theta_a, theta_b), np.where(short, sweep, TWO_PI - sweep)


# ---------------------------------------------------------------------------
# arc finite element network


@dataclass
class ArcNetwork(Network):
    """P1 network on the truncated arc family (outer arcs + inscribed circles).

    Edge conductance is rad/len and edge mass rad*len with len the arc
    length.  ``arc_ids[k]`` is the id of the circle (into the complex's
    circle arrays) that edge k lies on.
    """

    depth: int
    refine: int
    n_vm: int  # leading ids are the V_m tangency points
    arc_ids: np.ndarray


def assemble_arc_fem(
    t: DiskTriple, m: int, refine: int, cx: GasketComplex | None = None
) -> ArcNetwork:
    """Arc network truncated at depth m: every arc is split at the V_m points
    on it, then each piece is subdivided into ``refine`` equal-angle segments.
    At depth 0 it is the three outer arcs alone."""
    if not t.is_bounded:
        raise HalfPlanePresent("arc network needs three bounded disks")
    if m < 0 or refine < 1:
        raise ValueError("need depth >= 0 and refine >= 1")
    if cx is None or cx.depth < m:
        cx = build_complex(t, m)
    n_vm = cx.num_vertices_at(m)

    # every V_m point lies on the two circles of its pair
    cid = cx.vertex_pairs[:n_vm].ravel()
    vid = np.repeat(np.arange(n_vm), 2)
    theta = _angles(cx.points[vid] - cx.centers[cid])
    pieces = []  # (circle, first vertex, last vertex, start angle, sweep) per arc piece

    # outer arcs: on member j between the root tangency points q_{j+1}, q_{j+2}
    for j in range(3):
        v, th = vid[cid == j], theta[cid == j]
        start, sweep = _facing_arc(*(th[v == e][0] for e in ((j + 1) % 3, (j + 2) % 3)))
        off = np.mod(th - start, TWO_PI)  # 0 at the first end, largest at the last
        order = np.argsort(off, kind="stable")
        v, off = v[order], off[order]
        off[-1] = sweep
        pieces.append((np.full(len(v) - 1, j), v[:-1], v[1:], start + off[:-1], np.diff(off)))

    # inscribed circles created strictly above depth m are full circles,
    # split at their vertices in angle order
    keep = (cid >= 3) & (cx.births[cid] < m)
    c, v, th = cid[keep], vid[keep], theta[keep]
    order = np.lexsort((v, th, c))
    c, v, th = c[order], v[order], th[order]
    nxt = np.arange(1, len(c) + 1)  # the last vertex on a circle wraps to its first
    nxt[np.flatnonzero(np.diff(c, append=-1))] = np.flatnonzero(np.diff(c, prepend=-1))
    pieces.append((c, v, v[nxt], th, np.mod(th[nxt] - th, TWO_PI)))

    # each piece is split into ``refine`` equal-angle segments; new points
    # get ids in piece order
    c, v_a, v_b, th_a, sweep = (np.concatenate(x) for x in zip(*pieces))
    r, dt = cx.radii[c], sweep / refine
    th = th_a[:, None] + np.arange(1, refine) * dt[:, None]
    (x0, y0), rr = cx.centers[c, :, None].transpose(1, 0, 2), r[:, None]
    new = np.stack((x0 + rr * np.cos(th), y0 + rr * np.sin(th)), axis=-1)
    new_ids = n_vm + np.arange(th.size).reshape(th.shape)
    chain = np.column_stack((v_a, new_ids, v_b))
    radius, length = np.repeat(r, refine), np.repeat(r * dt, refine)
    return ArcNetwork(
        points=np.concatenate((cx.points[:n_vm], new.reshape(-1, 2))),
        edges=np.stack((chain[:, :-1], chain[:, 1:]), axis=-1).reshape(-1, 2),
        conductance=radius / length,
        edge_mass=radius * length,
        depth=m,
        refine=refine,
        n_vm=n_vm,
        arc_ids=np.repeat(c, refine),
    )


def stiffness_to_text(K: sp.spmatrix) -> str:
    """Coordinate-format text (row, col, value), one entry per line."""
    coo = K.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [
        f"{coo.row[i]} {coo.col[i]} {coo.data[i]:.17g}"
        for i in order
        if coo.data[i] != 0.0
    ]
    return "\n".join(lines) + "\n"


def mass_to_text(values) -> str:
    """One mass entry per line, 17 significant digits."""
    return "\n".join(f"{float(v):.17g}" for v in values) + "\n"


def constrained_minimum_energy(form: Network, boundary_ids, u_boundary) -> float:
    """min { E(v) : v equals the given data on the boundary ids }."""
    n = form.n_vertices
    boundary_ids = np.asarray(boundary_ids, dtype=int)
    u = np.zeros(n)
    u[boundary_ids] = np.asarray(u_boundary, dtype=float)
    free = np.setdiff1d(np.arange(n), boundary_ids)
    K = form.stiffness().tocsc()
    if free.size:
        rhs = -K[free][:, boundary_ids] @ u[boundary_ids]
        u[free] = spla.spsolve(K[free][:, free], rhs)
    return form.energy(u)


# ---------------------------------------------------------------------------
# sector extension inequalities on a single circular arc


@dataclass(frozen=True)
class ArcSegmentFunction:
    """Piecewise-linear function on an arc, sampled on a uniform angle grid."""

    center: Point
    radius: float
    theta0: float
    theta1: float
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 16:
            raise ValueError("need at least 16 samples on the arc")
        if not (self.theta1 > self.theta0 and self.theta1 - self.theta0 <= TWO_PI + 1e-12):
            raise ValueError("angle interval must be increasing and at most a full turn")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("samples must be finite")

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(self.theta0, self.theta1, len(self.values))


def sample_arc_function(center, radius, theta0, theta1, fn, n=64) -> ArcSegmentFunction:
    """Sample a callable of the plane point z = center + radius*e^{i theta}."""
    th = np.linspace(theta0, theta1, n)
    vals = tuple(
        float(fn(center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)))
        for a in th
    )
    return ArcSegmentFunction(center, radius, theta0, theta1, vals)


# relative slack allowed on each side of the comparison inequalities
SECTOR_SLACK = 1e-6


@dataclass
class SectorCheckReport:
    arc_gradient: float  # integral of |grad_C u|^2 rad dH^1
    arc_l2: float  # integral of u^2 rad dH^1
    sector_gradient: float  # integral over the sector of |grad I_a u|^2
    sector_l2: dict  # a -> integral over the sector of (I_a u)^2
    a_w12: float
    mean: float
    w12_ok: bool
    l2_ok: dict

    @property
    def all_ok(self) -> bool:
        return self.w12_ok and all(self.l2_ok.values())


def sector_extension_check(f: ArcSegmentFunction, a: float) -> SectorCheckReport:
    """Verify the cone-extension energy and L2 comparison bounds on one arc.

    The linear extension I_a u((1-t)c + tz) = (1-t)a + t u(z) over the sector
    has |grad I_a u|^2 = ((u - a)^2 + u'^2) / r^2 and area element
    r^2 t dt dtheta, so every sector integral factors into a radial moment,
    int t = 1/2, int (1-t)^2 t = 1/12, int (1-t) t^2 = 1/12, int t^3 = 1/4
    over [0, 1], times an angular integral of the piecewise-linear samples,
    taken exactly interval by interval.  The gradient comparison requires a
    in the range of u; the L2 comparison is checked for a = 0 and a = mean(u).
    """
    vals = np.asarray(f.values)
    if not (vals.min() - 1e-12 <= a <= vals.max() + 1e-12):
        raise ValueError("W12 check needs a within [min u, max u]")
    th = f.thetas
    dth = th[1] - th[0]
    length = f.theta1 - f.theta0
    r2 = f.radius**2

    def integral_sq(w):  # integral of the square of the linear interpolant of w
        return float(np.sum(dth * (w[:-1] ** 2 + w[:-1] * w[1:] + w[1:] ** 2) / 3.0))

    du = np.diff(vals)
    arc_gradient = float(np.sum(du * du) / dth)
    integral_u2 = integral_sq(vals)
    arc_l2 = r2 * integral_u2
    integral_u = float(np.sum(dth * (vals[:-1] + vals[1:]) * 0.5))
    mean = integral_u / length
    sector_gradient = 0.5 * (integral_sq(vals - a) + arc_gradient)
    sector_l2 = {
        aa: r2 * (aa * aa * length / 12.0 + aa * integral_u / 6.0 + integral_u2 / 4.0)
        for aa in (0.0, mean)
    }

    def _leq(lhs, rhs):
        return lhs <= rhs * (1.0 + SECTOR_SLACK) + SECTOR_SLACK * max(abs(lhs), 1.0e-30)

    w12_ok = _leq((2.0 / 21.0) * sector_gradient, arc_gradient) and _leq(
        arc_gradient, 2.0 * sector_gradient
    )
    l2_ok = {aa: _leq(2.0 * s, arc_l2) and _leq(arc_l2, 4.0 * s) for aa, s in sector_l2.items()}
    return SectorCheckReport(
        arc_gradient=arc_gradient,
        arc_l2=arc_l2,
        sector_gradient=sector_gradient,
        sector_l2=sector_l2,
        a_w12=a,
        mean=mean,
        w12_ok=w12_ok,
        l2_ok=l2_ok,
    )
