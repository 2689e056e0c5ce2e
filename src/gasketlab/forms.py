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

from .errors import HalfPlanePresent, QuadratureUnstable
from .gasket import GasketComplex, build_complex
from .geom import DiskTriple, Point, _circumcircle, circumscribed_disk

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

    ``edges`` is an (E, 2) int array of endpoint ids.  ``edge_mass`` is the
    per-edge measure, lumped half to each endpoint; the mass methods need it,
    and it is None for the trace form.  Vertex sums accumulate edge by edge
    over the endpoint sequence i_0, j_0, i_1, j_1, ...
    """

    points: list[Point]
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
    cells = cx.cells(m)
    cond = _conductances(np.array([cell.quad for cell in cells])).ravel()
    vids = np.array([cell.vertex_ids for cell in cells])
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
    cells = cx.cells(m)
    cell_mass = 2.0 * np.array([[cell.area] for cell in cells])
    if scheme == "thirds":
        w = np.repeat(cell_mass / 3.0, 3, axis=1)
    elif scheme == "arclen":
        lens = np.array([_cell_arc_lengths(cx, cell) for cell in cells])
        tot = lens[:, :1] + lens[:, 1:2] + lens[:, 2:]
        w = cell_mass * (lens[:, [1, 2, 0]] + lens[:, [2, 0, 1]]) / (2.0 * tot)
    else:
        raise ValueError(f"unknown mass scheme {scheme!r}")
    vids = np.array([cell.vertex_ids for cell in cells])
    masses = np.bincount(vids.ravel(), weights=w.ravel(), minlength=cx.num_vertices_at(m))
    return MassVector(values=masses, scheme=scheme)


def _mu_vertex_masses(t: DiskTriple, m: int, cx: GasketComplex) -> np.ndarray:
    return assemble_arc_fem(t, m, 1, cx).mass_vector().values[: cx.num_vertices_at(m)]


def _cell_arc_lengths(cx: GasketComplex, cell) -> tuple[float, float, float]:
    """Length of the cell boundary arc on each member circle."""
    qp = [cx.points[i] for i in cell.vertex_ids]
    cir_center, cir_r = _circumcircle(*qp)
    out = []
    for j in range(3):
        d = cx.circles[cell.circle_ids[j]].disk
        cxy = d.center
        a = math.atan2(qp[(j + 1) % 3][1] - cxy[1], qp[(j + 1) % 3][0] - cxy[0])
        b = math.atan2(qp[(j + 2) % 3][1] - cxy[1], qp[(j + 2) % 3][0] - cxy[0])
        sweep = _pick_arc(cxy, d.radius, a, b, cir_center, cir_r)[1]
        out.append(d.radius * sweep)
    return tuple(out)


def _pick_arc(center, radius, theta_a, theta_b, sel_center, sel_radius):
    """Of the two arcs between two boundary angles, pick the one whose
    midpoint lies inside the selection circle (the cell's circumdisk)."""
    sweep1 = (theta_b - theta_a) % TWO_PI
    for start, sweep in ((theta_a, sweep1), (theta_b, TWO_PI - sweep1)):
        mid = start + 0.5 * sweep
        mx = center[0] + radius * math.cos(mid)
        my = center[1] + radius * math.sin(mid)
        if math.hypot(mx - sel_center[0], my - sel_center[1]) < sel_radius:
            return start, sweep
    raise ValueError("neither candidate arc faces the ideal triangle")


# ---------------------------------------------------------------------------
# arc finite element network


@dataclass
class ArcNetwork(Network):
    """P1 network on the truncated arc family (outer arcs + inscribed circles).

    Edge conductance is rad/len and edge mass rad*len with len the arc
    length.  ``arc_ids[k]`` is the circle id (into the complex's circle
    table) that edge k lies on.
    """

    depth: int
    refine: int
    n_vm: int  # leading ids are the V_m tangency points
    arc_ids: list[int]


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

    incident: dict[int, list[int]] = {}
    for vid in range(n_vm):
        for cid in cx.vertex_pairs[vid]:
            incident.setdefault(cid, []).append(vid)

    cir = circumscribed_disk(t)
    points = list(cx.points[:n_vm])
    ends: list[tuple[int, int]] = []
    radius: list[float] = []
    length: list[float] = []
    arc_ids: list[int] = []

    def _angle(cid, vid):
        c = cx.circles[cid].disk.center
        p = cx.points[vid]
        return math.atan2(p[1] - c[1], p[0] - c[0])

    def _emit(cid, vid_a, vid_b, theta_a, sweep):
        d = cx.circles[cid].disk
        dt = sweep / refine
        prev = vid_a
        for s in range(1, refine + 1):
            if s == refine:
                cur = vid_b
            else:
                th = theta_a + s * dt
                points.append(
                    (d.center[0] + d.radius * math.cos(th), d.center[1] + d.radius * math.sin(th))
                )
                cur = len(points) - 1
            ends.append((prev, cur))
            radius.append(d.radius)
            length.append(d.radius * dt)
            arc_ids.append(cid)
            prev = cur

    # outer arcs: on member j between the root tangency points q_{j+1}, q_{j+2}
    for j in range(3):
        d = cx.circles[j].disk
        va, vb = (j + 1) % 3, (j + 2) % 3
        start, sweep = _pick_arc(
            d.center, d.radius, _angle(j, va), _angle(j, vb), cir.center, cir.radius
        )
        vid_start = va if abs((_angle(j, va) - start) % TWO_PI) < 1e-9 else vb
        vid_end = vb if vid_start == va else va
        interior = [v for v in incident.get(j, []) if v not in (va, vb)]
        interior.sort(key=lambda v: (_angle(j, v) - start) % TWO_PI)
        chain = [vid_start] + interior + [vid_end]
        prev_off = 0.0
        for a_v, b_v in zip(chain[:-1], chain[1:]):
            off_b = sweep if b_v == vid_end else (_angle(j, b_v) - start) % TWO_PI
            _emit(j, a_v, b_v, start + prev_off, off_b - prev_off)
            prev_off = off_b

    # inscribed circles created strictly above depth m are full circles
    for cid in range(3, len(cx.circles)):
        if len(cx.circles[cid].word) >= m:
            continue
        vids = incident.get(cid, [])
        vids.sort(key=lambda v: _angle(cid, v))
        k = len(vids)
        for idx in range(k):
            a_v = vids[idx]
            b_v = vids[(idx + 1) % k]
            th_a = _angle(cid, a_v)
            sweep = (_angle(cid, b_v) - th_a) % TWO_PI
            if idx == k - 1 and sweep == 0.0:
                sweep = TWO_PI
            _emit(cid, a_v, b_v, th_a, sweep)

    r, l = np.array(radius), np.array(length)
    return ArcNetwork(
        points=points,
        edges=np.array(ends, dtype=int).reshape(-1, 2),
        conductance=r / l,
        edge_mass=r * l,
        depth=m,
        refine=refine,
        n_vm=n_vm,
        arc_ids=arc_ids,
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
    quad_rel_change: float

    @property
    def all_ok(self) -> bool:
        return self.w12_ok and all(self.l2_ok.values())


def _sector_integrals(f: ArcSegmentFunction, a_list, n_theta, n_t):
    """Tensor-product midpoint quadrature over the sector.

    The integrands factor between the radial and angular variables, so the
    double sum is accumulated as radial moments times angular sums; the
    result is identical to the full product-grid sum.
    """
    th_nodes = f.thetas
    vals = np.asarray(f.values)
    dth = th_nodes[1] - th_nodes[0]
    slopes = np.diff(vals) / dth

    length = f.theta1 - f.theta0
    tm = (np.arange(n_t) + 0.5) / n_t
    thm = f.theta0 + (np.arange(n_theta) + 0.5) * (length / n_theta)
    um = np.interp(thm, th_nodes, vals)
    idx = np.minimum(((thm - f.theta0) / dth).astype(int), len(slopes) - 1)
    dum = slopes[idx]

    w_theta = length / n_theta
    w_t = 1.0 / n_t
    r2 = f.radius * f.radius

    mom_t = float(np.sum(tm) * w_t)  # integral of t dt
    mom_a2 = float(np.sum((1.0 - tm) ** 2 * tm) * w_t)  # (1-t)^2 t
    mom_au = float(np.sum((1.0 - tm) * tm * tm) * w_t)  # (1-t) t^2
    mom_u2 = float(np.sum(tm**3) * w_t)  # t^3
    sum_1 = n_theta * w_theta
    sum_u = float(np.sum(um) * w_theta)
    sum_u2 = float(np.sum(um * um) * w_theta)
    sum_du2 = float(np.sum(dum * dum) * w_theta)

    grad_by_a = {}
    l2_by_a = {}
    for a in a_list:
        dev2 = float(np.sum((um - a) ** 2) * w_theta)  # unexpanded, exact at u == a
        grad_by_a[a] = (dev2 + sum_du2) * mom_t
        l2_by_a[a] = r2 * (
            a * a * mom_a2 * sum_1 + 2.0 * a * mom_au * sum_u + mom_u2 * sum_u2
        )
    return grad_by_a, l2_by_a


def sector_extension_check(
    f: ArcSegmentFunction, a: float, rel_slack: float = 1e-6, stability_tol: float = 1e-4
) -> SectorCheckReport:
    """Numerically verify the cone-extension energy and L2 comparison bounds.

    The linear extension I_a u((1-t)c + tz) = (1-t)a + t u(z) over the sector
    is integrated by tensor-product midpoint quadrature (radial x angular),
    doubled until stable.  The gradient comparison requires a in the range
    of u; the L2 comparison is checked for a = 0 and a = mean(u).
    """
    vals = np.asarray(f.values)
    if not (vals.min() - 1e-12 <= a <= vals.max() + 1e-12):
        raise ValueError("W12 check needs a within [min u, max u]")
    th = f.thetas
    dth = th[1] - th[0]
    length = f.theta1 - f.theta0
    du = np.diff(vals)

    arc_gradient = float(np.sum(du * du) / dth)
    arc_l2 = float(
        f.radius**2 * np.sum(dth * (vals[:-1] ** 2 + vals[:-1] * vals[1:] + vals[1:] ** 2) / 3.0)
    )
    mean = float(np.sum(dth * (vals[:-1] + vals[1:]) * 0.5) / length)

    a_list = [a, 0.0, mean]
    n_theta = max(64, 4 * (len(vals) - 1))
    n_t = 64
    prev = None
    rel_change = math.inf
    for _ in range(10):
        grad_by_a, l2_by_a = _sector_integrals(f, a_list, n_theta, n_t)
        cur = np.array([grad_by_a[a], l2_by_a[0.0], l2_by_a[mean]])
        if prev is not None:
            denom = np.maximum(np.abs(cur), 1e-30)
            rel_change = float(np.max(np.abs(cur - prev) / denom))
            if rel_change <= 0.01 * rel_slack:
                break
        prev = cur
        n_theta *= 2
        n_t *= 2
    if rel_change > stability_tol:
        raise QuadratureUnstable(f"sector quadrature still changing by {rel_change:.2e}")

    sector_gradient = grad_by_a[a]
    slack = rel_slack

    def _leq(lhs, rhs):
        return lhs <= rhs * (1.0 + slack) + slack * max(abs(lhs), 1.0e-30)

    w12_ok = _leq((2.0 / 21.0) * sector_gradient, arc_gradient) and _leq(
        arc_gradient, 2.0 * sector_gradient
    )
    l2_ok = {}
    sector_l2 = {}
    for aa in (0.0, mean):
        s = l2_by_a[aa]
        sector_l2[aa] = s
        l2_ok[aa] = _leq(2.0 * s, arc_l2) and _leq(arc_l2, 4.0 * s)

    return SectorCheckReport(
        arc_gradient=arc_gradient,
        arc_l2=arc_l2,
        sector_gradient=sector_gradient,
        sector_l2=sector_l2,
        a_w12=a,
        mean=mean,
        w12_ok=w12_ok,
        l2_ok=l2_ok,
        quad_rel_change=rel_change,
    )
