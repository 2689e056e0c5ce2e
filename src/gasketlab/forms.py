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

from .errors import HalfPlanePresent
from .gasket import GasketComplex, _cells_above, build_complex, index_dtype
from .geom import DiskTriple, Point

TWO_PI = 2.0 * math.pi


def _conductances(quad: np.ndarray) -> np.ndarray:
    """(kappa^2 + a_j^2) / (2 kappa a_j) for curvature quadruples (..., 4)."""
    kappa, alpha = quad[..., 3:], quad[..., :3]
    return (kappa * kappa + alpha * alpha) / (2.0 * kappa * alpha)


@dataclass
class Network:
    """Weighted graph with energy E(u) = sum_e c_e (u_i - u_j)^2.

    ``points`` is an (n, 2) array and ``edges`` an (E, 2) array of endpoint
    ids, which the builders make in ``gasket.index_dtype(n)``: int32 below
    2^31 - 1 vertices.  ``stiffness`` picks its index type by the same
    rule.  ``edge_mass`` is the per-edge measure, lumped half to each
    endpoint; the mass methods need it, and it is None for the trace form.
    Vertex sums accumulate edge by edge over the endpoint sequence i_0, j_0,
    i_1, j_1, ...
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
        """The matrix L with u^T L u = E(u), in CSR form.

        Its coordinate list has one entry per matrix place: -c_e at (i, j)
        and (j, i) for each edge, and each vertex's summed conductances
        (``vertex_conductance_scale``) on the diagonal.  So ``tocsr`` has
        nothing to sum, and ``data`` and ``indices`` hold exactly nnz
        entries.  The bits equal those of summing +-c_e over four entries
        per edge in edge order.
        """
        n, (i, j), c = self.n_vertices, self.edges.T, self.conductance
        idx = index_dtype(2 * len(c) + n)  # scipy's index type for this nnz
        rows = np.concatenate((i, j, np.arange(n)), dtype=idx)
        cols = np.concatenate((j, i, np.arange(n)), dtype=idx)
        vals = np.concatenate((-c, -c, self.vertex_conductance_scale()))
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
        return MassVector(values=self._endpoint_sum(np.repeat(0.5 * self.edge_mass, 2)))

    def _endpoint_sum(self, weights) -> np.ndarray:
        """Per-vertex sum of ``weights`` given per edge endpoint, (E, 2) or flat."""
        return np.bincount(
            self.edges.ravel(), weights=np.ravel(weights), minlength=self.n_vertices
        )


class TraceForm(Network):
    """Graph energy sum over depth-m cells of the per-cell conductance form."""


def complex_for(t: DiskTriple, m: int, cx: GasketComplex | None = None) -> GasketComplex:
    """``cx`` if it reaches depth m, else a new complex of ``t`` at depth m.

    The one gate of every form and pencil builder: ``HalfPlanePresent`` if
    ``t`` has a half-plane, and ``ValueError`` for m < 0 or if ``cx`` was
    built for another triple."""
    if not t.is_bounded:
        raise HalfPlanePresent("energy forms need three bounded disks")
    if m < 0:
        raise ValueError("depth must be nonnegative")
    if cx is not None and cx.root != t:
        raise ValueError("the complex was built for another triple")
    return cx if cx is not None and cx.depth >= m else build_complex(t, m)


def assemble_trace_form(t: DiskTriple, m: int, cx: GasketComplex | None = None) -> TraceForm:
    cx = complex_for(t, m, cx)
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
    )


@dataclass
class MassVector:
    values: np.ndarray

    @property
    def total(self) -> float:
        return float(self.values.sum())


def assemble_mass_trace(
    t: DiskTriple, m: int, cx: GasketComplex | None = None, scheme: str = "thirds"
) -> MassVector:
    """Lump a discrete volume measure onto the tangency vertex set V_m.

    All schemes read only the depth-m quadruples.  A cell's center triangle
    has sides r_i + r_j (r = 1/a) and semiperimeter s = r_1 + r_2 + r_3; as
    kappa^2 = a_1 a_2 + a_2 a_3 + a_3 a_1, Heron's formula gives its area
    sqrt(s r_1 r_2 r_3) = kappa / (a_1 a_2 a_3), and the half-angle formula
    its angle theta_j at member j, which the cell's arc on member j sweeps:
    tan(theta_j / 2) = sqrt(r_k r_l / (s r_j)) = a_j / kappa.  That arc has
    length theta_j / a_j and measure rad*len = theta_j / a_j^2.

    ``thirds`` splits each cell measure 2*vol2(center triangle) equally over
    its three vertices and ``arclen`` splits it in proportion to the boundary
    arc lengths meeting at each vertex; child center triangles tile the
    parent one, so both totals equal 2*vol2 of the root center triangle at
    every depth.  ``mu`` instead lumps the measure of the depth-m arcs (each
    bounds one depth-m cell), half an arc to each end; its total is the
    truncated arc measure (slightly below 2*vol2) but it keeps the local
    mass-to-stiffness ratios of the continuum, which the cell lumpings
    distort badly high in the spectrum.
    """
    cx = complex_for(t, m, cx)
    area, lens = _cell_shape(cx.quads[m])
    # the weight each scheme puts on either end of each cell boundary arc
    if scheme == "mu":
        arc = 0.5 * lens / cx.quads[m][:, :3]
    elif scheme == "thirds":
        arc = np.repeat(area / 3.0, 3, axis=1)
    elif scheme == "arclen":
        arc = area * lens / lens.sum(axis=1, keepdims=True)
    else:
        raise ValueError(f"unknown mass scheme {scheme!r}")
    # vertex slot j ends the arcs on members j+1 and j+2
    w = arc[:, [1, 2, 0]] + arc[:, [2, 0, 1]]
    vids = cx.vertex_ids[m].ravel()
    masses = np.bincount(vids, weights=w.ravel(), minlength=cx.num_vertices_at(m))
    return MassVector(values=masses)


def _cell_shape(quads: np.ndarray):
    """Center triangle areas (n, 1) and boundary arc lengths (n, 3) of cells (n, 4)."""
    kappa, alpha = quads[:, 3:], quads[:, :3]
    return kappa / alpha.prod(axis=1, keepdims=True), 2.0 * np.arctan(alpha / kappa) / alpha


# offsets per ``math.atan2`` pass of ``_angles``.  Its Python float lists
# took 167 MB traced for the 1.6M offsets of unit m=12 in one pass, and 13 MB
# (the output) at 2^12, no slower (BENCH_20.json)
_ANGLE_CHUNK = 1 << 12


def _angles(d: np.ndarray) -> np.ndarray:
    """Polar angles of (..., 2) offsets by ``math.atan2``: ``np.arctan2``
    rounds differently in the last bit on some inputs.  The offsets go
    through Python floats ``_ANGLE_CHUNK`` at a time."""
    flat = d.reshape(-1, 2)
    out = np.empty(len(flat))
    for s in range(0, len(flat), _ANGLE_CHUNK):
        x, y = flat[s:s + _ANGLE_CHUNK].T.tolist()
        out[s:s + _ANGLE_CHUNK] = list(map(math.atan2, y, x))
    return out.reshape(d.shape[:-1])


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
    length.  Each arc piece between two V_m points is a chain of ``refine``
    consecutive edges, and its ``refine - 1`` inner points follow the V_m
    ids in piece order.  ``edges`` are in ``gasket.index_dtype`` of the
    vertex count.
    """

    refine: int
    n_vm: int  # leading ids are the V_m tangency points

    def extend_vertex_map(self, vm_map: np.ndarray) -> np.ndarray:
        """Extend a symmetry of the V_m ids to the points inside the pieces.

        The image of a piece is the piece whose end points are the images of
        its own (two circles share at most one point, so the end points name
        the piece); where the map reverses a piece, it reverses the order of
        the piece's inner points.  A piece's key is min * n + max of its end
        ids, formed in int64: the ends are V_m ids, so it passes 2^31 where
        n_vm * n does, first at m=9, refine 2.
        """
        r, n = self.refine, self.n_vertices
        a, b = self.edges[::r, 0], self.edges[r - 1::r, 1]  # each piece's two ends
        ma, mb = vm_map[a], vm_map[b]

        def key(x, y):
            return np.minimum(x, y).astype(np.int64) * n + np.maximum(x, y)

        own = key(a, b)
        order = np.argsort(own)
        image = order[np.searchsorted(own, key(ma, mb), sorter=order)]
        t = np.arange(r - 1)
        inner = np.where((ma != a[image])[:, None], r - 2 - t, t) + image[:, None] * (r - 1)
        return np.concatenate((vm_map, self.n_vm + inner.ravel()))


def assemble_arc_fem(
    t: DiskTriple, m: int, refine: int, cx: GasketComplex | None = None
) -> ArcNetwork:
    """Arc network truncated at depth m: every arc is split at the V_m points
    on it, then each piece is subdivided into ``refine`` equal-angle segments.
    At depth 0 it is the three outer arcs alone.

    The pieces are found first (``_arc_pieces``), and only their five
    per-piece arrays outlive that step; ``points`` and ``edges`` are then
    written in place into arrays of their final size."""
    if refine < 1:
        raise ValueError("need refine >= 1")
    cx = complex_for(t, m, cx)
    n_vm = cx.num_vertices_at(m)
    c, v_a, v_b, th_a, sweep = _arc_pieces(cx, m)

    # each piece is split into ``refine`` equal-angle segments; new points
    # get ids in piece order
    r, dt = cx.radii[c], sweep / refine
    length = r * dt
    th = th_a[:, None] + np.arange(1, refine) * dt[:, None]
    points = np.empty((n_vm + th.size, 2))
    points[:n_vm] = cx.points[:n_vm]
    new = points[n_vm:].reshape(*th.shape, 2)
    for axis, trig in enumerate((np.cos, np.sin)):  # center + r * trig(th)
        val = trig(th)
        val *= r[:, None]
        np.add(cx.centers[c, axis, None], val, out=new[..., axis])
    del th, val  # the angle grid is not needed past here
    ids = index_dtype(len(points))
    edges = np.empty((len(c), refine, 2), dtype=ids)  # row k: the chain of piece k
    edges[:, 0, 0], edges[:, -1, 1] = v_a, v_b
    edges[:, 1:, 0] = np.arange(n_vm, len(points), dtype=ids).reshape(new.shape[:2])
    edges[:, :-1, 1] = edges[:, 1:, 0]
    return ArcNetwork(
        points=points,
        edges=edges.reshape(-1, 2),
        conductance=np.repeat(r / length, refine),
        edge_mass=np.repeat(r * length, refine),
        refine=refine,
        n_vm=n_vm,
    )


def _arc_pieces(cx: GasketComplex, m: int):
    """The arc pieces of the depth-m network: per piece, its circle, first
    and last V_m point, start angle and sweep, pieces in id order."""
    n_vm = cx.num_vertices_at(m)
    # every V_m point lies on the two circles of its pair
    cid = cx.vertex_pairs[:n_vm].ravel()
    vid = np.repeat(np.arange(n_vm, dtype=index_dtype(n_vm)), 2)
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
        pieces.append((np.full(len(v) - 1, j, dtype=cid.dtype), v[:-1], v[1:], start + off[:-1],
                       np.diff(off)))

    # inscribed circles created strictly above depth m (ids below
    # 3 + (3^m - 1)/2) are full circles, split at their vertices in angle order
    keep = (cid >= 3) & (cid < 3 + _cells_above(m))
    c, v, th = cid[keep], vid[keep], theta[keep]
    order = np.lexsort((v, th, c))
    c, v, th = c[order], v[order], th[order]
    nxt = np.arange(1, len(c) + 1)  # the last vertex on a circle wraps to its first
    nxt[np.flatnonzero(np.diff(c, append=-1))] = np.flatnonzero(np.diff(c, prepend=-1))
    pieces.append((c, v, v[nxt], th, np.mod(th[nxt] - th, TWO_PI)))
    return tuple(np.concatenate(x) for x in zip(*pieces))


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


# relative slack allowed on each side of the comparison inequalities
SECTOR_SLACK = 1e-6


@dataclass
class SectorCheckReport:
    arc_gradient: float  # integral of |grad_C u|^2 rad dH^1
    arc_l2: float  # integral of u^2 rad dH^1
    sector_gradient: float  # integral over the sector of |grad I_a u|^2
    sector_l2: dict  # a -> integral over the sector of (I_a u)^2
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
        mean=mean,
        w12_ok=w12_ok,
        l2_ok=l2_ok,
    )
