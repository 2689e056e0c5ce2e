"""Per-item reference implementations of the gasket complex, the circle count,
the arc network and the stiffness matrix, kept as oracles for the
array-at-a-time code.

These are the scalar algorithms the package used before it built one
generation at a time: a per-cell breadth-first builder that calls the scalar
inscribed-disk and tangency-point constructions once per cell, a depth-first
counting walk, an arc network assembled from a dict of incidences, one
segment per Python iteration, and a stiffness matrix converted from four
coordinate entries per edge.  The carpet orbit and its separation come from
KD-tree neighbour queries (``scipy.spatial.cKDTree``).  The equivalence
tests compare the arrays bit for bit.  The subdivision census counts come
from full eigensolves, each census cell's pencil rebuilt from its child
triple; those are compared count for count.  The trace compatibility tests
take the minimum energy under boundary data from one sparse solve.
"""

from __future__ import annotations

import cmath
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from gasketlab import geom, spectra
from gasketlab.carpet import SEPARATION_EPS_CAP, CircleOrbit, GroupConfig, generators
from gasketlab.errors import BudgetExceeded, NotTangent, NumericBreakdown, TwoHalfPlanes
from gasketlab.forms import Network
from gasketlab.gasket import LETTERS, build_complex, check_word, child_quad
from gasketlab.geom import (
    _AMBIENT_EPS,
    GEOM_RTOL,
    DiskTriple,
    GeneralizedDisk,
    _circumcircle,
    circumscribed_disk,
)

TWO_PI = 2.0 * math.pi


def tangency_point(d1: GeneralizedDisk, d2: GeneralizedDisk, rtol: float = GEOM_RTOL):
    """Scalar common boundary point of two externally tangent members."""
    if not d1.is_disk and not d2.is_disk:
        raise TwoHalfPlanes("tangency point of two half-planes is not defined")
    if d1.is_disk and d2.is_disk:
        (x1, y1), r1 = d1.center, d1.radius
        (x2, y2), r2 = d2.center, d2.radius
        dist = math.hypot(x2 - x1, y2 - y1)
        ambient = abs(x1) + abs(y1) + abs(x2) + abs(y2) + r1 + r2
        if abs(dist - (r1 + r2)) > rtol * max(r1, r2) + _AMBIENT_EPS * ambient:
            raise NotTangent(f"boundary gap {dist - (r1 + r2):.3e} exceeds tolerance")
        s = 1.0 / (r1 + r2)
        return ((r2 * x1 + r1 * x2) * s, (r2 * y1 + r1 * y2) * s)
    if d2.is_disk:
        d1, d2 = d2, d1
    (cx, cy), r = d1.center, d1.radius
    nx, ny = d2.normal
    signed = cx * nx + cy * ny - d2.offset
    ambient = abs(cx) + abs(cy) + abs(d2.offset) + r
    if abs(signed - r) > rtol * r + _AMBIENT_EPS * ambient:
        raise NotTangent(f"disk/half-plane gap {signed - r:.3e} exceeds tolerance")
    return (cx - r * nx, cy - r * ny)


def inscribed_disk(t: DiskTriple, residual_rtol: float = 1e-6) -> GeneralizedDisk:
    """Scalar trilateration in the frame of the smallest member disk."""
    a, b, c, kappa = t.quad
    k_in = a + b + c + 2.0 * kappa
    r_in = 1.0 / k_in

    disk_slots = [j for j in range(3) if t.disks[j].is_disk]
    i0 = min(disk_slots, key=lambda j: t.disks[j].radius)
    disk_slots.remove(i0)
    disk_slots.insert(0, i0)
    (ox, oy), r0 = t.disks[i0].center, t.disks[i0].radius

    rows = []
    rhs = []
    for j in range(3):
        if not t.disks[j].is_disk:
            nx, ny = t.disks[j].normal
            rows.append((nx, ny))
            rhs.append(t.disks[j].offset + r_in - (ox * nx + oy * ny))
    for j in disk_slots[1:]:
        (xj, yj), rj = t.disks[j].center, t.disks[j].radius
        dx, dy = xj - ox, yj - oy
        rows.append((2.0 * dx, 2.0 * dy))
        rhs.append(dx * dx + dy * dy + (r_in + r0) ** 2 - (r_in + rj) ** 2)
        if len(rows) == 2:
            break
    (a11, a12), (a21, a22) = rows[0], rows[1]
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        raise NumericBreakdown("trilateration system is singular")
    ux = (rhs[0] * a22 - rhs[1] * a12) / det
    uy = (a11 * rhs[1] - a21 * rhs[0]) / det
    zx, zy = ox + ux, oy + uy

    for j in range(3):
        dj = t.disks[j]
        if dj.is_disk:
            resid = math.hypot(
                ux - (dj.center[0] - ox), uy - (dj.center[1] - oy)
            ) - (r_in + dj.radius)
        else:
            resid = (zx * dj.normal[0] + zy * dj.normal[1] - dj.offset) - r_in
        if abs(resid) > residual_rtol * r_in + _AMBIENT_EPS * (abs(ox) + abs(oy) + 1.0):
            raise NumericBreakdown(f"tangency residual {resid:.3e} exceeds {residual_rtol:g}*r_in")

    if t.is_bounded:
        o = complex(ox, oy)
        z1, z2, z3 = (complex(*d.center) - o for d in t.disks)
        root = cmath.sqrt(a * b * z1 * z2 + b * c * z2 * z3 + c * a * z3 * z1)
        base = a * z1 + b * z2 + c * z3
        z_loc = complex(ux, uy)
        err = min(abs((base + 2 * root) / k_in - z_loc), abs((base - 2 * root) / k_in - z_loc))
        if err > residual_rtol * r_in + _AMBIENT_EPS * (abs(ox) + abs(oy) + 1.0):
            raise NumericBreakdown(f"Descartes cross-check off by {err:.3e}")

    return GeneralizedDisk(curvature=k_in, center=(zx, zy), radius=r_in)


@dataclass(frozen=True)
class Cell:
    word: str
    vertex_ids: tuple[int, int, int]
    quad: tuple[float, float, float, float]
    circle_ids: tuple[int, int, int]
    area: float
    inscribed_circle: int


@dataclass(frozen=True)
class CircleRecord:
    kind: str
    disk: GeneralizedDisk
    word: str


def _child_area(disks) -> float:
    if not all(d.is_disk for d in disks):
        return math.nan
    (x1, y1), (x2, y2), (x3, y3) = (d.center for d in disks)
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


class LegacyComplex:
    """Per-cell breadth-first builder: one scalar inscribed disk per cell."""

    def __init__(self, root: DiskTriple, depth: int):
        self.root = root
        self.depth = depth
        self.points = []
        self.vertex_pairs = []
        self.circles = []
        self.cells_by_depth = [[] for _ in range(depth + 1)]
        self._build()

    def _add_vertex(self, p, pair):
        self.points.append(p)
        self.vertex_pairs.append(pair)
        return len(self.points) - 1

    def _build(self):
        root = self.root
        for d in root.disks:
            self.circles.append(CircleRecord("outer", d, ""))
        q_ids = tuple(
            self._add_vertex(root.q[j], ((j + 1) % 3, (j + 2) % 3)) for j in range(3)
        )
        frontier = [("", root.disks, (0, 1, 2), q_ids, root.quad, _child_area(root.disks))]
        for level in range(self.depth + 1):
            next_frontier = []
            for word, disks, cids, qids, quad, area in frontier:
                q_pts = tuple(self.points[i] for i in qids)
                d_in = inscribed_disk(DiskTriple(disks=tuple(disks), q=q_pts, quad=quad))
                if level == self.depth:
                    self.cells_by_depth[level].append(Cell(word, qids, quad, cids, area, -1))
                    continue
                cid_in = len(self.circles)
                self.circles.append(CircleRecord("inscribed", d_in, word))
                self.cells_by_depth[level].append(Cell(word, qids, quad, cids, area, cid_in))
                p_ids = tuple(
                    self._add_vertex(tangency_point(d_in, disks[j]), (cids[j], cid_in))
                    for j in range(3)
                )
                child_members = (
                    ((d_in, disks[1], disks[2]), (cid_in, cids[1], cids[2]),
                     (qids[0], p_ids[2], p_ids[1])),
                    ((disks[0], d_in, disks[2]), (cids[0], cid_in, cids[2]),
                     (p_ids[2], qids[1], p_ids[0])),
                    ((disks[0], disks[1], d_in), (cids[0], cids[1], cid_in),
                     (p_ids[1], p_ids[0], qids[2])),
                )
                for j in range(3):
                    cdisks, ccids, cqids = child_members[j]
                    next_frontier.append(
                        (word + LETTERS[j], cdisks, ccids, cqids,
                         child_quad(quad, LETTERS[j]), _child_area(cdisks))
                    )
            frontier = next_frontier

    def num_vertices_at(self, m: int) -> int:
        if m >= self.depth:
            return len(self.points)
        return 3 + 3 * (3**m - 1) // 2

    def cells(self, m: int):
        return self.cells_by_depth[m]


def count_profile(t: DiskTriple, grid, cap: int = 10**8):
    """Counting function on a sorted grid from a single pruned DFS."""
    grid = sorted(float(x) for x in grid)
    lam_max = grid[-1]
    hist = [0] * len(grid)
    total = 0
    stack = [t.quad]
    while stack:
        a, b, c, k = stack.pop()
        cin = a + b + c + 2.0 * k
        if cin > lam_max:
            continue
        hist[bisect_left(grid, cin)] += 1
        total += 1
        if total > cap:
            raise BudgetExceeded(f"count exceeded cap {cap}")
        stack.append((cin, b, c, k + b + c))
        stack.append((a, cin, c, k + a + c))
        stack.append((a, b, cin, k + a + b))
    counts = []
    acc = 0
    for h in hist:
        acc += h
        counts.append(acc)
    return list(zip(grid, counts))


def _pick_arc(center, radius, theta_a, theta_b, sel_center, sel_radius):
    sweep1 = (theta_b - theta_a) % TWO_PI
    for start, sweep in ((theta_a, sweep1), (theta_b, TWO_PI - sweep1)):
        mid = start + 0.5 * sweep
        mx = center[0] + radius * math.cos(mid)
        my = center[1] + radius * math.sin(mid)
        if math.hypot(mx - sel_center[0], my - sel_center[1]) < sel_radius:
            return start, sweep
    raise ValueError("neither candidate arc faces the ideal triangle")


def cell_arc_lengths(cx: LegacyComplex, cell) -> tuple[float, float, float]:
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


def assemble_arc_fem(t: DiskTriple, m: int, refine: int, cx: LegacyComplex):
    """Arc network from dict incidences, one emitted segment per iteration.

    Returns (points, edges, conductance, edge_mass, arc_ids).
    """
    n_vm = cx.num_vertices_at(m)

    incident: dict[int, list[int]] = {}
    for vid in range(n_vm):
        for cid in cx.vertex_pairs[vid]:
            incident.setdefault(cid, []).append(vid)

    cir = circumscribed_disk(t)
    points = list(cx.points[:n_vm])
    ends, radius, length, arc_ids = [], [], [], []

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
    return (np.array(points), np.array(ends, dtype=int).reshape(-1, 2), r / l, r * l,
            np.array(arc_ids))


def stiffness(net) -> sp.csr_matrix:
    """Stiffness of a network through a COO of four entries per edge, which
    ``tocsr`` sums: -c at (i, j) and (j, i), +c at (i, i) and (j, j)."""
    rows = net.edges[:, [0, 1, 0, 1]].ravel()
    cols = net.edges[:, [1, 0, 0, 1]].ravel()
    vals = np.outer(net.conductance, [-1.0, -1.0, 1.0, 1.0]).ravel()
    n = net.n_vertices
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def enumerate_circles(cfg: GroupConfig, min_radius: float, cap: int = 10**7) -> CircleOrbit:
    """Breadth-first carpet orbit, deduplicated by KD-tree queries on
    (Re c, Im c, r): the nearest generation g-2 circle within 2e-9, and all
    pairs of generation g images within 2e-9.  Images are laid out
    generator-major, so of two matching images the one kept is the copy
    made by the lowest generator."""
    gens = generators(cfg)
    tol = 1e-9

    def matches(c, r, c0, r0):
        return (np.abs(c - c0) <= tol) & (np.abs(r - r0) <= tol)

    def points(c, r):
        return np.column_stack([c.real, c.imag, r])

    layers = [(np.zeros(1, dtype=complex), np.ones(1))]
    stored = 0
    while len(layers[-1][1]):
        c, r = layers[-1]
        images = [g(c, r) for g in gens]
        ic = np.concatenate([im[0] for im in images])
        ir = np.concatenate([im[1] for im in images])
        fresh = ~matches(ic, ir, np.tile(c, 4), np.tile(r, 4))
        if len(layers) >= 2:
            c2, r2 = layers[-2]
            _, j = cKDTree(points(c2, r2)).query(
                points(ic, ir), distance_upper_bound=2.0 * tol
            )
            hit = j < len(r2)
            fresh[hit] &= ~matches(ic[hit], ir[hit], c2[j[hit]], r2[j[hit]])
        ic, ir = ic[fresh], ir[fresh]
        a, b = cKDTree(points(ic, ir)).query_pairs(2.0 * tol, output_type="ndarray").T
        fresh = np.ones(len(ir), dtype=bool)
        fresh[b[matches(ic[a], ir[a], ic[b], ir[b])]] = False
        keep = fresh & (ir >= min_radius)
        layers.append((ic[keep], ir[keep]))
        stored += int(keep.sum())
        if stored > cap:
            raise BudgetExceeded(f"orbit exceeded {cap} circles")

    body = layers[1:]
    centers = np.concatenate([c for c, _ in body])
    radii = np.concatenate([r for _, r in body])
    gens = np.repeat(np.arange(1, len(layers)), [len(r) for _, r in body])
    order = np.lexsort((centers.imag, centers.real, -radii))
    return CircleOrbit(cfg, min_radius, centers[order], radii[order], gens[order])


def separation_stats(o: CircleOrbit):
    """Smallest gap/min(radius) over the pairs found by one KD-tree ball query
    of radius (2 + SEPARATION_EPS_CAP) r per circle, each pair seen from its
    larger circle (the lower index on ties)."""
    n = len(o)
    if n < 2:
        raise ValueError("need at least two circles")
    pts = np.column_stack([o.centers.real, o.centers.imag])
    radii = o.radii
    hits = cKDTree(pts).query_ball_point(pts, (2.0 + SEPARATION_EPS_CAP) * radii)
    sizes = np.fromiter(map(len, hits), dtype=np.intp, count=n)
    i = np.repeat(np.arange(n), sizes)
    j = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=int(sizes.sum()))
    r_i, r_j = radii[i], radii[j]
    keep = (j != i) & ((r_j < r_i) | ((r_j == r_i) & (j > i)))
    i, j, r_i, r_j = i[keep], j[keep], r_i[keep], r_j[keep]
    if not len(i):
        return math.inf, 0
    d = np.hypot(pts[j, 0] - pts[i, 0], pts[j, 1] - pts[i, 1])
    eps_vals = (d - r_i - r_j) / np.minimum(r_i, r_j)
    return float(eps_vals.min()), len(i)


def apply_word(t: DiskTriple, w: str) -> DiskTriple:
    """The triple of cell w: each letter j in turn replaces member j by the
    inscribed disk, built by ``geom.inscribed_disk`` with the bits of the
    array builders."""
    for ch in check_word(w):
        members = list(t.disks)
        members[int(ch) - 1] = geom.inscribed_disk(t)
        t = geom.validate_triple(*members)
    return t


def census_counts(t: DiskTriple, lam: float, truncation: int, depth: int):
    """The subdivision census by eigensolves: #{eigenvalues <= lam} of the
    parent trace pencil at ``depth``, of the parent with the census vertices
    fixed, and rows (word, child depth, n_free, count) for each census cell w,
    whose pencil is built from the child triple ``apply_word(t, w)`` at depth
    ``depth - len(w)``."""
    T = min(truncation, spectra.n_lambda_of(t.quad, lam))

    def count(evp, allow_disconnected=False):
        if evp.n_free == 0:
            return 0
        lams = spectra.solve(evp, allow_disconnected=allow_disconnected).eigenvalues
        return int(np.sum(lams <= lam))

    cx = build_complex(t, depth)
    parent = count(spectra.evp_from_trace(t, depth, cx=cx))
    fixed = tuple(spectra._census_vertex_ids(cx, T))
    vl = count(spectra.evp_from_trace(t, depth, dirichlet=fixed, cx=cx), allow_disconnected=True)
    rows = []
    for w in spectra.census_index_set(T):
        evp = spectra.evp_from_trace(apply_word(t, w), depth - len(w))
        rows.append((w, depth - len(w), evp.n_free, count(evp)))
    return parent, vl, rows


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
