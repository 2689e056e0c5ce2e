"""Symbolic enumeration of gasket cells and circle counting.

Cells are addressed by words over the letters 1, 2, 3.  Replacing member j
of a triple by the inscribed disk gives child j; curvature quadruples evolve
by right-multiplication with the integer matrices ``M1``, ``M2``, ``M3``
(exact arithmetic, Python integers are unbounded).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import BudgetExceeded, InsufficientRange, NumericBreakdown
from .geom import (
    ALG_RTOL,
    DiskTriple,
    GeneralizedDisk,
    Point,
    circumscribed_disk,
    inscribed_disk,
    tangency_point,
    validate_triple,
)

LETTERS = "123"

M1 = ((1, 0, 0, 0), (1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1))
M2 = ((1, 1, 0, 1), (0, 1, 0, 0), (0, 1, 1, 1), (0, 2, 0, 1))
M3 = ((1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 0), (0, 0, 2, 1))
_LETTER_MATRIX = {"1": M1, "2": M2, "3": M3}

IDENTITY4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def check_word(w: str) -> str:
    if any(ch not in LETTERS for ch in w):
        raise ValueError(f"word {w!r} uses letters outside 1,2,3")
    return w


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def matrix_of(w: str):
    """Exact integer curvature matrix of a word (product in letter order)."""
    check_word(w)
    M = IDENTITY4
    for ch in w:
        M = _mat_mul(M, _LETTER_MATRIX[ch])
    return M


def in_gamma(quad, rtol: float = ALG_RTOL) -> bool:
    a, b, c, k = quad
    if k <= 0.0 or min(a, b, c) < 0.0:
        return False
    return abs(k * k - (b * c + c * a + a * b)) <= rtol * k * k


def quadruple_at(quad, w: str):
    """Right-multiply a curvature quadruple in Gamma by the word matrix."""
    if not in_gamma(quad):
        raise ValueError(f"quadruple {quad} is not in Gamma")
    M = matrix_of(w)
    a, b, c, k = quad
    out = tuple(a * M[0][j] + b * M[1][j] + c * M[2][j] + k * M[3][j] for j in range(4))
    if not in_gamma(out, rtol=1e-10):
        raise NumericBreakdown(f"kappa identity violated for word {w!r}")
    return out


def child_quad(quad, letter: str):
    """Quadruple of the child cell; O(1) closed form of one matrix factor."""
    a, b, c, k = quad
    d_in = a + b + c + 2.0 * k
    if letter == "1":
        return (d_in, b, c, k + b + c)
    if letter == "2":
        return (a, d_in, c, k + a + c)
    if letter == "3":
        return (a, b, d_in, k + a + b)
    raise ValueError(f"bad letter {letter!r}")


def inscribed_curvature(quad) -> float:
    a, b, c, k = quad
    return a + b + c + 2.0 * k


def phi(t: DiskTriple, letter: str) -> DiskTriple:
    """Replace member ``letter`` of the triple by its inscribed disk."""
    d_in = inscribed_disk(t)
    members = list(t.disks)
    members[int(check_word(letter)) - 1] = d_in
    return validate_triple(*members)


def apply_word(t: DiskTriple, w: str) -> DiskTriple:
    for ch in check_word(w):
        t = phi(t, ch)
    return t


# ---------------------------------------------------------------------------
# the cell complex: vertices, cells per depth, circles


@dataclass(frozen=True)
class Cell:
    word: str
    vertex_ids: tuple[int, int, int]  # q1, q2, q3 of the cell
    quad: tuple[float, float, float, float]
    circle_ids: tuple[int, int, int]  # member circles in slot order
    area: float  # center triangle area, nan for half-plane triples
    inscribed_circle: int  # circle id of the inscribed disk, -1 at max depth


@dataclass(frozen=True)
class CircleRecord:
    kind: str  # "outer" or "inscribed"
    disk: GeneralizedDisk
    word: str  # creating cell for inscribed circles, "" for outer members


class GasketComplex:
    """Vertices, cells and circles of a gasket truncated at a fixed depth.

    Vertex ids are assigned in creation order, so the first ``3 + 3*(3^m-1)/2``
    ids are exactly the depth-m vertex set V_m for every m up to the build
    depth.  Each vertex records the pair of circles it is tangent on.
    """

    def __init__(self, root: DiskTriple, depth: int):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.root = root
        self.depth = depth
        self.points: list[Point] = []
        self.vertex_pairs: list[tuple[int, int]] = []
        self.circles: list[CircleRecord] = []
        self.cells_by_depth: list[list[Cell]] = [[] for _ in range(depth + 1)]
        self._build()

    # -- construction ------------------------------------------------------

    def _add_vertex(self, p: Point, pair: tuple[int, int]) -> int:
        self.points.append(p)
        self.vertex_pairs.append(pair)
        return len(self.points) - 1

    def _build(self):
        # breadth-first in lexicographic word order, so vertex ids come out
        # grouped by birth level: ids below 3 + 3*(3^m - 1)/2 are exactly V_m
        root = self.root
        for j, d in enumerate(root.disks):
            self.circles.append(CircleRecord("outer", d, ""))
        q_ids = tuple(
            self._add_vertex(root.q[j], ((j + 1) % 3, (j + 2) % 3)) for j in range(3)
        )
        frontier = [("", root.disks, (0, 1, 2), q_ids, root.quad, _child_area(root.disks))]
        for level in range(self.depth + 1):
            next_frontier = []
            for word, disks, cids, qids, quad, area in frontier:
                q_pts = tuple(self.points[i] for i in qids)
                d_in = inscribed_disk(_quick_triple(disks, q_pts, quad))
                if level == self.depth:
                    self.cells_by_depth[level].append(Cell(word, qids, quad, cids, area, -1))
                    continue
                cid_in = len(self.circles)
                self.circles.append(CircleRecord("inscribed", d_in, word))
                self.cells_by_depth[level].append(
                    Cell(word, qids, quad, cids, area, cid_in)
                )
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
                        (
                            word + LETTERS[j],
                            cdisks,
                            ccids,
                            cqids,
                            child_quad(quad, LETTERS[j]),
                            _child_area(cdisks),
                        )
                    )
            frontier = next_frontier

    # -- queries -----------------------------------------------------------

    def num_vertices_at(self, m: int) -> int:
        if m >= self.depth:
            return len(self.points)
        return 3 + 3 * (3**m - 1) // 2

    def cells(self, m: int) -> list[Cell]:
        return self.cells_by_depth[m]


def _child_area(disks) -> float:
    if not all(d.is_disk for d in disks):
        return math.nan
    (x1, y1), (x2, y2), (x3, y3) = (d.center for d in disks)
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def _quick_triple(disks, q, quad) -> DiskTriple:
    # internal fast path: members come pre-validated from the recursion
    return DiskTriple(disks=tuple(disks), q=q, quad=quad)


def build_complex(t: DiskTriple, depth: int) -> GasketComplex:
    return GasketComplex(t, depth)


# ---------------------------------------------------------------------------
# circle counting


def count_profile(t: DiskTriple, grid, cap: int = 10**8):
    """Counting function N(lam) on a sorted grid, from a single pruned DFS."""
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


def geometric_grid(lo: float, hi: float, n: int):
    if lo <= 0 or hi <= lo or n < 2:
        raise ValueError("need 0 < lo < hi and n >= 2")
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def fit_power_law(samples, keep_from: int) -> PowerLawFit:
    pts = [(lam, n) for lam, n in samples if n > 0]
    pts = pts[keep_from:]
    if len(pts) < 2:
        raise InsufficientRange("not enough nonzero counting samples in the window")
    xs = [math.log(lam) for lam, _ in pts]
    ys = [math.log(n) for _, n in pts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(
        slope=slope,
        prefactor=math.exp(intercept),
        r_squared=r2,
        window=(pts[0][0], pts[-1][0]),
        n_points=len(pts),
    )


def fit_dimension(samples) -> PowerLawFit:
    """Least-squares dimension estimate from (lam, N(lam)) pairs.

    The lower half of the grid is pre-asymptotic and discarded; the slope of
    log N against log lam over the upper half estimates the packing exponent.
    """
    samples = sorted(samples)
    if len(samples) < 8:
        raise InsufficientRange("need at least 8 grid points")
    lo, hi = samples[0][0], samples[-1][0]
    if hi < 1e3 * lo:
        raise InsufficientRange("grid must span at least 3 decades")
    return fit_power_law(samples, keep_from=len(samples) // 2)


def render_svg(t: DiskTriple, depth: int, size: int = 800, stroke: str = "#1a1a1a",
               stroke_width: float = 1.0) -> str:
    """SVG of the member circles plus all inscribed circles down to ``depth``."""
    from .svg import circles_svg

    cx = build_complex(t, depth + 1)
    circles = [
        (d.disk.center[0], d.disk.center[1], d.disk.radius)
        for d in cx.circles
        if d.disk.is_disk
    ]
    return circles_svg(circles, size=size, stroke=stroke, stroke_width=stroke_width)


def cells_to_json(t: DiskTriple, depth: int) -> list[dict]:
    """Cell records (word, quadruple, inscribed disk) for interchange."""
    from .geom import disk_to_json

    cx = build_complex(t, depth + 1)
    out = []
    for level in range(depth + 1):
        for cell in cx.cells(level):
            rec = cx.circles[cell.inscribed_circle]
            out.append(
                {
                    "word": cell.word,
                    "quad": list(cell.quad),
                    "inscribed": disk_to_json(rec.disk),
                }
            )
    return out


# ---------------------------------------------------------------------------
# decomposition index set I = { j^n k : j != k }


def index_set_I(max_n: int) -> list[str]:
    out = []
    for n in range(1, max_n + 1):
        for j in LETTERS:
            for k in LETTERS:
                if j != k:
                    out.append(j * n + k)
    return out


def comparable(w: str, v: str) -> bool:
    """True when one word is a prefix of the other (cells are nested)."""
    m = min(len(w), len(v))
    return w[:m] == v[:m]


# ---------------------------------------------------------------------------
# geometric-hash vertex audit (validation oracle for the symbolic ids)


def audit_vertex_dedupe(cx: GasketComplex) -> int:
    """Re-deduplicate all vertices geometrically; return the resulting count.

    Independent of the symbolic identification used by the builder: hashes
    points on a grid of pitch 1e-9 times the root circumscribed diameter and
    merges anything closer than that.
    """
    tol = 1e-9 * 2.0 * circumscribed_disk(cx.root).radius
    grid: dict[tuple[int, int], list[int]] = {}
    kept: list[Point] = []
    for x, y in cx.points:
        ix, iy = round(x / tol), round(y / tol)
        found = None
        for nx in (ix - 1, ix, ix + 1):
            for ny in (iy - 1, iy, iy + 1):
                for idx in grid.get((nx, ny), ()):
                    px, py = kept[idx]
                    if math.hypot(px - x, py - y) <= tol:
                        found = idx
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            kept.append((x, y))
            grid.setdefault((ix, iy), []).append(len(kept) - 1)
    return len(kept)
