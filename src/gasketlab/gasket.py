"""Symbolic enumeration of gasket cells and circle counting.

Cells are addressed by words over the letters 1, 2, 3.  Replacing member j
of a triple by the inscribed disk gives child j; curvature quadruples evolve
by right-multiplication with the integer matrices ``M1``, ``M2``, ``M3``
(exact arithmetic, Python integers are unbounded).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InsufficientRange
# perfbench/tracing.py patches gasket.inscribed_disk; ROADMAP item 1 drops the name
from .geom import DiskTriple, inscribed_disk, inscribed_disks, tangency_points

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


def child_quad(quad, letter: str):
    """Quadruple of the child cell; O(1) closed form of one matrix factor.

    Elementwise on a quadruple of arrays, as the array builders use it."""
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


# ---------------------------------------------------------------------------
# the cell complex: vertices, cells per depth, circles


def _cells_above(j: int) -> int:
    """Number of cells of depth below j."""
    return (3**j - 1) // 2


def index_dtype(n: int) -> type:
    """The integer dtype of an array whose values lie in [-1, n]: int32
    while n fits in it, else int64.  For ``n`` = nnz this is scipy's own
    choice of sparse index type."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


# vertex slots of child j: it keeps the parent's q_j, and its other two slots
# take the parent's new points p_s (where the inscribed disk touches member s);
# entries index (q1, q2, q3, p1, p2, p3)
_CHILD_VERTICES = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])

# cells per inscribed-disk and tangency-point call of GasketComplex: the
# rows are independent, so the chunk changes no bit.  Unit triple, m=12: 2^12
# takes 0.57 s; 2^8 takes 1.2 s, and one call per level 0.69 s at a 352 MB
# traced peak (BENCH_20.json)
_DISK_CHUNK = 1 << 12


class GasketComplex:
    """Vertices, cells and circles of a gasket truncated at a fixed depth.

    Everything is stored as arrays, built one depth (generation) at a time.
    The 3^j cells of depth j are in lexicographic word order: cell i's word
    is i written in base 3 with j digits (digit d read as letter d+1), and its
    children are cells 3i, 3i+1, 3i+2 of depth j+1.  Per depth j:

    * ``quads[j]`` (3^j, 4): curvature quadruples, which also give each cell's
      area and arc lengths in closed form (``forms.assemble_mass_trace``);
    * ``vertex_ids[j]`` (3^j, 3): tangency points q1, q2, q3 of each cell.

    ``points`` (nV, 2) holds the vertices and ``vertex_pairs`` (nV, 2) the
    two circles each is tangent on.  Ids 0-2 are the root tangency points;
    the tangency point of cell i's inscribed disk with its member s, at depth
    j, has id 3 + 3(3^j - 1)/2 + 3i + s.  So the first 3 + 3(3^m - 1)/2 ids
    are exactly the depth-m vertex set V_m.

    ``centers`` (nC, 2) and ``radii`` (nC,) describe the circles.  Ids 0-2
    are the root members (a half-plane has radius inf and center nan); the
    inscribed disk of cell i at depth j < depth has id 3 + (3^j - 1)/2 + i.
    So the circles born above depth m are exactly ids 3 to 3 + (3^m - 1)/2.

    The integer arrays are built in ``index_dtype`` of their largest value
    (nV and nC), so int32 below 2^31 - 1 vertices.

    Inscribed disks and tangency points are computed ``_DISK_CHUNK`` cells
    at a time, so their temporaries stay bounded at every depth; each chunk's
    inscribed disks are checked before its own tangency points, and the
    deepest level's are only checked.  A cell's member circle ids are formed
    once per chunk from its parent's vertex pairs (``_members``), so no
    level's member ids are held whole.
    """

    def __init__(self, root: DiskTriple, depth: int):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.root = root
        self.depth = depth
        n_circles = 3 + _cells_above(depth)
        n_points = self.num_vertices_at(depth)
        self.centers = np.full((n_circles, 2), np.nan)
        self.radii = np.full(n_circles, np.inf)
        self.points = np.empty((n_points, 2))
        self.vertex_pairs = np.empty((n_points, 2), dtype=index_dtype(n_circles))
        self.quads, self.vertex_ids = [], []
        halfplane = None
        for j, d in enumerate(self.root.disks):
            if d.is_disk:
                self.centers[j], self.radii[j] = d.center, d.radius
            else:
                halfplane = (d.normal, d.offset)
        self.points[:3] = self.root.q
        self.vertex_pairs[:3] = ((1, 2), (2, 0), (0, 1))
        quads = np.array([self.root.quad])
        vids = np.array([[0, 1, 2]], dtype=index_dtype(n_points))
        for level in range(self.depth + 1):
            self.quads.append(quads)
            self.vertex_ids.append(vids)
            n = len(quads)
            blocks = [slice(s, min(s + _DISK_CHUNK, n)) for s in range(0, n, _DISK_CHUNK)]
            c_in = 3 + _cells_above(level)  # circle id of cell 0's inscribed disk
            p_in = 3 + 3 * _cells_above(level)  # vertex id of cell 0's p1
            # each chunk's inscribed disks are checked before its own tangency
            # points; the deepest ones are checked but not stored
            for rows in blocks:
                cids = self._members(level, rows)
                z, r_in, _ = inscribed_disks(quads[rows], self.centers[cids],
                                             self.radii[cids], halfplane)
                if level == self.depth:
                    continue
                c = slice(c_in + rows.start, c_in + rows.stop)
                v = slice(p_in + 3 * rows.start, p_in + 3 * rows.stop)
                self.centers[c], self.radii[c] = z, r_in
                self.points[v] = tangency_points(
                    z, r_in, self.centers[cids], self.radii[cids], halfplane
                ).reshape(-1, 2)
                pairs = self.vertex_pairs[v].reshape(-1, 3, 2)
                pairs[..., 0], pairs[..., 1] = cids, np.arange(c.start, c.stop)[:, None]
            if level == self.depth:
                break
            # child j replaces member j by the inscribed disk (``child_quad``)
            kids = np.empty((n, 3, 4))
            for j, letter in enumerate(LETTERS):
                for i, column in enumerate(child_quad(quads.T, letter)):
                    kids[:, j, i] = column
            quads = kids.reshape(-1, 4)
            pid = np.arange(p_in, p_in + 3 * n, dtype=vids.dtype).reshape(n, 3)
            vids = np.concatenate((vids, pid), axis=1)[:, _CHILD_VERTICES].reshape(-1, 3)

    def _members(self, level: int, rows: slice) -> np.ndarray:
        """Member circle ids (len, 3) of the depth-``level`` cells ``rows``.

        Child j of a cell has its parent's members, with member j replaced
        by the parent's inscribed disk; the parent's member s is the first
        circle of the pair of its tangency point p_s."""
        if level == 0:
            return np.array([[0, 1, 2]])
        lo, hi = rows.start // 3, -(-rows.stop // 3)  # the parents of ``rows``
        p = 3 + 3 * _cells_above(level - 1) + 3 * lo
        out = np.repeat(self.vertex_pairs[p:p + 3 * (hi - lo), 0].reshape(-1, 1, 3), 3, axis=1)
        out[:, [0, 1, 2], [0, 1, 2]] = 3 + _cells_above(level - 1) + np.arange(lo, hi)[:, None]
        return out.reshape(-1, 3)[rows.start - 3 * lo:rows.stop - 3 * lo]

    def num_vertices_at(self, m: int) -> int:
        """|V_m|, with m capped at the depth; ``ValueError`` for m < 0."""
        if m < 0:
            raise ValueError(f"depth must be nonnegative, got {m}")
        return 3 + 3 * _cells_above(min(m, self.depth))


def build_complex(t: DiskTriple, depth: int) -> GasketComplex:
    return GasketComplex(t, depth)


def cell_words(j: int) -> list[str]:
    """Words of the depth-j cells, in array order."""
    return ["".join(w) for w in itertools.product(LETTERS, repeat=j)]


_DIGITS = str.maketrans(LETTERS, "012")


def word_index(w: str) -> int:
    """Position of cell ``w`` in the arrays of depth len(w)."""
    return int(check_word(w).translate(_DIGITS) or "0", 3)


# ---------------------------------------------------------------------------
# circle counting


# cells per step of count_profile: within 5% of the fastest of 1 << 11 ...
# 1 << 15 at 60% of its traced peak, unit triple to 3e4*c0 (BENCH_19.json);
# every kept cell is counted once, so the chunk size cannot change a count
_COUNT_CHUNK = 1 << 12


def count_profile(t: DiskTriple, grid, cap: int = 10**8):
    """Counting function N(lam) on a sorted grid: the number of inscribed
    circles with curvature at most lam.

    The cells whose inscribed curvature is at most max(grid) form a subtree
    of the cell tree (a child's inscribed disk curves more than its parent's,
    and a pruned cell is never expanded).  That subtree is walked in chunks
    of at most ``_COUNT_CHUNK`` cells.  Kept cells wait as quadruple rows
    (a, b, c, k) in one last-in-first-out pool of blocks, whatever their
    depth.  Each step takes a chunk from the newest blocks and pushes its
    kept children as one block, so the wide middle of the tree goes depth
    first in full chunks, and the narrow cusp tails share chunks.  A step
    recomputes its cells' inscribed curvatures c_in with
    ``inscribed_curvature``, then each child's fourth member and c_in
    straight from the parent rows in the operation order of ``child_quad``
    (so a child's c_in has the same bits in both places), and gathers only
    the kept children.

    Every kept cell is counted once, whatever the traversal.  A cell counts
    against ``cap`` when it is found, and a found cell is already a kept
    cell, so ``BudgetExceeded`` is raised exactly when the subtree has more
    than ``cap`` cells.
    """
    grid = sorted(float(x) for x in grid)
    if not grid or not all(map(math.isfinite, grid)):
        raise ValueError(f"need a nonempty grid of finite values, got {grid!r}")
    top, edges = grid[-1], np.array(grid)
    counts = np.zeros(len(grid), dtype=np.int64)
    root = np.array(t.quad, dtype=float)[:, None]
    root = root[:, inscribed_curvature(root) <= top]
    total = root.shape[1]
    if total > cap:
        raise BudgetExceeded(f"count exceeded cap {cap}")
    pool, held = [root], total  # blocks of kept cells, newest last; cells in them
    while held:
        n = min(held, _COUNT_CHUNK)
        taken, got = [], 0
        while got < n:
            X = pool.pop()
            if got + X.shape[1] > n:
                cut = X.shape[1] - (n - got)
                pool.append(X[:, :cut].copy())
                X = X[:, cut:]
            taken.append(X)
            got += X.shape[1]
        held -= n
        X = taken[0] if len(taken) == 1 else np.concatenate(taken, axis=1)
        a, b, c, k = X
        cin = inscribed_curvature(X)
        counts += np.searchsorted(np.sort(cin), edges, side="right")  # cells with c_in <= lam
        # child j replaces member j by the inscribed disk (``child_quad``)
        k1, k2, k3 = k + b + c, k + a + c, k + a + b
        kids = ((k1, cin + b + c + 2.0 * k1), (k2, a + cin + c + 2.0 * k2),
                (k3, a + b + cin + 2.0 * k3))
        keep = [np.flatnonzero(cj <= top) for _, cj in kids]
        Y = X[:, np.concatenate(keep)]
        if not Y.shape[1]:
            continue
        total += Y.shape[1]
        if total > cap:
            raise BudgetExceeded(f"count exceeded cap {cap}")
        lo = 0
        for j, (idx, (kj, cj)) in enumerate(zip(keep, kids)):
            hi = lo + len(idx)
            Y[j, lo:hi], Y[3, lo:hi] = cin[idx], kj[idx]
            lo = hi
        pool.append(Y)
        held += Y.shape[1]
    return list(zip(grid, counts.tolist()))


def geometric_grid(lo: float, hi: float, n: int):
    if not 0 < lo < hi < math.inf or n < 2:
        raise ValueError(f"need finite 0 < lo < hi and n >= 2, got {lo!r}, {hi!r}, {n!r}")
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


@dataclass(frozen=True)
class PowerLawFit:
    """N ~ prefactor * lam**slope; ``residual`` is the RMS of the log residuals."""

    slope: float
    prefactor: float
    r_squared: float
    residual: float
    window: tuple[float, float]
    n_points: int


def fit_power_law(lam, counts) -> PowerLawFit:
    """Least-squares line through (log lam, log N) over the points with N > 0."""
    counts = np.asarray(counts, dtype=float)
    keep = counts > 0
    if keep.sum() < 2:
        raise InsufficientRange("not enough nonzero counting samples in the window")
    lam = np.asarray(lam, dtype=float)[keep]
    x, y = np.log(lam), np.log(counts[keep])
    slope, intercept = np.polyfit(x, y, 1)
    res2 = (y - (slope * x + intercept)) ** 2
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return PowerLawFit(
        slope=float(slope),
        prefactor=float(np.exp(intercept)),
        r_squared=1.0 - float(np.sum(res2)) / ss_tot if ss_tot > 0 else 1.0,
        residual=float(np.sqrt(np.mean(res2))),
        window=(float(lam[0]), float(lam[-1])),
        n_points=len(lam),
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
    lam, counts = np.array(samples, dtype=float).T
    half = len(samples) // 2  # fit_power_law then drops the zero counts left
    return fit_power_law(lam[half:], counts[half:])


def render_svg(t: DiskTriple, depth: int, stroke_width: float = 1.0) -> str:
    """SVG of the member circles plus all inscribed circles down to ``depth``,
    on ``svg.circles_svg``'s fixed canvas."""
    from .svg import circles_svg

    if depth < 0:  # the build is one level deeper, so -1 would pass it
        raise ValueError("depth must be nonnegative")
    cx = build_complex(t, depth + 1)
    disks = np.isfinite(cx.radii)
    circles = zip(*cx.centers[disks].T.tolist(), cx.radii[disks].tolist())
    return circles_svg(circles, stroke_width=stroke_width)


def cells_to_json(t: DiskTriple, depth: int) -> list[dict]:
    """Cell records (word, quadruple, inscribed disk) for interchange."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cx = build_complex(t, depth + 1)
    words = [w for j in range(depth + 1) for w in cell_words(j)]
    # the inscribed disks of the cells in word order are circles 3, 4, ...
    disks = slice(3, 3 + len(words))
    return [
        {"word": w, "quad": q, "inscribed": {"type": "disk", "center": c, "radius": r}}
        for w, q, c, r in zip(words, np.concatenate(cx.quads[: depth + 1]).tolist(),
                              cx.centers[disks].tolist(), cx.radii[disks].tolist())
    ]


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
