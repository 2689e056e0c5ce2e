"""Generalized eigenproblems K u = lambda M u for the discrete energy forms.

Small problems go through a dense full tridiagonalization solved by LAPACK's
divide-and-conquer driver (``syevd``), the fastest one when every
eigenvector is wanted; it overwrites our own Fortran-order copy of the
pencil, so f2py makes no second n x n copy.  Above the dense threshold a
shift-invert Lanczos path computes spectrum slices.  Their bounds are
placed by bisection on sparse Sylvester inertia counts of K - sigma M, and
the same counts certify each slice complete at every size; every reported
pair carries a residual certificate, computed in column blocks.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import (
    AboveTrustCeiling,
    DegenerateShift,
    Disconnected,
    InsufficientSpectrum,
    InterlacingViolation,
    NotConverged,
)
from .forms import assemble_arc_fem, assemble_mass_trace, assemble_trace_form
from .gasket import apply_word, build_complex, index_set_I, word_index
from .geom import DiskTriple, transform_triple

# Dense (syevd) against sliced solve time in s, unit triple, one BLAS thread
# on a 2-core Xeon, one run each (BENCH_7.json):
#   n_free 1,092 (trace m=6):        k=100 0.29 / 0.14, k=300 0.29 / 0.57, k=1000 0.29 / 2.65
#   n_free 1,821 (arc FEM m=5, r=3): k=100 1.32 / 0.20, k=300 1.27 / 0.79, k=1000 1.23 / 3.84
#   n_free 3,279 (trace m=7):        k=100 6.28 / 0.42, k=300 6.16 / 1.41, k=1000 6.05 / 5.89
# The crossover lies near k = 0.15-0.3 n_free, so a rule in n alone sends
# small-k requests below the threshold through the slower dense path; it
# stays until a rule in n and k shows a gain on a workload.
DENSE_THRESHOLD = 3000
SLICE_SIZE = 220  # eigenvalues aimed at per shift-invert slice
RESIDUAL_RTOL = 1e-8
RESIDUAL_BLOCK = 128  # eigenvector columns per block of the residual certificate
PIVOT_RTOL = 1e-12  # min/max |pivot| below this: the shift sits on an eigenvalue
BOUND_CLUSTER_RTOL = 1e-10  # a computed eigenvalue this close moves a slice bound
BOUND_STEP_RTOL, BOUND_MOVES = 1e-8, 4  # first move of a bound (x10 per further move), cap


@dataclass
class GeneralizedEVP:
    stiffness: sp.csr_matrix
    mass: np.ndarray
    boundary: tuple[int, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.stiffness.shape[0]
        if self.stiffness.shape != (n, n):
            raise ValueError("stiffness must be square")
        if self.mass.shape != (n,):
            raise ValueError("mass must be a diagonal vector")
        if any(i < 0 or i >= n for i in self.boundary):
            raise ValueError("boundary indices out of range")
        if len(set(self.boundary)) != len(self.boundary):
            raise ValueError("boundary indices repeat")

    @property
    def n_total(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_free(self) -> int:
        return self.n_total - len(self.boundary)


def evp_from_trace(t: DiskTriple, m: int, dirichlet="v0", mass_scheme="mu", cx=None):
    if cx is None:
        cx = build_complex(t, m)
    form = assemble_trace_form(t, m, cx)
    mass = assemble_mass_trace(t, m, cx, scheme=mass_scheme)
    boundary = _resolve_boundary(dirichlet, form.n_vertices)
    return GeneralizedEVP(
        stiffness=form.stiffness(),
        mass=mass.values,
        boundary=boundary,
        meta={"scheme": "trace", "depth": m, "mass_scheme": mass_scheme},
    )


def evp_from_arc_fem(t: DiskTriple, m: int, refine: int, dirichlet="v0", cx=None):
    net = assemble_arc_fem(t, m, refine, cx)
    boundary = _resolve_boundary(dirichlet, net.n_vertices)
    return GeneralizedEVP(
        stiffness=net.stiffness(),
        mass=net.mass_vector().values,
        boundary=boundary,
        meta={"scheme": "arcfem", "depth": m, "refine": refine},
    )


def _resolve_boundary(dirichlet, n) -> tuple[int, ...]:
    if dirichlet is None or dirichlet == "none":
        return ()
    if dirichlet == "v0":
        return (0, 1, 2)
    return tuple(sorted({int(i) for i in dirichlet}))


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    meta: dict

    def __len__(self):
        return len(self.eigenvalues)

    def to_json(self) -> dict:
        return {
            "scheme": self.meta.get("scheme", "custom"),
            "depth": self.meta.get("depth"),
            "boundary": list(self.meta.get("boundary", ())),
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "normalization": "laplacian",  # plain eigenvalues, not square roots
            "n_free": self.meta.get("n_free"),
            "method": self.meta.get("method"),
            "residual_max": self.meta.get("residual_max"),
            "inertia_verified": self.meta.get("inertia_verified"),
        }


def _free_pencil(evp: GeneralizedEVP, allow_disconnected: bool):
    n = evp.n_total
    free = np.setdiff1d(np.arange(n), np.asarray(evp.boundary, dtype=int))
    K = evp.stiffness.tocsr()[free][:, free].tocsr()
    d = evp.mass[free]
    if np.any(d <= 0.0):
        raise ValueError("mass must be strictly positive on free vertices")
    n_comp = csgraph.connected_components(K, directed=False)[0]
    if n_comp > 1 and not allow_disconnected:
        raise Disconnected(f"free graph splits into {n_comp} components", n_comp)
    s = 1.0 / np.sqrt(d)
    A = sp.diags(s) @ K @ sp.diags(s)
    A = ((A + A.T) * 0.5).tocsr()
    return free, K, d, A


def _gershgorin_upper(A: sp.csr_matrix) -> float:
    if A.shape[0] == 0:
        return 0.0
    absA = abs(A)
    return float(absA.sum(axis=1).max())


def _residual_max(K, d, lams, Y, s):
    """max over pairs of ||K v - lam M v|| / ||v|| with v = D^{-1/2} y.

    The k columns are taken in ceil(k / RESIDUAL_BLOCK) near-equal blocks, so
    the temporaries are n x RESIDUAL_BLOCK at most rather than n x k.  Each
    column's norm is summed alone and in the same order as in one n x k
    block, so the result is bit-identical to it.  No block is a single
    column unless k = 1: numpy sums a lone column's norm pairwise instead.
    """
    k = len(lams)
    if k == 0:
        return 0.0
    n_blocks = -(-k // RESIDUAL_BLOCK)
    edges = [k * i // n_blocks for i in range(n_blocks + 1)]
    worst = 0.0
    for a, b in zip(edges, edges[1:]):
        V = Y[:, a:b] * s[:, None]
        R = K @ V - (d[:, None] * V) * lams[None, a:b]
        worst = max(worst, float(np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0))))
    return worst


def count_below(A: sp.csr_matrix, sigma: float) -> int:
    """Number of eigenvalues of A strictly below sigma (Sylvester inertia).

    SuperLU factors A - sigma I symmetrically with diagonal pivots only, so
    U = D L^T and the negative pivots are the count.  ``DegenerateShift`` is
    raised instead for a singular factor, an off-diagonal pivot, or a pivot
    below ``PIVOT_RTOL`` times the largest.
    """
    B = (A - sigma * sp.identity(A.shape[0], format="csr")).tocsc()
    try:
        lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise DegenerateShift(f"no inertia at shift {sigma!r}: {exc}") from None
    pivots = lu.U.diagonal()
    size = np.abs(pivots)
    if not np.array_equal(lu.perm_r, lu.perm_c) or size.min() < PIVOT_RTOL * size.max():
        raise DegenerateShift(f"no inertia at shift {sigma!r}: pivot off-diagonal or tiny")
    return int(np.count_nonzero(pivots < 0.0))


def solve(
    evp: GeneralizedEVP,
    how_many: int | None = None,
    allow_disconnected: bool = False,
    seed: int = 0,
) -> Spectrum:
    """Lowest eigenvalues of the pencil (K, diag(mass)) on the free vertices.

    ``how_many=None`` returns the full spectrum.  Problems with at most
    ``DENSE_THRESHOLD`` free vertices (the module constant, read at call
    time), and any full-spectrum request, are solved by dense divide and
    conquer (LAPACK ``syevd``) on a Fortran-order copy of the pencil that
    LAPACK overwrites, which saves the copy f2py would make of a C-order
    array; larger partial requests go through
    shift-invert Lanczos slices whose completeness is verified by sparse
    inertia counts.  Either way ``meta["inertia_verified"]`` is True; the
    sliced path also records its slices under ``meta["slices"]``.
    """
    if how_many is not None and how_many < 0:
        raise ValueError(f"how_many must be non-negative, got {how_many}")
    free, K, d, A = _free_pencil(evp, allow_disconnected)
    n = len(free)
    s = 1.0 / np.sqrt(d)
    k = n if how_many is None else min(int(how_many), n)
    lam_scale = _gershgorin_upper(A)

    meta = dict(evp.meta)
    meta.update({"boundary": tuple(evp.boundary), "n_free": n})
    meta["method"] = "dense" if n <= DENSE_THRESHOLD or k == n else "lanczos-shift-invert"

    if k == 0:  # nothing asked: no factorization on either path
        lams, Y = np.empty(0), np.empty((n, 0))
    elif meta["method"] == "dense":
        # the Fortran-order copy is ours: LAPACK may overwrite it, f2py copies nothing
        lams, Y = sla.eigh(A.toarray(order="F"), driver="evd", overwrite_a=True,
                           check_finite=False)
        lams = lams[:k]
        Y = Y[:, :k]
    else:
        lams, Y, meta["slices"] = _sliced_lanczos(A, k, lam_scale, seed)
    meta["inertia_verified"] = True

    res = _residual_max(K, d, lams, Y, s)
    meta["residual_max"] = res
    meta["lambda_scale"] = lam_scale
    if res > RESIDUAL_RTOL * max(lam_scale, 1e-300):
        raise NotConverged(
            f"residual {res:.3e} exceeds {RESIDUAL_RTOL:g} * lambda_max",
            partial=lams,
        )

    # snap the roundoff neighborhood of zero (the PSD pencil cannot dip below)
    tiny = 1e-12 * lam_scale
    if len(lams) and lams[0] < -tiny:
        raise NotConverged(f"negative eigenvalue {lams[0]:.3e} beyond roundoff", partial=lams)
    lams = np.where(np.abs(lams) <= tiny, 0.0, np.clip(lams, 0.0, None))
    spec = Spectrum(eigenvalues=np.sort(lams), meta=meta)
    meta["trust_ceiling"] = trust_ceiling(spec) if len(spec) else None
    return spec


def _moved(b: float, moves: list) -> float:
    """Step bound ``b`` up and log the move; give up after ``BOUND_MOVES``."""
    if len(moves) >= BOUND_MOVES:
        raise NotConverged(f"slice bound {b:.6e} still degenerate after {BOUND_MOVES} moves")
    moves.append([b, b + abs(b) * BOUND_STEP_RTOL * 10.0 ** len(moves)])
    return moves[-1][1]


def _clear_count(A: sp.csr_matrix, b: float, moves: list) -> tuple[float, int]:
    """(bound, count_below there), moving the bound up while the count refuses."""
    while True:
        try:
            return b, count_below(A, b)
        except DegenerateShift:
            b = _moved(b, moves)


def _split(lo: float, hi: float) -> float:
    """Bisection point of (lo, hi): geometric once ``lo`` is positive."""
    return math.sqrt(lo * hi) if lo > 0.0 else 0.5 * (lo + hi)


def _place_bounds(A: sp.csr_matrix, k: int, top: float) -> list[tuple[float, int, list]]:
    """Upper slice bounds for the k lowest eigenvalues, by bisection on the count.

    With S = ceil((k+1) / SLICE_SIZE) slices the targets are i * ceil((k+1) / S)
    and, last, k + 1.  Each bound is the lowest counted shift whose count
    reaches its target; the bracket between the nearest counted shifts is split
    until that count is at most ``step // 8`` above the target, or the bracket
    is too narrow (1e-4 relative) to hold a moved split point, or a split
    point cannot be counted even after its moves (it lies in the roundoff
    band of a cluster, such as the zero modes of a disconnected pencil): the
    slice then keeps the larger count of the nearest bound above.  The bracket
    starts as [-1e-12 top, top]: the pencil is semidefinite and ``top``
    bounds the spectrum; ``top`` is counted too, so every bound is a counted
    shift.  Returns (bound, count, moves) per target.
    """
    n_slices = math.ceil((k + 1) / SLICE_SIZE)
    step = math.ceil((k + 1) / n_slices)
    width = BOUND_STEP_RTOL * 10.0**BOUND_MOVES
    top_moves = []
    counted = [(-1e-12 * top, 0, []), (*_clear_count(A, top, top_moves), top_moves)]
    placed = []
    for target in [i * step for i in range(1, n_slices)] + [k + 1]:
        while True:
            j = bisect_left([c for _, c, _ in counted], target)
            (lo, _, _), (hi, count, _) = counted[j - 1], counted[j]
            if count <= target + step // 8 or hi - lo <= width * hi:
                break
            moves = []
            try:
                entry = (*_clear_count(A, _split(lo, hi), moves), moves)
            except NotConverged:  # the split lies in the roundoff band of a cluster
                break
            insort(counted, entry, key=lambda e: e[0])
        placed.append(counted[j])
    return placed


def _sliced_lanczos(A: sp.csr_matrix, k: int, top: float, seed: int):
    """Shift-invert ARPACK slices covering the k lowest eigenvalues.

    Bounds are placed by bisection on ``count_below`` (``_place_bounds``),
    so a slice must hold exactly the eigenvalues its two counts promise; the
    lowest bound, -1e-12 top, lies below the semidefinite spectrum.  A bound
    whose count is refused, or within ``BOUND_CLUSTER_RTOL`` of a computed
    eigenvalue, is moved up.  Returns the eigenpairs and per slice its
    bounds, count, last ``k`` requested, attempts and moves of ``hi``.
    """
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    v0 = np.ones(n) + 0.01 * rng.standard_normal(n)

    placed = _place_bounds(A, k, top)
    bounds = [-1e-12 * top] + [b for b, _, _ in placed]
    counts = [0] + [c for _, c, _ in placed]
    moves = [m for _, _, m in placed]

    slices, lams_all, vecs_all = [], [], []
    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        want = counts[i + 1] - counts[i]
        record = dict(lo=lo, hi=hi, count=want, k_requested=0, attempts=0, moves=moves[i])
        slices.append(record)
        if want <= 0:
            continue
        pad = 8
        for attempt in range(4):
            k_req = min(want + pad, n - 1)
            lam_i, y_i = spla.eigsh(A, k=k_req, sigma=0.5 * (lo + hi), which="LM", v0=v0,
                                    maxiter=5000)
            record.update(k_requested=k_req, attempts=attempt + 1)
            # never split a roundoff cluster at the top of the window
            while np.any(np.abs(lam_i - hi) <= BOUND_CLUSTER_RTOL * abs(hi)):
                hi, counts[i + 1] = _clear_count(A, _moved(hi, moves[i]), moves[i])
            bounds[i + 1] = record["hi"] = hi
            want = record["count"] = counts[i + 1] - counts[i]
            # half-open window matching the inertia difference #[lo, hi)
            sel = (lam_i >= lo) & (lam_i < hi)
            if int(sel.sum()) == want:
                break
            pad *= 4
        else:
            raise NotConverged(f"slice [{lo:.3e}, {hi:.3e}) kept missing eigenvalues",
                               partial=np.sort(np.concatenate([np.empty(0), *lams_all])))
        lams_all.append(lam_i[sel])
        vecs_all.append(y_i[:, sel])
        if counts[i + 1] >= k:
            break

    # kept slices hold exactly their counts and counts[-1] > k: k or more kept
    lams = np.concatenate(lams_all)
    Y = np.hstack(vecs_all)
    order = np.argsort(lams)[:k]
    return lams[order], Y[:, order], slices


# ---------------------------------------------------------------------------
# counting and Weyl fit


def counting(s: Spectrum, lam: float) -> int:
    """#{n : lambda_n <= lam} in the computed list (ties included)."""
    ceiling = trust_ceiling(s)
    if lam > ceiling:
        warnings.warn(
            f"counting at {lam:.4g} above the trust ceiling {ceiling:.4g}",
            AboveTrustCeiling,
        )
    return int(bisect_right(list(s.eigenvalues), lam))


def trust_ceiling(s: Spectrum) -> float:
    """Largest lambda at which the discrete counting is trusted.

    Only the lower half of a discrete spectrum approximates the continuum;
    with a partial solve the ceiling is the top computed eigenvalue if that
    comes first.
    """
    n_free = s.meta.get("n_free", len(s))
    idx = min(len(s) - 1, max(0, n_free // 2 - 1))
    return float(s.eigenvalues[idx])


@dataclass
class WeylFit:
    slope: float
    prefactor: float
    window: tuple[float, float]
    residual: float
    n_points: int


def weyl_fit(s: Spectrum) -> WeylFit:
    """Log-log slope of the eigenvalue counting function.

    Fits N(lambda_i) = i+1 against lambda_i for indices between 10% and 50%
    of the computed spectrum; the upper half is discarded because the
    discretization corrupts the top of the list, and the bottom decade is
    pre-asymptotic.
    """
    if len(s) < 200:
        raise InsufficientSpectrum("need at least 200 eigenvalues")
    n_max = len(s)
    i_lo = max(int(0.1 * n_max), 1)
    i_hi = int(0.5 * n_max)
    lam = s.eigenvalues[i_lo - 1 : i_hi]
    if lam[0] <= 0:
        raise InsufficientSpectrum("window reaches nonpositive eigenvalues")
    x = np.log(lam)
    y = np.log(np.arange(i_lo, i_hi + 1, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return WeylFit(
        slope=float(slope),
        prefactor=float(np.exp(intercept)),
        window=(float(lam[0]), float(lam[-1])),
        residual=resid,
        n_points=len(lam),
    )


# ---------------------------------------------------------------------------
# structural checks


@dataclass
class InterlacingReport:
    n_checked: int
    max_low_violation: float
    max_high_violation: float
    ok: bool


def interlacing_check(evp: GeneralizedEVP, V, rtol: float = 1e-9) -> InterlacingReport:
    """lambda_n <= lambda_n^V <= lambda_{n+#V} on a fixed discretization."""
    base = GeneralizedEVP(evp.stiffness, evp.mass, boundary=(), meta=dict(evp.meta))
    v_sorted = tuple(sorted(set(int(i) for i in V)))
    cons = GeneralizedEVP(evp.stiffness, evp.mass, boundary=v_sorted, meta=dict(evp.meta))
    # constraining V may split the graph; min-max interlacing still applies
    lam_free = solve(base, allow_disconnected=True).eigenvalues
    lam_v = solve(cons, allow_disconnected=True).eigenvalues
    nv = len(v_sorted)
    n = len(lam_v)
    scale = max(lam_free[-1], 1e-300)
    worst_lo = worst_hi = 0.0
    for i in range(n):
        worst_lo = max(worst_lo, lam_free[i] - lam_v[i])
        worst_hi = max(worst_hi, lam_v[i] - lam_free[i + nv])
        if lam_free[i] - lam_v[i] > rtol * max(lam_v[i], scale * 1e-6):
            raise InterlacingViolation(f"lower interlacing fails at n={i + 1}", i + 1)
        if lam_v[i] - lam_free[i + nv] > rtol * max(lam_free[i + nv], scale * 1e-6):
            raise InterlacingViolation(f"upper interlacing fails at n={i + 1}", i + 1)
    return InterlacingReport(
        n_checked=n, max_low_violation=worst_lo, max_high_violation=worst_hi, ok=True
    )


@dataclass
class ScalingReport:
    scale: float
    expected_ratio: float
    max_rel_error: float
    n_compared: int
    ok: bool


def scaling_check(
    t: DiskTriple,
    s: float,
    m: int = 4,
    scheme: str = "trace",
    refine: int = 4,
    n_eigs: int = 50,
    rtol: float = 1e-9,
) -> ScalingReport:
    """Spatial dilation by s must scale every eigenvalue by s^-2."""
    t2 = transform_triple(t, scale=s)
    if scheme == "trace":
        e1 = evp_from_trace(t, m)
        e2 = evp_from_trace(t2, m)
    else:
        e1 = evp_from_arc_fem(t, m, refine)
        e2 = evp_from_arc_fem(t2, m, refine)
    lam1 = solve(e1).eigenvalues
    lam2 = solve(e2).eigenvalues
    k = min(n_eigs, len(lam1), len(lam2))
    lam1, lam2 = lam1[:k], lam2[:k]
    expected = s ** (-2.0)
    denom = np.maximum(np.abs(lam1) * expected, 1e-300)
    err = float(np.max(np.abs(lam2 - lam1 * expected) / denom))
    return ScalingReport(
        scale=s, expected_ratio=expected, max_rel_error=err, n_compared=k, ok=err <= rtol
    )


# ---------------------------------------------------------------------------
# subdivision census (cell decomposition bound on the counting function)


def n_lambda_of(quad, lam: float) -> int:
    """Smallest n with (min pairwise curvature sum)^2 n^2 >= 40 lam."""
    a, b, c, _ = quad
    cg = min(b + c, c + a, a + b)
    n = max(1, math.ceil(math.sqrt(40.0 * lam) / cg))
    while n > 1 and cg * cg * (n - 1) * (n - 1) >= 40.0 * lam:
        n -= 1
    while cg * cg * n * n < 40.0 * lam:
        n += 1
    return n


def census_index_set(truncation: int) -> list[str]:
    """Pairwise non-nested cell addresses covering the gasket minus V_0."""
    words = [w for w in index_set_I(truncation - 1) if len(w) <= truncation]
    words += [j * truncation for j in "123"]
    return sorted(words)


@dataclass
class CensusRow:
    word: str
    child_depth: int
    n_free: int
    count: int


@dataclass
class CensusReport:
    lam: float
    n_lambda: int
    truncation: int
    effective_truncation: int
    tail_is_zero_certified: bool
    parent_count: int
    parent_vlambda_count: int
    child_sum: int
    vertex_count: int
    vertex_count_formula: int
    lower_bound_ok: bool
    upper_gap: int
    rows: list[CensusRow]

    def to_csv(self) -> str:
        lines = ["word,child_depth,n_free,count"]
        for r in self.rows:
            lines.append(f"{r.word},{r.child_depth},{r.n_free},{r.count}")
        lines.append(f"TOTAL,,,{self.child_sum}")
        lines.append(f"PARENT,,,{self.parent_count}")
        return "\n".join(lines) + "\n"


def _census_vertex_ids(cx, truncation: int) -> list[int]:
    """Sorted distinct vertex ids of the census cells of ``truncation`` in ``cx``."""
    words = census_index_set(truncation)
    return sorted({v for w in words for v in cx.vertex_ids[len(w)][word_index(w)].tolist()})


def census_vertices(t: DiskTriple, n: int):
    """Distinct tangency vertices of the census cells at tail depth n."""
    return _census_vertex_ids(build_complex(t, n), n)


def subdivision_census(
    t: DiskTriple,
    lam: float,
    truncation: int,
    depth: int | None = None,
    slack: int = 2,
) -> CensusReport:
    """Compare the parent eigenvalue count with the sum over census cells.

    Children are assembled at matched depth (parent depth minus the word
    length) so the constrained parent problem decomposes exactly; the lower
    bound sum <= parent count is asserted up to ``slack`` tie counts.  The
    remainder-term upper bound has a non-constructive constant and is
    reported as the observed gap only.
    """
    n_lam = n_lambda_of(t.quad, lam)
    T = min(truncation, n_lam)
    if depth is None:
        depth = T
    if depth < T:
        raise ValueError(f"depth {depth} must be at least the effective truncation {T}")

    cx = build_complex(t, depth)
    v_ids = _census_vertex_ids(cx, T)

    parent = solve(evp_from_trace(t, depth, dirichlet="v0", cx=cx))
    parent_count = int(np.sum(parent.eigenvalues <= lam))
    # constraining all census vertices decouples the cells by construction
    parent_vl = solve(
        evp_from_trace(t, depth, dirichlet=tuple(v_ids), cx=cx),
        allow_disconnected=True,
    )
    parent_vl_count = int(np.sum(parent_vl.eigenvalues <= lam))

    rows = []
    child_sum = 0
    for w in census_index_set(T):
        child_depth = depth - len(w)
        child = apply_word(t, w)
        evp = evp_from_trace(child, child_depth, dirichlet="v0")
        if evp.n_free == 0:
            rows.append(CensusRow(w, child_depth, 0, 0))
            continue
        spec = solve(evp)
        cnt = int(np.sum(spec.eigenvalues <= lam))
        child_sum += cnt
        rows.append(CensusRow(w, child_depth, evp.n_free, cnt))

    return CensusReport(
        lam=lam,
        n_lambda=n_lam,
        truncation=truncation,
        effective_truncation=T,
        tail_is_zero_certified=truncation >= n_lam,
        parent_count=parent_count,
        parent_vlambda_count=parent_vl_count,
        child_sum=child_sum,
        vertex_count=len(v_ids),
        vertex_count_formula=9 * T - 3,
        lower_bound_ok=child_sum <= parent_count + slack,
        upper_gap=parent_count - child_sum,
        rows=rows,
    )
