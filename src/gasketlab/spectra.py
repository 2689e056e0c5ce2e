"""Generalized eigenproblems K u = lambda M u for the discrete energy forms.

Requests for k >= DENSE_KN2 * n**2 of n eigenvalues go through a dense full
tridiagonalization solved by LAPACK's divide-and-conquer driver (``syevd``),
the fastest one when every eigenvector is wanted; it overwrites our own
Fortran-order copy of the pencil, so f2py makes no second n x n copy.
Smaller requests go through shift-invert Lanczos spectrum slices, whose
bounds are placed by count-guided splits on sparse Sylvester inertia counts
of K - sigma M; the same counts certify each slice complete at every size.

Both paths run on the symmetry blocks of the pencil.  A pencil with no
symmetry is the trivial group's one block, whose basis is the identity.
One with a mirror (an isosceles triple) splits into its even and odd
vectors, two blocks of about n/2.  One with a mirror and an order-3
rotation (the equilateral triple, such as the classical gasket, under a
rotation-invariant Dirichlet set) splits by the irreducible representations
of D3: A1 and A2 of about n/6 each and E of about n/3, whose eigenvalues
are those of the pencil twice over, so E is solved once and reported
twice.  Inertia adds over the blocks, so the sliced path places one bound
on the summed counts and then slices each block below it.  Only eigenvalues
are reported, with a residual certificate against the original K and mass
taken in column blocks, each mapped back through its block's basis only
when its turn comes, and on the sliced path slice by slice; no eigenvector
is returned, and neither path holds an n x k array of them.  The dense path
solves the largest block first, while no other block's eigenvectors are
held.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, insort
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
from .forms import assemble_arc_fem, assemble_mass_trace, assemble_trace_form, complex_for
from .gasket import PowerLawFit, build_complex, fit_power_law, index_set_I, word_index
from .geom import DiskTriple, transform_triple

# Dense (syevd) against sliced solve time in s at slice size 48, unit triple,
# one BLAS thread on a 2-core Xeon, best of two runs (BENCH_11.json):
#   n_free   363 (trace m=5):        dense 0.009; sliced k=10 0.006, k=30 0.009, k=100 0.026
#   n_free 1,092 (trace m=6):        dense 0.144; k=100 0.051, k=300 0.148, k=500 0.265
#   n_free 1,821 (arc FEM m=5, r=3): dense 0.62; k=500 0.39, k=700 0.56, k=1000 0.86
#   n_free 2,550 (arc FEM m=5, r=4): dense 1.63; k=1000 1.17, k=1500 1.84
#   n_free 3,279 (trace m=7):        dense 3.35; k=1000 1.86, k=1500 2.96, k=2000 4.06
# The crossover k / n_free**2 is 2.1-2.5e-4 up to n_free 2,550 and 1.6e-4 at
# 3,279; 1.8e-4 leans to the large sizes, where a wrong route costs the most.
# A mirrored pencil's dense solve takes two blocks of about n_free/2, so it
# crosses over lower.  Unit triple, same host and settings, best of two
# samples of two runs each, with the mirror split on the dense path alone
# (BENCH_15.json):
#   n_free   363 (trace m=5):        dense 0.012; sliced k=10 0.011, k=30 0.022
#   n_free 1,092 (trace m=6):        dense 0.096; k=50 0.042, k=100 0.087, k=200 0.174
#   n_free 1,821 (arc FEM m=5, r=3): dense 0.32; k=200 0.25, k=300 0.38
#   n_free 2,550 (arc FEM m=5, r=4): dense 0.98; k=500 0.89, k=700 1.44
#   n_free 3,279 (trace m=7):        dense 1.79; k=300 0.87, k=500 1.67, k=700 2.23
# That is k / n_free**2 of 5-9e-5.  Both paths now run on the D3 blocks of
# the unit triple (A1, A2 of about n/6, E of about n/3, solved once), so its
# crossover has moved again and is not re-measured here.  The rule still
# routes every pencil by 1.8e-4 of the whole n_free: a per-block crossover
# is a measured change of its own.
DENSE_KN2 = 1.8e-4  # dense from k = DENSE_KN2 * n_free**2, sliced below
# From a sweep of trace m = 7, 8, 9 at k = 300 and 1000 (BENCH_11.json): sizes
# 40-64 run within 15% of each other and 1.2-1.8x faster than 220, as ARPACK's
# cost per slice grows with the square of its ncv = 2k + 1.
SLICE_SIZE = 48  # eigenvalues aimed at per shift-invert slice
RESIDUAL_RTOL = 1e-8
RESIDUAL_BLOCK = 128  # eigenvector columns per block of the residual certificate
PIVOT_RTOL = 1e-12  # min/max |pivot| below this: the shift sits on an eigenvalue
BOUND_CLUSTER_RTOL = 1e-10  # a computed eigenvalue this close moves a slice bound
BOUND_STEP_RTOL, BOUND_MOVES = 1e-8, 4  # first move of a bound (x10 per further move), cap
# K and the mass may move this much, relative to their largest entries, under
# a mirror or a rotation; the builders' mirrors move them by at most 4e-16
# (trace, m <= 9) and 1.8e-13 (arc FEM, m <= 6, from the positions' roundoff)
MIRROR_RTOL = 1e-10


@dataclass
class GeneralizedEVP:
    """The pencil (K, diag(mass)) with Dirichlet ``boundary`` vertex ids.

    ``mirror``, if set, is an involution of the vertex ids that maps
    ``boundary`` onto itself and leaves K and the mass invariant within
    ``MIRROR_RTOL`` of their largest entries; ``ValueError`` otherwise.
    ``rotation``, if set, needs the mirror and is a permutation r of the
    vertex ids with r(r(r(i))) = i, conjugated to its inverse by the mirror
    (s r s = r^-1), that maps ``boundary`` onto itself and leaves K and the
    mass invariant within ``MIRROR_RTOL``; ``ValueError`` otherwise.  The two
    generate D3.  ``solve`` runs on the blocks of the group they generate:
    even and odd with a mirror alone, A1, A2 and E (twice) with both.
    """

    stiffness: sp.csr_matrix
    mass: np.ndarray
    boundary: tuple[int, ...]
    meta: dict = field(default_factory=dict)
    mirror: np.ndarray | None = None
    rotation: np.ndarray | None = None

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
        if self.mirror is not None:
            self.mirror = p = np.asarray(self.mirror)
            if (p.shape != (n,) or p.dtype.kind not in "iu" or np.any((p < 0) | (p >= n))
                    or np.any(p[p] != np.arange(n))):
                raise ValueError("mirror must be an involution of the vertex ids")
            if not _keeps(p, self.boundary):
                raise ValueError("mirror must map the boundary onto itself")
            if not _is_symmetry(p, self.stiffness, self.mass):
                raise ValueError("mirror must leave the stiffness and the mass invariant")
        if self.rotation is not None:
            self.rotation = r = np.asarray(self.rotation)
            if self.mirror is None:
                raise ValueError("a rotation needs a mirror")
            if (r.shape != (n,) or r.dtype.kind not in "iu" or np.any((r < 0) | (r >= n))
                    or np.any(r[r[r]] != np.arange(n))):
                raise ValueError("rotation must be a permutation of the vertex ids of order 3")
            if np.any(p[r[p]] != r[r]):
                raise ValueError("the mirror must conjugate the rotation to its inverse")
            if not _keeps(r, self.boundary):
                raise ValueError("rotation must map the boundary onto itself")
            if not _is_symmetry(r, self.stiffness, self.mass):
                raise ValueError("rotation must leave the stiffness and the mass invariant")

    @property
    def n_total(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_free(self) -> int:
        return self.n_total - len(self.boundary)


def evp_from_trace(t: DiskTriple, m: int, dirichlet="v0", mass_scheme="mu", cx=None):
    """Trace pencil on V_m, with the triple's mirror and rotation (``_pencil``)."""
    cx = complex_for(t, m, cx)
    return _pencil(t, cx, m, assemble_trace_form(t, m, cx).stiffness(),
                   assemble_mass_trace(t, m, cx, scheme=mass_scheme).values, dirichlet,
                   {"scheme": "trace", "depth": m, "mass_scheme": mass_scheme})


def evp_from_arc_fem(t: DiskTriple, m: int, refine: int, dirichlet="v0", cx=None):
    """Arc FEM pencil, with the triple's mirror and rotation (``_pencil``)."""
    cx = complex_for(t, m, cx)
    net = assemble_arc_fem(t, m, refine, cx)
    return _pencil(t, cx, m, net.stiffness(), net.mass_vector().values, dirichlet,
                   {"scheme": "arcfem", "depth": m, "refine": refine}, net)


def _pencil(t: DiskTriple, cx, m: int, K, mass, dirichlet, meta, net=None) -> GeneralizedEVP:
    """The pencil (K, mass) with the ``dirichlet`` boundary and the triple's
    mirror and rotation that map it onto itself and leave the pencil
    invariant; None for each one that it lacks.

    Members i and j of exactly equal curvature are swapped by the reflection
    in the line through the third member's centre and the point q where i
    and j touch.  A permutation sigma of the three letters maps the cell of
    word w to the cell whose word applies sigma to each letter, and slot s
    of one to slot sigma(s) of the other, so the cell tree gives the map of
    V_m with no geometry: sigma swaps i and j for the mirror, and is
    [1, 2, 0] for the order-3 rotation of a triple with three equal
    curvatures, which is sought once a mirror is found.
    ``net.extend_vertex_map`` carries either along the arc network's pieces.
    The trace pencil is a function of the curvatures alone, so it is
    invariant (``GeneralizedEVP`` checks it); the arc network is built from
    the disks' positions, which a triple given as disks may hold only to
    within roundoff of the image, so its candidates are checked here.
    """
    boundary = _resolve_boundary(dirichlet)
    vids = cx.vertex_ids[m]

    def symmetry(sigma):
        """sigma's map of the vertex ids by the cell tree, None unless admissible."""
        cells = np.zeros(1, dtype=int)  # the image of each depth-m cell
        for _ in range(m):
            cells = (3 * cells[:, None] + sigma).ravel()
        vmap = np.empty(cx.num_vertices_at(m), dtype=int)
        vmap[vids] = vids[cells][:, sigma]
        vmap = vmap if net is None else net.extend_vertex_map(vmap)
        ok = _keeps(vmap, boundary) and (net is None or _is_symmetry(vmap, K, mass))
        return vmap if ok else None

    mirror = rotation = None
    for i, j in ((1, 2), (0, 2), (0, 1)):
        sigma = np.arange(3)
        sigma[[i, j]] = j, i
        if t.quad[i] == t.quad[j] and (mirror := symmetry(sigma)) is not None:
            if t.quad[0] == t.quad[1] == t.quad[2]:
                rotation = symmetry(np.array([1, 2, 0]))
            break
    return GeneralizedEVP(stiffness=K, mass=mass, boundary=boundary, meta=meta,
                          mirror=mirror, rotation=rotation)


def _max_abs(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _is_symmetry(mirror, K, mass) -> bool:
    """True when ``mirror`` moves K and the mass by at most ``MIRROR_RTOL``
    times their largest entries."""
    K = K.tocsr()
    return (_max_abs((K[mirror][:, mirror] - K).data) <= MIRROR_RTOL * _max_abs(K.data)
            and _max_abs(mass[mirror] - mass) <= MIRROR_RTOL * _max_abs(mass))


def _keeps(mirror, ids) -> bool:
    """True when ``mirror`` maps the vertex ids ``ids`` onto themselves."""
    ids = np.sort(np.asarray(ids, dtype=int))
    if np.any((ids < 0) | (ids >= len(mirror))):
        return False
    return bool(np.array_equal(np.sort(mirror[ids]), ids))


def _resolve_boundary(dirichlet) -> tuple[int, ...]:
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


def _residual_max(K, d, lams, Y, Q):
    """max over pairs of ||K v - lam M v|| / ||v|| with v = D^{-1/2} Q y.

    ``Q`` is the block's basis onto the free vertices.  Dense solves pass
    each block's kept columns and each of its bases, sliced ones one slice's
    kept columns at a time.  The columns are taken in ceil(k /
    RESIDUAL_BLOCK) near-equal blocks, each mapped through Q only when its
    turn comes, so no n x k array is formed: V is scaled and R = K V reduced
    in place, and about three n x ``RESIDUAL_BLOCK`` arrays are live at once
    (scaling into a copy raised the benchmark's peak RSS).  Each column
    keeps the bits it has in the one C-order n x k block Q Y: numpy sums a
    lone column's norm pairwise, but a column inside a C-order block of two
    or more sequentially, and R and V = Q Y are C-order.  So no block is a
    single column unless k = 1, and a sliced lone pair of k > 1 is passed
    twice over.
    """
    k = len(lams)
    if k == 0:
        return 0.0
    n_blocks = -(-k // RESIDUAL_BLOCK)
    edges = [k * i // n_blocks for i in range(n_blocks + 1)]
    s, worst = 1.0 / np.sqrt(d), 0.0
    for a, b in zip(edges, edges[1:]):
        V = Q @ Y[:, a:b]
        V *= s[:, None]
        R = K @ V
        T = d[:, None] * V
        T *= lams[None, a:b]
        R -= T
        del T  # before the norms' temporaries
        worst = max(worst, float(np.max(np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0))))
    return worst


def count_below(A: sp.csr_matrix, sigma: float) -> int:
    """Number of eigenvalues of A strictly below sigma (Sylvester inertia).

    SuperLU factors A - sigma I symmetrically with diagonal pivots only, so
    U = D L^T and the negative pivots are the count.  ``DegenerateShift`` is
    raised instead for a singular factor, an off-diagonal pivot, or a pivot
    below ``PIVOT_RTOL`` times the largest.  That test does not flag every
    shift on an eigenvalue: on unit trace m=5, 61 of 363 shifts placed on
    its computed eigenvalues passed it.  A count at a shift within roundoff
    of an eigenvalue may therefore fall on either side of the tie.
    """
    if A.shape[0] == 0:
        return 0
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

    ``how_many=None`` returns the full spectrum.  A request for k of n free
    eigenvalues with k >= ``DENSE_KN2`` * n**2 (the module constant, read at
    call time, on the whole n whatever the split), and any full-spectrum
    request, is solved by dense divide and conquer (LAPACK ``syevd``) on a
    Fortran-order copy of each block of the pencil that LAPACK overwrites,
    which saves the copy f2py would make of a C-order array; smaller requests
    go through shift-invert Lanczos slices whose completeness is verified by
    sparse inertia counts.

    The blocks are Q^T A Q for the orthonormal bases Q of
    ``_symmetry_bases``: A itself, on the identity basis, without a mirror
    (the trivial group's one block); the even and odd blocks
    with a mirror alone; A1, A2 and E with a mirror and a rotation, E with a
    second basis Q_E' onto the odd E vectors that gives the same block, so E
    is solved once and each of its eigenvalues is reported twice, with equal
    bits.  The symmetries leave A invariant within ``MIRROR_RTOL``, so the
    blocks hold its spectrum up to that roundoff.  The dense path runs
    ``syevd`` per block, largest first, merges the spectra with
    multiplicity, and keeps the k lowest.  The sliced path places one
    bound whose count, summed over the blocks with multiplicity, reaches
    k + 1, slices each block below it and merges likewise
    (``_sliced_lanczos``).  Each kept pair is mapped back to the free
    vertices through its block's basis (both bases for E), one column
    block at a time, and certified by the unchanged residual against the
    original K and mass, so a split that moved an eigenpair fails the
    certificate; neither path forms an n x k array of mapped vectors.
    Inertia adds over an orthogonal split, so the counts of the sliced path
    certify the whole pencil.  ``meta["blocks"]`` lists the
    block sizes, E twice, summing to n (``[n]`` without a mirror), and
    ``meta["symmetry"]`` the group: ``"none"``, ``"mirror"`` or ``"D3"``.

    Either way ``meta["inertia_verified"]`` is True and
    ``meta["residual_max"]`` certifies every reported pair: exactly the k
    reported pairs on the dense path, and on the sliced path also the few
    pairs between the k-th eigenvalue and the shared bound.  The sliced
    path also records its slices under ``meta["slices"]``.  ``how_many``
    must be a nonnegative Python or numpy integer; ``ValueError`` otherwise.
    """
    if how_many is not None:
        if isinstance(how_many, bool) or not isinstance(how_many, (int, np.integer)):
            raise ValueError(f"how_many must be an integer, got {how_many!r}")
        if how_many < 0:
            raise ValueError(f"how_many must be non-negative, got {how_many}")
    free, K, d, A = _free_pencil(evp, allow_disconnected)
    n = len(free)
    k = n if how_many is None else min(int(how_many), n)
    lam_scale = _gershgorin_upper(A)
    bases = _symmetry_bases(evp, free)

    meta = dict(evp.meta)
    meta.update({"boundary": tuple(evp.boundary), "n_free": n,
                 "blocks": [Q.shape[1] for copies in bases for Q in copies],
                 "symmetry": "none" if evp.mirror is None
                 else "mirror" if evp.rotation is None else "D3"})
    meta["method"] = "dense" if k == n or k >= DENSE_KN2 * n * n else "lanczos-shift-invert"

    if k == 0:  # nothing asked: no factorization on either path
        lams, res = np.empty(0), 0.0
    else:
        blocks = [(_project(A, copies[0]), copies) for copies in bases]
        del A  # the trivial group's block is a copy of A: hold one, not both
        if meta["method"] == "dense":
            lams, res = _dense(blocks, K, d, k)
        else:
            lams, res, meta["slices"] = _sliced_lanczos(blocks, K, d, k, lam_scale, seed)
    meta.update(inertia_verified=True, residual_max=res, lambda_scale=lam_scale)
    if res > RESIDUAL_RTOL * max(lam_scale, 1e-300):
        raise NotConverged(
            f"residual {res:.3e} exceeds {RESIDUAL_RTOL:g} * lambda_max",
            partial=lams,
        )

    # snap the roundoff neighborhood of zero (the PSD pencil cannot dip below)
    tiny = 1e-12 * lam_scale
    if len(lams) and lams[0] < -tiny:
        raise NotConverged(f"negative eigenvalue {lams[0]:.3e} beyond roundoff", partial=lams)
    lams = np.where(np.abs(lams) <= tiny, 0.0, lams)
    spec = Spectrum(eigenvalues=lams, meta=meta)
    meta["trust_ceiling"] = trust_ceiling(spec) if len(spec) else None
    return spec


def _symmetry_bases(evp: GeneralizedEVP, free) -> list[list]:
    """Sparse orthonormal bases (n_free, b) of the symmetry blocks, one list
    per block to solve: the trivial group's one block, ``[[identity]]``,
    without a mirror.

    With a mirror s alone the group is {1, s}, with a rotation r as well
    D3 = {1, r, r^2, s, sr, sr^2}.  Each free vertex x has the orbit
    g(x) over the group's elements g, and one per orbit stands for it: the
    one s fixes if the orbit has one, else the lowest.  A block's basis
    vectors are, per orbit, sum_g c_g e_g(x) for each row c of its closed
    form, normalized; an orbit smaller than the group repeats points, whose
    coefficients add up exactly (they are small integers) and may cancel,
    and a vector that cancels to zero is dropped.
      - {1, s}: even c = (1, 1), odd c = (1, -1).
      - D3, over (1, r, r^2, s, sr, sr^2): A1 (even, r-invariant)
        c = (1, 1, 1, 1, 1, 1); A2 (odd, r-invariant) c = (1, 1, 1, -1, -1, -1);
        E (even, orthogonal to the r-invariant vectors) the two rows
        (2, -1, -1, 2, -1, -1) and (0, 1, -1, 0, 1, -1), which are the even
        pair sums p_j = e_{r^j x} + e_{s r^j x} combined as 2 p_0 - p_1 - p_2
        and p_1 - p_2.
    E comes with a second basis Q_E' = (R - R^2) Q_E / sqrt(3), where
    (R v)_i = v_{r(i)}: it is odd, and since 1 + R + R^2 vanishes on E,
    ||(R - R^2) v||^2 = 3 ||v||^2, so Q_E' is an isometry onto the odd E
    vectors with Q_E'^T A Q_E' = Q_E^T A Q_E.  An orbit of size 6 gives
    one A1, one A2 and two E vectors; one of size 3 (on a mirror line) one
    A1 and one E; one of size 2 (fixed by r) one A1 and one A2; one of
    size 1 one A1.  Empty blocks are left out.
    """
    n = len(free)
    if evp.mirror is None or n == 0:
        return [[sp.identity(n, format="dia")]]  # DIA: 8 bytes a row to CSR's 16
    at = np.empty(evp.n_total, dtype=int)
    at[free] = np.arange(n)
    ids, s = np.arange(n), at[evp.mirror[free]]  # the group on free positions
    if evp.rotation is None:
        images, rows = [ids, s], [[[1, 1]], [[1, -1]]]
    else:
        r = at[evp.rotation[free]]
        images = [ids, r, r[r], s, s[r], s[r[r]]]
        rows = [[[1, 1, 1, 1, 1, 1]], [[1, 1, 1, -1, -1, -1]],
                [[2, -1, -1, 2, -1, -1], [0, 1, -1, 0, 1, -1]]]
    orbits = np.stack(images, axis=1)
    lowest, fixed = orbits.min(axis=1), s == ids
    has_fixed = np.zeros(n, dtype=bool)
    has_fixed[lowest[fixed]] = True
    orbits = orbits[np.where(has_fixed[lowest], fixed, lowest == ids)]
    bases = []
    for c in rows:
        c = np.asarray(c, dtype=float)
        shape = (len(orbits), len(c), orbits.shape[1])
        col = np.arange(shape[0] * shape[1]).reshape(shape[:2])
        Q = sp.csc_matrix((np.broadcast_to(c, shape).ravel(),
                           (np.broadcast_to(orbits[:, None, :], shape).ravel(),
                            np.broadcast_to(col[:, :, None], shape).ravel())),
                          shape=(n, col.size))  # repeated points add up
        Q.eliminate_zeros()
        norm = np.sqrt(np.asarray(Q.multiply(Q).sum(axis=0)).ravel())
        Q = (Q[:, norm > 0.0] @ sp.diags(1.0 / norm[norm > 0.0])).tocsr()
        bases.append([Q])
    if evp.rotation is not None:  # the odd partner of E
        Q = bases[2][0]
        partner = (Q[r] - Q[r[r]]) / math.sqrt(3.0)
        partner.eliminate_zeros()
        bases[2].append(partner.tocsr())
    return [copies for copies in bases if copies[0].shape[1]]


def _project(A: sp.csr_matrix, Q: sp.csr_matrix) -> sp.csr_matrix:
    """The block Q^T A Q, symmetrized like the pencil in ``_free_pencil``."""
    B = Q.T @ (A @ Q)
    return ((B + B.T) * 0.5).tocsr()


# ``syevd`` back-transforms every eigenvector of a block, and a partial
# request certifies only the kept columns; the subset drivers, asked for the
# kept columns alone, are still slower at these block sizes (best of 5, BLAS
# on one thread): arc m=5 refine 3 k=1000, blocks 306/301/607, evd 0.083 s,
# evr 0.220 s, evx 0.218 s; trace m=7 k=1000, blocks 550/543/1093, evd
# 0.388 s, evr 0.543 s, evx 0.571 s (BENCH_20.json)
def _dense(blocks, K, d, k: int):
    """The k lowest eigenvalues of the blocks by ``syevd``, and their residual.

    ``blocks`` holds (B, bases) per block; each eigenvalue of B is reported
    once per basis (twice for E).  The largest block is solved first, while
    no other block's eigenvectors are held, and the results are kept in
    block order.  Each basis's kept columns are certified by
    ``_residual_max`` one column block at a time.
    """
    solved = [None] * len(blocks)
    for i in sorted(range(len(blocks)), key=lambda i: -blocks[i][0].shape[0]):
        # the Fortran-order copy is ours: LAPACK may overwrite it, f2py copies nothing
        solved[i] = sla.eigh(blocks[i][0].toarray(order="F"), driver="evd", overwrite_a=True,
                             check_finite=False)
    copies = [(Q, lam_b, Y_b) for (_, bases), (lam_b, Y_b) in zip(blocks, solved) for Q in bases]
    lams = np.concatenate([lam_b for _, lam_b, _ in copies])
    kept = np.argsort(lams, kind="stable")[:k]  # a prefix of each ascending block
    which = np.searchsorted(np.cumsum([len(lam_b) for _, lam_b, _ in copies]), kept, side="right")
    res = 0.0
    for (Q, lam_b, Y_b), k_b in zip(copies, np.bincount(which, minlength=len(copies))):
        res = max(res, _residual_max(K, d, lam_b[:k_b], Y_b[:, :k_b], Q))
    return lams[kept], res


def _moved(b: float, moves: list) -> float:
    """Step bound ``b`` up and log the move; give up after ``BOUND_MOVES``."""
    if len(moves) >= BOUND_MOVES:
        raise NotConverged(f"slice bound {b:.6e} still degenerate after {BOUND_MOVES} moves")
    moves.append([b, b + abs(b) * BOUND_STEP_RTOL * 10.0 ** len(moves)])
    return moves[-1][1]


def _clear_count(count, b: float, moves: list):
    """(bound, count(bound)), moving the bound up while the count refuses."""
    while True:
        try:
            return b, count(b)
        except DegenerateShift:
            b = _moved(b, moves)


def _split(lo: float, hi: float) -> float:
    """Bisection point of (lo, hi): geometric once ``lo`` is positive."""
    return math.sqrt(lo * hi) if lo > 0.0 else 0.5 * (lo + hi)


def _guess(lo: float, c_lo: int, hi: float, c_hi: int, target: float) -> float:
    """Shift where the power law through (lo, c_lo), (hi, c_hi) reaches ``target``.

    No power law passes through a shift or count that is not positive; there
    the guess is one eigenvalue above ``lo`` on the straight line, whatever
    the target, to find a positive count.  A guess outside (lo, hi) is
    ``_split``'s.
    """
    if lo > 0.0 and c_lo > 0:
        x = lo * (hi / lo) ** (math.log(target / c_lo) / math.log(c_hi / c_lo))
    else:
        x = lo + (hi - lo) / (c_hi - c_lo)
    return x if lo < x < hi else _split(lo, hi)


def _bound(count, counted: list, target: int, step: int):
    """The slice bound for ``target``: (shift, count, moves) from ``counted``.

    ``counted`` holds (shift, count, moves) in increasing shift, and gains
    every shift counted here.  The bound is the lowest counted shift whose
    count reaches the target: the bracket between the nearest counted
    shifts is split until that count is at most ``step // 8`` above it, or
    the bracket is too narrow (1e-4 relative) to hold a moved split point,
    or a split point cannot be counted even after its moves (the roundoff
    band of a cluster, such as the zero modes of a disconnected pencil).
    Each split is ``_guess``'s for target + step // 16, or ``_split``'s
    after a guess that did not halve the bracket, so the bracket halves at
    least every two counts.
    """
    width = BOUND_STEP_RTOL * 10.0**BOUND_MOVES
    guided = True
    while True:
        j = bisect_left([c for _, c, _ in counted], target)
        (below, c_below, _), (hi, c_hi, moves) = counted[j - 1], counted[j]
        if c_hi <= target + step // 8 or hi - below <= width * hi:
            return hi, c_hi, moves
        mid = _split(below, hi)
        x = _guess(below, c_below, hi, c_hi, target + step // 16) if guided else mid
        split_moves = []
        try:
            x, c = _clear_count(count, x, split_moves)
        except NotConverged:  # the split lies in the roundoff band of a cluster
            return hi, c_hi, moves
        insort(counted, (x, c, split_moves), key=lambda e: e[0])
        guided = x <= mid if c >= target else x >= mid  # the bracket halved


def _steps(total: int) -> tuple[int, int]:
    """(number of slices, target step) for ``total`` eigenvalues."""
    n_slices = math.ceil(total / SLICE_SIZE)
    return n_slices, math.ceil(total / n_slices)


def _sliced_lanczos(blocks, K, d, k: int, top: float, seed: int):
    """Shift-invert ARPACK slices covering the k lowest eigenvalues.

    ``blocks`` holds (B, bases) per block, each eigenvalue of B reported
    once per basis; an asymmetric pencil is one block on the identity.
    The blocks share one bound first: ``_bound`` places it on the counts
    summed over the blocks, each weighted by its number of bases, for
    target k + 1, and a count that any block refuses moves the shared
    shift.  Each block is then sliced for its own count below that bound,
    starting from the shifts counted for it on the way, and keeps all of
    them; the merged eigenvalues, with multiplicity, hold the k lowest of
    the pencil.  ARPACK returns at most n_b - 1 pairs of a block
    of size n_b, so a slice that must hold that many has no room for its
    pad and may never match its count: a block whose count reaches n_b - 1
    is solved whole by ``_dense`` and certified there, and is recorded as
    one slice from the lowest bound to its highest counted shift, with
    that shift's count and ``k_requested`` = n_b.  The bracket starts as
    [-1e-12 top, top] around the semidefinite spectrum.  Returns the k
    lowest eigenvalues, ascending, the worst residual, and the slices of
    all blocks (``_slice_block``).
    """
    lo, top_moves = -1e-12 * top, []
    counts = {}  # each block's count at each shared shift

    def summed(x):
        counts[x] = [count_below(B, x) for B, _ in blocks]
        return sum(len(bases) * c for (_, bases), c in zip(blocks, counts[x]))

    shared = [(lo, 0, []), (*_clear_count(summed, top, top_moves), top_moves)]
    bound = _bound(summed, shared, k + 1, _steps(k + 1)[1])[0]
    counted = [[(lo, 0, [])] + [(x, counts[x][b], list(moves)) for x, _, moves in shared[1:]
                                if x <= bound] for b in range(len(blocks))]
    rng = np.random.default_rng(seed)
    slices, found, res = [], [], 0.0
    first = np.cumsum([0] + [len(bases) for _, bases in blocks])  # in meta["blocks"]
    for (B, bases), counted_b, total, b in zip(blocks, counted, counts[bound], first):
        if total == 0:
            continue
        if total >= B.shape[0] - 1:  # see above: solve the block whole
            (lo, _, _), (hi, count, moves) = counted_b[0], counted_b[-1]
            slices.append(dict(block=int(b), copies=len(bases), lo=lo, hi=hi, count=count,
                               k_requested=B.shape[0], attempts=1, moves=moves))
            lam_b, res_b = _dense([(B, bases)], K, d, total * len(bases))
            found.append(lam_b)
            res = max(res, res_b)
            continue
        v0 = np.ones(B.shape[0]) + 0.01 * rng.standard_normal(B.shape[0])
        res = max(res, _slice_block(B, bases, K, d, total, counted_b, v0, found, slices, int(b)))
    return np.sort(np.concatenate(found))[:k], res, slices


def _slice_block(B, bases, K, d, total: int, counted: list, v0, found: list, slices: list,
                 block: int) -> float:
    """Slice block B for its lowest ``total`` eigenvalues.

    With S = ceil(total / SLICE_SIZE) slices the targets are
    i * ceil(total / S) and, last, ``total``.  For each target the loop
    places the slice's upper bound (``_bound`` on ``counted``, which starts
    with the lowest bound and its count of 0), solves the slice and moves
    on, until a count reaches ``total``.  Every bound is a counted shift, so
    a slice holds exactly the eigenvalues its two counts promise.  A bound
    within ``BOUND_CLUSTER_RTOL`` of a computed eigenvalue is moved up.  Each
    slice certifies the pairs it keeps (the lowest, up to ``total``) through
    each basis and drops its vectors; their eigenvalues go to ``found``,
    once per basis.  Appends per slice to ``slices`` its block (its first
    index in ``meta["blocks"]``), number of bases (``copies``), bounds,
    count, last ``k`` requested, attempts and moves of ``hi``, and returns
    the worst residual.

    Shift-invert Lanczos finds lambda = sigma + 1/theta only to about
    eps |theta_max| (lambda - sigma)^2, which at the bottom of a wide first
    slice reached 2.5e-10 relative (lambda_1 of trace m=7 on the unit
    triple, whose blocks span several times the range of lambda per slice
    that the whole pencil would).  So every block reports the Rayleigh
    quotients y^T B y / y^T y of its vectors, whose error is second order
    in theirs.
    """
    n = B.shape[0]
    n_slices, step = _steps(total)
    hi, c_hi, _ = counted[0]
    res = 0.0
    for target in [i * step for i in range(1, n_slices)] + [total]:
        lo, c_lo = hi, c_hi
        hi, c_hi, moves = _bound(lambda x: count_below(B, x), counted, target, step)
        want = c_hi - c_lo
        record = dict(block=block, copies=len(bases), lo=lo, hi=hi, count=want,
                      k_requested=0, attempts=0, moves=moves)
        slices.append(record)
        if want <= 0:
            continue
        pad = 8
        for attempt in range(4):
            k_req = min(want + pad, n - 1)
            lam_i, y_i = spla.eigsh(B, k=k_req, sigma=0.5 * (lo + hi), which="LM", v0=v0,
                                    maxiter=5000)
            record.update(k_requested=k_req, attempts=attempt + 1)
            # never split a roundoff cluster at the top of the window
            while np.any(np.abs(lam_i - hi) <= BOUND_CLUSTER_RTOL * abs(hi)):
                hi, c_hi = _clear_count(lambda x: count_below(B, x), _moved(hi, moves), moves)
            record["hi"] = hi
            want = record["count"] = c_hi - c_lo
            # half-open window matching the inertia difference #[lo, hi)
            sel = (lam_i >= lo) & (lam_i < hi)
            if int(sel.sum()) == want:
                break
            pad *= 4
        else:
            raise NotConverged(f"slice [{lo:.3e}, {hi:.3e}) kept missing eigenvalues",
                               partial=np.sort(np.concatenate([np.empty(0), *found])))
        # the slices before hold exactly c_lo pairs: keep the lowest total - c_lo of this one
        kept = np.flatnonzero(sel)[np.argsort(lam_i[sel])[: total - c_lo]]
        Y = y_i[:, kept]  # Rayleigh quotients (see above)
        lam_k = np.einsum("ij,ij->j", Y, B @ Y) / np.einsum("ij,ij->j", Y, Y)
        found.append(np.repeat(lam_k, len(bases)))
        if len(kept) == 1 < total:  # a lone pair of total > 1 goes twice (see _residual_max)
            Y, lam_k = Y[:, [0, 0]], np.repeat(lam_k, 2)
        for Q in bases:
            res = max(res, _residual_max(K, d, lam_k, Y, Q))
        if c_hi >= total:
            break
    return res


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
    return int(np.searchsorted(s.eigenvalues, lam, side="right"))


def trust_ceiling(s: Spectrum) -> float:
    """Largest lambda at which the discrete counting is trusted.

    Only the lower half of a discrete spectrum approximates the continuum;
    with a partial solve the ceiling is the top computed eigenvalue if that
    comes first.  An empty spectrum has none: ``InsufficientSpectrum``.
    """
    if not len(s):
        raise InsufficientSpectrum("no eigenvalues to trust")
    n_free = s.meta.get("n_free", len(s))
    idx = min(len(s) - 1, max(0, n_free // 2 - 1))
    return float(s.eigenvalues[idx])


def weyl_fit(s: Spectrum) -> PowerLawFit:
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
    return fit_power_law(lam, np.arange(i_lo, i_hi + 1))


# ---------------------------------------------------------------------------
# structural checks

INTERLACING_RTOL = 1e-9
# scaling_check: lowest eigenvalues compared, arc FEM refine, tolerance
SCALING_EIGS, SCALING_REFINE, SCALING_RTOL = 50, 4, 1e-9
CENSUS_SLACK = 2  # ties the census lower bound may miss by


@dataclass
class InterlacingReport:
    n_checked: int
    max_low_violation: float
    max_high_violation: float
    ok: bool


def interlacing_check(evp: GeneralizedEVP, V) -> InterlacingReport:
    """lambda_n <= lambda_n^V <= lambda_{n+#V} on a fixed discretization.

    Each inequality may fail by ``INTERLACING_RTOL`` relative to the larger
    side, or to 1e-6 of the top free eigenvalue where that is larger.  The
    base problem keeps the symmetries of ``evp``; the constrained one keeps
    D3 if that maps V onto itself, else ``evp.mirror`` if that does, else
    none.
    """
    base = GeneralizedEVP(evp.stiffness, evp.mass, boundary=(), meta=dict(evp.meta),
                          mirror=evp.mirror, rotation=evp.rotation)
    v_sorted = tuple(sorted(set(int(i) for i in V)))
    mirror, rotation = evp.mirror, evp.rotation
    if mirror is not None and not _keeps(mirror, v_sorted):
        mirror = rotation = None
    elif rotation is not None and not _keeps(rotation, v_sorted):
        rotation = None
    cons = GeneralizedEVP(evp.stiffness, evp.mass, boundary=v_sorted, meta=dict(evp.meta),
                          mirror=mirror, rotation=rotation)
    # constraining V may split the graph; min-max interlacing still applies
    lam_free = solve(base, allow_disconnected=True).eigenvalues
    lam_v = solve(cons, allow_disconnected=True).eigenvalues
    n = len(lam_v)
    above = lam_free[len(v_sorted):len(v_sorted) + n]  # lambda_{n+#V}
    floor = max(lam_free[-1], 1e-300) * 1e-6
    lo, hi = lam_free[:n] - lam_v, lam_v - above
    bad_lo = lo > INTERLACING_RTOL * np.maximum(lam_v, floor)
    bad = bad_lo | (hi > INTERLACING_RTOL * np.maximum(above, floor))
    if bad.any():  # the first offender; lower before upper at the same n
        i = int(np.argmax(bad))
        side = "lower" if bad_lo[i] else "upper"
        raise InterlacingViolation(f"{side} interlacing fails at n={i + 1}", i + 1)
    return InterlacingReport(
        n_checked=n, max_low_violation=float(np.max(lo, initial=0.0)),
        max_high_violation=float(np.max(hi, initial=0.0)), ok=True
    )


@dataclass
class ScalingReport:
    scale: float
    expected_ratio: float
    max_rel_error: float
    ok: bool


def scaling_check(t: DiskTriple, s: float, m: int = 4, scheme: str = "trace") -> ScalingReport:
    """Spatial dilation by s must scale every eigenvalue by s^-2.

    Compares the lowest ``SCALING_EIGS`` eigenvalues of depth-m pencils of
    ``t`` and of ``t`` dilated by s (arc FEM at refine ``SCALING_REFINE``);
    ``ok`` when the worst relative error is at most ``SCALING_RTOL``.
    """
    if scheme not in ("trace", "arcfem"):
        raise ValueError(f"unknown scheme {scheme!r}")
    lam1, lam2 = (
        solve(evp_from_trace(u, m) if scheme == "trace"
              else evp_from_arc_fem(u, m, SCALING_REFINE)).eigenvalues
        for u in (t, transform_triple(t, scale=s))
    )
    k = min(SCALING_EIGS, len(lam1), len(lam2))
    lam1, lam2 = lam1[:k], lam2[:k]
    expected = s ** (-2.0)
    denom = np.maximum(np.abs(lam1) * expected, 1e-300)
    err = float(np.max(np.abs(lam2 - lam1 * expected) / denom))
    return ScalingReport(scale=s, expected_ratio=expected, max_rel_error=err,
                         ok=err <= SCALING_RTOL)


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
    if truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    words = index_set_I(truncation - 1)  # lengths 2..truncation
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
    t: DiskTriple, lam: float, truncation: int, depth: int | None = None
) -> CensusReport:
    """Compare the parent eigenvalue count with the sum over census cells.

    Each count is #{eigenvalues <= lam}: ``count_below`` at the next float
    above ``lam`` on a restriction of the parent's scaled free pencil.  The
    parent keeps all free vertices, ``parent_vlambda_count`` drops the census
    vertices, and cell w keeps its subtree's depth-``depth`` vertices minus
    its corners.  Every edge and mass term at those vertices comes from the
    subtree, so this is w's own pencil at depth ``depth - len(w)``.  The
    bound sum <= parent count holds up to ``CENSUS_SLACK`` ties; the upper
    gap is only reported.  ``ValueError`` for ``truncation < 1``, ``lam``
    negative, infinite or NaN, or ``depth`` below the effective truncation;
    ``DegenerateShift`` when a pivot flags ``lam`` as an eigenvalue.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    n_lam = n_lambda_of(t.quad, lam)
    T = min(truncation, n_lam)
    words = census_index_set(T)  # ValueError for truncation = T < 1
    if depth is None:
        depth = T
    if depth < T:
        raise ValueError(f"depth {depth} must be at least the effective truncation {T}")

    cx = build_complex(t, depth)
    A = _free_pencil(evp_from_trace(t, depth, cx=cx), allow_disconnected=False)[3]
    shift = np.nextafter(lam, np.inf)

    def count(ids) -> int:  # free vertex id i is row i - 3 of A
        return count_below(A[ids - 3][:, ids - 3], shift)

    v_ids = _census_vertex_ids(cx, T)
    parent_count = count_below(A, shift)
    # dropping all census vertices decouples the cells by construction
    parent_vl_count = count(np.setdiff1d(np.arange(3, A.shape[0] + 3), v_ids))

    rows = []
    for w in words:
        i, span = word_index(w), 3 ** (depth - len(w))
        inner = np.setdiff1d(cx.vertex_ids[depth][i * span:(i + 1) * span],
                             cx.vertex_ids[len(w)][i])
        rows.append(CensusRow(w, depth - len(w), len(inner), count(inner)))
    child_sum = sum(r.count for r in rows)

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
        lower_bound_ok=child_sum <= parent_count + CENSUS_SLACK,
        upper_gap=parent_count - child_sum,
        rows=rows,
    )
