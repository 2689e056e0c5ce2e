import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from gasketlab import geom, spectra
from gasketlab.errors import (
    AboveTrustCeiling,
    DegenerateShift,
    Disconnected,
    InsufficientSpectrum,
    InterlacingViolation,
    NotConverged,
)


def _pencil(K, masses, boundary=()):
    return spectra.GeneralizedEVP(sp.csr_matrix(np.asarray(K, dtype=float)),
                                  np.asarray(masses, dtype=float), tuple(boundary))


def test_single_edge_closed_form():
    evp = _pencil([[2.0, -2.0], [-2.0, 2.0]], [1.0, 3.0])
    lam = spectra.solve(evp).eigenvalues
    assert abs(lam[0]) < 1e-12
    assert abs(lam[1] - 2.0 * (1.0 + 1.0 / 3.0)) < 1e-12


def test_two_edge_path_dirichlet_ends():
    K = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    evp = _pencil(K, [1.0, 1.0, 1.0], boundary=(0, 2))
    lam = spectra.solve(evp).eigenvalues
    assert len(lam) == 1 and abs(lam[0] - 2.0) < 1e-12


def test_free_problem_has_zero_mode(unit_triple):
    evp = spectra.evp_from_trace(unit_triple, 3, dirichlet="none")
    lam = spectra.solve(evp).eigenvalues
    assert lam[0] == 0.0
    assert lam[1] > 1e-8


def test_empty_problem_gives_empty_spectrum(unit_triple):
    # depth 0 with the three corner vertices constrained leaves nothing free
    s = spectra.solve(spectra.evp_from_trace(unit_triple, 0, mass_scheme="thirds"))
    assert len(s) == 0


def test_mu_mass_at_depth_zero(unit_triple):
    # only the outer arcs carry measure on V_0: three sixth-circles of
    # radius 1 give each corner two half-arc masses of pi/6
    from gasketlab import forms

    mv = forms.assemble_mass_trace(unit_triple, 0, scheme="mu")
    assert np.allclose(mv.values, math.pi / 3.0, rtol=1e-12)


def test_spectral_gap_bound_already_at_m2(unit_triple):
    # discrete lowest Dirichlet eigenvalue clears the continuum gap bound
    # kappa^2/40 with a wide margin even at depth 2
    lam1 = spectra.solve(spectra.evp_from_trace(unit_triple, 2)).eigenvalues[0]
    assert 40.0 * lam1 / 3.0 >= 0.8


def test_disconnected_detection():
    K = [[1.0, -1.0, 0, 0], [-1.0, 1.0, 0, 0], [0, 0, 1.0, -1.0], [0, 0, -1.0, 1.0]]
    evp = _pencil(K, np.ones(4))
    with pytest.raises(Disconnected):
        spectra.solve(evp)
    lam = spectra.solve(evp, allow_disconnected=True).eigenvalues
    assert np.sum(lam < 1e-12) == 2  # one constant mode per component


def test_counting_and_trust_ceiling():
    s = spectra.Spectrum(np.array([1.0, 2.0, 3.0]), {"n_free": 30})
    assert spectra.counting(s, 0.5) == 0
    assert spectra.counting(s, 2.0) == 2  # ties included
    assert spectra.counting(s, 2.5) == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectra.counting(s, 10.0)
    assert any(issubclass(w.category, AboveTrustCeiling) for w in caught)


def test_weyl_fit_synthetic_power_law():
    d = 1.3057
    n = 2000
    lam = np.arange(1, n + 1, dtype=float) ** (2.0 / d)
    s = spectra.Spectrum(lam, {"n_free": n})
    fit = spectra.weyl_fit(s)
    assert abs(fit.slope - d / 2.0) < 1e-3
    assert fit.residual < 1e-6


def test_weyl_fit_is_one_polyfit(unit_triple):
    # the fit over the 10%..50% window, written out: equal bit for bit
    s = spectra.solve(spectra.evp_from_trace(unit_triple, 5))
    fit = spectra.weyl_fit(s)
    i_lo, i_hi = max(int(0.1 * len(s)), 1), int(0.5 * len(s))
    lam = s.eigenvalues[i_lo - 1 : i_hi]
    x, y = np.log(lam), np.log(np.arange(i_lo, i_hi + 1, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    assert fit.slope == slope and fit.prefactor == np.exp(intercept)
    assert fit.residual == np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
    assert fit.window == (lam[0], lam[-1]) and fit.n_points == len(lam) == 146


def test_weyl_fit_needs_enough_eigenvalues():
    s = spectra.Spectrum(np.arange(1.0, 100.0), {"n_free": 99})
    with pytest.raises(InsufficientSpectrum):
        spectra.weyl_fit(s)


def test_counting_on_empty_spectrum(unit_triple):
    s = spectra.solve(spectra.evp_from_trace(unit_triple, 3), how_many=0)
    with pytest.raises(InsufficientSpectrum):
        spectra.counting(s, 1.0)


def test_iterative_path_matches_dense(unit_triple, monkeypatch):
    # force the sliced Lanczos path on a mid-size problem and compare
    evp = spectra.evp_from_trace(unit_triple, 5)
    dense = spectra.solve(evp).eigenvalues
    k = 150
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    it = spectra.solve(evp, how_many=k)
    assert it.meta["method"] == "lanczos-shift-invert"
    assert it.meta["inertia_verified"]
    assert np.max(np.abs(it.eigenvalues - dense[:k]) / dense[:k]) < 1e-9
    assert it.meta["residual_max"] <= 1e-8 * it.meta["lambda_scale"]
    # the unit triple's pencil is sliced on its D3 blocks: the slices of each
    # block are contiguous, and each E eigenvalue counts twice
    slices = it.meta["slices"]
    assert it.meta["symmetry"] == "D3"
    assert sum(sl["count"] * sl["copies"] for sl in slices) >= k
    assert all(sl["lo"] < sl["hi"] and sl["attempts"] >= (sl["count"] > 0) for sl in slices)
    assert all(sl["k_requested"] >= sl["count"] for sl in slices)
    for b in {sl["block"] for sl in slices}:
        own = [sl for sl in slices if sl["block"] == b]
        assert [sl["hi"] for sl in own[:-1]] == [sl["lo"] for sl in own[1:]]
    assert it.meta["trust_ceiling"] == spectra.trust_ceiling(it)


@pytest.mark.parametrize("scheme", ["arcfem m=5 refine 3", "trace m=6",
                                    "arcfem m=5 refine 3 triple 2,1,2", "trace m=6 triple 2,1,2"])
def test_dense_path_matches_eigvalsh(scheme):
    # the divide-and-conquer solve against numpy's eigvalsh on the same matrix;
    # the unit triple takes its D3 blocks (A1, A2 and E, listed twice), and
    # (2, 1, 2), mirrored in an oblique line, its even and odd blocks
    curvatures = scheme.split("triple ")[1].split(",") if "triple" in scheme else (1, 1, 1)
    t = geom.triple_from_curvatures(*map(float, curvatures))
    if scheme.startswith("arcfem"):
        evp, k = spectra.evp_from_arc_fem(t, 5, 3), 1000
    else:
        evp, k = spectra.evp_from_trace(t, 6), None
    s = spectra.solve(evp, how_many=k)
    assert s.meta["method"] == "dense" and len(s.meta["blocks"]) == (2 if "triple" in scheme else 4)
    _, _, _, A = spectra._free_pencil(evp, False)
    ref = np.linalg.eigvalsh(A.toarray())[: len(s)]
    floor = 1e-12 * s.meta["lambda_scale"]
    assert np.all(np.abs(s.eigenvalues - ref) <= np.maximum(1e-10 * np.abs(ref), floor))
    assert s.meta["residual_max"] <= spectra.RESIDUAL_RTOL * s.meta["lambda_scale"]


def _reflect(points, c, q):
    """Reflect (n, 2) points in the line through c and q."""
    u = np.subtract(q, c) / math.dist(q, c)
    x = points - np.asarray(c)
    return np.asarray(c) + 2.0 * (x @ u)[:, None] * u - x


@pytest.mark.parametrize("dirichlet", ["v0", "none"])
@pytest.mark.parametrize("scheme", ["trace", "arcfem"])
@pytest.mark.parametrize("curvatures", [(1.0, 1.0, 1.0), (1.0, 2.0, 2.0), (2.0, 1.0, 2.0)])
def test_builders_set_the_mirror(curvatures, scheme, dirichlet):
    # the cell-tree mirror is the reflection in the line through the odd
    # member's centre and the tangency point of the equal pair
    from gasketlab import forms

    t = geom.triple_from_curvatures(*curvatures)
    if scheme == "trace":
        evp = spectra.evp_from_trace(t, 4, dirichlet=dirichlet)
        points = forms.assemble_trace_form(t, 4).points
    else:
        evp = spectra.evp_from_arc_fem(t, 3, 3, dirichlet=dirichlet)
        points = forms.assemble_arc_fem(t, 3, 3).points
    p = evp.mirror
    assert p is not None and len(p) == evp.n_total
    odd = [j for j in range(3) if p[j] == j]
    assert len(odd) == 1 and sorted(p[:3]) == [0, 1, 2]
    (j,) = odd
    image = _reflect(points, t.disks[j].center, t.q[j])
    assert np.max(np.abs(points[p] - image)) <= 1e-12 * np.max(np.abs(points))


@pytest.mark.parametrize(
    "curvatures, dirichlet",
    [((1.0, 2.0, 3.0), "v0"), ((1.0, 2.0, 3.0), "none"), ((1.0, 1.0, 1.0), (0, 5)),
     ((1.0, 2.0, 2.0), (0, 5)), ((2.0, 1.0, 2.0), (0, 5))],
)
@pytest.mark.parametrize("scheme", ["trace", "arcfem"])
def test_builders_set_no_mirror(curvatures, dirichlet, scheme):
    # no equal pair, or no mirror of the triple keeps the Dirichlet set
    t = geom.triple_from_curvatures(*curvatures)
    if scheme == "trace":
        evp = spectra.evp_from_trace(t, 4, dirichlet=dirichlet)
    else:
        evp = spectra.evp_from_arc_fem(t, 3, 3, dirichlet=dirichlet)
    assert evp.mirror is None
    assert spectra.solve(evp).meta["blocks"] == [evp.n_free]


@pytest.mark.parametrize("corner", [0, 1, 2])
def test_builders_take_the_mirror_that_keeps_the_boundary(unit_triple, corner):
    # the unit triple has three mirrors; Dirichlet at one corner keeps only
    # the one that fixes it
    for evp in (spectra.evp_from_trace(unit_triple, 3, dirichlet=(corner,)),
                spectra.evp_from_arc_fem(unit_triple, 2, 2, dirichlet=(corner,))):
        p = evp.mirror[:3]
        assert p[corner] == corner and sorted(p) == [0, 1, 2] and list(p) != [0, 1, 2]


def test_arc_mirror_needs_a_symmetric_network():
    # equal curvatures, but the third disk sits 1e-10 off the line x = 1:
    # the trace pencil (curvatures alone) keeps its mirror, the arc network
    # (built from positions) moves by more than MIRROR_RTOL under each of
    # the three and gets none
    t = geom.validate_triple(geom.disk((0.0, 0.0), 1.0), geom.disk((2.0, 0.0), 1.0),
                             geom.disk((1.0 + 1e-10, math.sqrt(3.0)), 1.0))
    assert spectra.evp_from_trace(t, 3).mirror is not None
    evp = spectra.evp_from_arc_fem(t, 3, 3)
    assert evp.mirror is None
    assert spectra.solve(evp).meta["blocks"] == [evp.n_free]


@pytest.mark.parametrize("corruption, message", [
    ("unrelated pair", "invariant"), ("not an involution", "involution"),
    ("boundary", "boundary"), ("wrong length", "involution"),
])
def test_corrupted_mirror_raises(unit_triple, corruption, message):
    evp = spectra.evp_from_trace(unit_triple, 4)
    p, boundary = evp.mirror.copy(), evp.boundary
    fixed = np.flatnonzero(p == np.arange(len(p)))[3:]  # free vertices the mirror fixes
    if corruption == "unrelated pair":  # still an involution, but no symmetry
        p[fixed[:2]] = fixed[1::-1]
    elif corruption == "not an involution":
        p[fixed[0]] = fixed[1]
    elif corruption == "boundary":
        boundary = (int(np.flatnonzero(p != np.arange(len(p)))[0]),)
    else:
        p = p[:-1]
    with pytest.raises(ValueError, match=message):
        spectra.GeneralizedEVP(evp.stiffness, evp.mass, boundary, mirror=p)


@pytest.mark.parametrize("scheme", ["trace m=5 v0", "trace m=5 none", "arcfem m=4 refine 3"])
def test_mirror_block_sizes(scheme):
    # the even block is larger by the number of free vertices the mirror
    # fixes; (2, 1, 2) has a mirror and no rotation
    t = geom.triple_from_curvatures(2.0, 1.0, 2.0)
    if scheme.startswith("arcfem"):
        evp = spectra.evp_from_arc_fem(t, 4, 3)
    else:
        evp = spectra.evp_from_trace(t, 5, dirichlet=scheme.split()[-1])
    assert evp.rotation is None
    s = spectra.solve(evp)
    free = np.setdiff1d(np.arange(evp.n_total), evp.boundary)
    n_fixed = int(np.count_nonzero(evp.mirror[free] == free))
    even, odd = s.meta["blocks"]
    assert n_fixed > 0 and even - odd == n_fixed and even + odd == evp.n_free


def _pencil_of(curvatures, scheme):
    """"trace m=5 v0" or "arcfem m=4 refine 3 none" on the triple of ``curvatures``."""
    t = geom.triple_from_curvatures(*curvatures)
    words = scheme.split()
    m, dirichlet = int(words[1][2:]), words[-1]
    if words[0] == "arcfem":
        return spectra.evp_from_arc_fem(t, m, int(words[3]), dirichlet=dirichlet)
    return spectra.evp_from_trace(t, m, dirichlet=dirichlet)


def _positions(evp, vmap):
    """A vertex map of ``evp`` on the positions of its free vertices."""
    free = np.setdiff1d(np.arange(evp.n_total), evp.boundary)
    at = np.empty(evp.n_total, dtype=int)
    at[free] = np.arange(len(free))
    return at[vmap[free]]


@pytest.mark.parametrize("scheme", ["trace", "arcfem"])
@pytest.mark.parametrize("dirichlet", ["v0", "none"])
def test_builders_set_the_rotation(unit_triple, scheme, dirichlet):
    # the cell-tree rotation turns the points by 120 degrees about the
    # centre of the unit triple; an isosceles triple, or a Dirichlet set the
    # rotation moves, keeps the mirror alone
    from gasketlab import forms

    if scheme == "trace":
        evp = spectra.evp_from_trace(unit_triple, 4, dirichlet=dirichlet)
        points = forms.assemble_trace_form(unit_triple, 4).points
    else:
        evp = spectra.evp_from_arc_fem(unit_triple, 3, 3, dirichlet=dirichlet)
        points = forms.assemble_arc_fem(unit_triple, 3, 3).points
    r = evp.rotation
    assert r is not None and len(r) == evp.n_total and sorted(r[:3]) == [0, 1, 2]
    centre = np.mean([d.center for d in unit_triple.disks], axis=0)
    x = points - centre
    errors = []
    for angle in (2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0):
        c, s = math.cos(angle), math.sin(angle)
        turned = centre + x @ np.array([[c, s], [-s, c]])
        errors.append(np.max(np.abs(points[r] - turned)))
    assert min(errors) <= 1e-12 * np.max(np.abs(points))
    isosceles = geom.triple_from_curvatures(2.0, 1.0, 2.0)
    for e in (spectra.evp_from_trace(isosceles, 4, dirichlet=dirichlet),
              spectra.evp_from_trace(unit_triple, 4, dirichlet=(0,)),
              spectra.evp_from_arc_fem(unit_triple, 2, 2, dirichlet=(1,))):
        assert e.mirror is not None and e.rotation is None


def test_arc_symmetries_past_int32_piece_keys(unit_triple):
    # a piece's ends are V_m ids (below 29,526 at m=9), and its key is
    # min * n + max: at m=9 refine 2 (88,575 vertices) that passes 2^31, so
    # ``extend_vertex_map`` forms it in int64 and both symmetries survive
    evp = spectra.evp_from_arc_fem(unit_triple, 9, 2)
    assert evp.n_total == 88575 and 29525 * 88575 > 2**31
    assert evp.mirror is not None and evp.rotation is not None


@pytest.mark.parametrize("corruption, message", [
    ("order 2", "order 3"), ("not conjugated", "inverse"), ("boundary", "boundary"),
    ("pencil", "invariant"), ("no mirror", "needs a mirror"),
])
def test_corrupted_rotation_raises(unit_triple, corruption, message):
    evp = spectra.evp_from_trace(unit_triple, 4)
    p, r, boundary, mass = evp.mirror, evp.rotation.copy(), evp.boundary, evp.mass
    # a free vertex of a D3 orbit of six, which no mirror fixes
    x = next(i for i in range(3, len(p)) if len({i, p[i], r[i], r[r[i]]}) == 4)
    if corruption == "order 2":  # the mirror itself
        r = p.copy()
    elif corruption == "not conjugated":  # one 3-cycle of r, the identity elsewhere
        cycle = [x, r[x], r[r[x]]]
        r = np.arange(len(p))
        r[cycle] = np.roll(cycle, -1)
    elif corruption == "boundary":  # a corner the mirror fixes and the rotation moves
        boundary = (next(c for c in range(3) if p[c] == c),)
    elif corruption == "pencil":  # the mirror keeps the mass, the rotation moves it
        mass = mass.copy()
        mass[[x, p[x]]] *= 1.001
    else:
        p = None
    with pytest.raises(ValueError, match=message):
        spectra.GeneralizedEVP(evp.stiffness, mass, boundary, mirror=p, rotation=r)


@pytest.mark.parametrize("group", ["D3", "D3 by the mirror s r", "mirror"])
def test_symmetry_bases_are_orthonormal(group):
    # together the bases are an orthonormal basis of the free vectors, and
    # each has its symmetry: even (A1, E) or odd (A2, E'), r-invariant (A1,
    # A2) or orthogonal to the r-invariant vectors (E, E').  The builders'
    # mirror fixes the lowest vertex of each orbit of three; s r fixes
    # another, which the orbit's basis vectors must be built on
    evp = _pencil_of((2.0, 1.0, 2.0) if group == "mirror" else (1.0, 1.0, 1.0), "trace m=4 none")
    if group == "D3 by the mirror s r":
        evp = spectra.GeneralizedEVP(evp.stiffness, evp.mass, evp.boundary,
                                     mirror=evp.mirror[evp.rotation], rotation=evp.rotation)
    free = np.setdiff1d(np.arange(evp.n_total), evp.boundary)
    bases = spectra._symmetry_bases(evp, free)
    Q = np.hstack([Q.toarray() for copies in bases for Q in copies])
    assert Q.shape == (len(free), len(free))
    assert np.max(np.abs(Q.T @ Q - np.eye(len(free)))) <= 1e-14
    s = _positions(evp, evp.mirror)
    signs = [1, -1] if evp.rotation is None else [1, -1, 1, -1]
    for Q_b, sign in zip([Q for copies in bases for Q in copies], signs):
        assert np.max(np.abs(Q_b[s].toarray() - sign * Q_b.toarray())) <= 1e-15
    if evp.rotation is not None:
        r = _positions(evp, evp.rotation)
        (A1,), (A2,), (E, E_odd) = bases
        for Q_b in (A1, A2):
            assert np.max(np.abs(Q_b[r].toarray() - Q_b.toarray())) <= 1e-15
        for Q_b in (E, E_odd):
            assert np.max(np.abs((Q_b + Q_b[r] + Q_b[r[r]]).toarray())) <= 1e-15


def _orbit_sizes(evp):
    """The size of the D3 orbit of each free vertex."""
    free = np.setdiff1d(np.arange(evp.n_total), evp.boundary)
    s, r = evp.mirror, evp.rotation
    images = np.stack([free, r[free], r[r[free]], s[free], s[r[free]], s[r[r[free]]]], axis=1)
    return np.array([len(set(row)) for row in images.tolist()])


@pytest.mark.parametrize("scheme", ["trace m=5 v0", "trace m=5 none",
                                    "arcfem m=4 refine 3 v0", "arcfem m=4 refine 3 none"])
def test_d3_block_sizes(scheme):
    # n_A1 + n_A2 + 2 n_E = n_free, and A1 is larger than A2 by the number
    # of free orbits of size 3 or 1 (the orbits on the mirror lines)
    evp = _pencil_of((1.0, 1.0, 1.0), scheme)
    s = spectra.solve(evp)
    n_a1, n_a2, n_e, n_e_odd = s.meta["blocks"]
    size = _orbit_sizes(evp)
    assert set(size.tolist()) <= {1, 2, 3, 6}
    on_lines = int(round(np.sum(1.0 / size[np.isin(size, (1, 3))])))
    assert s.meta["symmetry"] == "D3" and n_e == n_e_odd
    assert n_a1 + n_a2 + 2 * n_e == evp.n_free
    assert n_a1 - n_a2 == on_lines > 0


@pytest.mark.parametrize("curvatures, scheme", [
    ((1.0, 1.0, 1.0), "trace m=5 v0"), ((1.0, 1.0, 1.0), "trace m=5 none"),
    ((1.0, 1.0, 1.0), "arcfem m=4 refine 3 v0"), ((1.0, 1.0, 1.0), "arcfem m=4 refine 3 none"),
    ((2.0, 1.0, 2.0), "trace m=5 v0"),
])
def test_inertia_adds_over_the_blocks(curvatures, scheme):
    # count_below(A, sigma) = sum over the blocks of copies * count_below(B, sigma)
    evp = _pencil_of(curvatures, scheme)
    free, _, _, A = spectra._free_pencil(evp, False)
    bases = spectra._symmetry_bases(evp, free)
    assert [len(copies) for copies in bases] == ([1, 1] if evp.rotation is None else [1, 1, 2])
    blocks = [(spectra._project(A, copies[0]), len(copies)) for copies in bases]
    checked = 0
    for sigma in np.geomspace(1.0, spectra._gershgorin_upper(A), 40):
        try:
            whole = spectra.count_below(A, sigma)
        except DegenerateShift:
            continue
        assert whole == sum(c * spectra.count_below(B, sigma) for B, c in blocks), sigma
        checked += 1
    assert checked >= 36


@pytest.mark.parametrize("scheme, path, k", [
    ("trace m=5 v0", "dense", 150), ("trace m=5 v0", "sliced", 150),
    ("arcfem m=4 refine 3 none", "dense", 150), ("arcfem m=4 refine 3 none", "sliced", 150),
    ("trace m=7 v0", "sliced", 300),
])
def test_d3_eigenvalues_match_the_unsplit_solve(monkeypatch, scheme, path, k):
    # the D3 solve against the same pencil without its symmetries, on the
    # same path; each E eigenvalue is reported twice, with equal bits.  On
    # trace m=7 (the benchmark's sliced solve) lambda_1 sits at the bottom
    # of a wide first A1 slice: ARPACK's value is 2.5e-10 off there, and the
    # Rayleigh quotient is not
    evp = _pencil_of((1.0, 1.0, 1.0), scheme)
    plain = spectra.GeneralizedEVP(evp.stiffness, evp.mass, evp.boundary)
    monkeypatch.setattr(spectra, "DENSE_KN2", 0.0 if path == "dense" else 1.0)
    s, ref = spectra.solve(evp, how_many=k), spectra.solve(plain, how_many=k)
    assert s.meta["symmetry"] == "D3" and ref.meta["symmetry"] == "none"
    assert s.meta["method"] == ref.meta["method"] and len(s) == len(ref) == k
    tol = np.where(ref.eigenvalues > 0.0, 1e-10 * ref.eigenvalues,
                   1e-12 * s.meta["lambda_scale"])  # an absolute floor for the zero mode
    assert np.all(np.abs(s.eigenvalues - ref.eigenvalues) <= tol)
    assert s.meta["inertia_verified"]
    assert s.meta["residual_max"] <= spectra.RESIDUAL_RTOL * s.meta["lambda_scale"]
    free, _, _, A = spectra._free_pencil(evp, False)
    E = spectra._symmetry_bases(evp, free)[2][0]
    lam_e = np.linalg.eigvalsh(spectra._project(A, E).toarray())
    lam_e = lam_e[lam_e < s.eigenvalues[-1] * (1.0 - 1e-9)]
    values, counts = np.unique(s.eigenvalues, return_counts=True)
    for lam in lam_e:
        j = np.argmin(np.abs(values - lam))
        assert counts[j] == 2 and abs(values[j] - lam) <= 1e-9 * lam
    assert counts.max() == 2 and np.sum(counts == 2) in (len(lam_e), len(lam_e) + 1)


def test_d3_certificate_covers_both_e_copies(unit_triple, monkeypatch):
    # each kept E pair is certified through Q_E and through Q_E', on both paths
    evp = spectra.evp_from_trace(unit_triple, 5)
    residual_max, widths = spectra._residual_max, []

    def spy(K, d, lams, Y, Q):
        widths.append(Y.shape[1])
        return residual_max(K, d, lams, Y, Q)

    monkeypatch.setattr(spectra, "_residual_max", spy)
    for dense_kn2 in (0.0, 1.0):
        monkeypatch.setattr(spectra, "DENSE_KN2", dense_kn2)
        widths.clear()
        s = spectra.solve(evp, how_many=100)
        if dense_kn2 == 0.0:  # A1, A2, E, E': exactly the k reported pairs
            assert len(widths) == 4 and sum(widths) == 100
        else:  # per slice, the E slices twice
            e_slices = [sl for sl in s.meta["slices"] if sl["copies"] == 2 and sl["count"]]
            assert len(widths) == sum(sl["copies"] for sl in s.meta["slices"] if sl["count"])
            assert e_slices and sum(widths) >= 100


@pytest.mark.parametrize("k", [114, 115, 116, 117, 118])
def test_sliced_block_whose_count_reaches_its_size(unit_triple, monkeypatch, k):
    # ARPACK gives at most n_b - 1 pairs of an n_b block, so a block whose
    # count below the shared bound reaches n_b - 1 is solved whole by syevd
    # (unit trace m=4: blocks of 22, 18 and 40; at k = 114 A2 counts all 18
    # of its own and E 39 of its 40, from k = 115 every block counts all)
    evp = spectra.evp_from_trace(unit_triple, 4)
    dense = spectra.solve(evp).eigenvalues
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    residual_max, widths = spectra._residual_max, []

    def spy(K, d, lams, Y, Q):
        widths.append(Y.shape[1])
        return residual_max(K, d, lams, Y, Q)

    monkeypatch.setattr(spectra, "_residual_max", spy)
    s = spectra.solve(evp, how_many=k)
    assert s.meta["method"] == "lanczos-shift-invert" and s.meta["symmetry"] == "D3"
    assert np.all(np.abs(s.eigenvalues - dense[:k]) <= 1e-10 * dense[:k])
    assert s.meta["inertia_verified"] is True
    assert 0.0 < s.meta["residual_max"] <= spectra.RESIDUAL_RTOL * s.meta["lambda_scale"]
    # every pair below the shared bound is certified, through each basis
    assert sum(widths) >= sum(sl["count"] * sl["copies"] for sl in s.meta["slices"]) > k
    whole = [sl for sl in s.meta["slices"]
             if sl["k_requested"] == s.meta["blocks"][sl["block"]]]
    assert whole and all(sl["count"] >= sl["k_requested"] - 1 for sl in whole)


@pytest.mark.parametrize("scheme", ["trace m=5", "arcfem m=4 refine 4 k=600"])
def test_unmirrored_dense_is_one_eigh_call(scheme):
    # no mirror: solve reports the bits of the one syevd call on A itself
    t = geom.triple_from_curvatures(1.0, 2.0, 3.0)
    if scheme.startswith("arcfem"):
        evp, k = spectra.evp_from_arc_fem(t, 4, 4), 600
    else:
        evp, k = spectra.evp_from_trace(t, 5), None
    s = spectra.solve(evp, how_many=k)
    assert evp.mirror is None and s.meta["method"] == "dense"
    assert s.meta["blocks"] == [evp.n_free]
    _, _, _, A = spectra._free_pencil(evp, False)
    lams = sla.eigh(A.toarray(order="F"), driver="evd", overwrite_a=True, check_finite=False)[0]
    assert np.array_equal(s.eigenvalues, lams[: len(s)])


def test_interlacing_keeps_the_mirror(unit_triple, monkeypatch):
    # the base problem keeps D3; the constrained one keeps D3 if that maps V
    # onto itself, else evp.mirror if that does, else none (also where
    # another mirror of D3 would keep V, as for a corner evp.mirror moves).
    # The report matches the unsplit one
    evp = spectra.evp_from_trace(unit_triple, 4, dirichlet="none")
    plain = spectra.GeneralizedEVP(evp.stiffness, evp.mass, ())
    solve, groups = spectra.solve, []

    def recording(e, **kwargs):
        groups.append("D3" if e.rotation is not None else "mirror" if e.mirror is not None
                      else None)
        if e.mirror is not None:
            assert spectra._keeps(e.mirror, e.boundary)
        return solve(e, **kwargs)

    p = evp.mirror
    x = next(i for i in range(3, evp.n_total) if p[i] != i)  # the mirror keeps {x, p[x]}
    corner = next(c for c in range(3) if p[c] != c)
    monkeypatch.setattr(spectra, "solve", recording)
    for V, split in (((0, 1, 2), ["D3", "D3"]), ((0, 5), ["D3", None]),
                     ((x, int(p[x])), ["D3", "mirror"]), ((corner,), ["D3", None])):
        groups.clear()
        rep = spectra.interlacing_check(evp, V)
        assert groups == split
        ref = spectra.interlacing_check(plain, V)
        assert rep.n_checked == ref.n_checked and rep.ok
        assert abs(rep.max_low_violation - ref.max_low_violation) <= 1e-10
        assert abs(rep.max_high_violation - ref.max_high_violation) <= 1e-10


@pytest.mark.parametrize("dirichlet", ["v0", "none"])
def test_dense_solve_leaves_pencil_unchanged(unit_triple, dirichlet):
    # the dense eigensolve overwrites its input: it must be a private copy
    evp = spectra.evp_from_trace(unit_triple, 4, dirichlet=dirichlet)
    K, mass = evp.stiffness.copy(), evp.mass.copy()
    spectra.solve(evp, allow_disconnected=True)
    assert np.array_equal(evp.stiffness.data, K.data)
    assert np.array_equal(evp.stiffness.indices, K.indices)
    assert np.array_equal(evp.stiffness.indptr, K.indptr)
    assert np.array_equal(evp.mass, mass)


def _residual_columns(K, d, lams, Y, s):
    V = Y * s[:, None]
    R = K @ V - (d[:, None] * V) * lams[None, :]
    return np.linalg.norm(R, axis=0) / np.linalg.norm(V, axis=0)


def _residual_max_one_block(K, d, lams, Y, s):
    # the certificate as one n x k block: the oracle for the blocked version
    return float(np.max(_residual_columns(K, d, lams, Y, s))) if len(lams) else 0.0


# F: dense eigh, and one slice's kept columns (gathered from eigsh's output);
# C: a C-order block.  On the identity basis of an unsplit pencil the
# certificate must not depend on the layout of Y: each column keeps the bits
# it has in the one C-order n x k block Q Y
@pytest.mark.parametrize("layout", ["F", "C"])
def test_blocked_residual_is_bit_identical(unit_triple, layout):
    evp = spectra.evp_from_trace(unit_triple, 5)
    _, K, d, A = spectra._free_pencil(evp, False)
    s = 1.0 / np.sqrt(d)
    Q = sp.identity(A.shape[0], format="dia")
    as_layout = np.asfortranarray if layout == "F" else np.ascontiguousarray
    lams, Y = np.linalg.eigh(A.toarray())
    Y = as_layout(Y)
    for k in (0, 1, 127, 128, 129, 300):
        oracle = _residual_max_one_block(K, d, lams[:k], Q @ Y[:, :k], s)
        assert spectra._residual_max(K, d, lams[:k], Y[:, :k], Q) == oracle, k
    # numpy sums the norm of a lone column pairwise, so a one-column tail
    # block would change bits: make such a column the worst of 129, and last
    in_block = _residual_columns(K, d, lams, Q @ Y, s)
    alone = np.array([_residual_columns(K, d, lams[j : j + 1], Q @ Y[:, j : j + 1], s)[0]
                      for j in range(len(lams))])
    moved = np.flatnonzero(in_block != alone)
    worst = moved[np.argmax(in_block[moved])]
    order = np.r_[np.flatnonzero(in_block < in_block[worst])[:128], worst]
    Y_w = as_layout(Y[:, order])
    oracle = _residual_max_one_block(K, d, lams[order], Q @ Y_w, s)
    assert oracle == in_block[worst] != alone[worst]
    assert spectra._residual_max(K, d, lams[order], Y_w, Q) == oracle


@pytest.mark.parametrize("curvatures",[(1.0, 1.0, 1.0), (2.0, 1.0, 2.0), (1.0, 2.0, 3.0)],
                         ids=["D3", "mirror", "none"])
def test_streamed_certificate_has_one_block_bits(curvatures):
    # _residual_max maps one column block at a time through the basis Q;
    # each column must keep the bits it has in the one C-order n x k block
    # Q @ Y, for every basis: E and its odd partner included, and the
    # identity of the trivial group's one block
    evp = spectra.evp_from_trace(geom.triple_from_curvatures(*curvatures), 6)
    free, K, d, A = spectra._free_pencil(evp, False)
    s = 1.0 / np.sqrt(d)
    bases = spectra._symmetry_bases(evp, free)
    assert len(bases) == (1 if evp.mirror is None else 2 if evp.rotation is None else 3)
    for copies in bases:
        lams, Y = sla.eigh(spectra._project(A, copies[0]).toarray(order="F"), driver="evd")
        for Q in copies:
            for k in (0, 1, 127, 128, 129, 300):
                if k > len(lams):
                    continue
                oracle = _residual_max_one_block(K, d, lams[:k], Q @ Y[:, :k], s)
                assert spectra._residual_max(K, d, lams[:k], Y[:, :k], Q) == oracle, k
    # numpy sums the norm of a lone column pairwise, so a one-column tail
    # block would change bits: make such a column the worst of 129, and
    # last (of E' on D3, the odd block on the mirror, the identity on none)
    in_block = _residual_columns(K, d, lams, Q @ Y, s)
    alone = np.array([_residual_columns(K, d, lams[j : j + 1], Q @ Y[:, j : j + 1], s)[0]
                      for j in range(len(lams))])
    moved = np.flatnonzero(in_block != alone)
    j = moved[np.argmax(in_block[moved])]
    order = np.r_[np.flatnonzero(in_block < in_block[j])[:128], j]
    assert len(order) == 129
    oracle = _residual_max_one_block(K, d, lams[order], Q @ Y[:, order], s)
    assert oracle == in_block[j] != alone[j]
    assert spectra._residual_max(K, d, lams[order], Y[:, order], Q) == oracle
    # a sliced lone pair goes twice, so it keeps its in-block bits
    twice = spectra._residual_max(K, d, lams[[j, j]], Y[:, [j, j]], Q)
    assert twice == in_block[j] != alone[j]


def test_slice_certificates_have_one_block_bits(monkeypatch):
    # each slice certifies only the pairs it keeps and drops them; the
    # certificates must carry the bits of one C-order n x (k + 1) block over
    # all of them.  Trace m=5 of 1,2,3 in slices of 4 places the shared
    # bound at count k + 1 = 49 and cuts the last slice down to one kept
    # pair, whose lone norm changes bits (with numpy 2.4)
    evp = spectra.evp_from_trace(geom.triple_from_curvatures(1.0, 2.0, 3.0), 5)
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    monkeypatch.setattr(spectra, "SLICE_SIZE", 4)
    residual_max, certified = spectra._residual_max, []

    def spy(K, d, lams, Y, Q):
        certified.append((lams, Q @ Y, residual_max(K, d, lams, Y, Q)))
        return certified[-1][2]

    monkeypatch.setattr(spectra, "_residual_max", spy)
    k = 48
    spec = spectra.solve(evp, how_many=k)
    assert [sl["count"] for sl in spec.meta["slices"]] == [4] * 12 + [1]
    lone_lams, lone_V, worst = certified[-1]
    certified[-1] = (lone_lams[:1], lone_V[:, :1], worst)  # its one pair, once
    lams = np.concatenate([c[0] for c in certified])
    assert len(lams) == k + 1 and np.all(np.diff(lams) >= 0.0)
    _, K, d, _ = spectra._free_pencil(evp, False)
    s = 1.0 / np.sqrt(d)
    V = np.hstack([c[1] for c in certified])
    in_block = _residual_columns(K, d, lams, V, s)
    assert in_block[-1] != _residual_columns(K, d, lams[-1:], V[:, -1:], s)[0]
    edges = np.cumsum([0] + [len(c[0]) for c in certified])
    assert [c[2] for c in certified] == [in_block[a:b].max() for a, b in zip(edges, edges[1:])]
    assert spec.meta["residual_max"] == in_block.max()


def test_sliced_solve_holds_no_n_by_k_array(unit_triple, monkeypatch):
    # the slices drop their vectors once certified: the traced peak of a
    # forced sliced solve (about 3.4 MB) stays below one n x k float64 array
    # (5.2 MB here)
    evp = spectra.evp_from_trace(unit_triple, 6)
    k = 600
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    tracemalloc.start()
    try:
        spec = spectra.solve(evp, how_many=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.meta["method"] == "lanczos-shift-invert" and len(spec) == k
    assert peak < evp.n_free * k * 8


def test_dense_split_solve_holds_no_n_by_k_array(unit_triple, monkeypatch):
    # the dense path solves the largest block first and certifies each
    # basis's own kept columns, mapped one column block at a time: the
    # traced peak of the full D3 solve of trace m=6 (about 5.5 MB) stays
    # below one n x k float64 array (9.5 MB here)
    evp = spectra.evp_from_trace(unit_triple, 6)
    residual_max, own = spectra._residual_max, []

    def spy(K, d, lams, Y, Q):
        own.append(Y.shape[0] == Q.shape[1])
        return residual_max(K, d, lams, Y, Q)

    monkeypatch.setattr(spectra, "_residual_max", spy)
    tracemalloc.start()
    try:
        spec = spectra.solve(evp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.meta["method"] == "dense" and spec.meta["symmetry"] == "D3"
    assert len(spec) == evp.n_free
    assert peak < evp.n_free * len(spec) * 8
    assert own == [True] * 4  # A1, A2, E, E': never a product Q @ Y handed in


def test_inertia_consistency_random_shifts(unit_triple, rng):
    # Sylvester counts against the dense spectrum at 10 random shifts
    evp = spectra.evp_from_trace(unit_triple, 4)
    free, K, d, A = spectra._free_pencil(evp, False)
    lam = spectra.solve(evp).eigenvalues
    for _ in range(10):
        sigma = float(rng.uniform(lam[0], lam[-1]))
        assert spectra.count_below(A, sigma) == int(np.sum(lam < sigma))


@pytest.mark.parametrize("scheme", ["trace m=7", "arcfem m=5 refine 3"])
def test_sparse_inertia_matches_eigvalsh(unit_triple, scheme):
    # 100 seeded shifts spread over the spectrum by index; shifts within
    # 1e-9 (relative) of an eigenvalue are left out
    if scheme.startswith("trace"):
        evp = spectra.evp_from_trace(unit_triple, 7)
    else:
        evp = spectra.evp_from_arc_fem(unit_triple, 5, 3)
    _, _, _, A = spectra._free_pencil(evp, False)
    lam = np.linalg.eigvalsh(A.toarray())
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        j = int(rng.integers(0, len(lam) - 1))
        sigma = float(lam[j] + rng.uniform() * (lam[j + 1] - lam[j]))
        if np.min(np.abs(lam - sigma)) <= 1e-9 * abs(sigma):
            continue
        assert spectra.count_below(A, sigma) == int(np.sum(lam < sigma)), sigma
        checked += 1


def test_count_below_refuses_exact_eigenvalue(unit_triple):
    # the unconstrained pencil has the exact eigenvalue 0 (constants)
    evp = spectra.evp_from_trace(unit_triple, 7, dirichlet="none")
    _, _, _, A = spectra._free_pencil(evp, False)
    with pytest.raises(DegenerateShift):
        spectra.count_below(A, 0.0)


@pytest.mark.parametrize("offset", [0.0, 5e-11])
def test_slice_bound_on_double_eigenvalue(unit_triple, monkeypatch, offset):
    # two identical blocks make every eigenvalue exactly double; a slice
    # bound forced onto one, or 5e-11 (relative) above it, must be moved
    # off it before it is trusted
    block = spectra.evp_from_trace(unit_triple, 4, dirichlet="none")
    n = block.n_total
    evp = spectra.GeneralizedEVP(
        sp.block_diag([block.stiffness, block.stiffness]).tocsr(),
        np.concatenate([block.mass, block.mass]),
        (0, 1, 2, n, n + 1, n + 2),
    )
    _, _, _, A_block = spectra._free_pencil(
        spectra.GeneralizedEVP(block.stiffness, block.mass, (0, 1, 2)), False
    )
    # slices of 220 and k = 220 give two slices and a first target of 111
    # eigenvalues; the double block eigenvalue 55 is the 111th and 112th of
    # the pair
    double = float(np.linalg.eigvalsh(A_block.toarray())[55]) * (1.0 + offset)
    guess, forced = spectra._guess, []

    def guess_onto_double(lo, c_lo, hi, c_hi, target):
        if not forced and lo < double < hi:
            forced.append((lo, hi))
            return double
        return guess(lo, c_lo, hi, c_hi, target)

    monkeypatch.setattr(spectra, "_guess", guess_onto_double)
    monkeypatch.setattr(spectra, "SLICE_SIZE", 220)
    k = 220
    dense = spectra.solve(evp, allow_disconnected=True).eigenvalues
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    it = spectra.solve(evp, how_many=k, allow_disconnected=True)
    assert forced and it.meta["inertia_verified"]
    assert np.max(np.abs(it.eigenvalues - dense[:k]) / dense[:k]) < 1e-9
    first = it.meta["slices"][0]
    assert first["moves"] and first["moves"][0][0] == double
    assert first["hi"] > double and first["count"] == int(np.sum(dense < first["hi"]))


@pytest.mark.parametrize("k", [2, 4])
def test_sliced_zero_cluster_of_disconnected_pencil(unit_triple, monkeypatch, k):
    # six free trace m=4 blocks have six zero modes; bisection toward the
    # first target (k + 1 < 6) reaches the roundoff band of 0, where no
    # count can be taken, and the first slice keeps all six
    block = spectra.evp_from_trace(unit_triple, 4, dirichlet="none")
    evp = spectra.GeneralizedEVP(
        sp.block_diag([block.stiffness] * 6).tocsr(), np.concatenate([block.mass] * 6), ()
    )
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    s = spectra.solve(evp, how_many=k, allow_disconnected=True)
    assert s.meta["method"] == "lanczos-shift-invert" and s.meta["inertia_verified"]
    assert np.array_equal(s.eigenvalues, np.zeros(k))
    first = s.meta["slices"][0]
    assert first["count"] == 6 and 0.0 < first["hi"] < 1e-8 * s.meta["lambda_scale"]


def test_slice_loop_places_no_bound_past_k(unit_triple, monkeypatch):
    # k = 4: the shared bound aims at k + 1 = 5 and lands on the whole zero
    # cluster, count 6.  With SLICE_SIZE 2 the block's targets are then 2, 4
    # and 6, but the first slice keeps the cluster, so the loop stops there
    # and places no bound toward a later target
    block = spectra.evp_from_trace(unit_triple, 4, dirichlet="none")
    evp = spectra.GeneralizedEVP(
        sp.block_diag([block.stiffness] * 6).tocsr(), np.concatenate([block.mass] * 6), ()
    )
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    bound, targets = spectra._bound, []

    def spy(count, counted, target, step):
        targets.append(target)
        return bound(count, counted, target, step)

    monkeypatch.setattr(spectra, "_bound", spy)
    for size, expected in ((spectra.SLICE_SIZE, [5, 6]), (2, [5, 2])):
        monkeypatch.setattr(spectra, "SLICE_SIZE", size)
        targets.clear()
        s = spectra.solve(evp, how_many=4, allow_disconnected=True)
        assert targets == expected
        assert np.array_equal(s.eigenvalues, np.zeros(4))
        assert [sl["count"] for sl in s.meta["slices"]] == [6]


def test_slice_placement_by_counts(monkeypatch):
    _check_slice_placement((1.0, 1.0, 1.0), monkeypatch)


def test_slice_placement_by_counts_unsplit(monkeypatch):
    _check_slice_placement((1.0, 2.0, 3.0), monkeypatch)


def test_asymmetric_sliced_solve_shares_its_bound(monkeypatch):
    # 1,2,3 trace m=7, k=1000 runs the block path on its one block: the
    # shared k + 1 bound, then slices below it, with Rayleigh quotients.
    # The shifts counted for the bound seed the slices: 35 inertia counts,
    # where slicing for k + 1 from the bottom alone takes 51
    evp = spectra.evp_from_trace(geom.triple_from_curvatures(1.0, 2.0, 3.0), 7)
    k = 1000
    count_below, calls = spectra.count_below, []

    def counting(A, sigma):
        calls.append(sigma)
        return count_below(A, sigma)

    monkeypatch.setattr(spectra, "count_below", counting)
    s = spectra.solve(evp, how_many=k)
    assert s.meta["method"] == "lanczos-shift-invert" and s.meta["inertia_verified"]
    assert s.meta["symmetry"] == "none" and s.meta["blocks"] == [evp.n_free]
    assert len(calls) <= 40
    ref = np.linalg.eigvalsh(spectra._free_pencil(evp, False)[3].toarray())[:k]
    assert np.max(np.abs(s.eigenvalues - ref) / ref) <= 1e-10


def _check_slice_placement(curvatures, monkeypatch):
    # trace m=7, k=1000: each block (the D3 blocks of the unit triple, the
    # trivial group's one block of 1,2,3) is cut into ceil(total /
    # SLICE_SIZE) slices of at most step + step // 8 eigenvalues (the
    # placement tolerance), for its count `total` below the shared bound;
    # each bound is a shift that count_below counted, and no eigsh call goes
    # beyond one per slice
    evp = spectra.evp_from_trace(geom.triple_from_curvatures(*curvatures), 7)
    k = 1000
    counted, eigsh_calls = {}, []
    count_below, spla = spectra.count_below, spectra.spla

    def counting(A, sigma):  # keyed by the block size, which tells the blocks apart
        counted[A.shape[0], sigma] = count_below(A, sigma)
        return counted[A.shape[0], sigma]

    class CountingEigsh:
        def __getattr__(self, name):
            return getattr(spla, name)

        def eigsh(self, *args, **kwargs):
            eigsh_calls.append(kwargs["sigma"])
            return spla.eigsh(*args, **kwargs)

    monkeypatch.setattr(spectra, "count_below", counting)
    monkeypatch.setattr(spectra, "spla", CountingEigsh())
    s = spectra.solve(evp, how_many=k)
    slices, sizes = s.meta["slices"], s.meta["blocks"]
    assert s.meta["inertia_verified"]
    assert sum(sl["count"] * sl["copies"] for sl in slices) >= k + 1
    for b in {sl["block"] for sl in slices}:
        own = [sl for sl in slices if sl["block"] == b]
        assert all(counted[sizes[b], sl["hi"]] == sum(x["count"] for x in own[: i + 1])
                   for i, sl in enumerate(own))
        if not any(sl["moves"] for sl in own):
            total = sum(sl["count"] for sl in own)  # the block's count below the shared bound
            n_own = math.ceil(total / spectra.SLICE_SIZE)
            step_own = math.ceil(total / n_own)
            assert len(own) == n_own
            assert all(sl["count"] <= step_own + step_own // 8 for sl in own)
    if all(sl["attempts"] <= 1 for sl in slices):
        assert len(eigsh_calls) == sum(sl["count"] > 0 for sl in slices)


def test_guided_bounds_take_fewer_counts_than_bisection(unit_triple, monkeypatch):
    # trace m=7, k=300 at SLICE_SIZE 48: the guided bounds take 17 counts,
    # bisection toward the same targets (the placement before guided
    # splits) takes 27; both place every bound on a counted shift
    evp = spectra.evp_from_trace(unit_triple, 7)
    count_below, calls = spectra.count_below, []

    def counting(A, sigma):
        calls.append(sigma)
        return count_below(A, sigma)

    monkeypatch.setattr(spectra, "count_below", counting)
    s = spectra.solve(evp, how_many=300)
    assert s.meta["method"] == "lanczos-shift-invert" and s.meta["inertia_verified"]
    guided = len(calls)
    calls.clear()
    monkeypatch.setattr(spectra, "_guess", lambda lo, c_lo, hi, c_hi, t: spectra._split(lo, hi))
    bisected = spectra.solve(evp, how_many=300)
    assert len(calls) > guided
    assert np.max(np.abs(bisected.eigenvalues - s.eigenvalues) / s.eigenvalues) < 1e-9


def test_routing_in_n_and_k(unit_triple):
    # the benchmark's spectra solves keep their paths; trace m=6 (n_free
    # 1,092) with k=100 lies below the crossover and goes sliced
    for evp, k, method in [
        (spectra.evp_from_trace(unit_triple, 7), 300, "lanczos-shift-invert"),
        (spectra.evp_from_arc_fem(unit_triple, 5, 3), 1000, "dense"),
        (spectra.evp_from_trace(unit_triple, 5), None, "dense"),
    ]:
        assert spectra.solve(evp, how_many=k).meta["method"] == method
    trace6 = spectra.evp_from_trace(unit_triple, 6)
    dense = spectra.solve(trace6)
    assert dense.meta["method"] == "dense"
    s = spectra.solve(trace6, how_many=100)
    assert s.meta["method"] == "lanczos-shift-invert" and s.meta["inertia_verified"]
    assert np.max(np.abs(s.eigenvalues - dense.eigenvalues[:100]) / dense.eigenvalues[:100]) < 1e-9


def test_sliced_not_converged_when_slices_come_short(unit_triple, monkeypatch, short_eigsh):
    evp = spectra.evp_from_trace(unit_triple, 5)
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    with pytest.raises(NotConverged, match="kept missing") as caught:
        spectra.solve(evp, how_many=150)
    assert len(caught.value.partial) == 0  # the first slice already came short


def test_sliced_not_converged_keeps_finished_slices(monkeypatch, short_eigsh):
    _check_finished_slices_kept((1.0, 1.0, 1.0), monkeypatch, short_eigsh)


def test_sliced_not_converged_keeps_finished_slices_unsplit(monkeypatch, short_eigsh):
    _check_finished_slices_kept((1.0, 2.0, 3.0), monkeypatch, short_eigsh)


def _check_finished_slices_kept(curvatures, monkeypatch, short_eigsh):
    # only the second slice comes short: the first slice's eigenvalues are
    # attached.  Unsplit, they are all the dense eigenvalues below the first
    # bound; on the unit triple's D3 blocks, those of the first block, A1
    evp = spectra.evp_from_trace(geom.triple_from_curvatures(*curvatures), 5)
    dense = spectra.solve(evp).eigenvalues
    short_eigsh.honest = 100
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    first = spectra.solve(evp, how_many=300).meta["slices"][0]
    short_eigsh.honest = 1
    with pytest.raises(NotConverged, match="kept missing") as caught:
        spectra.solve(evp, how_many=300)
    below = dense[dense < first["hi"]]
    partial = caught.value.partial
    assert len(partial) == first["count"] * first["copies"] > 0
    if evp.mirror is None:
        assert len(partial) == len(below)
        assert np.max(np.abs(partial - below) / below) < 1e-9
    else:
        assert first["block"] == 0 and len(partial) < len(below)
        assert all(np.min(np.abs(below - x)) < 1e-9 * x for x in partial)


@pytest.mark.parametrize("dense_kn2", [0.0, 1.0])
def test_how_many_zero_and_negative(unit_triple, monkeypatch, dense_kn2):
    evp = spectra.evp_from_trace(unit_triple, 3)  # 39 free vertices
    monkeypatch.setattr(spectra, "DENSE_KN2", dense_kn2)
    with pytest.raises(ValueError, match="non-negative"):
        spectra.solve(evp, how_many=-5)

    def no_factorization(*args, **kwargs):
        raise AssertionError("factorization for an empty request")

    monkeypatch.setattr(spectra, "count_below", no_factorization)
    monkeypatch.setattr(spectra.sla, "eigh", no_factorization)
    monkeypatch.setattr(spectra.spla, "eigsh", no_factorization)
    s = spectra.solve(evp, how_many=0)
    assert len(s) == 0 and s.meta["inertia_verified"] and s.meta["trust_ceiling"] is None
    assert s.meta["method"] == ("dense" if dense_kn2 == 0.0 else "lanczos-shift-invert")


@pytest.mark.parametrize("how_many", [2.5, 2.0, True, np.float64(3.0), "3"])
def test_how_many_must_be_an_integer(unit_triple, how_many):
    evp = spectra.evp_from_trace(unit_triple, 3)
    with pytest.raises(ValueError, match="integer"):
        spectra.solve(evp, how_many=how_many)
    assert len(spectra.solve(evp, how_many=np.int64(3))) == 3


def test_dirichlet_monotonicity(unit_triple):
    evp = spectra.evp_from_trace(unit_triple, 3, dirichlet="none")
    lam_small = spectra.solve(
        spectra.GeneralizedEVP(evp.stiffness, evp.mass, (0, 1, 2))
    ).eigenvalues
    lam_big = spectra.solve(
        spectra.GeneralizedEVP(evp.stiffness, evp.mass, (0, 1, 2, 5, 9))
    ).eigenvalues
    n = len(lam_big)
    assert np.all(lam_big + 1e-11 >= lam_small[:n])


def test_duplicate_dirichlet_indices(unit_triple):
    # a repeated index is one boundary vertex: the pencil and solve agree on n_free
    evp = spectra.evp_from_trace(unit_triple, 3, dirichlet=(0, 0, 1, 2))
    assert evp.boundary == (0, 1, 2)
    assert evp.n_free == spectra.solve(evp).meta["n_free"] == 39
    with pytest.raises(ValueError, match="repeat"):
        spectra.GeneralizedEVP(evp.stiffness, evp.mass, (0, 0, 1, 2))


def test_interlacing_trivial_and_small(unit_triple):
    evp = spectra.evp_from_trace(unit_triple, 3, dirichlet="none")
    rep = spectra.interlacing_check(evp, ())
    assert rep.ok
    K = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    small = _pencil(K, np.ones(3))
    rep = spectra.interlacing_check(small, (1,))
    assert rep.ok
    rep = spectra.interlacing_check(evp, (0, 1, 2))
    assert rep.ok


def test_interlacing_violation_detected():
    # a broken pencil pair cannot arise from solve(); feed impossible data
    # through the public check by hand-crafting a mass that breaks symmetry
    evp = _pencil([[2.0, -1.0], [-1.0, 2.0]], [1.0, 1.0])
    rep = spectra.interlacing_check(evp, (0,))
    assert rep.ok  # sanity: genuine pencils always interlace


@pytest.mark.parametrize(
    "lam_free, lam_v, index, side",
    [
        ([0.0, 1.0, 2.0, 3.0], [0.5, 0.9, 2.5], 2, "lower"),  # lam_2 > lam_2^V
        ([0.0, 1.0, 2.0, 3.0], [0.5, 1.5, 3.5], 3, "upper"),  # lam_3^V > lam_4
        ([0.0, 2.0, 1.0, 3.0], [0.5, 1.5, 2.5], 2, "lower"),  # both fail at n=2
        ([0.0, 1.0, 2.0, 3.0], [1.5, 0.9, 2.5], 1, "upper"),  # upper at n=1, lower at n=2
    ],
)
def test_interlacing_check_raises_violation(monkeypatch, lam_free, lam_v, index, side):
    # solve() always interlaces, so it is replaced by crafted spectra: the
    # constrained pencil (V = {0}) gets lam_v, the free one lam_free
    def crafted(evp, how_many=None, allow_disconnected=False, seed=0):
        return spectra.Spectrum(np.array(lam_v if evp.boundary else lam_free), {})

    monkeypatch.setattr(spectra, "solve", crafted)
    path = [[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]]
    with pytest.raises(InterlacingViolation) as caught:
        spectra.interlacing_check(_pencil(path, np.ones(4)), (0,))
    assert caught.value.index == index
    assert str(caught.value) == f"{side} interlacing fails at n={index}"


def test_scaling_check(unit_triple):
    rep = spectra.scaling_check(unit_triple, 1.0, m=3)
    assert rep.ok and rep.expected_ratio == 1.0
    for scheme in ("trace", "arcfem"):
        rep = spectra.scaling_check(unit_triple, 2.0, m=3, scheme=scheme)
        assert rep.ok, rep
        rep = spectra.scaling_check(unit_triple, 10.0, m=3, scheme=scheme)
        assert rep.ok, rep
    with pytest.raises(ValueError, match="unknown scheme 'tracee'"):
        spectra.scaling_check(unit_triple, 2.0, m=2, scheme="tracee")


def test_n_lambda_closed_form(unit_triple):
    # n = min{ n : c^2 n^2 >= 40 lam } with c = 2 for unit curvatures
    assert spectra.n_lambda_of(unit_triple.quad, 0.01) == 1
    assert spectra.n_lambda_of(unit_triple.quad, 0.1) == 1
    assert spectra.n_lambda_of(unit_triple.quad, 0.11) == 2  # 4*1 < 4.4 <= 4*4
    assert spectra.n_lambda_of(unit_triple.quad, 200.0) == 45
    for lam in (0.3, 1.7, 55.0):
        n = spectra.n_lambda_of(unit_triple.quad, lam)
        assert 4 * n * n >= 40 * lam
        assert n == 1 or 4 * (n - 1) * (n - 1) < 40 * lam


def test_census_index_set():
    words = spectra.census_index_set(2)
    assert sorted(words) == sorted(["12", "13", "21", "23", "31", "32", "11", "22", "33"])


def test_census_vertices_formula(unit_triple):
    for n in (1, 2, 3):
        ids = spectra.census_vertices(unit_triple, n)
        assert len(ids) == 9 * n - 3


CENSUS_UNIT_3000 = """word,child_depth,n_free,count
11,3,39,11
12,3,39,5
13,3,39,5
21,3,39,5
22,3,39,11
23,3,39,5
31,3,39,5
32,3,39,5
33,3,39,11
TOTAL,,,63
PARENT,,,75
"""


def test_census_exact_decomposition(unit_triple):
    rep = spectra.subdivision_census(unit_triple, lam=3000.0, truncation=2, depth=5)
    assert rep.child_sum == rep.parent_vlambda_count  # matched depth is exact
    assert rep.lower_bound_ok
    assert rep.vertex_count == rep.vertex_count_formula == 15
    counts = {r.word: r.count for r in rep.rows}
    assert counts["11"] == counts["22"] == counts["33"]  # symmetry of (1,1,1)
    assert rep.child_sum > 0
    assert rep.to_csv() == CENSUS_UNIT_3000


def test_census_deep_tail_case(unit_triple):
    rep = spectra.subdivision_census(unit_triple, lam=200.0, truncation=6, depth=6)
    assert rep.lower_bound_ok
    assert not rep.tail_is_zero_certified  # n_lambda = 45 > truncation
    assert rep.n_lambda == 45
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "word,child_depth,n_free,count"


def test_census_below_gap_both_sides_zero(unit_triple):
    # lam below kappa^2/40 of the root: no eigenvalue anywhere
    lam = 3.0 / 40.0 * 0.5
    rep = spectra.subdivision_census(unit_triple, lam=lam, truncation=2, depth=4)
    assert rep.parent_count == 0 and rep.child_sum == 0




@pytest.mark.parametrize("truncation", [0, -1])
def test_census_rejects_truncation_below_one(unit_triple, truncation):
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        spectra.census_index_set(truncation)
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        spectra.subdivision_census(unit_triple, lam=3000.0, truncation=truncation, depth=5)
    with pytest.raises(ValueError, match="truncation must be at least 1"):
        spectra.subdivision_census(unit_triple, lam=3000.0, truncation=truncation)


@pytest.mark.parametrize("lam", [-1.0, -math.inf, math.inf, math.nan])
def test_census_rejects_bad_lambda(unit_triple, lam):
    with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
        spectra.subdivision_census(unit_triple, lam=lam, truncation=2, depth=5)


def test_census_builds_one_complex_and_solves_nothing(unit_triple, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the census counts by inertia, not by eigensolves")

    built, build = [], spectra.build_complex

    def counted(t, depth):
        built.append(depth)
        return build(t, depth)

    monkeypatch.setattr(spectra, "solve", refuse)
    monkeypatch.setattr(spectra.spla, "eigsh", refuse)
    monkeypatch.setattr(spectra.sla, "eigh", refuse)
    monkeypatch.setattr(spectra, "build_complex", counted)
    rep = spectra.subdivision_census(unit_triple, lam=3000.0, truncation=2, depth=5)
    assert built == [5]
    assert rep.to_csv() == CENSUS_UNIT_3000
    assert rep.parent_vlambda_count == rep.child_sum == 63


def test_census_on_an_eigenvalue(unit_triple):
    # a computed eigenvalue of the parent is refused by a tiny pivot, or,
    # where the pivots miss it (first at the 63rd), counted on one side of
    # the roundoff tie
    lams = spectra.solve(spectra.evp_from_trace(unit_triple, 5)).eigenvalues
    tol = 1e-9 * lams[-1]
    for i, lam in enumerate(lams[:75]):
        try:
            rep = spectra.subdivision_census(unit_triple, float(lam), truncation=2, depth=5)
        except DegenerateShift:
            continue
        assert i >= 11, f"the pivots miss eigenvalue {i}"
        assert np.sum(lams < lam - tol) <= rep.parent_count <= np.sum(lams <= lam + tol)


def test_spectrum_json_schema(unit_triple):
    s = spectra.solve(spectra.evp_from_trace(unit_triple, 3))
    obj = s.to_json()
    for key in ("scheme", "depth", "boundary", "eigenvalues", "normalization"):
        assert key in obj
    assert obj["normalization"] == "laplacian"
    assert obj["boundary"] == [0, 1, 2]


def test_spectrum_json_keys_are_pinned(unit_triple):
    # solver diagnostics such as the dense block sizes stay in meta only
    s = spectra.solve(spectra.evp_from_trace(unit_triple, 3))
    assert s.meta["blocks"] == [8, 5, 13, 13]
    assert list(s.to_json()) == ["scheme", "depth", "boundary", "eigenvalues", "normalization",
                                 "n_free", "method", "residual_max", "inertia_verified"]
