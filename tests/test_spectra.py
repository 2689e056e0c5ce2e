import math
import warnings

import numpy as np
import pytest
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


def test_weyl_fit_needs_enough_eigenvalues():
    s = spectra.Spectrum(np.arange(1.0, 100.0), {"n_free": 99})
    with pytest.raises(InsufficientSpectrum):
        spectra.weyl_fit(s)


def test_iterative_path_matches_dense(unit_triple, monkeypatch):
    # force the sliced Lanczos path on a mid-size problem and compare
    evp = spectra.evp_from_trace(unit_triple, 5)
    dense = spectra.solve(evp).eigenvalues
    k = 150
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 100)
    it = spectra.solve(evp, how_many=k)
    assert it.meta["method"] == "lanczos-shift-invert"
    assert it.meta["inertia_verified"]
    assert np.max(np.abs(it.eigenvalues - dense[:k]) / dense[:k]) < 1e-9
    assert it.meta["residual_max"] <= 1e-8 * it.meta["lambda_scale"]
    slices = it.meta["slices"]
    assert sum(sl["count"] for sl in slices) >= k
    assert all(sl["lo"] < sl["hi"] and sl["attempts"] >= (sl["count"] > 0) for sl in slices)
    assert all(sl["k_requested"] >= sl["count"] for sl in slices)
    assert [sl["hi"] for sl in slices[:-1]] == [sl["lo"] for sl in slices[1:]]
    assert it.meta["trust_ceiling"] == spectra.trust_ceiling(it)


@pytest.mark.parametrize("scheme", ["arcfem m=5 refine 3", "trace m=6"])
def test_dense_path_matches_eigvalsh(unit_triple, scheme):
    # the divide-and-conquer solve against numpy's eigvalsh on the same matrix
    if scheme.startswith("arcfem"):
        evp, k = spectra.evp_from_arc_fem(unit_triple, 5, 3), 1000
    else:
        evp, k = spectra.evp_from_trace(unit_triple, 6), None
    s = spectra.solve(evp, how_many=k)
    assert s.meta["method"] == "dense"
    _, _, _, A = spectra._free_pencil(evp, False)
    ref = np.linalg.eigvalsh(A.toarray())[: len(s)]
    floor = 1e-12 * s.meta["lambda_scale"]
    assert np.all(np.abs(s.eigenvalues - ref) <= np.maximum(1e-10 * np.abs(ref), floor))
    assert s.meta["residual_max"] <= spectra.RESIDUAL_RTOL * s.meta["lambda_scale"]


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


@pytest.mark.parametrize("layout", ["F", "C"])  # dense eigh / stacked slices
def test_blocked_residual_is_bit_identical(unit_triple, layout):
    evp = spectra.evp_from_trace(unit_triple, 5)
    _, K, d, A = spectra._free_pencil(evp, False)
    s = 1.0 / np.sqrt(d)
    as_layout = np.asfortranarray if layout == "F" else np.ascontiguousarray
    lams, Y = np.linalg.eigh(A.toarray())
    Y = as_layout(Y)
    for k in (0, 1, 127, 128, 129, 300):
        oracle = _residual_max_one_block(K, d, lams[:k], Y[:, :k], s)
        assert spectra._residual_max(K, d, lams[:k], Y[:, :k], s) == oracle, k
    # numpy sums the norm of a lone column pairwise, so a one-column tail
    # block would change bits: make such a column the worst of 129, and last
    in_block = _residual_columns(K, d, lams, Y, s)
    alone = np.array([_residual_columns(K, d, lams[j : j + 1], Y[:, j : j + 1], s)[0]
                      for j in range(len(lams))])
    moved = np.flatnonzero(in_block != alone)
    worst = moved[np.argmax(in_block[moved])]
    order = np.r_[np.flatnonzero(in_block < in_block[worst])[:128], worst]
    Y_w = as_layout(Y[:, order])
    oracle = _residual_max_one_block(K, d, lams[order], Y_w, s)
    assert oracle == in_block[worst] != alone[worst]
    assert spectra._residual_max(K, d, lams[order], Y_w, s) == oracle


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
    # k = 220 gives two slices and a first target of 111 eigenvalues; the
    # double block eigenvalue 55 is the 111th and 112th of the pair
    double = float(np.linalg.eigvalsh(A_block.toarray())[55]) * (1.0 + offset)
    split, forced = spectra._split, []

    def split_onto_double(lo, hi):
        if not forced and lo < double < hi:
            forced.append((lo, hi))
            return double
        return split(lo, hi)

    monkeypatch.setattr(spectra, "_split", split_onto_double)
    k = 220
    dense = spectra.solve(evp, allow_disconnected=True).eigenvalues
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 50)
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
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 50)
    s = spectra.solve(evp, how_many=k, allow_disconnected=True)
    assert s.meta["method"] == "lanczos-shift-invert" and s.meta["inertia_verified"]
    assert np.array_equal(s.eigenvalues, np.zeros(k))
    first = s.meta["slices"][0]
    assert first["count"] == 6 and 0.0 < first["hi"] < 1e-8 * s.meta["lambda_scale"]


def test_slice_placement_by_bisection(unit_triple, monkeypatch):
    # trace m=7, k=1000: five slices of at most step + step // 8 eigenvalues
    # (the bisection tolerance), each bound a shift that count_below counted,
    # and no eigsh call beyond one per slice
    evp = spectra.evp_from_trace(unit_triple, 7)
    k = 1000
    n_slices = math.ceil((k + 1) / spectra.SLICE_SIZE)
    step = math.ceil((k + 1) / n_slices)
    counted, eigsh_calls = {}, []
    count_below, spla = spectra.count_below, spectra.spla

    def counting(A, sigma):
        counted[sigma] = count_below(A, sigma)
        return counted[sigma]

    class CountingEigsh:
        def __getattr__(self, name):
            return getattr(spla, name)

        def eigsh(self, *args, **kwargs):
            eigsh_calls.append(kwargs["sigma"])
            return spla.eigsh(*args, **kwargs)

    monkeypatch.setattr(spectra, "count_below", counting)
    monkeypatch.setattr(spectra, "spla", CountingEigsh())
    s = spectra.solve(evp, how_many=k)
    slices = s.meta["slices"]
    assert s.meta["inertia_verified"] and len(slices) == n_slices
    assert all(sl["count"] <= step + step // 8 for sl in slices)
    assert sum(sl["count"] for sl in slices) >= k + 1
    assert all(counted[sl["hi"]] == sum(x["count"] for x in slices[: i + 1])
               for i, sl in enumerate(slices))
    if all(sl["attempts"] <= 1 for sl in slices):
        assert len(eigsh_calls) == sum(sl["count"] > 0 for sl in slices)


def test_sliced_not_converged_when_slices_come_short(unit_triple, monkeypatch, short_eigsh):
    evp = spectra.evp_from_trace(unit_triple, 5)
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 100)
    with pytest.raises(NotConverged, match="kept missing") as caught:
        spectra.solve(evp, how_many=150)
    assert len(caught.value.partial) == 0  # the first slice already came short


def test_sliced_not_converged_keeps_finished_slices(unit_triple, monkeypatch, short_eigsh):
    # only the second slice comes short: the first slice's eigenvalues,
    # all the dense eigenvalues below the first bound, are attached
    evp = spectra.evp_from_trace(unit_triple, 5)
    dense = spectra.solve(evp).eigenvalues
    short_eigsh.honest = 100
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 100)
    first_hi = spectra.solve(evp, how_many=300).meta["slices"][0]["hi"]
    short_eigsh.honest = 1
    with pytest.raises(NotConverged, match="kept missing") as caught:
        spectra.solve(evp, how_many=300)
    below = dense[dense < first_hi]
    partial = caught.value.partial
    assert len(partial) == len(below) > 0
    assert np.max(np.abs(partial - below) / below) < 1e-9


@pytest.mark.parametrize("dense_threshold", [3000, 10])
def test_how_many_zero_and_negative(unit_triple, monkeypatch, dense_threshold):
    evp = spectra.evp_from_trace(unit_triple, 3)  # 39 free vertices
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", dense_threshold)
    with pytest.raises(ValueError, match="non-negative"):
        spectra.solve(evp, how_many=-5)

    def no_factorization(*args, **kwargs):
        raise AssertionError("factorization for an empty request")

    monkeypatch.setattr(spectra, "count_below", no_factorization)
    monkeypatch.setattr(spectra.sla, "eigh", no_factorization)
    monkeypatch.setattr(spectra.spla, "eigsh", no_factorization)
    s = spectra.solve(evp, how_many=0)
    assert len(s) == 0 and s.meta["inertia_verified"] and s.meta["trust_ceiling"] is None
    assert s.meta["method"] == ("dense" if dense_threshold > 39 else "lanczos-shift-invert")


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


def test_scaling_check(unit_triple):
    rep = spectra.scaling_check(unit_triple, 1.0, m=3)
    assert rep.ok and rep.expected_ratio == 1.0
    for scheme in ("trace", "arcfem"):
        rep = spectra.scaling_check(unit_triple, 2.0, m=3, scheme=scheme)
        assert rep.ok, rep
        rep = spectra.scaling_check(unit_triple, 10.0, m=3, scheme=scheme)
        assert rep.ok, rep


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


def test_census_exact_decomposition(unit_triple):
    rep = spectra.subdivision_census(unit_triple, lam=3000.0, truncation=2, depth=5)
    assert rep.child_sum == rep.parent_vlambda_count  # matched depth is exact
    assert rep.lower_bound_ok
    assert rep.vertex_count == rep.vertex_count_formula == 15
    counts = {r.word: r.count for r in rep.rows}
    assert counts["11"] == counts["22"] == counts["33"]  # symmetry of (1,1,1)
    assert rep.child_sum > 0


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


def test_spectrum_json_schema(unit_triple):
    s = spectra.solve(spectra.evp_from_trace(unit_triple, 3))
    obj = s.to_json()
    for key in ("scheme", "depth", "boundary", "eigenvalues", "normalization"):
        assert key in obj
    assert obj["normalization"] == "laplacian"
    assert obj["boundary"] == [0, 1, 2]
