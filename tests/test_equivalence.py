"""The array-at-a-time complex, arc network, stiffness matrix and circle
count against the per-item reference implementations in ``legacy.py``, bit
for bit; the closed-form cell areas and arc lengths against their geometric
values; the carpet orbit and its separation against the KD-tree versions;
the subdivision census against its eigensolve route."""

import numpy as np
import pytest

import legacy
from gasketlab import carpet, forms, gasket, geom, spectra
from gasketlab.errors import BudgetExceeded

TRIPLES = {
    "unit": geom.triple_from_curvatures(1.0, 1.0, 1.0),
    "1,2,3": geom.triple_from_curvatures(1.0, 2.0, 3.0),
    "halfplane": geom.transform_triple(
        geom.triple_with_halfplane(2.0, 0.7), rotate=0.3, translate=(1.0, -2.0)
    ),
}


def same_bits(new, old) -> bool:
    """Equal arrays, nan where nan, and equal sign bits (so -0.0 != 0.0)."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    return (
        new.shape == old.shape
        and np.array_equal(new, old, equal_nan=True)
        and np.array_equal(np.signbit(new), np.signbit(old))
    )


@pytest.fixture(scope="module", params=list(TRIPLES))
def complexes(request):
    t = TRIPLES[request.param]
    return t, gasket.build_complex(t, 6), legacy.LegacyComplex(t, 6)


def test_complex_matches_per_cell_builder(complexes):
    _, cx, old = complexes
    assert same_bits(cx.points, old.points)
    assert np.array_equal(cx.vertex_pairs, old.vertex_pairs)
    disks = [c.disk for c in old.circles]
    assert same_bits(cx.centers, [d.center if d.is_disk else (np.nan, np.nan) for d in disks])
    assert same_bits(cx.radii, [d.radius if d.is_disk else np.inf for d in disks])
    # the id rule: circle c >= 3 is born at depth j exactly when
    # 3 + (3^j - 1)/2 <= c < 3 + (3^(j+1) - 1)/2; the members are at -1
    starts = [3 + gasket._cells_above(j) for j in range(7)]
    level = np.searchsorted(starts, np.arange(len(cx.radii)), side="right") - 1
    assert np.array_equal(level, [len(c.word) if c.kind == "inscribed" else -1
                                  for c in old.circles])
    for j in range(7):
        cells = old.cells(j)
        assert same_bits(cx.quads[j], [c.quad for c in cells])
        assert np.array_equal(cx.vertex_ids[j], [c.vertex_ids for c in cells])
        assert gasket.cell_words(j) == [c.word for c in cells]
        assert [gasket.word_index(c.word) for c in cells] == list(range(3**j))


def test_disk_chunk_changes_no_bit(complexes, monkeypatch):
    # rows are independent: chunks of 1 and 7 cells give the bits of the
    # default chunk, which the test above checks against the per-cell builder
    t, cx, _ = complexes
    for chunk in (1, 7):
        monkeypatch.setattr(gasket, "_DISK_CHUNK", chunk)
        other = gasket.build_complex(t, 6)
        for name in ("points", "vertex_pairs", "centers", "radii"):
            assert getattr(other, name).tobytes() == getattr(cx, name).tobytes()
        for j in range(7):
            assert other.quads[j].tobytes() == cx.quads[j].tobytes()
            assert other.vertex_ids[j].tobytes() == cx.vertex_ids[j].tobytes()


@pytest.mark.parametrize("m", [0, 2, 4])
def test_shallow_complex_is_a_prefix(complexes, m):
    # a depth-m build equals the first levels and ids of a deeper one
    t, cx, _ = complexes
    small = gasket.build_complex(t, m)
    n = small.num_vertices_at(m)
    assert same_bits(small.points, cx.points[:n])
    assert same_bits(small.centers, cx.centers[: len(small.centers)])
    for j in range(m + 1):
        assert same_bits(small.quads[j], cx.quads[j])
        assert np.array_equal(small.vertex_ids[j], cx.vertex_ids[j])


@pytest.mark.parametrize("name", ["unit", "1,2,3"])
@pytest.mark.parametrize("refine", [1, 3])
def test_arc_network_matches_dict_assembly(name, refine):
    t = TRIPLES[name]
    cx, old = gasket.build_complex(t, 5), legacy.LegacyComplex(t, 5)
    for m in range(6):
        net = forms.assemble_arc_fem(t, m, refine, cx)
        points, edges, conductance, mass, arc_ids = legacy.assemble_arc_fem(t, m, refine, old)
        assert same_bits(net.points, points)
        assert np.array_equal(net.edges, edges)
        assert same_bits(net.conductance, conductance)
        assert same_bits(net.edge_mass, mass)
        assert np.array_equal(np.repeat(forms._arc_pieces(cx, m)[0], refine), arc_ids)


def test_angle_chunk_changes_no_bit(monkeypatch):
    t = TRIPLES["1,2,3"]
    cx = gasket.build_complex(t, 5)
    ref = forms.assemble_arc_fem(t, 5, 2, cx)
    ref_ids = forms._arc_pieces(cx, 5)[0]
    for chunk in (1, 7):
        monkeypatch.setattr(forms, "_ANGLE_CHUNK", chunk)
        net = forms.assemble_arc_fem(t, 5, 2, cx)
        for name in ("points", "edges", "conductance", "edge_mass"):
            assert getattr(net, name).tobytes() == getattr(ref, name).tobytes()
        assert forms._arc_pieces(cx, 5)[0].tobytes() == ref_ids.tobytes()


@pytest.mark.parametrize("curvatures", [(1, 1, 1), (1, 2, 3), (0.4, 2.7, 5)],
                         ids=["unit", "1,2,3", "0.4,2.7,5"])
def test_stiffness_matches_coo_build(curvatures):
    # the CSR arrays of tocsr over four entries per edge, byte for byte, for
    # the trace form and the arc network at refine 1 and 3; and each buffer
    # holds exactly nnz entries (tocsr left views of its 4E-entry buffers)
    t = geom.triple_from_curvatures(*curvatures)
    cx = gasket.build_complex(t, 9)
    for m in range(10):
        nets = [forms.assemble_trace_form(t, m, cx)]
        nets += [forms.assemble_arc_fem(t, m, refine, cx) for refine in (1, 3)]
        for net in nets:
            K, old = net.stiffness(), legacy.stiffness(net)
            assert K.shape == old.shape
            for part in ("data", "indices", "indptr"):
                new_part, old_part = getattr(K, part), getattr(old, part)
                assert new_part.dtype == old_part.dtype
                assert new_part.tobytes() == old_part.tobytes()
            for part in (K.data, K.indices):
                owner = part if part.base is None else part.base
                assert owner.nbytes == part.nbytes == K.nnz * part.itemsize


@pytest.mark.parametrize("name", ["unit", "1,2,3"])
def test_arclen_lengths_match_circumcircle_selection(name):
    # cross-product areas of the center triangles, and arc lengths from the
    # angles of the tangency points with the arc chosen by the circumcircle
    t = TRIPLES[name]
    cx, old = gasket.build_complex(t, 5), legacy.LegacyComplex(t, 5)
    for m in range(6):
        area, lens = forms._cell_shape(cx.quads[m])
        cells = old.cells(m)
        assert np.allclose(area[:, 0], [c.area for c in cells], rtol=1e-12, atol=0.0)
        expected = [legacy.cell_arc_lengths(old, c) for c in cells]
        assert np.allclose(lens, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", list(TRIPLES))
def test_count_profile_matches_dfs(name):
    t = TRIPLES[name]
    c0 = gasket.inscribed_curvature(t.quad)
    for top in (30.0, 1e3, 3e4):
        grid = gasket.geometric_grid(c0, top * c0, 17) + [c0, 5.0 * c0]  # ties and repeats
        assert gasket.count_profile(t, grid) == legacy.count_profile(t, grid)


def test_count_chunk_changes_no_count(monkeypatch):
    for chunk in (gasket._COUNT_CHUNK, 1, 5):
        monkeypatch.setattr(gasket, "_COUNT_CHUNK", chunk)
        for t in TRIPLES.values():
            c0 = gasket.inscribed_curvature(t.quad)
            grid = gasket.geometric_grid(c0, 1e3 * c0, 17) + [c0, 5.0 * c0]
            assert gasket.count_profile(t, grid) == legacy.count_profile(t, grid)


@pytest.mark.parametrize("name", list(TRIPLES))
def test_count_profile_ties_at_every_cell(name):
    # a grid point on every inscribed curvature of depth <= 5, as the
    # complex builds it with ``child_quad``: a child curvature summed in
    # another order moves a cell across its own grid point
    t = TRIPLES[name]
    grid = gasket.inscribed_curvature(np.concatenate(gasket.build_complex(t, 5).quads).T)
    assert gasket.count_profile(t, grid) == legacy.count_profile(t, grid)


def test_count_budget_matches_dfs():
    # both raise exactly when the pruned tree holds more than cap cells
    t = TRIPLES["1,2,3"]
    grid = [500.0]
    total = legacy.count_profile(t, grid)[0][1]
    assert gasket.count_profile(t, grid, cap=total) == [(500.0, total)]
    for count in (gasket.count_profile, legacy.count_profile):
        with pytest.raises(BudgetExceeded):
            count(t, grid, cap=total - 1)


def test_inscribed_disks_rows_match_scalar(rng):
    triples = [geom.transform_triple(
        geom.triple_from_curvatures(*(10.0 ** rng.uniform(-2, 2, 3))),
        scale=float(rng.uniform(0.1, 10.0)), rotate=float(rng.uniform(0.0, 6.3)),
        translate=tuple(rng.uniform(-50.0, 50.0, 2)),
    ) for _ in range(200)]
    z, r, k = geom.inscribed_disks(
        np.array([t.quad for t in triples]),
        np.array([[d.center for d in t.disks] for t in triples]),
        np.array([[d.radius for d in t.disks] for t in triples]),
    )
    old = [legacy.inscribed_disk(t) for t in triples]
    assert same_bits(z, [d.center for d in old])
    assert same_bits(r, [d.radius for d in old])
    assert same_bits(k, [d.curvature for d in old])
    for t, d in zip(triples, old):
        assert geom.inscribed_disk(t) == d


def test_tangency_point_matches_scalar(rng):
    # disk pairs in both orders and disk/half-plane pairs in both orders
    for t in [geom.transform_triple(
        geom.triple_from_curvatures(*(10.0 ** rng.uniform(-2, 2, 3))),
        scale=float(rng.uniform(0.1, 10.0)), rotate=float(rng.uniform(0.0, 6.3)),
        translate=tuple(rng.uniform(-50.0, 50.0, 2)),
    ) for _ in range(50)] + [TRIPLES["halfplane"], geom.triple_with_halfplane(1.0, 3.0)]:
        for i in range(3):
            for j in range(3):
                if i != j:
                    d1, d2 = t.disks[i], t.disks[j]
                    assert geom.tangency_point(d1, d2) == legacy.tangency_point(d1, d2)


CARPET_CASES = [(q, r) for q in (7, 8, 9, 12) for r in (1e-2, 1e-3)] + [
    (8, 3e-4), (16, 1e-3), (24, 1e-3)]


@pytest.fixture(scope="module", params=CARPET_CASES, ids=lambda c: f"q{c[0]}-r{c[1]:g}")
def orbits(request):
    cfg = carpet.solve_params(request.param[0])
    return (carpet.enumerate_circles(cfg, request.param[1]),
            legacy.enumerate_circles(cfg, request.param[1]))


def test_orbit_matches_kdtree_dedup(orbits):
    new, old = orbits
    assert same_bits(new.centers.real, old.centers.real)
    assert same_bits(new.centers.imag, old.centers.imag)
    assert same_bits(new.radii, old.radii)
    assert np.array_equal(new.generations, old.generations)


def test_separation_matches_kdtree(orbits):
    new, _ = orbits
    assert carpet.separation_stats(new) == legacy.separation_stats(new)


def _sub_orbit(o, idx):
    return carpet.CircleOrbit(o.config, o.min_radius, o.centers[idx], o.radii[idx],
                              o.generations[idx])


def test_separation_matches_kdtree_on_sub_orbits(rng):
    o = carpet.enumerate_circles(carpet.solve_params(8), 1e-3)
    bump = carpet.RadialBump((0.2, -0.1), 0.4)
    near = np.flatnonzero(np.abs(o.centers - complex(*bump.center)) < bump.radius + o.radii)
    for _ in range(5):
        # as the benchmark draws its quadrature sample, then in a shuffled order
        idx = np.sort(rng.choice(near, size=64, replace=False))
        for sub in (_sub_orbit(o, idx), _sub_orbit(o, rng.permutation(idx))):
            assert carpet.separation_stats(sub) == legacy.separation_stats(sub)


def test_separation_matches_kdtree_on_tied_radii(rng):
    # a lattice of equal circles (every pair a tie) in shuffled order, with
    # a few larger and smaller ones, some of them also tied
    gx, gy = np.meshgrid(np.arange(12) * 0.031, np.arange(9) * 0.029)
    centers = np.concatenate([(gx + 1j * gy).ravel(), rng.uniform(0, 0.3, 20)
                              + 1j * rng.uniform(0, 0.3, 20)])
    radii = np.concatenate([np.full(gx.size, 0.01), np.repeat([0.02, 0.004], 10)])
    perm = rng.permutation(len(radii))
    o = carpet.CircleOrbit(carpet.solve_params(8), 0.004, centers[perm], radii[perm],
                           np.ones(len(radii), dtype=int))
    eps, pairs = carpet.separation_stats(o)
    assert (eps, pairs) == legacy.separation_stats(o)
    assert pairs > gx.size


def test_separation_sees_a_pair_at_the_cell_edge():
    # two circles of radius r exactly w = 4r apart, placed so that on a grid
    # of cell size exactly w anchored at the small circle's x the rounding
    # of (x - x0) / w puts them two columns apart: the cell size's roundoff
    # margin keeps them neighbours
    r = 0.03835751720680286
    centers = np.array([-0.42859318029328813, -0.2751631114660767, -0.8888833867749224])
    o = carpet.CircleOrbit(carpet.solve_params(8), 1e-9, centers + 0j,
                           np.array([r, r, r * 1e-3]), np.ones(3, dtype=int))
    assert carpet.separation_stats(o) == legacy.separation_stats(o) == (2.0, 1)


@pytest.mark.parametrize("curvatures", [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (2.0, 1.0, 2.0)])
@pytest.mark.parametrize("lam, truncation, depth", [(3000.0, 2, 5), (1000.0, 3, 6)])
def test_census_matches_eigensolves(curvatures, lam, truncation, depth):
    t = geom.triple_from_curvatures(*curvatures)
    rep = spectra.subdivision_census(t, lam, truncation, depth)
    parent, vl, rows = legacy.census_counts(t, lam, truncation, depth)
    assert rep.parent_count == parent
    assert rep.parent_vlambda_count == vl
    assert [(r.word, r.child_depth, r.n_free, r.count) for r in rep.rows] == rows
