import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import legacy
from conftest import random_triple
from gasketlab import gasket, geom
from gasketlab.errors import BudgetExceeded, InsufficientRange, NumericBreakdown

SQRT3 = math.sqrt(3.0)


def count_at(t, lam, cap=10**8):
    """N(lam) from the counting DFS at a single grid point."""
    [(_, n)] = gasket.count_profile(t, [lam], cap=cap)
    return n


def matrix_quad(quad, w):
    """Quadruple of cell ``w`` of ``quad``: quad times the exact integer word matrix."""
    M = gasket.matrix_of(w)
    return tuple(sum(q * M[i][j] for i, q in enumerate(quad)) for j in range(4))


def brute_force_count(t, lam, max_depth=12):
    """N(lam) by full enumeration, level by level, via the integer matrix
    route; stops once a whole level exceeds lam (children curve more)."""
    total, depth, frontier = 0, 0, [t.quad]
    while True:
        level = [gasket.inscribed_curvature(q) for q in frontier]
        total += sum(1 for c in level if c <= lam)
        if min(level) > lam:
            return total
        frontier = [gasket.child_quad(q, ch) for q in frontier for ch in "123"]
        depth += 1
        assert depth <= max_depth


def closed_form_power(j: int, n: int):
    """Closed form of the n-th power of a letter matrix (independent oracle)."""
    if j == 1:
        return ((1, 0, 0, 0), (n * n, 1, 0, n), (n * n, 0, 1, n), (2 * n, 0, 0, 1))
    if j == 2:
        return ((1, n * n, 0, n), (0, 1, 0, 0), (0, n * n, 1, n), (0, 2 * n, 0, 1))
    return ((1, 0, n * n, n), (0, 1, n * n, n), (0, 0, 1, 0), (0, 0, 2 * n, 1))


def test_letter_matrices():
    assert gasket.matrix_of("1") == ((1, 0, 0, 0), (1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1))
    assert gasket.matrix_of("2") == ((1, 1, 0, 1), (0, 1, 0, 0), (0, 1, 1, 1), (0, 2, 0, 1))
    assert gasket.matrix_of("3") == ((1, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 0), (0, 0, 2, 1))
    assert gasket.matrix_of("") == gasket.IDENTITY4


def test_matrix_powers_closed_form():
    for j in (1, 2, 3):
        for n in range(0, 9):
            assert gasket.matrix_of(str(j) * n) == closed_form_power(j, n)


def test_quadruple_at_examples():
    g = (1.0, 1.0, 1.0, SQRT3)
    out = matrix_quad(g, "1")
    assert abs(out[0] - (3 + 2 * SQRT3)) < 1e-12
    assert out[1] == 1.0 and out[2] == 1.0
    assert abs(out[3] - (2 + SQRT3)) < 1e-12
    # kappa consistency: (2+sqrt3)^2 = 7+4 sqrt3
    assert abs(out[3] ** 2 - (7 + 4 * SQRT3)) < 1e-10
    assert matrix_quad(g, "") == g


def test_matrix_cocycle_property(rng):
    # M_{wv} = M_w M_v
    for _ in range(20):
        w = "".join(str(int(x)) for x in rng.integers(1, 4, size=int(rng.integers(0, 6))))
        v = "".join(str(int(x)) for x in rng.integers(1, 4, size=int(rng.integers(0, 6))))
        assert gasket.matrix_of(w + v) == gasket._mat_mul(
            gasket.matrix_of(w), gasket.matrix_of(v)
        )


def test_phi_matches_matrix(unit_triple):
    child = legacy.apply_word(unit_triple, "1")
    expected = matrix_quad(unit_triple.quad, "1")
    for a, b in zip(child.quad, expected):
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))
    # untouched members are bitwise identical
    assert child.disks[1] is unit_triple.disks[1]
    assert child.disks[2] is unit_triple.disks[2]


def test_word_12_composition(unit_triple):
    t = legacy.apply_word(unit_triple, "12")
    expected = matrix_quad(unit_triple.quad, "12")
    for a, b in zip(t.quad, expected):
        assert abs(a - b) < 1e-9 * max(1.0, abs(b))


def test_matrix_geometry_agreement(rng):
    # geometric recursion must reproduce the matrix quadruples
    for _ in range(500):
        t = random_triple(rng, 0.3, 4.0)
        word = "".join(str(int(x)) for x in rng.integers(1, 4, size=int(rng.integers(1, 11))))
        built = legacy.apply_word(t, word)
        expected = matrix_quad(t.quad, word)
        for a, b in zip(built.quad, expected):
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))


def test_deep_words_far_from_origin(rng):
    # depth-14 cells of a triple pushed 60 units away still match the
    # matrix quadruples: the local-frame trilateration keeps its precision
    for _ in range(10):
        a, b, c = (10.0 ** rng.uniform(-1, 1) for _ in range(3))
        t = geom.transform_triple(
            geom.triple_from_curvatures(a, b, c), translate=(50.0, -30.0)
        )
        word = "".join(str(int(x)) for x in rng.integers(1, 4, size=14))
        built = legacy.apply_word(t, word)
        expected = matrix_quad(t.quad, word)
        for u, v in zip(built.quad, expected):
            assert abs(u - v) < 1e-9 * max(1.0, abs(v))


def test_monotonicity_to_depth_6(unit_triple):
    # inscribed curvature strictly increases from every word to its children
    frontier = [unit_triple.quad]
    for _ in range(6):
        nxt = []
        for quad in frontier:
            parent = gasket.inscribed_curvature(quad)
            for ch in "123":
                cq = gasket.child_quad(quad, ch)
                assert gasket.inscribed_curvature(cq) > parent
                nxt.append(cq)
        frontier = nxt


def test_count_inscribed_edge_cases(unit_triple):
    c0 = gasket.inscribed_curvature(unit_triple.quad)
    assert count_at(unit_triple, c0 * 0.999) == 0
    assert count_at(unit_triple, c0) == 1
    with pytest.raises(BudgetExceeded):
        count_at(unit_triple, 1e4, cap=10)


def test_count_inscribed_brute_force_oracle(unit_triple):
    # oracle: full enumeration via the integer matrix route to depth 6,
    # below which every cell already exceeds the threshold
    lam = 100.0
    total = 0
    deepest_min = math.inf
    for m in range(7):
        for letters in itertools.product("123", repeat=m):
            quad = matrix_quad(unit_triple.quad, "".join(letters))
            cin = gasket.inscribed_curvature(quad)
            if m == 6:
                deepest_min = min(deepest_min, cin)
            if cin <= lam:
                total += 1
    assert deepest_min > lam  # enumeration depth is sufficient
    assert count_at(unit_triple, lam) == total


def test_halfplane_gasket_enumeration():
    # construction and counting also work when one member is a half-plane
    th = geom.triple_with_halfplane(1.0, 1.0)
    assert th.quad == (1.0, 0.0, 1.0, 1.0)
    cx = gasket.build_complex(th, 3)
    assert [cx.num_vertices_at(m) for m in range(4)] == [3, 6, 15, 42]
    # a geometric dedupe at 1e-9 root circumscribed diameters keeps all 42
    assert pdist(cx.points).min() > 2e-9 * geom.circumscribed_disk(cx.root).radius
    # brute-force oracle via the integer matrix route, depth certified
    assert count_at(th, 100.0) == brute_force_count(th, 100.0)


def test_count_profile_matches_pointwise(unit_triple):
    grid = [10.0, 30.0, 100.0, 300.0]
    prof = gasket.count_profile(unit_triple, grid)
    for lam, n in prof:
        assert n == brute_force_count(unit_triple, lam)


@pytest.mark.parametrize("grid", [[], [1e3, math.nan], [math.nan, 1e3], [1e3, math.inf]],
                         ids=["empty", "nan-last", "nan-first", "inf"])
def test_count_profile_rejects_bad_grids(unit_triple, grid):
    # an empty grid has no top; a nan sorts where it happens to stand and
    # compares false; an inf top would walk the tree until the cap
    with pytest.raises(ValueError):
        gasket.count_profile(unit_triple, grid)


def test_count_profile_memory_is_bounded(unit_triple):
    # one last-in-first-out pool of chunks of (a, b, c, k) rows: 1.83 MB
    # traced here, against 2.18 MB with a stored c_in row, 2.52 MB for one
    # buffer per depth and 12.8 MB for one level at a time
    c0 = gasket.inscribed_curvature(unit_triple.quad)
    grid = gasket.geometric_grid(c0, 3e4 * c0, 33)
    tracemalloc.start()
    try:
        gasket.count_profile(unit_triple, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4e6


def test_count_profile_cap_memory_is_bounded(unit_triple):
    # a cell counts against the cap when it is found, so the walk stops
    # once 10^6 cells are found (22.4 MB traced; 27.8 MB with a stored c_in
    # row), where one level at a time first built the whole level that
    # passed the cap (44 MB).  No child is pruned before the cap here, so
    # the walk holds 2/3 of the found cells, as every order of expansion
    # that prunes none would
    c0 = gasket.inscribed_curvature(unit_triple.quad)
    grid = gasket.geometric_grid(c0, 1e12 * c0, 33)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            gasket.count_profile(unit_triple, grid, cap=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_fit_dimension_synthetic_power_law():
    lams = gasket.geometric_grid(1.0, 1e4, 16)
    samples = [(lam, lam**1.5) for lam in lams]
    fit = gasket.fit_dimension(samples)
    assert abs(fit.slope - 1.5) < 1e-9
    assert fit.r_squared > 1 - 1e-12


def test_fit_dimension_skips_half_the_grid_before_zero_counts():
    # the first 16 // 2 grid points are skipped, and the 5 zero counts among them
    # do not move the window
    lams = gasket.geometric_grid(1.0, 1e4, 16)
    samples = [(lam, 0 if i < 5 else lam**1.5) for i, lam in enumerate(lams)]
    fit = gasket.fit_dimension(samples)
    assert fit.n_points == 8
    assert fit.window == (lams[8], lams[15])
    assert abs(fit.slope - 1.5) < 1e-9


def test_fit_dimension_range_checks():
    with pytest.raises(InsufficientRange):
        gasket.fit_dimension([(1.0, 1.0), (2.0, 2.0)])
    lams = gasket.geometric_grid(1.0, 100.0, 12)  # only 2 decades
    with pytest.raises(InsufficientRange):
        gasket.fit_dimension([(lam, lam) for lam in lams])


def test_vertex_counts(unit_triple):
    cx = gasket.build_complex(unit_triple, 3)
    assert cx.num_vertices_at(0) == 3
    assert cx.num_vertices_at(1) == 6
    assert cx.num_vertices_at(2) == 15
    assert cx.num_vertices_at(3) == 42
    assert len(cx.points) == 42
    assert len(cx.quads[3]) == len(cx.vertex_ids[3]) == 27
    # a geometric dedupe at 1e-9 root circumscribed diameters keeps all 42
    assert pdist(cx.points).min() > 2e-9 * geom.circumscribed_disk(cx.root).radius


def test_vertex_count_rejects_negative_depth(unit_triple):
    with pytest.raises(ValueError, match="nonnegative"):
        gasket.build_complex(unit_triple, 2).num_vertices_at(-1)


def test_vertices_level_one_are_inscribed_tangencies(unit_triple):
    cx = gasket.build_complex(unit_triple, 1)
    din = geom.inscribed_disk(unit_triple)
    new_pts = cx.points[3:6]
    expected = [geom.tangency_point(din, d) for d in unit_triple.disks]
    for p in expected:
        assert any(math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-12 for q in new_pts)


def test_symmetry_equivariance(unit_triple, rng):
    perm = (2, 0, 1)
    disks = [unit_triple.disks[j] for j in perm]
    t2 = geom.validate_triple(*disks)
    for lam in (50.0, 500.0):
        assert count_at(unit_triple, lam) == count_at(t2, lam)
    cx1 = gasket.build_complex(unit_triple, 3)
    cx2 = gasket.build_complex(t2, 3)
    s1 = sorted((round(x, 9), round(y, 9)) for x, y in cx1.points)
    s2 = sorted((round(x, 9), round(y, 9)) for x, y in cx2.points)
    assert s1 == s2


def test_gamma_closure(rng):
    for _ in range(50):
        a, b, c = rng.uniform(0.05, 20.0, 3)
        kappa = math.sqrt(b * c + c * a + a * b)
        word = "".join(str(int(x)) for x in rng.integers(1, 4, size=int(rng.integers(0, 9))))
        out = matrix_quad((a, b, c, kappa), word)
        a2, b2, c2, k2 = out
        assert abs(k2 * k2 - (b2 * c2 + c2 * a2 + a2 * b2)) < 1e-12 * k2 * k2


def test_index_set_non_comparable():
    words = [w for w in gasket.index_set_I(7) if len(w) <= 8]
    for w, v in itertools.combinations(words, 2):
        assert not (w.startswith(v) or v.startswith(w)), (w, v)  # no nested cells


def test_index_set_contents():
    words = gasket.index_set_I(2)
    assert "12" in words and "21" in words and "113" in words
    assert len(words) == 12


def test_render_svg_circle_counts(unit_triple):
    svg0 = gasket.render_svg(unit_triple, 0)
    assert svg0.count("<circle") == 4
    svg2 = gasket.render_svg(unit_triple, 2)
    assert svg2.count("<circle") == 16
    from gasketlab.svg import circles_svg

    empty = circles_svg([])
    assert empty.startswith("<svg") and empty.rstrip().endswith("</svg>")
    assert "<circle" not in empty


def test_cells_json(unit_triple):
    cells = gasket.cells_to_json(unit_triple, 1)
    assert len(cells) == 4  # root + 3 children
    assert cells[0]["word"] == ""
    assert cells[0]["inscribed"]["type"] == "disk"


def _off_center(t, slot, shift):
    """Hand-built triple with member ``slot`` moved by ``shift`` times its radius."""
    disks = list(t.disks)
    (x, y), r = disks[slot].center, disks[slot].radius
    disks[slot] = geom.disk((x + shift * r, y), r)
    return geom.DiskTriple(disks=tuple(disks), q=t.q, quad=t.quad)


def test_build_rejects_inconsistent_triple(unit_triple):
    bad = _off_center(unit_triple, 1, 1e-3)
    with pytest.raises(NumericBreakdown, match="tangency residual"):
        gasket.build_complex(bad, 3)
    with pytest.raises(NumericBreakdown):
        geom.inscribed_disk(bad)


def test_build_checks_the_last_chunk_of_the_deepest_level(unit_triple, monkeypatch):
    # the deepest inscribed disks are checked but not stored; a bad
    # quadruple in the last of their chunks still fails the build
    real = gasket.child_quad

    def bad_last_cell(quad, letter):
        out = real(quad, letter)
        if letter == "3" and len(quad[3]) == 27:  # building depth 4 from depth 3
            kappa = out[3].copy()
            kappa[-1] *= 1.0 + 1e-3
            out = (*out[:3], kappa)
        return out

    monkeypatch.setattr(gasket, "_DISK_CHUNK", 7)
    monkeypatch.setattr(gasket, "child_quad", bad_last_cell)
    gasket.build_complex(unit_triple, 3)
    with pytest.raises(NumericBreakdown, match="tangency residual"):
        gasket.build_complex(unit_triple, 4)


def test_build_complex_memory_is_bounded(unit_triple):
    # inscribed disks and tangency points are computed a chunk of cells at a
    # time: the traced peak at m=10 is about 1.4 times the stored arrays,
    # where one call per level peaked at 4.3 times
    tracemalloc.start()
    try:
        cx = gasket.build_complex(unit_triple, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (cx.points, cx.vertex_pairs, cx.centers, cx.radii, *cx.quads, *cx.vertex_ids)
    assert peak < 2.5 * sum(a.nbytes for a in arrays)


def test_batched_inscribed_disks_check_every_row(unit_triple):
    # one bad row among many good ones fails the whole batch
    good = [geom.transform_triple(unit_triple, scale=s) for s in (0.5, 1.0, 2.0)]
    rows = good + [_off_center(unit_triple, 2, 1e-3)]

    def batch(triples):
        return geom.inscribed_disks(
            np.array([t.quad for t in triples]),
            np.array([[d.center for d in t.disks] for t in triples]),
            np.array([[d.radius for d in t.disks] for t in triples]),
        )

    assert len(batch(good)[1]) == 3
    with pytest.raises(NumericBreakdown):
        batch(rows)
