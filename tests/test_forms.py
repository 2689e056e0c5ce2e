import math

import numpy as np
import pytest

from conftest import random_triple
from gasketlab import forms, gasket, geom
from gasketlab.errors import HalfPlanePresent

SQRT3 = math.sqrt(3.0)


def test_cell_conductances_unit(unit_triple):
    c = forms.cell_conductances(unit_triple)
    for cj in c:
        assert abs(cj - 2 / SQRT3) < 1e-14


def test_cell_conductances_lower_bound(rng):
    # (k^2 + a^2) / (2ka) >= 1 with equality iff a = k
    for _ in range(100):
        t = random_triple(rng)
        for cj in forms.cell_conductances(t):
            assert cj >= 1.0 - 1e-14
    # build an equality case: beta = gamma = alpha (sqrt(2) - 1) makes kappa = alpha
    a = 1.7
    b = a * (math.sqrt(2.0) - 1.0)
    t = geom.triple_from_curvatures(a, b, b)
    assert abs(t.kappa - a) < 1e-12
    assert abs(forms.cell_conductances(t)[0] - 1.0) < 1e-12


def test_cell_conductances_scale_free(rng):
    t = random_triple(rng)
    t2 = geom.transform_triple(t, scale=3.7)
    for c1, c2 in zip(forms.cell_conductances(t), forms.cell_conductances(t2)):
        assert abs(c1 - c2) < 1e-12 * c1


def test_cell_conductances_halfplane_rejected():
    with pytest.raises(HalfPlanePresent):
        forms.cell_conductances(geom.triple_with_halfplane(1.0, 1.0))


def test_energy_identity_hand_value(unit_triple):
    # at depth 0: three edges of conductance 2/sqrt(3), tangency triangle side 1
    tf = forms.assemble_trace_form(unit_triple, 0)
    pts = np.asarray(tf.points)
    e = tf.energy(pts[:, 0]) + tf.energy(pts[:, 1])
    assert abs(e - 2 * SQRT3) < 1e-14


def test_energy_identity_random_triples(rng):
    for _ in range(3):
        t = random_triple(rng)
        target = 2.0 * geom.triangle_area(t)
        for m in range(5):
            tf = forms.assemble_trace_form(t, m)
            pts = np.asarray(tf.points)
            e = tf.energy(pts[:, 0]) + tf.energy(pts[:, 1])
            assert abs(e - target) < 1e-10 * target


def test_harmonicity_of_coordinates(rng):
    t = random_triple(rng)
    for m in (1, 3, 5):
        tf = forms.assemble_trace_form(t, m)
        pts = np.asarray(tf.points)
        scale = tf.vertex_conductance_scale()
        for k in (0, 1):
            res = np.abs(tf.laplacian_residual(pts[:, k]))
            assert np.all(res[3:] <= 1e-10 * scale[3:])


def test_trace_compatibility(unit_triple, rng):
    for m in range(4):
        tf_m = forms.assemble_trace_form(unit_triple, m)
        tf_m1 = forms.assemble_trace_form(unit_triple, m + 1)
        nm = tf_m.n_vertices
        for _ in range(5):
            u = rng.standard_normal(nm)
            e_m = tf_m.energy(u)
            e_min = forms.constrained_minimum_energy(tf_m1, np.arange(nm), u)
            assert abs(e_m - e_min) <= 1e-9 * abs(e_m)


def test_markov_property(unit_triple, rng):
    # clipping to [0, 1] never increases the energy
    tf = forms.assemble_trace_form(unit_triple, 3)
    net = forms.assemble_arc_fem(unit_triple, 3, 2)
    for _ in range(100):
        u = rng.standard_normal(tf.n_vertices) * 2.0
        assert tf.energy(np.clip(u, 0.0, 1.0)) <= tf.energy(u) + 1e-12
        v = rng.standard_normal(net.n_vertices) * 2.0
        assert net.energy(np.clip(v, 0.0, 1.0)) <= net.energy(v) + 1e-12


def test_null_space(unit_triple):
    tf = forms.assemble_trace_form(unit_triple, 3)
    const = np.full(tf.n_vertices, 2.5)
    assert tf.energy(const) < 1e-12
    # zero energy only for constants: the free graph is connected, so the
    # second smallest eigenvalue of the stiffness must be positive
    w = np.linalg.eigvalsh(tf.stiffness().toarray())
    assert w[0] < 1e-10 and w[1] > 1e-10


def test_mass_thirds_level0(unit_triple):
    mv = forms.assemble_mass_trace(unit_triple, 0)
    assert np.allclose(mv.values, 2 * SQRT3 / 3, rtol=1e-14)


def test_mass_totals_constant(rng):
    # child center triangles tile the parent: totals are exactly conserved
    t = random_triple(rng)
    target = 2.0 * geom.triangle_area(t)
    for scheme in ("thirds", "arclen"):
        totals = [forms.assemble_mass_trace(t, m, scheme=scheme).total for m in range(6)]
        for tot in totals:
            assert abs(tot - target) < 1e-12 * target


def test_mass_mu_totals_increase_to_limit(unit_triple):
    target = 2.0 * geom.triangle_area(unit_triple)
    totals = [forms.assemble_mass_trace(unit_triple, m, scheme="mu").total for m in range(1, 7)]
    for tot, nxt in zip(totals, totals[1:]):
        assert tot < nxt < target
    # the tail of the arc measure is geometric; by depth 6 the total is close
    assert totals[-1] > 0.98 * target


def _arc_radii(net, cx):
    return cx.radii[net.arc_ids]


def test_arc_fem_m1_counts(unit_triple):
    cx = gasket.build_complex(unit_triple, 1)
    net = forms.assemble_arc_fem(unit_triple, 1, 1, cx)
    assert net.n_vertices == 6
    assert len(net.edges) == 9
    # every edge weight pair satisfies stiffness * mass = rad^2
    r = _arc_radii(net, cx)
    assert np.all(np.abs(net.conductance * net.edge_mass - r * r) < 1e-14)


def test_arc_fem_mass_increases_with_depth(unit_triple):
    target = 2.0 * geom.triangle_area(unit_triple)
    prev = 0.0
    for m in (1, 2, 3, 4):
        tot = forms.assemble_arc_fem(unit_triple, m, 1).total_mass
        assert prev < tot < target
        prev = tot


def test_arc_fem_coordinate_energy(unit_triple):
    # assembled energy of the coordinate pair equals sum rad*chord^2/len and
    # converges to the total arc measure at second order in refine
    gaps = []
    cx = gasket.build_complex(unit_triple, 2)
    for refine in (2, 4, 8):
        net = forms.assemble_arc_fem(unit_triple, 2, refine, cx)
        pts = np.asarray(net.points)
        e = net.energy(pts[:, 0]) + net.energy(pts[:, 1])
        direct = 0.0
        for (i, j), r, mass in zip(net.edges, _arc_radii(net, cx), net.edge_mass):
            chord2 = (pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2
            direct += r * chord2 / (mass / r)
        assert abs(e - direct) < 1e-12 * e
        gaps.append(net.total_mass - e)
    assert gaps[0] > 0
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.05)


def test_arc_fem_piece_count_formula(unit_triple):
    # each tangency point splits exactly two arcs: pieces = 2 #V_m - 3
    for m in (1, 2, 3):
        net = forms.assemble_arc_fem(unit_triple, m, 1)
        cx = gasket.build_complex(unit_triple, m)
        assert len(net.edges) == 2 * cx.num_vertices_at(m) - 3


def test_arc_fem_edges_lie_on_their_arcs(unit_triple):
    cx = gasket.build_complex(unit_triple, 3)
    net = forms.assemble_arc_fem(unit_triple, 3, 3, cx)
    assert len(net.arc_ids) == len(net.edges)
    for (i, j), c, mass, cid in zip(net.edges, net.conductance, net.edge_mass, net.arc_ids):
        (cx0, cy0), radius = cx.centers[cid], cx.radii[cid]
        # conductance rad/len times mass rad*len is the radius squared
        assert abs(c * mass - radius**2) < 1e-14 * radius**2
        for vid in (i, j):
            x, y = net.points[vid]
            dist = math.hypot(x - cx0, y - cy0)
            assert abs(dist - radius) < 1e-9 * radius


def _loop_stiffness(net):
    K = np.zeros((net.n_vertices, net.n_vertices))
    for (i, j), c in zip(net.edges, net.conductance):
        K[i, j] -= c
        K[j, i] -= c
        K[i, i] += c
        K[j, j] += c
    return K


def test_network_arrays_match_edge_loops(unit_triple, rng):
    # the array methods reproduce entry-by-entry assembly bit for bit: c_ij
    # off the diagonal, conductance row sums on it, rad*len/2 per endpoint
    tf = forms.assemble_trace_form(unit_triple, 3)
    net = forms.assemble_arc_fem(unit_triple, 2, 3)
    assert len(np.unique(tf.edges, axis=0)) == len(tf.edges) == 3 * 3**3
    for g in (tf, net):
        assert np.array_equal(g.stiffness().toarray(), _loop_stiffness(g))
        u = rng.standard_normal(g.n_vertices)
        res = np.zeros(g.n_vertices)
        scale = np.zeros(g.n_vertices)
        energy = 0.0
        for (i, j), c in zip(g.edges, g.conductance):
            d = u[i] - u[j]
            res[i] += c * d
            res[j] -= c * d
            scale[i] += c
            scale[j] += c
            energy += c * d * d
        assert np.array_equal(g.laplacian_residual(u), res)
        assert np.array_equal(g.vertex_conductance_scale(), scale)
        assert g.energy(u) == pytest.approx(energy, rel=1e-14)
    mass = np.zeros(net.n_vertices)
    for (i, j), w in zip(net.edges, net.edge_mass):
        mass[i] += 0.5 * w
        mass[j] += 0.5 * w
    assert np.array_equal(net.mass_vector().values, mass)


def test_mass_totals_converge_between_deep_levels(unit_triple):
    # the 1% level-6 to level-7 comparison for both conserved and truncated
    # lumpings (the conserved ones are exactly equal)
    cx = gasket.build_complex(unit_triple, 7)
    for scheme in ("thirds", "mu"):
        t6 = forms.assemble_mass_trace(unit_triple, 6, cx, scheme=scheme).total
        t7 = forms.assemble_mass_trace(unit_triple, 7, cx, scheme=scheme).total
        assert abs(t7 - t6) <= 0.01 * t6


def test_scheme_agreement_lowest_eigenvalues(unit_triple):
    # lowest 10 Dirichlet eigenvalues of the two discretizations at m=6;
    # mode 6 carries deep-arc content the m=6 network resolves slowly, so the
    # same-depth comparison needs 6.5% (measured 6.0%), while the trace form
    # agrees with the depth-refined arc network within 5%
    from gasketlab import spectra

    lam_tr = spectra.solve(
        spectra.evp_from_trace(unit_triple, 6, mass_scheme="thirds")
    ).eigenvalues[:10]
    lam_arc = spectra.solve(
        spectra.evp_from_arc_fem(unit_triple, 6, 4), how_many=10
    ).eigenvalues
    assert np.all(np.abs(lam_tr - lam_arc) <= 0.065 * lam_arc)
    lam_arc7 = spectra.solve(
        spectra.evp_from_arc_fem(unit_triple, 7, 4), how_many=10
    ).eigenvalues
    assert np.all(np.abs(lam_tr - lam_arc7) <= 0.05 * lam_arc7)


# ---------------------------------------------------------------------------
# sector extension


def test_sector_check_constant():
    f = forms.ArcSegmentFunction((0.0, 0.0), 2.0, 0.0, 1.0, tuple([0.7] * 20))
    rep = forms.sector_extension_check(f, a=0.7)
    assert rep.w12_ok and all(rep.l2_ok.values())
    assert rep.arc_gradient == 0.0
    # sector area = rad*len/2: with u = a = 0.7 the L2 sides are proportional
    assert rep.sector_l2[rep.mean] == pytest.approx(0.7**2 * 2.0**2 * 1.0 / 2.0, rel=1e-6)


def test_sector_check_sine_quarter_circle():
    f = forms.sample_arc_function((0.0, 0.0), 1.0, 0.0, math.pi / 2, lambda x, y: y, n=128)
    rep = forms.sector_extension_check(f, a=rep_mean(f))
    assert rep.w12_ok and all(rep.l2_ok.values())
    # oracle: closed forms for u = sin(theta) on [0, pi/2]
    # integral of u'^2 dtheta = integral cos^2 = pi/4
    assert rep.arc_gradient == pytest.approx(math.pi / 4, rel=1e-3)
    # integral of u^2 rad dH1 = r^2 integral sin^2 = pi/4
    assert rep.arc_l2 == pytest.approx(math.pi / 4, rel=1e-3)


def rep_mean(f):
    vals = np.asarray(f.values)
    return float(np.mean((vals[:-1] + vals[1:]) * 0.5))


def test_sector_check_sector_integral_oracle():
    # closed form: gradient sector integral = (1/2) integral ((u-a)^2 + u'^2)
    f = forms.sample_arc_function((1.0, -2.0), 3.0, 0.3, 2.1, lambda x, y: x, n=256)
    a = rep_mean(f)
    rep = forms.sector_extension_check(f, a=a)
    th = np.linspace(0.3, 2.1, 20001)
    u = 1.0 + 3.0 * np.cos(th)
    du = -3.0 * np.sin(th)
    exact = 0.5 * np.trapezoid((u - a) ** 2 + du**2, th)
    assert rep.sector_gradient == pytest.approx(float(exact), rel=1e-3)


def test_sector_check_random_sweep(rng):
    for _ in range(30):
        r = float(rng.uniform(0.2, 3.0))
        th0 = float(rng.uniform(-math.pi, math.pi))
        span = float(rng.uniform(0.3, 2 * math.pi))
        coef = rng.standard_normal(6)
        th = np.linspace(th0, th0 + span, 64)
        u = (
            coef[0]
            + coef[1] * np.cos(th)
            + coef[2] * np.sin(th)
            + coef[3] * np.cos(2 * th)
            + coef[4] * np.sin(2 * th)
            + coef[5] * np.cos(3 * th)
        )
        f = forms.ArcSegmentFunction((0.0, 0.0), r, th0, th0 + span, tuple(map(float, u)))
        a = float(rng.uniform(u.min(), u.max()))
        rep = forms.sector_extension_check(f, a)
        assert rep.w12_ok and all(rep.l2_ok.values())


def test_sector_check_exact_on_linear_data():
    # u = p + q theta is its own piecewise-linear interpolant, so the sector
    # integrals equal the antiderivative forms to roundoff
    r, th0, th1, p, q = 1.7, 0.4, 2.3, 0.3, 0.9
    th = np.linspace(th0, th1, 17)
    f = forms.ArcSegmentFunction((0.5, -1.0), r, th0, th1, tuple(map(float, p + q * th)))
    a = 1.1
    rep = forms.sector_extension_check(f, a)

    def dev_cubed(x):  # antiderivative of (u - a)^2 in theta
        return (p + q * x - a) ** 3 / (3 * q)

    exact_grad = 0.5 * (dev_cubed(th1) - dev_cubed(th0) + q * q * (th1 - th0))
    assert rep.sector_gradient == pytest.approx(exact_grad, rel=1e-13, abs=0.0)

    def sector_l2(b):
        # int_0^1 ((1-t) b + t u)^2 t dt = b^2/12 + b u/6 + u^2/4, integrated in theta
        def g(x):
            u = p + q * x
            return b * b * x / 12 + b * (p * x + q * x * x / 2) / 6 + u**3 / (12 * q)

        return r * r * (g(th1) - g(th0))

    assert rep.sector_l2[0.0] == pytest.approx(sector_l2(0.0), rel=1e-13, abs=0.0)
    assert rep.sector_l2[rep.mean] == pytest.approx(sector_l2(rep.mean), rel=1e-13, abs=0.0)


def test_sector_check_matches_2d_midpoint_oracle():
    # brute-force midpoint sum of |grad I_a u|^2 and (I_a u)^2 over a
    # (t, theta) grid, area weight r^2 t, for seeded random arc functions;
    # 40 theta cells per sample interval, so no cell straddles a kink of u
    rng = np.random.default_rng(7)
    n_t, n_th = 2000, 63 * 40
    for _ in range(3):
        r = float(rng.uniform(0.2, 3.0))
        th0 = float(rng.uniform(-math.pi, math.pi))
        span = float(rng.uniform(0.3, 2 * math.pi))
        coef = rng.standard_normal(5)
        nodes = np.linspace(th0, th0 + span, 64)
        u = (
            coef[0]
            + coef[1] * np.cos(nodes)
            + coef[2] * np.sin(nodes)
            + coef[3] * np.cos(2 * nodes)
            + coef[4] * np.sin(3 * nodes)
        )
        f = forms.ArcSegmentFunction((0.0, 0.0), r, th0, th0 + span, tuple(map(float, u)))
        a = float(rng.uniform(u.min(), u.max()))
        rep = forms.sector_extension_check(f, a)

        th = th0 + (np.arange(n_th) + 0.5) * span / n_th
        u_th = np.interp(th, nodes, u)
        k = np.minimum(((th - th0) / (nodes[1] - nodes[0])).astype(int), len(nodes) - 2)
        du_th = (u[k + 1] - u[k]) / (nodes[k + 1] - nodes[k])
        grad = l2 = 0.0
        for t in np.array_split((np.arange(n_t) + 0.5) / n_t, 10):
            t = t[:, None]
            weight = r * r * t * (1.0 / n_t) * (span / n_th)
            grad_sq = ((u_th - a) ** 2 + du_th**2) / (r * r)  # |grad I_a u|^2
            grad += float(np.sum(grad_sq * weight))
            l2 += float(np.sum((t * u_th) ** 2 * weight))  # (I_0 u)^2
        assert rep.sector_gradient == pytest.approx(grad, rel=1e-5)
        assert rep.sector_l2[0.0] == pytest.approx(l2, rel=1e-5)


def test_sector_check_requires_a_in_range():
    f = forms.ArcSegmentFunction((0.0, 0.0), 1.0, 0.0, 1.0, tuple([0.5] * 16))
    with pytest.raises(ValueError):
        forms.sector_extension_check(f, a=2.0)


def test_assembly_extreme_curvature_ratios(rng):
    # ratios up to 1e4 between members, translated far from the origin
    for _ in range(60):
        a, b, c = (10.0 ** rng.uniform(-2, 2) for _ in range(3))
        t = geom.triple_from_curvatures(a, b, c)
        t = geom.transform_triple(
            t,
            rotate=float(rng.uniform(0, 6.28)),
            translate=(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20))),
        )
        tf = forms.assemble_trace_form(t, 3)
        pts = np.asarray(tf.points)
        target = 2.0 * geom.triangle_area(t)
        e = tf.energy(pts[:, 0]) + tf.energy(pts[:, 1])
        assert abs(e - target) < 1e-9 * target
        assert np.all(forms.assemble_mass_trace(t, 3, scheme="mu").values > 0)
        forms.assemble_arc_fem(t, 3, 2)
