import cmath
import math

import numpy as np
import pytest

from gasketlab import carpet, geom
from gasketlab.errors import InsufficientRange, InvalidQ, SupportViolation


def test_solve_params_q8_values():
    cfg = carpet.solve_params(8)
    # closed forms: t = 1/sqrt(1 - 4 sin^2(pi/8)), s = 2 t sin(pi/8)
    assert cfg.t_q == pytest.approx(1.5537740, abs=5e-7)
    assert cfg.s_q == pytest.approx(1.1892071, abs=5e-7)
    # r solves r^2 + r s - 1 = 0 in (0, 1)
    assert abs(cfg.r_q**2 + cfg.r_q * cfg.s_q - 1.0) < 1e-12
    assert cfg.r_q == pytest.approx(0.5688190, abs=1e-5)
    assert max(abs(x) for x in cfg.residuals) < 1e-12
    # the opposite angle convention is clearly violated, as recorded
    assert abs(cfg.angle_residual_alt) > 0.5


@pytest.mark.parametrize("q", [7, 8, 9, 12])
def test_solve_params_residuals(q):
    cfg = carpet.solve_params(q)
    assert max(abs(x) for x in cfg.residuals) < 1e-12
    assert 0.0 < cfg.r_q < 1.0
    assert cfg.t_q**2 == pytest.approx(1.0 + cfg.s_q**2, rel=1e-14)


@pytest.mark.parametrize("q", [6, 5, 0, -3])
def test_solve_params_invalid_q(q):
    with pytest.raises(InvalidQ):
        carpet.solve_params(q)


def test_solve_params_non_integer():
    with pytest.raises(InvalidQ):
        carpet.solve_params(7.5)


def test_generators_are_involutions(rng):
    cfg = carpet.solve_params(8)
    gens = carpet.generators(cfg)
    pts = [complex(*rng.uniform(-0.9, 0.9, 2)) for _ in range(100)]
    for g in gens:
        for z in pts:
            assert abs(g.apply(g.apply(z)) - z) < 1e-12 * max(1.0, abs(z))


def test_generators_dihedral_relation(rng):
    for q in (7, 8, 12):
        cfg = carpet.solve_params(q)
        gens = carpet.generators(cfg)
        comp = gens[2] @ gens[0]  # product of the two line reflections
        for _ in range(10):
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            w = z
            for _ in range(q):
                w = comp.apply(w)
            assert abs(w - z) < 1e-10


def test_generator_2_fixes_unit_circle():
    cfg = carpet.solve_params(8)
    g2 = carpet.generators(cfg)[1]
    for k in range(20):
        z = cmath.exp(2j * math.pi * k / 20)
        assert abs(abs(g2.apply(z)) - 1.0) < 1e-12


def test_orbit_generation_one():
    # lines and the orthogonal circle fix the unit circle; only the
    # concentric inversion creates a new circle, of radius r^2
    cfg = carpet.solve_params(8)
    orbit = carpet.enumerate_circles(cfg, 1e-2)
    g1 = [(c, r) for c, r, g in zip(orbit.centers, orbit.radii, orbit.generations) if g == 1]
    assert len(g1) == 1
    c, r = g1[0]
    assert abs(c) < 1e-12
    assert r == pytest.approx(cfg.r_q**2, rel=1e-12)
    # independent oracle: the generic Mobius image of the unit disk
    g4 = carpet.generators(cfg)[3]
    res = geom.invert(g4, geom.disk((0.0, 0.0), 1.0))
    assert res.region.radius == pytest.approx(r, rel=1e-9)


def test_orbit_monotone_in_cutoff():
    cfg = carpet.solve_params(8)
    o_coarse = carpet.enumerate_circles(cfg, 1e-2)
    o_fine = carpet.enumerate_circles(cfg, 1e-3)
    def keys(o):
        return set(
            (round(c.real / 1e-9), round(c.imag / 1e-9), round(r / 1e-9))
            for c, r in zip(o.centers, o.radii)
        )
    assert keys(o_coarse) <= keys(o_fine)
    assert len(o_coarse) < len(o_fine)


def test_orbit_deterministic():
    cfg = carpet.solve_params(9)
    o1 = carpet.enumerate_circles(cfg, 3e-3)
    o2 = carpet.enumerate_circles(cfg, 3e-3)
    assert np.array_equal(o1.radii, o2.radii)
    assert np.array_equal(o1.centers, o2.centers)
    assert np.array_equal(o1.generations, o2.generations)


def test_orbit_inside_unit_disk_and_disjoint():
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 3e-3)
    assert float(np.max(np.abs(o.centers) + o.radii)) <= 1.0 + 1e-9
    eps, pairs = carpet.separation_stats(o)
    assert eps > 0.0
    assert pairs > len(o)


def test_counting_nondecreasing():
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 1e-2)
    curv = np.sort(o.curvatures())
    lams = [5.0, 20.0, 70.0]
    counts = [int(np.searchsorted(curv, lam, side="right")) for lam in lams]
    assert counts == sorted(counts)


def test_separation_synthetic_pair():
    cfg = carpet.solve_params(8)
    orbit = carpet.CircleOrbit(
        cfg, 1.0,
        np.array([0j, 3.0 + 0j]), np.array([1.0, 1.0]), np.array([1, 1]),
    )
    eps, pairs = carpet.separation_stats(orbit)
    assert eps == pytest.approx(1.0, rel=1e-12)
    assert pairs == 1


def test_separation_nonincreasing_with_cutoff():
    cfg = carpet.solve_params(9)
    eps_coarse, _ = carpet.separation_stats(carpet.enumerate_circles(cfg, 1e-2))
    eps_fine, _ = carpet.separation_stats(carpet.enumerate_circles(cfg, 1e-3))
    assert eps_fine <= eps_coarse + 1e-12


def test_fit_dimension_synthetic():
    cfg = carpet.solve_params(8)
    n = 100000
    d = 1.4
    curv = (np.arange(1, n + 1, dtype=float)) ** (1.0 / d)
    radii = 1.0 / curv
    orbit = carpet.CircleOrbit(
        cfg, float(radii.min()), np.zeros(n, dtype=complex), radii, np.ones(n, dtype=int)
    )
    fit = carpet.fit_carpet_dimension(orbit)
    assert abs(fit.slope - d) < 1e-3


def test_fit_dimension_needs_circles():
    cfg = carpet.solve_params(8)
    orbit = carpet.CircleOrbit(
        cfg, 0.5, np.zeros(5, dtype=complex), np.full(5, 0.6), np.ones(5, dtype=int)
    )
    with pytest.raises(InsufficientRange):
        carpet.fit_carpet_dimension(orbit)


def test_harmonicity_zero_function():
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 1e-2)
    bump = carpet.RadialBump((0.2, 0.1), 0.4, amplitude=0.0)
    assert carpet.harmonicity_residual(o, bump) == 0.0


def test_harmonicity_support_violation():
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 1e-1)
    with pytest.raises(SupportViolation):
        carpet.harmonicity_residual(o, carpet.RadialBump((0.8, 0.0), 0.5))


def test_harmonicity_gauss_green_per_circle():
    cfg = carpet.solve_params(8)
    bump = carpet.RadialBump((0.23, 0.11), 0.5)
    o = carpet.enumerate_circles(cfg, 1e-2)
    idx = 3
    single = carpet.CircleOrbit(
        cfg, 1.0,
        o.centers[idx : idx + 1], o.radii[idx : idx + 1], o.generations[idx : idx + 1],
    )
    lhs = carpet.harmonicity_contributions(single, bump, refine=2048)[0]
    rhs = carpet.circle_pairing_gauss_green(o.centers[idx], o.radii[idx], bump, refine=8192)
    assert lhs == pytest.approx(rhs, abs=1e-12 + 1e-9 * abs(rhs))


def test_harmonicity_residual_decays():
    cfg = carpet.solve_params(8)
    o_coarse = carpet.enumerate_circles(cfg, 1e-2)
    o_fine = carpet.enumerate_circles(cfg, 1e-3)
    bump = carpet.RadialBump((0.23, 0.11), 0.5)
    for coord in (1, 2):
        r_c = carpet.harmonicity_residual(o_coarse, bump, coordinate=coord)
        r_f = carpet.harmonicity_residual(o_fine, bump, coordinate=coord)
        assert abs(r_f) < abs(r_c)


def test_carpet_svg_golden_hashes():
    # regression pin: orbit renders at coarse cutoff, checked once by eye
    import hashlib

    from gasketlab.svg import circles_svg

    golden = {
        8: ("9643ca9deb43f98547be0c8affe703fc503e62a1ec3f70caed67243d625719a3", 73),
        9: ("537b0a1bb5951af2cea6a84d9a2faa95faa2dac46324357f940a0e21d8676a9a", 73),
        12: ("e44ad0b136a6f94f2960f841da8c3bc4dacfaf6ff1d06c17ed6ec3dd09791c5a", 61),
    }
    for q, (digest, count) in golden.items():
        cfg = carpet.solve_params(q)
        o = carpet.enumerate_circles(cfg, 3e-2)
        assert len(o) == count
        circles = [(0.0, 0.0, 1.0)] + [
            (c.real, c.imag, r) for c, r in zip(o.centers, o.radii)
        ]
        doc = circles_svg(circles)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_orbit_csv_format():
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 1e-1)
    lines = o.to_csv().splitlines()
    assert lines[0] == "center_x,center_y,radius,generation"
    assert len(lines) == len(o) + 1
