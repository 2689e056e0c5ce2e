import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gasketlab import carpet
from gasketlab.errors import BudgetExceeded, InsufficientRange, InvalidQ, SupportViolation


def test_solve_params_q8_values():
    cfg = carpet.solve_params(8)
    # closed forms: t = 1/sqrt(1 - 4 sin^2(pi/8)), s = 2 t sin(pi/8)
    assert cfg.t_q == pytest.approx(1.5537740, abs=5e-7)
    assert cfg.s_q == pytest.approx(1.1892071, abs=5e-7)
    # r solves r^2 + r s - 1 = 0 in (0, 1)
    assert abs(cfg.r_q**2 + cfg.r_q * cfg.s_q - 1.0) < 1e-12
    assert cfg.r_q == pytest.approx(0.5688190, abs=1e-5)
    assert max(abs(x) for x in cfg.residuals) < 1e-12
    # the third constraint under the opposite sign convention is clearly violated
    r, s = cfg.r_q, cfg.s_q
    assert abs(-(1.0 - r * r) / (2.0 * r * s) - math.cos(math.pi / 3.0)) > 0.5


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


def test_solve_params_numpy_integer():
    # the integer rule of spectra.solve: numpy integers are integers
    cfg = carpet.solve_params(np.int64(8))
    assert cfg == carpet.solve_params(8) and type(cfg.q) is int


def _random_circles(rng):
    """Circles inside the unit disk that keep clear of the origin."""
    c = rng.uniform(-0.85, 0.85, 200) + 1j * rng.uniform(-0.85, 0.85, 200)
    r = rng.uniform(1e-3, 0.1, 200)
    keep = np.abs(c) > r + 0.05
    return c[keep], r[keep]


def _assert_same_circles(image, c, r):
    ic, ir = image
    assert np.max(np.abs(ic - c)) < 1e-12
    assert np.max(np.abs(ir - r) / r) < 1e-12


def test_generators_are_involutions(rng):
    c, r = _random_circles(rng)
    for q in (7, 8, 12):
        for g in carpet.generators(carpet.solve_params(q)):
            _assert_same_circles(g(*g(c, r)), c, r)


def test_generators_dihedral_relation(rng):
    # the two line reflections meet at angle pi/q: (g3 g1)^q = id
    c, r = _random_circles(rng)
    for q in (7, 8, 12):
        g1, _, g3, _ = carpet.generators(carpet.solve_params(q))
        image = (c, r)
        for _ in range(q - 1):
            image = g3(*g1(*image))
        assert np.max(np.abs(image[0] - c)) > 1e-3  # the (q-1)st power is not the identity
        _assert_same_circles(g3(*g1(*image)), c, r)


def test_generator_2_fixes_unit_circle():
    for q in (7, 8, 12):
        g2 = carpet.generators(carpet.solve_params(q))[1]
        c, r = g2(0j, 1.0)
        assert abs(c) < 1e-12 and abs(r - 1.0) < 1e-12
        _assert_same_circles(g2(np.zeros(3, dtype=complex), np.ones(3)), 0j, 1.0)


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


def _global_hash_orbit(cfg, min_radius):
    """Reference enumeration: scalar BFS over one global geometric hash.

    Circles down to 0.3 * ``min_radius`` are expanded though only
    those at or above ``min_radius`` are stored, so a large image of a small
    circle cannot be missed; the maps use plain Python complex arithmetic.
    Each generation is mapped generator by generator, so of two matching
    images the one kept is the copy made by the lowest generator.
    """
    center2 = cfg.t_q * cmath.exp(1j * math.pi / cfg.q)

    def reflect(c, r, angle):
        return 0j + cmath.exp(2.0j * angle) * (c - 0j).conjugate(), r

    def invert(c, r, c0, s):
        d = c - c0
        f = s * s / (d.real * d.real + d.imag * d.imag - r * r)
        return c0 + f * d, abs(f) * r

    maps = (
        lambda c, r: reflect(c, r, 0.0),
        lambda c, r: invert(c, r, center2, cfg.s_q),
        lambda c, r: reflect(c, r, math.pi / cfg.q),
        lambda c, r: invert(c, r, 0j, cfg.r_q),
    )
    tol, guard = 1e-9, 2e-3
    seen = {}

    def axis(v):
        k = round(v / tol)
        f = v / tol - k
        if f > 0.5 - guard:
            return (k, k + 1)
        if f < guard - 0.5:
            return (k, k - 1)
        return (k,)

    def remember(c, r):
        keys = [(a, b, d) for a in axis(c.real) for b in axis(c.imag) for d in axis(r)]
        for key in keys:
            for c0, r0 in seen.get(key, ()):
                if abs(c - c0) <= tol and abs(r - r0) <= tol:
                    return False
        seen.setdefault(keys[0], []).append((c, r))
        return True

    remember(0j, 1.0)
    stored, frontier, generation = [], [(0j, 1.0)], 0
    while frontier:
        generation += 1
        nxt = []
        for mp in maps:
            for c, r in frontier:
                c2, r2 = mp(c, r)
                if not remember(c2, r2):
                    continue
                if r2 >= min_radius:
                    stored.append((c2, r2, generation))
                if r2 >= 0.3 * min_radius:
                    nxt.append((c2, r2))
        frontier = nxt
    stored.sort(key=lambda t: (-t[1], t[0].real, t[0].imag))
    return (
        np.array([c for c, _, _ in stored], dtype=complex),
        np.array([r for _, r, _ in stored]),
        np.array([g for _, _, g in stored], dtype=int),
    )


@pytest.mark.parametrize(
    "q, min_radius", [(7, 1e-2), (8, 1e-2), (9, 1e-2), (12, 1e-2), (8, 3e-3)]
)
def test_orbit_matches_global_hash_enumeration(q, min_radius):
    # bit-identical to the unpruned global-hash BFS: the descent test and
    # the pruning at min_radius lose and duplicate nothing
    cfg = carpet.solve_params(q)
    centers, radii, gens = _global_hash_orbit(cfg, min_radius)
    o = carpet.enumerate_circles(cfg, min_radius)
    assert np.array_equal(o.centers, centers)
    assert np.array_equal(np.signbit(o.centers.real), np.signbit(centers.real))
    assert np.array_equal(np.signbit(o.centers.imag), np.signbit(centers.imag))
    assert np.array_equal(o.radii, radii)
    assert np.array_equal(o.generations, gens)


def test_orbit_closed_and_parents_not_smaller():
    cfg = carpet.solve_params(8)
    r_min = 1e-2
    o = carpet.enumerate_circles(cfg, r_min)
    # the unit circle is generation 0
    c = np.concatenate([[0j], o.centers])
    r = np.concatenate([[1.0], o.radii])
    g = np.concatenate([[0], o.generations])
    tree = cKDTree(np.column_stack([c.real, c.imag, r]))
    has_parent = g == 0
    for ic, ir in (gen(c, r) for gen in carpet.generators(cfg)):
        d, j = tree.query(np.column_stack([ic.real, ic.imag, ir]))
        found = d <= 1e-9
        itself = found & (j == np.arange(len(r)))
        neighbor = found & (np.abs(g[j] - g) == 1)
        assert np.all((ir < r_min) | itself | neighbor)
        has_parent |= neighbor & (g[j] == g - 1) & (ir >= r)
    assert np.all(has_parent)
    assert not cKDTree(np.column_stack([o.centers.real, o.centers.imag])).query_pairs(1e-9)


def test_orbit_budget_exceeded():
    cfg = carpet.solve_params(8)
    with pytest.raises(BudgetExceeded):
        carpet.enumerate_circles(cfg, 1e-2, cap=10)
    # the cap admits exactly the stored count and refuses one circle fewer
    n = len(carpet.enumerate_circles(cfg, 1e-2))
    assert len(carpet.enumerate_circles(cfg, 1e-2, cap=n)) == n
    with pytest.raises(BudgetExceeded):
        carpet.enumerate_circles(cfg, 1e-2, cap=n - 1)


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


@pytest.mark.parametrize("min_radius", [3e-2, 1e-2])
def test_separation_matches_pair_scan(min_radius):
    o = carpet.enumerate_circles(carpet.solve_params(8), min_radius)
    x, y, r = o.centers.real, o.centers.imag, o.radii
    idx = np.arange(len(r))
    best, pairs = math.inf, 0
    for i in idx:
        # each pair once, seen from the larger circle (the lower index on ties)
        j = idx[(r < r[i]) | ((r == r[i]) & (idx > i))]
        d = np.hypot(x[j] - x[i], y[j] - y[i])
        near = d <= (2.0 + carpet.SEPARATION_EPS_CAP) * r[i]
        j, d = j[near], d[near]
        pairs += len(j)
        if len(j):
            best = min(best, float(((d - r[i] - r[j]) / np.minimum(r[i], r[j])).min()))
    assert carpet.separation_stats(o) == (best, pairs)


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


@pytest.mark.parametrize("d", [0.8, 2.5])
def test_fit_dimension_outside_one_two(d):
    cfg = carpet.solve_params(8)
    n = 100000
    radii = np.arange(1, n + 1, dtype=float) ** (-1.0 / d)
    orbit = carpet.CircleOrbit(
        cfg, float(radii.min()), np.zeros(n, dtype=complex), radii, np.ones(n, dtype=int)
    )
    with pytest.raises(InsufficientRange, match="outside"):
        carpet.fit_carpet_dimension(orbit)


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


@pytest.mark.parametrize("center, radius", [
    ((0.23, 0.11), -0.4), ((0.23, 0.11), 0.0), ((0.23, 0.11), math.nan),
    ((0.23, 0.11), math.inf), ((math.nan, 0.11), 0.4), ((0.23, -math.inf), 0.4),
])
def test_bump_rejects_bad_center_or_radius(center, radius):
    # a negative radius passed the support check and gave a residual of 0.0
    # from no circles; a zero radius divided by zero
    with pytest.raises(ValueError, match="bump"):
        carpet.RadialBump(center, radius)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_bump_rejects_nonfinite_amplitude(amplitude):
    # nan gave a nan residual, inf a RuntimeWarning
    with pytest.raises(ValueError, match="bump amplitude"):
        carpet.RadialBump((0.2, 0.1), 0.4, amplitude=amplitude)


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


@pytest.mark.parametrize("refine", [0, -4, 2.5, True])
def test_harmonicity_rejects_bad_refine(refine):
    # a nonpositive refine gives an empty quadrature: a perfect-looking 0.0,
    # and True would be taken as one point
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 1e-1)
    bump = carpet.RadialBump((0.2, 0.1), 0.4)
    with pytest.raises(ValueError, match="refine"):
        carpet.harmonicity_residual(o, bump, refine=refine)
    with pytest.raises(ValueError, match="refine"):
        carpet.harmonicity_contributions(o, bump, refine=refine)
    with pytest.raises(ValueError, match="refine"):
        carpet.circle_pairing_gauss_green(0.1 + 0.1j, 0.05, bump, refine=refine)


def _per_circle_contributions(o, v, refine, coordinate):
    th = 2.0 * math.pi * np.arange(refine) / refine
    cosv, sinv = np.cos(th), np.sin(th)
    out = np.empty(len(o))
    for k, (c, r) in enumerate(zip(o.centers, o.radii)):
        gx, gy = v.gradient(c.real + r * cosv, c.imag + r * sinv)
        dv = r * (-sinv * gx + cosv * gy)
        du = -r * sinv if coordinate == 1 else r * cosv
        out[k] = float(np.sum(du * dv)) * (2.0 * math.pi / refine)
    return out


@pytest.mark.parametrize("refine", [256, 2048])
def test_harmonicity_contributions_match_per_circle_loop(refine):
    o = carpet.enumerate_circles(carpet.solve_params(8), 1e-2)
    wide = carpet.RadialBump((0.23, 0.11), 0.5)
    narrow = carpet.RadialBump((0.7, 0.0), 0.05)  # support misses most circles
    for bump in (wide, narrow):
        for coord in (1, 2):
            ref = _per_circle_contributions(o, bump, refine, coord)
            got = carpet.harmonicity_contributions(o, bump, refine=refine, coordinate=coord)
            assert np.array_equal(got, ref)
            if bump is narrow:
                assert 0 < np.count_nonzero(ref) < len(o) // 10


def test_harmonicity_chunk_changes_no_bit(monkeypatch):
    # each circle's row is summed on its own: the default blocks against
    # one row per block, values and sign bits
    o = carpet.enumerate_circles(carpet.solve_params(8), 3e-3)
    bump = carpet.RadialBump((0.23, 0.11), 0.5)
    runs = []
    for chunk in (carpet._HARMONICITY_CHUNK, 1):
        monkeypatch.setattr(carpet, "_HARMONICITY_CHUNK", chunk)
        runs.append([carpet.harmonicity_contributions(o, bump, refine=refine, coordinate=c)
                     for refine in (64, 256) for c in (1, 2)])
    for got, ref in zip(*runs):
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def test_unit_circle_table_is_shared_and_read_only():
    # the quadratures share one (cos, sin) table per refine; a caller that
    # wrote to it would change every later call's samples
    cosv, sinv = carpet._unit_circle(64)
    assert carpet._unit_circle(64)[0] is cosv and carpet._unit_circle(64)[1] is sinv
    assert not cosv.flags.writeable and not sinv.flags.writeable
    th = carpet.TWO_PI * np.arange(64) / 64
    assert np.array_equal(cosv, np.cos(th)) and np.array_equal(sinv, np.sin(th))


def test_import_leaves_out_scipy_spatial():
    code = ("import sys, gasketlab.carpet, gasketlab.spectra; "
            "sys.exit('scipy.spatial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
        8: ("adcc60213846a088a6492cc3a2202981734232a09612f00533620c072dfa3b3b", 73),
        9: ("a9b8208210f87aec7a6ba2b6cae80cd3cd4f4d86dd13212e74a5d59003b477c6", 73),
        12: ("32ef060c8293a64acbf74cc189133f2e8b5486d56dd198a364d6f77d43b81953", 61),
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
