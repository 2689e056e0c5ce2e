"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines including measured runtimes.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import random_triple
from gasketlab import carpet, checks, forms, gasket, geom, spectra

SQRT3 = math.sqrt(3.0)


def _report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def unit():
    return geom.triple_from_curvatures(1.0, 1.0, 1.0)


# heavy artifacts shared between criteria; built lazily inside the timed
# body of whichever criterion needs them first
_CACHE = {}


def _m7_spectrum(unit):
    if "m7" not in _CACHE:
        _CACHE["m7"] = spectra.solve(spectra.evp_from_trace(unit, 7), how_many=1000)
    return _CACHE["m7"]


def _arcfem_spectrum(unit):
    if "arcfem" not in _CACHE:
        _CACHE["arcfem"] = spectra.solve(
            spectra.evp_from_arc_fem(unit, 5, 4), how_many=1000
        )
    return _CACHE["arcfem"]


def _q8_orbits():
    if "q8" not in _CACHE:
        cfg = carpet.solve_params(8)
        _CACHE["q8"] = (
            carpet.enumerate_circles(cfg, 1e-2),
            carpet.enumerate_circles(cfg, 1e-3),
        )
    return _CACHE["q8"]


def test_criterion_01_descartes_identities():
    t0 = time.time()
    worst_in, worst_cir, worst_orth = checks.descartes_residuals(np.random.default_rng(1), 1000)
    ok = worst_in < 1e-9 and worst_cir < 1e-9 and worst_orth < 1e-9
    _report(
        1, "Descartes identities", ok, time.time() - t0, 1.0,
        f"max rel: inscribed {worst_in:.2e}, circumscribed {worst_cir:.2e}, orth {worst_orth:.2e}",
    )


def test_criterion_02_matrix_law():
    t0 = time.time()
    ok = not checks.matrix_power_law_failures(20)
    _report(2, "matrix power law", ok, time.time() - t0, 1.0, "exact integer equality, n <= 20")


@pytest.fixture(scope="module")
def energy_triples():
    rng = np.random.default_rng(3)
    triples = [
        geom.triple_from_curvatures(1.0, 1.0, 1.0),
        geom.triple_from_curvatures(1.0, 2.0, 3.0),
        random_triple(rng, 0.4, 5.0),
    ]
    builds = {}
    for i, t in enumerate(triples):
        cx = gasket.build_complex(t, 6)
        builds[i] = (t, cx)
    return builds


def test_criterion_03_energy_identity(energy_triples):
    t0 = time.time()
    worst = 0.0
    for t, cx in energy_triples.values():
        for m in range(7):
            tf = forms.assemble_trace_form(t, m, cx)
            worst = max(worst, checks.energy_identity_deviation(t, tf))
    _report(3, "energy identity", worst < 1e-10, time.time() - t0, 10.0,
            f"max rel deviation {worst:.2e} over 3 triples, m <= 6")


def test_criterion_04_harmonicity(energy_triples):
    t0 = time.time()
    worst = 0.0
    for t, cx in energy_triples.values():
        for m in range(1, 7):
            tf = forms.assemble_trace_form(t, m, cx)
            worst = max(worst, checks.coordinate_harmonicity_residual(tf))
    _report(4, "coordinate harmonicity", worst < 1e-10, time.time() - t0, 10.0,
            f"max interior residual {worst:.2e} (relative to local conductance)")


def test_criterion_05_trace_compatibility(unit):
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for m in range(5):
        tf_m = forms.assemble_trace_form(unit, m)
        tf_m1 = forms.assemble_trace_form(unit, m + 1)
        nm = tf_m.n_vertices
        for _ in range(20):
            u = rng.standard_normal(nm)
            e_m = tf_m.energy(u)
            e_min = forms.constrained_minimum_energy(tf_m1, np.arange(nm), u)
            worst = max(worst, abs(e_m - e_min) / abs(e_m))
    _report(5, "trace compatibility", worst < 1e-9, time.time() - t0, 30.0,
            f"max rel mismatch {worst:.2e}, 20 random u, m <= 4")


def test_criterion_06_circle_counting_exponent(unit):
    t0 = time.time()
    slopes = []
    for t in (unit, geom.triple_from_curvatures(1.0, 2.0, 3.0)):
        c0 = gasket.inscribed_curvature(t.quad)
        grid = gasket.geometric_grid(c0, 1e4 * c0, 33)
        fit = gasket.fit_dimension(gasket.count_profile(t, grid))
        slopes.append(fit.slope)
    ok = 1.28 <= slopes[0] <= 1.34 and abs(slopes[0] - slopes[1]) <= 0.02
    _report(6, "circle-counting exponent", ok, time.time() - t0, 120.0,
            f"slopes {slopes[0]:.4f}, {slopes[1]:.4f} vs Boyd bounds (1.300197, 1.314534)")


def test_criterion_07_weyl_exponent(unit):
    t0 = time.time()
    s_tr = _m7_spectrum(unit)
    s_arc = _arcfem_spectrum(unit)
    fit_tr = spectra.weyl_fit(s_tr)
    fit_arc = spectra.weyl_fit(s_arc)
    ok = 0.61 <= fit_tr.slope <= 0.70 and abs(fit_tr.slope - fit_arc.slope) <= 0.03
    ok &= s_tr.meta["inertia_verified"]
    _report(7, "Weyl exponent", ok, time.time() - t0, 600.0,
            f"trace m=7 slope {fit_tr.slope:.4f} (d_AG/2 in (0.6501, 0.6573)), "
            f"arc-FEM slope {fit_arc.slope:.4f}, diff {abs(fit_tr.slope - fit_arc.slope):.4f}")


def test_criterion_08_interlacing(unit):
    t0 = time.time()
    rng = np.random.default_rng(8)
    evp = spectra.evp_from_trace(unit, 5, dirichlet="none")
    rep1 = spectra.interlacing_check(evp, (0, 1, 2), rtol=1e-9)
    v_rand = tuple(sorted(int(i) for i in rng.choice(evp.n_total, 9, replace=False)))
    rep2 = spectra.interlacing_check(evp, v_rand, rtol=1e-9)
    _report(8, "Dirichlet interlacing", rep1.ok and rep2.ok, time.time() - t0, 60.0,
            f"V0 chain n={rep1.n_checked}, random-V chain n={rep2.n_checked}")


def test_criterion_09_spectral_gap(unit):
    t0 = time.time()
    ratios = []
    for m in (5, 6):
        s = spectra.solve(spectra.evp_from_trace(unit, m))
        ratios.append(40.0 * s.eigenvalues[0] / 3.0)
    ratios.append(40.0 * _m7_spectrum(unit).eigenvalues[0] / 3.0)
    ok = all(r >= 0.8 for r in ratios) and ratios[0] <= ratios[1] <= ratios[2]
    _report(9, "spectral gap", ok, time.time() - t0, 600.0,
            f"40 lam1/kappa^2 at m=5,6,7: {ratios[0]:.2f}, {ratios[1]:.2f}, {ratios[2]:.2f}")


def test_criterion_10_scaling_homogeneity(unit):
    t0 = time.time()
    worst = 0.0
    for scheme in ("trace", "arcfem"):
        for s in (2.0, 10.0):
            rep = spectra.scaling_check(unit, s, m=4, scheme=scheme, n_eigs=50)
            worst = max(worst, rep.max_rel_error)
    _report(10, "scaling homogeneity", worst < 1e-9, time.time() - t0, 60.0,
            f"max rel deviation from s^-2 law: {worst:.2e}")


def test_criterion_11_sector_extension():
    t0 = time.time()
    violations = checks.sector_extension_sweep(np.random.default_rng(11), 100)
    _report(11, "sector extension inequalities", violations == 0, time.time() - t0, 60.0,
            f"{violations} violations of 100")


def test_criterion_12_carpet_construction():
    t0 = time.time()
    rng = np.random.default_rng(12)
    # 40 circles of radius 0.05 around random points, none through the origin
    x, y = rng.uniform(-0.85, 0.85, (40, 2)).T
    pts = x + 1j * y
    radii = np.full(40, 0.05)
    details = []
    ok = True

    def off_by(image, c, r):
        return max(np.max(np.abs(image[0] - c)), np.max(np.abs(image[1] - r)))

    for q in (7, 8, 9, 12):
        cfg = carpet.solve_params(q)
        ok &= max(abs(x) for x in cfg.residuals) < 1e-12
        gens = carpet.generators(cfg)
        for g in gens:
            ok &= off_by(g(*g(pts, radii)), pts, radii) < 1e-10
        w = (pts[:10], radii[:10])
        for _ in range(q):
            w = gens[2](*gens[0](*w))
        ok &= off_by(w, pts[:10], radii[:10]) < 1e-10
        if q == 8:
            o_coarse, o_fine = _q8_orbits()
        else:
            o_coarse = carpet.enumerate_circles(cfg, 1e-2)
            o_fine = carpet.enumerate_circles(cfg, 1e-3)
        eps_c, _ = carpet.separation_stats(o_coarse)
        eps_f, _ = carpet.separation_stats(o_fine)
        ok &= eps_f > 0.0  # pairwise disjoint complement disks
        ok &= abs(eps_c - eps_f) <= 0.2 * eps_c  # stable across the decades
        details.append(f"q={q}: eps {eps_f:.4f}")
    _report(12, "carpet construction", ok, time.time() - t0, 480.0, "; ".join(details))


def test_criterion_13_carpet_dimension():
    t0 = time.time()
    details = []
    ok = True
    dims = {}
    for q in (8, 9, 12):
        cfg = carpet.solve_params(q)
        d_coarse = carpet.fit_carpet_dimension(
            carpet.enumerate_circles(cfg, 3e-3), expect_in=None).slope
        d_fine = carpet.fit_carpet_dimension(
            carpet.enumerate_circles(cfg, 3e-4), expect_in=None).slope
        ok &= 1.0 < d_fine < 2.0 and 1.0 < d_coarse < 2.0
        ok &= abs(d_fine - d_coarse) <= 0.05
        dims[q] = d_fine
        details.append(f"d_{q} = {d_fine:.4f} (drift {abs(d_fine - d_coarse):.4f})")
    # monotone comparison recorded, not asserted
    details.append(f"d_8 > d_12: {dims[8] > dims[12]}")
    _report(13, "carpet dimension", ok, time.time() - t0, 300.0, "; ".join(details))


def test_criterion_14_carpet_harmonicity():
    t0 = time.time()
    o_coarse, o_fine = _q8_orbits()
    bumps = [
        carpet.RadialBump((0.23, 0.11), 0.5),
        carpet.RadialBump((-0.31, 0.17), 0.4),
        carpet.RadialBump((0.07, -0.33), 0.45),
        carpet.RadialBump((0.41, -0.13), 0.3),
        carpet.RadialBump((-0.12, 0.27), 0.37),
    ]
    ok = True
    worst_ratio = 0.0
    for b in bumps:
        for coord in (1, 2):
            r_c = carpet.harmonicity_residual(o_coarse, b, coordinate=coord)
            r_f = carpet.harmonicity_residual(o_fine, b, coordinate=coord)
            ok &= abs(r_f) < abs(r_c)
            worst_ratio = max(worst_ratio, abs(r_f) / abs(r_c))
    _report(14, "carpet harmonicity decay", ok, time.time() - t0, 300.0,
            f"all 10 residuals decayed; worst fine/coarse ratio {worst_ratio:.2f}")


def test_criterion_15_subdivision_census(unit):
    t0 = time.time()
    rep = spectra.subdivision_census(unit, lam=200.0, truncation=6, depth=6, slack=2)
    ok = rep.lower_bound_ok
    rep2 = spectra.subdivision_census(unit, lam=3000.0, truncation=2, depth=5, slack=2)
    ok &= rep2.lower_bound_ok and rep2.child_sum == rep2.parent_vlambda_count
    counts_ok = all(len(spectra.census_vertices(unit, n)) == 9 * n - 3 for n in (1, 2, 3))
    ok &= counts_ok
    _report(15, "subdivision census", ok, time.time() - t0, 600.0,
            f"lower bounds: {rep.child_sum} <= {rep.parent_count} and "
            f"{rep2.child_sum} <= {rep2.parent_count} (exact split {rep2.parent_vlambda_count}); "
            f"#V formula holds for n <= 3")
