import cmath
import math

import numpy as np
import pytest

from conftest import random_triple
from gasketlab import geom
from gasketlab.errors import (
    DegenerateTriple,
    HalfPlanePresent,
    NotPositivelyOriented,
    NotTangent,
    TwoHalfPlanes,
    UnrepresentableImage,
)

SQRT3 = math.sqrt(3.0)


def test_tangency_point_symmetric_disks():
    p = geom.tangency_point(geom.disk((-1, 0), 1), geom.disk((1, 0), 1))
    assert p == (0.0, 0.0)


def test_tangency_point_collinear_weighted():
    p = geom.tangency_point(geom.disk((0, 0), 1), geom.disk((3, 0), 2))
    assert abs(p[0] - 1.0) < 1e-15 and p[1] == 0.0


def test_tangency_point_disk_halfplane():
    d = geom.disk((0, 1), 1)
    hp = geom.halfplane((0, 1), 0.0)  # lower half-plane y < 0
    p = geom.tangency_point(d, hp)
    assert abs(p[0]) < 1e-15 and abs(p[1]) < 1e-15
    # oracle: the point is on the line and on the circle boundary
    assert abs(p[0] * 0 + p[1] * 1 - 0.0) < 1e-12
    assert abs(math.hypot(p[0] - 0, p[1] - 1) - 1.0) < 1e-12


def test_tangency_point_errors():
    with pytest.raises(NotTangent):
        geom.tangency_point(geom.disk((0, 0), 1), geom.disk((2.1, 0), 1))
    with pytest.raises(TwoHalfPlanes):
        geom.tangency_point(geom.halfplane((0, 1), 0), geom.halfplane((1, 0), 0))


def test_validate_triple_unit():
    t = geom.validate_triple(
        geom.disk((0, 0), 1), geom.disk((2, 0), 1), geom.disk((1, SQRT3), 1)
    )
    assert t.quad[:3] == (1.0, 1.0, 1.0)
    assert abs(t.quad[3] - SQRT3) < 1e-15


def test_validate_triple_clockwise_rejected():
    with pytest.raises(NotPositivelyOriented):
        geom.validate_triple(
            geom.disk((0, 0), 1), geom.disk((1, SQRT3), 1), geom.disk((2, 0), 1)
        )


def test_validate_triple_gap_rejected():
    with pytest.raises(NotTangent):
        geom.validate_triple(
            geom.disk((0, 0), 1), geom.disk((2.1, 0), 1), geom.disk((1, SQRT3), 1)
        )


def test_circumscribed_unit(unit_triple):
    d = geom.circumscribed_disk(unit_triple)
    assert abs(d.curvature - SQRT3) < 1e-9
    for q in unit_triple.q:
        assert abs(math.hypot(q[0] - d.center[0], q[1] - d.center[1]) - d.radius) < 1e-9


def test_circumcircle_synthetic():
    center, r = geom._circumcircle((0, 0), (1, 0), (0.5, 0.5))
    assert abs(center[0] - 0.5) < 1e-14 and abs(center[1]) < 1e-14
    assert abs(r - 0.5) < 1e-14


def test_circumscribed_orthogonality_random(rng):
    for _ in range(100):
        t = random_triple(rng)
        d = geom.circumscribed_disk(t)
        assert abs(d.curvature - t.kappa) / t.kappa < 1e-9
        for member in t.disks:
            lhs = (d.center[0] - member.center[0]) ** 2 + (d.center[1] - member.center[1]) ** 2
            rhs = d.radius**2 + member.radius**2
            assert abs(lhs - rhs) / rhs < 1e-9


def test_inscribed_unit(unit_triple):
    d = geom.inscribed_disk(unit_triple)
    assert abs(d.curvature - (3 + 2 * SQRT3)) < 1e-12 * d.curvature
    assert abs(d.center[0] - 1.0) < 1e-12
    assert abs(d.center[1] - SQRT3 / 3) < 1e-12
    # oracle: external tangency residuals
    for member in unit_triple.disks:
        gap = math.hypot(d.center[0] - member.center[0], d.center[1] - member.center[1])
        assert abs(gap - (d.radius + member.radius)) < 1e-12


def test_inscribed_halfplane_formula():
    for a, b in [(1.0, 1.0), (2.0, 0.7), (5.0, 1.3)]:
        t = geom.triple_with_halfplane(a, b)
        d = geom.inscribed_disk(t)
        expected = a + b + 2 * math.sqrt(a * b)
        assert abs(d.curvature - expected) < 1e-12 * expected
        for member in t.disks:
            if member.is_disk:
                gap = math.hypot(
                    d.center[0] - member.center[0], d.center[1] - member.center[1]
                )
                assert abs(gap - (d.radius + member.radius)) < 1e-9 * d.radius
            else:
                signed = (
                    d.center[0] * member.normal[0]
                    + d.center[1] * member.normal[1]
                    - member.offset
                )
                assert abs(signed - d.radius) < 1e-9 * d.radius


def test_inscribed_commutes_with_similarity(rng):
    for _ in range(20):
        t = random_triple(rng)
        s = float(rng.uniform(0.3, 4.0))
        r1 = geom.inscribed_disk(t).radius
        r2 = geom.inscribed_disk(geom.transform_triple(t, scale=s)).radius
        assert abs(r2 - s * r1) < 1e-12 * max(r2, s * r1)


def test_triangle_area_values(unit_triple):
    assert abs(geom.triangle_area(unit_triple) - SQRT3) < 1e-14
    t = geom.validate_triple(
        geom.disk((0, 0), 1), geom.disk((4, 0), 3), geom.disk((0, 3), 2)
    )
    assert abs(geom.triangle_area(t) - 6.0) < 1e-14
    t2 = geom.transform_triple(t, scale=2.0)
    assert abs(geom.triangle_area(t2) - 24.0) < 1e-12
    with pytest.raises(HalfPlanePresent):
        geom.triangle_area(geom.triple_with_halfplane(1.0, 1.0))


# ---------------------------------------------------------------------------
# Mobius maps and region images


def test_invert_identity():
    d = geom.disk((2.5, -1.0), 0.6)
    res = geom.invert(geom.MobiusMap.identity(), d)
    assert not res.complemented
    assert abs(res.region.center[0] - 2.5) < 1e-12
    assert abs(res.region.radius - 0.6) < 1e-12


def test_invert_unit_circle_inversion():
    m = geom.MobiusMap.inversion(0j, 1.0)
    res = geom.invert(m, geom.disk((3, 0), 1))
    assert not res.complemented
    assert abs(res.region.center[0] - 3 / 8) < 1e-12
    assert abs(res.region.center[1]) < 1e-12
    assert abs(res.region.radius - 1 / 8) < 1e-12
    # oracle: 20 mapped boundary points lie on the image boundary
    for k in range(20):
        z = complex(3, 0) + cmath.exp(2j * math.pi * k / 20)
        w = m.apply(z)
        r = abs(w - complex(*res.region.center))
        assert abs(r - res.region.radius) < 1e-9 * res.region.radius


def test_invert_reflection_mirror():
    refl = geom.MobiusMap.line_reflection(0j, 0.0)
    res = geom.invert(refl, geom.disk((0, 1), 1))
    assert abs(res.region.center[1] + 1.0) < 1e-12
    assert abs(res.region.radius - 1.0) < 1e-12


def test_invert_complement_flag():
    # the image of a disk containing the inversion center is unbounded
    m = geom.MobiusMap.inversion(0j, 1.0)
    res = geom.invert(m, geom.disk((0, 0), 2))
    assert res.complemented
    assert abs(res.region.radius - 0.5) < 1e-12


def test_invert_halfplane_to_disk():
    # inversion in the unit circle sends the half-plane x > 1 to a disk
    m = geom.MobiusMap.inversion(0j, 1.0)
    res = geom.invert(m, geom.halfplane((-1.0, 0.0), -1.0))  # {x > 1}
    assert res.region.is_disk
    assert not res.complemented
    assert abs(res.region.center[0] - 0.5) < 1e-9
    assert abs(res.region.radius - 0.5) < 1e-9


def test_invert_roundtrip(rng):
    for _ in range(20):
        m = geom.MobiusMap(
            complex(*rng.normal(size=2)),
            complex(*rng.normal(size=2)),
            complex(*rng.normal(size=2)),
            complex(*rng.normal(size=2)),
            conj=bool(rng.integers(2)),
        )
        d = geom.disk((float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))),
                      float(rng.uniform(0.1, 1.0)))
        res = geom.invert(m, d)
        if res.complemented or not res.region.is_disk:
            continue
        back = geom.invert(m.inverse(), res.region)
        assert abs(back.region.center[0] - d.center[0]) < 1e-9
        assert abs(back.region.center[1] - d.center[1]) < 1e-9
        assert abs(back.region.radius - d.radius) < 1e-9 * d.radius


def test_mobius_compose_and_inverse(rng):
    for _ in range(30):
        m1 = geom.MobiusMap(
            complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
            complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
            conj=bool(rng.integers(2)),
        )
        m2 = geom.MobiusMap(
            complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
            complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
            conj=bool(rng.integers(2)),
        )
        z = complex(*rng.normal(size=2))
        w1 = (m1 @ m2).apply(z)
        w2 = m1.apply(m2.apply(z))
        assert abs(w1 - w2) < 1e-9 * max(1.0, abs(w2))
        zi = m1.inverse().apply(m1.apply(z))
        assert abs(zi - z) < 1e-9 * max(1.0, abs(z))


def test_mobius_associativity(rng):
    maps = []
    for _ in range(3):
        maps.append(
            geom.MobiusMap(
                complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
                complex(*rng.normal(size=2)), complex(*rng.normal(size=2)),
                conj=bool(rng.integers(2)),
            )
        )
    m1, m2, m3 = maps
    for _ in range(10):
        z = complex(*rng.normal(size=2))
        w1 = ((m1 @ m2) @ m3).apply(z)
        w2 = (m1 @ (m2 @ m3)).apply(z)
        assert abs(w1 - w2) < 1e-9 * max(1.0, abs(w1))


def test_disk_json_roundtrip():
    d = geom.disk((1.25, -0.5), 0.75)
    assert geom.disk_from_json(geom.disk_to_json(d)) == d
    hp = geom.halfplane((0.0, 1.0), 0.25)
    assert geom.disk_from_json(geom.disk_to_json(hp)) == hp


def test_circle_maps_arrays_match_scalars(rng):
    # array calls give the bits of scalar calls, signed zeros included
    centers = np.concatenate([
        [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.3 - 0.0j],
        rng.uniform(-0.9, 0.9, 200) + 1j * rng.uniform(-0.9, 0.9, 200),
    ])
    radii = rng.uniform(1e-4, 0.05, len(centers))
    maps = [
        (geom.reflect_circle_in_line, 0j, 0.0),
        (geom.reflect_circle_in_line, 0.2 + 0.1j, math.pi / 8),
        (geom.invert_circle_in_circle, 1.3 + 0.6j, 1.2),
        (geom.invert_circle_in_circle, 0j, 0.57),
    ]
    for fn, point, param in maps:
        ac, ar = fn(centers, radii, point, param)
        for k in range(len(centers)):
            c, r = fn(complex(centers[k]), float(radii[k]), point, param)
            assert type(c) is complex
            assert (c.real, c.imag, r) == (ac[k].real, ac[k].imag, ar[k])
            assert math.copysign(1.0, c.real) == math.copysign(1.0, ac[k].real)
            assert math.copysign(1.0, c.imag) == math.copysign(1.0, ac[k].imag)


def test_invert_circle_through_center_unrepresentable():
    with pytest.raises(UnrepresentableImage):
        geom.invert_circle_in_circle(0.5 + 0j, 0.5, 0j, 0.7)
    centers = np.array([0.3 + 0.1j, 0.5j, -0.2 + 0.0j])
    radii = np.array([0.1, 0.5, 0.05])
    with pytest.raises(UnrepresentableImage):
        geom.invert_circle_in_circle(centers, radii, 0j, 0.7)
    # without the offending circle the same call succeeds
    geom.invert_circle_in_circle(centers[[0, 2]], radii[[0, 2]], 0j, 0.7)


def test_circumscribed_disk_collinear_tangency_points(unit_triple):
    # a hand-built triple whose tangency points lie on one line has no
    # circle through them
    bad = geom.DiskTriple(disks=unit_triple.disks, q=((0.0, 0.0), (1.0, 0.0), (2.5, 0.0)),
                          quad=unit_triple.quad)
    with pytest.raises(DegenerateTriple, match="collinear"):
        geom.circumscribed_disk(bad)
