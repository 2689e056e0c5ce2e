import cmath
import math

import numpy as np
import pytest

from conftest import random_triple
from gasketlab import gasket, geom
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
# closed-form circle maps


def _scalar_and_array(fn, center, radius, *mirror):
    """Images (center, radius) of one circle from a scalar and an array call."""
    sc, sr = fn(complex(center), float(radius), *mirror)
    ac, ar = fn(np.full(2, complex(center)), np.full(2, float(radius)), *mirror)
    return [(sc, sr)] + list(zip(ac.tolist(), ar.tolist()))


def test_invert_unit_circle_inversion():
    for c, r in _scalar_and_array(geom.invert_circle_in_circle, 3.0, 1.0, 0j, 1.0):
        assert abs(c - 3 / 8) < 1e-15 and abs(r - 1 / 8) < 1e-15
        # oracle: 20 inverted boundary points lie on the image circle
        for k in range(20):
            z = 3.0 + cmath.exp(2j * math.pi * k / 20)
            assert abs(abs(1.0 / z.conjugate() - c) - r) < 1e-12 * r


def test_invert_reflection_mirror():
    images = _scalar_and_array(geom.reflect_circle_in_line, 1j, 1.0, 0j, 0.0)
    assert all(c == -1j and r == 1.0 for c, r in images)


def test_invert_circle_enclosing_center():
    # the disk |z| < 2 contains the inversion center: its boundary maps to |z| = 1/2
    for c, r in _scalar_and_array(geom.invert_circle_in_circle, 0j, 2.0, 0j, 1.0):
        assert abs(c) < 1e-15 and abs(r - 0.5) < 1e-15


def test_invert_roundtrip(rng):
    # every reflection and inversion is an involution, whatever the mirror
    for _ in range(20):
        point = complex(*rng.normal(size=2))
        inv_center, inv_radius = complex(*rng.normal(size=2)), float(rng.uniform(0.2, 2.0))
        c = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        r = rng.uniform(0.01, 1.0, 50)
        keep = np.abs(c - inv_center) > r + 0.1
        c, r = c[keep], r[keep]
        for fn, mirror in (
            (geom.reflect_circle_in_line, (point, float(rng.uniform(0, math.pi)))),
            (geom.invert_circle_in_circle, (inv_center, inv_radius)),
        ):
            bc, br = fn(*fn(c, r, *mirror), *mirror)
            assert np.max(np.abs(bc - c)) < 1e-9
            assert np.max(np.abs(br - r) / r) < 1e-9


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_triple_with_halfplane_rejects_bad_curvatures(a, b):
    with pytest.raises(ValueError, match="curvatures must be finite and positive"):
        geom.triple_with_halfplane(a, b)


@pytest.mark.parametrize("obj", [
    {"type": "disk", "center": [0, 0], "radius": True},
    {"type": "disk", "center": [False, 0], "radius": 1},
    {"type": "halfplane", "normal": [0, 1], "offset": False},
])
def test_disk_from_json_rejects_booleans(obj):
    with pytest.raises(ValueError, match="needs two numbers"):
        geom.disk_from_json(obj)


def test_cells_json_reads_back_as_triple_members(unit_triple):
    # every inscribed disk that ``gasket cells`` writes is a ``--triple`` member
    cells = gasket.cells_to_json(unit_triple, 2)
    cx = gasket.build_complex(unit_triple, 3)
    assert len(cells) == 1 + 3 + 9
    for c, cell in enumerate(cells, start=3):  # circles 3, 4, ... in word order
        want = geom.disk(tuple(cx.centers[c].tolist()), cx.radii[c].item())
        assert geom.disk_from_json(cell["inscribed"]) == want
    hp = {"type": "halfplane", "normal": [0.0, 1.0], "offset": 0.25}
    assert geom.disk_from_json(hp) == geom.halfplane((0.0, 1.0), 0.25)


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
