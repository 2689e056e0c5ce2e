"""Verification measurements shared by the ``checks`` CLI suites and the
acceptance tests.

Each function measures and returns numbers; the caller picks the random
generator, the sample size and the threshold it holds them to.
"""

from __future__ import annotations

import numpy as np

from . import forms, geom
from .gasket import LETTERS, matrix_of


def descartes_residuals(rng, n: int) -> tuple[float, float, float]:
    """Worst relative residuals over n random curvature triples in [0.1, 10).

    Returns those of the inscribed curvature a+b+c+2k, of the circumscribed
    curvature k, and of the orthogonality of the circumscribed circle to the
    three members.
    """
    worst_in = worst_cir = worst_orth = 0.0
    for _ in range(n):
        a, b, c = rng.uniform(0.1, 10.0, 3)
        t = geom.triple_from_curvatures(a, b, c)
        kappa = t.kappa
        din = geom.inscribed_disk(t)
        dcir = geom.circumscribed_disk(t)
        worst_in = max(worst_in, abs(din.curvature - (a + b + c + 2 * kappa)) / din.curvature)
        worst_cir = max(worst_cir, abs(dcir.curvature - kappa) / kappa)
        for d in t.disks:
            lhs = (dcir.center[0] - d.center[0]) ** 2 + (dcir.center[1] - d.center[1]) ** 2
            rhs = dcir.radius**2 + d.radius**2
            worst_orth = max(worst_orth, abs(lhs - rhs) / rhs)
    return worst_in, worst_cir, worst_orth


def energy_identity_deviation(t: geom.DiskTriple, tf: forms.TraceForm) -> float:
    """|E(x) + E(y) - 2 vol2| / (2 vol2) for the coordinate functions x, y."""
    pts = np.asarray(tf.points)
    target = 2.0 * geom.triangle_area(t)
    e = tf.energy(pts[:, 0]) + tf.energy(pts[:, 1])
    return abs(e - target) / target


def coordinate_harmonicity_residual(tf: forms.TraceForm) -> float:
    """Largest |L x| or |L y| on the interior vertices (ids from 3 on),
    relative to the conductance sum at each vertex.  Needs depth >= 1."""
    pts = np.asarray(tf.points)
    scale = tf.vertex_conductance_scale()[3:]
    return max(
        float(np.max(np.abs(tf.laplacian_residual(pts[:, k]))[3:] / scale)) for k in (0, 1)
    )


def _letter_power(j: int, n: int):
    """Closed form of the curvature matrix of the word (letter j+1)^n."""
    rows = [[int(r == c) for c in range(4)] for r in range(4)]
    for r in range(3):
        if r != j:
            rows[r][j] = n * n
            rows[r][3] = n
    rows[3][j] = 2 * n
    return tuple(tuple(row) for row in rows)


def matrix_power_law_failures(n_max: int) -> list[tuple[str, int]]:
    """(letter, n) pairs, n <= n_max, whose word letter^n misses the closed form."""
    return [
        (letter, n)
        for j, letter in enumerate(LETTERS)
        for n in range(n_max + 1)
        if matrix_of(letter * n) != _letter_power(j, n)
    ]


def sector_extension_sweep(rng, n: int) -> tuple[int, float]:
    """Sector extension checks on n random trigonometric arc functions.

    Returns the number of functions violating an inequality and the largest
    final relative change of the sector quadrature.
    """
    violations = 0
    max_change = 0.0
    for _ in range(n):
        r = float(rng.uniform(0.2, 3.0))
        th0 = float(rng.uniform(-np.pi, np.pi))
        span = float(rng.uniform(0.3, 2 * np.pi))
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
        max_change = max(max_change, rep.quad_rel_change)
        if not rep.all_ok:
            violations += 1
    return violations, max_change
