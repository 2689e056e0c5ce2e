"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the inputs, then exit), ``time`` (an
untraced pass), ``trace`` (a pass with layer spans) or ``count`` (a pass with
hot-loop counters).  The process prints ``ready`` once gasketlab, numpy and
scipy are imported and the inputs are built, and after the pass one JSON line
with the pass time, the peak RSS, the operations attempted and failed, and
the spans or counts.  run.py starts it and reads both lines.

Every operation of a pass is a public gasketlab call followed by a check of
its output against perfbench/reference.json, which holds values that do not
depend on the seed.  The seed moves only the ARPACK start vector, and the
test bump and the circles sampled for its quadrature check in the
``carpet_orbit`` part.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from gasketlab import carpet, forms, gasket, geom, spectra

import tracing

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())


def _close(x, ref, rtol):
    return abs(x - ref) <= rtol * abs(ref)


def make_inputs(seed: int) -> SimpleNamespace:
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(0.3, 0.5))
    offset = float(rng.uniform(0.0, 0.95 - radius))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    triple = geom.triple_from_curvatures(1.0, 1.0, 1.0)
    c0 = gasket.inscribed_curvature(triple.quad)
    return SimpleNamespace(
        seed=seed,
        rng=rng,
        triple=triple,
        grid=gasket.geometric_grid(c0, 3e4 * c0, 33),
        bump=carpet.RadialBump((offset * math.cos(angle), offset * math.sin(angle)), radius),
    )


# Each workload is a generator: it performs one public call, then yields
# (operation, output passed its check, detail) and goes on to the next.


def weyl_sliced(inp, ref):
    evp = spectra.evp_from_trace(inp.triple, 7)
    yield "evp_from_trace", evp.n_free == ref["n_free"], f"n_free {evp.n_free}"
    s = spectra.solve(evp, how_many=300, seed=inp.seed)
    lam = s.eigenvalues
    yield "solve", (
        len(lam) == 300
        and s.meta["method"] == "lanczos-shift-invert"
        and s.meta["inertia_verified"] is True
        and _close(lam[0], ref["lambda_1"], 1e-9)
        and _close(lam[-1], ref["lambda_last"], 1e-9)
    ), f"{len(lam)} eigenvalues by {s.meta['method']}, lambda_1 {lam[0]!r}, " \
       f"lambda_last {lam[-1]!r}, inertia_verified {s.meta['inertia_verified']}"
    fit = spectra.weyl_fit(s)
    yield "weyl_fit", (
        _close(fit.slope, ref["weyl_slope"], 1e-9) and 0.61 <= fit.slope <= 0.70
    ), f"slope {fit.slope!r}"


def weyl_dense(inp, ref):
    evp = spectra.evp_from_arc_fem(inp.triple, 5, 3)
    yield "evp_from_arc_fem", evp.n_free == ref["n_free"], f"n_free {evp.n_free}"
    s = spectra.solve(evp, how_many=1000, seed=inp.seed)
    lam = s.eigenvalues
    yield "solve", (
        len(lam) == 1000
        and s.meta["method"] == "dense"
        and _close(lam[0], ref["lambda_1"], 1e-9)
        and _close(lam[-1], ref["lambda_last"], 1e-9)
    ), f"{len(lam)} eigenvalues by {s.meta['method']}, lambda_1 {lam[0]!r}, " \
       f"lambda_last {lam[-1]!r}"
    fit = spectra.weyl_fit(s)
    yield "weyl_fit", _close(fit.slope, ref["weyl_slope"], 1e-9), f"slope {fit.slope!r}"
    ratios = []
    for m, ref_ratio in zip((5, 6), ref["gap_ratios"]):
        evp_m = spectra.evp_from_trace(inp.triple, m)
        s_m = spectra.solve(evp_m, seed=inp.seed)
        ratio = 40.0 * s_m.eigenvalues[0] / inp.triple.kappa**2
        ratios.append(ratio)
        yield f"solve trace m={m}", (
            len(s_m) == evp_m.n_free and _close(ratio, ref_ratio, 1e-9)
            and ratios == sorted(ratios)
        ), f"{len(s_m)} of {evp_m.n_free} eigenvalues, gap ratio {ratio!r}"


def gasket_assembly(inp, ref):
    t = inp.triple
    cx = gasket.build_complex(t, 9)
    yield "build_complex", len(cx.points) == 3 + 3 * (3**9 - 1) // 2, f"{len(cx.points)} vertices"
    tf = forms.assemble_trace_form(t, 9, cx)
    yield "assemble_trace_form", len(tf.edges) == ref["trace_edges"], f"{len(tf.edges)} edges"
    mass = forms.assemble_mass_trace(t, 9, cx, scheme="mu")
    yield "assemble_mass_trace", (
        len(mass.values) == len(cx.points) and bool(np.all(mass.values > 0.0))
        and _close(mass.total, ref["mu_total"], 1e-12)
    ), f"total {mass.total!r}"
    K = tf.stiffness()
    row_sum = float(np.abs(K @ np.ones(K.shape[0])).max())
    yield "stiffness", (
        K.nnz == ref["trace_nnz"] and row_sum <= 1e-12 * float(K.diagonal().max())
    ), f"nnz {K.nnz}, max |row sum| {row_sum:.3e}"
    pts = np.asarray(tf.points)
    target = 2.0 * geom.triangle_area(t)
    dev = abs(tf.energy(pts[:, 0]) + tf.energy(pts[:, 1]) - target) / target
    yield "energy", dev < 1e-10, f"energy identity rel deviation {dev:.3e}"
    net = forms.assemble_arc_fem(t, 8, 4, cx)
    yield "assemble_arc_fem", (
        net.n_vertices == ref["arc_vertices"] and len(net.edges) == ref["arc_edges"]
        and _close(net.total_mass, ref["arc_mass"], 1e-12)
    ), f"{net.n_vertices} vertices, {len(net.edges)} edges, mass {net.total_mass!r}"
    counts = [n for _, n in gasket.count_profile(t, inp.grid)]
    yield "count_profile", counts == ref["counts"], f"final count {counts[-1]}"


def carpet_orbit(inp, ref):
    cfg = carpet.solve_params(8)
    o = carpet.enumerate_circles(cfg, 1e-3)
    yield "enumerate_circles", (
        len(o) == ref["circles"] and _close(float(o.radii.sum()), ref["radius_sum"], 1e-12)
    ), f"{len(o)} circles, radius sum {float(o.radii.sum())!r}"
    eps, pairs = carpet.separation_stats(o)
    yield "separation_stats", (
        pairs == ref["pairs"] and _close(eps, ref["separation_eps"], 1e-12)
    ), f"eps {eps!r} over {pairs} pairs"
    fit = carpet.fit_carpet_dimension(o)
    yield "fit_carpet_dimension", _close(fit.slope, ref["dimension"], 1e-9), f"slope {fit.slope!r}"
    bump = inp.bump
    residuals = [carpet.harmonicity_residual(o, bump, coordinate=c) for c in (1, 2)]
    # 64 seeded circles that meet the bump support: the per-circle quadrature
    # against the independent Gauss-Green value, at the refinements and
    # tolerance of tests/test_carpet.py (the default 256 points are only
    # good to about 1e-7 relative on large circles that cross the support edge)
    near = np.flatnonzero(
        np.abs(o.centers - complex(*bump.center)) < bump.radius + o.radii)
    idx = np.sort(inp.rng.choice(near, size=64, replace=False))
    sample = carpet.CircleOrbit(cfg, o.min_radius, o.centers[idx], o.radii[idx],
                                o.generations[idx])
    lhs = carpet.harmonicity_contributions(sample, bump, refine=2048, coordinate=1)
    rhs = np.array([carpet.circle_pairing_gauss_green(c, r, bump, refine=8192)
                    for c, r in zip(sample.centers, sample.radii)])
    gap = np.abs(lhs - rhs)
    yield "harmonicity_residual", (
        all(math.isfinite(r) for r in residuals)
        and bool(np.all(gap <= 1e-12 + 1e-9 * np.abs(rhs)))
    ), f"residuals {residuals}, worst sample gap {float(gap.max()):.3e}"


# A workload runs its parts in order in every pass; each part is a generator
# with a fixed number of operations and its own entry in reference.json.
WORKLOADS = {
    "spectra": ((weyl_sliced, 3), (weyl_dense, 5)),
    "gasket-carpet": ((gasket_assembly, 7), (carpet_orbit, 4)),
}


def run_pass(name, inp):
    """Operations attempted and failed in one pass.

    An exception fails the operation that raised and the rest of its part;
    the next part still runs.
    """
    attempted = failed = 0
    for part, n_ops in WORKLOADS[name]:
        done = 0
        try:
            for op, ok, detail in part(inp, REFERENCE[part.__name__]):
                done += 1
                if not ok:
                    failed += 1
                    print(f"check failed: {part.__name__} {op}: {detail}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
        if done > n_ops:
            raise RuntimeError(f"{part.__name__} ran {done} operations, declared {n_ops}")
        attempted += n_ops
        failed += n_ops - done
    return attempted, failed


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    inp = make_inputs(seed)
    print("ready", flush=True)
    if mode == "setup":
        return
    tr = tracing.Tracer(f"{name}/{seed}/{mode}")
    if mode == "trace":
        tracing.instrument_layers(tr)
    elif mode == "count":
        tracing.instrument_hot_loops(tr)
    elif mode != "time":
        raise ValueError(f"unknown mode {mode}")
    t0 = time.perf_counter()
    try:
        attempted, failed = run_pass(name, inp)
    finally:
        tr.restore()
    elapsed = time.perf_counter() - t0
    print(json.dumps({
        "time_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "spans": tr.spans,
        "counts": tr.counts,
        "seconds": tr.seconds,
        "machine": machine_info(),
    }), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
