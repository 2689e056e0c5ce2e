"""Command line front end: construction, spectra, checks, carpet orbits.

Heavy imports happen inside main(), and ``import gasketlab`` loads no
submodule, so --threads pins the BLAS pool before numpy is loaded.  All
numeric output uses 17 significant digits and fixed seeds, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gasketlab")
    p.add_argument("--threads", type=int, default=0, help="cap BLAS worker threads")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gasket", help="cell enumeration, counting, rendering")
    gs = g.add_subparsers(dest="subcommand", required=True)
    g_count = gs.add_parser("count")
    _triple_args(g_count)
    g_count.add_argument("--lambda-max", type=float, default=1e4)
    g_count.add_argument("--grid", type=int, default=33)
    g_dim = gs.add_parser("dim")
    _triple_args(g_dim)
    g_dim.add_argument("--lambda-max", type=float, default=1e4)
    g_dim.add_argument("--grid", type=int, default=33)
    g_render = gs.add_parser("render")
    _triple_args(g_render)
    g_render.add_argument("--depth", type=int, default=4)
    g_render.add_argument("--stroke-width", type=float, default=1.0)
    g_cells = gs.add_parser("cells")
    _triple_args(g_cells)
    g_cells.add_argument("--depth", type=int, default=3)

    s = sub.add_parser("spectrum", help="eigenvalues of a discretization")
    _spectrum_args(s)
    s.add_argument("--top", type=int, default=0, help="0 means the full spectrum")
    s.add_argument(
        "--export-matrix",
        default=None,
        metavar="PREFIX",
        help="also write PREFIX.stiffness.txt (row col value) and PREFIX.mass.txt",
    )

    w = sub.add_parser("weyl", help="counting-function exponent fit")
    _spectrum_args(w)
    w.add_argument("--top", type=int, default=1000)

    c = sub.add_parser("checks", help="verification suites (exit 2 on failure)")
    c.add_argument(
        "--suite",
        required=True,
        choices=["identities", "interlacing", "scaling", "census", "extension"],
    )

    k = sub.add_parser("carpet", help="reflection-group circle orbits")
    ks = k.add_subparsers(dest="subcommand", required=True)
    k_gen = ks.add_parser("gen")
    _carpet_args(k_gen)
    k_gen.add_argument("--out-svg", default=None)
    k_dim = ks.add_parser("dim")
    _carpet_args(k_dim)
    k_sep = ks.add_parser("separation")
    _carpet_args(k_sep)
    k_har = ks.add_parser("harmonicity")
    _carpet_args(k_har)
    k_har.add_argument("--cutoff-coarse", type=float, default=1e-2)
    return p


def _triple_args(p):
    p.add_argument(
        "--triple",
        default="unit",
        help='preset "unit", curvatures "a,b,c", or a JSON list of three disks',
    )


def _spectrum_args(p):
    _triple_args(p)
    p.add_argument("--scheme", choices=["trace", "arcfem"], default="trace")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--refine", type=int, default=4)
    p.add_argument("--dirichlet", choices=["v0", "none"], default="v0")
    p.add_argument("--mass-scheme", choices=["mu", "thirds", "arclen"], default="mu")


def _carpet_args(p):
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--min-radius", type=float, default=1e-3)


def _parse_triple(spec: str):
    from . import geom

    if spec == "unit":
        return geom.triple_from_curvatures(1.0, 1.0, 1.0)
    if spec.startswith("["):
        disks = [geom.disk_from_json(obj) for obj in json.loads(spec)]
        if len(disks) != 3:
            raise ValueError("triple JSON must list exactly three disks")
        return geom.validate_triple(*disks)
    parts = [float(x) for x in spec.split(",")]
    if len(parts) != 3:
        raise ValueError('curvature triple must look like "1,2,3"')
    return geom.triple_from_curvatures(*parts)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, indent=2) + "\n")


def _cmd_gasket(args) -> int:
    from . import gasket

    t = _parse_triple(args.triple)
    if args.subcommand in ("count", "dim"):
        c0 = gasket.inscribed_curvature(t.quad)
        rows = gasket.count_profile(t, gasket.geometric_grid(c0, args.lambda_max * c0, args.grid))
    if args.subcommand == "count":
        lines = ["lambda,count"] + [f"{lam:.17g},{n}" for lam, n in rows]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    if args.subcommand == "dim":
        fit = gasket.fit_dimension(rows)
        _emit_json(
            args,
            {
                "slope": fit.slope,
                "prefactor": fit.prefactor,
                "r_squared": fit.r_squared,
                "window": list(fit.window),
                "n_points": fit.n_points,
            },
        )
        return 0
    if args.subcommand == "render":
        _emit(args, gasket.render_svg(t, args.depth, stroke_width=args.stroke_width))
        return 0
    if args.subcommand == "cells":
        _emit_json(args, gasket.cells_to_json(t, args.depth))
        return 0
    raise AssertionError


def _build_evp(args, t):
    from . import spectra

    if args.scheme == "trace":
        return spectra.evp_from_trace(
            t, args.depth, dirichlet=args.dirichlet, mass_scheme=args.mass_scheme
        )
    return spectra.evp_from_arc_fem(t, args.depth, args.refine, dirichlet=args.dirichlet)


def _cmd_spectrum(args) -> int:
    from . import forms, spectra

    t = _parse_triple(args.triple)
    evp = _build_evp(args, t)
    if args.export_matrix:
        with open(args.export_matrix + ".stiffness.txt", "w", encoding="utf-8") as fh:
            fh.write(forms.stiffness_to_text(evp.stiffness))
        with open(args.export_matrix + ".mass.txt", "w", encoding="utf-8") as fh:
            fh.write(forms.mass_to_text(evp.mass))
    spec = spectra.solve(evp, how_many=args.top or None, seed=args.seed)
    _emit_json(args, spec.to_json())
    return 0


def _cmd_weyl(args) -> int:
    from . import spectra

    t = _parse_triple(args.triple)
    evp = _build_evp(args, t)
    spec = spectra.solve(evp, how_many=args.top or None, seed=args.seed)
    fit = spectra.weyl_fit(spec)
    _emit_json(
        args,
        {
            "scheme": args.scheme,
            "depth": args.depth,
            "slope": fit.slope,
            "prefactor": fit.prefactor,
            "window": list(fit.window),
            "residual": fit.residual,
            "n_points": fit.n_points,
            "normalization": "laplacian",
        },
    )
    return 0


def _cmd_carpet(args) -> int:
    from . import carpet
    from .svg import circles_svg

    cfg = carpet.solve_params(args.q)
    if args.subcommand in ("gen", "dim", "separation"):
        orbit = carpet.enumerate_circles(cfg, args.min_radius)
    if args.subcommand == "gen":
        _emit(args, orbit.to_csv())
        if args.out_svg:
            circles = [(0.0, 0.0, 1.0)] + list(zip(
                orbit.centers.real.tolist(), orbit.centers.imag.tolist(), orbit.radii.tolist()))
            with open(args.out_svg, "w", encoding="utf-8") as fh:
                fh.write(circles_svg(circles))
        return 0
    if args.subcommand == "dim":
        fit = carpet.fit_carpet_dimension(orbit)
        _emit_json(args, {"q": args.q, "dimension": fit.slope, "window": list(fit.window)})
        return 0
    if args.subcommand == "separation":
        eps, pairs = carpet.separation_stats(orbit)
        _emit_json(args, {"q": args.q, "epsilon_observed": eps, "pairs_examined": pairs})
        return 0
    if args.subcommand == "harmonicity":
        rows = []
        bumps = [
            carpet.RadialBump((0.23, 0.11), 0.5),
            carpet.RadialBump((-0.31, 0.17), 0.4),
            carpet.RadialBump((0.07, -0.33), 0.45),
        ]
        for cutoff in (args.cutoff_coarse, args.min_radius):
            orbit = carpet.enumerate_circles(cfg, cutoff)
            for bi, b in enumerate(bumps):
                for coord in (1, 2):
                    val = carpet.harmonicity_residual(orbit, b, coordinate=coord)
                    rows.append(
                        {"cutoff": cutoff, "bump": bi, "coordinate": coord, "residual": val}
                    )
        _emit_json(args, rows)
        return 0
    raise AssertionError


def _cmd_checks(args) -> int:
    import numpy as np

    from . import checks, forms, gasket, geom, spectra
    from .errors import InterlacingViolation

    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail else ""))
        if not ok:
            failures += 1

    if args.suite == "identities":
        worst_in, worst_cir, worst_orth = checks.descartes_residuals(rng, 200)
        report("inscribed curvature identity", worst_in < 1e-9, f"max rel {worst_in:.2e}")
        report("circumscribed curvature identity", worst_cir < 1e-9, f"max rel {worst_cir:.2e}")
        report("circumscribed orthogonality", worst_orth < 1e-9, f"max rel {worst_orth:.2e}")
        t = geom.triple_from_curvatures(1.0, 1.0, 1.0)
        cx = gasket.build_complex(t, 6)
        for m in range(7):
            tf = forms.assemble_trace_form(t, m, cx)
            report(f"energy identity m={m}", checks.energy_identity_deviation(t, tf) < 1e-10)
            if m >= 1:
                res = checks.coordinate_harmonicity_residual(tf)
                report(f"coordinate harmonicity m={m}", res < 1e-10)
        bad = checks.matrix_power_law_failures(10)
        report("matrix power law n<=10", not bad, f"fails for (letter, n) {bad[0]}" if bad else "")
    elif args.suite == "interlacing":
        t = geom.triple_from_curvatures(1.0, 1.0, 1.0)
        evp = spectra.evp_from_trace(t, 4, dirichlet="none")
        v_rand = tuple(rng.choice(evp.n_total, 7, replace=False))
        for name, V in [("V0", (0, 1, 2)), ("random", v_rand)]:
            try:
                rep = spectra.interlacing_check(evp, V)
            except InterlacingViolation as exc:
                report(f"interlacing {name}", False, str(exc))
            else:
                report(f"interlacing {name}", rep.ok, f"n={rep.n_checked}")
    elif args.suite == "scaling":
        t = geom.triple_from_curvatures(1.0, 1.0, 1.0)
        for scheme in ("trace", "arcfem"):
            for s in (2.0, 10.0):
                rep = spectra.scaling_check(t, s, m=3, scheme=scheme)
                report(f"scaling {scheme} s={s:g}", rep.ok, f"max rel {rep.max_rel_error:.2e}")
    elif args.suite == "census":
        t = geom.triple_from_curvatures(1.0, 1.0, 1.0)
        rep = spectra.subdivision_census(t, lam=200.0, truncation=6, depth=6)
        report(
            "census lower bound",
            rep.lower_bound_ok,
            f"sum {rep.child_sum} <= parent {rep.parent_count}",
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rep.to_csv())
        for n in (1, 2, 3):
            t_small = spectra.census_vertices(t, n)
            report(f"census vertex count n={n}", len(t_small) == 9 * n - 3)
    elif args.suite == "extension":
        bad = checks.sector_extension_sweep(rng, 100)
        report("sector extension sweep", bad == 0, f"{bad} violations of 100")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.threads > 0:  # before numpy is first imported below
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import GasketLabError

    try:
        if args.command == "gasket":
            return _cmd_gasket(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "weyl":
            return _cmd_weyl(args)
        if args.command == "checks":
            return _cmd_checks(args)
        if args.command == "carpet":
            return _cmd_carpet(args)
        raise AssertionError(args.command)
    except (GasketLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
