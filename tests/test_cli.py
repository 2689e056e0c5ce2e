import hashlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import gasketlab
from gasketlab import gasket, geom, spectra
from gasketlab.cli import main
from gasketlab.errors import InterlacingViolation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_csv_matches_library(capsys, tmp_path):
    out_file = tmp_path / "counts.csv"
    code = main(["--out", str(out_file), "gasket", "count", "--lambda-max", "100", "--grid", "9"])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "lambda,count"
    lam, count = lines[-1].split(",")
    t = geom.triple_from_curvatures(1.0, 1.0, 1.0)
    assert int(count) == gasket.count_profile(t, [float(lam)])[0][1]


def test_cli_deterministic_output(capsys):
    argv = ["gasket", "count", "--lambda-max", "50", "--grid", "9"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv, digest", [
    (["gasket", "count", "--lambda-max", "30000"],
     "161c099072e6e8fcd75059064f4070e6808e7962ef46269f767a4f6b7ec103fa"),
    (["gasket", "count", "--triple", "1,2,3", "--lambda-max", "100000"],
     "99171c2f8d8ffd73c18cf536b201b732644d0d90f8cbac67007977268fae0dca"),
])
def test_count_csv_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gasket_dim_json(capsys):
    code, out, _ = run_cli(capsys, "gasket", "dim", "--lambda-max", "2000", "--grid", "17")
    assert code == 0
    obj = json.loads(out)
    assert 1.0 < obj["slope"] < 2.0


def test_render_svg(capsys):
    code, out, _ = run_cli(capsys, "gasket", "render", "--depth", "2")
    assert code == 0
    assert out.count("<circle") == 16


def test_triple_argument_forms(capsys):
    code, out, _ = run_cli(capsys, "gasket", "cells", "--triple", "1,2,3", "--depth", "1")
    assert code == 0
    cells = json.loads(out)
    kappa = math.sqrt(2 * 3 + 3 * 1 + 1 * 2)
    assert cells[0]["quad"][3] == pytest.approx(kappa, rel=1e-12)
    disks = json.dumps(
        [
            {"type": "disk", "center": [0, 0], "radius": 1},
            {"type": "disk", "center": [2, 0], "radius": 1},
            {"type": "disk", "center": [1, math.sqrt(3)], "radius": 1},
        ]
    )
    code, out, _ = run_cli(capsys, "gasket", "cells", "--triple", disks, "--depth", "0")
    assert code == 0


def test_spectrum_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--scheme", "trace", "--depth", "3", "--top", "20"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["scheme"] == "trace" and obj["depth"] == 3
    assert len(obj["eigenvalues"]) == 20
    assert obj["boundary"] == [0, 1, 2]


def test_weyl_json(capsys):
    code, out, _ = run_cli(
        capsys, "weyl", "--scheme", "trace", "--depth", "5", "--top", "300"
    )
    assert code == 0
    obj = json.loads(out)
    assert 0.4 < obj["slope"] < 0.9
    assert obj["normalization"] == "laplacian"


def test_carpet_q6_rejected(capsys):
    code, out, err = run_cli(capsys, "carpet", "gen", "--q", "6")
    assert code == 1
    assert "q must" in err


def test_carpet_gen_csv(capsys, tmp_path):
    svg_path = tmp_path / "orbit.svg"
    code, out, _ = run_cli(
        capsys, "--out", str(tmp_path / "o.csv"), "carpet", "gen", "--q", "8",
        "--min-radius", "0.05", "--out-svg", str(svg_path)
    )
    assert code == 0
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert lines[0] == "center_x,center_y,radius,generation"
    assert svg_path.read_text().count("<circle") == len(lines)  # orbit + unit circle


def test_svg_bytes(capsys, tmp_path):
    # both SVG writers draw on the fixed canvas, stroke and margin of gasketlab.svg
    code, out, _ = run_cli(capsys, "gasket", "render", "--depth", "3")
    assert code == 0
    digest = "bd40c374432b1a2840ec2e051ce916c89da5c4ff4851f7d46c740ee3a435e4bc"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    svg_path = tmp_path / "carpet.svg"
    code, _, _ = run_cli(capsys, "carpet", "gen", "--q", "8", "--min-radius", "0.02",
                         "--out-svg", str(svg_path))
    assert code == 0
    digest = "1c42cb8ce6f533c795df13996413f0616f78eea6eb5ff0c061a7bf9afb55041c"
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == digest


def test_carpet_separation_json(capsys):
    code, out, _ = run_cli(capsys, "carpet", "separation", "--q", "8", "--min-radius", "0.01")
    assert code == 0
    obj = json.loads(out)
    assert obj["epsilon_observed"] > 0


@pytest.mark.parametrize(
    "suite", ["identities", "interlacing", "scaling", "census", "extension"]
)
def test_checks_suite_exit_zero(capsys, suite):
    code, out, _ = run_cli(capsys, "checks", "--suite", suite)
    assert code == 0
    assert "[FAIL]" not in out


def test_checks_census_csv(capsys, tmp_path):
    out_file = tmp_path / "census.csv"
    code, out, _ = run_cli(capsys, "--out", str(out_file), "checks", "--suite", "census")
    assert code == 0
    assert "[PASS] census lower bound  sum 0 <= parent 12" in out
    text = out_file.read_text()
    lines = text.splitlines()
    assert len(lines) == 36
    assert lines[0] == "word,child_depth,n_free,count"
    assert lines[-2:] == ["TOTAL,,,0", "PARENT,,,12"]
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "f57d1f6b324c61235d1186eba1fe63d33925cfb3cdeaadd3a22c006361909768"


def test_checks_interlacing_violation_exit_two(capsys, monkeypatch):
    def violated(evp, V):
        raise InterlacingViolation("lower interlacing fails at n=4", 4)

    monkeypatch.setattr(spectra, "interlacing_check", violated)
    code, out, err = run_cli(capsys, "checks", "--suite", "interlacing")
    assert code == 2
    assert "[FAIL] interlacing V0  lower interlacing fails at n=4" in out
    assert err == ""


def test_spectrum_not_converged_exit_one(capsys, monkeypatch, short_eigsh):
    monkeypatch.setattr(spectra, "DENSE_KN2", 1.0)
    code, out, err = run_cli(capsys, "spectrum", "--depth", "5", "--top", "150")
    assert code == 1
    assert out == ""
    assert err.startswith("error: slice [") and "kept missing eigenvalues" in err


def test_spectrum_negative_top_exit_one(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--depth", "3", "--top", "-5")
    assert code == 1 and out == ""
    assert err == "error: how_many must be non-negative, got -5\n"


@pytest.mark.parametrize("subcommand", ["render", "cells"])
def test_gasket_negative_depth_exit_one(capsys, subcommand):
    code, out, err = run_cli(capsys, "gasket", subcommand, "--depth", "-1")
    assert code == 1 and out == ""
    assert err == "error: depth must be nonnegative\n"


@pytest.mark.parametrize("width", ["nan", "inf", "-3"])
def test_render_bad_stroke_width_exit_one(capsys, width):
    # a negative or non-finite stroke-width is not valid SVG
    code, out, err = run_cli(capsys, "gasket", "render", "--depth", "1", "--stroke-width", width)
    assert code == 1 and out == ""
    assert err.startswith("error: stroke width must be finite and nonnegative")


def test_unknown_flag_exit_one(capsys):
    assert main(["gasket", "count", "--bogus"]) == 1


def test_bad_triple_exit_one(capsys):
    code, _, err = run_cli(capsys, "gasket", "count", "--triple", "1,2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "triple",
    [
        "0,1,1",
        "inf,1,1",
        "nan,1,1",
        *(
            f'[{{"type": "disk", "center": [0, 0], "radius": {r}}},'
            ' {"type": "disk", "center": [2, 0], "radius": 1},'
            ' {"type": "disk", "center": [1, 1.7320508075688772], "radius": 1}]'
            for r in ("NaN", "0")
        ),
    ],
)
def test_nonfinite_or_nonpositive_triple_exit_one(capsys, triple):
    code, out, err = run_cli(capsys, "gasket", "count", "--triple", triple)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "triple",
    [
        '[{"type": "disk", "center": [0, 0]}, {"type": "disk", "center": [2, 0], "radius": 1},'
        ' {"type": "disk", "center": [1, 1.7320508075688772], "radius": 1}]',
        '[{"center": [0, 0], "radius": 1}, {"type": "disk", "center": [2, 0], "radius": 1},'
        ' {"type": "disk", "center": [1, 1.7320508075688772], "radius": 1}]',
        '[{"type": "halfplane", "normal": [0, -1]}, {"type": "disk", "center": [0, 1],'
        ' "radius": 1}, {"type": "disk", "center": [2, 1], "radius": 1}]',
        '[{"type": "disk", "center": [0], "radius": 1}, {"type": "disk", "center": [2, 0],'
        ' "radius": 1}, {"type": "disk", "center": [1, 1.7320508075688772], "radius": 1}]',
        "[1, 2, 3]",
        '[{"type": "disk", "center": [0, 0], "radius": true}, {"type": "disk", "center": [2, 0],'
        ' "radius": 1}, {"type": "disk", "center": [1, 1.7320508075688772], "radius": 1}]',
    ],
    ids=["no radius", "no type", "no offset", "short center", "not objects", "boolean radius"],
)
def test_malformed_json_triple_exit_one(capsys, triple):
    code, out, err = run_cli(capsys, "gasket", "count", "--triple", triple)
    assert code == 1 and out == ""
    assert err.startswith("error: a ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("gasket", "count", "--lambda-max", "nan"),
        ("gasket", "count", "--lambda-max", "inf"),
        ("gasket", "dim", "--lambda-max", "nan"),
        ("carpet", "gen", "--q", "8", "--min-radius", "nan"),
        ("carpet", "gen", "--q", "8", "--min-radius", "inf"),
        ("carpet", "harmonicity", "--q", "8", "--cutoff-coarse", "nan"),
    ],
)
def test_nonfinite_bound_exit_one(capsys, argv):
    # a NaN bound used to give NaN rows or an empty CSV with exit 0, and an
    # infinite --lambda-max walked the whole cell tree toward the cap
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_import_cli_loads_no_numpy():
    # --threads must be able to pin BLAS before numpy is first imported
    code = "import sys, gasketlab.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_all_names_every_submodule():
    # each name in __all__ resolves on first use (PEP 562)
    names = sorted(m.name for m in pkgutil.iter_modules(gasketlab.__path__))
    assert sorted(gasketlab.__all__) == names
    for name in names:
        assert getattr(gasketlab, name).__name__ == f"gasketlab.{name}"


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--threads=2"], ["--thr", "2"]])
def test_threads_flag_pins_blas(capsys, monkeypatch, flag):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "7")  # restored after the test
    code, _, _ = run_cli(capsys, *flag, "gasket", "count", "--lambda-max", "20", "--grid", "3")
    assert code == 0
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "2"
