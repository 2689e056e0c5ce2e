import json
import math
import os

import pytest

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


def test_checks_interlacing_violation_exit_two(capsys, monkeypatch):
    def violated(evp, V, rtol=1e-9):
        raise InterlacingViolation("lower interlacing fails at n=4", 4)

    monkeypatch.setattr(spectra, "interlacing_check", violated)
    code, out, err = run_cli(capsys, "checks", "--suite", "interlacing")
    assert code == 2
    assert "[FAIL] interlacing V0  lower interlacing fails at n=4" in out
    assert err == ""


def test_spectrum_not_converged_exit_one(capsys, monkeypatch, short_eigsh):
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 100)
    code, out, err = run_cli(capsys, "spectrum", "--depth", "5", "--top", "150")
    assert code == 1
    assert out == ""
    assert err.startswith("error: slice [") and "kept missing eigenvalues" in err


def test_spectrum_negative_top_exit_one(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--depth", "3", "--top", "-5")
    assert code == 1 and out == ""
    assert err == "error: how_many must be non-negative, got -5\n"


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


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--threads=2"]])
def test_threads_flag_pins_blas(capsys, monkeypatch, flag):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "7")  # restored after the test
    code, _, _ = run_cli(capsys, *flag, "gasket", "count", "--lambda-max", "20", "--grid", "3")
    assert code == 0
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "2"
