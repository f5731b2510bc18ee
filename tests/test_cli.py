import json
import subprocess
import sys

import pytest

from biimplicit.cli import (
    InputError,
    InputSpec,
    format_equation,
    load_input,
    main,
    run_implicitize,
)
from biimplicit.parser import parse_tpoly
from biimplicit.poly import Bidegree, TPoly

from conftest import GOLDEN_STRINGS, SEGRE_STRINGS


def write_input(tmp_path, name="input.json", **overrides):
    doc = {"bidegree": [1, 1], "polynomials": list(SEGRE_STRINGS)}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadInput:
    def test_round_trip(self, tmp_path):
        path = write_input(tmp_path, nu=[1, 0], seed=7, minors=2)
        spec = load_input(path)
        assert spec.bidegree == Bidegree(1, 1)
        assert spec.nu == Bidegree(1, 0)
        assert spec.seed == 7
        assert spec.minors == 2

    def test_defaults(self, tmp_path):
        spec = load_input(write_input(tmp_path))
        assert spec.nu is None
        assert spec.seed == 0
        assert spec.minors == 1

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bidegree": [1, 1]}))
        with pytest.raises(InputError):
            load_input(str(path))

    def test_unknown_field(self, tmp_path):
        path = write_input(tmp_path, polys=["s*t"])
        with pytest.raises(InputError):
            load_input(path)

    def test_wrong_polynomial_count(self, tmp_path):
        path = write_input(tmp_path, polynomials=["s*t", "s*v", "u*t"])
        with pytest.raises(InputError):
            load_input(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("nu = {5,3,2}")
        with pytest.raises(InputError):
            load_input(str(path))


class TestRunImplicitize:
    def test_segre_report(self):
        spec = InputSpec(bidegree=Bidegree(1, 1), polynomials=SEGRE_STRINGS)
        report = run_implicitize(spec)
        assert report.nu_used == Bidegree(1, 0)
        assert report.summary.dims == (2, 2, 0, 0)
        assert report.equation == parse_tpoly("T1*T4-T2*T3")
        assert report.equation_degree == 2
        assert report.verified is True
        assert report.warnings == []
        doc = report.to_dict()
        assert set(doc) == {
            "bidegree",
            "region",
            "nu_used",
            "summary",
            "matrix",
            "minor_columns",
            "equation",
            "equation_degree",
            "verified",
            "seed",
            "warnings",
            "timings",
        }

    def test_nu_override_warning(self):
        spec = InputSpec(
            bidegree=Bidegree(1, 1),
            polynomials=SEGRE_STRINGS,
            nu=Bidegree(1, 1),
        )
        # (1,1) dominates (1,0): still in the good region, no warning
        report = run_implicitize(spec)
        assert report.warnings == []

    def test_matrix_only(self):
        spec = InputSpec(bidegree=Bidegree(1, 1), polynomials=SEGRE_STRINGS)
        report = run_implicitize(spec, matrix_only=True)
        assert report.equation is None
        assert report.equation_degree is None
        assert report.minor_columns is None
        assert report.verified is None
        assert report.matrix.rows == 2
        doc = report.to_dict()
        assert doc["equation"] is None
        assert doc["verified"] is None

    def test_no_verify(self):
        spec = InputSpec(bidegree=Bidegree(1, 1), polynomials=SEGRE_STRINGS)
        report = run_implicitize(spec, verify=False)
        assert report.verified is None
        assert report.equation is not None

    def test_minors_on_square_matrix(self):
        spec = InputSpec(
            bidegree=Bidegree(1, 1), polynomials=SEGRE_STRINGS, minors=3
        )
        report = run_implicitize(spec)
        assert report.equation == parse_tpoly("T1*T4-T2*T3")
        assert any("square" in w for w in report.warnings)


class TestFormatEquation:
    def test_integers_kept(self):
        assert format_equation(parse_tpoly("3*T1^2*T2-T3^3")) == "3*T1^2*T2 - T3^3"

    def test_denominators_cleared(self):
        from fractions import Fraction

        eq = TPoly({(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(1, 3)})
        assert format_equation(eq) == "3*T1 + 2*T2"


class TestCommands:
    def test_region(self, capsys):
        code, out, _ = run_main(capsys, ["region", "--bidegree", "2,3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["corners"] == [[3, 2], [1, 5]]
        assert doc["suggested_nu"] == [3, 2]

    def test_region_invalid(self, capsys):
        code, _, err = run_main(capsys, ["region", "--bidegree", "0,3"])
        assert code == 1
        assert "error" in err

    def test_region_malformed_pair(self, capsys):
        code, _, err = run_main(capsys, ["region", "--bidegree", "2"])
        assert code == 1

    def test_hilbert(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, ["hilbert", write_input(tmp_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["dims"] == [2, 2, 0, 0]
        assert doc["summary"]["euler"] == 0
        assert doc["summary"]["macrae_degree"] == 2

    def test_hilbert_golden(self, capsys, tmp_path):
        path = write_input(
            tmp_path, bidegree=[2, 3], polynomials=list(GOLDEN_STRINGS)
        )
        code, out, _ = run_main(capsys, ["hilbert", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["nu_used"] == [3, 2]
        assert doc["summary"]["dims"] == [12, 12, 0, 0]
        assert doc["summary"]["macrae_degree"] == 12
        assert doc["region"]["corners"] == [[3, 2], [1, 5]]

    def test_matrix(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, ["matrix", write_input(tmp_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["rows"] == 2
        assert doc["matrix"]["cols"] == 2
        assert doc["matrix"]["row_basis"] == ["s", "u"]

    def test_implicitize(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, ["implicitize", write_input(tmp_path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["equation"] == "T1*T4 - T2*T3"
        assert doc["equation_degree"] == 2
        assert doc["verified"] is True
        assert doc["seed"] == 0

    def test_implicitize_nu_inside_region_warns_and_fails(self, capsys, tmp_path):
        # nu=(0,0) has no syzygies at all: the warning must still be emitted
        # even though the pipeline then fails, never a silent wrong answer
        code, out, err = run_main(
            capsys,
            ["implicitize", write_input(tmp_path), "--nu", "0,0"],
        )
        assert code == 2
        assert "torsion-affected" in err
        assert "error" in err
        assert out == ""

    def test_implicitize_matrix_only(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, ["implicitize", write_input(tmp_path), "--matrix-only"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["equation"] is None
        assert doc["verified"] is None
        assert doc["matrix"]["entries"] == [["T3", "T4"], ["-T1", "-T2"]]

    def test_implicitize_bad_input_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, _, err = run_main(capsys, ["implicitize", str(path)])
        assert code == 1

    def test_implicitize_non_bihomogeneous(self, capsys, tmp_path):
        path = write_input(tmp_path, polynomials=["s*t+u", "s*v", "u*t", "u*v"])
        code, _, err = run_main(capsys, ["implicitize", path])
        assert code == 1

    @pytest.mark.parametrize(
        "field",
        [
            {"bidegree": [True, 1]},
            {"nu": [1, False]},
            {"seed": True},
            {"minors": True},
        ],
    )
    def test_json_booleans_rejected(self, capsys, tmp_path, field):
        code, out, err = run_main(
            capsys, ["implicitize", write_input(tmp_path, **field)]
        )
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    def test_negative_nu_in_input_rejected(self, capsys, tmp_path):
        code, out, err = run_main(
            capsys, ["implicitize", write_input(tmp_path, nu=[-1, 0])]
        )
        assert code == 1
        assert err.startswith("error:") and "nonnegative" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["implicitize", "hilbert", "matrix"])
    def test_negative_nu_flag_rejected(self, capsys, tmp_path, command):
        code, out, err = run_main(
            capsys, [command, write_input(tmp_path), "--nu=0,-1"]
        )
        assert code == 1
        assert err.startswith("error:") and "nonnegative" in err
        assert out == ""

    def test_verify_command(self, capsys, tmp_path):
        eq_path = tmp_path / "equation.txt"
        eq_path.write_text("T1*T4 - T2*T3\n")
        code, out, _ = run_main(
            capsys,
            ["verify", write_input(tmp_path), "--equation", str(eq_path)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {"verified": True, "equation_degree": 2}

    def test_verify_command_false(self, capsys, tmp_path):
        eq_path = tmp_path / "equation.txt"
        eq_path.write_text("T1*T4 + T2*T3")
        code, out, _ = run_main(
            capsys,
            ["verify", write_input(tmp_path), "--equation", str(eq_path)],
        )
        assert code == 0
        assert json.loads(out)["verified"] is False

    def test_seed_recorded(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys, ["implicitize", write_input(tmp_path), "--seed", "42"]
        )
        assert code == 0
        assert json.loads(out)["seed"] == 42


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, capsys, tmp_path):
        path = write_input(tmp_path, seed=3)
        outputs = []
        for _ in range(2):
            code, out, _ = run_main(capsys, ["implicitize", path])
            assert code == 0
            doc = json.loads(out)
            doc.pop("timings")
            outputs.append(json.dumps(doc, sort_keys=False))
        assert outputs[0] == outputs[1]

    def test_parallel_minors_same_equation(self, capsys, tmp_path, monkeypatch):
        # duplicated polynomial: the matrix is 2x3, so several distinct
        # maximal minors exist and their determinants run in worker processes
        monkeypatch.setenv("BIIMPLICIT_JOBS", "2")
        path = write_input(
            tmp_path,
            polynomials=["s*t", "s*t", "u*t", "u*v"],
            minors=3,
        )
        code, out, _ = run_main(capsys, ["implicitize", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["cols"] == 3
        assert doc["verified"] is True
        monkeypatch.delenv("BIIMPLICIT_JOBS")
        serial = json.loads(run_main(capsys, ["implicitize", path])[1])
        assert serial["equation"] == doc["equation"]


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-c", "from biimplicit.cli import main; raise SystemExit(main(['region', '--bidegree', '2,3']))"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["suggested_nu"] == [3, 2]
