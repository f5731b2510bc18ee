import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from biimplicit.cli import (
    MATRIX_ONLY_NOTE,
    MAX_MINORS,
    InputError,
    InputSpec,
    load_input,
    main,
    run_implicitize,
)
from biimplicit.parser import parse_tpoly
from biimplicit.poly import Bidegree, TPoly

from conftest import GOLDEN_STRINGS, SEGRE_STRINGS, random_parametrization

DATA = Path(__file__).parent / "data"


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

    def test_plain_tuples_accepted(self):
        # a pair that is not a Bidegree is converted, so the polynomials'
        # bidegree compares equal to it
        spec = InputSpec((1, 1), SEGRE_STRINGS, nu=(1, 0))
        assert spec.bidegree == Bidegree(1, 1) and type(spec.bidegree) is Bidegree
        assert type(spec.nu) is Bidegree
        report = run_implicitize(spec)
        assert report.equation == parse_tpoly("T1*T4-T2*T3")
        assert report.to_dict() | {"timings": None} == run_implicitize(
            InputSpec(Bidegree(1, 1), SEGRE_STRINGS, nu=Bidegree(1, 0))
        ).to_dict() | {"timings": None}

    def test_nu_override_warning(self):
        spec = InputSpec(
            bidegree=Bidegree(1, 1),
            polynomials=SEGRE_STRINGS,
            nu=Bidegree(1, 1),
        )
        # (1,1) dominates (1,0): still in the good region, so no region
        # warning; but the minor picks up the factor T1^2
        report = run_implicitize(spec)
        assert report.equation == parse_tpoly("T1^3*T4-T1^2*T2*T3")
        assert report.warnings == [
            "equation degree 4 exceeds the MacRae degree 2: "
            "the minor carries an extraneous factor"
        ]

    @pytest.mark.parametrize(
        "nu, degree, warnings",
        [
            (None, 4, []),
            (
                Bidegree(2, 2),
                9,
                [
                    "equation degree 9 exceeds the MacRae degree 4: "
                    "the minor carries an extraneous factor"
                ],
            ),
        ],
    )
    def test_macrae_degree_warning(self, nu, degree, warnings):
        # rand12: the first (1,2) map drawn from random.Random(7); its MacRae
        # degree is 4 at both nu
        F = random_parametrization(random.Random(7), Bidegree(1, 2))
        spec = InputSpec(
            bidegree=Bidegree(1, 2),
            polynomials=tuple(str(f) for f in F.polys),
            nu=nu,
        )
        report = run_implicitize(spec)
        assert report.summary.macrae_degree == 4
        assert report.equation_degree == degree
        assert report.verified is True
        assert report.warnings == warnings

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

    def test_deep_nesting_rejected(self, capsys, tmp_path):
        deep = "(" * 3000 + "s*t" + ")" * 3000
        path = write_input(tmp_path, polynomials=[deep, "s*v", "u*t", "u*v"])
        code, out, err = run_main(capsys, ["implicitize", path])
        assert code == 1
        assert err.startswith("error:") and "nesting" in err
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
        # a value after a space that starts with '-' gets the same range
        # error as the joined spelling, not argparse's missing argument
        for flag in (["--nu=0,-1"], ["--nu=-1,2"], ["--nu", "-1,2"]):
            code, out, err = run_main(capsys, [command, write_input(tmp_path), *flag])
            assert code == 1
            assert err.startswith("error:") and "nonnegative" in err
            assert out == ""

    @pytest.mark.parametrize(
        "flag",
        [["--bidegree=-1,2"], ["--bidegree", "-1,2"], ["--bid", "-1,2"]],
        ids=["joined", "spaced", "abbreviated"],
    )
    def test_region_negative_bidegree(self, capsys, flag):
        code, out, err = run_main(capsys, ["region", *flag])
        assert (code, out) == (1, "")
        assert err == "error: bidegree components must be >= 1, got (-1,2)\n"

    @pytest.mark.parametrize("where", ["input", "flag"])
    def test_minors_below_one_rejected(self, capsys, tmp_path, where):
        if where == "input":
            argv = ["implicitize", write_input(tmp_path, minors=0)]
        else:
            argv = ["implicitize", write_input(tmp_path), "--minors", "0"]
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err == "error: minors must be a positive integer, got 0\n"
        assert out == ""

    @pytest.mark.parametrize("where", ["input", "flag"])
    def test_minors_above_limit_rejected(self, capsys, tmp_path, where):
        # each extra minor is a full determinant; a count past the limit is
        # refused before any of them runs
        if where == "input":
            argv = ["implicitize", write_input(tmp_path, minors=MAX_MINORS + 1)]
        else:
            argv = ["implicitize", write_input(tmp_path), "--minors", "1000000"]
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error: minors must be") and err.count("\n") == 1
        assert out == ""

    def test_minors_limit_itself_accepted(self):
        spec = InputSpec(
            bidegree=Bidegree(1, 1), polynomials=SEGRE_STRINGS, minors=MAX_MINORS
        )
        assert spec.minors == 100

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

    @pytest.mark.parametrize("text", ["0", "T1 - T1", "0*T1*T4"])
    def test_verify_zero_equation_rejected(self, capsys, tmp_path, text):
        # the zero polynomial vanishes on every surface, so it certifies nothing
        eq_path = tmp_path / "equation.txt"
        eq_path.write_text(text)
        code, out, err = run_main(
            capsys,
            ["verify", write_input(tmp_path), "--equation", str(eq_path)],
        )
        assert code == 1
        assert err.startswith("error: equation file: ")
        assert out == ""

    @pytest.mark.parametrize("where", ["seed", "coefficient", "equation"])
    def test_overlong_integer_literal_rejected(self, capsys, tmp_path, where):
        # 5000 digits is more than int() converts from text by default (4300);
        # json.dumps cannot write such a number either, so the file is text
        digits = "9" * 5000
        first = f"{digits}*s*t" if where == "coefficient" else "s*t"
        seed = digits if where == "seed" else "0"
        path = tmp_path / "input.json"
        path.write_text(
            '{"bidegree": [1, 1], "polynomials": ["%s", "s*v", "u*t", "u*v"], '
            '"seed": %s}' % (first, seed)
        )
        argv = ["hilbert", str(path)]
        if where == "equation":
            eq_path = tmp_path / "equation.txt"
            eq_path.write_text(f"{digits}*T1*T4 - T2*T3")
            argv = ["verify", str(path), "--equation", str(eq_path)]
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("which", ["input", "equation"])
    def test_undecodable_file_rejected(self, capsys, tmp_path, which):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        argv = ["hilbert", str(bad)]
        if which == "equation":
            argv = ["verify", write_input(tmp_path), "--equation", str(bad)]
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error: ") and "decode" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--bidegree", "\u0662,\u0663"],
            ["region", "--bidegree", "2, 3"],
            ["region", "--bidegree", "+2,3"],
            ["region", "--bidegree", "2,3,"],
            ["hilbert", "INPUT", "--nu", "1_0,0"],
            ["matrix", "INPUT", "--nu", "1,0.0"],
            ["implicitize", "INPUT", "--nu", "1,"],
            ["implicitize", "INPUT", "--nu=--1,0"],
            ["implicitize", "INPUT", "--seed", " 5"],
            ["implicitize", "INPUT", "--seed", "5\n"],
            ["implicitize", "INPUT", "--seed", "\uff15"],
            ["implicitize", "INPUT", "--seed", "-"],
            ["implicitize", "INPUT", "--minors", "\u0663"],
            ["implicitize", "INPUT", "--minors", "1e3"],
            ["implicitize", "INPUT", "--minors", "9" * 5000],
        ],
    )
    def test_integer_options_ascii_only(self, capsys, tmp_path, argv):
        argv = [write_input(tmp_path) if a == "INPUT" else a for a in argv]
        code, out, err = run_main(capsys, argv)
        assert code == 1
        assert err.startswith("error: ") and "must be" in err
        assert out == ""

    def test_integer_options_read(self, capsys, tmp_path):
        code, out, _ = run_main(
            capsys,
            ["implicitize", write_input(tmp_path), "--nu", "01,0",
             "--seed=-7", "--minors", "2", "--matrix-only"],
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["nu_used"], doc["seed"]) == ([1, 0], -7)


class TestStrandViews:
    """`hilbert` and `matrix` print parts of the matrix-only report."""

    @pytest.mark.parametrize(
        "input_name, nu",
        [
            ("segre.json", None),
            ("segre.json", "2,0"),  # inside the torsion region: a warning
            ("rand12.json", "2,2"),
            ("golden.json", "3,2"),
        ],
    )
    def test_views_match_matrix_only_report(self, capsys, input_name, nu):
        argv = [str(DATA / input_name)] + (["--nu", nu] if nu else [])
        code, out, _ = run_main(capsys, ["implicitize", *argv, "--matrix-only"])
        assert code == 0
        report = json.loads(out)
        warnings = [w for w in report["warnings"] if w != MATRIX_ONLY_NOTE]
        assert len(warnings) == len(report["warnings"]) - 1
        for command, keys in (
            ("hilbert", ["bidegree", "region", "nu_used", "summary"]),
            ("matrix", ["bidegree", "region", "nu_used", "summary", "matrix"]),
        ):
            code, out, err = run_main(capsys, [command, *argv])
            assert code == 0 and err == ""
            expected = {key: report[key] for key in keys}
            view = {**expected, "warnings": warnings}
            assert list(json.loads(out).items()) == list(view.items())

    def test_hilbert_formats_no_matrix(self, capsys, tmp_path, monkeypatch):
        # rand22 at nu=(6,4) is a 35x77 matrix; hilbert prints none of it
        F = random_parametrization(random.Random(7), (2, 2))
        path = write_input(
            tmp_path, bidegree=[2, 2], polynomials=[str(f) for f in F.polys]
        )
        real = TPoly.__str__
        calls = []

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(TPoly, "__str__", counting)
        code, out, _ = run_main(capsys, ["hilbert", path, "--nu", "6,4"])
        assert code == 0
        assert json.loads(out)["nu_used"] == [6, 4]
        assert calls == []


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

    def test_extra_minors_same_equation(self, capsys, tmp_path):
        # duplicated polynomial: the matrix is 2x3, so several distinct
        # maximal minors exist; --minors gives what the input's field gives
        polynomials = ["s*t", "s*t", "u*t", "u*v"]
        path = write_input(tmp_path, polynomials=polynomials, minors=3)
        code, out, _ = run_main(capsys, ["implicitize", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"]["cols"] == 3
        assert doc["verified"] is True
        assert doc["equation"] == "T1 - T2"
        plain = write_input(tmp_path, name="plain.json", polynomials=polynomials)
        flag = json.loads(run_main(capsys, ["implicitize", plain, "--minors", "3"])[1])
        flag.pop("timings")
        doc.pop("timings")
        assert flag == doc


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-c", "from biimplicit.cli import main; raise SystemExit(main(['region', '--bidegree', '2,3']))"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["suggested_nu"] == [3, 2]
