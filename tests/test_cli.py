"""Tests for the command-line front end (exit codes and report formats)."""

import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superbialg import algebra
from superbialg.algebra import SuperLieAlgebra, data_path
from superbialg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# fails super-Jacobi at six identities
BAD_ALG = ("[algebra] name = bad\nbasis = H:even X:even Y:even\n"
           "[brackets]\nH X = 1 X\nH Y = 1 Y\nX Y = 1 H\n")


class TestValidate:
    def test_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--algebra", "osp12")
        assert code == 0
        assert "all axioms hold" in out

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "osp12.alg"
        path.write_text(data_path("osp12.alg").read_text())
        code, out, _ = run_cli(capsys, "validate", "--file", str(path))
        assert code == 0

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text(BAD_ALG)
        code, out, err = run_cli(capsys, "validate", "--file", str(path))
        assert code == 1
        # six super-Jacobi lines, from "super-Jacobi violated at (H,X,Y) -> H: 2"
        assert hashlib.sha256(err.encode()).hexdigest() == (
            "5c502bbd53163f8cdf3c6b8e293775e84465da6f2c7b254b528797ea9d06950a"), err

    def test_failing_builtin_reports_like_a_bad_file(self, capsys,
                                                      monkeypatch):
        # a replaced builtin that fails its axioms takes the path of a bad
        # file: the report on stderr, nothing on stdout, exit 1
        invalid = SuperLieAlgebra(
            "super_e2", [("H", "even"), ("X", "even"), ("Y", "even")],
            {("H", "X"): [(1, "X")], ("H", "Y"): [(1, "Y")],
             ("X", "Y"): [(1, "H")]})
        report = invalid.validate()
        assert not report.passed
        monkeypatch.setitem(algebra._BUILTIN_CACHE, "super_e2", invalid)
        code, out, err = run_cli(capsys, "validate", "--algebra", "super_e2")
        assert (code, out) == (1, "")
        assert err == f"error: {report.render()}\n"

    @pytest.mark.parametrize("text", [
        data_path("osp12.alg").read_text(),
        data_path("super_e2.alg").read_text().replace("name = super_e2",
                                                      "name = e2copy"),
        BAD_ALG], ids=["builtin-file", "other-algebra", "failing"])
    def test_one_validate_call(self, capsys, tmp_path, monkeypatch, text):
        # a passing file (a builtin's, or another algebra's) and a failing
        # one are each validated once; the failing one still exits 1 with
        # its failed identities on stderr
        calls = []
        validate = SuperLieAlgebra.validate

        def counted(self):
            calls.append(self.name)
            return validate(self)

        monkeypatch.setattr(SuperLieAlgebra, "validate", counted)
        path = tmp_path / "x.alg"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "--file", str(path))
        assert len(calls) == 1
        if text is BAD_ALG:
            assert (code, out) == (1, "")
            assert err.startswith("error: super-Jacobi violated at (H,X,Y)")
            assert len(err.splitlines()) == 6
        else:
            assert (code, err) == (0, "")
            assert out == f"algebra {calls[0]}: all axioms hold\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--file", "/nonexistent.alg")
        assert code == 2

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == 2


class TestSchouten:
    def test_cybe_status_line(self, capsys):
        code, out, _ = run_cli(capsys, "schouten", "--algebra", "super_e2",
                               "--r", "1 H^P+")
        assert code == 0
        assert out.strip() == "CYBE"

    def test_mcybe(self, capsys):
        code, out, _ = run_cli(capsys, "schouten", "--algebra", "super_e2",
                               "--family", "e2-r-iii")
        assert code == 0
        assert out.strip() == "mCYBE"


class TestCobracketCheck:
    def test_family_with_params(self, capsys):
        code, out, _ = run_cli(capsys, "cobracket-check",
                               "--algebra", "super_e2",
                               "--family", "e2-case-a",
                               "--params", "a=1,b=0,c=0")
        assert code == 0
        assert "pass" in out

    def test_generic_case_b_fails(self, capsys):
        code, out, _ = run_cli(capsys, "cobracket-check",
                               "--algebra", "super_e2",
                               "--family", "e2-case-b")
        assert code == 1
        assert "cojacobi" in out
        # the cobracket, "axioms: FAIL" and 24 lines such as
        # "cojacobi violated at (H,H,P+,P-): -4*c*d"
        assert len(out.splitlines()) == 30
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7dad24470e01e042a618e8a3feeb3eb9ed5de45f846ceb8b54a594a3838cd11a"), out

    def test_cobracket_file(self, capsys, tmp_path):
        path = tmp_path / "d.cob"
        path.write_text("delta H = 1 P+^P-\n")
        code, out, _ = run_cli(capsys, "cobracket-check",
                               "--algebra", "super_e2",
                               "--cobracket-file", str(path))
        assert code == 0


class TestBuiltinFile:
    """A `.alg` file that restates a builtin takes the builtin's families."""

    def test_schouten_family_on_packaged_file(self, capsys):
        code, out, _ = run_cli(capsys, "schouten", "--algebra",
                               str(data_path("osp12.alg")),
                               "--family", "osp-r1")
        assert (code, out.strip()) == (0, "CYBE")

    def test_cobracket_family_on_packaged_file(self, capsys):
        code, out, _ = run_cli(capsys, "cobracket-check", "--algebra",
                               str(data_path("super_e2.alg")),
                               "--family", "e2-case-ii")
        assert code == 0
        assert "axioms: pass" in out

    @pytest.mark.parametrize("argv", [
        ["schouten", "--family", "e2-r-iii"],
        ["cobracket-check", "--family", "e2-case-ii"]])
    def test_changed_constant_is_another_algebra(self, capsys, tmp_path,
                                                 argv):
        # D+ D+ = 2 P+ is super-e(2) with P+ rescaled: a valid algebra of
        # the same name, but not the builtin
        text = data_path("super_e2.alg").read_text()
        assert "D+ D+ = 1 P+" in text
        path = tmp_path / "super_e2.alg"
        path.write_text(text.replace("D+ D+ = 1 P+", "D+ D+ = 2 P+"))
        code, _, err = run_cli(capsys, argv[0], "--algebra", str(path),
                               *argv[1:])
        assert code == 2
        assert "belongs to a different algebra" in err


class TestCoboundary:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "coboundary", "--algebra", "super_e2",
                               "--r", "1 H^P+")
        assert code == 0
        assert "delta H = 1 H^P+" in out


class TestSolveCocycle:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "solve-cocycle", "--algebra", "osp12")
        assert code == 0
        assert "unknowns\t30" in out
        assert "nullity\t6" in out
        assert "coboundary-dim\t6" in out

    @pytest.mark.parametrize("algebra, digest", [
        ("osp12", "fd1484b6069cc853b705c2cb38cab0eeaafb87c250865656ab13b88ebaeeb464"),
        ("super_e2", "6a56fe71202feef7cf44e2c2144d17eb530d21999c288fbddd45bb92918ec13b"),
    ])
    def test_report_is_golden(self, capsys, algebra, digest):
        # pins the printed nullspace basis, constraints and dimensions
        code, out, _ = run_cli(capsys, "solve-cocycle", "--algebra", algebra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_abelian_every_cobracket_is_a_cocycle(self, capsys, tmp_path):
        # no brackets, so no equations: the cocycle space is all 30 unknowns
        path = tmp_path / "abelian.alg"
        path.write_text("[algebra] name = abelian\n"
                        "basis = A:even B:even C:even S:odd T:odd\n[brackets]\n")
        code, out, _ = run_cli(capsys, "solve-cocycle", "--algebra", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[:4] == ["unknowns\t30", "equations\t0", "rank\t0",
                             "nullity\t30"]
        assert "coboundary-dim\t0" in lines


class TestPoisson:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "poisson", "--group", "osp",
                               "--structure", "2")
        assert code == 0
        assert "a^2-1" in out

    def test_machine(self, capsys):
        code, out, _ = run_cli(capsys, "poisson", "--group", "super-e2",
                               "--structure", "iv", "--format", "machine")
        assert code == 0
        assert "{a,b} = -2*a*b" in out

    def test_unknown_structure(self, capsys):
        code, _, err = run_cli(capsys, "poisson", "--group", "osp",
                               "--structure", "9")
        assert code == 2

    # every structure's table and axiom report, in both formats, byte for
    # byte: how the bracket is formed may change, what it prints may not
    @pytest.mark.parametrize("grp, sid, fmt, digest", [
        ("osp", "1", "table",
         "5480d7fbc573231335416d7056e8434ba151a6cb564a7f2e291edec07e1f9b5f"),
        ("osp", "1", "machine",
         "b851484556d569062cc51dcd074581d16b846b2b66a62c50534dabd453e4814b"),
        ("osp", "2", "table",
         "60aca654032be500997074b3152e62f9aae23a2d18ec1917a4a34802cfb303e6"),
        ("osp", "2", "machine",
         "5d068c0f2b508d6e04677f330f7cce77d93d15e643dff356472e08000aea4379"),
        ("osp", "3", "table",
         "d87ef038c3b0b1122374cca5ef61897d7b6dc3124b561f48d8b298e51b233713"),
        ("osp", "3", "machine",
         "b9cca8628582b986375a8eb14776e5869a1110c8f46a942b7eabc64a7f40341d"),
        ("super-e2", "i", "table",
         "2d28fa129adcdf27fe892b01ca54cbd3370f3a343042339cf324bb9faf0d79ba"),
        ("super-e2", "i", "machine",
         "bcebe9cf038f730cdfaa36f0cdcccdeb97df86ad5fd4a9c0aba42e2f8db1a9d1"),
        ("super-e2", "ii", "table",
         "a25ad4514de4ea58a7aceb3e6afec14b62bfe78c7d2100f3d532a5a588c973c2"),
        ("super-e2", "ii", "machine",
         "7cdc1d9b6678334975a46592f15c350aef4b88830153a5fac27f38cc80a4a79f"),
        ("super-e2", "iii", "table",
         "c7ec68bd48965b522c9813c0f0da52925dfb10ca31553826dfac579bfac357f6"),
        ("super-e2", "iii", "machine",
         "c522a8e42447650ffd6823a4a0391f18162cd68df696c09ad19b40090be0c0b3"),
        ("super-e2", "iv", "table",
         "f777b902de5d2045f59ead04c647da8ca3b0482fdcc12a9e65c2f8faf013d6c3"),
        ("super-e2", "iv", "machine",
         "48ef145bac189c2e60346fa5ad506edfa87379268fa79653cb37a141375058c4"),
        ("super-e2", "v", "table",
         "34b14cf09a307e6a14560553983a82c296d3fd03ef079c4ce077dfee9bfb0e93"),
        ("super-e2", "v", "machine",
         "07874cc413c329738604f81e20d42487b332d81983a01874ace82962ed71cc8d"),
        ("super-e2", "vi", "table",
         "d4cf354c229a1c3295be65544923f09295c3bccfa3a136c0662e13f304d1bea1"),
        ("super-e2", "vi", "machine",
         "1eda99359a2783496a95db43085fabb8de24d29c336353ac32c4d1e35d8fc9e8"),
    ])
    def test_checked_tables_are_golden(self, capsys, grp, sid, fmt, digest):
        code, out, _ = run_cli(capsys, "poisson", "--group", grp,
                               "--structure", sid, "--format", fmt, "--check")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyOrbits:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-orbits")
        assert code == 0
        assert "orbit.rb-to-r1\tpass" in out


class TestVerifyPaper:
    def test_filter_table2(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--filter", "table2",
                               "--format", "machine")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 72
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_machine_line_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--filter", "axioms",
                               "--format", "machine")
        assert code == 0
        first = out.splitlines()[0].split("\t")
        assert first[0] == "axioms.e2" and first[1] == "pass"

    def test_strict_errata_fail(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--filter",
                               "table2.v.a,b", "--strict")
        assert code == 1

    def test_non_strict_errata_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--filter",
                               "table2.v.a,b")
        assert code == 0
        assert "erratum" in out

    def test_unknown_filter(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper", "--filter", "zzz")
        assert code == 2
        assert err == "error: no claims match 'zzz'\n"
        assert out == ""

    def test_machine_output_is_golden(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8b1877c9e9f34e15d2832186f576a5796d13328ff00da4f3eca97752addd9051")


class TestUsage:
    def test_unknown_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superbialg.cli", "frobnicate"],
            capture_output=True)
        assert proc.returncode == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superbialg.cli", "validate",
             "--algebra", "super_e2"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all axioms hold" in proc.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_141_quietly(self, unbuffered):
        # the reader is gone before the first write, as with `| head -2`
        # ending early; block-buffered output first fails in main's flush
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "superbialg.cli", "solve-cocycle",
                 "--algebra", "osp12"],
                stdout=write_fd, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_fd)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_import_loads_no_introspection_modules(self):
        # dataclasses would pull in inspect, ast, dis and tokenize at set-up
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, superbialg; print(sorted("
             "{'dataclasses', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_src_imports_only_the_stdlib(self):
        # the package declares `dependencies = []`: every absolute import
        # names a standard-library module; relative imports are its own
        package = Path(__file__).resolve().parents[1] / "src" / "superbialg"
        paths = sorted(package.glob("*.py"))
        assert paths
        outside = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                outside += [(path.name, name) for name in names if
                            name.split(".")[0] not in sys.stdlib_module_names]
        assert outside == []

    def test_python_dash_m_package(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superbialg", "validate",
             "--algebra", "osp12"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all axioms hold" in proc.stdout


# inputs with a zero denominator, a blank r-matrix, an r-matrix with a sign
# and no term after it, an unknown family parameter, or a family of the wrong
# kind (r-matrix vs cobracket) or of the other algebra, as (argv, file name,
# file text)
BAD_INPUTS = {
    "params-zero-denominator": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-a",
         "--params", "a=1/0"], None, None),
    "r-zero-denominator": (
        ["schouten", "--algebra", "osp12", "--r", "1/0 H^X+"], None, None),
    "r-blank": (["schouten", "--algebra", "osp12", "--r", "  "], None, None),
    "r-lone-sign": (["schouten", "--algebra", "osp12", "--r", "-"], None, None),
    "r-dangling-sign": (
        ["schouten", "--algebra", "osp12", "--r", "1 H^X+ +"], None, None),
    "cobracket-file-zero-denominator": (
        ["cobracket-check", "--algebra", "super_e2", "--cobracket-file"],
        "d.cob", "delta H = 1/0 P+^P-\n"),
    "alg-file-zero-denominator": (
        ["validate", "--file"], "bad.alg",
        "[algebra] name = bad\nbasis = H:even X+:even\n"
        "[brackets]\nH X+ = 1/0 X+\n"),
    "unknown-family-parameter": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-a",
         "--params", "a=1,b=2,zz=3"], None, None),
    "cobracket-check-r-matrix-family": (
        ["cobracket-check", "--algebra", "osp12", "--family", "osp-r1"],
        None, None),
    "schouten-cobracket-family": (
        ["schouten", "--algebra", "super_e2", "--family", "e2-case-a"],
        None, None),
    "coboundary-other-algebra-family": (
        ["coboundary", "--algebra", "osp12", "--family", "e2-r-ii"],
        None, None),
    "schouten-other-algebra-family": (
        ["schouten", "--algebra", "osp12", "--family", "e2-r-iii"],
        None, None),
    "family-irrational-root": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-a",
         "--params", "a=1,b=2"], None, None),
    "family-bad-branch": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-a",
         "--params", "branch=2"], None, None),
    "params-repeated-name": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-b",
         "--params", "c=1,c=0"], None, None),
    "schouten-params-without-family": (
        ["schouten", "--algebra", "super_e2", "--r", "1 H^P+",
         "--params", "a=1"], None, None),
    "coboundary-params-without-family": (
        ["coboundary", "--algebra", "osp12", "--r", "1 H^X+",
         "--params", "x=1"], None, None),
    "cobracket-file-with-params": (
        ["cobracket-check", "--algebra", "super_e2", "--params", "c=1",
         "--cobracket-file"], "d.cob", "delta H = 1 P+^P-\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(case, tmp_path):
    argv, name, text = BAD_INPUTS[case]
    if name is not None:
        path = tmp_path / name
        path.write_text(text)
        argv = argv + [str(path)]
    proc = subprocess.run([sys.executable, "-m", "superbialg.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


# two inputs for one role: the parser refuses the pair before any check runs
CONFLICTING_INPUTS = {
    "algebra-and-file": ["validate", "--algebra", "osp12", "--file", "super_e2"],
    "schouten-r-and-family": ["schouten", "--algebra", "super_e2",
                              "--r", "1 H^P+", "--family", "e2-r-a"],
    "coboundary-r-and-family": ["coboundary", "--algebra", "osp12",
                                "--r", "1 H^X+", "--family", "osp-r1"],
    "family-and-cobracket-file": ["cobracket-check", "--algebra", "super_e2",
                                  "--family", "e2-case-b",
                                  "--cobracket-file", "d.cob"],
}


def _parser_refusal(argv, cwd):
    """The one stderr line of a run the parser refuses: exit code 2, no
    output, no usage block, the line formatted as `main` reports errors."""
    proc = subprocess.run([sys.executable, "-m", "superbialg.cli", *argv],
                          capture_output=True, text=True, timeout=120, cwd=cwd)
    assert proc.returncode == 2
    assert proc.stdout == ""
    line, = proc.stderr.splitlines()
    assert line.startswith("error: ")
    return line


@pytest.mark.parametrize("case", sorted(CONFLICTING_INPUTS))
def test_conflicting_inputs_exit_2_without_traceback(case, tmp_path):
    (tmp_path / "d.cob").write_text("delta H = 1 P+^P-\n")
    line = _parser_refusal(CONFLICTING_INPUTS[case], tmp_path)
    assert "not allowed with argument" in line


@pytest.mark.parametrize("argv, words", [
    (["poisson", "--group", "osp"], "required: --structure"),
    (["nope"], "invalid choice: 'nope'"),
], ids=["missing-required-flag", "unknown-command"])
def test_parser_refusal_is_one_error_line(argv, words, tmp_path):
    assert words in _parser_refusal(argv, tmp_path)


# a number outside the grammar's integers and p/q, read from --params or an
# .alg file: exponent notation, which Fraction would expand digit by digit
# for minutes, and a decimal point, exit 2 at once with the bad-rational line
NOT_RATIONAL = {
    "params-exponent": (
        ["schouten", "--algebra", "osp12", "--family", "osp-r-a",
         "--params", "x=1e-99999999"], None, None,
        "error: bad rational in 'x=1e-99999999'"),
    "params-decimal": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-b",
         "--params", "c=1.5"], None, None, "error: bad rational in 'c=1.5'"),
    "alg-file-exponent": (
        ["validate", "--file"], "bad.alg",
        "[algebra] name = bad\nbasis = H:even X+:even\n"
        "[brackets]\nH X+ = 1e-99999999 X+\n",
        "error: line 4: bad rational '1e-99999999'"),
}


@pytest.mark.parametrize("case", sorted(NOT_RATIONAL))
def test_non_rational_number_exits_2_at_once(case, tmp_path):
    argv, name, text, line = NOT_RATIONAL[case]
    if name is not None:
        path = tmp_path / name
        path.write_text(text)
        argv = argv + [str(path)]
    proc = subprocess.run([sys.executable, "-m", "superbialg.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [line]


# unknown names exit 2 with the KeyError's message as written, unquoted
UNKNOWN_NAMES = {
    "group": (["poisson", "--group", "nope", "--structure", "1"],
              "error: unknown group 'nope'"),
    "structure": (["poisson", "--group", "osp", "--structure", "9"],
                  "error: unknown OSp structure '9' (1|2|3)"),
    "family": (["cobracket-check", "--algebra", "super_e2", "--family", "nope"],
               "error: unknown family 'nope'"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAMES))
def test_unknown_name_error_line(case, capsys):
    argv, line = UNKNOWN_NAMES[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == line + "\n"
    assert out == ""


@pytest.mark.parametrize("row", ["delta H = 1/0 P+^P-", "delta H = 1 Q^P+",
                                 "delta H = 1 P+ P-", "delta P+ = 1 H^P+",
                                 "delta H =", "delta H = 1 P+^P- -"],
                         ids=["zero-denominator", "unknown-basis-name",
                              "malformed-term", "duplicate-row", "blank-row",
                              "dangling-sign"])
def test_cobracket_file_errors_name_the_line(row, tmp_path):
    path = tmp_path / "d.cob"
    path.write_text(f"delta P+ = 1 P+^P-\n{row}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "superbialg.cli", "cobracket-check",
         "--algebra", "super_e2", "--cobracket-file", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 2:")
    assert "Traceback" not in proc.stderr


# the pieces the input grammars are spelt from: digits, operators, spaces
# and newlines, both algebras' basis names, the family variables, and the
# keywords of cobracket rows and .alg files.  Free text of these pieces is
# mostly refused at once, so each grammar also draws its own shape with
# free coefficients, to reach the checks behind the parser.
_NAMES = ["H", "P+", "P-", "D+", "D-", "X+", "X-", "V+", "V-"]
_PIECES = (list("0123456789/+-*^=#:, \n") + _NAMES
           + ["a", "b", "c", "d", "E", "s", "xi", "delta", "[algebra]",
              "[brackets]", "name", "basis", "even", "odd"])
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)
_NAME = st.sampled_from(_NAMES)
_COEFF = st.lists(st.sampled_from(list("0123456789/-* ") + ["c", "xi"]),
                  max_size=4).map("".join)
_WEDGE = st.one_of(_TEXT, st.lists(
    st.builds("{} {}^{}".format, _COEFF, _NAME, _NAME),
    min_size=1, max_size=4).map(" + ".join))
_COBRACKET_TEXT = st.one_of(_TEXT, st.lists(
    st.builds("delta {} = {}".format, _NAME, _WEDGE),
    max_size=5).map("\n".join))
_ALG_TEXT = st.one_of(_TEXT, st.builds(
    "[algebra] name = t\nbasis = {}\n[brackets]\n{}".format,
    st.lists(st.builds("{}:{}".format, _NAME, st.sampled_from(
        ["even", "odd"])), max_size=4).map(" ".join),
    st.lists(st.builds("{} {} = {} {}".format, _NAME, _NAME, _COEFF, _NAME),
             max_size=4).map("\n".join)))
_PARAMS = st.one_of(_TEXT, st.lists(
    st.builds("{}={}".format, st.sampled_from("abcd"), _COEFF),
    max_size=4).map(",".join))


class TestFuzzInputGrammars:
    """Text drawn from the grammars' own pieces exits 0, 1 or 2, never with
    a traceback; a refusal (2) is one `error: ` line on stderr."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    def _run(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:   # the parser's refusal
                assert exc.code == 2
                code = 2
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            line, = err.getvalue().splitlines()
            assert line.startswith("error: "), line

    def _run_on_file(self, path, text, *argv):
        path.write_text(text)
        self._run(*argv, str(path))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["osp12", "super_e2"]), _WEDGE)
    def test_schouten_r(self, name, text):
        self._run("schouten", "--algebra", name, f"--r={text}")

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["osp12", "super_e2"]), _WEDGE)
    def test_coboundary_r(self, name, text):
        self._run("coboundary", "--algebra", name, f"--r={text}")

    @settings(max_examples=60, deadline=None)
    @given(_COBRACKET_TEXT)
    def test_cobracket_file(self, workdir, text):
        self._run_on_file(workdir / "d.cob", text, "cobracket-check",
                          "--algebra", "super_e2", "--cobracket-file")

    @settings(max_examples=60, deadline=None)
    @given(_ALG_TEXT)
    def test_alg_file(self, workdir, text):
        self._run_on_file(workdir / "t.alg", text, "validate", "--algebra")

    @settings(max_examples=60, deadline=None)
    @given(_PARAMS)
    def test_family_params(self, text):
        self._run("cobracket-check", "--algebra", "super_e2",
                  "--family", "e2-case-b", f"--params={text}")
