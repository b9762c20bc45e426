"""Tests for the command-line front end (exit codes and report formats)."""

import hashlib
import os
import subprocess
import sys

import pytest

from superbialg.cli import main
from superbialg.claims import data_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        path.write_text("[algebra] name = bad\nbasis = H:even X:even Y:even\n"
                        "[brackets]\nH X = 1 X\nH Y = 1 Y\nX Y = 1 H\n")
        code, out, err = run_cli(capsys, "validate", "--file", str(path))
        assert code == 1

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

    def test_cobracket_file(self, capsys, tmp_path):
        path = tmp_path / "d.cob"
        path.write_text("delta H = 1 P+^P-\n")
        code, out, _ = run_cli(capsys, "cobracket-check",
                               "--algebra", "super_e2",
                               "--cobracket-file", str(path))
        assert code == 0


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
        code, _, err = run_cli(capsys, "verify-paper", "--filter", "zzz")
        assert code == 2

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

    def test_python_dash_m_package(self):
        proc = subprocess.run(
            [sys.executable, "-m", "superbialg", "validate",
             "--algebra", "osp12"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "all axioms hold" in proc.stdout


# inputs with a zero denominator or an unknown family parameter, as
# (argv, file name, file text)
BAD_INPUTS = {
    "params-zero-denominator": (
        ["cobracket-check", "--algebra", "super_e2", "--family", "e2-case-a",
         "--params", "a=1/0"], None, None),
    "r-zero-denominator": (
        ["schouten", "--algebra", "osp12", "--r", "1/0 H^X+"], None, None),
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


@pytest.mark.parametrize("row", ["delta H = 1/0 P+^P-", "delta H = 1 Q^P+",
                                 "delta H = 1 P+ P-"],
                         ids=["zero-denominator", "unknown-basis-name",
                              "malformed-term"])
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
