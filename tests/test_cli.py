import ast
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import orbitseries
from orbitseries import cli, serialize
from orbitseries.verify import VerifyConfig
from orbitseries.cli import main
from orbitseries.seriesdb import MASTER_POINTCOUNT, all_series, lookup, series_by_row


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_severi_row(self, capsys):
        code, out, _ = run(capsys, "list", "--row", "severi")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert "V" in lines[0] and "VV*" in lines[1]

    def test_all_rows(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert len(out.splitlines()) == 33


class TestShow:
    def test_show_record(self, capsys):
        code, out, _ = run(capsys, "show", "f4", "gQ^2")
        assert code == 0
        assert "18a+12" in out and "fundamental group: mixed" in out

    def test_unknown_series(self, capsys):
        code, _, err = run(capsys, "show", "f4", "bogus")
        assert code == 2
        assert "error" in err


class TestDiagram:
    def test_example_picture(self, capsys):
        code, out, _ = run(capsys, "diagram", "f4", "g.g3.gQ^2",
                           "--algebra", "e8")
        assert code == 0
        assert out.strip() == "2 0 0 0 1 0 1 / branch 0"

    def test_f4_picture(self, capsys):
        code, out, _ = run(capsys, "diagram", "f4", "g.g3.gQ^2",
                           "--algebra", "f4")
        assert out.strip() == "1 0 1 2"


@pytest.mark.parametrize("argv,message", [
    (("show", "f4", "nope"), "no series 'nope' in row 'f4'"),
    (("points", "e6", "g", "--a", "2"), "no series 'g' in row 'e6'"),
    (("diagram", "f4", "nope", "--algebra", "e7"), "no series 'nope' in row 'f4'"),
], ids=["show", "points", "diagram"])
def test_lookup_error_is_one_unquoted_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, name", [
    (("diagram", "f4", "g", "--algebra", ""), ""),
    (("diagram", "f4", "g", "--algebra", " "), " "),
    (("diagram", "f4", "g", "--algebra", "e"), "e"),
    (("diagram", "f4", "g", "--algebra", "sl"), "sl"),
    (("diagram", "f4", "g", "--algebra", "e8x"), "e8x"),
    (("grading", "f4", "g", "--algebra", "16"), "16"),
], ids=["empty", "blank", "no-rank", "sl-no-size", "trailing", "rank-only"])
def test_malformed_algebra_is_one_error_line(capsys, argv, name):
    assert run(capsys, *argv) == (2, "", f"error: unknown algebra {name!r}\n")


def test_algebra_outside_the_exceptional_row(capsys):
    code, out, err = run(capsys, "grading", "f4", "g", "--algebra", "g2")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


class TestGrading:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "grading", "f4", "gQ", "--algebra", "e7",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["1"] == 32 and data["2"] == 10


EXCEPTIONAL_ROW_LABELS = [(row, rec.label, {m.ambient.name for m in rec.members})
                          for row in ("f4", "e6") for rec in series_by_row(row)]


def test_diagram_and_grading_every_label_and_algebra(capsys):
    """Exit 0 or 2 and no traceback everywhere; on the algebras a row's members
    live in, exit 0, the orbit dimension of the table, and the output as
    frozen in the sha256 below."""
    digest = hashlib.sha256()
    for row, label, ambients in EXCEPTIONAL_ROW_LABELS:
        rec = lookup(row, label)
        for alg in ("f4", "e6", "e7", "e8", "sl6", "c3", "x9"):
            for cmd in ("diagram", "grading"):
                argv = [cmd, row, label, "--algebra", alg]
                code, out, err = run(capsys, *argv)
                assert code in (0, 2) and "Traceback" not in err, argv
                if alg not in ambients:
                    continue
                assert code == 0 and not err, argv
                digest.update(f"{argv}\n{out}".encode())
                if cmd == "grading":
                    a = next(m.a for m in rec.members if m.ambient.name == alg)
                    assert out.splitlines()[-1] == f"orbit dimension {rec.dim(a)}"
    assert digest.hexdigest() == \
        "4f84c634f978e1661e8b469f6552df1ddd66235ed09f359cd36bb8299c1b8ab2"


class TestPoints:
    def test_value_is_group_order_quotient(self, capsys):
        code, out, _ = run(capsys, "points", "f4", "g", "--a", "2", "--q", "2")
        assert code == 0
        # |E6(F_2)| / |K(F_2)|, frozen from the independent order computation
        assert out.strip() == "5081895"

    def test_polynomial_output(self, capsys):
        code, out, _ = run(capsys, "points", "f4", "g", "--a", "2")
        assert code == 0
        assert out.startswith("q^22")

    def test_huge_fourth_power_q(self, capsys):
        # 3^240 = (3^60)^4 is a fourth power far beyond the float range
        code, out, err = run(capsys, "points", "f4", "g", "--a", "1",
                             "--q", str(3 ** 240))
        assert code == 0 and not err
        # against the division route, which keeps the quarter powers of q
        num, den = (MASTER_POINTCOUNT / lookup("f4", "g").pointcount_Y).expand(1)
        assert Fraction(out.strip()) == num.eval_at(3 ** 240) / den.eval_at(3 ** 240)

    def test_huge_q_that_is_no_fourth_power(self, capsys):
        code, out, err = run(capsys, "points", "f4", "g", "--a", "1",
                             "--q", str(10 ** 401))
        assert code == 2 and not out
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("a,q", [(8, 3 ** 240), (2, 10 ** 401)],
                             ids=["a8-q3^240", "a2-q10^401"])
    def test_value_past_the_int_to_str_digit_limit(self, capsys, a, q):
        code, out, err = run(capsys, "points", "f4", "g", "--a", str(a),
                             "--q", str(q))
        assert code == 0 and not err
        limit = sys.get_int_max_str_digits()
        assert len(out) > limit
        sys.set_int_max_str_digits(0)
        try:
            value = Fraction(out.strip())
        finally:
            sys.set_int_max_str_digits(limit)
        num, den = (MASTER_POINTCOUNT / lookup("f4", "g").pointcount_Y).reduced(a)
        assert value == num.eval_at(q) / den.eval_at(q)

    def test_every_label_a_and_q_exits_cleanly(self, capsys):
        labels = [(row, rec.label) for row in ("f4", "e6")
                  for rec in series_by_row(row)]
        qs = (None, -1, 0, 1, 2, 16, 3 ** 240, 10 ** 401)
        for row, label in labels:
            for a in (1, 2, 4, 8):
                for q in qs:
                    argv = ["points", row, label, "--a", str(a)]
                    if q is not None:
                        argv += ["--q", str(q)]
                    code, _, err = run(capsys, *argv)
                    assert code in (0, 2), argv
                    assert "Traceback" not in err, argv


class TestVerify:
    def test_verify_subset_and_json(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "dims", "--json",
                           str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["fail"] == 0
        assert "passed" in out

    def test_verify_json_matches_text_counts(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run(capsys, "verify", "--suite", "gradings", "--json",
                           str(path))
        payload = json.loads(path.read_text())
        total = sum(payload["summary"].values())
        assert total == len(payload["results"])
        assert f"{payload['summary']['pass']} passed" in out

    @pytest.mark.parametrize("args, want", [
        *((f"--suite {suite}", 0) for suite in VerifyConfig().suites),
        *((f"--a {a}", 0) for a in (1, 2, 4, 8)),
        ("--suite bogus", 2),
        ("--a 3", 2)])
    def test_exit_codes(self, capsys, args, want):
        code, out, err = run(capsys, "verify", *args.split())
        assert code == want and "Traceback" not in err
        if want == 0:
            assert out.splitlines()[-1].split(", ")[1] == "0 failed"
        else:
            assert "invalid choice" in err


class TestExport:
    def test_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "registry.json"
        code, _, _ = run(capsys, "export", "--format", "json", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert serialize.registry_from_json(data) == all_series()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "278d77af96a506e615afa901e6eb0aba11d4f33382de28f138c87e0c0777818e"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "export", "--format", "csv")
        assert code == 0
        header, *rows = [l for l in out.splitlines() if l]
        assert header.startswith("row,label")
        assert len(rows) == sum(len(r.members) for r in all_series())

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "export", "--format", "latex")
        assert code == 0
        assert out.count(r"\begin{array}") == 33
        assert r"\dim O_a = 6a+10" in out


BENCH_REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references.json"


def test_outputs_match_benchmark_references(capsys):
    """Every non-verify argv of the benchmark's cli workload, run in process:
    exit code and stdout sha256 as bench/references.json records them, so a
    change to any printed byte fails here first."""
    refs = json.loads(BENCH_REFERENCES.read_text(encoding="utf-8"))
    argvs = [argv for slot, group in refs["cli_space"].items()
             if not slot.startswith("verify") for argv in group]
    assert len(argvs) == 687
    changed = []
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        got = {"rc": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        if got != refs["cli"][" ".join(argv)]:
            changed.append(argv)
    assert not changed


class TestUsage:
    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, capsys):
        assert main(["points", "f4", "g", "--a", "3"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["grading", "f4", "g", "--a", "16"], "the following arguments are required: --algebra"),
        (["verify", "--suite", "gradings", "--j", "PATH"], "unrecognized arguments: --j"),
    ], ids=["grading-a", "verify-j"])
    def test_long_options_are_not_abbreviated(self, capsys, tmp_path, argv, message):
        # --a is not taken for --algebra, nor --j for --json
        path = tmp_path / "r.json"
        code, out, err = run(capsys, *(str(path) if a == "PATH" else a for a in argv))
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("usage: orbitseries") and f"error: {message}" in err

    @pytest.mark.parametrize("argv", [["verify", "--suite", "dims", "--json"],
                                      ["export", "--format", "csv", "--out"]],
                             ids=["verify-json", "export-out"])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "r.out"))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


# -- the process entry: `python -m orbitseries.cli` and the installed script ---

SRC = str(Path(orbitseries.__file__).parent.parent)
CLI_SOURCE = Path(cli.__file__)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_process(*args, timeout=300):
    """One fresh interpreter with the package's source tree on PYTHONPATH."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=timeout)


class TestProcessEntry:
    def test_verify_report(self, tmp_path):
        from test_verify import REPORT_SHA256
        path = tmp_path / "report.json"
        out = run_process("-m", "orbitseries.cli", "verify", "--json", str(path))
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256
        assert out.stdout.splitlines()[-1] == "-- 937 passed, 0 failed, 95 recorded"

    def test_export_json(self, tmp_path):
        path = tmp_path / "registry.json"
        out = run_process("-m", "orbitseries.cli", "export", "--format", "json",
                          "--out", str(path))
        assert out.returncode == 0, out.stderr
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "278d77af96a506e615afa901e6eb0aba11d4f33382de28f138c87e0c0777818e"

    def test_unknown_series_is_one_error_line(self):
        out = run_process("-m", "orbitseries.cli", "show", "f4", "nosuch")
        assert out.returncode == 2 and out.stdout == ""
        assert "Traceback" not in out.stderr
        assert [l.startswith("error:") for l in out.stderr.splitlines()] == [True]

    def test_run_as_main_freezes_the_heap(self):
        # as bench/child.py runs the module
        script = (
            "import contextlib, gc, io, json, runpy, sys\n"
            "sys.argv = ['orbitseries', 'list']\n"
            "before = gc.get_freeze_count()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        runpy.run_module('orbitseries.cli', run_name='__main__', alter_sys=True)\n"
            "    except SystemExit as e:\n"
            "        code = e.code\n"
            "print(json.dumps([code, before, gc.get_freeze_count()]))\n")
        out = run_process("-c", script, timeout=120)
        assert out.returncode == 0, out.stderr
        code, before, after = json.loads(out.stdout)
        assert code == 0 and before == 0 and after > 0

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        code, out, _ = run(capsys, "list")
        assert code == 0 and out
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_console_script_is_the_main_block_entry(self):
        # [project.scripts] orbitseries names what `python -m orbitseries.cli` calls
        text = PYPROJECT.read_text(encoding="utf-8")
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
        named = re.findall(r'^orbitseries\s*=\s*"orbitseries\.cli:(\w+)"\s*$',
                           scripts.group(1), re.M)
        block, = [node for node in ast.parse(CLI_SOURCE.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.If) and ast.unparse(node.test) ==
                  "__name__ == '__main__'"]
        called = [node.func.id for node in ast.walk(block)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id != "SystemExit"]
        assert named == called == ["run"]
        assert callable(getattr(cli, named[0]))
