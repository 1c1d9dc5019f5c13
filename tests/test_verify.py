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
from orbitseries import _suites
from orbitseries import rootsystems as rsys
from orbitseries import seriesdb as db
from orbitseries import verify
from orbitseries.exactpoly import PhiForm, ProductExpr, pexpr
from orbitseries.seriesdb import lookup
from orbitseries.verify import (FAIL, PASS, RECORDED, CheckResult, VerificationReport,
                                VerifyConfig, check_dims, check_gradings,
                                check_pointcounts, check_characters, check_universal,
                                run_all)


# the output contract: the full report is byte-identical across changes
REPORT_SHA256 = "70f3965573b5db5c3229049809324790e0653d992744072109def05e964a1abc"


def _failures(results):
    return [r for r in results if r.status == FAIL]


class TestSuites:
    def test_dims_clean(self):
        results = check_dims()
        assert results and not _failures(results)

    def test_g2_distinguished_diagram_has_dim_g0_equal_to_dim_g2(self, monkeypatch):
        # the folding checks read G2's orbit dimensions off a list of diagrams;
        # the one of dimension 10 is the distinguished G2(a1), which is even
        # with dim g0 = dim g2
        seen, dim = [], rsys.orbit_dim_from_diagram
        monkeypatch.setattr(rsys, "orbit_dim_from_diagram", lambda wd: seen.append(wd) or dim(wd))
        assert verify._g2_orbit_dims() == {0, 6, 8, 10, 12}
        [wd] = [wd for wd in seen if dim(wd) == 10]
        levels = rsys.grading_dims(wd)
        assert levels[0] == levels[2] == 4, wd.labels

    def test_gradings_clean(self):
        results = check_gradings()
        assert results and not _failures(results)

    def test_pointcounts_policy(self):
        results = check_pointcounts()
        assert not _failures(results)
        # a=1 reductions are recorded, never asserted
        a1 = [r for r in results if "a=1 reduction" in r.subject]
        assert a1 and all(r.status == RECORDED for r in a1)
        # every asserted quotient ratio is exactly 1
        ratios = [r for r in results if "group-order quotient" in r.subject
                  and r.status == PASS]
        assert ratios and all(r.lhs == "ratio 1" for r in ratios)

    def test_characters_policy(self):
        results = check_characters()
        assert not _failures(results)
        a1 = [r for r in results if "a=1" in r.subject and r.suite == "characters"]
        assert a1 and all(r.status == RECORDED for r in a1)
        pair = [r for r in results if "pair equality at first member" in r.subject]
        assert len(pair) == 5 and all(r.status == PASS for r in pair)
        eps = [r for r in results if "eps pair sum" in r.subject]
        assert len(eps) == 1 and eps[0].status == RECORDED

    def test_explicit_degree_equalities(self):
        results = check_characters()
        explicit = [r for r in results if "explicit degree" in r.subject]
        assert len(explicit) == 5
        assert all(r.status == PASS for r in explicit)

    def test_universal_records_offsets(self):
        results = check_universal()
        assert not _failures(results)
        sigma = [r for r in results if "corollary vs series" in r.subject]
        assert len(sigma) == 3
        assert all(r.status == RECORDED for r in sigma)
        offsets = {r.subject.split()[0]: r.note for r in sigma}
        assert "offset 3" in offsets["sigma_(1)"]
        assert "offset -3" in offsets["sigma_(3)"]
        assert "offset a+3" in offsets["sigma_Q"]

    def test_extension_cases(self):
        results = check_universal()
        sl = [r for r in results if "extend sl" in r.subject and
              "printed slope" in r.subject]
        assert sl and all(r.status == PASS for r in sl)
        so_sp = [r for r in results if ("extend so" in r.subject or
                                        "extend sp" in r.subject) and
                 "printed slope" in r.subject]
        assert so_sp and all(r.status == RECORDED for r in so_sp)


class TestReport:
    def test_full_run_no_failures(self):
        report = run_all()
        assert report.counts[FAIL] == 0
        assert report.exit_code == 0
        assert report.counts[PASS] > 800
        assert report.counts[RECORDED] > 50
        assert hashlib.sha256(report.as_json().encode()).hexdigest() == REPORT_SHA256

    def test_full_run_under_python_O(self):
        # -O strips every assert (the "assert False" shows it is in force),
        # so a check that rested on one would change the report
        code = ("import hashlib; from orbitseries.verify import run_all; "
                "assert False; "
                "print(hashlib.sha256(run_all().as_json().encode()).hexdigest())")
        src = str(Path(orbitseries.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        assert out.stdout.strip() == REPORT_SHA256

    @pytest.mark.parametrize("results", [
        None,
        (),
        (CheckResult("dims", 'a "quoted" \\ path\nnext line', PASS, "é", "x–y"),
         CheckResult("gradings", "tab\there", FAIL, "\\", '"', "dim g(a,1) – é\n"),
         CheckResult("errata", "", RECORDED, "", "")),
    ], ids=["full", "empty", "escapes"])
    def test_json_is_the_indenting_encoder_output(self, results):
        report = run_all() if results is None else VerificationReport(results)
        payload = {"results": [r._asdict() for r in report.results],
                   "summary": report.counts}
        assert report.as_json() == json.dumps(payload, indent=2, sort_keys=True)

    def test_order_int_refuses_a_fraction(self, monkeypatch):
        spec = next(m.ambient for rec in db.all_series() for m in rec.members)
        # _order_form is cached per spec, so the form itself is replaced
        monkeypatch.setattr(_suites, "_order_form", lambda _: pexpr(Fraction(7, 2)).phi_form(0))
        with pytest.raises(ArithmeticError, match="= 7/2 is not an integer"):
            _suites._order_int.__wrapped__(spec, 2)

    def test_determinism(self):
        cfg = VerifyConfig(suites=("dims", "gradings"))
        a = run_all(cfg).as_json()
        b = run_all(cfg).as_json()
        assert a == b

    def test_subset_config(self):
        report = run_all(VerifyConfig(suites=("dims",)))
        assert {r.suite for r in report.results} == {"dims"}

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_each_suite_alone_gives_a_nonempty_report(self, suite):
        report = run_all(VerifyConfig((suite,)))
        assert report.results and {r.suite for r in report.results} == {suite}

    @pytest.mark.parametrize("config, named", [
        (VerifyConfig(("dim",)), "unknown suite 'dim'"),
        (VerifyConfig(("dims", "Dims")), "unknown suite 'Dims'"),
        (VerifyConfig("dims"), "unknown suite 'd', 'i', 'm', 's'"),
        (VerifyConfig(a_values=(3,)), "unknown a 3"),
        (VerifyConfig(a_values=(2, 0, 16)), "unknown a 0, 16"),
    ], ids=["misspelt", "one-of-two", "bare-string", "a", "two-a"])
    def test_what_selects_nothing_is_refused(self, config, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}, not one of"):
            run_all(config)

    def test_cli_choices_are_the_suites_and_a_values(self):
        from orbitseries import cli
        [commands] = [a for a in cli.build_parser()._actions if a.dest == "command"]
        choices = {a.dest: a.choices for a in commands.choices["verify"]._actions}
        assert tuple(choices["suite"]) == verify.SUITES == VerifyConfig().suites
        assert tuple(choices["a"]) == verify.A_VALUES == VerifyConfig().a_values

    def test_text_rendering(self):
        report = run_all(VerifyConfig(suites=("errata",)))
        text = report.as_text()
        assert "recorded" in text
        assert all(r.status == RECORDED for r in report.results)

    def test_exit_code_on_failure(self):
        from orbitseries.verify import CheckResult, VerificationReport
        rep = VerificationReport((CheckResult("x", "s", FAIL, "1", "2"),))
        assert rep.exit_code == 1


class TestARange:
    @pytest.mark.parametrize("a", [1, 2, 4, 8])
    def test_asserted_checks_name_only_the_chosen_a(self, a):
        report = run_all(VerifyConfig(("pointcounts", "characters"), (a,)))
        asserted = [r for r in report.results if r.status != RECORDED]
        assert asserted and report.counts[FAIL] == 0
        named = {r.subject: set(re.findall(r"a=(\d+)", r.subject)) for r in asserted}
        assert {s: n for s, n in named.items() if n != {str(a)}} == {}

    @pytest.mark.parametrize("a", [1, 2, 4, 8])
    def test_recorded_checks_name_only_the_chosen_a(self, a):
        report = run_all(VerifyConfig(("characters",), (a,)))
        recorded = [r.subject for r in report.results if r.status == RECORDED]
        named = {s: set(re.findall(r"a=(\d+)", s)) for s in recorded}
        assert {s: n for s, n in named.items() if n - {str(a)}} == {}
        eps = [s for s in recorded if "eps pair sum" in s]
        assert len(eps) == (a == 8)

    def test_a1_asserts_only_the_f4_degrees(self):
        report = run_all(VerifyConfig(("pointcounts", "characters"), (1,)))
        assert report.counts == {PASS: 15, FAIL: 0, RECORDED: 37}
        asserted = [r.subject for r in report.results if r.status == PASS]
        assert all(s.startswith("f4:") and s.endswith("a=1 degree") for s in asserted)


@pytest.mark.parametrize("owner,route", [(ProductExpr, "expand"), (PhiForm, "polynomial")],
                         ids=["expand", "polynomial"])
def test_single_formula_pair_compares_two_routes(monkeypatch, owner, route):
    """e6:g.g3.gQ has one paired formula; its pair equality check compares the
    cyclotomic reduction with the division route, so corrupting either fails it."""
    rec = lookup("e6", "g.g3.gQ")
    assert [f.name for f in rec.characters if f.doubled_at is not None] == ["pair"]

    def pair_equality():
        [res] = [r for r in _suites._pair_equality_checks(rec, (2,))
                 if "pair equality" in r.subject]
        return res

    assert pair_equality().status == PASS
    original = getattr(owner, route)

    def corrupted(self, *a):
        value = original(self, *a)
        return (value[0] * 2, value[1]) if route == "expand" else value * 2

    monkeypatch.setattr(owner, route, corrupted)
    assert pair_equality().status == FAIL
