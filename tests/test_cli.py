"""Command-line interface: exit codes, output formats, determinism."""

import json
import subprocess
import sys

import pytest

from dendralg import STANDARD_SELECTORS, SUITES, Options, SuiteReport, run_suites
from dendralg.cli import _emit_reports, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopLevel:
    def test_no_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "verify" in capsys.readouterr().out

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestListSuites:
    def test_catalogue(self, capsys):
        code, out, _ = run(capsys, "list-suites")
        assert code == 0
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(SUITES) == 11
        for name in SUITES:
            assert any(line.startswith(name) for line in lines)


class TestVerify:
    def test_single_suite_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census")
        assert code == 0
        assert out.startswith("[pass] census")

    def test_single_suite_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        (report,) = payload["reports"]
        assert report["suite"] == "census"
        assert report["status"] == "pass"
        assert report["checks"] > 0
        assert "counterexample" not in report

    def test_json_is_deterministic_up_to_timing(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify", "--suite", "pbw", "--n", "3",
                            "--format", "json")
            payload = json.loads(out)
            for report in payload["reports"]:
                report["elapsed_ms"] = 0
            outputs.append(payload)
        assert outputs[0] == outputs[1]

    def test_structure_and_n_options(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "spitzer",
                           "--structure", "shuffle", "--n", "3",
                           "--format", "json")
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["structure"] == "shuffle"
        assert report["params"]["n"] == 3
        assert report["checks"] == 2

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_unknown_structure(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "axioms",
                           "--structure", "klein-bottle")
        assert code == 2
        assert "klein-bottle" in err

    def test_bad_theta(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "axioms",
                           "--theta", "one-half")
        assert code == 2


class TestEmitReports:
    def make_report(self, status, counterexample=None):
        return SuiteReport(suite="demo", structure="shuffle", params={"n": 2},
                           status=status, checks=1,
                           counterexample=counterexample, elapsed_ms=1)

    def test_failing_report_sets_exit_code(self, capsys):
        ce = {"check": "closure", "lhs": "x1", "rhs": "0", "difference": "x1"}
        code = _emit_reports([self.make_report("fail", ce)], "text")
        out = capsys.readouterr().out
        assert code == 1
        assert "[fail]" in out
        assert "closure" in out and "difference" in out

    def test_mixed_reports_fail(self, capsys):
        reports = [self.make_report("pass"),
                   self.make_report("fail", {"check": "c", "lhs": "1",
                                             "rhs": "0"})]
        assert _emit_reports(reports, "json") == 1
        payload = json.loads(capsys.readouterr().out)
        statuses = [r["status"] for r in payload["reports"]]
        assert statuses == ["pass", "fail"]


class TestCensusCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3")
        assert code == 0
        assert "(1, 1, 1)" in out and "count=1" in out
        assert "total 6 permutations over 4 compositions" in out
        assert "formula matches" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 24
        assert payload["matches_formula"] is True
        assert len(payload["rows"]) == 8

    def test_rejects_zero(self, capsys):
        code, _, err = run(capsys, "census", "--n", "0")
        assert code == 2
        assert "census" in err


class TestPBWCommand:
    def test_default_beta_is_the_reversal(self, capsys):
        code, out, _ = run(capsys, "pbw", "--n", "3")
        assert code == 0
        assert "beta = (3, 2, 1)" in out
        assert "equals x1..x3: yes" in out

    def test_beta_spellings_agree(self, capsys):
        _, long_form, _ = run(capsys, "pbw", "--beta", "2,1,3")
        _, compact, _ = run(capsys, "pbw", "--beta", "213")
        assert long_form == compact

    def test_json(self, capsys):
        code, out, _ = run(capsys, "pbw", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["matches_word"] is True
        assert payload["beta"] == [2, 1]

    def test_invalid_permutation(self, capsys):
        code, _, err = run(capsys, "pbw", "--beta", "1,3")
        assert code == 2

    def test_rejects_empty(self, capsys):
        code, _, err = run(capsys, "pbw", "--n", "0")
        assert code == 2


class TestMagnusCommand:
    def test_emit_omega(self, capsys):
        code, out, _ = run(capsys, "magnus", "--structure", "free",
                           "--cap", "3", "--emit-omega")
        assert code == 0
        assert "[pass] magnus" in out
        assert "omega coefficients for free (cap 3):" in out
        assert "t^1:" in out and "t^3:" in out

    def test_emit_omega_uses_the_suite_default_cap(self, capsys):
        code, out, _ = run(capsys, "magnus", "--structure", "mr",
                           "--emit-omega")
        assert code == 0
        assert "cap=6" in out and "omega coefficients for mr (cap 6):" in out
        lines = [line.split(":")[0].strip() for line in out.splitlines()
                 if line.startswith("  t^")]
        assert lines == [f"t^{d}" for d in range(1, 7)]


class TestExpandCommand:
    @pytest.mark.parametrize("op", ["w-right", "w-left", "ell", "r", "dynkin",
                                    "antipode", "comp-right", "comp-left"])
    def test_each_operation_runs(self, capsys, op):
        code, out, _ = run(capsys, "expand", "--structure", "shuffle",
                           "--op", op, "--n", "2")
        assert code == 0
        assert f"{op}(2):" in out

    def test_iterated_ops_need_positive_n(self, capsys):
        code, _, err = run(capsys, "expand", "--structure", "shuffle",
                           "--op", "ell", "--n", "0")
        assert code == 2

    def test_unknown_op_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["expand", "--structure", "shuffle", "--op", "frob",
                  "--n", "2"])
        assert info.value.code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "expand", "--structure", "max",
                           "--op", "w-right", "--n", "3",
                           "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["op"] == "w-right"
        assert payload["element"]


class TestExitCodeContract:
    """0 = every check passed, 1 = counterexample, 2 = usage error."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "census", "--n", "0"),
        ("verify", "--suite", "pbw", "--n", "-2"),
        ("verify", "--suite", "axioms", "--degree", "0"),
        ("verify", "--suite", "magnus", "--cap", "0"),
        ("magnus", "--cap", "-1"),
    ])
    def test_sizes_below_one_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "must be >= 1" in err
        assert out == ""

    def test_jobs_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "census", "--jobs", "2"])
        assert info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_zero_division_in_selector_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "axioms",
                           "--structure", "rb-seqmat:theta=1/0")
        assert code == 2
        assert "rb-seqmat:theta=1/0" in err

    def test_no_traceback_from_the_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dendralg", "magnus", "--structure",
             "rb-seqmat:theta=1/0"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("suite", ["rb-nested", "rb-spitzer"])
    def test_operator_suite_on_a_word_structure(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--structure", "shuffle")
        assert code == 2
        assert "operator structure" in err
        assert out == ""

    def test_all_suites_skip_the_operator_ones_for_a_word_structure(self, capsys):
        code, out, _ = run(capsys, "verify", "--structure", "shuffle",
                           "--n", "2", "--degree", "3", "--cap", "3",
                           "--format", "json")
        suites = {rep["suite"] for rep in json.loads(out)["reports"]}
        assert code == 0
        assert not suites & {"rb-nested", "rb-spitzer"}
        assert "axioms" in suites and "magnus" in suites

    def test_zero_check_report_is_not_a_pass(self):
        (report,) = run_suites(["pbw"], Options(n=0))
        assert report.checks == 0
        assert report.status == "fail"
        assert _emit_reports([report], "json") == 1

    def test_zero_check_report_from_the_command_line(self, capsys):
        """A degree bound that admits no axiom triple is refused up front."""
        code, out, err = run(capsys, "verify", "--suite", "axioms",
                             "--structure", "mr", "--degree", "2")
        assert code == 2
        assert out == "" and "--degree >= 3" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "axioms", "--degree", "2"),
        ("verify", "--degree", "1"),
        ("verify", "--suite", "axioms", "--structure", "free", "--degree", "1"),
    ])
    def test_axioms_degree_below_the_graded_floor(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "axioms needs --degree >= 3" in err

    @pytest.mark.parametrize("structure,degree,checks", [
        ("rb-polymat:k=2", 1, 768),
        ("rb-polymat:k=2", 2, 1920),
        ("rb-polymat:k=1", 2, 30),
        ("rb-seqmat:theta=1,k=1,N=2", 1, 24),
        ("rb-seqmat:theta=1,k=1,N=2", 2, 24),
    ])
    def test_axioms_at_low_degree_on_operator_structures(self, capsys,
                                                          structure, degree,
                                                          checks):
        code, out, _ = run(capsys, "verify", "--suite", "axioms",
                           "--structure", structure, "--degree", str(degree),
                           "--format", "json")
        (report,) = json.loads(out)["reports"]
        assert code == 0
        assert (report["status"], report["checks"]) == ("pass", checks)

    def test_explicit_size_is_not_replaced_by_the_default(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census", "--n", "1",
                           "--format", "json")
        (report,) = json.loads(out)["reports"]
        assert code == 0
        assert report["params"]["n"] == 1 and report["checks"] == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "magnus", "--structure", "free", "--cap", "2"),
        ("magnus", "--structure", "free", "--cap", "1", "--emit-omega"),
        ("verify", "--suite", "rb-spitzer", "--structure", "rb-polymat:k=1",
         "--n", "1"),
    ])
    def test_small_sizes_run_cleanly(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "[pass]" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dendralg", "verify", "--suite", "census"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "[pass] census" in proc.stdout


# -- outcomes pinned before the suite layer was merged -----------------------

def _outcomes(out: str) -> list:
    return [(rep["suite"], rep["structure"], rep["params"], rep["status"],
             rep["checks"]) for rep in json.loads(out)["reports"]]


# `verify --theta 2/3 --n 2 --degree 3 --cap 3`
THETA_OUTCOMES = [
    ('axioms', 'free', {'degree': 3}, 'pass', 3),
    ('axioms', 'max', {'degree': 3}, 'pass', 81),
    ('axioms', 'max-rev', {'degree': 3}, 'pass', 81),
    ('axioms', 'mr', {'degree': 3}, 'pass', 3),
    ('axioms', 'rb-polymat:k=2', {'degree': 3}, 'pass', 3840),
    ('axioms', 'rb-seqmat:theta=2/3,k=2,N=4', {'degree': 3}, 'pass', 12288),
    ('axioms', 'shuffle', {'degree': 3}, 'pass', 81),
    ('census', 'permutations', {'cfl_n': 2, 'n': 2}, 'pass', 6),
    ('convolution', 'max', {'n': 2}, 'pass', 5),
    ('convolution', 'words', {'n': 2}, 'pass', 4),
    ('dynkin-prelie', 'free', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'max', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'max-rev', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'mr', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'rb-polymat:k=2', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'rb-seqmat', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'shuffle', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'words', {'n': 2}, 'pass', 4),
    ('magnus', 'free', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'max', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'max-rev', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'mr', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'rb-polymat:k=2', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'rb-seqmat', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'shuffle', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('pbw', 'words', {'n': 2}, 'pass', 3),
    ('power-sums', 'free', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'max', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'max-rev', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'mr', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'rb-polymat:k=2', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'rb-seqmat', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'shuffle', {'n': 2, 'seed': 0}, 'pass', 4),
    ('prelie-laws', 'free', {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('prelie-laws', 'max', {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('prelie-laws', 'max-rev', {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('prelie-laws', 'mr', {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('prelie-laws', 'rb-polymat:k=2',
     {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('prelie-laws', 'rb-seqmat:theta=2/3,k=2,N=4',
     {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('prelie-laws', 'shuffle', {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('rb-nested', 'rb-polymat:k=2', {'n': 2, 'seed': 0}, 'pass', 2),
    ('rb-nested', 'rb-seqmat:theta=2/3,k=2,N=4', {'n': 2, 'seed': 0}, 'pass', 2),
    ('rb-spitzer', 'rb-polymat:k=1', {'n': 2, 'seed': 0}, 'pass', 4),
    ('rb-spitzer', 'rb-seqmat:theta=1,k=1,N=5', {'n': 2, 'seed': 0}, 'pass', 4),
    ('spitzer', 'max', {'n': 2, 'seed': 0}, 'pass', 2),
    ('spitzer', 'mr', {'n': 2, 'seed': 0}, 'pass', 2),
    ('spitzer', 'rb-polymat:k=2', {'n': 2, 'seed': 0}, 'pass', 2),
    ('spitzer', 'rb-seqmat', {'n': 2, 'seed': 0}, 'pass', 2),
    ('spitzer', 'shuffle', {'n': 2, 'seed': 0}, 'pass', 2),
]


def test_theta_run_keeps_its_reports(capsys):
    code, out, _ = run(capsys, "verify", "--theta", "2/3", "--n", "2",
                       "--degree", "3", "--cap", "3", "--format", "json")
    assert code == 0
    assert _outcomes(out) == THETA_OUTCOMES


def test_spitzer_on_free_keeps_its_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spitzer", "--structure",
                       "free", "--n", "3", "--format", "json")
    assert code == 0
    assert _outcomes(out) == [("spitzer", "free", {"n": 3, "seed": 0},
                               "pass", 2)]


GENERATOR_LINES = {
    "shuffle": "x1",
    "max": "x1 + x2",
    "max-rev": "x1 + x2",
    "mr": "p1",
    "free": "(^)",
    "rb-seqmat:theta=1,k=2,N=4": "1/4*E2[2,1] - 4/3*E4[1,1] + E4[2,2]",
    "rb-polymat:k=2": "1/4*E[2,2] - 4/3*x^1E[2,1] + x^1E[2,2]",
}


@pytest.mark.parametrize("selector", STANDARD_SELECTORS)
def test_expand_generator_line(capsys, selector):
    code, out, _ = run(capsys, "expand", "--structure", selector,
                       "--op", "w-right", "--n", "1")
    assert code == 0
    assert out.splitlines()[0] == f"generator: {GENERATOR_LINES[selector]}"


@pytest.mark.parametrize("argv,cli_builds,suite_builds", [
    (("verify", "--suite", "spitzer", "--structure", "mr", "--n", "3"), 1, 1),
    (("verify", "--structure", "free", "--n", "2", "--degree", "3",
      "--cap", "3"), 1, 6),
    (("magnus", "--structure", "free", "--cap", "3", "--emit-omega"), 1, 1),
])
def test_structure_is_built_once_per_report(capsys, monkeypatch, argv,
                                            cli_builds, suite_builds):
    """The command line builds --structure once; each report builds its own."""
    from dendralg import cli, suites
    builds = {"cli": 0, "suites": 0}
    for name, module in (("cli", cli), ("suites", suites)):
        def counted(*args, _name=name, _fn=module.from_selector, **kwargs):
            builds[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "from_selector", counted)
    code, out, _ = run(capsys, *argv)
    structure = argv[argv.index("--structure") + 1]
    on_it = [line for line in out.splitlines()
             if line.startswith("[pass]") and line.split()[2] == structure]
    assert code == 0
    assert len(on_it) == suite_builds
    assert builds == {"cli": cli_builds, "suites": suite_builds}
