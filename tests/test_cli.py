"""Command-line interface: exit codes, output formats, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import dendralg
from dendralg import (
    STANDARD_SELECTORS, SUITES, Options, SuiteReport, from_selector, run_suites,
)
from dendralg.cli import (
    EXPAND_OPS, UsageError, _build_parser, _emit_reports, _options, main,
)
from dendralg.suites import SUITE_OPTIONS
from test_golden_verify import REQUESTS as GOLDEN_REQUESTS


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
        """An empty suite name used to run every suite."""
        for name in ("nope", ""):
            code, out, err = run(capsys, "verify", "--suite", name)
            assert code == 2 and out == ""
            assert err.startswith(f"dendralg: unknown suite {name!r}")

    def test_unknown_structure(self, capsys):
        """An empty selector used to be taken as no selector at all."""
        for selector in ("klein-bottle", ""):
            code, out, err = run(capsys, "verify", "--suite", "axioms",
                                 "--structure", selector)
            assert code == 2 and out == ""
            assert err.startswith(f"dendralg: bad structure {selector!r}")

    @pytest.mark.parametrize("selector, label", [
        ("rb-seqmat:θ=2/4,N=2,k=1", "rb-seqmat:theta=1/2,k=1,N=2"),
        (" mr", "mr"),
    ])
    def test_a_structure_is_labelled_with_its_canonical_selector(
            self, capsys, selector, label):
        """One structure, one label: a respelled selector used to label its
        report with the raw text, and still did for a library caller."""
        code, out, _ = run(capsys, "verify", "--suite", "power-sums",
                           "--structure", selector, "--n", "2",
                           "--format", "json")
        (report,) = json.loads(out)["reports"]
        assert code == 0 and report["structure"] == label
        (report,) = run_suites(["power-sums"], Options(structure=selector, n=1))
        assert report.status == "pass" and report.structure == label
        code, out, _ = run(capsys, "expand", "--structure", selector,
                           "--op", "w-right", "--n", "2", "--format", "json")
        assert code == 0 and json.loads(out)["structure"] == label


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


class TestMagnusCommand:
    """The magnus subcommand is gone: its checks are verify --suite magnus
    and its --emit-omega lines are expand --op omega.  So are census and
    pbw, whose one case each is a case of verify --suite census or pbw."""

    # `magnus --structure free --cap 3 --emit-omega` before the fold
    EMITTED = (
        "(^)",
        "-1/2*(^(^)) + 1/2*((^)^)",
        "1/3*(^(^(^))) - 1/6*(^((^)^)) - 1/6*((^)^(^)) - 1/6*((^(^))^)"
        " + 1/3*(((^)^)^)",
    )

    def test_emit_omega(self, capsys):
        for d, line in enumerate(self.EMITTED, start=1):
            code, out, _ = run(capsys, "expand", "--structure", "free",
                               "--op", "omega", "--n", str(d))
            assert code == 0
            assert out.splitlines()[1] == f"omega({d}): {line}"

    def test_emit_omega_uses_the_suite_default_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "magnus",
                           "--structure", "mr")
        assert code == 0
        assert out.startswith("[pass] magnus") and "cap=6" in out

    def test_the_subcommand_is_a_usage_error(self, capsys):
        for argv in (("magnus", "--structure", "free"), ("census", "--n", "3"),
                     ("pbw", "--beta", "2,1")):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            err = capsys.readouterr().err
            assert info.value.code == 2
            assert f"invalid choice: '{argv[0]}'" in err
            assert "Traceback" not in err


class TestExpandCommand:
    @pytest.mark.parametrize("op", ["w-right", "w-left", "ell", "r", "dynkin",
                                    "antipode", "comp-right", "comp-left",
                                    "omega"])
    def test_each_operation_runs(self, capsys, op):
        code, out, _ = run(capsys, "expand", "--structure", "shuffle",
                           "--op", op, "--n", "2")
        assert code == 0
        assert f"{op}(2):" in out

    def test_iterated_ops_need_positive_n(self, capsys):
        code, _, err = run(capsys, "expand", "--structure", "shuffle",
                           "--op", "ell", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("op", EXPAND_OPS)
    def test_n_below_the_floor_names_the_floor(self, capsys, op):
        """The message used to give every op the floor 1, though the ops
        other than ell, r and dynkin run at --n 0."""
        floor = 1 if op in ("ell", "r", "dynkin") else 0
        code, out, err = run(capsys, "expand", "--structure", "mr",
                             "--op", op, "--n", str(floor - 1))
        assert code == 2 and out == ""
        assert err == f"dendralg: op {op} needs --n >= {floor}\n"
        code, out, _ = run(capsys, "expand", "--structure", "mr",
                           "--op", op, "--n", str(floor))
        assert code == 0 and f"{op}({floor}):" in out

    def test_theta_is_a_usage_error(self, capsys):
        """A structure states its weight in its selector alone: neither
        expand nor verify has a --theta."""
        for argv, theta in (
                (["expand", "--structure", "free", "--op", "w-right",
                  "--n", "2"], "5"),
                (["verify"], "2/3")):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--theta", theta])
            err = capsys.readouterr().err
            assert info.value.code == 2
            assert f"unrecognized arguments: --theta {theta}" in err
            assert "Traceback" not in err

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
        ("verify", "--suite", "magnus", "--structure", "free", "--cap", "-1"),
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

    def test_typographic_minus_in_selector_parses_like_theta(self, capsys):
        """A selector's theta= reads a typographic minus as a minus sign."""
        code, out, _ = run(capsys, "verify", "--suite", "spitzer", "--n", "2",
                           "--structure", "rb-seqmat:theta=−1,k=1,N=3",
                           "--format", "json")
        (report,) = json.loads(out)["reports"]
        assert code == 0
        assert report["status"] == "pass"

    @pytest.mark.parametrize("selector", [
        "rb-seqmat:k=1,k=2,N=3",
        "rb-seqmat:theta=1,N=3,θ=0,k=1",
    ], ids=["k-twice", "theta-twice"])
    def test_repeated_selector_parameter_is_a_usage_error(self, capsys,
                                                          selector):
        code, out, err = run(capsys, "verify", "--suite", "spitzer",
                             "--n", "2", "--structure", selector)
        assert code == 2
        assert out == "" and "repeats parameter" in err

    def test_an_oversized_carrier_is_refused_at_once(self, capsys):
        """The weight check listed all N k^2 carrier keys before sampling
        pairs, so this ran until killed."""
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "axioms",
                             "--structure", f"rb-seqmat:theta=1,k={10**8},N=4")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("dendralg: bad structure")
        assert err.count("\n") == 1 and "40000000000000000 keys" in err

    def test_a_long_sequence_carrier_is_refused_at_once(self):
        """4,096 keys pass the key cap, but the weight check on N = 4096
        took 40 s; the carrier is refused before it is built."""
        start = time.perf_counter()
        proc = _python("-m", "dendralg", "verify", "--suite", "rb-nested",
                       "--structure", "rb-seqmat:theta=1,k=1,N=4096",
                       capture_output=True, text=True)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("dendralg: bad structure")
        assert "more than 256 positions" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_no_traceback_from_the_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dendralg", "verify", "--structure",
             "rb-seqmat:theta=1/0"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr.startswith("dendralg: bad structure")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("selector", [
        "rb-seqmat:theta=1,k=2,N=8", "rb-seqmat:theta=2/3,k=3,N=7",
        "rb-seqmat:theta=-1,k=2,N=12",
    ])
    def test_rb_spitzer_runs_no_commutative_checks_on_matrices(self, capsys,
                                                               selector):
        """k x k matrices with k >= 2 do not commute, so only the two R-image
        checks apply; deciding that from sampled key pairs ran the
        commutative-carrier checks on these and failed them."""
        code, out, _ = run(capsys, "verify", "--suite", "rb-spitzer",
                           "--structure", selector, "--n", "3",
                           "--format", "json")
        (report,) = json.loads(out)["reports"]
        assert code == 0 and report["checks"] == 2

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

    def test_operator_suite_on_a_word_structure_fails_without_checks(self):
        """The library runs what the command line refuses, and fails it."""
        (report,) = run_suites(["rb-nested"], Options(structure="shuffle"))
        assert (report.suite, report.structure) == ("rb-nested", "shuffle")
        assert report.status == "fail" and report.checks == 0
        assert report.counterexample["check"] == "structure is operator-induced"

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
        ("verify", "--suite", "magnus", "--structure", "mr", "--cap", "1"),
        ("verify", "--suite", "rb-spitzer", "--structure", "rb-polymat:k=1",
         "--n", "1"),
    ])
    def test_small_sizes_run_cleanly(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "[pass]" in out


class TestUnreadOptions:
    """verify refuses an option that no requested suite reads, where it
    used to run and print params that hid the ignored value."""

    @pytest.mark.parametrize("argv, error", [
        pytest.param(("--suite", "magnus", "--structure", "mr", "--n", "99",
                      "--degree", "99"),
                     "suite magnus does not read --n", id="argv0---n"),
        pytest.param(("--suite", "census", "--structure", "mr", "--cap", "99"),
                     "suite census does not read --structure",
                     id="argv1---structure"),
        pytest.param(("--suite", "convolution", "--structure", "free",
                      "--degree", "9"),
                     "suite convolution does not read --structure",
                     id="argv2---structure"),
        pytest.param(("--suite", "rb-spitzer", "--theta", "2/3"),
                     "error: unrecognized arguments: --theta 2/3",
                     id="argv3---theta"),
    ])
    def test_unread_option_is_a_usage_error(self, capsys, argv, error):
        """verify has no --theta at all: argparse refuses it after its
        usage line, where a suite's refusal is its one line."""
        try:
            code = main(["verify", *argv])
        except SystemExit as exit:
            code = exit.code
        out, err = capsys.readouterr()
        *usage, last = err.splitlines()
        assert code == 2 and out == "" and last == f"dendralg: {error}"
        assert len(usage) == (1 if "unrecognized" in error else 0)
        assert "Traceback" not in err


# a value for each option of SUITE_OPTIONS that changes what a suite reading
# it would run
OPTION_VALUES = {"structure": "rb-polymat:k=1", "n": 2, "degree": 4, "cap": 3}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_options_declare_what_each_suite_reads(suite):
    """An option a suite declares changes the label or params of one of its
    reports; any other option changes none.  Report makers are compared
    unrun."""
    def plan(**option):
        return [maker.args[1:3] for maker in SUITES[suite][0](Options(**option))]

    default = plan()
    for name, value in OPTION_VALUES.items():
        assert (plan(**{name: value}) != default) == \
            (name in SUITE_OPTIONS[suite]), name


@pytest.mark.parametrize("suite", [suite for suite in SUITES
                                   if "structure" in SUITE_OPTIONS[suite]])
def test_each_default_selector_is_canonical(suite):
    """A default structure's label is the name of the structure it builds,
    so a default and its --structure spelling share one label."""
    # a structure report's maker is partial(_report, suite, label, params,
    # body, True); a structure-free one has no fifth argument
    labels = [maker.args[1] for maker in SUITES[suite][0](Options())
              if len(maker.args) == 5]
    assert labels
    for label in labels:
        assert from_selector(label).name == label


def _benchmark_workloads():
    """perfbench/workloads.py, executed from its source text so that nothing
    is written under perfbench/.  Its frozen dataclasses look their module
    up in sys.modules, so the module is registered before it runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


BENCHMARK_REQUESTS = [
    request.argv(0) for workload in _benchmark_workloads().WORKLOADS.values()
    for request in workload.requests
] + [["verify", *request, "--seed", "0", "--format", "json"]
     for request in GOLDEN_REQUESTS]


@pytest.mark.parametrize("argv", BENCHMARK_REQUESTS, ids=" ".join)
def test_benchmark_requests_pass_option_validation(argv):
    """A refusal rule that caught one of these would show up in the
    benchmark only as a failed run; here it fails before any suite runs."""
    args = _build_parser().parse_args(argv)
    try:
        _options(args, [args.suite])
    except UsageError as exc:
        pytest.fail(f"{' '.join(argv)} refused: {exc}")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dendralg", "verify", "--suite", "census"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "[pass] census" in proc.stdout


def _python(*args, **kwargs):
    """This interpreter run on this package's source, as a subprocess, with
    stdout buffered unless args ask otherwise (-u)."""
    src = str(Path(dendralg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, timeout=300,
                          **kwargs)


OMEGA_6 = ["expand", "--structure", "mr", "--op", "omega", "--n", "6"]


def test_the_command_prints_what_main_prints(capsys):
    """The fast exit loses nothing of a pipe's output."""
    argv = [*OMEGA_6, "--format", "json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    proc = _python("-m", "dendralg", *argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, printed, "")


def test_the_command_reports_a_usage_error_in_one_line():
    proc = _python("-m", "dendralg", "verify", "--suite", "nope",
                   capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("dendralg: unknown suite 'nope'")
    assert proc.stderr.count("\n") == 1


def test_the_command_runs_the_atexit_handlers():
    script = ("import atexit, runpy\n"
              "atexit.register(print, 'atexit handler ran')\n"
              "runpy.run_module('dendralg', run_name='__main__')\n")
    proc = _python("-c", script, "list-suites", capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # printed after the catalogue, so the flush after the handlers wrote it
    assert proc.stdout.startswith("axioms ")
    assert proc.stdout.endswith("\natexit handler ran\n")


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_a_closed_reader_ends_the_command_with_141(flags):
    """Buffered, the final flush meets the closed pipe; unbuffered, the
    first print inside main() does.  Either way: 128 + SIGPIPE, no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python(*flags, "-m", "dendralg", *OMEGA_6,
                       stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_help_to_a_closed_reader_ends_the_command_with_141():
    """argparse's exit after --help takes entry()'s exit path, so the final
    flush meets the closed pipe: 141, no traceback.  Under -u argparse's own
    print meets it, ignores the error and exits 0; that path is argparse's."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "dendralg", "--help",
                       stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_argparse_exits_keep_their_codes():
    """--help to a live reader exits 0; an unknown flag exits 2 with
    argparse's usage and error lines on stderr."""
    proc = _python("-m", "dendralg", "--help", capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: dendralg")
    proc = _python("-m", "dendralg", "verify", "--bogus",
                   capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith("unrecognized arguments: --bogus\n")


def test_the_command_runs_without_a_stdout():
    """Started with fd 1 closed, sys.stdout is None: nothing to flush."""
    proc = _python("-m", "dendralg", "list-suites", stderr=subprocess.PIPE,
                   preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def _recorded_verify(*argv):
    """`verify ARGV --n 2 --degree 3 --cap 3 --format json`: its exit code,
    its output and the selectors suites.from_selector was called with."""
    from dendralg import suites
    built = []

    def recorded(*args, _fn=suites.from_selector, **kwargs):
        assert len(args) == 1 and not kwargs
        built.append(args[0])
        return _fn(*args)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(suites, "from_selector", recorded)
        code = main(["verify", *argv, "--n", "2", "--degree", "3", "--cap", "3",
                     "--format", "json"])
    return code, out.getvalue(), built


@pytest.fixture(scope="module")
def default_verify():
    """The whole default run, made once for the tests that read it."""
    return _recorded_verify()


# -- outcomes pinned before the suite layer was merged -----------------------

def _outcomes(out: str) -> list:
    return [(rep["suite"], rep["structure"], rep["params"], rep["status"],
             rep["checks"]) for rep in json.loads(out)["reports"]]


# `verify --theta 2/3 --n 2 --degree 3 --cap 3`, before --theta was removed
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
    ('dynkin-prelie', 'rb-seqmat:theta=2/3,k=2,N=4',
     {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'shuffle', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'words', {'n': 2}, 'pass', 4),
    ('magnus', 'free', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'max', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'max-rev', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'mr', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'rb-polymat:k=2', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'rb-seqmat:theta=2/3,k=2,N=4',
     {'cap': 3, 'seed': 0}, 'pass', 6),
    ('magnus', 'shuffle', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('pbw', 'words', {'n': 2}, 'pass', 3),
    ('power-sums', 'free', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'max', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'max-rev', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'mr', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'rb-polymat:k=2', {'n': 2, 'seed': 0}, 'pass', 4),
    ('power-sums', 'rb-seqmat:theta=2/3,k=2,N=4',
     {'n': 2, 'seed': 0}, 'pass', 4),
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
    ('spitzer', 'rb-seqmat:theta=2/3,k=2,N=4',
     {'n': 2, 'seed': 0}, 'pass', 2),
    ('spitzer', 'shuffle', {'n': 2, 'seed': 0}, 'pass', 2),
]


def test_theta_outcomes_are_kept_by_the_default_and_a_selector(
        default_verify):
    """Each report the weight-2/3 run made is made by the default run or
    by the weight-2/3 seqmat named as --structure."""
    outcomes = []
    for code, out, _ in (default_verify, _recorded_verify(
            "--structure", "rb-seqmat:theta=2/3,k=2,N=4")):
        assert code == 0
        outcomes += _outcomes(out)
    missing = [o for o in THETA_OUTCOMES if o not in outcomes]
    assert not missing


# `verify --structure free --n 2 --degree 3 --cap 3`
FREE_OUTCOMES = [
    ('axioms', 'free', {'degree': 3}, 'pass', 3),
    ('census', 'permutations', {'cfl_n': 2, 'n': 2}, 'pass', 6),
    ('convolution', 'max', {'n': 2}, 'pass', 5),
    ('convolution', 'words', {'n': 2}, 'pass', 4),
    ('dynkin-prelie', 'free', {'n': 2, 'seed': 0}, 'pass', 2),
    ('dynkin-prelie', 'words', {'n': 2}, 'pass', 4),
    ('magnus', 'free', {'cap': 3, 'seed': 0}, 'pass', 6),
    ('pbw', 'words', {'n': 2}, 'pass', 3),
    ('power-sums', 'free', {'n': 2, 'seed': 0}, 'pass', 4),
    ('prelie-laws', 'free', {'degree': 3, 'seed': 0, 'trials': 3}, 'pass', 15),
    ('spitzer', 'free', {'n': 2, 'seed': 0}, 'pass', 2),
]


def test_all_suites_on_free_keep_their_reports(capsys):
    code, out, _ = run(capsys, "verify", "--structure", "free", "--n", "2",
                       "--degree", "3", "--cap", "3", "--format", "json")
    assert code == 0
    assert _outcomes(out) == FREE_OUTCOMES


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
    (("verify", "--suite", "magnus", "--structure", "free", "--cap", "3"),
     1, 1),
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


@pytest.mark.parametrize("argv", [
    (), ("--structure", "rb-seqmat:theta=1/2,k=1,N=3"),
    ("--structure", "rb-seqmat:N=3,θ=2/4,k=1"),
], ids=["default", "structure", "respelled"])
def test_each_label_is_the_selector_its_structure_is_built_from(
        request, argv):
    """A report on a structure is labelled with the one selector it was
    built from, so from_selector(label) alone rebuilds what it verified."""
    code, out, built = (_recorded_verify(*argv) if argv
                        else request.getfixturevalue("default_verify"))
    labels = [rep["structure"] for rep in json.loads(out)["reports"]
              if rep["suite"] not in ("census", "convolution", "pbw")
              and rep["structure"] != "words"]
    assert code == 0
    assert sorted(labels) == sorted(built) and len(labels) > 1
    assert all("theta=" in label for label in labels
               if label.startswith("rb-seqmat"))


# every subcommand's flags: a new one shows up here as a deliberate edit
CLI_FLAGS = {
    "list-suites": (),
    "verify": ("--suite", "--n", "--degree", "--structure", "--cap",
               "--seed", "--format"),
    "expand": ("--structure", "--op", "--n", "--seed", "--format"),
}


def test_cli_surface_is_pinned():
    parser = _build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {name: tuple(flag for action in sub._actions
                         for flag in action.option_strings
                         if flag not in ("-h", "--help"))
             for name, sub in commands.items()}
    assert flags == CLI_FLAGS
    assert len(flags) == 3 and sum(map(len, flags.values())) == 12
