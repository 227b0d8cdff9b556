"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import os
import re
import sys
import tempfile
import time

import pytest

import run
import tracing
from workloads import SEED, WORKLOADS, Pinned, Request, Workload, axiom_checks

sys.path.insert(0, str(run.ROOT / "src"))

FAKE = """
import json, sys, time
mode, seed = sys.argv[1], int(sys.argv[sys.argv.index("--seed") + 1])
if mode == "sleep":
    time.sleep(30)
report = {"suite": "pbw", "structure": "words", "params": {"n": 2, "seed": seed},
          "status": "pass", "checks": 4 if mode == "wrong-checks" else 3,
          "elapsed_ms": 1}
print(json.dumps({"reports": [report]}))
if mode == "traceback":
    print("Traceback (most recent call last):", file=sys.stderr)
sys.exit(1 if mode == "exit1" else 0)
"""

ONE = Workload("fake", (Request(("--suite", "pbw"),
                                (Pinned("pbw", "words", {"n": 2, "seed": SEED}, 3),)),),
               ())


@pytest.fixture
def launcher():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as scratch:
        launcher = run.Launcher(scratch)
        yield launcher
        launcher.close()


def fake_pass(launcher, mode, limit=20.0):
    prefix = lambda i: [sys.executable, "-c", FAKE, mode]
    return run.run_pass(ONE, 7, prefix, time.perf_counter() + 60, launcher,
                        limit=limit)


def test_a_pinned_report_passes(launcher):
    assert fake_pass(launcher, "ok").failures == []


@pytest.mark.parametrize("mode, reason", [
    ("wrong-checks", "pinned"),
    ("exit1", "exit code 1"),
    ("traceback", "traceback"),
    ("sleep", "time limit"),
])
def test_each_kind_of_failure_counts(launcher, mode, reason):
    p = fake_pass(launcher, mode, limit=1.0)
    assert len(p.failures) == 1 and reason in p.failures[0][1]
    assert p.wall < 10


def test_missing_and_extra_reports_fail():
    request = ONE.requests[0]
    ok = {"suite": "pbw", "structure": "words", "params": {"n": 2, "seed": 7},
          "status": "pass", "checks": 3}
    for reports in ([], [ok, dict(ok, structure="max")],
                    [dict(ok, status="fail")], [dict(ok, params={"n": 2})]):
        outcome = run.Outcome(code=0, out=json.dumps({"reports": reports}))
        assert run.check(request, 7, outcome)[0] is not None
    assert run.check(request, 7, run.Outcome(code=0, out=json.dumps(
        {"reports": [dict(ok, stats={"calls": 1})]})))[0] is None


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = {"groups": ["root", "x", "y"], "group": [0, 1, 2, 1],
             "parent": [-1, 0, 1, 0], "start": [0.0, 1.0, 2.0, 5.0],
             "end": [10.0, 4.0, 3.0, 9.0], "count": [0, 2, 5, 3]}
    assert tracing.self_times(spans["parent"], spans["start"],
                              spans["end"]) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.summarize(spans)
    assert summary["x"] == {"calls": 2, "self_s": 6.0, "s": 7.0, "count": 5}
    assert summary["root"]["self_s"] == 3.0


def test_traced_request_matches_untraced_and_repeats(launcher):
    request = Request(("--suite", "axioms", "--structure", "free", "--degree", "3"),
                      (Pinned("axioms", "free", {"degree": 3},
                              axiom_checks("trees", 3)),))
    w = Workload("tiny", (request,), ())
    spans = os.path.join(launcher.scratch, "spans.json")
    traced = lambda i: [sys.executable, str(run.HERE / "tracing.py"), spans, "0"]
    untraced = run.run_pass(w, 0, run.plain, time.perf_counter() + 60, launcher)
    summaries = []
    for _ in range(2):
        p = run.run_pass(w, 0, traced, time.perf_counter() + 60, launcher)
        assert p.failures == [] and p.reports == untraced.reports
        with open(spans) as fh:
            summaries.append(tracing.summarize(json.load(fh)))
    counts = [{g: (s["calls"], s["count"]) for g, s in summ.items()}
              for summ in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["dendriform.self_test"][0] > 0
    assert counts[0]["structures.basis"][1] > 0


def test_axiom_counts_are_derived_from_basis_dimensions():
    assert axiom_checks("words", 4) == 810
    assert axiom_checks("perms", 5) == 111
    assert axiom_checks("trees", 5) == 102
    assert axiom_checks("words", 5) == 5184   # the default verify report


def test_workloads_cover_every_suite_and_standard_selector():
    from dendralg.structures import STANDARD_SELECTORS
    from dendralg.suites import SUITES

    pinned = [p for w in WORKLOADS.values() for r in w.requests for p in r.reports]
    assert {p.suite for p in pinned} == set(SUITES)
    assert set(STANDARD_SELECTORS) <= {p.structure for p in pinned}


def test_no_request_uses_a_value_that_will_become_a_usage_error():
    for w in WORKLOADS.values():
        for r in w.requests:
            args = r.argv(0)
            assert "--jobs" not in args and "--theta" not in args
            for flag in ("--n", "--degree", "--cap"):
                if flag in args:
                    assert int(args[args.index(flag) + 1]) >= 1
            if "--structure" in args:
                assert "/0" not in args[args.index("--structure") + 1]


def test_benchmark_json_lists_exactly_what_run_prints():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert all(name.match(m["name"]) for m in bench["end_to_end"] + bench["per_layer"])


def test_probe_names_match_the_probes():
    import probes

    assert tuple(probes.PROBES) == run.PROBE_NAMES
