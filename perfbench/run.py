#!/usr/bin/env python3
"""Benchmark of the dendralg command line, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client, closed loop: every request is a fresh `python -m dendralg verify
... --format json` process, run one after another, so each request pays the
cold caches a user pays.  Run from any directory; the package is taken from
`src/` next to this directory.

--trace 0 repeats the workload's requests (a pass) for about --seconds and
prints the end-to-end metrics.  --trace 1 runs one untraced and one traced
pass plus the layer probes, and prints the per-layer metrics.  The last line
of standard output is the result object; the lines before it are the run
record and the metrics in readable form.  `--workload all` prints the
end-to-end table of every workload instead.

Every report of every request is checked against the pinned outcome in
workloads.py.  A request fails when it exits non-zero, writes a traceback,
exceeds its time limit, misses a report, or a report differs from the pinned
(suite, structure, params, status, checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, Request, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "dendralg"

CHILD_ENV = {"PYTHONPATH": "src", "PYTHONHASHSEED": "0"}
REQUEST_LIMIT_S = 60.0   # per request; the slowest takes about 4 s on 2 Xeon cores
RUN_LIMIT_S = 150.0      # no request or probe starts after this
SETUP_SAMPLES = 7
SETUP_CODE = ("import sys, dendralg\n"
              "from dendralg.structures import from_selector\n"
              "for sel in sys.argv[1:]:\n"
              "    from_selector(sel)\n")

END_TO_END = {  # name -> unit
    "verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

# per-layer metric -> (span group, field, unit); fields are those of
# tracing.summarize, with "count" the group's work measure
LAYER_SPANS = {
    "ncalg.elem_new.calls": ("ncalg.elem_new", "calls", "count"),
    "ncalg.elem_new.terms_in": ("ncalg.elem_new", "count", "count"),
    "ncalg.elem_new.self_s": ("ncalg.elem_new", "self_s", "s"),
    "ncalg.elem_add.calls": ("ncalg.elem_add", "calls", "count"),
    "ncalg.elem_add.terms_in": ("ncalg.elem_add", "count", "count"),
    "ncalg.elem_add.self_s": ("ncalg.elem_add", "self_s", "s"),
    "ncalg.elem_eq.calls": ("ncalg.elem_eq", "calls", "count"),
    "ncalg.elem_eq.self_s": ("ncalg.elem_eq", "self_s", "s"),
    "ncalg.key_new.calls": ("ncalg.key_new", "calls", "count"),
    "ncalg.key_new.self_s": ("ncalg.key_new", "self_s", "s"),
    "ncalg.series_mul.calls": ("ncalg.series_mul", "calls", "count"),
    "ncalg.series_mul.self_s": ("ncalg.series_mul", "self_s", "s"),
    "structures.build.calls": ("structures.build", "calls", "count"),
    "structures.build.s": ("structures.build", "s", "s"),
    "structures.basis.calls": ("structures.basis", "calls", "count"),
    "structures.basis.self_s": ("structures.basis", "self_s", "s"),
    "structures.basis.terms_out": ("structures.basis", "count", "count"),
    "dendriform.half.calls": ("dendriform.half", "calls", "count"),
    "dendriform.half.pairs": ("dendriform.half", "count", "count"),
    "dendriform.half.self_s": ("dendriform.half", "self_s", "s"),
    "dendriform.prelie.calls": ("dendriform.prelie", "calls", "count"),
    "dendriform.prelie.self_s": ("dendriform.prelie", "self_s", "s"),
    "dendriform.self_test.calls": ("dendriform.self_test", "calls", "count"),
    "dendriform.self_test.triples": ("dendriform.self_test", "count", "count"),
    "dendriform.self_test.self_s": ("dendriform.self_test", "self_s", "s"),
    "hopf.comp.calls": ("hopf.comp", "calls", "count"),
    "hopf.comp.self_s": ("hopf.comp", "self_s", "s"),
    "hopf.words.calls": ("hopf.words", "calls", "count"),
    "hopf.words.self_s": ("hopf.words", "self_s", "s"),
    "lyndon.spitzer.calls": ("lyndon.spitzer", "calls", "count"),
    "lyndon.spitzer.self_s": ("lyndon.spitzer", "self_s", "s"),
    "lyndon.perm_sweep.calls": ("lyndon.perm_sweep", "calls", "count"),
    "lyndon.perm_sweep.self_s": ("lyndon.perm_sweep", "self_s", "s"),
    "magnus.omega.calls": ("magnus.omega", "calls", "count"),
    "magnus.omega.self_s": ("magnus.omega", "self_s", "s"),
    "magnus.explog.self_s": ("magnus.explog", "self_s", "s"),
    "magnus.ode.self_s": ("magnus.ode", "self_s", "s"),
    "suites.report.calls": ("suites.report", "calls", "count"),
    "suites.report.self_s": ("suites.report", "self_s", "s"),
    "cli.import_s": ("cli.import", "s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}
LAYER_DERIVED = {
    "ncalg.elem_max_terms": "count",
    "dendriform.self_test.s_per_triple": "s",
    "trace.overhead_frac": "ratio",
}
PROBE_NAMES = ("elem_add_10k", "half.shuffle", "half.max", "half.max-rev",
               "half.mr", "half.free", "half.rb-seqmat", "half.rb-polymat",
               "prelie_triple_mr", "self_test4_shuffle", "spitzer6_shuffle",
               "magnus6_mr")


def per_layer_units() -> dict:
    units = {name: unit for name, (_, _, unit) in LAYER_SPANS.items()}
    units.update(LAYER_DERIVED)
    units.update({f"probe.{name}_s": "s" for name in PROBE_NAMES})
    return units


# -- child processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


@dataclass
class Outcome:
    wall: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None
    out: str = ""
    err: str = ""
    timed_out: bool = False


class Launcher:
    """Runs child processes in ROOT through launcher.py, one at a time."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, argv: list, limit: float) -> Outcome:
        """Run argv to completion, or kill it after `limit` seconds."""
        if limit <= 0:
            return Outcome(timed_out=True,
                           err="not started: run time limit reached")
        out = os.path.join(self.scratch, "child.out")
        err = os.path.join(self.scratch, "child.err")
        self.proc.stdin.write(json.dumps(
            {"argv": argv, "limit": limit, "out": out, "err": err}) + "\n")
        self.proc.stdin.flush()
        result = json.loads(self.proc.stdout.readline())
        with open(out, errors="replace") as fo, open(err, errors="replace") as fe:
            return Outcome(result["wall"], result["rss_mb"], result["code"],
                           fo.read(), fe.read(), result["timed_out"])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REQUEST_LIMIT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- the correctness gate ------------------------------------------------------

def pinned_fields(report: dict) -> tuple:
    return (report.get("suite"), report.get("structure"), report.get("params"),
            report.get("status"), report.get("checks"))


def check(request: Request, seed: int, outcome: Outcome):
    """(failure reason or None, the pinned fields of each report printed)."""
    if outcome.timed_out:
        return "time limit exceeded", []
    if outcome.code != 0:
        return f"exit code {outcome.code}", []
    if "Traceback (most recent call last)" in outcome.err:
        return "traceback on stderr", []
    try:
        got = [pinned_fields(r) for r in json.loads(outcome.out)["reports"]]
    except (ValueError, KeyError, TypeError, AttributeError):
        return "output is not a JSON report list", []
    want = {p.fields(seed)[:2]: p.fields(seed) for p in request.reports}
    seen = {g[:2]: g for g in got}
    for key, expected in want.items():
        if key not in seen:
            return f"report {key} missing", got
        if seen[key] != expected:
            return f"report {key}: got {seen[key][2:]}, pinned {expected[2:]}", got
    if len(got) != len(want):
        return f"{len(got)} reports, pinned {len(want)}", got
    return None, got


@dataclass
class Pass:
    wall: float
    outcomes: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (request index, reason)
    reports: list = field(default_factory=list)    # pinned fields per request


def run_pass(workload: Workload, seed: int, prefix, deadline: float,
             launcher: Launcher, limit: float = REQUEST_LIMIT_S) -> Pass:
    """Every request of the workload once, in order; prefix(i) gives argv[:k]."""
    t0 = time.perf_counter()
    result = Pass(0.0)
    for i, request in enumerate(workload.requests):
        remaining = deadline - time.perf_counter()
        outcome = launcher.run(prefix(i) + request.argv(seed),
                               min(limit, remaining))
        reason, reports = check(request, seed, outcome)
        result.outcomes.append(outcome)
        result.reports.append(reports)
        if reason:
            result.failures.append((i, reason))
    result.wall = time.perf_counter() - t0
    return result


def plain(i: int) -> list:
    return [sys.executable, "-m", "dendralg"]


# -- run record ----------------------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; diagnostic only, never a scale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/dendralg/*.py, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(workload: str, seed: int, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu_model(), "commit": git_commit(),
            "source_sha256": source_digest(), "child_env": CHILD_ENV,
            "loadavg_before": os.getloadavg(),
            "calibration_s_before": calibrate()}


def finish_record(record: dict) -> dict:
    record["loadavg_after"] = os.getloadavg()
    record["calibration_s_after"] = calibrate()
    return record


# -- the two kinds of run --------------------------------------------------------

def setup_sample(workload: Workload, deadline: float,
                 launcher: Launcher) -> Outcome:
    argv = [sys.executable, "-c", SETUP_CODE, *workload.selectors]
    return launcher.run(argv, min(REQUEST_LIMIT_S,
                                  deadline - time.perf_counter()))


def warm_up(workload: Workload, deadline: float, launcher: Launcher):
    """Untimed: compile every module's .pyc and build the structures once."""
    for argv in ([sys.executable, "-m", "dendralg", "list-suites"],
                 [sys.executable, "-c", SETUP_CODE, *workload.selectors]):
        outcome = launcher.run(argv, min(REQUEST_LIMIT_S,
                                         deadline - time.perf_counter()))
        if outcome.code != 0:
            raise SystemExit(f"perfbench: {' '.join(argv[1:3])} failed "
                             f"(exit {outcome.code}):\n{outcome.err[-2000:]}")


def end_to_end(workload: Workload, seed: int, seconds: float, deadline: float,
               launcher: Launcher, record: dict) -> dict:
    setups = [setup_sample(workload, deadline, launcher)
              for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.perf_counter()
    while True:
        p = run_pass(workload, seed, plain, deadline, launcher)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if elapsed + p.wall > seconds or time.perf_counter() >= deadline:
            break
    attempted = sum(len(p.outcomes) for p in passes)
    failures = [f for p in passes for f in p.failures]
    walls = [p.wall for p in passes]
    record.update(
        passes=len(passes), verdict_s_all=walls, verdict_s_max=max(walls),
        request_s=[[o.wall for o in p.outcomes] for p in passes],
        setup_s_all=[s.wall for s in setups],
        setup_failures=sum(s.code != 0 for s in setups),
        failures=[f"request {i}: {reason}" for i, reason in failures[:20]])
    metrics = {
        "verdict_s": statistics.median(walls),
        "setup_s": statistics.median(s.wall for s in setups),
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.outcomes),
        "pass_frac": (attempted - len(failures)) / attempted,
    }
    correct = not failures and not record["setup_failures"]
    return {"correct": correct, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def probe(name: str, seed: int, deadline: float, launcher: Launcher):
    argv = [sys.executable, str(HERE / "probes.py"), name, str(seed)]
    outcome = launcher.run(argv, min(REQUEST_LIMIT_S,
                                     deadline - time.perf_counter()))
    try:
        result = json.loads(outcome.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, f"probe {name}: exit {outcome.code}: {outcome.err[-500:]}"
    if outcome.code != 0 or not result["ok"]:
        return result["s"], f"probe {name}: wrong result {result['detail']!r}"
    return result["s"], None


def layer_metrics(summaries: list, max_terms: int, overhead: float,
                  probes: dict) -> dict:
    totals: dict = {}
    for summary in summaries:
        for group, stats in summary.items():
            acc = totals.setdefault(group, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
    values = {}
    for name, (group, key, _) in LAYER_SPANS.items():
        values[name] = totals.get(group, {}).get(key, 0)
    triples = values["dendriform.self_test.triples"]
    values["ncalg.elem_max_terms"] = max_terms
    values["dendriform.self_test.s_per_triple"] = (
        values["dendriform.self_test.self_s"] / triples if triples else 0.0)
    values["trace.overhead_frac"] = overhead
    values.update({f"probe.{name}_s": s for name, s in probes.items()})
    return values


def traced_run(workload: Workload, seed: int, deadline: float,
               launcher: Launcher, record: dict) -> dict:
    untraced = run_pass(workload, seed, plain, deadline, launcher)
    span_files = [os.path.join(launcher.scratch, f"spans-{i}.json")
                  for i in range(len(workload.requests))]

    def traced_prefix(i):
        return [sys.executable, str(HERE / "tracing.py"), span_files[i], str(i)]

    traced = run_pass(workload, seed, traced_prefix, deadline, launcher)
    failures = [f"untraced request {i}: {r}" for i, r in untraced.failures]
    failures += [f"traced request {i}: {r}" for i, r in traced.failures]
    for i, (a, b) in enumerate(zip(untraced.reports, traced.reports)):
        if a != b:
            failures.append(f"request {i}: traced reports differ from untraced")
    summaries, max_terms = [], 0
    for path in span_files:
        try:
            with open(path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError):
            failures.append(f"no spans in {os.path.basename(path)}")
            continue
        summaries.append(tracing.summarize(spans))
        max_terms = max(max_terms, spans["max_terms"])
    probes = {}
    for name in PROBE_NAMES:
        seconds, problem = probe(name, seed, deadline, launcher)
        probes[name] = seconds if seconds is not None else 0.0
        if problem:
            failures.append(problem)
    values = layer_metrics(summaries, max_terms,
                           traced.wall / untraced.wall - 1.0, probes)
    units = per_layer_units()
    record.update(untraced_s=untraced.wall, traced_s=traced.wall,
                  failures=failures[:20])
    attempted = 2 * len(workload.requests) + len(PROBE_NAMES)
    return {"correct": not failures, "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def measure(name: str, seed: int, seconds: float, trace: int) -> tuple:
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_LIMIT_S
    record = run_record(name, seed, trace)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        launcher = Launcher(scratch)
        try:
            warm_up(workload, deadline, launcher)
            if trace:
                result = traced_run(workload, seed, deadline, launcher, record)
            else:
                result = end_to_end(workload, seed, seconds, deadline, launcher,
                                    record)
        finally:
            launcher.close()
    return finish_record(record), result


def print_metrics(name: str, result: dict):
    for metric, m in result["metrics"].items():
        print(f"{name:<15} {metric:<36} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no dendralg package at {PACKAGE}", file=sys.stderr)
        return 2

    if args.workload != "all":
        record, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
        print("record " + json.dumps(record))
        print_metrics(args.workload, result)
        print(json.dumps(result))
        return 0

    table = {}
    for name in WORKLOADS:
        record, result = measure(name, args.seed, args.seconds, 0)
        print("record " + json.dumps(record))
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        table[name] = result
    for name, result in table.items():
        print_metrics(name, result)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
