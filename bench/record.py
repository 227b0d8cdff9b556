#!/usr/bin/env python3
"""Record the benchmark of a change against its parent as BENCH_<pr>.json.

    python3 bench/record.py --parent DIR --change DIR --pr N --seeds 1001-1010 \
        --claim catalogue:verdict_s --change-note "what the change does"

DIR is a whole copy of the repository (`git archive` of a commit, say), with
its own perfbench/ and src/.  For every seed and every workload of
BENCHMARK.json the recorder runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`, T the contract's run_seconds, once in each
copy, one right after the other, and alternates which side runs first; every
pair is kept.  Then, in two alternating rounds, it times the Tier-1 tests and
the default `verify --format json --seed 0` in each copy.  The output is
rewritten after every pair, so an interrupted run leaves the pairs it
finished (with "complete": false).

Children run with PYTHONDONTWRITEBYTECODE=1, as the benchmark's own runs do,
so every request compiles the package from source; a copy that holds `.pyc`
files would skip that cost and is refused.

Each end-to-end metric is summarized per workload: the median and quartiles
of each side (statistics.quantiles, n=4, inclusive), the pairs the change won
and lost (ties count for neither), the relative move of the median, the bound
from BENCHMARK.json and the parent's quartile distance.  The claimed metric
is met when the change wins at least nine in ten pairs and its median is
better than the parent's by more than the parent's quartile distance.

Two parts follow.  One `perfbench/run.py --workload W --trace 1` run per
side, at the first seed, keeps the per-layer metrics of W, the claimed
workload (the first one when nothing is claimed).  Then the recorder
compares what the two sides print: `verify --format json` at seeds 0 and 7,
its elapsed_ms lines removed, and `expand` for every op on mr, free,
rb-polymat:k=2 and rb-seqmat:theta=2/3,k=2,N=4 at n = 0..6 (254 outputs;
the last carrier's weight has a denominator, so its R and halves carry
dens above 1); it keeps a digest of each output per side and lists the
outputs that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 2   # Tier-1 and default-verify runs per side
CHILD_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
RULE = ("change better in at least 9 of 10 pairs and median better than the "
        "parent's by more than the parent's quartile distance")
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
DEFAULT_VERIFY = [sys.executable, "-m", "dendralg", "verify", "--format",
                  "json", "--seed", "0"]
RECORD_KEYS = ("change", "complete", "machine", "harness", "claim",
               "end_to_end", "default_verify_seed_0", "tier1", "notes")
SIDE_KEYS = ("attempted", "failed", "correct", "source_sha256")


def contract(path: Path = ROOT / "BENCHMARK.json") -> tuple:
    """(workload names, run seconds, end-to-end metric name ->
    {"better": "lower"|"higher", "bound": x}) of the benchmark contract."""
    with open(path) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]], spec["run_seconds"],
            {m["name"]: {"better": m["better"], "bound": m["bound"]}
             for m in spec["end_to_end"]})


def parse_seeds(text: str) -> list:
    """'1001-1003,1010' -> [1001, 1002, 1003, 1010]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def child_env(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update(CHILD_ENV)
    return env


def parse_run(stdout: str, digits: int = 4) -> dict:
    """One side of a pair, from the output of perfbench/run.py, the metrics
    rounded to digits.

    The last line is the result object; the line starting "record " carries
    the run record, whose source digest identifies the code measured.
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    side = {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "source_sha256": record.get("source_sha256")}
    side.update({name: round(m["value"], digits)
                 for name, m in result["metrics"].items()})
    return side


def run_benchmark(checkout: Path, workload: str, seed: int,
                  seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace",
            str(trace)]
    proc = subprocess.run(argv, cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"record: {' '.join(argv[1:])} failed in {checkout} "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout, 6 if trace else 4)


def spread(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list, metric: str, better: str, bound: float) -> dict:
    """Both sides' spread of one metric over the pairs, and who won each pair."""
    sign = 1 if better == "lower" else -1
    moves = [sign * (p["change"][metric] - p["parent"][metric]) for p in pairs]
    parent = spread([p["parent"][metric] for p in pairs])
    change = spread([p["change"][metric] for p in pairs])
    base = parent["median"]
    return {
        "parent": parent, "change": change,
        "change_better_pairs": sum(m < 0 for m in moves),
        "change_worse_pairs": sum(m > 0 for m in moves),
        "pairs": len(pairs),
        "median_change_rel": round((change["median"] - base) / base, 4)
        if base else 0.0,
        "bound": bound,
        "parent_quartile_distance": round(parent["q3"] - parent["q1"], 4),
    }


def claim_met(summary: dict, better: str) -> bool:
    sign = 1 if better == "lower" else -1
    gain = sign * (summary["parent"]["median"] - summary["change"]["median"])
    return (10 * summary["change_better_pairs"] >= 9 * summary["pairs"]
            and gain > summary["parent_quartile_distance"])


def end_to_end(pairs_by_workload: dict, metrics: dict) -> dict:
    return {workload: {"summary": {name: summarize(pairs, name, **spec)
                                   for name, spec in metrics.items()},
                       "pairs": pairs}
            for workload, pairs in pairs_by_workload.items() if pairs}


def claim(spec: str | None, table: dict, metrics: dict):
    """The claim "workload:metric" judged on the table, or None for no claim."""
    if not spec:
        return None
    workload, _, metric = spec.partition(":")
    summary = table.get(workload, {}).get("summary", {}).get(metric)
    return {"workload": workload, "metric": metric, "rule": RULE,
            "met": bool(summary) and claim_met(summary, metrics[metric]["better"])}


def check_layout(record: dict) -> list:
    """What a BENCH record written by this script must hold; [] when it does."""
    problems = [f"missing {key}" for key in RECORD_KEYS if key not in record]
    for workload, table in record.get("end_to_end", {}).items():
        metrics = set(table.get("summary", {}))
        for pair in table.get("pairs", []):
            if pair.get("first") not in SIDES or "seed" not in pair:
                problems.append(f"{workload}: pair without seed or order")
            for side in SIDES:
                missing = (set(SIDE_KEYS) | metrics) - set(pair.get(side, {}))
                if missing:
                    problems.append(f"{workload} seed {pair.get('seed')} "
                                    f"{side}: missing {sorted(missing)}")
        for name, summary in table.get("summary", {}).items():
            if summary.get("pairs") != len(table.get("pairs", [])):
                problems.append(f"{workload} {name}: pair count differs")
    claimed = record.get("claim")
    if claimed and claimed.get("workload") not in record.get("end_to_end", {}):
        problems.append("claim names a workload with no pairs")
    return problems


# -- the measurements beside the benchmark --------------------------------------

def timed(argv: list, checkout: Path, stdout) -> tuple:
    """(wall seconds, exit code, peak RSS in MB) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=checkout, env=child_env(checkout),
                            stdout=stdout, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def default_verify(checkout: Path) -> dict:
    with tempfile.TemporaryFile("w+") as out:
        wall, code, rss = timed(DEFAULT_VERIFY, checkout, out)
        out.seek(0)
        reports = json.load(out)["reports"] if code in (0, 1) else []
    return {"wall_s": round(wall, 2), "exit": code, "peak_rss_mb": round(rss, 1),
            "summed_report_s": round(sum(r["elapsed_ms"] for r in reports)
                                     / 1000, 2),
            "reports": len(reports)}


def tier1(checkout: Path) -> dict:
    with tempfile.TemporaryFile("w+") as out:
        wall, code, _ = timed(TIER1, checkout, out)
        out.seek(0)
        found = re.findall(r"(\d+) passed", out.read())
    return {"s": round(wall, 1), "exit": code,
            "passed": int(found[-1]) if found else 0}


OUTPUTS_SCRIPT = r"""
import contextlib, hashlib, io, json, re
from dendralg import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()

outputs = {}
for seed in ("0", "7"):
    code, text = run(["verify", "--format", "json", "--seed", seed])
    outputs[f"verify --seed {seed}"] = (
        code, re.sub(r'\n *"elapsed_ms": \d+,', "", text))
for structure in ("mr", "free", "rb-polymat:k=2",
                  "rb-seqmat:theta=2/3,k=2,N=4"):
    for op in cli.EXPAND_OPS:
        for n in range(7):
            argv = ["expand", "--structure", structure, "--op", op,
                    "--n", str(n)]
            outputs[" ".join(argv)] = run(argv)
print(json.dumps({name: [code, hashlib.sha256(text.encode()).hexdigest()]
                  for name, (code, text) in outputs.items()}))
"""


def outputs(checkouts: dict) -> dict:
    """Each side's digest of every compared output, and the outputs (exit
    code or text) that differ."""
    sides = {}
    for side, checkout in checkouts.items():
        proc = subprocess.run([sys.executable, "-c", OUTPUTS_SCRIPT],
                              cwd=checkout, env=child_env(checkout),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"record: outputs failed in {checkout}:\n"
                             f"{proc.stderr[-2000:]}")
        sides[side] = json.loads(proc.stdout)
    parent, change = (sides[side] for side in SIDES)
    differing = sorted(name for name in parent.keys() | change.keys()
                       if parent.get(name) != change.get(name))

    def digest(table):
        return hashlib.sha256(json.dumps(table, sort_keys=True)
                              .encode()).hexdigest()[:16]

    return {"compared": len(parent), "differing": differing,
            "identical": not differing,
            "sha256": {side: digest(table) for side, table in sides.items()}}


def rounds(measure, checkouts: dict, count: int) -> dict:
    """count runs per side, alternating which side goes first."""
    out = {side: [] for side in SIDES}
    for i in range(count):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out[side].append(measure(checkouts[side]))
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform(), "env": CHILD_ENV,
            "loadavg_start": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--claim", help="workload:metric, e.g. catalogue:verdict_s")
    parser.add_argument("--change-note", required=True)
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path}: no perfbench/run.py")
        if next(path.rglob("*.pyc"), None):
            parser.error(f"--{side} {path}: holds .pyc files; use a fresh copy")
    workloads, seconds, metrics = contract()
    claimed, _, metric = (args.claim or "").partition(":")
    if args.claim and (claimed not in workloads or metric not in metrics):
        parser.error(f"--claim {args.claim}: not workload:metric")
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "change": args.change_note, "complete": False, "machine": machine(),
        "harness": {
            "end_to_end": "python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {seconds:g} --trace 0 in each "
                          "checkout, one pair per seed and workload, "
                          "alternating which side ran first",
            "checkouts": {side: path.name for side, path in checkouts.items()},
            "seeds": args.seeds,
            "tier1": " ".join(TIER1[1:]) + f", wall seconds, {ROUNDS} "
                     "alternating rounds",
            "default_verify": " ".join(DEFAULT_VERIFY[1:]) + ": wall, summed "
                              "report time, peak RSS of the child",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        },
        "claim": None, "end_to_end": {}, "default_verify_seed_0": None,
        "tier1": None, "notes": args.note,
    }
    pairs = {workload: [] for workload in workloads}

    def write():
        record["end_to_end"] = end_to_end(pairs, metrics)
        record["claim"] = claim(args.claim, record["end_to_end"], metrics)
        out.write_text(json.dumps(record, indent=2) + "\n")

    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_benchmark(checkouts[side], workload, seed,
                                           seconds)
            pairs[workload].append(pair)
            write()
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{side} {pair[side]['verdict_s']}"
                              for side in SIDES), flush=True)
    record["default_verify_seed_0"] = rounds(default_verify, checkouts, ROUNDS)
    record["tier1"] = rounds(tier1, checkouts, ROUNDS)
    traced = claimed or workloads[0]
    record["trace"] = {"workload": traced, "seed": args.seeds[0]}
    for side in SIDES:
        record["trace"][side] = run_benchmark(
            checkouts[side], traced, args.seeds[0], seconds, trace=1)
    record["outputs"] = outputs(checkouts)
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["complete"] = True
    write()
    problems = check_layout(record)
    for problem in problems:
        print(f"record: {problem}", file=sys.stderr)
    print(json.dumps(record["claim"]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
