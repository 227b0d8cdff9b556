"""The layout of the BENCH records that bench/record.py writes, checked
without running the benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _load_recorder()
WORKLOADS, SECONDS, METRICS = record.contract()


def side(verdict_s, rss=18.0, sha="abc"):
    return {"attempted": 10, "failed": 0, "correct": True,
            "source_sha256": sha, "verdict_s": verdict_s, "setup_s": 0.15,
            "peak_rss_mb": rss, "pass_frac": 1.0}


def pairs(parent_walls, change_walls):
    return [{"seed": 100 + i, "first": ("parent", "change")[i % 2],
             "parent": side(p), "change": side(c)}
            for i, (p, c) in enumerate(zip(parent_walls, change_walls))]


def full_record(table_pairs, claim="catalogue:verdict_s"):
    table = record.end_to_end(table_pairs, METRICS)
    out = dict.fromkeys(record.RECORD_KEYS)
    out.update(change="a change", complete=True, machine={}, harness={},
               notes=[], end_to_end=table,
               claim=record.claim(claim, table, METRICS))
    return out


PARENT = [3.0, 3.1, 3.2, 2.9, 3.05, 3.15, 2.95, 3.3, 3.0, 3.1]


def test_seed_ranges():
    assert record.parse_seeds("1001-1003,1010") == [1001, 1002, 1003, 1010]
    assert record.parse_seeds("7") == [7]


def test_the_benchmark_contract_gives_workloads_length_and_metrics():
    assert set(WORKLOADS) == {"axiom-sweep", "large-elements", "catalogue"}
    assert SECONDS == 36
    assert set(METRICS) == {"verdict_s", "setup_s", "peak_rss_mb", "pass_frac"}
    assert METRICS["pass_frac"]["better"] == "higher"


def test_one_side_is_read_from_the_runner_output():
    result = {"correct": True, "attempted": 40, "failed": 0, "metrics": {
        "verdict_s": {"value": 2.123456, "unit": "s"},
        "pass_frac": {"value": 1.0, "unit": "ratio"}}}
    stdout = "\n".join([
        "record " + json.dumps({"source_sha256": "feed", "seed": 3}),
        "catalogue       verdict_s          2.12346 s",
        json.dumps(result)])
    assert record.parse_run(stdout) == {
        "attempted": 40, "failed": 0, "correct": True,
        "source_sha256": "feed", "verdict_s": 2.1235, "pass_frac": 1.0}


def test_summary_spread_and_pair_counts():
    change = [2.5] * 9 + [3.5]
    summary = record.summarize(pairs(PARENT, change), "verdict_s", "lower", 0.24)
    assert summary["pairs"] == 10
    assert summary["change_better_pairs"] == 9
    assert summary["change_worse_pairs"] == 1
    assert summary["parent"] == {"median": 3.075, "q1": 3.0, "q3": 3.1375}
    assert summary["change"]["median"] == 2.5
    assert summary["parent_quartile_distance"] == 0.1375
    assert summary["median_change_rel"] == round((2.5 - 3.075) / 3.075, 4)
    assert summary["bound"] == 0.24


def test_ties_count_for_neither_side():
    summary = record.summarize(pairs(PARENT, PARENT), "pass_frac", "higher", 0.01)
    assert summary["change_better_pairs"] == summary["change_worse_pairs"] == 0


@pytest.mark.parametrize("change, met", [
    ([2.5] * 10, True),
    ([2.5] * 9 + [3.5], True),                 # 9 of 10 pairs
    ([2.5] * 8 + [3.5, 3.5], False),           # 8 of 10 pairs
    ([p - 0.01 for p in PARENT], False),       # wins all, inside the spread
])
def test_the_claim_rule(change, met):
    summary = record.summarize(pairs(PARENT, change), "verdict_s", "lower", 0.24)
    assert record.claim_met(summary, "lower") is met


def test_a_written_record_has_the_layout():
    table_pairs = {"catalogue": pairs(PARENT, [2.5] * 10),
                   "axiom-sweep": pairs(PARENT[:2], [3.0, 3.0])}
    rec = full_record(table_pairs)
    assert record.check_layout(rec) == []
    assert rec["claim"]["met"] is True
    assert set(rec["end_to_end"]["catalogue"]["summary"]) == set(METRICS)
    assert json.loads(json.dumps(rec)) == rec


def test_layout_problems_are_named():
    rec = full_record({"catalogue": pairs(PARENT, [2.5] * 10)},
                      claim="large-elements:verdict_s")
    del rec["tier1"]
    del rec["end_to_end"]["catalogue"]["pairs"][3]["change"]["setup_s"]
    problems = record.check_layout(rec)
    assert "missing tier1" in problems
    assert "catalogue seed 103 change: missing ['setup_s']" in problems
    assert "claim names a workload with no pairs" in problems
    assert rec["claim"]["met"] is False


@pytest.mark.parametrize("make", ["no-perfbench", "pyc", "bad-claim"])
def test_bad_input_is_refused_before_any_run(tmp_path, make):
    good, bad = tmp_path / "good", tmp_path / "bad"
    for path in (good, bad):
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text("")
    if make == "pyc":
        (bad / "perfbench" / "run.cpython-311.pyc").write_bytes(b"")
    elif make == "no-perfbench":
        (bad / "perfbench" / "run.py").unlink()
    claim = "catalogue:speed" if make == "bad-claim" else "catalogue:verdict_s"
    with pytest.raises(SystemExit) as exc:
        record.main(["--parent", str(good), "--change",
                     str(good if make == "bad-claim" else bad), "--pr", "0",
                     "--seeds", "1", "--claim", claim, "--change-note", "x"])
    assert exc.value.code == 2
    assert not (ROOT / "BENCH_0.json").exists()


def test_outputs_names_what_differs(monkeypatch):
    printed = {"parent": {"verify --seed 0": [0, "aa"], "expand a": [0, "bb"]},
               "change": {"verify --seed 0": [0, "aa"], "expand a": [1, "bb"],
                          "expand b": [0, "cc"]}}

    def run(argv, cwd, **kwargs):
        return subprocess.CompletedProcess(argv, 0,
                                           json.dumps(printed[cwd.name]), "")

    monkeypatch.setattr(record.subprocess, "run", run)
    out = record.outputs({side: Path(side) for side in record.SIDES})
    assert out["compared"] == 2
    assert out["differing"] == ["expand a", "expand b"]
    assert out["identical"] is False
    assert out["sha256"]["parent"] != out["sha256"]["change"]
    printed["change"] = printed["parent"]
    assert record.outputs({side: Path(side) for side in record.SIDES})[
        "identical"] is True


def test_the_committed_record_has_the_layout():
    rec = json.loads((ROOT / "BENCH_10.json").read_text())
    assert record.check_layout(rec) == []
    assert rec["complete"] is True
    assert set(rec["end_to_end"]) == set(WORKLOADS)
    assert all(len(table["pairs"]) >= 10 for table in rec["end_to_end"].values())
