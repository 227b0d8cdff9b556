"""Golden `verify` outputs: the catalogue-sized run, compared byte for byte.

The file `tests/golden/verify.json` holds, for each request below, the exit
code and the `verify --format json --seed 0` reports with every `elapsed_ms`
removed.  The requests are the ten of the benchmark's catalogue workload:
every suite but axioms on its default structures, with the random parts kept
small.  Regenerate it only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import contextlib
import io
import json
from pathlib import Path

from dendralg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify.json"
REQUESTS = (
    ("--suite", "prelie-laws", "--degree", "1"),
    ("--suite", "dynkin-prelie"),
    ("--suite", "power-sums", "--n", "4"),
    ("--suite", "spitzer", "--n", "4"),
    ("--suite", "magnus", "--cap", "4"),
    ("--suite", "pbw"),
    ("--suite", "census"),
    ("--suite", "rb-nested", "--n", "4"),
    ("--suite", "rb-spitzer", "--n", "4"),
    ("--suite", "convolution"),
)


def verify_transcript() -> str:
    """Run every golden `verify` request in-process; return the JSON text."""
    runs = []
    for request in REQUESTS:
        argv = ["verify", *request, "--seed", "0", "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        reports = json.loads(out.getvalue())["reports"]
        for report in reports:
            del report["elapsed_ms"]
        runs.append({"argv": argv, "exit": code, "reports": reports})
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


def test_verify_outputs_match_the_golden_file():
    assert verify_transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(verify_transcript())
