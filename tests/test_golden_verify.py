"""Golden `verify` outputs: the catalogue-sized run, compared byte for byte.

The file `tests/golden/verify.json` holds, for each request below, the exit
code and the `verify --format json --seed 0` reports with every `elapsed_ms`
removed.  The requests are the ten of the benchmark's catalogue workload:
every suite but axioms on its default structures, with the random parts kept
small.  Regenerate it only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden_verify.py

The same run records every check whose two sides are both zero: such a check
could not have failed.  Each one must be in ZERO_CHECKS with its reason, so a
new `0 = 0` check fails the test until it is fixed or explained.
"""

import collections
import contextlib
import io
import json
from pathlib import Path

import pytest

from dendralg import suites
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


ZINBIEL = ("forced: shuffle is Zinbiel (a < b = b > a), so a |> b = 0 and "
           "every pre-Lie word of two or more letters vanishes")
COMMUTATIVE = ("forced: the carrier is commutative, so both operator pre-Lie "
               "products vanish")
R_ZERO = "forced: theta = 0 gives R = 0, so both half-products vanish"
ONE_KEY = ("input: at --degree 1 mr and free have one basis key, so the "
           "random elements commute")
MAX_ALPHABET = ("input: on 3 letters the right power sums of x1 + x2 vanish "
                "from n = 3 (max and max-rev generator docstrings)")
NILPOTENT = ("input: the seeded generator sits at positions 2 and 4 of N = 4 "
             "and R sums strictly earlier positions, so w>(n) = 0 from n = 3")

BRACKETS = ("bracket = antisymmetrized left product",
            "bracket = antisymmetrized right product")
PRELIE_LAWS = (*BRACKETS, "left pre-Lie associator symmetric in first two",
               "right pre-Lie associator symmetric in last two",
               "right product is the negated flipped left product")
DYNKIN = "Dynkin image of the power sum = iterated pre-Lie word, n={}"
RIGHT_POWER_SUM = "right power sum from compositions, n={}"
SEQMAT, SEQMAT0 = "rb-seqmat:theta=1,k=2,N=4", "rb-seqmat:theta=0,k=2,N=4"

# (suite, structure, check) -> (how many 0 = 0 checks, why they are zero)
ZERO_CHECKS = {
    **{("prelie-laws", "shuffle", check): (3, ZINBIEL)
       for check in PRELIE_LAWS},
    **{("dynkin-prelie", "shuffle", DYNKIN.format(n)): (1, ZINBIEL)
       for n in range(2, 6)},
    ("magnus", "shuffle", "omega_2 = ell(2)/2"): (1, ZINBIEL),
    ("magnus", "shuffle", "omega_3 = ell(3)/3 + [ell(1), ell(2)]/12"):
        (1, ZINBIEL),
    ("rb-spitzer", "rb-polymat:k=1",
     "commutative carrier: both operator pre-Lie products agree"):
        (1, COMMUTATIVE),
    **{("prelie-laws", SEQMAT0, check): (3, R_ZERO) for check in PRELIE_LAWS},
    ("rb-nested", SEQMAT0,
     "nested operator chains (first kind) = E-block products"): (1, R_ZERO),
    ("rb-nested", SEQMAT0,
     "nested operator chains (second kind) = primed F-block products"):
        (1, R_ZERO),
    **{("prelie-laws", structure, check): (3, ONE_KEY)
       for structure in ("mr", "free") for check in BRACKETS},
    **{("power-sums", structure, RIGHT_POWER_SUM.format(n)): (1, MAX_ALPHABET)
       for structure in ("max", "max-rev") for n in (3, 4)},
    **{("power-sums", SEQMAT, RIGHT_POWER_SUM.format(n)): (1, NILPOTENT)
       for n in (3, 4)},
}


@pytest.fixture(scope="module")
def catalogue_run():
    """One in-process run of the requests: the transcript, and a count of
    the checks whose two sides are both zero by (suite, structure, check)."""
    zeros = collections.Counter()
    equal, series_equal = suites._Run.equal, suites._Run.series_equal

    def record_equal(run, check, lhs, rhs):
        if not lhs and not rhs:
            zeros[run.suite, run.structure, check] += 1
        return equal(run, check, lhs, rhs)

    def record_series_equal(run, check, lhs, rhs):
        if not any(lhs.coeffs) and not any(rhs.coeffs):
            zeros[run.suite, run.structure, check] += 1
        return series_equal(run, check, lhs, rhs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites._Run, "equal", record_equal)
        patch.setattr(suites._Run, "series_equal", record_series_equal)
        transcript = verify_transcript()
    return transcript, zeros


def test_verify_outputs_match_the_golden_file(catalogue_run):
    transcript, _ = catalogue_run
    assert transcript == GOLDEN.read_text()


def test_every_zero_equals_zero_check_has_a_reason(catalogue_run):
    _, zeros = catalogue_run
    allowed = {key: count for key, (count, _) in ZERO_CHECKS.items()}
    assert dict(zeros) == allowed


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(verify_transcript())
