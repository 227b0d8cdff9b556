"""Golden `expand` outputs: every op on every standard selector, compared byte for byte.

The file `tests/golden/expand.txt` holds the stdout and exit code of
`dendralg expand --structure SEL --op OP --n N` for every op in
`cli.EXPAND_OPS`, every selector in `STANDARD_SELECTORS` and N in 0, 1, 3, 4.
Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

from dendralg import STANDARD_SELECTORS
from dendralg.cli import EXPAND_OPS, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "expand.txt"
SIZES = (0, 1, 3, 4)


def expand_transcript() -> str:
    """Run every golden `expand` case in-process and return the transcript."""
    chunks = []
    for selector in STANDARD_SELECTORS:
        for op in EXPAND_OPS:
            for n in SIZES:
                argv = ["expand", "--structure", selector, "--op", op,
                        "--n", str(n)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                chunks.append(f"$ dendralg {' '.join(argv)}\n"
                              f"{out.getvalue()}[exit {code}]\n")
    return "".join(chunks)


def test_expand_outputs_match_the_golden_file():
    assert expand_transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(expand_transcript())
