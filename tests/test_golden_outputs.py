"""Golden outputs: the SHA-256 of the stdout of 700 fixed CLI questions.

`golden_outputs.json` holds one question per line: its argv, its exit
code and the SHA-256 of its stdout.  The argv are frozen: rounds 0-4 of
the `thresholds` and `nu` question generators of the benchmark for seeds
7 and 8, and 20 body-LP questions (`fthreshold --target`, and
`waldschmidt` on symbolic and composite rules) drawn from
`random_filtration(random.Random(26), n, depth=2)`.  Any change to any
answer fails the test, so a refactor that claims byte-identical output
is checked here.  A change that alters output on purpose rewrites the
hashes with

    PYTHONPATH=src python tests/test_golden_outputs.py --write

and names the changed fields in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from fthresh.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _answer(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return {"argv": argv, "exit": code, "sha256": digest}


def test_golden_outputs():
    questions = json.loads(GOLDEN.read_text())
    changed = [q["argv"] for q in questions if _answer(q["argv"]) != q]
    assert not changed, (
        f"{len(changed)} of {len(questions)} answers changed, the first: {changed[0]}"
    )


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    answers = [_answer(q["argv"]) for q in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(a) for a in answers) + "\n]\n")
