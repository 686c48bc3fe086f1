"""Golden fingerprints: ``scripts/fingerprint.py --verify-paper``, run in this
process, must print the lines of ``tests/data/fingerprint.txt``.  Each line
hashes one exact output (class data, tables, element orders, chains, triple
reports, ``verify-paper --json``), so any change to an output fails here and
the message names the first one.  A change that alters an output on purpose
regenerates the file with the script and records why."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "fingerprint.txt"


def _fingerprint_script():
    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  ROOT / "scripts" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_outputs_match_the_golden_fingerprints():
    out = io.StringIO()
    with redirect_stdout(out):
        assert _fingerprint_script().main(["--verify-paper"]) == 0
    got = out.getvalue().splitlines()
    want = GOLDEN.read_text().splitlines()
    for line, expected in zip(got, want):
        kind, name, _ = expected.split()
        assert line == expected, f"first output that differs: {kind} {name} (got {line!r})"
    assert len(got) == len(want), f"{len(got)} fingerprint lines, expected {len(want)}"
