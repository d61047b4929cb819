"""Correctness check for one ``tpa verify-paper`` run.

With ``TPA_SAMPLE_SEED`` unset the stdout document is fixed: 5,801 bytes
with the hash below.  Criterion 5 is deliberately red (the printed
negative list contains T03), so the run must exit 1 with exactly that
criterion failing.  Under another sample profile the document changes,
so the check becomes: the same red criterion, and stdout identical
across repetitions.
"""

from __future__ import annotations

import hashlib
import json

PAPER_SHA256 = "e38ad5a504b22d3680f48232e28b2463781bb4acf3e601c3a9887df9fe6bc890"
RED_CRITERIA = ["5-strong-d-special"]


def paper_ok(stdout, exit_code, sample_seed, first_stdout=None):
    """Whether one run's stdout (bytes) and exit code are the expected ones.

    ``first_stdout`` is the first repetition's stdout in this benchmark
    run; it is the reference when a sample profile is set."""
    if exit_code != 1:
        return False
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    red = [c["criterion"] for c in doc.get("criteria", []) if not c["pass"]]
    if red != RED_CRITERIA or doc.get("pass") is not False:
        return False
    if sample_seed is None:
        return hashlib.sha256(stdout).hexdigest() == PAPER_SHA256
    return first_stdout is None or stdout == first_stdout
