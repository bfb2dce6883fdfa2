"""Acceptance gate: every criterion runs at its stated tolerance (exact
equality throughout) and prints one pass/fail line."""

import hashlib
import json

import pytest

from ulrichcert.acceptance import CRITERIA
from ulrichcert.cli import main

#: sha256 of ``selftest --format json`` with each criterion's ``seconds``
#: removed, re-dumped by ``json.dumps(payload, indent=2)`` plus a newline
SELFTEST_DIGEST = "9650b0ddf8d25dcac2daa8339d5723eb197739690f8dc1565d4798149f25bd98"


@pytest.mark.parametrize("number,title,fn", CRITERIA, ids=[f"criterion-{n}" for n, _, _ in CRITERIA])
def test_criterion(number, title, fn):
    passed, details = fn()
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({title}): {details}")
    assert passed, details


def test_selftest_json_bytes_are_pinned_but_for_the_timings(capsys):
    # every criterion's number, title, status and details, and the overall
    # status, byte for byte; only the wall-clock seconds may move
    assert main(["selftest", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for criterion in payload["criteria"]:
        del criterion["seconds"]
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SELFTEST_DIGEST
