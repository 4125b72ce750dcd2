"""Acceptance gate: every criterion at its stated tolerance and time budget.

Runs each criterion from the shared module and prints one PASS/FAIL line per
criterion (visible with -s or in the captured output on failure).
"""

import pytest

from liebox.acceptance import CRITERIA, run_criterion

IDS = [f"{n:02d}-{name}" for n, name, _, _ in CRITERIA]


@pytest.mark.parametrize("number,name,fn,budget", CRITERIA, ids=IDS)
def test_acceptance_criterion(number, name, fn, budget, capsys):
    result = run_criterion(number, name, fn, budget)
    line = result.summary()
    with capsys.disabled():
        print(line, flush=True)
    assert result.passed, f"{line}\ndetails: {result.details}"
