"""Acceptance suite: the package's exit criteria.

One test per check in `jacobiforms.checks`, the same checks that
`jacobiforms selftest` runs.  Every comparison is an exact rational equality
(tolerance 0).  Each check prints one pass/fail line with its time (run with
`pytest tests/test_acceptance.py -v -s`).
"""

import pytest

from jacobiforms import checks

TIME_LIMITS_S = {"identity registry": 120, "counting oracles": 60}


@pytest.mark.parametrize("check", checks.CHECKS, ids=[name.replace(" ", "-") for name, _ in checks.CHECKS])
def test_check(check):
    ((name, ok, detail, elapsed),) = checks.run([check])
    print(f"{name}: {'pass' if ok else 'FAIL'} in {elapsed:.2f}s ({detail})")
    assert ok, f"{name} failed: {detail}"
    if name in TIME_LIMITS_S:
        assert elapsed < TIME_LIMITS_S[name], f"{name} took {elapsed:.1f}s"
