"""Acceptance gate: every headline criterion, one test per check.

Each check prints its own PASS/FAIL line (visible with ``pytest -s`` or via
``h2star check``); the assertions here make pytest the gate.
"""

import pytest

from h2star import checks


@pytest.mark.parametrize(
    "name,check", checks.CHECKS_BY_NAME.items(), ids=list(checks.CHECKS_BY_NAME)
)
def test_acceptance(name, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name} [{result.seconds:.2f}s] {result.detail}")
    assert result.name == name
    assert result.passed, f"{name}: {result.detail}"


def test_registry_holds_every_check_in_order():
    """A check_* function missing from the registry would drop out of the gate
    above silently; each check's CheckResult.name is asserted there."""
    assert list(checks.CHECKS_BY_NAME) == [
        "sharp-bound-reproduction",
        "sharpness-attainment",
        "full-parameter-search",
        "herglotz-search",
        "prior-result-anchors",
        "algebra-reconciliation",
        "proof-step-properties",
        "caratheodory-admissibility",
        "sweep-determinism",
    ]
    defined = [fn for name, fn in vars(checks).items() if name.startswith("check_")]
    assert defined == list(checks.CHECKS_BY_NAME.values())
