"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The same checks back the `revprime verify` command; asymptotic criteria read
their tolerances from the oracle-derived fixtures file (see
scripts/build_fixtures.py for provenance).
"""

import pytest

from revprime import verify

_CHECKS = {name: (keys, fn) for name, keys, fn in verify._CHECKS}


@pytest.fixture(scope="module")
def fixture_values():
    return verify.load_fixtures(verify.default_fixtures_path())


def _run(name, fixture_values=None):
    keys, fn = _CHECKS[name]
    passed, detail = fn(fixture_values) if keys else fn()
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, detail


def test_criterion_01_reversal_algebra():
    _run("1-reversal-algebra")


def test_criterion_02_residue_exp_sum():
    _run("2-residue-exp-sum")


def test_criterion_03_singular_series():
    _run("3-singular-series")


def test_criterion_04_representation_oracle():
    _run("4-representation-oracle")


def test_criterion_05_exact_obstructions():
    _run("5-exact-obstructions")


def test_criterion_06_composition_bounds():
    _run("6-composition-bounds")


def test_criterion_07_progression_convergence(fixture_values):
    _run("7-progression-convergence", fixture_values)


def test_criterion_08_parseval():
    _run("8-parseval")


def test_criterion_09_exception_decay(fixture_values):
    _run("9-exception-decay", fixture_values)


def test_criterion_10_ternary_positivity():
    _run("10-ternary-positivity")
