"""Shared pytest plumbing: the acceptance-criteria summary table and a
k-means++ seeding counter.

Acceptance tests record one verdict per criterion before asserting, so
the end-of-run summary always shows a pass/fail line for every criterion
that ran, including the ones that currently fail.
"""

import pytest

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS[number] = (bool(passed), description)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, description = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {verdict}  {description}")


@pytest.fixture
def kmeanspp_calls(monkeypatch):
    """``(K, trim_count)`` of every k-means++ seeding made while the test runs."""
    import hdbwdm.clustering as clustering

    calls = []
    original = clustering._kmeanspp_init

    def counting(X, K, trim_count, rng):
        calls.append((K, trim_count))
        return original(X, K, trim_count, rng)

    monkeypatch.setattr(clustering, "_kmeanspp_init", counting)
    return calls
