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
    """``(K, trim_count)`` of every restart seeded while the test runs, one entry per restart."""
    import hdbwdm.clustering as clustering
    import hdbwdm.validity as validity

    calls = []
    original = clustering._seedings

    def counting(X, K, trim_count, seed, restarts):
        calls.extend((K, trim_count) for _ in restarts)
        return original(X, K, trim_count, seed, restarts)

    monkeypatch.setattr(clustering, "_seedings", counting)
    monkeypatch.setattr(validity, "_seedings", counting)  # the K scan's own import
    return calls
