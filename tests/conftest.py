"""Shared pytest configuration.

Besides the usual fixtures this prints a one-line verdict per
acceptance criterion after the run, gathered from the outcomes of the
``test_criterion_*`` functions in ``test_acceptance.py``.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from maieutic import backend

CRITERIA = {
    1: "solver agrees with brute force exactly on random instances",
    2: "belief and consistency weights keep their range and symmetry",
    3: "randomized trees stay bounded and prune to integral leaves",
    4: "negation-invariant backend degrades to the flagged fallback",
    5: "golden scenario answers True at the hand-checked optimum, byte-stable",
    6: "fixed tree compiles to the hand-derived clause dump",
    7: "solver files round-trip through the exchange format",
    8: "metrics match hand counts on the fixture dataset",
    9: "repeat evaluation is byte-identical and fully cache-served",
}


# A socket or file that a test leaves open fails that test. The filters stay
# out of ``benchmarks/``, whose tests run from the same root.
LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            # put first, so that a test's own filterwarnings mark still wins
            item.add_marker(pytest.mark.filterwarnings(*LEAK_FILTERS), append=False)


@pytest.fixture()
def data_dir() -> Path:
    return Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """HTTP retries wait 10 ms, not a second, before their second attempt."""
    monkeypatch.setattr(backend, "BACKOFF_S", 0.01)


def _criterion_number(nodeid: str) -> int | None:
    marker = "test_acceptance.py::test_criterion_"
    if marker not in nodeid:
        return None
    tail = nodeid.split(marker, 1)[1]
    digits = ""
    for ch in tail:
        if not ch.isdigit():
            break
        digits += ch
    return int(digits) if digits else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for category, verdict in (("failed", "FAIL"), ("error", "FAIL"),
                              ("passed", "PASS")):
        for report in terminalreporter.stats.get(category, []):
            number = _criterion_number(getattr(report, "nodeid", ""))
            if number is None:
                continue
            if verdict == "PASS" and getattr(report, "when", "call") != "call":
                continue
            if outcomes.get(number) != "FAIL":
                outcomes[number] = verdict
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(CRITERIA):
        verdict = outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number}: {verdict} - {CRITERIA[number]}")
