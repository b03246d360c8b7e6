"""pytest conftest for the benchmark directory (helpers live in helpers.py)."""

import pytest

from helpers import simulate_cached

from repro.memo import cache_report


@pytest.fixture(scope="session")
def sim():
    """Session-shared cached simulator (see helpers.simulate_cached)."""
    return simulate_cached


def pytest_terminal_summary(terminalreporter):
    """Show how much of the benchmark run came out of the memo caches."""
    terminalreporter.write_sep("-", "simulator cache report")
    terminalreporter.write_line(cache_report())
