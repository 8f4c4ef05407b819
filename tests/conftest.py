"""Shared test fixtures."""

import pytest

from polarlab import channel


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Shut the kept Monte Carlo pool down after each test, so the next
    test forks its own pool after its monkeypatches."""
    yield
    channel._close_pool()
