"""Shared test fixtures."""

import pytest

from e8g2 import checks


@pytest.fixture(autouse=True)
def fresh_series_sides():
    """Clear the process's memo of check3's two sides before and after each
    test: tests patch what the sides are formed from (``S0``,
    ``_straighten``, ``_KERNEL_TERMS``, ``_q_clear``), and sides formed by
    an earlier test would hide the patch."""
    checks._SERIES_SIDES.clear()
    yield
    checks._SERIES_SIDES.clear()
