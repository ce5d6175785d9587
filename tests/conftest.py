"""Fixtures shared by the test modules."""

import pytest

from jacobiforms import catalog, lattice

# every constructor behind series.memo_by_prec
PREC_MEMOS = [
    obj for obj in vars(catalog).values()
    if hasattr(obj, "cache_clear") and obj.__module__ == catalog.__name__
] + [lattice._jacobi_theta_e8_cached]


@pytest.fixture
def clear_memos():
    """A function that empties every precision memo, so the next call of
    each constructor builds from scratch."""
    def clear():
        for memo in PREC_MEMOS:
            memo.cache_clear()
    return clear
