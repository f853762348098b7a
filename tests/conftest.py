"""Warning filters for the tier-1 suite only.

A file left open (say, by a records writer) fails the test that opened it.
These filters are marks on the tests here rather than pyproject.toml
filterwarnings, which would also apply to ``pytest perfbench/test_smoke.py``.
"""
import pytest

_ERRORS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        for mark in _ERRORS:
            item.add_marker(mark)
