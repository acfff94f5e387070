"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture
def cap_row_reads():
    """Return a function that makes ``s.row_of`` fail after `cap` calls, so
    that a recursion which walks every one of 10^9 generations fails at once
    instead of running for hours."""

    def cap_row_reads(s, cap=100):
        reads = 0
        row_of = s.row_of

        def capped(i):
            nonlocal reads
            reads += 1
            assert reads <= cap, "a row read for every generation"
            return row_of(i)

        s.row_of = capped
        return s

    return cap_row_reads
