"""Fixtures shared by the test modules."""

from fractions import Fraction as Q

import pytest


@pytest.fixture
def fraction_count(monkeypatch):
    """How many ``Fraction``s have been made since the fixture was set up."""
    count = [0]
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counted))
    return count
