import os
from itertools import count
from math import prod

import pytest

from maksarum import survey


@pytest.fixture
def a_non_divisor(monkeypatch):
    """survey's divisor lists, each with the least u >= 2 that does not divide added."""
    divisors = survey.divisors_from_factors

    def with_a_non_divisor(factors, lo=1, hi=None):
        n = prod(p**e for p, e in factors.items())
        return divisors(factors, lo, hi) + [next(u for u in count(2) if n % u)]

    monkeypatch.setattr(survey, "divisors_from_factors", with_a_non_divisor)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls this process makes, one list entry each, with two CPUs whatever the
    machine has, so that a long enough export forks.  Afterwards this process must have no
    child left, running or unreaped."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
