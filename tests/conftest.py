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


@pytest.fixture(scope="session")
def refuse():
    """refuse(patch, *targets): through the MonkeyPatch patch, each dotted target (say
    "maksarum.survey._sides") fails the test when it is called.  Session-scoped, so that a
    hypothesis test can pass a MonkeyPatch of its own for each example."""

    def refused(target):
        def fail(*args, **kwargs):
            raise AssertionError(f"called {target}")

        return fail

    def refuse(patch, *targets):
        for target in targets:
            patch.setattr(target, refused(target))

    return refuse


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    """One CPU whatever the machine has, so that only a test that takes forks can fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


@pytest.fixture
def forks(one_cpu, monkeypatch):
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
