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
