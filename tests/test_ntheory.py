from math import isqrt

import pytest
import sympy

from maksarum.ntheory import divisors_from_factors, factorize, is_prime


def test_is_prime_matches_sympy():
    assert [n for n in range(-3, 3000) if is_prime(n)] == list(sympy.primerange(0, 3000))
    assert is_prime(8161) and not is_prime(3229 * 7)


def test_factorize_and_divisors_match_sympy():
    for n in list(range(1, 400)) + [60**4, 144 * 60**6, 18541**2]:
        factors = factorize(n)
        assert factors == sympy.factorint(n)
        assert divisors_from_factors(factors) == sympy.divisors(n)


# 1 (no primes), a largest prime with exponent 1 or 2, and the bounded-table shape
@pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 18541, 18541**2, 2 * 18541**2, 144 * 60**6])
def test_divisor_windows_match_sympy(n):
    full = sympy.divisors(n)
    factors = factorize(n)
    r = isqrt(n)
    # no bounds, empty windows, both ends, the survey's and the bounded table's windows
    windows = [(1, None), (1, n + 1), (1, 1), (9, 3), (0, 2), (n, n + 1), (n + 1, n + 9)]
    windows += [(2, r), (isqrt(2 * n) - r + 1, r)]
    windows += [(lo, hi) for lo in full[::7] for hi in (lo, lo + 1, n // lo + 1)]
    for lo, hi in windows:
        expected = [d for d in full if lo <= d and (hi is None or d < hi)]
        assert divisors_from_factors(factors, lo, hi) == expected, (lo, hi)
