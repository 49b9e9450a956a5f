"""Small integer number-theory helpers shared across the package."""

from __future__ import annotations

from bisect import bisect_left
from math import prod


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors_from_factors(factors: dict[int, int], lo: int = 1, hi: int | None = None) -> list[int]:
    """The divisors d with lo <= d < hi of the number factored as {prime: exponent}, ascending.

    hi None means no upper bound.  Products over all primes but the last stop
    at hi; each then starts at the first power of the last prime that lifts it
    to lo, found by bisection.  Divisors outside the window are never built.
    The prime with the largest exponent goes last, which keeps the partial
    products fewest.
    """
    if hi is None:
        hi = prod(p**e for p, e in factors.items()) + 1
    primes = sorted(factors.items(), key=lambda pe: pe[1]) or [(1, 0)]  # 1 has the one divisor 1
    partial = [1]
    for p, e in primes[:-1]:
        powers = [p**k for k in range(e + 1)]
        grown = []
        for d in partial:
            for pk in powers:
                v = d * pk
                if v >= hi:
                    break
                grown.append(v)
        partial = grown
    p, e = primes[-1]
    powers = [p**k for k in range(e + 1)]
    out = []
    for d in partial:
        for pk in powers[bisect_left(powers, -(-lo // d)):]:
            v = d * pk
            if v >= hi:
                break
            out.append(v)
    out.sort()
    return out


def is_prime(n: int) -> bool:
    """Exact primality: n is prime iff its factorization is n itself."""
    return n >= 2 and factorize(n) == {n: 1}
