"""Small integer number-theory helpers shared across the package."""

from __future__ import annotations


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


def divisors_from_factors(factors: dict[int, int]) -> list[int]:
    """All positive divisors of the number factored as {prime: exponent}, ascending."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def is_prime(n: int) -> bool:
    """Exact primality: n is prime iff its factorization is n itself."""
    return n >= 2 and factorize(n) == {n: 1}
