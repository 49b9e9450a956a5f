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
