"""Each library input check raises its own exception type with its own message.

These checks guard the public functions against values the CLI never passes
(it refuses them first), so no other test reaches them.
"""

from fractions import Fraction

import pytest

from maksarum import circle, ntheory
from maksarum.factor import derive_q, normalized_sides, solve_integer
from maksarum.partitions import GeneratorPair, enumerate_bounded, k_star, step, step_by_s
from maksarum.sexagesimal import (
    ParseError,
    Sexagesimal,
    parse,
    place_value_equal,
    regular_power,
    to_string,
)

PAIR = GeneratorPair(Fraction(9), Fraction(16))

# (call, exception type, message)
CHECKS = [
    (lambda: regular_power(0), ValueError, "denominator must be positive, got 0"),
    (lambda: Sexagesimal(-1), ValueError, "sexagesimal values are nonnegative, got -1/60**0"),
    (lambda: Sexagesimal(1, -1), ValueError, "frac_len must be >= 0, got -1"),
    (lambda: Sexagesimal.from_fraction(Fraction(-1, 2)), ValueError,
     "sexagesimal values are nonnegative, got -1/2"),
    (lambda: Sexagesimal.from_digits([60]), ValueError, "digit 60 out of range [0, 59]"),
    (lambda: Sexagesimal.truncate(Fraction(-1), 2), ValueError, "cannot truncate a negative value"),
    (lambda: place_value_equal(1.5, 1), TypeError, "cannot compare float with int"),
    (lambda: parse(";"), ParseError, "no digits in ';'"),
    (lambda: to_string(1, "roman"), ValueError, "unknown style 'roman'"),
    (lambda: solve_integer(2, 0), ValueError, "m and q must be >= 1, got m=12 q=0"),
    (lambda: normalized_sides(Fraction(0)), ValueError, "generator must be positive, got 0"),
    (lambda: derive_q(Fraction(0), Fraction(12)), ValueError, "short side must be positive, got 0"),
    (lambda: k_star(0, PAIR), ValueError, "scaling constant must be positive, got 0"),
    (lambda: step(PAIR, -PAIR.x), ValueError,
     "step would make the generator nonpositive: X=9, E=-9"),
    (lambda: step_by_s(PAIR, PAIR.y), ValueError,
     "step would make the cogenerator nonpositive: Y=16, S=16"),
    (lambda: enumerate_bounded(12, -1), ValueError, "max_frac_digits must be >= 0, got -1"),
    (lambda: circle.true_area(0), ValueError, "circumference must be positive, got 0"),
    (lambda: ntheory.factorize(0), ValueError, "factorize expects n >= 1, got 0"),
]


@pytest.mark.parametrize("call, error, message", CHECKS, ids=[c[2] for c in CHECKS])
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
