from __future__ import annotations

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crring import (
    FactoredMonomial,
    LaurentPoly,
    LaurentTerm,
    NonIntegralExponent,
    collapse,
    format_rational,
    frac_part,
    monomial_mul,
    parse_rational,
    residue,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)


def test_frac_part_values():
    assert frac_part(Fraction(7, 3)) == Fraction(1, 3)
    assert frac_part(Fraction(-1, 4)) == Fraction(3, 4)
    assert frac_part(2) == 0


@given(rationals)
def test_frac_part_defining_property(x):
    r = frac_part(x)
    assert 0 <= r < 1
    assert (x - r).denominator == 1


@given(rationals)
def test_frac_part_idempotent(x):
    assert frac_part(frac_part(x)) == frac_part(x)


def test_rational_wire_format():
    assert format_rational(Fraction(4, 27)) == "4/27"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert parse_rational("4/27") == Fraction(4, 27)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("-0") == 0
    assert parse_rational("007") == 7
    assert parse_rational("3/06") == Fraction(1, 2)
    assert parse_rational("\u0663/\u0664") == Fraction(3, 4)  # Arabic-Indic digits
    for bad in ("1.5", "4/27x", "", "a/b", " 1/2", "1/0", "+1", " 1", "1_0", "1\n", "1/-2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(rationals)
def test_rational_round_trip(x):
    assert parse_rational(format_rational(x)) == x


WIRE = re.compile(r"-?\d+(/\d+)?")


def _fraction_or_error(text: str):
    """What ``Fraction(text)`` gives a wire string: a value, or ValueError
    for a zero denominator or a numeral past the interpreter's digit limit."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return ValueError


@given(st.from_regex(WIRE, fullmatch=True))
def test_parse_rational_agrees_with_fraction_on_the_wire_grammar(text):
    expected = _fraction_or_error(text)
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


@given(st.text().filter(lambda text: WIRE.fullmatch(text) is None))
def test_parse_rational_refuses_every_other_string(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), rationals, st.binary(),
                 st.lists(st.text(max_size=3), max_size=2)))
def test_parse_rational_refuses_non_strings(value):
    with pytest.raises(ValueError):
        parse_rational(value)


def _fraction_rendering(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@given(st.one_of(st.integers(), st.booleans(), st.fractions()))
def test_format_rational_agrees_with_the_fraction_rendering(x):
    assert format_rational(x) == _fraction_rendering(x)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no integer string conversion limit in this interpreter",
)
def test_parse_rational_refuses_a_numeral_past_the_digit_limit():
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    for text in (digits, f"-{digits}/3", f"3/{digits}"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_monomial_mul_cube_of_third_twist():
    # cube of the c=1/3 restriction factors on weights (1,2,2,3,3,3):
    # ((w0 u)^(1/3) (w1 u)^(2/3) (w2 u)^(2/3))^3 has integer exponents 1,2,2
    m = FactoredMonomial(
        Fraction(1), Fraction(0), {0: Fraction(1, 3), 1: Fraction(2, 3), 2: Fraction(2, 3)}
    )
    cube = monomial_mul(monomial_mul(m, m), m)
    assert cube == FactoredMonomial(
        Fraction(1), Fraction(0), {0: Fraction(1), 1: Fraction(2), 2: Fraction(2)}
    )


def test_monomial_mul_unit_and_half_powers():
    a = FactoredMonomial(Fraction(3, 2), Fraction(1), {0: Fraction(1, 2)})
    assert monomial_mul(a, FactoredMonomial.one()) == a
    half = FactoredMonomial(Fraction(1), Fraction(0), {0: Fraction(1, 2)})
    assert monomial_mul(half, half).factors == {0: Fraction(1)}


def test_collapse_values():
    m = FactoredMonomial(Fraction(1), Fraction(0), {0: 1, 1: 2, 2: 2})
    assert collapse(m, (1, 2, 2, 3, 3, 3)) == LaurentTerm(Fraction(16), 5)
    no_factors = FactoredMonomial(Fraction(1, 108), Fraction(-6), {})
    assert collapse(no_factors, (1, 2, 2, 3, 3, 3)) == LaurentTerm(Fraction(1, 108), -6)


def test_collapse_negative_weight_signs():
    m = FactoredMonomial(Fraction(1), Fraction(0), {0: 3})
    assert collapse(m, (-2,)) == LaurentTerm(Fraction(-8), 3)


def test_collapse_rejects_fractional_exponent():
    m = FactoredMonomial(Fraction(1), Fraction(0), {0: Fraction(1, 3)})
    with pytest.raises(NonIntegralExponent):
        collapse(m, (1, 2, 2, 3, 3, 3))
    with pytest.raises(NonIntegralExponent):
        collapse(FactoredMonomial(Fraction(1), Fraction(1, 2), {}), (1,))


integer_monomials = st.builds(
    FactoredMonomial,
    coeff=rationals,
    u_power=st.integers(-4, 4).map(Fraction),
    factors=st.dictionaries(st.integers(0, 4), st.integers(0, 3).map(Fraction), max_size=4),
)


@given(integer_monomials, integer_monomials)
def test_collapse_multiplicative(a, b):
    weights = (2, 3, -5, 7, 1)
    product = collapse(monomial_mul(a, b), weights)
    assert product == collapse(a, weights) * collapse(b, weights)


def test_residue_values():
    assert residue(LaurentPoly({-1: Fraction(16, 108)})) == Fraction(4, 27)
    assert residue(LaurentPoly({0: Fraction(5)})) == 0
    assert residue(LaurentPoly({-3: Fraction(3)})) == 0


laurent_polys = st.dictionaries(st.integers(-5, 5), rationals, max_size=6).map(LaurentPoly)


@given(laurent_polys, laurent_polys)
def test_residue_linear(p, q):
    assert residue(p + q) == residue(p) + residue(q)


def test_laurent_zero_term_normalizes():
    assert LaurentTerm(Fraction(0), 7) == LaurentTerm(Fraction(0), 0)
    assert not LaurentPoly({3: Fraction(0)})


def test_factored_monomial_drops_zero_exponents_and_rejects_negative():
    m = FactoredMonomial(Fraction(2), Fraction(0), {0: Fraction(0), 1: Fraction(1, 2)})
    assert m.factors == {1: Fraction(1, 2)}
    assert m.total_u_degree() == Fraction(1, 2)
    with pytest.raises(ValueError):
        FactoredMonomial(Fraction(1), Fraction(0), {0: Fraction(-1, 2)})
