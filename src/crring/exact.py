"""Exact scalar arithmetic: rationals, Laurent polynomials in the equivariant
parameter u, and factored monomials with fractional exponents.

Every coefficient in this package is an exact rational (a
``fractions.Fraction``, or an ``int`` where it is integral); nothing ever
rounds.  Rationals serialize as ``"p/q"`` in lowest terms with q > 0, or
``"p"`` when the denominator is 1.  ``format_rational`` renders an ``int``
or a ``Fraction`` directly and any other rational through ``Fraction(x)``.
``parse_rational`` accepts exactly the strings ``-?D+`` and ``-?D+/D+`` (D a
decimal digit, Unicode digits included), not necessarily in lowest terms,
and returns the value ``Fraction(text)`` would; anything else, a zero
denominator, or a non-str raises ``ValueError``.  Equal strings give equal
values, so a reader may parse each distinct string once and share the
resulting ``Fraction`` object among all its occurrences.

A ``FactoredMonomial`` keeps a product

    c * u**a * prod_j (w_j * u)**e_j

in factored symbolic form.  The per-coordinate exponents ``e_j`` may be
fractional rationals; the integer bases ``w_j`` are not stored here but
supplied at ``collapse`` time from the ambient quotient datum.  A fractional
power such as (2u)**(2/3) is irrational and is never evaluated on its own:
the monomial only collapses to an honest Laurent term once every exponent has
become an integer, and ``collapse`` raises ``NonIntegralExponent`` otherwise.

The residue of a Laurent polynomial is the coefficient of u**(-1).  All wall
contributions in this package are extracted with that single convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import NonIntegralExponent

Rational = Fraction

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")


def _as_fraction(x) -> Fraction:
    # avoids the generic Fraction constructor on the hot paths
    return x if type(x) is Fraction else Fraction(x)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from the wire format "p/q" or "p"."""
    match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    p, q = match.groups()
    if q is None:
        return Fraction(int(p))
    q = int(q)
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(p), q)


def format_rational(x: Fraction | int) -> str:
    """Render a rational as "p/q" in lowest terms (q > 0), or "p" if q = 1."""
    if type(x) is int:
        return str(x)
    if type(x) is not Fraction:
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_part(x: Fraction | int) -> Fraction:
    """Fractional part of x: the unique r in [0, 1) with x - r an integer."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


@dataclass(frozen=True)
class LaurentTerm:
    """A single term coeff * u**power with integer power."""

    coeff: Fraction
    power: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_fraction(self.coeff))
        if self.coeff == 0 and self.power != 0:
            object.__setattr__(self, "power", 0)

    def __mul__(self, other: "LaurentTerm") -> "LaurentTerm":
        return LaurentTerm(self.coeff * other.coeff, self.power + other.power)


class LaurentPoly:
    """A finite Fraction-coefficient sum of integer powers of u.

    Powers are unbounded in both directions; localization denominators
    produce negative powers by design.  Zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        cleaned: dict[int, Fraction] = {}
        for power, coeff in (terms or {}).items():
            coeff = _as_fraction(coeff)
            if coeff != 0:
                cleaned[int(power)] = coeff
        self._terms = cleaned

    @classmethod
    def from_term(cls, term: LaurentTerm) -> "LaurentPoly":
        return cls({term.power: term.coeff})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def coefficient(self, power: int) -> Fraction:
        return self._terms.get(power, Fraction(0))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        merged = dict(self._terms)
        for power, coeff in other._terms.items():
            merged[power] = merged.get(power, Fraction(0)) + coeff
        return LaurentPoly(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "LaurentPoly(0)"
        body = " + ".join(
            f"({format_rational(c)})*u^{p}" for p, c in sorted(self._terms.items())
        )
        return f"LaurentPoly({body})"


def residue(p: LaurentPoly) -> Fraction:
    """Coefficient of u**(-1); linear in p."""
    return p.coefficient(-1)


@dataclass(frozen=True)
class FactoredMonomial:
    """A factored product c * u**u_power * prod_j (w_j u)**e_j.

    ``factors`` maps a coordinate index j to its exponent e_j >= 0; entries
    with e_j = 0 are dropped.  The total u-degree is u_power + sum_j e_j and
    is rational in general.
    """

    coeff: Fraction
    u_power: Fraction = Fraction(0)
    factors: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_fraction(self.coeff))
        object.__setattr__(self, "u_power", _as_fraction(self.u_power))
        cleaned: dict[int, Fraction] = {}
        for j, e in self.factors.items():
            e = _as_fraction(e)
            if e.numerator < 0:
                raise ValueError(f"negative factor exponent {e} at coordinate {j}")
            if e.numerator != 0:
                cleaned[int(j)] = e
        object.__setattr__(self, "factors", cleaned)

    @classmethod
    def one(cls) -> "FactoredMonomial":
        return cls(Fraction(1))

    def total_u_degree(self) -> Fraction:
        return self.u_power + sum(self.factors.values(), Fraction(0))


def monomial_mul(a: FactoredMonomial, b: FactoredMonomial) -> FactoredMonomial:
    """Multiply two factored monomials over the same coordinate index space."""
    factors = dict(a.factors)
    for j, e in b.factors.items():
        factors[j] = factors.get(j, Fraction(0)) + e
    return FactoredMonomial(a.coeff * b.coeff, a.u_power + b.u_power, factors)


def collapse(m: FactoredMonomial, weights: tuple[int, ...] | list[int]) -> LaurentTerm:
    """Evaluate a factored monomial once all exponents are integral.

    Substitutes the base w_j for each factor, giving the Laurent term
    m.coeff * prod_j w_j**e_j * u**(u_power + sum_j e_j).  Raises
    ``NonIntegralExponent`` if u_power or any e_j is not an integer, since a
    fractional twist factor has no standalone value.
    """
    if m.u_power.denominator != 1:
        raise NonIntegralExponent(f"u power {format_rational(m.u_power)} is not an integer")
    coeff = m.coeff
    power = m.u_power.numerator
    for j, e in sorted(m.factors.items()):
        if e.denominator != 1:
            raise NonIntegralExponent(
                f"coordinate {j} carries fractional exponent {format_rational(e)}"
            )
        if not 0 <= j < len(weights):
            raise ValueError(f"coordinate {j} outside the weight vector")
        coeff *= Fraction(weights[j]) ** e.numerator
        power += e.numerator
    return LaurentTerm(coeff, power)
