"""Exact scalar arithmetic: the rational wire format and fractional parts.

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
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")


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
