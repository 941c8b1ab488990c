"""Diagonal abelian quotient presentations C^n // (S^1 x A) and their
twisted sectors.

A ``QuotientDatum`` records the nonzero circle weights w_j, an optional
finite abelian part A (a product of cyclic factors, each acting by roots of
unity with integer phase numerators), and a chamber sign.  The moment map
mu = 1/2 * sum_j w_j |z_j|^2 of the circle action has its only wall at 0;
the quotient is taken at a regular level on the positive or negative side.
``validate_datum`` checks that every weight is nonzero and that the combined
action is effective, returning the ``ValidatedDatum`` that every other
module consumes.

Group elements are ``SectorLabel``s: a rational circle phase c in [0, 1)
plus one component per finite factor.  An element acts on coordinate j with
phase

    theta_j = frac(c * w_j + sum_k a_k * phases_k[j] / order_k)  in [0, 1),

its fixed set is {j : theta_j = 0}, and a label names a twisted sector of
the quotient exactly when the fixed coordinate subspace is nonempty and
meets the chosen moment level (some fixed coordinate with the chamber's
sign).  The degree shift (age) of a sector is the sum of the theta_j over
the unfixed coordinates.  Coordinates are 0-indexed throughout.

Integer encoding.  Every element that fixes a coordinate has c * D in Z for
the common denominator D = lcm|w_j| * lcm(order_k), so it is stored as the
code (c*D mod D, a_1 mod order_1, ...): composing and inverting elements is
componentwise modular addition and negation.  Its phases are the integer
numerators theta_j * D in [0, D) and its fixed set is a bitmask.  A
``SectorTable``, built once per (datum, chamber) on first use, holds these
for every sector together with the inverse sector's index, in the listing
order of ``ValidatedDatum.sectors``.  ``SectorLabel``, with its Fraction c,
is the public view of an element at the API and wire boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, product
from math import lcm, prod
from operator import not_
from typing import Iterable, Mapping

from .errors import DatumFormatError, EmptySector, IneffectiveAction, ZeroWeight
from .exact import format_rational, frac_part, parse_rational

CHAMBERS = ("positive", "negative")

Code = tuple[int, ...]


@dataclass(frozen=True)
class FiniteCyclicFactor:
    """A cyclic factor Z/order acting diagonally; generator phase on
    coordinate j is phases[j]/order in Q/Z."""

    order: int
    phases: tuple[int, ...]

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"cyclic factor order must be >= 2, got {self.order}")
        object.__setattr__(self, "phases", tuple(p % self.order for p in self.phases))


@dataclass(frozen=True)
class QuotientDatum:
    """An orbifold presentation: weights, finite phase factors, chamber."""

    weights: tuple[int, ...]
    finite: tuple[FiniteCyclicFactor, ...] = ()
    chamber: str = "positive"

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "finite", tuple(self.finite))
        if len(self.weights) < 1:
            raise ValueError("a quotient datum needs at least one coordinate")
        if self.chamber not in CHAMBERS:
            raise ValueError(f"chamber must be one of {CHAMBERS}, got {self.chamber!r}")
        for factor in self.finite:
            if len(factor.phases) != len(self.weights):
                raise ValueError(
                    f"finite factor has {len(factor.phases)} phases for "
                    f"{len(self.weights)} coordinates"
                )

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, order=True)
class SectorLabel:
    """A group element: circle phase c in [0, 1) plus finite components.

    Labels are normalized (c reduced to [0, 1), components reduced modulo
    their orders); build them through ``ValidatedDatum.label`` rather than
    directly when in doubt.
    """

    c: Fraction
    finite: tuple[int, ...] = ()

    @cached_property
    def _hash(self) -> int:  # hashing c takes a modular inverse: once per label, on first use
        return hash((self.c, self.finite))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        text = f"c={format_rational(self.c)}"
        if self.finite:
            text += ",a=" + ":".join(str(a) for a in self.finite)
        return text


@dataclass(frozen=True)
class SectorInfo:
    """A twisted sector: its label, fixed coordinates, rotation phases,
    degree shift, and complex dimension |I| - 1."""

    label: SectorLabel
    fixed_set: frozenset[int]
    thetas: tuple[Fraction, ...]
    shift: Fraction
    dim: int


@dataclass(frozen=True, eq=False)
class SectorTable:
    """The sectors of one chamber in integer form, indexed by position in
    ``ValidatedDatum.sectors``: element codes, theta numerators over
    ``moduli[0]`` = D, fixed-set bitmasks, dims and the inverse sector's
    index; ``index`` maps a code back to its position."""

    moduli: tuple[int, ...]
    infos: tuple[SectorInfo, ...]
    codes: tuple[Code, ...]
    thetas: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]
    dims: tuple[int, ...]
    inverse: tuple[int, ...]
    index: Mapping[Code, int]

    @property
    def denominator(self) -> int:
        return self.moduli[0]

    def compose(self, a: Code, b: Code) -> Code:
        return tuple([(x + y) % m for x, y, m in zip(a, b, self.moduli)])

    def invert(self, a: Code) -> Code:
        return tuple([-x % m for x, m in zip(a, self.moduli)])

    def position(self, t: SectorLabel) -> int | None:
        """Index of the sector labeled t, or None if t is no sector here."""
        num, den = t.c.as_integer_ratio()
        if self.moduli[0] % den:
            return None
        code = (num * (self.moduli[0] // den), *t.finite)
        return self.index.get(tuple([x % m for x, m in zip(code, self.moduli)]))


class ValidatedDatum:
    """A checked quotient presentation with its lazily built sector tables.

    Immutable after construction; all methods are pure.  Obtain instances
    via ``validate_datum``.
    """

    def __init__(self, datum: QuotientDatum):
        self.weights = datum.weights
        self.n = datum.n
        self.finite = datum.finite
        self.chamber = datum.chamber
        orders = [f.order for f in self.finite]
        self.finite_order = prod(orders)
        self.denominator = lcm(*(abs(w) for w in self.weights)) * lcm(*orders)
        self.moduli = (self.denominator, *orders)
        # phases_k[j] * D / order_k: a finite component's theta numerators
        self._rows = tuple(
            tuple(p * (self.denominator // f.order) for p in f.phases) for f in self.finite
        )
        self._bits = tuple(1 << j for j in range(self.n))
        self.level_masks = {
            "positive": sum(compress(self._bits, [w > 0 for w in self.weights])),
            "negative": sum(compress(self._bits, [w < 0 for w in self.weights])),
        }
        self._tables: dict[str, SectorTable] = {}
        self._identity = SectorLabel(Fraction(0), (0,) * len(self.finite))

    # -- group structure ---------------------------------------------------

    def identity(self) -> SectorLabel:
        return self._identity

    def label(self, c: Fraction | int, finite: Iterable[int] = ()) -> SectorLabel:
        """Build a normalized label: c mod 1, components mod their orders."""
        components = tuple(finite)
        if not components:
            components = (0,) * len(self.finite)
        if len(components) != len(self.finite):
            raise ValueError(
                f"label has {len(components)} finite components, datum has {len(self.finite)}"
            )
        components = tuple(a % f.order for a, f in zip(components, self.finite))
        return SectorLabel(frac_part(Fraction(c)), components)

    def compose(self, s: SectorLabel, t: SectorLabel) -> SectorLabel:
        return self.label(s.c + t.c, tuple(a + b for a, b in zip(s.finite, t.finite)))

    def inverse(self, t: SectorLabel) -> SectorLabel:
        return self.label(-t.c, tuple(-a for a in t.finite))

    # -- per-element geometry ----------------------------------------------

    def _numerators(self, c_num: int, finite: Iterable[int], q: int) -> tuple[int, ...]:
        """Theta numerators over q, a multiple of D, of the element with
        circle phase c_num / q and the given finite components."""
        scale = q // self.denominator
        raw = [c_num * w for w in self.weights]
        for a, row in zip(finite, self._rows):
            if a:
                raw = [x + a * scale * p for x, p in zip(raw, row)]
        return tuple([x % q for x in raw])

    def fixed_mask(self, numerators: Iterable[int]) -> int:
        """Bitmask of the coordinates whose theta numerator is 0."""
        return sum(compress(self._bits, map(not_, numerators)))

    def code_numerators(self, code: Code) -> tuple[int, ...]:
        """Theta numerators over D of the element with this code."""
        return self._numerators(code[0], code[1:], self.denominator)

    def theta_numerators(self, t: SectorLabel) -> tuple[int, tuple[int, ...]]:
        """(q, numerators) with theta_j(t) = numerators[j] / q.  q is D for
        every label that fixes a coordinate, a multiple of D otherwise."""
        num, den = t.c.as_integer_ratio()
        q = lcm(self.denominator, den)
        return q, self._numerators(num * (q // den), t.finite, q)

    def thetas(self, t: SectorLabel) -> tuple[Fraction, ...]:
        """Rotation phases (theta_0, ..., theta_{n-1}) of t, each in [0, 1)."""
        q, numerators = self.theta_numerators(t)
        return tuple(Fraction(x, q) for x in numerators)

    def fixed_set(self, t: SectorLabel) -> frozenset[int]:
        return frozenset(j for j, x in enumerate(self.theta_numerators(t)[1]) if not x)

    def degree_shift(self, t: SectorLabel) -> Fraction:
        """Age of t: the sum of theta_j over coordinates t moves."""
        q, numerators = self.theta_numerators(t)
        return Fraction(sum(numerators), q)

    # -- sector enumeration --------------------------------------------------

    def _info(self, t: SectorLabel, numerators: tuple[int, ...], q: int) -> SectorInfo:
        fixed = frozenset(j for j, x in enumerate(numerators) if not x)
        thetas = tuple(Fraction(x, q) for x in numerators)
        return SectorInfo(t, fixed, thetas, Fraction(sum(numerators), q), len(fixed) - 1)

    def _candidate_codes(self, coordinates: Iterable[int]) -> set[Code]:
        # An element fixes coordinate j iff C*w_j + Phi_j(a) = 0 mod D, where
        # Phi_j(a) = sum_k a_k * rows_k[j] is divisible by |w_j|; the |w_j|
        # solutions are C = -Phi_j(a)/w_j + m*D/|w_j|.
        d = self.denominator
        codes = set()
        for a in product(*(range(f.order) for f in self.finite)):
            for j in coordinates:
                w = self.weights[j]
                base = -sum(x * row[j] for x, row in zip(a, self._rows)) // w
                step = d // abs(w)
                codes.update(((base + m * step) % d, *a) for m in range(abs(w)))
        return codes

    def _chamber(self, chamber: str | None) -> str:
        chamber = chamber or self.chamber
        if chamber not in CHAMBERS:
            raise ValueError(f"chamber must be one of {CHAMBERS}, got {chamber!r}")
        return chamber

    def sector_table(self, chamber: str | None = None) -> SectorTable:
        """The integer sector table of a chamber (default: the datum's)."""
        chamber = self._chamber(chamber)
        table = self._tables.get(chamber)
        if table is None:
            table = self._tables[chamber] = self._build_table(chamber)
        return table

    def _build_table(self, chamber: str) -> SectorTable:
        d, level = self.denominator, self.level_masks[chamber]
        rows = []
        # identity (the zero code) first, then by (c, finite components)
        for code in sorted(self._candidate_codes(range(self.n))):
            numerators = self.code_numerators(code)
            mask = self.fixed_mask(numerators)
            if mask & level:
                rows.append((code, numerators, mask))
        codes = tuple(code for code, _, _ in rows)
        index = {code: i for i, code in enumerate(codes)}
        infos = tuple(
            self._info(SectorLabel(Fraction(code[0], d), code[1:]), numerators, d)
            for code, numerators, _ in rows
        )
        return SectorTable(
            self.moduli,
            infos,
            codes,
            tuple(numerators for _, numerators, _ in rows),
            tuple(mask for _, _, mask in rows),
            tuple(info.dim for info in infos),
            tuple(index[tuple([-x % m for x, m in zip(c, self.moduli)])] for c in codes),
            index,
        )

    def sectors(self, chamber: str | None = None) -> tuple[SectorInfo, ...]:
        """All twisted sectors in the given chamber (default: the datum's).

        The identity sector comes first when present; the rest are sorted by
        (c, finite components).  The list is duplicate-free and closed under
        the label inverse.
        """
        return self.sector_table(chamber).infos

    def sector_info(self, t: SectorLabel, chamber: str | None = None) -> SectorInfo:
        """Full sector record for t; EmptySector if t labels no sector here."""
        chamber = self._chamber(chamber)
        q, numerators = self.theta_numerators(t)
        mask = self.fixed_mask(numerators)
        if not mask:
            raise EmptySector(f"{t} fixes no coordinate")
        if not mask & self.level_masks[chamber]:
            raise EmptySector(f"{t} has no fixed coordinate on the {chamber} side of the wall")
        return self._info(t, numerators, q)


def validate_datum(datum: QuotientDatum) -> ValidatedDatum:
    """Check weights and effectiveness, returning the validated datum.

    Raises ``ZeroWeight`` if some w_j = 0 (the wall fixed locus would be
    noncompact) and ``IneffectiveAction`` if any nontrivial group element
    acts trivially on all coordinates (the orbifold integration convention
    would be ambiguous, so such data are rejected rather than rescaled).
    """
    for j, w in enumerate(datum.weights):
        if w == 0:
            raise ZeroWeight(f"coordinate {j} has weight 0")
    vd = ValidatedDatum(datum)
    # an element acting trivially in particular fixes coordinate 0
    for code in sorted(vd._candidate_codes([0])):
        if any(code) and not any(vd.code_numerators(code)):
            t = SectorLabel(Fraction(code[0], vd.denominator), code[1:])
            raise IneffectiveAction(f"{t} acts trivially on every coordinate")
    return vd


# -- wire format -----------------------------------------------------------


def datum_to_doc(datum: QuotientDatum) -> dict:
    """Serialize a datum to its document form (n, weights, finite, chamber)."""
    return {
        "n": datum.n,
        "weights": list(datum.weights),
        "finite": [
            {"order": f.order, "phases": list(f.phases)} for f in datum.finite
        ],
        "chamber": datum.chamber,
    }


def datum_from_doc(doc: object) -> QuotientDatum:
    """Parse a datum document, checking the shape of every field.  Integer
    fields take JSON integers only: ``true`` is no 1 here."""
    if not isinstance(doc, dict):
        raise DatumFormatError("datum document must be a mapping")
    missing = {"n", "weights", "finite", "chamber"} - set(doc)
    if missing:
        raise DatumFormatError(f"datum document lacks fields: {sorted(missing)}")
    weights = doc["weights"]
    if not isinstance(weights, list) or not all(type(w) is int for w in weights):
        raise DatumFormatError("weights must be a list of integers")
    if type(doc["n"]) is not int or doc["n"] != len(weights):
        raise DatumFormatError(f"n={doc['n']!r} does not match {len(weights)} weights")
    finite = []
    if not isinstance(doc["finite"], list):
        raise DatumFormatError("finite must be a list of {order, phases} records")
    for record in doc["finite"]:
        if (
            not isinstance(record, dict)
            or type(record.get("order")) is not int
            or not isinstance(record.get("phases"), list)
            or not all(type(p) is int for p in record["phases"])
        ):
            raise DatumFormatError("finite factors must be {order: int, phases: [int]}")
        try:
            finite.append(FiniteCyclicFactor(record["order"], tuple(record["phases"])))
        except ValueError as exc:
            raise DatumFormatError(str(exc)) from exc
    if doc["chamber"] not in CHAMBERS:
        raise DatumFormatError(f"chamber must be one of {CHAMBERS}")
    try:
        return QuotientDatum(tuple(weights), tuple(finite), doc["chamber"])
    except ValueError as exc:
        raise DatumFormatError(str(exc)) from exc


def label_to_doc(t: SectorLabel) -> dict:
    return {"c": format_rational(t.c), "finite": list(t.finite)}


def label_from_doc(doc: object, vd: ValidatedDatum | None = None) -> SectorLabel:
    """Parse a sector label document; normalizes against vd when given."""
    if not isinstance(doc, dict) or "c" not in doc:
        raise DatumFormatError("sector label must be a mapping with a 'c' field")
    finite = doc.get("finite", ())
    if not isinstance(finite, (list, tuple)) or not all(type(a) is int for a in finite):
        raise DatumFormatError("finite components must be a list of integers")
    try:
        c = parse_rational(doc["c"])
        if vd is not None:
            return vd.label(c, finite)
    except ValueError as exc:
        raise DatumFormatError(str(exc)) from exc
    return SectorLabel(frac_part(c), tuple(finite))
