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
rows together with the inverse sector's index, in the listing order of
``ValidatedDatum.sectors``.  Each table is solved on its chamber's side: the
elements that fix a coordinate of the chamber's sign are exactly its
sectors, and their fixed-set masks are read over every coordinate.

One statement per sector-level rule.  ``_theta`` is the theta formula,
(x * X + sum_k y_k * Y_k) mod q over zipped vectors.  Its column form
``theta_column`` (the codes as vectors) builds the table a coordinate at a
time and gives the self-test theta_r of r = (st)^-1 from the code of r;
its row form ``code_numerators`` (one code as scalars) gives the row of one
element, for the validation scan and for labels, and ``theta_numerators``
of a label at q = lcm(D, den c); ``_candidate_codes`` solves the column
form at the codes (0, a) for c.  ``_code`` turns a label into its code, or
None off the lattice of D, for ``SectorTable.position`` and
``ValidatedDatum.sector_row``; ``code_label`` is its inverse, and
``compose_codes`` and ``invert_code`` compose and invert one code.
``sector_row`` is the one statement of which basis elements eta^k 1_(t)
exist, read by every point request, the ring's point methods and the wire
reader: it refuses a label that fixes no coordinate, or none on the
chamber's side (``EmptySector``), and k outside [0, dim] (``EtaPowerRange``).
Fixed sets and dims are read off masks, dim = |I| - 1 by
``sector_dim``.  The self-test reads every sector's label back through
``sector_row`` and ``theta_numerators`` against its table row.
``SectorLabel`` (with its Fraction c) and ``SectorInfo`` (with Fraction
thetas and shift) are the public views of an element and of a table row at
the API boundary; a table builds the label of one sector, or its tuple of
all labels, only on demand.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress, product, repeat
from math import lcm, prod
from operator import add, not_

from .errors import DatumFormatError, EmptySector, EtaPowerRange, IneffectiveAction, ZeroWeight
from .exact import _refuse_float, format_rational, frac_part, parse_rational

CHAMBERS = ("positive", "negative")

Code = tuple[int, ...]


def _int(value: object, what: str) -> int:
    """value if it is an int; a ``TypeError`` naming it otherwise, a bool,
    float or str included."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is a {type(value).__name__}; {what}s take int")
    return value


def _immutable(self, name: str, value: object = None) -> None:
    """``__setattr__`` and ``__delattr__`` of a value that caches in its ``__dict__``."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


class FiniteCyclicFactor(namedtuple("FiniteCyclicFactor", "order phases")):
    """A cyclic factor Z/order acting diagonally; generator phase on
    coordinate j is phases[j]/order in Q/Z.  Order and phases take int;
    the phases are stored reduced modulo the order."""

    __slots__ = ()
    order: int
    phases: tuple[int, ...]

    def __new__(cls, order: int, phases: Iterable[int]):
        if _int(order, "order") < 2:
            raise ValueError(f"cyclic factor order must be >= 2, got {order}")
        return super().__new__(cls, order, tuple(_int(p, "phase") % order for p in phases))


class QuotientDatum(namedtuple("QuotientDatum", "weights finite chamber")):
    """An orbifold presentation: weights, finite phase factors, chamber.
    Weights take int."""

    __slots__ = ()
    weights: tuple[int, ...]
    finite: tuple[FiniteCyclicFactor, ...]
    chamber: str

    def __new__(cls, weights: Iterable[int], finite: Iterable[FiniteCyclicFactor] = (),
                chamber: str = "positive"):
        weights, finite = tuple(_int(w, "weight") for w in weights), tuple(finite)
        if len(weights) < 1:
            raise ValueError("a quotient datum needs at least one coordinate")
        if chamber not in CHAMBERS:
            raise ValueError(f"chamber must be one of {CHAMBERS}, got {chamber!r}")
        for factor in finite:
            if len(factor.phases) != len(weights):
                raise ValueError(
                    f"finite factor has {len(factor.phases)} phases for "
                    f"{len(weights)} coordinates"
                )
        return super().__new__(cls, weights, finite, chamber)

    @property
    def n(self) -> int:
        return len(self.weights)


class SectorLabel(namedtuple("SectorLabel", "c finite", defaults=((),))):
    """A group element: circle phase c in [0, 1) plus finite components.

    Labels are normalized (c reduced to [0, 1), components reduced modulo
    their orders); build them through ``ValidatedDatum.label`` rather than
    directly when in doubt.  No components stand for all 0; any other count
    than the datum's finite factors is a ``ValueError`` wherever it is read.
    """

    __setattr__ = __delattr__ = _immutable  # its __dict__ holds the cached hash only
    c: Fraction
    finite: tuple[int, ...]

    @cached_property
    def _hash(self) -> int:  # hashing c takes a modular inverse: once per label, on first use
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        text = f"c={format_rational(self.c)}"
        if self.finite:
            text += ",a=" + ":".join(str(a) for a in self.finite)
        return text


class SectorInfo(namedtuple("SectorInfo", "label fixed_set thetas shift dim")):
    """A twisted sector: its label, fixed coordinates, rotation phases,
    degree shift, and complex dimension |I| - 1."""

    __slots__ = ()
    label: SectorLabel
    fixed_set: frozenset[int]
    thetas: tuple[Fraction, ...]
    shift: Fraction
    dim: int


class SectorTable(namedtuple("SectorTable", "moduli codes thetas fixed dims inverse index")):
    """The sectors of one chamber as integer rows, indexed by position in
    ``ValidatedDatum.sectors``: element codes, theta numerators over
    ``moduli[0]`` = D, fixed-set bitmasks, dims and the inverse sector's
    index; ``index`` maps a code back to its position.  ``label(s)`` builds
    the label of sector s alone and ``labels`` all of them, on first use;
    only the commands that list every basis element (``basis``, ``table``,
    ``selftest``) build that tuple.  ``ValidatedDatum.sectors`` builds the
    ``SectorInfo`` views of the rows.  Tables compare by identity."""

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__
    __setattr__ = __delattr__ = _immutable  # its __dict__ holds the cached labels only
    moduli: tuple[int, ...]
    codes: tuple[Code, ...]
    thetas: tuple[tuple[int, ...], ...]
    fixed: tuple[int, ...]
    dims: tuple[int, ...]
    inverse: tuple[int, ...]
    index: Mapping[Code, int]

    @property
    def denominator(self) -> int:
        return self.moduli[0]

    @cached_property
    def labels(self) -> tuple[SectorLabel, ...]:
        """The label of every sector, built on first use."""
        return tuple(map(self.label, range(len(self.codes))))

    def label(self, s: int) -> SectorLabel:
        """The label of sector s alone."""
        return code_label(self.codes[s], self.moduli[0])

    def position(self, t: SectorLabel) -> int | None:
        """Index of the sector labeled t, or None if t is no sector here."""
        return self.index.get(_code(t, self.moduli))  # no code is no key


def _code(t: SectorLabel, moduli: tuple[int, ...]) -> Code | None:
    """The code of t, or None when c * D is no integer for D = moduli[0]:
    such a t is off the lattice of D and moves every coordinate, since
    fixing coordinate j takes c * w_j in Z / lcm(order_k).  A float c is a
    ``TypeError`` and a wrong component count a ``ValueError``, both before
    the lattice test."""
    _refuse_float(t.c)
    num, den = t.c.as_integer_ratio()
    code = (num * (moduli[0] // den), *_components(t.finite, len(moduli) - 1))
    return None if moduli[0] % den else tuple([x % m for x, m in zip(code, moduli)])


def code_label(code: Code, d: int) -> SectorLabel:
    """The label of the element with this code over D = d: the inverse of ``_code``."""
    return SectorLabel(Fraction(code[0], d), code[1:])


def compose_codes(a: Code, b: Code, moduli: tuple[int, ...]) -> Code:
    """The code of the product of the elements with codes a and b."""
    return tuple([(x + y) % m for x, y, m in zip(a, b, moduli)])


def invert_code(a: Code, moduli: tuple[int, ...]) -> Code:
    """The code of the inverse of the element with code a."""
    return tuple([-x % m for x, m in zip(a, moduli)])


def _theta(x: int, xs: Iterable[int], ys: Iterable[int], yss: Iterable, q: int) -> list[int]:
    """The theta formula over zipped vectors: (x * X + sum_k y_k * Y_k) mod q
    at every entry.  For the row of one element, X is the weights, the Y_k
    are the finite factors' numerator rows and the element's code gives the
    scalars x, y_k; for a column at coordinate j the roles swap, with the
    code columns as vectors and w_j and the rows' entries j as scalars."""
    raw = [x * v for v in xs]
    for y, vector in zip(ys, yss):
        if y:
            raw = [r + y * v for r, v in zip(raw, vector)]
    return [r % q for r in raw]


def sector_dim(mask: int) -> int:
    """Complex dimension |I| - 1 of the sector with fixed-set mask I."""
    return mask.bit_count() - 1


def _components(finite: Iterable[int], count: int) -> tuple[int, ...]:
    """The finite components of a label read on a datum with ``count`` finite
    factors: none stand for all 0, and any other count is a ``ValueError``;
    a component that is no int is a ``TypeError``."""
    components = tuple(finite) or (0,) * count
    for a in components:
        if isinstance(a, (float, Fraction)):
            raise TypeError(f"finite component {a!r} is a {type(a).__name__}; components take int")
    if len(components) != count:
        raise ValueError(f"label has {len(components)} finite components, datum has {count}")
    return components


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
        """Build a normalized label: c mod 1, components mod their orders; a
        float c raises TypeError."""
        components = _components(finite, len(self.finite))
        components = tuple(a % f.order for a, f in zip(components, self.finite))
        return SectorLabel(frac_part(c), components)

    def compose(self, s: SectorLabel, t: SectorLabel) -> SectorLabel:
        count = len(self.finite)
        finite = map(add, _components(s.finite, count), _components(t.finite, count))
        return self.label(s.c + t.c, tuple(finite))

    def inverse(self, t: SectorLabel) -> SectorLabel:
        return self.label(-t.c, tuple(-a for a in t.finite))

    # -- per-element geometry ----------------------------------------------

    def fixed_mask(self, numerators: Iterable[int]) -> int:
        """Bitmask of the coordinates whose theta numerator is 0."""
        return sum(compress(self._bits, map(not_, numerators)))

    def code_numerators(self, code: Code) -> tuple[int, ...]:
        """Theta numerators over D of the element with this code: the row
        form of the theta formula ``_theta``, with the code as scalars."""
        return tuple(_theta(code[0], self.weights, code[1:], self._rows, self.denominator))

    def theta_column(self, j: int, code_columns: Sequence[Sequence[int]]) -> list[int]:
        """Theta numerators over D at coordinate j of the elements whose code
        components are given as columns (circle, then one per finite factor):
        the column form of ``_theta``, (C * w_j + sum_k a_k * phases_k[j] *
        D / order_k) mod D with the columns as vectors."""
        scalars = [row[j] for row in self._rows]
        return _theta(self.weights[j], code_columns[0], scalars, code_columns[1:], self.denominator)

    def theta_numerators(self, t: SectorLabel) -> tuple[int, tuple[int, ...]]:
        """(q, numerators) with theta_j(t) = numerators[j] / q for q =
        lcm(D, den c): the row form of ``_theta`` with c * q and the
        components times q / D as scalars.  q is D for every label that
        fixes a coordinate, a multiple of D otherwise."""
        _refuse_float(t.c)
        num, den = t.c.as_integer_ratio()
        q = lcm(self.denominator, den)
        scalars = [a * (q // self.denominator) for a in _components(t.finite, len(self.finite))]
        return q, tuple(_theta(num * (q // den), self.weights, scalars, self._rows, q))

    def thetas(self, t: SectorLabel) -> tuple[Fraction, ...]:
        """Rotation phases (theta_0, ..., theta_{n-1}) of t, each in [0, 1)."""
        q, numerators = self.theta_numerators(t)
        return tuple(Fraction(x, q) for x in numerators)

    def degree_shift(self, t: SectorLabel) -> Fraction:
        """Age of t: the sum of theta_j over coordinates t moves."""
        q, numerators = self.theta_numerators(t)
        return Fraction(sum(numerators), q)

    # -- sector enumeration --------------------------------------------------

    def _info(self, t: SectorLabel, numerators: tuple[int, ...], mask: int) -> SectorInfo:
        """The view of a sector, from its theta numerators over D and its
        fixed-set mask."""
        d = self.denominator
        thetas = tuple(Fraction(x, d) for x in numerators)
        shift = Fraction(sum(numerators), d)
        fixed_set = frozenset(j for j, bit in enumerate(self._bits) if mask & bit)
        return SectorInfo(t, fixed_set, thetas, shift, sector_dim(mask))

    def _candidate_codes(self, coordinates: Iterable[int]) -> set[Code]:
        # An element fixes coordinate j iff C*w_j + Phi_j(a) = 0 mod D, where
        # Phi_j(a) = sum_k a_k * rows_k[j] is the theta column at j of the codes
        # (0, a), read mod D for every a in A at once.  Phi_j(a) and D are
        # divisible by |w_j|, so the |w_j| solutions are C = -Phi_j(a)/w_j +
        # m*D/|w_j|: the residues in [0, D) of -Phi_j(a)/w_j modulo D/|w_j|,
        # alike for every representative of Phi_j(a) mod D.
        d = self.denominator
        finite = list(product(*(range(f.order) for f in self.finite)))
        columns = [[0] * len(finite), *zip(*finite)]
        codes = set()
        for j in coordinates:
            w = self.weights[j]
            step = d // abs(w)
            for a, phi in zip(finite, self.theta_column(j, columns)):
                codes.update(zip(range(-phi // w % step, d, step), *map(repeat, a)))
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
        # an element that fixes a coordinate on the chamber's side is a
        # sector there, so only those coordinates are solved; sorted codes put
        # the identity (the zero code) first, then go by (c, finite
        # components); then one theta column per coordinate
        side = [j for j, bit in enumerate(self._bits) if self.level_masks[chamber] & bit]
        codes = tuple(sorted(self._candidate_codes(side)))
        code_columns = list(zip(*codes)) or [()] * len(self.moduli)  # no rows: an empty chamber
        columns = [self.theta_column(j, code_columns) for j in range(self.n)]
        fixed = [0] * len(codes)
        for column, bit in zip(columns, self._bits):
            fixed = [m if x else m | bit for m, x in zip(fixed, column)]
        index = dict(zip(codes, range(len(codes))))
        inverse = zip(*([-x % m for x in column] for column, m in zip(code_columns, self.moduli)))
        return SectorTable(
            self.moduli,
            codes,
            tuple(zip(*columns)),
            tuple(fixed),
            tuple(map(sector_dim, fixed)),
            tuple(map(index.__getitem__, inverse)),
            index,
        )

    def sectors(self, chamber: str | None = None) -> tuple[SectorInfo, ...]:
        """All twisted sectors in the given chamber (default: the datum's).

        The identity sector comes first when present; the rest are sorted by
        (c, finite components).  The list is duplicate-free and closed under
        the label inverse.
        """
        table = self.sector_table(chamber)
        return tuple(map(self._info, table.labels, table.thetas, table.fixed))

    def sector_row(
        self, t: SectorLabel, chamber: str | None = None, k: int | None = None
    ) -> tuple[Code, tuple[int, ...], int]:
        """The integer row of t as a sector table holds it: its code, its
        theta numerators over D by ``code_numerators`` (the row form of the
        formula that builds the table's columns) and its fixed-set mask.
        EmptySector if t fixes no coordinate (off the lattice of D it moves
        all) or, given a chamber, none on that side of the wall; given an
        eta power k, EtaPowerRange if k lies outside [0, dim]."""
        code = _code(t, self.moduli)
        numerators = () if code is None else self.code_numerators(code)
        mask = self.fixed_mask(numerators)
        if not mask:
            raise EmptySector(f"{t} fixes no coordinate")
        if chamber and not mask & self.level_masks[self._chamber(chamber)]:
            raise EmptySector(f"{t} has no fixed coordinate on the {chamber} side of the wall")
        if k is not None and not 0 <= k <= sector_dim(mask):
            raise EtaPowerRange(f"eta power {k} of {t} is outside [0, {sector_dim(mask)}]")
        return code, numerators, mask


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
    # an element acting trivially fixes every coordinate, so it is among the
    # |A| * |w_j| candidates of a coordinate j of least |w_j|; one theta
    # column per other coordinate keeps the candidates that fix it too
    least = min(range(vd.n), key=lambda j: abs(vd.weights[j]))
    trivial = [code for code in sorted(vd._candidate_codes([least])) if any(code)]
    for j in range(vd.n):
        if trivial and j != least:
            column = vd.theta_column(j, list(zip(*trivial)))
            trivial = list(compress(trivial, map(not_, column)))
    if trivial:
        t = code_label(trivial[0], vd.denominator)
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


def element_to_doc(t: SectorLabel, k: int) -> dict:
    """The document of the basis element eta^k 1_(t)."""
    return {"sector": label_to_doc(t), "eta_power": k}


def _label_key(doc: object) -> tuple[object, tuple[int, ...]]:
    """(c, finite components) of a label document whose shape and integer
    types check out; ``DatumFormatError`` otherwise."""
    if not isinstance(doc, dict) or "c" not in doc:
        raise DatumFormatError("sector label must be a mapping with a 'c' field")
    finite = doc.get("finite", ())
    if not isinstance(finite, (list, tuple)) or not all(type(a) is int for a in finite):
        raise DatumFormatError("finite components must be a list of integers")
    return doc["c"], tuple(finite)


def label_from_doc(doc: object, vd: ValidatedDatum | None = None) -> SectorLabel:
    """Parse a sector label document; normalizes against vd when given."""
    c, finite = _label_key(doc)
    try:
        c = parse_rational(c)
        if vd is not None:
            return vd.label(c, finite)
    except ValueError as exc:
        raise DatumFormatError(str(exc)) from exc
    return SectorLabel(frac_part(c), finite)
