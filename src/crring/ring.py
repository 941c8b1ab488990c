"""The Chen-Ruan cohomology ring of a validated quotient.

Each twisted sector with fixed set I is a weighted projective subspace whose
cohomology is Q[eta]/eta^|I| for the hyperplane class eta, so the whole ring
has basis {eta^k 1_(t) : t a sector, 0 <= k <= dim(t)} with rational grading
deg(eta^k 1_(t)) = 2*(k + age(t)).

Products follow the twist-factor exponent rule.  For sectors s, t with
h = s*t, the interacting coordinates are

    T = {j : theta_s(j) + theta_t(j) = theta_h(j) + 1},

and eta^k1 1_(s) * eta^k2 1_(t) = (prod_{j in T} w_j) eta^{k1+k2+|T|} 1_(h),
truncated to zero past the dimension of the target sector (and zero outright
when the fixed sets of s and t are disjoint).  Coordinates of T that h fixes
are Thom pushforward directions; the remaining ones span the obstruction
bundle, whose rank on each line is independently confirmed by the index
count in ``obstruction_rank_oracle``.

The ring works on the integer ``SectorTable`` of its chamber.  With theta
numerators over the common denominator D, T is the carry mask
{j : theta_s(j) + theta_t(j) >= D} of the numerator sums, so every structure
constant is the integer prod_{j in T} w_j, and h is found by adding element
codes.  ``ChenRuanRing.pair`` is the one place that derives (h, T) from a
sector pair, and ``ChenRuanRing.sector_product`` the one place that turns
them into a product; the self-test reads every ordered pair's (h, T) from
the ring's ``pairs`` rows, built once on first use.

The Poincare pairing couples eta^k 1_(t) with eta^(dim-k) 1_(t^{-1}) and has
value 1/(|A| * prod_{j in I(t)} w_j), the orbifold integral of the top eta
power over the sector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import prod
from operator import itemgetter, mul
from typing import Iterator, Mapping

from .errors import DatumFormatError, DomainError, EmptySector
from .exact import format_rational, parse_rational
from .quotient import SectorLabel, ValidatedDatum, label_from_doc, label_to_doc


@dataclass(frozen=True)
class BasisElement:
    """eta^k on the sector labeled by ``sector``."""

    sector: SectorLabel
    k: int

    def __str__(self) -> str:
        return f"eta^{self.k}*1_({self.sector})"

    def sort_key(self):
        return (self.sector.c, self.sector.finite, self.k)


class CRClass:
    """A finite rational combination of basis elements eta^k 1_(t).

    Coefficients are kept as given when they are ``int`` or ``Fraction`` and
    converted with ``Fraction`` otherwise.  Zero coefficients are never
    stored; classes are immutable and support addition, subtraction, and
    scalar multiplication.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisElement, Fraction | int] | None = None):
        cleaned: dict[BasisElement, Fraction | int] = {}
        for element, coeff in (terms or {}).items():
            if type(coeff) is not Fraction and type(coeff) is not int:
                coeff = Fraction(coeff)
            if coeff != 0:
                cleaned[element] = coeff
        self._terms = cleaned

    @classmethod
    def zero(cls) -> "CRClass":
        return cls()

    @classmethod
    def single(cls, element: BasisElement, coeff: Fraction | int = 1) -> "CRClass":
        return cls({element: coeff})

    @property
    def terms(self) -> dict[BasisElement, Fraction]:
        return dict(self._terms)

    def items(self) -> list[tuple[BasisElement, Fraction]]:
        """Terms in the canonical (sector, eta power) order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterator[tuple[BasisElement, Fraction]]:
        return iter(self.items())

    def __add__(self, other: "CRClass") -> "CRClass":
        merged = dict(self._terms)
        for element, coeff in other._terms.items():
            merged[element] = merged.get(element, Fraction(0)) + coeff
        return CRClass(merged)

    def __neg__(self) -> "CRClass":
        return CRClass({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "CRClass") -> "CRClass":
        return self + (-other)

    def __mul__(self, scalar) -> "CRClass":
        return CRClass({e: c * Fraction(scalar) for e, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CRClass):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        if not self._terms:
            return "CRClass(0)"
        body = " + ".join(f"({format_rational(c)})*{e}" for e, c in self.items())
        return f"CRClass({body})"


def obstruction_rank_oracle(theta1, theta2, theta3, denominator: int = 1) -> int:
    """Invariant H^1 rank of one normal line over the 3-marked sphere.

    For a line where the three group elements act with phases theta_i, the
    equivariant index of the pushed-forward sheaf is chi = 1 - sum(theta_i)
    (the first Chern class of the pushforward of a constant sheaf vanishes),
    so the invariant H^1 has rank max(-chi, 0): 1 exactly when the phase sum
    is 2.  Raises DomainError when the sum is not an integer, since then the
    three elements cannot compose to the identity on this line.  The phases
    are rationals, or integer numerators over ``denominator``.
    """
    total, rest = divmod(theta1 + theta2 + theta3, denominator)
    if rest:
        total = Fraction(theta1 + theta2 + theta3, denominator)
        raise DomainError(f"phase sum {format_rational(total)} is not an integer")
    return max(total - 1, 0)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class RingAxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def first_failure(self) -> AxiomCheck | None:
        return next((c for c in self.checks if not c.passed), None)


@dataclass(frozen=True)
class StructureTable:
    """The complete multiplication data of the ring: ordered basis, degrees,
    dense pairing matrix, and the nonzero products for index pairs i <= j."""

    basis: tuple[BasisElement, ...]
    degrees: tuple[Fraction, ...]
    pairing: tuple[tuple[Fraction, ...], ...]
    products: dict[tuple[int, int], CRClass]


class ChenRuanRing:
    """Cup products, pairings, and structure constants for one datum.

    The ring is attached to the datum's chamber by default; pass ``chamber``
    to build the ring on the other side of the wall (used by the self-test
    on mixed-sign weights).  Sectors are addressed by their position in the
    chamber's ``SectorTable``; basis element eta^k 1_(s) has index
    ``start[s] + k``.

    The product of sectors s and t is ``sector_product(s, t, *pair(s, t))``.
    Point queries and ``structure_constants`` call ``pair`` per sector pair;
    the axiom check and the self-test phases read ``pairs``, the rows of
    ``pair`` over all ordered pairs, built once on first use.
    """

    def __init__(self, vd: ValidatedDatum, chamber: str | None = None):
        self.vd = vd
        self.chamber = chamber or vd.chamber
        self.table = vd.sector_table(self.chamber)
        self.start = []
        basis = []
        for info in self.table.infos:
            self.start.append(len(basis))
            basis.extend(BasisElement(info.label, k) for k in range(info.dim + 1))
        self._basis = tuple(basis)

    def basis(self) -> tuple[BasisElement, ...]:
        """Basis in sector order, eta power ascending within each sector."""
        return self._basis

    def degree(self, element: BasisElement) -> Fraction:
        """Rational grading 2*(k + age) of a basis element."""
        return 2 * (element.k + self.vd.degree_shift(element.sector))

    def unit(self) -> CRClass:
        return CRClass.single(BasisElement(self.vd.identity(), 0))

    def _position(self, t: SectorLabel) -> int:
        s = self.table.position(t)
        if s is None:
            raise EmptySector(f"{t} labels no sector in the {self.chamber} chamber")
        return s

    # -- products ------------------------------------------------------------

    def pair(self, s: int, t: int) -> tuple[int, int]:
        """(h, T) of the ordered sector pair: the position h of the composite
        sector s*t (-1 when it is no sector of this chamber) and the bitmask
        of the interacting coordinates T = {j : theta_s(j) + theta_t(j) >= D}."""
        table = self.table
        d, carry = table.denominator, 0
        for j, (x, y) in enumerate(zip(table.thetas[s], table.thetas[t])):
            if x + y >= d:
                carry |= 1 << j
        return table.index.get(table.compose(table.codes[s], table.codes[t]), -1), carry

    @cached_property
    def pairs(self) -> tuple[list[list[int]], list[list[int]]]:
        """``pair`` of every ordered sector pair as the rows
        (composite[s][t], carry[s][t])."""
        sectors = range(len(self.table.codes))
        rows = [[self.pair(s, t) for t in sectors] for s in sectors]
        return [[h for h, _ in row] for row in rows], [[carry for _, carry in row] for row in rows]

    def sector_product(self, s: int, t: int, h: int, carry: int) -> tuple[int, int] | None:
        """1_(s) * 1_(t) = coeff * eta^shift 1_(h) by the carry rule, given
        (h, carry) = ``pair(s, t)``: (coeff, shift) = (prod_{j in T} w_j, |T|),
        or None when h is no sector or the fixed sets of s and t are disjoint."""
        if h < 0 or not self.table.fixed[s] & self.table.fixed[t]:
            return None
        weights = self.vd.weights
        return prod([weights[j] for j in range(self.vd.n) if carry >> j & 1]), carry.bit_count()

    def cup_basis(self, a: BasisElement, b: BasisElement) -> tuple[Fraction, BasisElement] | None:
        """Product of two basis elements: a scaled basis element, or None for 0."""
        s, t = self._position(a.sector), self._position(b.sector)
        h, carry = self.pair(s, t)
        data = self.sector_product(s, t, h, carry)
        if data is None:
            return None
        coeff, shift = data
        k = a.k + b.k + shift
        if k > self.table.dims[h]:
            return None
        return Fraction(coeff), BasisElement(self.table.infos[h].label, k)

    def cup(self, a: CRClass, b: CRClass) -> CRClass:
        """Bilinear extension of ``cup_basis``."""
        out: dict[BasisElement, Fraction] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                product = self.cup_basis(ea, eb)
                if product is None:
                    continue
                coeff, element = product
                out[element] = out.get(element, Fraction(0)) + ca * cb * coeff
        return CRClass(out)

    # -- pairing ---------------------------------------------------------------

    def pairing_denominator(self, s: int) -> int:
        """|A| * prod_{j in I(s)} w_j: the pairing on sector s is its inverse."""
        fixed = self.table.fixed[s]
        return self.vd.finite_order * prod(
            w for j, w in enumerate(self.vd.weights) if fixed >> j & 1
        )

    def pairing_basis(self, a: BasisElement, b: BasisElement) -> Fraction:
        s = self._position(a.sector)
        if self._position(b.sector) != self.table.inverse[s] or a.k + b.k != self.table.dims[s]:
            return Fraction(0)
        return Fraction(1, self.pairing_denominator(s))

    def pairing(self, a: CRClass, b: CRClass) -> Fraction:
        value = Fraction(0)
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                value += ca * cb * self.pairing_basis(ea, eb)
        return value

    def triple_direct(self, a: CRClass, b: CRClass, c: CRClass) -> Fraction:
        """3-point function through the ring: <cup(a, b), c>."""
        return self.pairing(self.cup(a, b), c)

    # -- tabulation ------------------------------------------------------------

    def _basis_products(self, s: int, t: int, h: int, carry: int) -> Iterator[tuple[int, ...]]:
        """(i, j, target index, coefficient) for every nonzero basis product
        of sector s with sector t, given (h, carry) = ``pair(s, t)``."""
        data = self.sector_product(s, t, h, carry)
        if data is None:
            return
        coeff, shift = data
        dims, start = self.table.dims, self.start
        for k1 in range(dims[s] + 1):
            for k2 in range(min(dims[t], dims[h] - shift - k1) + 1):
                yield start[s] + k1, start[t] + k2, start[h] + k1 + k2 + shift, coeff

    def _pairing_entries(self) -> Iterator[tuple[int, int, int]]:
        """(i, j, s) for every nonzero pairing entry: eta^k 1_(s) paired with
        eta^(dim-k) 1_(s^-1)."""
        for s, dim in enumerate(self.table.dims):
            u = self.start[self.table.inverse[s]]
            for k in range(dim + 1):
                yield self.start[s] + k, u + dim - k, s

    def structure_constants(self) -> StructureTable:
        """Deterministic full tables; products are stored sparsely for i <= j."""
        table, basis = self.table, self._basis
        degrees = tuple(2 * (k + info.shift) for info in table.infos for k in range(info.dim + 1))
        zero = Fraction(0)
        pairing = [[zero] * len(basis) for _ in basis]
        for i, j, s in self._pairing_entries():
            pairing[i][j] = Fraction(1, self.pairing_denominator(s))
        products: dict[tuple[int, int], CRClass] = {}
        for s in range(len(table.codes)):
            for t in range(s, len(table.codes)):
                for i, j, target, coeff in self._basis_products(s, t, *self.pair(s, t)):
                    if i <= j:
                        products[(i, j)] = CRClass.single(basis[target], coeff)
        return StructureTable(basis, degrees, tuple(map(tuple, pairing)), products)

    # -- axioms ------------------------------------------------------------------

    def verify_ring_axioms(self) -> RingAxiomReport:
        """Check unit, commutativity, associativity, degree additivity,
        pairing nondegeneracy, and the Frobenius identity over the whole
        basis, reporting the first counterexample of each failing check.

        Every ordered sector pair fills its own entries of the integer
        product table.  Pairing values are scaled by |A| * prod_j |w_j| to
        integers.  Each row carries a trailing sentinel (-1 for "zero
        product", 0 for coefficients and pairing values), so the index -1 of
        a zero product reads the sentinel and the exhaustive triple loop
        over (i, j, k) runs its k-axis as whole-row list operations.
        """
        basis, table = self._basis, self.table
        size = len(basis)
        pidx = [[-1] * (size + 1) for _ in range(size)]
        pnum = [[0] * (size + 1) for _ in range(size)]
        for s, rows in enumerate(zip(*self.pairs)):
            for t, (h, carry) in enumerate(zip(*rows)):
                for i, j, target, coeff in self._basis_products(s, t, h, carry):
                    pidx[i][j] = target
                    pnum[i][j] = coeff
        scale = self.vd.finite_order * prod(abs(w) for w in self.vd.weights)
        pair = [[0] * (size + 1) for _ in range(size)]
        for i, j, s in self._pairing_entries():
            pair[i][j] = scale // self.pairing_denominator(s)
        checks: list[AxiomCheck] = []

        unit_bad = None
        if size and table.codes[0] == (0,) * len(table.moduli):
            for j in range(size):
                if (pidx[0][j], pnum[0][j]) != (j, 1):
                    unit_bad = f"1 * {basis[j]} = {pnum[0][j]} * basis[{pidx[0][j]}]"
                    break
        elif size:
            unit_bad = "no identity sector in this chamber"
        checks.append(AxiomCheck("unit", unit_bad is None, unit_bad))

        comm_bad = None
        for i, (row, column, nums, num_column) in enumerate(
            zip(pidx, zip(*pidx), pnum, zip(*pnum))
        ):
            if row[:size] != list(column) or nums[:size] != list(num_column):
                j = next(j for j in range(size) if (row[j], nums[j]) != (column[j], num_column[j]))
                comm_bad = f"{basis[i]} * {basis[j]} != {basis[j]} * {basis[i]}"
                break
        checks.append(AxiomCheck("commutativity", comm_bad is None, comm_bad))

        degrees = [
            k * table.denominator + sum(thetas)
            for thetas, dim in zip(table.thetas, table.dims)
            for k in range(dim + 1)
        ]
        degree_bad = None
        for i in range(size):
            for j, target in enumerate(pidx[i][:size]):
                if target >= 0 and degrees[i] + degrees[j] != degrees[target]:
                    degree_bad = f"deg({basis[i]}) + deg({basis[j]}) != deg({basis[target]})"
                    break
            if degree_bad:
                break
        checks.append(AxiomCheck("degree_additivity", degree_bad is None, degree_bad))

        # gather[j](row) reads row[j*k] for every k, in one call; row j*k
        # vanishes where pnum[j] does, so a 0/1 row j needs no multiplying
        gather = [itemgetter(*row) for row in pidx]
        zero_one = [set(row) <= {0, 1} for row in pnum]
        pidx, pnum, pair = ([tuple(row) for row in rows] for rows in (pidx, pnum, pair))
        none_row, zero_row = (-1,) * (size + 1), (0,) * (size + 1)
        assoc_bad = frob_bad = None
        for i in range(size):
            idx_i, num_i, pair_i = pidx[i], pnum[i], pair[i]
            for j in range(size):
                ij, a, g, num_j = idx_i[j], num_i[j], gather[j], pnum[j]
                # (i*j)*k and <i*j, k> for every k ...
                lhs_idx, lhs_num, lhs_pair = none_row, zero_row, zero_row
                if ij >= 0:
                    lhs_idx, lhs_num, lhs_pair = pidx[ij], pnum[ij], pair[ij]
                    if a != 1:
                        lhs_num = tuple(map(mul, repeat(a), lhs_num))
                        lhs_pair = tuple(map(mul, repeat(a), lhs_pair))
                # ... against i*(j*k) and <i, j*k>
                if assoc_bad is None:
                    rhs_idx, rhs_num = g(idx_i), g(num_i)
                    if not zero_one[j]:
                        rhs_num = tuple(map(mul, num_j, rhs_num))
                    if lhs_idx != rhs_idx or lhs_num != rhs_num:
                        k = next(
                            k
                            for k in range(size)
                            if (lhs_idx[k], lhs_num[k]) != (rhs_idx[k], rhs_num[k])
                        )
                        assoc_bad = (
                            f"({basis[i]} * {basis[j]}) * {basis[k]} != "
                            f"{basis[i]} * ({basis[j]} * {basis[k]})"
                        )
                if frob_bad is None:
                    rhs_pair = g(pair_i)
                    if not zero_one[j]:
                        rhs_pair = tuple(map(mul, num_j, rhs_pair))
                    if lhs_pair != rhs_pair:
                        k = next(k for k in range(size) if lhs_pair[k] != rhs_pair[k])
                        frob_bad = (
                            f"<{basis[i]} * {basis[j]}, {basis[k]}> != "
                            f"<{basis[i]}, {basis[j]} * {basis[k]}>"
                        )
            if assoc_bad and frob_bad:
                break
        checks.append(AxiomCheck("associativity", assoc_bad is None, assoc_bad))
        checks.append(AxiomCheck("frobenius", frob_bad is None, frob_bad))

        rank = _matrix_rank([{j: Fraction(v) for j, v in enumerate(row) if v} for row in pair])
        rank_bad = None if rank == size else f"pairing rank {rank} < {size}"
        checks.append(AxiomCheck("pairing_nondegenerate", rank_bad is None, rank_bad))
        return RingAxiomReport(tuple(checks))


def _matrix_rank(rows: list[dict[int, Fraction]]) -> int:
    """Exact rank by sparse Gaussian elimination over the rationals."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for sparse in rows:
        row = dict(sparse)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            factor = row[col] / pivot[col]
            for c, v in pivot.items():
                updated = row.get(c, Fraction(0)) - factor * v
                if updated == 0:
                    row.pop(c, None)
                else:
                    row[c] = updated
    return len(pivots)


# -- wire format -------------------------------------------------------------


def element_to_doc(element: BasisElement) -> dict:
    return {"sector": label_to_doc(element.sector), "eta_power": element.k}


class _Reader:
    """Parser of one wire document.  It parses each distinct rational string
    and each distinct sector label document once, and lives for one call of
    a ``*_from_doc`` function.  Every record still gets its own shape and
    type checks; a memo is consulted only once they have passed.

    With a datum, a basis element must name a sector of the datum's chamber
    and an eta power in [0, dim] of that sector.
    """

    def __init__(self, vd: ValidatedDatum | None):
        self.vd = vd
        self.table = None if vd is None else vd.sector_table()
        self.rationals: dict[str, Fraction] = {}
        # (c text, finite components) -> (label, sector dim or None)
        self.labels: dict[tuple, tuple[SectorLabel, int | None]] = {}

    def rational(self, text: object) -> Fraction:
        value = self.rationals.get(text) if type(text) is str else None
        if value is None:
            value = self.rationals[text] = parse_rational(text)
        return value

    def sector(self, doc: object) -> tuple[SectorLabel, int | None]:
        # the types are checked before the memo is read: ("0", (True,)) is an
        # equal key to ("0", (1,)), but only the latter is a valid record
        key = None
        if isinstance(doc, dict) and type(doc.get("c")) is str:
            finite = doc.get("finite", ())
            if isinstance(finite, (list, tuple)) and all(type(a) is int for a in finite):
                key = doc["c"], tuple(finite)
                known = self.labels.get(key)
                if known is not None:
                    return known
        label, dim = label_from_doc(doc, self.vd), None
        if self.table is not None:
            s = self.table.position(label)
            if s is None:
                raise DatumFormatError(f"{label} labels no sector in the {self.vd.chamber} chamber")
            dim = self.table.dims[s]
        if key is not None:
            self.labels[key] = label, dim
        return label, dim

    def element(self, doc: object) -> BasisElement:
        if not isinstance(doc, dict) or "sector" not in doc or "eta_power" not in doc:
            raise DatumFormatError("basis element must have 'sector' and 'eta_power'")
        k = doc["eta_power"]
        if type(k) is not int:
            raise DatumFormatError(f"eta_power must be an integer, got {k!r}")
        label, dim = self.sector(doc["sector"])
        if dim is not None and not 0 <= k <= dim:
            raise DatumFormatError(f"eta power {k} of {label} is outside [0, {dim}]")
        return BasisElement(label, k)

    def cr_class(self, doc: object) -> CRClass:
        if not isinstance(doc, list):
            raise DatumFormatError("a class document must be a list of term records")
        terms: dict[BasisElement, Fraction] = {}
        for record in doc:
            element = self.element(record)
            try:
                coeff = self.rational(record["coeff"])
            except (KeyError, ValueError) as exc:
                raise DatumFormatError(f"a term record needs a rational 'coeff': {exc}") from exc
            terms[element] = terms[element] + coeff if element in terms else coeff
        return CRClass(terms)


def element_from_doc(doc: object, vd: ValidatedDatum | None = None) -> BasisElement:
    """Parse a basis element document; with vd, the element must exist in
    vd's chamber (see ``_Reader``)."""
    return _Reader(vd).element(doc)


def cr_class_to_doc(value: CRClass) -> list[dict]:
    return [
        {
            "sector": label_to_doc(element.sector),
            "eta_power": element.k,
            "coeff": format_rational(coeff),
        }
        for element, coeff in value.items()
    ]


def cr_class_from_doc(doc: object, vd: ValidatedDatum | None = None) -> CRClass:
    return _Reader(vd).cr_class(doc)


def table_to_doc(table: StructureTable) -> dict:
    return {
        "basis": [element_to_doc(e) for e in table.basis],
        "degrees": [format_rational(d) for d in table.degrees],
        "pairing": [[format_rational(v) for v in row] for row in table.pairing],
        "products": [
            {"i": i, "j": j, "terms": cr_class_to_doc(value)}
            for (i, j), value in sorted(table.products.items())
        ],
    }


def table_from_doc(doc: object, vd: ValidatedDatum | None = None) -> StructureTable:
    fields = ("basis", "degrees", "pairing", "products")
    if not isinstance(doc, dict) or not all(isinstance(doc.get(f), list) for f in fields):
        raise DatumFormatError(f"a table document must map {', '.join(fields)} to lists")
    if not all(isinstance(row, list) for row in doc["pairing"]):
        raise DatumFormatError("pairing rows must be lists")
    reader = _Reader(vd)
    basis = tuple(map(reader.element, doc["basis"]))
    try:
        degrees = tuple(map(reader.rational, doc["degrees"]))
        pairing = tuple(tuple(map(reader.rational, row)) for row in doc["pairing"])
    except ValueError as exc:
        raise DatumFormatError(str(exc)) from exc
    products = {}
    for record in doc["products"]:
        if (
            not isinstance(record, dict)
            or type(record.get("i")) is not int
            or type(record.get("j")) is not int
        ):
            raise DatumFormatError("a product record must have integer 'i' and 'j'")
        products[(record["i"], record["j"])] = reader.cr_class(record.get("terms"))
    return StructureTable(basis, degrees, pairing, products)
