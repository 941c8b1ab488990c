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
count of ``obstruction_rank_oracle``, which lives in ``selftest.py``.

The ring works on integer sector rows: the ``SectorTable`` of its chamber
for the tables and the self-test, and for a point request only the rows of
the sectors it names and of their composite, which cost O(n) each.  With
theta numerators over the common denominator D, T is the carry mask
{j : theta_s(j) + theta_t(j) >= D} of the numerator sums, so every structure
constant is the integer prod_{j in T} w_j.  The truncation and the pairing
each have one statement in ``ChenRuanRing`` (``basis_rows``, ``partner`` and
``pairing_value``), which the self-test runs and the commands read.

The Poincare pairing couples eta^k 1_(t) with eta^(dim-k) 1_(t^{-1}) and has
value 1/(|A| * prod_{j in I(t)} w_j), the orbifold integral of the top eta
power over the sector.  So <a, b> = <a*b, 1>: the ring is a commutative
Frobenius algebra, and the axiom check reads its Frobenius identity through
that counit.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, count, product, repeat
from math import prod
from operator import itemgetter

from .errors import DatumFormatError, DomainError
from .exact import _fraction, format_rational, parse_rational
from .quotient import (
    SectorLabel, SectorTable, ValidatedDatum, _label_key, code_label, compose_codes,
    element_to_doc, invert_code, label_from_doc, sector_dim,
)


class BasisElement(namedtuple("BasisElement", "sector k")):
    """eta^k on the sector labeled by ``sector``; ordered by sector, then k."""

    __slots__ = ()
    sector: SectorLabel
    k: int

    def __str__(self) -> str:
        return f"eta^{self.k}*1_({self.sector})"


class CRClass:
    """A finite rational combination of basis elements eta^k 1_(t).

    Coefficients are kept as given when they are ``int`` or ``Fraction`` and
    converted with ``Fraction`` otherwise; a ``float`` coefficient or scalar
    raises ``TypeError``.  Zero coefficients are never stored; classes are
    immutable and support scalar multiplication.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[BasisElement, Fraction | int] | None = None):
        cleaned: dict[BasisElement, Fraction | int] = {}
        for element, coeff in (terms or {}).items():
            if type(coeff) is not Fraction and type(coeff) is not int:
                coeff = _fraction(coeff)
            if coeff != 0:
                cleaned[element] = coeff
        self._terms = cleaned

    @classmethod
    def single(cls, element: BasisElement, coeff: Fraction | int = 1) -> "CRClass":
        return cls({element: coeff})

    @property
    def terms(self) -> dict[BasisElement, Fraction]:
        return dict(self._terms)

    def items(self) -> list[tuple[BasisElement, Fraction]]:
        """Terms in the canonical (sector, eta power) order."""
        return sorted(self._terms.items())

    def __iter__(self) -> Iterator[tuple[BasisElement, Fraction]]:
        return iter(self.items())

    def __mul__(self, scalar) -> "CRClass":
        scalar = _fraction(scalar)
        return CRClass({e: c * scalar for e, c in self._terms.items()})

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


class PhaseResult(namedtuple("PhaseResult", "name status detail", defaults=(None,))):
    """One named check of a ring axiom or a self-test phase; a failure's
    detail names its counterexample."""

    __slots__ = ()
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str | None


class SelfTestReport(namedtuple("SelfTestReport", "phases")):
    """The ``PhaseResult`` of every phase, in order."""

    __slots__ = ()
    phases: tuple[PhaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(phase.status != "fail" for phase in self.phases)

    def first_failure(self) -> PhaseResult | None:
        return next((p for p in self.phases if p.status == "fail"), None)


class StructureTable(namedtuple("StructureTable", "basis degrees pairing products")):
    """The complete multiplication data of the ring: ordered basis, degrees,
    dense pairing matrix, and the nonzero products for i <= j, each one term."""

    __slots__ = ()
    basis: tuple[BasisElement, ...]
    degrees: tuple[Fraction, ...]
    pairing: tuple[tuple[Fraction, ...], ...]
    products: dict[tuple[int, int], CRClass]


class ChenRuanRing:
    """Cup products, pairings, and structure constants for one datum.

    The ring is attached to the datum's chamber by default; pass ``chamber``
    to build the ring on the other side of the wall (used by the self-test
    on mixed-sign weights).

    Construction builds nothing.  The point methods ``cup_basis``,
    ``pairing_basis`` and ``degree``, and through them ``cup``, ``pairing``
    and ``triple_direct``, read the rows of the elements they name through
    ``ValidatedDatum.sector_row``, and the row of a composite st from its
    code, the modular sum of the codes of s and t: a point request costs
    O(n), whatever the number of sectors.  The tabulating methods
    (``basis``, ``degrees``, ``pairs``, ``structure_constants`` and the
    axiom check) read the chamber's ``SectorTable``, ``table``, built on
    first use, where sectors are addressed by position: basis element
    eta^k 1_(s), k in ``powers[s]``, has index ``start[s] + k`` and integer
    degree ``degrees[start[s] + k]`` = k * D + sum_j theta_s(j) by
    ``_degree``, the one derivation of the age.

    ``_products`` is the one sector-pair kernel: the carry masks and the
    products of one sector against columns of sectors.  ``row(s, span)``
    runs it on the table's columns, with composites looked up in the table;
    the point methods run it on the column of their second sector.
    ``heads`` and ``basis_rows`` state the truncation rule, for the axiom
    check over ``pairs`` (one row per s, built once on first use), for
    ``structure_constants`` over t >= s and for ``cup_basis``.
    ``partner`` and ``pairing_value`` state the pairing for every reader,
    and ``degree_at`` the rational grading 2 * ``degrees[i]`` / D, which
    the ``basis`` command prints from ``degrees`` itself.
    """

    def __init__(self, vd: ValidatedDatum, chamber: str | None = None):
        self.vd = vd
        self.chamber = vd._chamber(chamber)

    @cached_property
    def table(self) -> SectorTable:
        return self.vd.sector_table(self.chamber)

    @cached_property
    def powers(self) -> list[range]:
        return [range(dim + 1) for dim in self.table.dims]

    @cached_property
    def start(self) -> list[int]:
        return list(accumulate(map(len, self.powers), initial=0))[:-1]

    @cached_property
    def _basis(self) -> tuple[BasisElement, ...]:
        labels = self.table.labels
        return tuple(BasisElement(label, k) for label, ks in zip(labels, self.powers) for k in ks)

    @cached_property
    def degrees(self) -> list[int]:
        return [self._degree(k, x) for ks, x in zip(self.powers, self.table.thetas) for k in ks]

    def _degree(self, k: int, thetas: tuple[int, ...]) -> int:
        """Integer degree k * D + sum_j theta_j of eta^k 1_(s), s with these thetas."""
        return k * self.vd.denominator + sum(thetas)

    def basis(self) -> tuple[BasisElement, ...]:
        """Basis in sector order, eta power ascending within each sector."""
        return self._basis

    def degree(self, element: BasisElement) -> Fraction:
        """Rational grading 2*(k + age) of a basis element, from its sector row."""
        thetas = self.vd.sector_row(element.sector, self.chamber, element.k)[1]
        return self._grading(self._degree(element.k, thetas))

    def degree_at(self, i: int) -> Fraction:
        """Rational grading of basis element i: 2 * ``degrees[i]`` / D."""
        return self._grading(self.degrees[i])

    def _grading(self, degree: int) -> Fraction:
        return Fraction(2 * degree, self.vd.denominator)

    # -- products ------------------------------------------------------------

    @cached_property
    def _columns(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """The columns of the sector table: one tuple of every sector's entry
        per code component, and one per coordinate's theta numerator."""
        return list(zip(*self.table.codes)), list(zip(*self.table.thetas))

    def _products(self, thetas, fixed: int, theta_columns, fixed_column, composite: list[int],
                  span: slice = slice(None)) -> tuple[list[int], list]:
        """(carries, products) of a sector s with theta numerators ``thetas``
        over D and fixed-set mask ``fixed`` against each sector t whose theta
        numerators at coordinate j are ``theta_columns[j][span]``, whose
        fixed-set mask is in ``fixed_column`` and whose composite s*t is at
        the position in ``composite`` (-1 when it is no sector of this
        chamber): the bitmask of the interacting coordinates T = {j :
        theta_s(j) + theta_t(j) >= D}, and 1_(s) * 1_(t) = coeff * eta^shift
        1_(s*t) as (coeff, shift) = (prod_{j in T} w_j, |T|), or None when
        s*t is no sector or the fixed sets of s and t are disjoint.

        For each coordinate j that s moves, one comprehension sets bit j of
        the carry mask wherever theta_t(j) >= D - theta_s(j); the first such
        comprehension starts the masks.  The product of weights is formed
        once per distinct carry mask of a product that is not None."""
        carries = None
        for j, x in enumerate(thetas):
            if x:
                bit, low = 1 << j, self.vd.denominator - x
                column = theta_columns[j][span]
                if carries is None:
                    carries = [bit if y >= low else 0 for y in column]
                else:
                    carries = [c | bit if y >= low else c for c, y in zip(carries, column)]
        if carries is None:  # s moves no coordinate
            carries = [0] * len(composite)
        nonzero = [h >= 0 and fixed & g for h, g in zip(composite, fixed_column)]
        coefficients = {}
        for c in set(compress(carries, nonzero)):
            weights = [w for j, w in enumerate(self.vd.weights) if c >> j & 1]
            coefficients[c] = prod(weights), len(weights)
        products = [coefficients[c] if x else None for c, x in zip(carries, nonzero)]
        return carries, products

    def row(self, s: int, span: slice = slice(None)) -> tuple[list[int], list[int], list]:
        """(composites, carries, products) of sector s against each sector t
        in ``span`` of the table's positions: the position h of the composite
        sector s*t (-1 when it is no sector of this chamber) and the carry
        mask and product of ``_products``.

        Each code component of s*t is one comprehension, (x + code_s) mod m
        over that component's column, and the composite codes are looked up
        in ``table.index``.  h comes from the codes and the carries from the
        thetas; the obstruction phase reads only the carries, with theta_r
        taken from the code of r = (st)^-1."""
        table = self.table
        code_columns, theta_columns = self._columns
        components = [
            [(x + a) % m for x in column[span]]
            for column, a, m in zip(code_columns, table.codes[s], table.moduli)
        ]
        composite = list(map(table.index.get, zip(*components), repeat(-1)))
        products = self._products(
            table.thetas[s], table.fixed[s], theta_columns, table.fixed[span], composite, span
        )
        return (composite, *products)

    @cached_property
    def pairs(self) -> tuple[list[list[int]], list[list[int]], list[list]]:
        """Rows (composite, carry, product)[s][t] over every ordered sector
        pair, one ``row`` per s."""
        rows = [self.row(s) for s in range(len(self.table.codes))]
        return tuple(map(list, zip(*rows))) or ([], [], [])

    def heads(self, composite: list[int], products: list, start, dims) -> list[tuple]:
        """(head, room, coeff) = (start[h] + shift, dims[h] - shift, coeff) of
        each 1_(s) * 1_(t) = coeff eta^shift 1_(h) of a row, where ``start``
        and ``dims`` give the first basis index and the dimension of each
        composite h; (0, -1, 0) for zero."""
        return [(start[h] + p[1], dims[h] - p[1], p[0]) if p else (0, -1, 0)
                for h, p in zip(composite, products)]

    def basis_rows(self, k1s, heads: list[tuple[int, int, int]], k2s) -> list:
        """For each k1 in ``k1s``, the targets and coefficients of eta^k1 1_(s)
        times each basis column eta^k2 1_(t), k2 in ``k2s[i]`` for the i-th
        sector t of a row of s with these ``heads``.  The one truncation
        rule: it is coeff * basis[head + k1 + k2] if k1 + k2 <= room, else
        zero (target -1, coefficient 0)."""
        columns = [
            (head + k2, room - k2, c) for (head, room, c), ks in zip(heads, k2s) for k2 in ks
        ]
        return [([head + k1 if k1 <= room else -1 for head, room, _ in columns],
                 [coeff if k1 <= room else 0 for _, room, coeff in columns]) for k1 in k1s]

    def cup_basis(self, a: BasisElement, b: BasisElement) -> tuple[Fraction, BasisElement] | None:
        """Product of two basis elements: a scaled basis element, or None for 0.

        The code of the composite h = st is the modular sum of the codes of s
        and t, and its fixed-set mask, from its theta numerators, must meet
        the chamber's level mask for h to be a sector here.  ``_products``
        runs on the one column of t, and the truncation reads h's dimension,
        with the eta powers of h as its basis indices."""
        vd = self.vd
        code_s, thetas_s, fixed_s = vd.sector_row(a.sector, self.chamber, a.k)
        code_t, thetas_t, fixed_t = vd.sector_row(b.sector, self.chamber, b.k)
        code = compose_codes(code_s, code_t, vd.moduli)
        mask = vd.fixed_mask(vd.code_numerators(code))
        composite = [0 if mask & vd.level_masks[self.chamber] else -1]
        _, products = self._products(thetas_s, fixed_s, list(zip(thetas_t)), [fixed_t], composite)
        heads = self.heads(composite, products, [0], [sector_dim(mask)])
        [([k], [coeff])] = self.basis_rows([a.k], heads, [[b.k]])
        if k < 0:
            return None
        return Fraction(coeff), BasisElement(code_label(code, vd.denominator), k)

    def _refuse_unread(self, a: CRClass, b: CRClass) -> None:
        """Refuse by ``sector_row`` each element of a class whose partner is zero."""
        if not a._terms or not b._terms:
            for e in chain(a._terms, b._terms):
                self.vd.sector_row(e.sector, self.chamber, e.k)

    def cup(self, a: CRClass, b: CRClass) -> CRClass:
        """Bilinear extension of ``cup_basis``."""
        self._refuse_unread(a, b)
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

    def pairing_value(self, fixed: int) -> Fraction:
        """1 / (|A| * prod_{j in I} w_j): eta^k 1_(s) paired with its partner,
        for s with fixed-set mask I."""
        weights = [w for j, w in enumerate(self.vd.weights) if fixed >> j & 1]
        return Fraction(1, self.vd.finite_order * prod(weights))

    def partner(self, inverse, dim: int, k: int) -> tuple:
        """(s^-1, dim(s) - k): the one element that eta^k 1_(s) pairs with,
        given s^-1 (a table position or a code) and dim(s)."""
        return inverse, dim - k

    def pairing_basis(self, a: BasisElement, b: BasisElement) -> Fraction:
        code, _, fixed = self.vd.sector_row(a.sector, self.chamber, a.k)
        partner = self.partner(invert_code(code, self.vd.moduli), sector_dim(fixed), a.k)
        matched = (self.vd.sector_row(b.sector, self.chamber, b.k)[0], b.k) == partner
        return self.pairing_value(fixed) if matched else Fraction(0)

    def pairing(self, a: CRClass, b: CRClass) -> Fraction:
        self._refuse_unread(a, b)
        value = Fraction(0)
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                value += ca * cb * self.pairing_basis(ea, eb)
        return value

    def triple_direct(self, a: CRClass, b: CRClass, c: CRClass) -> Fraction:
        """3-point function through the ring: <cup(a, b), c>."""
        return self.pairing(self.cup(a, b), c)

    # -- tabulation ------------------------------------------------------------

    def _pairing_entries(self) -> Iterator[tuple[int, int, int]]:
        """(i, j, s) for every nonzero pairing entry: eta^k 1_(s) and its partner."""
        start, table = self.start, self.table
        for s, ks in enumerate(self.powers):
            for k in ks:
                u, partner_k = self.partner(table.inverse[s], table.dims[s], k)
                yield start[s] + k, start[u] + partner_k, s

    def structure_constants(self) -> StructureTable:
        """Deterministic full tables; products are stored sparsely for i <= j.
        Equal products are one ``CRClass`` object, built once per call."""
        basis, powers, dims = self._basis, self.powers, self.table.dims
        degrees = tuple(map(self.degree_at, range(len(basis))))
        values = list(map(self.pairing_value, self.table.fixed))
        pairing = [[Fraction(0)] * len(basis) for _ in basis]
        for i, j, s in self._pairing_entries():
            pairing[i][j] = values[s]
        products: dict[tuple[int, int], CRClass] = {}
        classes: dict[tuple[int, int], CRClass] = {}  # (target, coeff) -> its class
        for s, first in enumerate(self.start):
            composite, _, row = self.row(s, slice(s, None))
            heads = self.heads(composite, row, self.start, dims)
            for k1, (targets, coeffs) in enumerate(self.basis_rows(powers[s], heads, powers[s:])):
                # columns start at j = first: row i keeps j >= i, nonzero only
                i = first + k1
                entries = zip(count(i), targets[k1:], coeffs[k1:])
                for j, target, coeff in compress(entries, coeffs[k1:]):
                    value = classes.get((target, coeff))
                    if value is None:
                        value = classes[target, coeff] = CRClass.single(basis[target], coeff)
                    products[(i, j)] = value
        return StructureTable(basis, degrees, tuple(map(tuple, pairing)), products)

    # -- axioms ------------------------------------------------------------------

    def verify_ring_axioms(self) -> SelfTestReport:
        """Check unit, commutativity, degree additivity, associativity, the
        Frobenius identity and pairing nondegeneracy over the whole basis:
        one ``PhaseResult`` each, in that order, whose detail is the first
        counterexample of a failing check.

        The integer product table is ``basis_rows`` over each row of
        ``pairs``, as in ``table`` and ``cup``, with a trailing sentinel (-1
        for "zero product", 0 for coefficients).  The pairing, times |A| *
        prod_j |w_j|, is one dict of nonzero entries per row.

        Associativity is compared packed.  Every (target, coefficient) entry,
        times every distinct coefficient c of the table, is packed as the one
        int target + c * B * coefficient, B = 4 * N + 4: the target lies in
        [-1, N), so equal ints are equal entries.  Row r holds one block of
        packed entries per scalar, none for 0 on a well-formed table, where a
        zero product reads only the sentinel that ends every row.  The block
        of the coefficient of i*j in row i*j reads (i*j)*k for every k; row i
        read at j*k, in the block of the coefficient of j*k, gives i*(j*k).

        This is decided exactly over every (i, j, k), with no sampling, by
        comparing only pairs (i, j) with j in a generating set G: the basis
        in ascending degree, ties in basis order, each element that no
        left-normed product of earlier generators reaches with a nonzero
        coefficient.  By bilinearity, the middles y with (x*y)*z = x*(y*z)
        for all x, z form a subspace, closed under products: (x*(y1*y2))*z
        = ((x*y1)*y2)*z = (x*y1)*(y2*z) = x*(y1*(y2*z)) = x*((y1*y2)*z).  It
        holds G, so a nonzero multiple of every basis element.  When the unit
        and commutativity checks pass, 1*z = z = z*1 puts 1 in it; G omits it.
        The proof reads equal packed entries as equal vectors, so G is used
        only on a well-formed table: every entry is (-1, 0), or a target in
        [0, N) with a nonzero coefficient.  From the first unequal
        comparison on, or on any other table, the same loop runs from i = 0
        over every j and names the first counterexample in (i, j, k) order.

        Once G proved associativity and the pairing is a matching, Frobenius
        is decided by ``_counit``: given associativity, <a, b> = <a*b, 1> for
        all a, b gives <x*y, z> = <(x*y)*z, 1> = <x*(y*z), 1> = <x, y*z>.
        Otherwise, or when ``_counit`` fails, one loop over the sparse pairing
        compares <i*j, k> with <i, j*k> and names the first (i, j, k).
        """
        basis, table, size = self._basis, self.table, len(self._basis)
        pidx, pnum = [], []
        for s, (composite, _, products) in enumerate(zip(*self.pairs)):
            heads = self.heads(composite, products, self.start, table.dims)
            for targets, coeffs in self.basis_rows(self.powers[s], heads, self.powers):
                pidx.append(targets + [-1])
                pnum.append(coeffs + [0])
        scale = self.vd.finite_order * prod(abs(w) for w in self.vd.weights)
        values = [int(scale * self.pairing_value(f)) for f in table.fixed]
        pairing = [{} for _ in range(size + 1)]  # a target past the basis reads an empty row
        for i, j, s in self._pairing_entries():
            pairing[i][j] = values[s]

        unit_bad = None
        if size and table.codes[0] == (0,) * len(table.moduli):
            for j in range(size):
                if (pidx[0][j], pnum[0][j]) != (j, 1):
                    unit_bad = f"1 * {basis[j]} = {pnum[0][j]} * basis[{pidx[0][j]}]"
                    break
        elif size:
            unit_bad = "no identity sector in this chamber"

        comm_bad = None
        for i, (row, column, nums, num_column) in enumerate(
            zip(pidx, zip(*pidx), pnum, zip(*pnum))
        ):
            if row[:size] != list(column) or nums[:size] != list(num_column):
                j = next(j for j in range(size) if (row[j], nums[j]) != (column[j], num_column[j]))
                comm_bad = f"{basis[i]} * {basis[j]} != {basis[j]} * {basis[i]}"
                break

        degrees, degree_bad = self.degrees, None
        for i in range(size):
            for j, target in enumerate(pidx[i][:size]):
                # a target past the basis has no degree: named by its index
                if target >= 0 and (target >= size or degrees[i] + degrees[j] != degrees[target]):
                    named = basis[target] if target < size else f"basis[{target}]"
                    degree_bad = f"deg({basis[i]}) + deg({basis[j]}) != deg({named})"
                    break
            if degree_bad:
                break

        well_formed = all(
            min(idx) >= -1 and max(idx) < size
            and list(map((-1).__ne__, idx)) == list(map(bool, nums))
            for idx, nums in zip(pidx, pnum)
        )
        # blocks[r][n]: row r's entries times the n-th scalar, packed; the
        # appended none row is read by a target past the basis
        width, radix = size + 1, 4 * size + 4
        scalars = [c for c in dict.fromkeys(chain.from_iterable(pnum)) if c or not well_formed]
        scalars = {c: n for n, c in enumerate(scalars)}
        sentinel, none = len(scalars) * width, (-1,) * width
        blocks = []
        for idx, nums in zip(pidx, pnum):
            upper = [radix * x for x in nums]
            blocks.append([tuple([t + c * x for t, x in zip(idx, upper)]) for c in scalars])
        blocks.append([none] * len(scalars))
        # generators: in ascending degree, ties in basis order, each element
        # that no left-normed product of earlier ones reaches; each product
        # x * g of a reached x and a generator g is read once
        generators, reached = [], {0} if unit_bad is None and comm_bad is None else set()
        for e in sorted(range(size), key=self.degrees.__getitem__) if well_formed else ():
            if e not in reached:
                generators.append(e)
                todo = [(x, e) for x in reached] + [(e, g) for g in generators]
                reached.add(e)
                while todo:
                    x, g = todo.pop()
                    if pnum[x][g] and (t := pidx[x][g]) not in reached:
                        reached.add(t)
                        todo += [(t, h) for h in generators]
        # the middles j: the generators while every comparison is equal, and
        # every j from the start once one is not; gather[j] reads i*(j*k) for
        # every k off row i's blocks laid end to end: at j*k in the block of
        # its coefficient, or at the shared sentinel for a zero j*k
        middles, gather, i = generators if well_formed else range(size), [None] * size, 0
        assoc_bad = None
        while i < size and assoc_bad is None:
            row = (*chain.from_iterable(blocks[i]), -1)
            for j in middles:
                if gather[j] is None:
                    gather[j] = itemgetter(*(
                        scalars[c] * width + t if t >= 0 else sentinel
                        for t, c in zip(pidx[j], pnum[j])
                    ))
                t = pidx[i][j]
                lhs, rhs = blocks[t][scalars[pnum[i][j]]] if t >= 0 else none, gather[j](row)
                if lhs == rhs:  # (i*j)*k against i*(j*k) for every k
                    continue
                if middles is generators:
                    middles, i = range(size), -1
                    break
                x, y = basis[i], basis[j]
                z = basis[next(k for k, u in enumerate(lhs) if u != rhs[k])]
                assoc_bad = f"({x} * {y}) * {z} != {x} * ({y} * {z})"
                break
            i += 1

        # the pairing couples each basis element with exactly one other: one
        # nonzero in every row and every column, which makes it nondegenerate
        columns, match_bad = Counter(chain.from_iterable(pairing)), None
        for kind, counts in [("row", list(map(len, pairing[:size]))),
                             ("column", [columns[j] for j in range(size)])]:
            bad = [i for i, count in enumerate(counts) if count != 1]
            if bad:
                match_bad = f"the {kind} of {basis[bad[0]]} holds {counts[bad[0]]} nonzero entries"
                break

        frob_bad = None
        if not (middles is generators and match_bad is None and self._counit(pidx, pnum, pairing)):
            at = [{} for _ in range(size)]  # at[j][m]: every k with j*k at m
            for j, k in product(range(size), repeat=2):
                at[j].setdefault(pidx[j][k], []).append(k)
            for i, j in product(range(size), repeat=2):
                lhs = {k: pnum[i][j] * v for k, v in pairing[pidx[i][j]].items() if 0 <= k < size}
                rhs = {k: pnum[j][k] * v for m, v in pairing[i].items() for k in at[j].get(m, ())}
                if ks := [k for k in lhs.keys() | rhs.keys() if lhs.get(k, 0) != rhs.get(k, 0)]:
                    x, y, z = basis[i], basis[j], basis[min(ks)]
                    frob_bad = f"<{x} * {y}, {z}> != <{x}, {y} * {z}>"
                    break
        found = {
            "unit": unit_bad, "commutativity": comm_bad, "degree_additivity": degree_bad,
            "associativity": assoc_bad, "frobenius": frob_bad, "pairing_nondegenerate": match_bad,
        }
        return SelfTestReport(tuple(
            PhaseResult(name, "pass" if bad is None else "fail", bad) for name, bad in found.items()
        ))

    @staticmethod
    def _counit(pidx: list[list[int]], pnum: list[list[int]], pairing: list[dict]) -> bool:
        """Whether <a, b> = <a*b, 1> for all a, b, 1 the first basis element,
        on a matching: <x, 1> is nonzero at x = ``top`` alone, so row a must
        land on ``top`` at b = partner(a) only, with the pairing's value."""
        top = next((i for i, entries in enumerate(pairing) if 0 in entries), None)
        return all(
            row.count(top) == 1 and row.index(top) == j and nums[j] * pairing[top][0] == v
            for row, nums, ((j, v),) in zip(pidx, pnum, map(dict.items, pairing))
        )


# -- wire format -------------------------------------------------------------


class _Reader:
    """Parser of one wire document, living for one call of a ``*_from_doc``
    function.  It reads each distinct rational string and each distinct
    sector label document once, and builds one ``BasisElement`` per (label,
    eta power).  A rational must be written as ``format_rational`` writes
    it.  Every record still gets its own shape and type checks; a memo is
    consulted only once they have passed.

    With a datum, ``sector_row`` checks each distinct basis element once, in
    the datum's chamber, and its refusal is raised as ``DatumFormatError``.
    """

    def __init__(self, vd: ValidatedDatum | None):
        self.vd = vd
        self.rationals: dict[str, Fraction] = {}
        self.labels: dict[tuple, SectorLabel] = {}  # (c text, finite components) -> label
        self.elements: dict[tuple[SectorLabel, int], BasisElement] = {}

    def rational(self, text: object) -> Fraction:
        value = self.rationals.get(text) if type(text) is str else None
        if value is None:
            value = parse_rational(text)
            if format_rational(value) != text:
                raise ValueError(f"rational {text!r} must be written {format_rational(value)!r}")
            self.rationals[text] = value
        return value

    def sector(self, doc: object) -> SectorLabel:
        # the types are checked before the memo is read: ("0", (True,)) is an
        # equal key to ("0", (1,)), but only the latter is a valid record
        key = _label_key(doc)
        label = self.labels.get(key) if type(key[0]) is str else None
        if label is None:
            label = self.labels[key] = label_from_doc(doc, self.vd)  # c parsed, so it is a str
        return label

    def element(self, doc: object) -> BasisElement:
        if not isinstance(doc, dict) or "sector" not in doc or "eta_power" not in doc:
            raise DatumFormatError("basis element must have 'sector' and 'eta_power'")
        k = doc["eta_power"]
        if type(k) is not int:
            raise DatumFormatError(f"eta_power must be an integer, got {k!r}")
        label = self.sector(doc["sector"])
        element = self.elements.get((label, k))
        if element is None:
            if self.vd is not None:
                try:
                    self.vd.sector_row(label, self.vd.chamber, k)
                except DomainError as exc:
                    raise DatumFormatError(str(exc)) from exc
            element = self.elements[label, k] = BasisElement(label, k)
        return element

    def terms(self, doc: object) -> list[tuple[BasisElement, Fraction]]:
        """The (element, coefficient) pairs of a class document, in order."""
        if not isinstance(doc, list):
            raise DatumFormatError("a class document must be a list of term records")
        terms = []
        for record in doc:
            element = self.element(record)
            try:
                terms.append((element, self.rational(record["coeff"])))
            except (KeyError, ValueError) as exc:
                raise DatumFormatError(f"a term record needs a rational 'coeff': {exc}") from exc
        return terms


def cr_class_to_doc(value: CRClass) -> list[dict]:
    return [
        {**element_to_doc(element.sector, element.k), "coeff": format_rational(coeff)}
        for element, coeff in value.items()
    ]


def cr_class_from_doc(doc: object, vd: ValidatedDatum | None = None) -> CRClass:
    """The class of a document, repeated elements merged."""
    merged: dict[BasisElement, Fraction] = {}
    for element, coeff in _Reader(vd).terms(doc):
        merged[element] = merged[element] + coeff if element in merged else coeff
    return CRClass(merged)


def table_to_doc(table: StructureTable) -> dict:
    """The wire document of a table.  Product records whose values are one
    ``CRClass`` object share one ``terms`` list, so a caller who edits the
    document should copy it through JSON text first; basis documents are
    never shared."""
    terms: dict[int, list[dict]] = {}  # id of a product value -> its terms
    products = []
    for key, value in sorted(table.products.items()):
        shared = terms.get(id(value))
        if shared is None:
            shared = terms[id(value)] = cr_class_to_doc(value)
        products.append({"i": key[0], "j": key[1], "terms": shared})
    return {
        "basis": [element_to_doc(e.sector, e.k) for e in table.basis],
        "degrees": [format_rational(d) for d in table.degrees],
        "pairing": list(map(_pairing_row, table.pairing)),
        "products": products,
    }


def _pairing_row(row: tuple[Fraction, ...]) -> list[str]:
    """The wire row of a pairing row: only its nonzero entries are formatted."""
    texts = ["0"] * len(row)
    for j in compress(range(len(row)), row):
        texts[j] = format_rational(row[j])
    return texts


def table_from_doc(doc: object, vd: ValidatedDatum | None = None) -> StructureTable:
    """Read a table by the writer's rule: records in increasing (i, j) order,
    i <= j, each one nonzero term on an element of the table's basis."""
    fields = ("basis", "degrees", "pairing", "products")
    if not isinstance(doc, dict) or not all(isinstance(doc.get(f), list) for f in fields):
        raise DatumFormatError(f"a table document must map {', '.join(fields)} to lists")
    if not all(isinstance(row, list) for row in doc["pairing"]):
        raise DatumFormatError("pairing rows must be lists")
    size = len(doc["basis"])
    if {len(doc["degrees"]), len(doc["pairing"]), *map(len, doc["pairing"])} != {size}:
        raise DatumFormatError(f"{size} basis elements need {size} degrees, {size}x{size} pairings")
    reader = _Reader(vd)
    basis = tuple(map(reader.element, doc["basis"]))
    try:
        degrees = tuple(map(reader.rational, doc["degrees"]))
        pairing = _pairing_from_doc(reader, doc["pairing"])
    except ValueError as exc:
        raise DatumFormatError(str(exc)) from exc
    # classes maps the ids of a term's element and coefficient to its class;
    # the reader's memos hold both objects for the call, so no id is reused
    products, elements, last, classes = {}, set(basis), (-1, -1), {}
    for record in doc["products"]:
        if (
            not isinstance(record, dict)
            or type(record.get("i")) is not int
            or type(record.get("j")) is not int
            or not (0 <= record["i"] < size and 0 <= record["j"] < size)
        ):
            raise DatumFormatError(f"a product record must have integer 'i' and 'j' in [0, {size})")
        key = record["i"], record["j"]
        if key[0] > key[1]:
            raise DatumFormatError(f"product record {key} must have i <= j")
        if key <= last:
            raise DatumFormatError(f"product record {key} does not follow {last}")
        terms = reader.terms(record.get("terms"))
        if len(terms) != 1:
            raise DatumFormatError(f"product record {key} has {len(terms)} terms, not 1")
        [(element, coeff)] = terms
        value = classes.get((id(element), id(coeff)))
        if value is None:
            if not coeff:
                raise DatumFormatError(f"product record {key} has a zero coefficient of {element}")
            if element not in elements:
                raise DatumFormatError(f"product record {key} names {element}, outside the basis")
            value = classes[id(element), id(coeff)] = CRClass.single(element, coeff)
        products[key] = value
        last = key
    return StructureTable(basis, degrees, pairing, products)


def _pairing_from_doc(reader: _Reader, rows: list[list]) -> tuple[tuple[Fraction, ...], ...]:
    """Each distinct entry is read once, in row-major first-seen order, so a
    refusal names the first bad entry."""
    try:
        distinct = dict.fromkeys(chain.from_iterable(rows))
    except TypeError:
        # a list or dict entry: read every entry in order; the reader refuses
        # the first bad one before it is hashed
        distinct = chain.from_iterable(rows)
    memo = {text: reader.rational(text) for text in distinct}
    return tuple(tuple(map(memo.__getitem__, row)) for row in rows)
