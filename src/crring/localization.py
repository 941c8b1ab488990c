"""Equivariant side of the computation: wall-crossing residues for 3-point
functions of classes lifted to C^n and restricted to the origin.

For a linear circle action with nonzero weights the moment map has a single
wall at 0 whose fixed locus is the origin, so every wall contribution is one
residue.  A 3-point function of lifted classes u^{k_i} on sectors t_i with
t_1 t_2 t_3 = 1 collapses to the Laurent term

    u^{k1+k2+k3} * prod_i restriction(t_i)  /  (|A| * prod_j (w_j u)),

where restriction(t) = prod_{j moved by t} (w_j u)^{theta_t(j)} is the
equivariant twist factor at the origin and the denominator is the
equivariant Euler class of C^n at the orbifold point [0/A].  The
per-coordinate exponents sum to integers whenever the labels compose to the
identity, so the collapse is always legal; the reported value is the
coefficient of u^{-1} of the collapsed term, and ``degree_check`` records
the collapsed power so a vanishing value can be told apart from a
degree-balanced cancellation.

Exponent rule.  ``localized_residue`` evaluates that term in closed form
from the integer theta numerators over the common denominator D: the summed
exponent on coordinate j is e_j = (theta1_j + theta2_j + theta3_j) / D, one
of 0, 1, 2, so the term is

    prod_{e_j = 2} w_j / (|A| * prod_{e_j = 0} w_j) * u^{sum_j e_j + k1 + k2 + k3 - n}.

Only the u-power depends on the eta powers, so one sector triple has one
collapsed coefficient and one base power sum_j e_j - n, and every basis
triple on it reads its value off those numbers.  The kernel keeps the
coefficient as its two integer factors.  ``residue_sigma`` is the one
statement of the value rule: the term is the 3-point value at the eta
power sum sigma = k1 + k2 + k3 that brings its u-power to -1, and 0 at
every other sum.  ``localized_report``, which builds the one ``Fraction``
it reports from the three sector rows, and the self-test's agreement sweep
both read it.  ``triple_localized`` reads each label's row by
``ValidatedDatum.sector_row``, the statement that refuses a label fixing no
coordinate, and hands the rows to ``localized_report``; the command line
hands it the rows it has read already, and the self-test its sector
table's rows.
Composability is decided here from the numerator sums mod D.  This path
imports nothing from the ring.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .errors import NonComposable
from .exact import _refuse_float, format_rational
from .quotient import CHAMBERS, SectorLabel, ValidatedDatum, element_to_doc

SectorPower = tuple[SectorLabel, int]
_ZERO = Fraction(0)


class WallCrossingReport(namedtuple(
    "WallCrossingReport", "triple value degree_check side_existence note", defaults=(None,)
)):
    """One localized 3-point evaluation: its exact value, the collapsed
    u-power, and which chambers contain each sector of the triple."""

    __slots__ = ()
    triple: tuple[SectorPower, SectorPower, SectorPower]
    value: Fraction
    degree_check: int
    side_existence: Mapping[str, tuple[bool, bool, bool]]
    note: str | None


def localized_residue(
    vd: ValidatedDatum,
    theta1: tuple[int, ...],
    theta2: tuple[int, ...],
    theta3: tuple[int, ...],
) -> tuple[int, int, int] | None:
    """The collapsed term of three lifts at eta powers 0, from the theta
    numerators over D of their sectors, in integers: (prod_{e_j=2} w_j,
    |A| * prod_{e_j=0} w_j, u-power), the coefficient being the first over
    the second; or None when the elements do not compose to the identity.
    Eta powers k_i only raise the u-power by k1 + k2 + k3, and
    ``residue_sigma`` gives the sum at which the coefficient is the 3-point
    function.  A float numerator raises TypeError."""
    d, top, bottom, power = vd.denominator, 1, vd.finite_order, -vd.n
    # the product of the elements acts with phases (theta1 + theta2 + theta3) / D,
    # so it is the identity exactly when every sum is a multiple of D; a float
    # numerator makes its sum, and from then on the u-power, a float
    for w, x, y, z in zip(vd.weights, theta1, theta2, theta3):
        e, rest = divmod(x + y + z, d)
        if rest:
            _refuse_float(power + rest)
            return None
        if e == 2:
            top *= w
        elif not e:
            bottom *= w
        power += e
    _refuse_float(power)
    return top, bottom, power


def residue_sigma(term: tuple[int, int, int]) -> int:
    """The eta power sum sigma = k1 + k2 + k3 at which the collapsed term
    (top, bottom, power) of ``localized_residue`` is the 3-point function:
    its value is the coefficient of u^-1, so top / bottom where power +
    sigma = -1, and 0 at every other sigma."""
    return -1 - term[2]


def triple_localized(
    vd: ValidatedDatum, p1: SectorPower, p2: SectorPower, p3: SectorPower
) -> WallCrossingReport:
    """Localized 3-point function of eta^{k_i} lifts on sectors t_i: the
    ``localized_report`` of the rows that ``vd.sector_row`` reads, which
    refuses a label that fixes no coordinate (``EmptySector``)."""
    return localized_report(vd, (p1, p2, p3), [vd.sector_row(t) for t, _ in (p1, p2, p3)])


def localized_report(vd: ValidatedDatum, triple: tuple, rows) -> WallCrossingReport:
    """The report of ``triple_localized`` on ``triple``, given each sector's
    (code, theta numerators, fixed-set mask) row; the labels must compose to
    the identity (``NonComposable``).  ``localized_residue`` evaluates the
    collapsed term and ``residue_sigma`` reads its value."""
    term = localized_residue(vd, *(numerators for _, numerators, _ in rows))
    if term is None:
        raise NonComposable(", ".join(str(t) for t, _ in triple) + " do not multiply to 1")
    sigma = sum(k for _, k in triple)
    return WallCrossingReport(
        triple=triple,
        value=Fraction(term[0], term[1]) if sigma == residue_sigma(term) else _ZERO,
        degree_check=term[2] + sigma,
        side_existence={
            chamber: tuple(bool(mask & vd.level_masks[chamber]) for *_, mask in rows)
            for chamber in CHAMBERS
        },
    )


def wall_crossing_delta(
    vd: ValidatedDatum, p1: SectorPower, p2: SectorPower, p3: SectorPower
) -> WallCrossingReport:
    """Change of the 3-point function across the wall at 0: the report of
    ``triple_localized`` with ``wall_note``."""
    return wall_note(vd, triple_localized(vd, p1, p2, p3))


def wall_note(vd: ValidatedDatum, report: WallCrossingReport) -> WallCrossingReport:
    """``report`` noting when one chamber is empty.  By Res = int_+ - int_-,
    the delta then *is* the positive side's 3-point function, or minus the
    negative side's."""
    note = None
    if not vd.level_masks["negative"]:  # a chamber with no weight of its sign has no sector
        note = "negative chamber is empty: the delta equals the positive-side 3-point function"
    elif not vd.level_masks["positive"]:
        note = (
            "positive chamber is empty: the delta equals minus the negative-side 3-point function"
        )
    return report._replace(note=note)


# -- wire format -------------------------------------------------------------


def report_to_doc(report: WallCrossingReport) -> dict:
    doc = {
        "triple": [element_to_doc(t, k) for t, k in report.triple],
        "value": format_rational(report.value),
        "degree_check": report.degree_check,
        "side_existence": {
            chamber: list(flags) for chamber, flags in report.side_existence.items()
        },
    }
    if report.note is not None:
        doc["note"] = report.note
    return doc
