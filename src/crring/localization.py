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
triple on it reads its value off those two numbers.  The self-test calls
the kernel once per composable sector triple; ``triple_localized`` is the
label-level wrapper around the same kernel.  Composability is decided here
from the numerator sums mod D.  This path imports nothing from the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import prod
from typing import Mapping

from .errors import EmptySector, NonComposable
from .exact import format_rational
from .quotient import CHAMBERS, SectorLabel, ValidatedDatum, label_to_doc

SectorPower = tuple[SectorLabel, int]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class WallCrossingReport:
    """One localized 3-point evaluation: its exact value, the collapsed
    u-power, and which chambers contain each sector of the triple."""

    triple: tuple[SectorPower, SectorPower, SectorPower]
    value: Fraction
    degree_check: int
    side_existence: Mapping[str, tuple[bool, bool, bool]]
    note: str | None = None


def localized_residue(
    vd: ValidatedDatum,
    theta1: tuple[int, ...],
    theta2: tuple[int, ...],
    theta3: tuple[int, ...],
) -> tuple[Fraction, int] | None:
    """The collapsed term of three lifts at eta powers 0, from the theta
    numerators over D of their sectors: (coefficient, u-power), or None when
    the elements do not compose to the identity.  Eta powers k_i only raise
    the u-power by k1 + k2 + k3; the 3-point function is the coefficient
    when the raised power is -1, and 0 otherwise."""
    d = vd.denominator
    exponents = []
    # the product of the elements acts with phases (theta1 + theta2 + theta3) / D,
    # so it is the identity exactly when every sum is a multiple of D
    for x, y, z in zip(theta1, theta2, theta3):
        e, rest = divmod(x + y + z, d)
        if rest:
            return None
        exponents.append(e)
    weights = vd.weights
    coeff = Fraction(
        prod([w for w, e in zip(weights, exponents) if e == 2]),
        vd.finite_order * prod([w for w, e in zip(weights, exponents) if not e]),
    )
    return coeff, sum(exponents) - vd.n


def triple_localized(
    vd: ValidatedDatum, p1: SectorPower, p2: SectorPower, p3: SectorPower
) -> WallCrossingReport:
    """Localized 3-point function of eta^{k_i} lifts on sectors t_i.

    Requires every label to fix a coordinate (``EmptySector`` otherwise) and
    the labels to compose to the identity (``NonComposable``); evaluates the
    collapsed term with ``localized_residue``.
    """
    triple = (p1, p2, p3)
    thetas = [vd.theta_numerators(t)[1] for t, _ in triple]
    masks = [vd.fixed_mask(numerators) for numerators in thetas]
    if not all(masks):
        raise EmptySector(f"{triple[masks.index(0)][0]} fixes no coordinate")
    # a label that fixes a coordinate has its numerators over D
    term = localized_residue(vd, *thetas)
    if term is None:
        raise NonComposable(f"{p1[0]}, {p2[0]}, {p3[0]} do not multiply to 1")
    coeff, base = term
    power = base + p1[1] + p2[1] + p3[1]
    return WallCrossingReport(
        triple=triple,
        value=coeff if power == -1 else _ZERO,
        degree_check=power,
        side_existence={
            chamber: tuple(bool(m & vd.level_masks[chamber]) for m in masks)
            for chamber in CHAMBERS
        },
    )


def wall_crossing_delta(
    vd: ValidatedDatum, p1: SectorPower, p2: SectorPower, p3: SectorPower
) -> WallCrossingReport:
    """Change of the 3-point function across the wall at 0.

    Numerically identical to ``triple_localized``; additionally notes when
    one chamber is empty, in which case the delta *is* the other side's
    3-point function.
    """
    report = triple_localized(vd, p1, p2, p3)
    note = None
    if not vd.sectors("negative"):
        note = "negative chamber is empty: the delta equals the positive-side 3-point function"
    elif not vd.sectors("positive"):
        note = "positive chamber is empty: the delta equals the negative-side 3-point function"
    return replace(report, note=note)


# -- wire format -------------------------------------------------------------


def report_to_doc(report: WallCrossingReport) -> dict:
    doc = {
        "triple": [
            {"sector": label_to_doc(t), "eta_power": k} for t, k in report.triple
        ],
        "value": format_rational(report.value),
        "degree_check": report.degree_check,
        "side_existence": {
            chamber: list(flags) for chamber, flags in report.side_existence.items()
        },
    }
    if report.note is not None:
        doc["note"] = report.note
    return doc
