"""Exact Chen-Ruan orbifold cohomology of diagonal abelian quotients.

The package computes the Chen-Ruan cohomology ring of quotients
C^n // (S^1 x A) — weighted projective spaces and finite-abelian quotients
thereof — entirely in exact rational arithmetic.  Every 3-point function can
be evaluated along two independent paths, the twist-factor cup product
(``ChenRuanRing.triple_direct``) and the wall-crossing residue
(``triple_localized``), which must agree; ``run_selftest`` checks that
agreement together with the ring axioms on any datum.
"""

from .cli import PhaseResult, SelfTestReport, run_selftest
from .errors import (
    DatumFormatError,
    DomainError,
    EmptySector,
    IneffectiveAction,
    NonComposable,
    ZeroWeight,
)
from .exact import format_rational, frac_part, parse_rational
from .localization import (
    WallCrossingReport,
    localized_residue,
    triple_localized,
    wall_crossing_delta,
)
from .quotient import (
    FiniteCyclicFactor,
    QuotientDatum,
    SectorInfo,
    SectorLabel,
    ValidatedDatum,
    datum_from_doc,
    datum_to_doc,
    label_from_doc,
    label_to_doc,
    validate_datum,
)
from .ring import (
    AxiomCheck,
    BasisElement,
    CRClass,
    ChenRuanRing,
    RingAxiomReport,
    StructureTable,
    cr_class_from_doc,
    cr_class_to_doc,
    obstruction_rank_oracle,
    table_from_doc,
    table_to_doc,
)

__version__ = "0.1.0"

# every name imported above; the submodules themselves stay out
__all__ = sorted(
    name
    for name in dir()
    if not name.startswith("_")
    and name not in {"cli", "errors", "exact", "localization", "quotient", "ring"}
)
