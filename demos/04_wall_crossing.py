"""Wall crossing with mixed-sign weights.

For weights (1,1,-1) both sides of the wall at 0 carry a nonempty quotient,
and neither is compact, so the library reports only the localized delta: the
jump of the 3-point function when the moment level crosses 0.  Run:

    python3 demos/04_wall_crossing.py
"""

from crring import (
    QuotientDatum,
    format_rational,
    run_selftest,
    validate_datum,
    wall_crossing_delta,
)

vd = validate_datum(QuotientDatum((1, 1, -1)))
identity = vd.identity()

print(f"weights {vd.weights}: sectors on each side of the wall")
for chamber in ("positive", "negative"):
    labels = ", ".join(str(s.label) for s in vd.sectors(chamber))
    print(f"  {chamber:<9} {labels}")

print("\nuntwisted deltas <eta^k1 u eta^k2, eta^k3>_q - <...>_p:")
for powers in ((1, 1, 0), (2, 0, 0), (0, 0, 0), (1, 0, 0)):
    report = wall_crossing_delta(vd, *[(identity, k) for k in powers])
    print(
        f"  k = {powers}: delta = {format_rational(report.value):>3}"
        f"   (collapsed power {report.degree_check})"
    )

# A nonzero delta needs the collapsed power to be exactly -1; the k=(0,0,0)
# entry is degree-short and vanishes for that reason, not by cancellation.

print("\nself-test (ring axioms run per chamber, path agreement skipped):")
for phase in run_selftest(vd).phases:
    detail = f" - {phase.detail}" if phase.detail else ""
    print(f"  {phase.name:<28} {phase.status}{detail}")
