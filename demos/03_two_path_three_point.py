"""One 3-point function, two independent computations.

The triple of the cube-root sector of P(1,2,2,3,3,3) can be evaluated
(a) inside the quotient, by the twist-factor cup product and the Poincare
pairing, or (b) upstairs on C^6, by restricting equivariant twist factors to
the origin and taking a residue against the equivariant Euler class.  Both
must give the same exact rational.  Run:

    python3 demos/03_two_path_three_point.py
"""

from fractions import Fraction

from crring import (
    BasisElement,
    CRClass,
    ChenRuanRing,
    QuotientDatum,
    format_rational,
    localized_residue,
    triple_localized,
    validate_datum,
)

vd = validate_datum(QuotientDatum((1, 2, 2, 3, 3, 3)))
third = vd.label(Fraction(1, 3))

# Path (a): cup then pair.
ring = ChenRuanRing(vd)
one_third = CRClass.single(BasisElement(third, 0))
product = ring.cup(one_third, one_third)
direct = ring.pairing(product, one_third)
print(f"direct path:    1_({third}) * 1_({third}) = {product}")
print(f"                paired against 1_({third}): {format_rational(direct)}")

# Path (b): the twist factor of the sector restricts to the origin as
# prod_j (w_j u)^theta_j = (u)^(1/3) (2u)^(2/3) (2u)^(2/3).  Over the three
# copies the exponents sum to integers e_j, so the product collapses to an
# honest Laurent term; dividing by the equivariant Euler class
# |A| * prod_j (w_j u) of the origin leaves the quotient term.
thetas = vd.thetas(third)
print(f"\nequivariant restriction factors (coordinate -> exponent): "
      f"{{{', '.join(f'{j}: {format_rational(th)}' for j, th in enumerate(thetas) if th)}}}")
numerators = vd.theta_numerators(third)[1]
print(f"theta numerators over D = {vd.denominator}: {numerators}")
print(f"exponent sums e_j over the triple: {tuple(3 * x // vd.denominator for x in numerators)}")
top, bottom, power = localized_residue(vd, numerators, numerators, numerators)
print(f"collapsed quotient term: ({format_rational(Fraction(top, bottom))}) * u^{power}")

report = triple_localized(vd, (third, 0), (third, 0), (third, 0))
print(f"residue (coefficient of u^-1): {format_rational(report.value)}")

assert direct == report.value
print(f"\nboth paths agree: {format_rational(direct)}")
