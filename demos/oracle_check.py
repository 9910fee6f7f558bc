"""Check the combinatorial expansion against a brute-force Moyal product.

The combinatorial engine never differentiates anything; it assembles terms
from margin-constrained matrices.  The oracle does the opposite: it expands
both elementary functions into explicit polynomials over the 2n coordinates
and multiplies them with the Moyal bidifferential formula.  The two answers
must agree coefficient for coefficient.
"""

from qstar import (
    expand_elementary,
    expand_terms,
    moyal,
    parse_monomial,
    star_product,
    verify,
)

alpha = (1, 1)
beta = (2, 1)
p = tuple(parse_monomial(s).mono for s in ("x^2y", "x^3y"))
q = tuple(parse_monomial(s).mono for s in ("x^3", "x^2y^2"))
n = 4

exp = star_product(alpha, beta, p, q, n)
combinatorial = expand_terms(exp.terms(), n)

brute = moyal(expand_elementary(alpha, p, n), expand_elementary(beta, q, n))

print("combinatorial expansion: %d contributing terms" % sum(
    exp.term_counts().values()))
print("expanded polynomial:     %d monomials" % len(combinatorial.terms))
print("brute-force Moyal:       %d monomials" % len(brute.terms))
print("equal:", combinatorial == brute)
print()

report = verify(alpha, beta, p, q, n)
print("verify() report:")
print("  oracle identity:", "ok" if report.identity_ok else "FAIL")
print("  classical limit:", "ok" if report.classical_ok else "FAIL")
print("  path agreement: ", "ok" if report.paths_ok else "FAIL")
