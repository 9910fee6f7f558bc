"""Walk through one quantum product of elementary multisymmetric functions.

We multiply e_(1,1)(x^2y, x^3y) by e_(2,1)(x^3, x^2y^2) in n = 4 copies of
the plane.  The script shows every intermediate object: the table of pairwise
star products B(p,q), the classical margin matrices, the cubical matrices
grouped by hbar order, and the final expansion.
"""

from qstar.algebra import (
    ScaledMonomial,
    build_B,
    parse_monomial,
    render_monomial,
)
from qstar.cubes import enumerate_Q, lift_all, to_vector
from qstar.expansion import gamma_to_eterm, render, star_product
from qstar.tables import enumerate_L

alpha = (1, 1)
beta = (2, 1)
p = tuple(parse_monomial(s).mono for s in ("x^2y", "x^3y"))
q = tuple(parse_monomial(s).mono for s in ("x^3", "x^2y^2"))
n = 4

print("arguments:")
print("  e_%s of %s" % (alpha, [render_monomial(ScaledMonomial(1, m)) for m in p]))
print("  e_%s of %s" % (beta, [render_monomial(ScaledMonomial(1, m)) for m in q]))
print()

table = build_B(p, q)
print("B(p,q), %d flat entries:" % len(table.entries))
for entry in table.entries.values():
    print("  %s" % render_monomial(entry))
print()

classical = enumerate_L(alpha, beta, n)
print("%d classical margin matrices:" % len(classical))
for gamma in classical:
    print("  %s" % (gamma.rows,))
print()

exp = star_product(alpha, beta, p, q, n)
# the lift route pairs each contributing term with its cubical matrix; no
# two terms tie, so sorting the pairs as the expansion sorts its terms
# lists the matrices in the order of exp.by_order[m]
pairs = sorted(
    ((gamma_to_eterm(g, table), g)
     for g in lift_all(classical, exp.m_bound, table.k_max)),
    key=lambda pair: (pair[0].slots, pair[0].scalar),
)
for m in range(exp.m_bound + 1):
    cubes = enumerate_Q(alpha, beta, n, m)
    contributing = [g for term, g in pairs if term.hbar == m]
    print(
        "order hbar^%d: %d cubical matrices, %d contribute"
        % (m, len(cubes), len(contributing))
    )
    for gamma in contributing:
        vec = to_vector(gamma, levels=exp.s_bound + 1)
        print("  %s" % (vec,))
print()

print("expansion:")
print(render(exp, "text"))
