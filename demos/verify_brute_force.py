"""Check the closed form against brute-force total differentiation.

Nothing about the expansion needs to be taken on faith: repeatedly applying
the operator d/dx + y' d/dy (with y' = -F_x/F_y) to -F_x/F_y expands the
order-n derivative from scratch in an exact symbolic algebra over the mixed
partials of F.  The closed form must match monomial for monomial,
coefficient for coefficient.
"""

from implicit_deriv import (
    brute_force_expansion,
    compare_with_formula,
    formula_terms,
    formula_to_expr,
    total_derivative,
)

# term-by-term equality for the first eight orders (732 terms at n = 8)
for n in range(1, 9):
    report = compare_with_formula(n)
    print(f"n={n}: {report.status} ({len(brute_force_expansion(n))} monomials)")

# the comparison is also serializable, for tooling
print("\nreport at n=3:", compare_with_formula(3).to_json())

# the induction view: one total-derivative step maps the order-(n-1) closed
# form exactly onto the order-n closed form
for n in range(2, 7):
    stepped = total_derivative(formula_to_expr(formula_terms(n - 1)))
    assert stepped == formula_to_expr(formula_terms(n))
print("\none derivative step advances each expansion to the next: checked n=2..6")
