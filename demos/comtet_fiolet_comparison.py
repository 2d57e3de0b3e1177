"""Where the 1974 Comtet-Fiolet formula goes wrong, reproduced exactly.

Comtet and Fiolet published a closed form for the implicit derivatives whose
coefficient block is q! <q>_S <q+S>_c1 (rising factorials over row/column
sums of the partition's multiplicity table).  That block equals q * (m-1)!
with m the number of parts, so their coefficient is q times the correct
weight: too large for every term with q > 1.  For a formula partition q is
its number of parts (i, 0).  Their companion term-count generating
function is also wrong.  Both failures are demonstrated below with exact
arithmetic.
"""

from implicit_deriv import (
    Partition2D,
    cf_notation,
    cf_original_coefficient,
    cf_term_count,
    compare_with_formula,
    partition_coefficient,
    term_count_enum,
    weighted_formula_heads,
)
from implicit_deriv.formula import cf_original_groups

# the worked partition appearing in d^5y/dx^5: its term is
# F_x^2 F_xy^3 F_yy / F_y^6 and the correct coefficient is 600
worked = Partition2D([(1, 1)] * 3 + [(1, 0)] * 2 + [(0, 2)])
print("partition:", worked)
print("correct coefficient:", partition_coefficient(worked))
print("1974 coefficient:   ", cf_original_coefficient(worked))
print("bookkeeping:        ", cf_notation(worked))

# the factor is exactly q, here 2; the brute-force engine confirms which
# side is right: with the 1974 coefficients installed, the expansion
# disagrees with direct total differentiation on exactly the q > 1 terms
# (each head of the walk with its tails, each tail given its 1974 value)
originals = (
    (head, [(tail, original) for tail, _, original, _ in terms])
    for head, terms in cf_original_groups(weighted_formula_heads(2))
)
report = compare_with_formula(2, originals)
print("\nwith 1974 coefficients at n=2:", report.status)
for mismatch in report.coefficient_mismatches:
    print(
        f"  {mismatch.partition}: brute force says {mismatch.expected}, "
        f"1974 formula says {mismatch.found}"
    )

# the published term count fails immediately as well: at n = 2 it gives 2,
# but the second derivative visibly has three terms
print("\npublished count at n=2:", cf_term_count(2))
print("actual term count:     ", term_count_enum(2))
