"""How many terms does the order-n expansion have?

The count a(n) is the coefficient of t^n u^(n-1) in the product over
admissible parts (i, j) of 1 / (1 - t^i u^(i+j-1)).  The combined exponent
i + j - 1 encodes the constraint linking the second coordinates to the
number of parts.  The table below multiplies the product out factor by
factor in exact integers.  The same u-coefficients also follow from a
convolution recurrence against the u-coefficients of the product's
logarithm, which the tests use to check the table.
"""

from implicit_deriv import cf_term_count, series_table, term_count_enum

TOP = 24

# one table build gives every a(n): a(n) is the degree-n coefficient of the
# (n-1)-st series, which series_table(k) keeps to degree k + 1
table = series_table(TOP - 1)
print(" n  a(n)")
for n in range(1, TOP + 1):
    print(f"{n:2d}  {table[n - 1][n]}")

# the first few counts, cross-checked by direct enumeration of partitions
print("\nenumeration agrees:", all(
    term_count_enum(n) == table[n - 1][n] for n in range(1, 11)
))

# the count published in 1974 used u^j instead of u^(i+j-1) in the product;
# it already fails at n = 2 (and keeps drifting: the n = 3 agreement is a
# coincidence)
print("\n n  published  actual")
for n in range(1, 7):
    print(f"{n:2d}  {cf_term_count(n):9d}  {table[n - 1][n]}")
