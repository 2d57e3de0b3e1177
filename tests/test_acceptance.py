"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers once its assertions hold (run with `pytest -s` to see
the lines).  Tolerances and bounds are pinned here, not configured."""

import math
import time

from implicit_deriv import (
    Partition2D,
    build_formula,
    cf_notation,
    cf_original_coefficient,
    cf_term_count,
    compare_with_formula,
    derivative_table,
    evaluate_formula,
    finite_difference_check,
    formula_partitions,
    formula_to_expr,
    parse_expression,
    partition_coefficient,
    series_table,
    term_count_enum,
    total_derivative,
    weighted_formula_heads,
)

from oracles import bell_number, faa_di_bruno_expansion

PUBLISHED_COUNTS = {
    1: 1, 2: 3, 3: 9, 4: 24, 5: 61, 6: 145, 7: 333, 8: 732,
    9: 1565, 10: 3247, 11: 6583, 12: 13047, 13: 25379, 14: 48477,
    15: 91159, 16: 168883, 17: 308736, 18: 557335, 19: 994638,
    20: 1755909, 21: 3068960, 22: 5313318, 23: 9118049, 24: 15516710,
}


def report(line: str) -> None:
    print(line)


def test_criterion_1_formula_order_two_exact_and_fast():
    build_formula(2)  # warm import-time caches before timing
    started = time.perf_counter()
    formula = build_formula(2)
    elapsed = time.perf_counter() - started
    got = [(t.partition.parts, t.coefficient, t.fy_exponent) for t in formula.terms]
    assert got == [
        (((2, 0),), -1, 1),
        (((1, 1), (1, 0)), 2, 2),
        (((1, 0), (1, 0), (0, 2)), -1, 3),
    ]
    assert elapsed < 1e-3
    report(f"criterion 1: PASS - order-2 formula exact, built in {elapsed * 1e6:.0f} us")


def test_criterion_2_brute_force_equivalence_to_order_eight():
    started = time.perf_counter()
    for n in range(1, 9):
        result = compare_with_formula(n)
        assert result.status == "equal", f"disagreement at n={n}"
    elapsed = time.perf_counter() - started
    assert len(build_formula(8).terms) == 732
    assert elapsed < 60.0
    report(f"criterion 2: PASS - orders 1..8 match brute force in {elapsed:.2f} s")


def test_criterion_3_term_counts():
    started = time.perf_counter()
    table = series_table(23)
    for n, expected in PUBLISHED_COUNTS.items():
        value = table[n - 1][n]
        assert value.denominator == 1 and int(value) == expected, f"n={n}"
    gf_elapsed = time.perf_counter() - started
    assert gf_elapsed < 5.0

    started = time.perf_counter()
    for n in range(1, 17):
        assert term_count_enum(n) == PUBLISHED_COUNTS[n], f"n={n}"
    enum_elapsed = time.perf_counter() - started
    assert enum_elapsed < 120.0
    report(
        "criterion 3: PASS - published counts reproduced "
        f"(gf 1..24 in {gf_elapsed:.2f} s, enumeration 1..16 in {enum_elapsed:.2f} s)"
    )


def test_criterion_4_coefficient_overshoot():
    worked = Partition2D([(1, 1)] * 3 + [(1, 0)] * 2 + [(0, 2)])
    assert partition_coefficient(worked) == 600
    assert cf_original_coefficient(worked) == 1200
    assert cf_notation(worked).q == 2
    for n in range(1, 11):
        for term in build_formula(n).terms:
            partition = term.partition
            assert cf_original_coefficient(partition) == (
                cf_notation(partition).q * abs(term.coefficient)
            )
    report("criterion 4: PASS - 600 vs 1200 (q=2); cf = q * weight for all n <= 10")


def test_criterion_5_count_overshoot():
    assert cf_term_count(2) == 2
    assert term_count_enum(2) == 3
    report("criterion 5: PASS - published count gives 2 at order 2, actual is 3")


def test_criterion_6_numeric_consistency():
    log_curve = parse_expression("x-exp(y)")
    for n in range(1, 7):
        table = derivative_table(log_curve, 1.0, 0.0, n)
        expected = (-1) ** (n - 1) * math.factorial(n - 1)
        value = evaluate_formula(n, table)
        assert abs(value - expected) <= 1e-9 * abs(expected), f"n={n}"

    circle = parse_expression("x^2+y^2-1")
    circle_table = derivative_table(circle, 0.0, 1.0, 4)
    assert abs(evaluate_formula(2, circle_table) - (-1.0)) <= 1e-9
    assert abs(evaluate_formula(4, circle_table) - (-3.0)) <= 1e-9

    for curve, x0, y0 in [(circle, 0.0, 1.0), (log_curve, 1.0, 0.0)]:
        for n in (1, 2, 3):
            value = evaluate_formula(n, derivative_table(curve, x0, y0, n))
            fd = finite_difference_check(curve, x0, y0, n)
            assert abs(value - fd) <= 1e-4, (curve, n, value, fd)
    report(
        "criterion 6: PASS - log-curve derivatives to 1e-9, circle values exact, "
        "finite differences within 1e-4"
    )


def test_criterion_7_induction_step():
    for n in range(2, 7):
        advanced = total_derivative(formula_to_expr(weighted_formula_heads(n - 1)))
        assert advanced == formula_to_expr(weighted_formula_heads(n)), f"n={n}"
    report("criterion 7: PASS - total-derivative step advances orders 1..5 to 2..6")


def test_criterion_8_structural_suites():
    # integer weights over every formula partition up to order 12, and the
    # part-count bound 2n - 1 attained at each order
    for n in range(1, 13):
        batch = formula_partitions(n)
        for p in batch:
            assert isinstance(partition_coefficient(p), int)
        assert max(p.size for p in batch) == 2 * n - 1

    # the exhaustive move/removal lemma sweep over all partitions with
    # total weight <= 10, including the exact weight-ratio identities
    import test_lemma

    test_lemma.test_part_counts_and_sums()
    test_lemma.test_formula_shape_transfers()
    test_lemma.test_unit_y_part_membership_transfer()
    test_lemma.test_weight_ratios()

    # chain-rule coefficient sums against an independent set-partition count
    for n in range(1, 10):
        total = sum(c for _, c in faa_di_bruno_expansion(n).terms())
        assert total == bell_number(n), f"n={n}"

    report(
        "criterion 8: PASS - integral weights and size bound (n <= 12), "
        "lemma and ratio identities (weight <= 10), chain-rule sums are "
        "Bell numbers (n <= 9)"
    )
