import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from types import MappingProxyType

import pytest

from implicit_deriv import (
    Partition2D,
    brute_force_expansion,
    build_formula,
    cf_notation,
    cf_original_coefficient,
    compare_with_formula,
    formula_to_expr,
    oracle,
    partition_coefficient,
    partitions_1d,
    term_count_gf,
    total_derivative,
    weighted_formula_heads,
)

import implicit_deriv.formula
import implicit_deriv.partitions
from implicit_deriv.formula import cf_original_groups
from implicit_deriv.oracle import MAX_VERIFY_ORDER, decode_monomial, encode_monomial

from oracles import (
    SymbolicExpr,
    bell_number,
    cf_original_by_notation,
    classical_partition_count,
    faa_di_bruno_expansion,
    held_groups,
    keyed,
    monomial,
    symbolic_expansions,
    symbolic_total_derivative,
)

FX = (1, 0)
FY = (0, 1)


def key(*parts):
    """The kernel's key of the monomial of `parts`, in ascending order."""
    return encode_monomial(parts)


MISMATCH_REPORT_JSON = (
    '{"n": 4, "status": "mismatch", "missing": [{"partition": [[3, 0], [1, '
    '0], [0, 2]], "coefficient": "-4"}, {"partition": [[2, 1], [1, 1], [1, '
    '0]], "coefficient": "-24"}, {"partition": [[2, 2], [1, 0], [1, 0]], '
    '"coefficient": "-6"}, {"partition": [[2, 0], [1, 1], [1, 1]], '
    '"coefficient": "-12"}], "extra": [{"partition": [[1, 1], [1, 1], [1, '
    '0]], "coefficient": "-6"}, {"partition": [[1, 2], [1, 0], [1, 0]], '
    '"coefficient": "-3"}, {"partition": [[3, 0]], "coefficient": "-1"}], '
    '"coefficient_mismatches": [{"partition": [[1, 1], [1, 1], [1, 1], [1, '
    '0]], "expected": "24", "found": "48"}, {"partition": [[1, 2], [1, 1], '
    '[1, 0], [1, 0]], "expected": "36", "found": "72"}, {"partition": [[1, '
    '3], [1, 0], [1, 0], [1, 0]], "expected": "4", "found": "8"}, '
    '{"partition": [[4, 0]], "expected": "-1", "found": "-3"}]}'
)


class TestSymbolicExpr:
    def test_like_terms_merge(self):
        e = SymbolicExpr.from_terms([(1, {FX: 1}), (2, {FX: 1})])
        assert e == monomial(3, {FX: 1})

    def test_zero_coefficients_vanish(self):
        e = SymbolicExpr.from_terms([(1, {FX: 1}), (-1, {FX: 1})])
        assert not e
        assert len(e) == 0

    def test_product_adds_exponents(self):
        a = monomial(2, {FX: 1, FY: -1})
        b = monomial(Fraction(1, 2), {FY: -2})
        assert a * b == monomial(1, {FX: 1, FY: -3})

    def test_scalar_multiplication(self):
        assert monomial(1, {FX: 2}) * 3 == monomial(3, {FX: 2})

    def test_zero_exponents_dropped(self):
        assert monomial(5, {FX: 0}) == monomial(5, {})


class TestMonomialCodes:
    PARTS = [
        (i, j) for i in range(MAX_VERIFY_ORDER + 1) for j in range(MAX_VERIFY_ORDER + 1 - i)
        if (i, j) not in ((0, 0), FY)
    ]

    def test_one_code_per_part_below_the_top_degree_and_at_most_256(self):
        assert len(oracle._PARTS) == len(self.PARTS) == 151 <= 256
        assert [decode_monomial(key(part)) for part in self.PARTS] == [
            (part,) for part in self.PARTS
        ]

    def test_byte_order_is_part_order(self):
        for a in self.PARTS:
            for b in self.PARTS:
                assert (key(a) < key(b)) == (a < b)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_keys_round_trip(self, n):
        for k in brute_force_expansion(n):
            parts = decode_monomial(k)
            assert list(parts) == sorted(parts)
            assert encode_monomial(parts) == k

    def test_raise_tables(self):
        for code, (i, j) in enumerate(self.PARTS):
            for table, raised in ((oracle._RAISE_X, (i + 1, j)), (oracle._RAISE_Y, (i, j + 1))):
                if i + j == MAX_VERIFY_ORDER:
                    assert table[code] is None
                else:
                    assert decode_monomial(bytes([table[code]])) == (raised,)

    def test_a_table_past_one_byte_is_refused(self):
        assert len(oracle._part_codes(21)[0]) == 251
        with pytest.raises(ValueError, match="274 parts"):
            oracle._part_codes(22)

    @pytest.mark.parametrize(
        "part",
        [(0, 0), FY, (-1, 3), (2, -1), (MAX_VERIFY_ORDER + 1, 0), (1, MAX_VERIFY_ORDER), (1.0, 0)],
    )
    def test_an_uncoded_part_is_named(self, part):
        named = re.escape(f"part {part} has no code")
        with pytest.raises(ValueError, match=named):
            encode_monomial([FX, part])
        with pytest.raises(ValueError, match=named):
            formula_to_expr([(((2, 0),), (((part,), 1),))])
        with pytest.raises(ValueError, match=named):
            formula_to_expr(held_groups([((part, FX), 1)]))

    @pytest.mark.parametrize(
        "part", [(MAX_VERIFY_ORDER, 0), (3, MAX_VERIFY_ORDER - 3), (0, MAX_VERIFY_ORDER)]
    )
    def test_a_step_past_the_top_degree_is_refused(self, part):
        with pytest.raises(ValueError, match=re.escape(f"part {part} has degree")):
            total_derivative({key(FX, part): 1})


class TestTotalDerivative:
    def test_constant_kills(self):
        # the constant 1 is F_y^0 times no parts
        assert total_derivative({key(): 1}) == {}

    def test_second_derivative_matches_known_expansion(self):
        assert total_derivative({key(FX): -1}) == {
            key((2, 0)): -1,
            key(FX, (1, 1)): 2,
            key((0, 2), FX, FX): -1,
        }

    def test_cancelling_monomials_are_dropped(self):
        # F_xx / F_y + F_x F_xy / F_y^2: F_x F_21 / F_y^2 and F_xy F_xx / F_y^2
        # come once from each input monomial, with opposite signs
        expr = {key((2, 0)): 1, key(FX, (1, 1)): 1}
        result = total_derivative(expr)
        assert key(FX, (2, 1)) not in result
        assert key((1, 1), (2, 0)) not in result
        assert 0 not in result.values()
        generic = monomial(1, {(2, 0): 1, FY: -1}) + monomial(1, {FX: 1, (1, 1): 1, FY: -2})
        assert result == keyed(symbolic_total_derivative(generic))

    def test_input_is_not_modified(self):
        expr = {key(FX): -1}
        total_derivative(expr)
        assert expr == {key(FX): -1}


def first_disagreement(kernel, max_n: int = 10):
    """The first order in 1..max_n at which stepping `kernel` from order 1
    differs from the generic algebra in tests/oracles.py, or None."""
    expr = {key(FX): -1}
    for n, generic in enumerate(symbolic_expansions(max_n), start=1):
        if expr != keyed(generic):
            return n
        expr = kernel(expr)
    return None


def mutant_kernel(old: str = "", new: str = "", **tables):
    """`oracle.total_derivative` with one line of its source replaced, or
    reading the module's tables named in `tables` replaced."""
    source = textwrap.dedent(inspect.getsource(oracle.total_derivative))
    if old:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {**vars(oracle), **tables}
    exec(source, namespace)
    return namespace["total_derivative"]


def wrong_raise_in_y():
    """The raise-in-y table with (1, 1) raised to (1, 3), not (1, 2)."""
    table = list(oracle._RAISE_Y)
    (code,), (wrong,) = key((1, 1)), key((1, 3))
    table[code] = wrong
    return table


class TestKernelAgainstGenericAlgebra:
    def test_stepped_kernel_equals_generic_through_order_ten(self):
        assert first_disagreement(total_derivative) is None

    @pytest.mark.parametrize(
        "mutant",
        [
            lambda: mutant_kernel("scale = -size * c", "scale = -c"),
            lambda: mutant_kernel("multiplicity = end - start", "multiplicity = 1"),
            lambda: mutant_kernel(_RAISE_Y=wrong_raise_in_y()),
        ],
        ids=["fy-rule-drops-size", "multiplicity-forced-to-one", "wrong-raise-in-y"],
    )
    def test_mutant_kernel_is_caught(self, mutant):
        assert first_disagreement(mutant()) is not None


class TestBruteForceExpansion:
    def test_order_one(self):
        assert brute_force_expansion(1) == {key(FX): -1}

    def test_order_two_coefficients(self):
        e = brute_force_expansion(2)
        assert len(e) == 3
        assert sorted(e.values()) == [-1, -1, 2]

    def test_order_five_contains_worked_monomial(self):
        e = brute_force_expansion(5)
        assert e[key((0, 2), FX, FX, (1, 1), (1, 1), (1, 1))] == 600

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            brute_force_expansion(0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_coefficients_are_ints(self, n):
        assert all(type(c) is int for c in brute_force_expansion(n).values())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monomial_count_is_term_count(self, n):
        assert len(brute_force_expansion(n)) == term_count_gf(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monomial_shape(self, n):
        # every key codes the ascending parts of a formula partition of x-sum n
        for k in brute_force_expansion(n):
            parts = decode_monomial(k)
            assert parts == tuple(sorted(parts))
            p = Partition2D(parts)
            assert p.is_formula_partition() and p.x_sum == n

    def test_keeps_no_order_after_the_call(self):
        def holds_a_mapping(value):
            if isinstance(value, (tuple, list)):
                return any(map(holds_a_mapping, value))
            return isinstance(value, (dict, MappingProxyType))

        compare_with_formula(12)
        held = [
            name
            for name, value in vars(oracle).items()
            if not name.startswith("__") and holds_a_mapping(value)
        ]
        assert held == []

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        e = brute_force_expansion(3)
        before = dict(e)
        e[next(iter(e))] += 1
        e[key()] = 1
        assert brute_force_expansion(3) == before

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc"
    )
    def test_memory_is_given_back_after_the_call(self):
        # A cached order 14 keeps about 32 MB.  What stays without one is
        # the allocator's: heap and object arenas pinned by a few small
        # objects made during the call, 6-7 MB from Python 3.11 on and
        # about 14 MB on 3.10.
        script = (
            "import gc\n"
            "import implicit_deriv as idv\n"
            "def rss_kib():\n"
            "    return int(open('/proc/self/status').read().split('VmRSS:')[1].split()[0])\n"
            "gc.collect()\n"
            "before = rss_kib()\n"
            "status = idv.compare_with_formula(14).status\n"
            "gc.collect()\n"
            "print(status, rss_kib() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        status, kept_kib = done.stdout.split()
        assert status == "equal", done.stderr
        assert int(kept_kib) < (8 if sys.version_info >= (3, 11) else 16) * 1024


class TestBruteForceExpansions:
    def test_orders_match_one_order_and_the_generic_algebra(self):
        # stepping from order 1, as verify does, gives each order that
        # brute_force_expansion makes afresh
        generic = symbolic_expansions(10)
        stepped = brute_force_expansion(1)
        for n in range(1, 11):
            if n > 1:
                stepped = total_derivative(stepped)
            assert stepped == brute_force_expansion(n) == keyed(next(generic))


def cf_terms(n):
    """The order-n groups with each term's 1974 coefficient, streamed."""
    return (
        (head, [(tail, original) for tail, _, original, _ in terms])
        for head, terms in cf_original_groups(weighted_formula_heads(n))
    )


def cf_rows(n):
    """Each order-n term as (parts, corrected, 1974 coefficient, q)."""
    return [
        (head + tail, coefficient, original, q)
        for head, terms in cf_original_groups(weighted_formula_heads(n))
        for tail, coefficient, original, q in terms
    ]


class TestCfOriginalTerms:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_each_term_with_its_signed_1974_coefficient_and_q(self, n):
        groups = list(cf_original_groups(weighted_formula_heads(n)))
        assert [(head, [t[:2] for t in terms]) for head, terms in groups] == [
            (head, list(tails)) for head, tails in weighted_formula_heads(n)
        ]
        rows = cf_rows(n)
        assert [(parts, c) for parts, c, _, _ in rows] == [
            (t.partition.parts, t.coefficient) for t in build_formula(n).terms
        ]
        for parts, coefficient, original, q in rows:
            p = Partition2D(parts)
            assert original * coefficient > 0
            assert abs(original) == cf_original_coefficient(p)
            assert q == cf_notation(p).q

    @pytest.mark.parametrize("n", range(1, 11))
    def test_head_and_tail_shares_equal_the_whole_notation(self, n):
        # each signed 1974 coefficient and q, made from a head's shares
        # and its tail's, as the whole partition's row and column sums give
        # them
        for parts, coefficient, original, q in cf_rows(n):
            p = Partition2D(parts)
            sign = -1 if coefficient < 0 else 1
            assert (original, q) == (sign * cf_original_by_notation(p), cf_notation(p).q)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_exact_on_the_q_one_terms(self, n):
        # one q = 1 term for each partition of each k < n, and there the
        # 1974 coefficient is the corrected one
        exact = [(coefficient, original) for _, coefficient, original, q in cf_rows(n) if q == 1]
        assert len(exact) == sum(classical_partition_count(k) for k in range(n))
        assert all(original == coefficient for coefficient, original in exact)

    def test_reads_the_terms_lazily(self):
        groups = weighted_formula_heads(30)  # a(30) = 323,685,343
        assert next(cf_original_groups(groups)) == (((30, 0),), (((), -1, -1, 1),))

    @pytest.mark.parametrize("n", [6, 9])
    def test_runs_found_once_per_head_and_per_distinct_tail(self, monkeypatch, n):
        # no run of equal parts crosses from head to tail, so a term's
        # multiplicity table is its head's and its tail's, each found once;
        # neither 1974 evaluator finds a term's runs again
        groups = list(weighted_formula_heads(n))
        expected = []
        for head, tails in groups:
            for tail, coefficient in tails:
                p = Partition2D(head + tail)
                sign = -1 if coefficient < 0 else 1
                original = sign * cf_original_coefficient(p)
                expected.append((p.parts, coefficient, original, cf_notation(p).q))
        real = implicit_deriv.formula.part_runs
        seen = []

        def counted(parts):
            seen.append(parts)
            return real(parts)

        def refuse(parts):
            raise AssertionError(f"runs of {parts} found again")

        monkeypatch.setattr(implicit_deriv.formula, "part_runs", counted)
        monkeypatch.setattr(implicit_deriv.partitions, "part_runs", refuse)
        rows = [
            (head + tail, coefficient, original, q)
            for head, terms in cf_original_groups(groups)
            for tail, coefficient, original, q in terms
        ]
        assert rows == expected
        tails = {tail for _, tails in groups for tail, _ in tails}
        assert sorted(seen) == sorted([head for head, _ in groups] + list(tails))


def held_terms(n):
    """The order-n terms, held as (parts, coefficient) pairs."""
    return [(t.partition.parts, t.coefficient) for t in build_formula(n).terms]


class TestCompareWithFormula:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_at_small_orders(self, n):
        report = compare_with_formula(n)
        assert report.status == "equal"
        assert report.missing == ()
        assert report.extra == ()
        assert report.coefficient_mismatches == ()

    def test_reads_streamed_terms(self):
        assert compare_with_formula(7, weighted_formula_heads(7)).status == "equal"

    def test_cf_mode_flags_exactly_the_overshoot_at_order_two(self):
        report = compare_with_formula(2, cf_terms(2))
        assert report.status == "mismatch"
        assert report.missing == () and report.extra == ()
        assert len(report.coefficient_mismatches) == 1
        mismatch = report.coefficient_mismatches[0]
        assert mismatch.partition == Partition2D([(1, 0), (1, 0), (0, 2)])
        assert mismatch.found == 2 * mismatch.expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cf_mode_mismatches_are_the_q_factors(self, n):
        report = compare_with_formula(n, cf_terms(n))
        predicted = {
            p: cf_notation(p).q
            for p in (t.partition for t in build_formula(n).terms)
            if cf_notation(p).q > 1
        }
        assert {m.partition for m in report.coefficient_mismatches} == set(predicted)
        for m in report.coefficient_mismatches:
            assert m.found == predicted[m.partition] * m.expected

    def test_tampered_formula_is_reported(self):
        (parts, coefficient), *rest = held_terms(3)
        report = compare_with_formula(3, held_groups([(parts, coefficient * 3), *rest]))
        assert report.status == "mismatch"
        assert [m.partition for m in report.coefficient_mismatches] == [Partition2D(parts)]

    def test_missing_and_extra_terms_are_reported(self):
        terms = held_terms(2)
        report = compare_with_formula(2, held_groups(terms[:-1]))
        assert report.status == "mismatch"
        assert [p for p, _ in report.missing] == [Partition2D(terms[-1][0])]
        assert report.extra == ()

    def test_mismatch_report_is_pinned(self):
        # Terms dropped, coefficients scaled and order-3 terms added, each
        # kind with two partitions of one size that sort one way by parts
        # and the other by (partial, exponent) pairs.  The JSON is the one
        # the generic power-product algebra wrote, so the entries keep its
        # order.
        terms = held_terms(4)
        for index, factor in ((0, 3), (14, 2), (15, 2), (17, 2)):
            parts, coefficient = terms[index]
            terms[index] = parts, coefficient * factor
        for index in (10, 6, 4, 3):
            del terms[index]
        f3 = held_terms(3)
        terms += [f3[5], f3[4], f3[0]]
        report = compare_with_formula(4, held_groups(terms))
        assert json.dumps(report.to_json()) == MISMATCH_REPORT_JSON

    def test_report_json_shape(self):
        payload = compare_with_formula(2, cf_terms(2)).to_json()
        assert payload["n"] == 2
        assert payload["status"] == "mismatch"
        assert payload["missing"] == [] and payload["extra"] == []
        assert payload["coefficient_mismatches"] == [
            {"partition": [[1, 0], [1, 0], [0, 2]], "expected": "-1", "found": "-2"}
        ]


class TestInductionStep:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_total_derivative_advances_the_formula(self, n):
        previous = formula_to_expr(weighted_formula_heads(n - 1))
        assert total_derivative(previous) == formula_to_expr(weighted_formula_heads(n))


class TestFaaDiBruno:
    def test_order_one(self):
        assert faa_di_bruno_expansion(1) == monomial(1, {("z", 1): 1, ("y", 1): 1})

    def test_order_two(self):
        expected = SymbolicExpr.from_terms(
            [
                (1, {("z", 1): 1, ("y", 2): 1}),
                (1, {("z", 2): 1, ("y", 1): 2}),
            ]
        )
        assert faa_di_bruno_expansion(2) == expected

    def test_order_three(self):
        expected = SymbolicExpr.from_terms(
            [
                (1, {("z", 1): 1, ("y", 3): 1}),
                (3, {("z", 2): 1, ("y", 1): 1, ("y", 2): 1}),
                (1, {("z", 3): 1, ("y", 1): 3}),
            ]
        )
        assert faa_di_bruno_expansion(3) == expected

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_partition_sum(self, n):
        expected_terms = []
        for parts in partitions_1d(n):
            powers = {("z", len(parts)): 1}
            for k in parts:
                powers[("y", k)] = powers.get(("y", k), 0) + 1
            weight = partition_coefficient(Partition2D([(k, 0) for k in parts]))
            expected_terms.append((weight, powers))
        assert faa_di_bruno_expansion(n) == SymbolicExpr.from_terms(expected_terms)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_coefficients_sum_to_bell_number(self, n):
        total = sum(c for _, c in faa_di_bruno_expansion(n).terms())
        assert total == bell_number(n)
