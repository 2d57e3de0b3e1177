import json
from math import factorial

import pytest

from implicit_deriv import (
    DerivativeFormula,
    FormulaTerm,
    Partition2D,
    build_formula,
    cf_notation,
    cf_original_coefficient,
    formula_from_json,
    formula_partitions,
    partition_coefficient,
    render,
    required_derivatives,
    term_count_gf,
)

from oracles import json_dumps_render, required_derivatives_by_walk

WORKED = Partition2D([(1, 1)] * 3 + [(1, 0)] * 2 + [(0, 2)])


class TestBuildFormula:
    def test_order_one_is_ratio_of_first_partials(self):
        f = build_formula(1)
        assert f.n == 1
        assert len(f.terms) == 1
        term = f.terms[0]
        assert term.partition == Partition2D([(1, 0)])
        assert term.coefficient == -1
        assert term.fy_exponent == 1

    def test_order_two_matches_known_expansion(self):
        f = build_formula(2)
        got = [(t.partition.parts, t.coefficient, t.fy_exponent) for t in f.terms]
        assert got == [
            (((2, 0),), -1, 1),
            (((1, 1), (1, 0)), 2, 2),
            (((1, 0), (1, 0), (0, 2)), -1, 3),
        ]

    def test_order_five_worked_coefficient(self):
        term = build_formula(5).term_for(WORKED)
        assert term.coefficient == 600  # sign (+1)^6 folded in
        assert term.fy_exponent == 6

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_term_per_partition(self, n):
        f = build_formula(n)
        partitions = [t.partition for t in f.terms]
        assert partitions == formula_partitions(n)
        assert len(set(partitions)) == len(partitions)
        for t in f.terms:
            assert t.fy_exponent == t.partition.size
            assert abs(t.coefficient) == partition_coefficient(t.partition)
            assert (t.coefficient < 0) == (t.partition.size % 2 == 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_term_count_matches_generating_function(self, n):
        assert len(build_formula(n).terms) == term_count_gf(n)

    def test_term_count_at_order_sixteen(self):
        # the largest order the enumeration invariants are pinned at
        assert len(build_formula(16).terms) == term_count_gf(16) == 168883

    def test_term_validation(self):
        with pytest.raises(ValueError):
            FormulaTerm(Partition2D([(1, 0)]), coefficient=1, fy_exponent=1)
        with pytest.raises(ValueError):
            FormulaTerm(Partition2D([(1, 0)]), coefficient=-1, fy_exponent=2)
        with pytest.raises(ValueError):
            FormulaTerm(Partition2D([(0, 2)]), coefficient=-1, fy_exponent=1)


class TestRequiredDerivatives:
    def test_order_one(self):
        assert required_derivatives(1) == {(1, 0), (0, 1)}

    def test_order_two(self):
        assert required_derivatives(2) == {(2, 0), (1, 1), (1, 0), (0, 2), (0, 1)}

    def test_order_three_extends_order_two(self):
        three = required_derivatives(3)
        assert required_derivatives(2) <= three
        assert (3, 0) in three

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_matches_partition_walk(self, n):
        assert required_derivatives(n) == required_derivatives_by_walk(n)


class TestCfNotation:
    def test_worked_example(self):
        notation = cf_notation(WORKED)
        assert notation.row_sums == {0: 1, 1: 5}
        assert notation.col_sums == {0: 2, 1: 3, 2: 1}
        assert notation.s == 1
        assert notation.q == 2

    def test_single_part(self):
        notation = cf_notation(Partition2D([(1, 0)]))
        assert notation.row_sums == {1: 1}
        assert notation.col_sums == {0: 1}
        assert notation.s == 0
        assert notation.q == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_q_s_c1_sum_to_part_count(self, n):
        for p in formula_partitions(n):
            notation = cf_notation(p)
            assert notation.q + notation.s + notation.col_sums.get(1, 0) == p.size


class TestCfOriginalCoefficient:
    def test_worked_example_overshoots_by_two(self):
        assert partition_coefficient(WORKED) == 600
        assert cf_original_coefficient(WORKED) == 1200

    def test_order_one_agrees(self):
        assert cf_original_coefficient(Partition2D([(1, 0)])) == 1

    def test_hand_checked_overshoot_at_order_two(self):
        p = Partition2D([(1, 0), (1, 0), (0, 2)])
        assert cf_notation(p).q == 2
        assert cf_original_coefficient(p) == 2
        assert partition_coefficient(p) == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_q_times_weight(self, n):
        for p in formula_partitions(n):
            q = cf_notation(p).q
            assert q >= 1
            assert cf_original_coefficient(p) == q * partition_coefficient(p)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rising_factorial_forms(self, n):
        # the published coefficient's factorial block q! <q>_s <q+s>_c1 is
        # q * (m-1)!, and with (q-1)! in front it is exactly (m-1)!
        for p in formula_partitions(n):
            notation = cf_notation(p)
            q, s, c1 = notation.q, notation.s, notation.col_sums.get(1, 0)
            rising = lambda base, count: (
                factorial(base + count - 1) // factorial(base - 1)
            )
            block = factorial(q) * rising(q, s) * rising(q + s, c1)
            assert block == q * factorial(p.size - 1)
            assert factorial(q - 1) * rising(q, s) * rising(q + s, c1) == factorial(
                p.size - 1
            )


class TestRender:
    def test_latex_order_one(self):
        assert render(build_formula(1), "latex") == "-\\frac{F_{x}}{F_{y}}"

    def test_text_order_two(self):
        assert render(build_formula(2), "text") == (
            "-Fxx/Fy + 2*Fx*Fxy/Fy^2 - Fx^2*Fyy/Fy^3"
        )

    def test_text_order_one(self):
        assert render(build_formula(1), "text") == "-Fx/Fy"

    def test_json_order_two(self):
        payload = json.loads(render(build_formula(2), "json"))
        assert payload["schema"] == "implicit-deriv/1"
        assert payload["n"] == 2
        assert payload["term_count"] == 3
        assert [t["coefficient"] for t in payload["terms"]] == ["-1", "2", "-1"]
        assert payload["terms"][1]["partition"] == [[1, 1], [1, 0]]
        assert [t["fy_exponent"] for t in payload["terms"]] == [1, 2, 3]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(build_formula(1), "html")

    @pytest.mark.parametrize("n", range(1, 13))
    def test_json_matches_json_dumps_oracle(self, n):
        f = build_formula(n)
        assert render(f, "json") == json_dumps_render(f)

    def test_json_of_empty_formula_matches_json_dumps_oracle(self):
        f = DerivativeFormula(n=3, terms=())
        assert render(f, "json") == json_dumps_render(f)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_json_round_trip(self, n):
        f = build_formula(n)
        assert formula_from_json(render(f, "json")) == f

    def test_rejects_wrong_schema(self):
        payload = json.loads(render(build_formula(1), "json"))
        payload["schema"] = "implicit-deriv/999"
        with pytest.raises(ValueError):
            formula_from_json(json.dumps(payload))

    def test_rejects_term_of_wrong_order(self):
        payload = json.loads(render(build_formula(2), "json"))
        payload["terms"][0]["partition"] = [[3, 0]]
        with pytest.raises(ValueError, match="order"):
            formula_from_json(json.dumps(payload))

    def test_rejects_wrong_coefficient(self):
        payload = json.loads(render(build_formula(2), "json"))
        payload["terms"][0]["coefficient"] = "-7"
        with pytest.raises(ValueError, match="coefficient"):
            formula_from_json(json.dumps(payload))

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_deterministic(self, fmt):
        assert render(build_formula(4), fmt) == render(build_formula(4), fmt)
