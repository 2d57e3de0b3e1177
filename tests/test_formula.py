import json
import tracemalloc
from itertools import islice
from math import factorial

import pytest

from implicit_deriv import (
    DerivativeFormula,
    FormulaTerm,
    Partition2D,
    TermCountMismatch,
    build_formula,
    cf_notation,
    cf_original_coefficient,
    formula_partitions,
    partition_coefficient,
    render,
    render_chunks,
    required_derivatives,
    term_count_gf,
)
import implicit_deriv.formula
import implicit_deriv.partitions
from implicit_deriv.formula import RENDER_FORMATS
from implicit_deriv.partitions import formula_heads, weighted_formula_heads

from oracles import (
    assert_json_fields,
    json_dumps_render,
    label_render,
    required_derivatives_by_walk,
    walked_tail,
)

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
        (term,) = [t for t in build_formula(5).terms if t.partition == WORKED]
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
            FormulaTerm(Partition2D([(1, 0)]), coefficient=1)
        with pytest.raises(ValueError):
            FormulaTerm(Partition2D([(0, 2)]), coefficient=-1)

    def test_term_with_the_part_zero_one_is_rejected(self):
        # y-sum 1 = size - 1 and sign (+1)^2 hold; only (0, 1) is wrong
        with pytest.raises(ValueError, match="not a formula partition"):
            FormulaTerm(Partition2D([(1, 0), (0, 1)]), coefficient=1)

    def test_term_holds_only_partition_and_coefficient(self):
        # the F_y power is the part count, derived rather than stored
        term = FormulaTerm(WORKED, 600)
        assert repr(term) == (
            "FormulaTerm(partition=Partition2D([(1, 1), (1, 1), (1, 1), (1, 0), (1, 0), (0, 2)]), "
            "coefficient=600)"
        )
        assert term.fy_exponent == len(WORKED.parts) == 6
        with pytest.raises(AttributeError):
            term.fy_exponent = 5


def _terms(groups):
    """Each term of the groups as (canonical parts, coefficient)."""
    return [(head + tail, coefficient) for head, tails in groups for tail, coefficient in tails]


class TestFormulaTerms:
    # The terms as the weighted walk groups them by head: the one stream
    # every command reads, and the one build_formula holds.
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stream_equals_the_built_terms(self, n):
        built = [(t.partition.parts, t.coefficient) for t in build_formula(n).terms]
        assert _terms(weighted_formula_heads(n)) == built

    def test_every_streamed_term_is_checked(self, monkeypatch):
        # a wrong sign on the last of the a(5) = 61 terms, planted in the
        # head walk that the weighted stream reads, is caught as it is
        # weighed, after the 60 good ones; build_formula raises the same
        walked = list(formula_heads(5))
        head, head_denominator, (*good, (tail, tail_denominator, *shape)) = walked[-1]
        walked[-1] = head, head_denominator, (*good, (tail, -tail_denominator, *shape))
        monkeypatch.setattr(implicit_deriv.partitions, "formula_heads", lambda n: iter(walked))
        made = []
        with pytest.raises(ValueError, match="sign"):
            for group in weighted_formula_heads(5):
                made += _terms([group])
        assert len(made) == 60
        with pytest.raises(ValueError, match="sign"):
            build_formula(5)

    @pytest.mark.parametrize(
        "bad",
        [
            [(2, 1)],  # y-sum 1, not size - 1 = 0
            [(1, 0), (0, 1)],  # y-sum 1 = size - 1, but (0, 1) is a part
        ],
    )
    def test_a_walked_non_formula_partition_is_caught(self, monkeypatch, bad):
        # a head denominator of 2! * (size - 1)! gives each planted
        # partition weight 1, with the sign its part count asks for, so
        # only the formula-partition check can refuse it
        head = tuple(part for part in bad if part[0] >= 1)
        tail = tuple(part for part in bad if part[0] == 0)
        walked = list(formula_heads(2)) + [
            (head, 2 * factorial(len(bad) - 1), (walked_tail(tail, 1),))
        ]
        monkeypatch.setattr(implicit_deriv.partitions, "formula_heads", lambda n: iter(walked))
        made = []
        with pytest.raises(ValueError, match="not a formula partition"):
            for group in weighted_formula_heads(2):
                made += _terms([group])
        assert len(made) == 3


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
            assert notation.q == notation.col_sums.get(0, 0)


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

    def test_no_factorial_beyond_the_weights(self, monkeypatch):
        # the 1974 value is q times the weight: the weight's factorials are
        # its only ones, none per k up to the largest coordinate (3000
        # here), and formula has no factorial of its own
        p = Partition2D([(3000, 0), (1, 2), (1, 0)])
        calls = []

        def counted(k):
            calls.append(k)
            return factorial(k)

        def refuse(p):
            raise AssertionError(f"cf_notation({p}) called")

        monkeypatch.setattr(implicit_deriv.partitions, "factorial", counted)
        monkeypatch.setattr(implicit_deriv.formula, "cf_notation", refuse)
        weight = partition_coefficient(p)
        weighed = calls.copy()
        calls.clear()
        assert cf_original_coefficient(p) == 2 * weight
        assert calls == weighed
        assert not hasattr(implicit_deriv.formula, "factorial")

    @pytest.mark.parametrize(
        "parts",
        [[(0, 3)], [(0, 2)], [(1, 0), (0, 1)]],
        ids=["non-integral-before", "one-before", "holds-0-1"],
    )
    def test_rejects_a_non_formula_partition(self, parts):
        # as a FormulaTerm does
        p = Partition2D(parts)
        with pytest.raises(ValueError, match="is not a formula partition"):
            cf_original_coefficient(p)

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

    @pytest.mark.parametrize("fmt", RENDER_FORMATS)
    def test_held_formulas_match_the_label_oracle(self, fmt):
        # a held formula's terms go through the streaming renderer as heads
        # with the empty tail: the empty formula, and a hand-made one whose
        # terms are not a whole expansion and hold tail parts (0, j)
        empty = DerivativeFormula(n=3, terms=())
        hand_made = DerivativeFormula(n=5, terms=(
            FormulaTerm(WORKED, 600),
            FormulaTerm(Partition2D([(3, 1), (1, 0), (1, 0), (0, 2)]), 7),
            FormulaTerm(Partition2D([(5, 0)]), -1),
        ))
        for f in (empty, hand_made):
            assert render(f, fmt) == label_render(f, fmt)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_json_round_trip(self, n):
        # the document decodes to the formula's own fields, term by term
        f = build_formula(n)
        assert_json_fields(render(f, "json"), f)

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_deterministic(self, fmt):
        assert render(build_formula(4), fmt) == render(build_formula(4), fmt)


class TestRenderChunks:
    @pytest.mark.parametrize("fmt", RENDER_FORMATS)
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_streamed_chunks_join_to_render(self, n, fmt):
        f = build_formula(n)
        chunks = list(render_chunks(n, weighted_formula_heads(n), fmt, term_count_gf(n)))
        assert "".join(chunks) == render(f, fmt)
        # one chunk per term, and for JSON the header and the closing
        assert len(chunks) == len(f.terms) + (2 if fmt == "json" else 0)

    @pytest.mark.parametrize("fmt", RENDER_FORMATS)
    @pytest.mark.parametrize("n", range(1, 12))
    def test_streamed_chunks_equal_the_oracles(self, n, fmt):
        # each head's labels made once and merged with each tail's, against
        # every label worked out from scratch, and JSON against json.dumps
        f = build_formula(n)
        streamed = "".join(render_chunks(n, weighted_formula_heads(n), fmt, len(f.terms)))
        assert streamed == label_render(f, fmt)
        if fmt == "json":
            assert streamed == json_dumps_render(f)

    def test_unknown_format_rejected_before_any_chunk(self):
        with pytest.raises(ValueError):
            render_chunks(1, weighted_formula_heads(1), "html", 1)

    @pytest.mark.parametrize("count", [None, 61.0, "61", True], ids=repr)
    def test_json_non_int_count_rejected_before_any_chunk(self, count):
        # the header would read "term_count": None, which is not JSON
        def refuse():
            raise AssertionError("a group was read")
            yield

        with pytest.raises(TypeError, match="int term_count"):
            render_chunks(5, refuse(), "json", count)

    @pytest.mark.parametrize("header", [0, 60, 62])
    def test_json_count_mismatch_raises_before_the_closing(self, header):
        written = []
        with pytest.raises(
            TermCountMismatch, match=f"wrote 61 terms under a header term_count of {header}"
        ):
            for chunk in render_chunks(5, weighted_formula_heads(5), "json", header):
                written.append(chunk)
        assert len(written) == 1 + 61
        assert f'"term_count": {header}, ' in written[0]
        assert "]}" not in "".join(written)

    def test_json_header_comes_first(self):
        chunks = render_chunks(30, weighted_formula_heads(30), "json", term_count_gf(30))
        assert next(chunks) == (
            '{"schema": "implicit-deriv/1", "n": 30, "term_count": 323685343, "terms": ['
        )

    @pytest.mark.parametrize("fmt", RENDER_FORMATS)
    def test_memory_stays_flat(self, fmt):
        # The renderer keeps one fragment per factor, pair, F_y power and
        # distinct tail it has met, besides the walk's own frame stack and
        # tails: the first 50,000 chunks of order 30 peak at 60-75 KB in
        # every format, near 200 KB in the first traced run of a process,
        # which also counts tuples that later runs take from free lists.
        chunks = render_chunks(30, weighted_formula_heads(30), fmt, term_count_gf(30))
        tracemalloc.start()
        try:
            for _ in islice(chunks, 50_000):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
