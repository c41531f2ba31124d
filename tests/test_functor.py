"""Booleanization, truth-table algebra, and exact DNF minimisation.

The minimiser is checked against an independent brute-force oracle:
implicants are enumerated as explicit vertex sets, maximal ones kept,
and minimum covers found by subset search in increasing cardinality.
The two implementations share no code or representation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohexp import (
    CapacityError,
    Compose,
    Const,
    Coord,
    DnfFormula,
    LiftedProjection,
    Parallel,
    Projection,
    TConorm,
    TNorm,
    TruthTable,
    ValidationError,
    all_vertices,
    bool_compose,
    booleanize,
    default_var_names,
    identity,
    identity_table,
    table_to_dnf,
    vertex_index,
    verify_functor_law,
)
from cohexp.core import fiber_codes
from cohexp.functor import _prime_cubes
from conftest import jump_low, step_at

D = Projection.threshold(0.5)


def table(*column):
    n = (len(column) - 1).bit_length()
    return TruthTable(n, 1, np.asarray(column, dtype=np.uint8).reshape(-1, 1))


# ---------------------------------------------------------------------------
# independent minimal-cover oracle
# ---------------------------------------------------------------------------


def _cube_vertices(spec, n):
    return frozenset(
        v
        for v in range(2**n)
        if all(s is None or ((v >> (n - 1 - i)) & 1) == s for i, s in enumerate(spec))
    )


def brute_primes(column, n):
    """Maximal implicants as ``{vertex set: literal count}``."""
    ons = frozenset(i for i, v in enumerate(column) if v)
    implicants = {}
    for spec in itertools.product((0, 1, None), repeat=n):
        covered = _cube_vertices(spec, n)
        if covered and covered <= ons:
            cost = sum(1 for s in spec if s is not None)
            if covered not in implicants or cost < implicants[covered]:
                implicants[covered] = cost
    return {
        cells: cost
        for cells, cost in implicants.items()
        if not any(cells < other for other in implicants)
    }


def brute_minimum_cover(column, n):
    """(min number of terms, min total literals among such covers)."""
    ons = frozenset(i for i, v in enumerate(column) if v)
    if not ons:
        return 0, 0
    # only maximal implicants can appear in some minimum cover
    primes = list(brute_primes(column, n).items())
    for k in range(1, len(ons) + 1):
        best_literals = None
        for combo in itertools.combinations(primes, k):
            union = frozenset().union(*(c for c, _ in combo))
            if union == ons:
                literals = sum(cost for _, cost in combo)
                if best_literals is None or literals < best_literals:
                    best_literals = literals
        if best_literals is not None:
            return k, best_literals
    raise AssertionError("unreachable: minterms always cover")


# ---------------------------------------------------------------------------
# booleanize
# ---------------------------------------------------------------------------


class TestBooleanize:
    def test_bounded_sum_connectives(self, luk_or, luk_and):
        assert booleanize(luk_or, D) == table(0, 1, 1, 1)
        assert booleanize(luk_and, D) == table(0, 0, 0, 1)

    def test_vertex_values_are_projected(self):
        f = step_at(0.5, low=0.4, high=1.0)
        assert booleanize(f, D) == table(0, 1)

    def test_multi_output(self, luk_or, luk_and):
        f = Compose(Parallel((luk_or, luk_and)), Coord((0, 1, 0, 1), 2))
        t = booleanize(f, D)
        assert t.rows.tolist() == [[0, 0], [1, 0], [1, 0], [1, 1]]

    def test_identity_law(self):
        for n in range(1, 9):
            assert booleanize(identity(n), D) == identity_table(n)

    def test_needs_boolean_projection(self, luk_or):
        with pytest.raises(ValidationError):
            booleanize(luk_or, Projection.quantize(3))

    @pytest.mark.parametrize("f", [
        TConorm("lukasiewicz"),
        TNorm("product"),
        Compose(TConorm("prob_sum"), Parallel((TNorm("min"), TNorm("lukasiewicz")))),
        Const((0.3, 0.7, 0.51), in_arity=3),
        step_at(0.5, low=0.4, high=1.0),
    ], ids=["luk-or", "product", "nested", "const", "step"])
    def test_two_quantize_levels_booleanize_as_the_threshold(self, f):
        """Both have image {0, 1}, and they differ only at 0.5 itself,
        which two quantize levels round down: no output here is 0.5 at a
        vertex."""
        assert not (f.eval_batch(all_vertices(f.in_arity)) == 0.5).any()
        assert booleanize(f, Projection.quantize(2)) == booleanize(f, D)

    def test_two_quantize_levels_round_a_half_down(self):
        half = Const((0.5,), in_arity=1)
        assert booleanize(half, Projection.quantize(2)) == table(0, 0)
        assert booleanize(half, D) == table(1, 1)

    def test_zero_arity(self):
        t = booleanize(Const((0.7,), in_arity=0), D)
        assert t.n_inputs == 0 and t.rows.tolist() == [[1]]


class TestBoolCompose:
    def test_matches_pointwise_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            inner = TruthTable(2, 2, rng.integers(0, 2, (4, 2)))
            outer = TruthTable(2, 1, rng.integers(0, 2, (4, 1)))
            composed = bool_compose(outer, inner)
            for bits in itertools.product((0, 1), repeat=2):
                assert composed.row(bits) == outer.row(inner.row(bits))

    def test_identity_is_neutral(self):
        rng = np.random.default_rng(9)
        t = TruthTable(3, 3, rng.integers(0, 2, (8, 3)))
        assert bool_compose(t, identity_table(3)) == t
        assert bool_compose(identity_table(3), t) == t

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError):
            bool_compose(identity_table(2), identity_table(3))

    @pytest.mark.parametrize("bits", [1, 3, 8])
    def test_rows_are_read_by_their_fiber_codes(self, bits):
        """An inner row picks the outer row its bits spell, as the 0.5
        threshold's fiber codes and ``vertex_index`` read it."""
        rng = np.random.default_rng(bits)
        inner = TruthTable(4, bits, rng.integers(0, 2, (16, bits)))
        outer = TruthTable(bits, 2, rng.integers(0, 2, (2**bits, 2)))
        codes = fiber_codes(D, inner.rows)
        assert np.array_equal(bool_compose(outer, inner).rows, outer.rows[codes])
        assert [vertex_index(row) for row in inner.rows.tolist()] == codes.tolist()


class TestFunctorLaw:
    def test_holds_for_projection_composed_pair(self, luk_or):
        f = Compose(luk_or, LiftedProjection(D, 2))
        g = Compose(step_at(0.5, 0.1, 0.9), LiftedProjection(D, 1))
        report = verify_functor_law(f, g, D)
        assert report.holds and report.verdict == "holds"
        assert report.witness is None

    def test_violation_reports_first_vertex(self, functor_law_violating_pair):
        f, g = functor_law_violating_pair
        report = verify_functor_law(f, g, D)
        assert not report.holds and report.verdict == "violated"
        assert report.witness == (0,)
        assert report.composite_row == (1,)
        assert report.factored_row == (0,)

    def test_law_document(self, functor_law_violating_pair):
        f, g = functor_law_violating_pair
        doc = verify_functor_law(f, g, D).to_dict()
        assert doc["verdict"] == "violated"
        assert doc["witness"] == [0]
        assert doc["composite_row"] == [1]
        assert doc["factored_row"] == [0]


# ---------------------------------------------------------------------------
# DNF formulas
# ---------------------------------------------------------------------------


class TestDnfFormula:
    def test_canonical_term_order(self):
        a = DnfFormula(2, (((  (0, False), (1, True)), ((1, False),)),))
        b = DnfFormula(2, ((((1, False),), ((1, True), (0, False))),))
        assert a == b
        assert a.outputs[0] == (((1, False),), ((0, False), (1, True)))

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValidationError):
            DnfFormula(2, ((((0, False), (0, True)),),))

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValidationError):
            DnfFormula(1, ((((1, False),),),))

    @pytest.mark.parametrize(
        "literal, match",
        [((0.9, "no"), "variables"), ((1.0, False), "variables"), (("1", False), "variables"),
         ((True, False), "variables"), ((np.bool_(True), False), "variables"),
         ((1, "no"), "signs"), ((1, 0), "signs"), ((1, None), "signs")],
    )
    def test_literal_is_checked_not_converted(self, literal, match):
        """A literal's variable must be an integer and its sign a bool;
        nothing is truncated or coerced into one."""
        with pytest.raises(ValidationError, match=match):
            DnfFormula(2, ((((0, False), literal),),))

    @pytest.mark.parametrize(
        "n_vars", [2.5, True, "2", -1], ids=["float", "bool", "str", "negative"]
    )
    def test_n_vars_is_checked_not_converted(self, n_vars):
        with pytest.raises(ValidationError, match="n_vars must be an integer >= 0"):
            DnfFormula(n_vars, (((),),)).to_table()

    def test_numpy_literals_become_python_scalars(self):
        f = DnfFormula(2, ((((np.int64(1), np.bool_(True)),),),))
        assert f.outputs == ((((1, True),),),)
        assert type(f.outputs[0][0][0][0]) is int and type(f.outputs[0][0][0][1]) is bool

    def test_true_false_rendering(self):
        assert DnfFormula(2, (((),),)).render() == "TRUE"
        assert DnfFormula(2, ((),)).render() == "FALSE"

    def test_render_oracles(self):
        f = DnfFormula(2, ((((0, False),), ((1, False),)),))
        assert f.render() == "x ∨ y"
        assert f.render(ascii_ops=True) == "x | y"
        xor = DnfFormula(2, ((((0, False), (1, True)), ((0, True), (1, False))),))
        assert xor.render() == "(x ∧ ¬y) ∨ (¬x ∧ y)"
        assert xor.render(ascii_ops=True) == "(x & !y) | (!x & y)"

    def test_single_term_needs_no_parens(self):
        f = DnfFormula(2, ((((0, False), (1, False)),),))
        assert f.render() == "x ∧ y"

    def test_custom_names(self):
        f = DnfFormula(2, ((((0, False), (1, True)),),), var_names=("hot", "wet"))
        assert f.render() == "hot ∧ ¬wet"
        with pytest.raises(ValidationError):
            DnfFormula(2, ((),), var_names=("only",))

    def test_default_names(self):
        assert default_var_names(5) == ("x", "y", "z", "x4", "x5")

    def test_evaluate(self):
        xor = DnfFormula(2, ((((0, False), (1, True)), ((0, True), (1, False))),))
        assert [xor.evaluate(b)[0] for b in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 1, 0]

    def test_evaluate_batch_validates(self):
        f = DnfFormula(2, ((((0, False),),),))
        with pytest.raises(ValidationError):
            f.evaluate_batch(np.array([[0.5, 1.0]]))


# ---------------------------------------------------------------------------
# table_to_dnf
# ---------------------------------------------------------------------------


class TestTableToDnf:
    def test_classic_tables(self):
        assert table_to_dnf(table(0, 1, 1, 1)).render() == "x ∨ y"
        assert table_to_dnf(table(0, 0, 0, 1)).render() == "x ∧ y"
        assert table_to_dnf(table(0, 1, 1, 0)).render() == "(x ∧ ¬y) ∨ (¬x ∧ y)"
        assert table_to_dnf(table(1, 1, 1, 1)).render() == "TRUE"
        assert table_to_dnf(table(0, 0, 0, 0)).render() == "FALSE"

    def test_majority_of_three(self):
        column = [1 if bin(v).count("1") >= 2 else 0 for v in range(8)]
        f = table_to_dnf(table(*column))
        assert f.render() == "(x ∧ y) ∨ (x ∧ z) ∨ (y ∧ z)"

    def test_minterm_mode_lists_true_rows(self):
        f = table_to_dnf(table(0, 1, 1, 1), simplify=False)
        assert len(f.outputs[0]) == 3
        assert all(len(term) == 2 for term in f.outputs[0])
        assert f.to_table() == table(0, 1, 1, 1)

    def test_round_trip_on_random_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            t = TruthTable(n, 1, rng.integers(0, 2, (2**n, 1)))
            for simplify in (True, False):
                assert table_to_dnf(t, simplify=simplify).to_table() == t

    def test_simplified_never_larger_than_minterms(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            t = TruthTable(n, 1, rng.integers(0, 2, (2**n, 1)))
            small = len(table_to_dnf(t, simplify=True).outputs[0])
            full = len(table_to_dnf(t, simplify=False).outputs[0])
            assert small <= full

    def test_matches_brute_force_minimum(self):
        rng = np.random.default_rng(31)
        cases = [(3, 40), (4, 12)]
        for n, repeats in cases:
            for _ in range(repeats):
                t = TruthTable(n, 1, rng.integers(0, 2, (2**n, 1)))
                got = table_to_dnf(t).outputs[0]
                want_terms, want_literals = brute_minimum_cover(t.column(0), n)
                assert len(got) == want_terms
                assert sum(len(term) for term in got) == want_literals

    def test_prime_cubes_match_the_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            column = (rng.random(2**n) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            value, mask = _prime_cubes(column.astype(bool), n)
            cubes = list(zip(value.tolist(), mask.tolist()))
            assert cubes == sorted(cubes, key=lambda c: (c[1], c[0]))
            got = {
                frozenset(v for v in range(2**n) if v & ~m == val): n - bin(m).count("1")
                for val, m in cubes
            }
            assert len(got) == len(cubes)
            assert got == brute_primes(column, n)

    def test_tie_break_between_minimum_covers(self):
        """Several covers share the least term and literal counts here;
        the canonically least cube list wins.  In the first table the
        top-level dominance pass already decides the tie."""
        column = np.isin(np.arange(8), (0, 2, 3, 4, 5)).astype(np.uint8)
        assert table_to_dnf(table(*column)).render() == "(x ∧ ¬y) ∨ (¬x ∧ y) ∨ (¬x ∧ ¬z)"
        column = np.isin(np.arange(8), (0, 1, 2, 5, 6, 7)).astype(np.uint8)
        assert table_to_dnf(table(*column)).render() == "(x ∧ z) ∨ (¬x ∧ ¬y) ∨ (y ∧ ¬z)"
        column = np.isin(np.arange(16), (1, 3, 4, 7, 8, 9, 10, 13, 14, 15)).astype(np.uint8)
        assert table_to_dnf(table(*column)).render() == (
            "(x ∧ ¬y ∧ ¬x4) ∨ (x ∧ z ∧ ¬x4) ∨ (x ∧ ¬z ∧ x4) ∨ (¬x ∧ ¬y ∧ x4) ∨ "
            "(y ∧ z ∧ x4) ∨ (¬x ∧ y ∧ ¬z ∧ ¬x4)"
        )

    def test_multi_output_handled_per_column(self):
        t = TruthTable(2, 2, [[0, 1], [1, 1], [1, 1], [1, 1]])
        f = table_to_dnf(t)
        assert f.render(0) == "x ∨ y"
        assert f.render(1) == "TRUE"
        # an output index outside [0, n_outputs) is refused, not wrapped
        for output in (2, -1):
            for read in (f.render, f.term_sets):
                with pytest.raises(ValidationError, match=r"output index must be an integer in \[0, 2\)"):
                    read(output)

    def test_simplify_capacity_cap(self):
        t = TruthTable(13, 1, np.zeros((2**13, 1), dtype=np.uint8))
        with pytest.raises(CapacityError):
            table_to_dnf(t, simplify=True)
        assert table_to_dnf(t, simplify=False).render() == "FALSE"

    def test_var_names_flow_through(self):
        f = table_to_dnf(table(0, 1, 1, 1), var_names=("a", "b"))
        assert f.render() == "a ∨ b"


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_simplification_preserves_semantics(n, seed):
    rng = np.random.default_rng(seed)
    t = TruthTable(n, 1, rng.integers(0, 2, (2**n, 1)))
    f = table_to_dnf(t, simplify=True)
    assert np.array_equal(f.evaluate_batch(all_vertices(n))[:, 0], t.column(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_formula_round_trips_through_table(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    t = TruthTable(n, 1, rng.integers(0, 2, (2**n, 1)))
    f = table_to_dnf(t)
    again = table_to_dnf(f.to_table())
    assert f == again


def test_functor_law_uses_raw_intermediate_values():
    """The composite side evaluates g at f's raw outputs, the factored
    side at projected ones; only incoherence of g can tell them apart."""
    f = jump_low(after=0.6)  # vertex 1 maps to raw 0.6
    g = step_at(0.7, low=0.0, high=1.0)  # projects 0.6 differently from 1.0
    report = verify_functor_law(f, g, D)
    assert not report.holds
    assert report.witness == (1,)
