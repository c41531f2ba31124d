"""Projections, expression evaluation, serialisation, truth tables."""

import importlib
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohexp
from cohexp import (
    Affine,
    CapacityError,
    Compose,
    Condition,
    Const,
    Coord,
    LiftedProjection,
    Parallel,
    Piece,
    Piecewise,
    Projection,
    SerializationError,
    TConorm,
    TNorm,
    TruthTable,
    ValidationError,
    all_vertices,
    from_dict,
    identity,
    to_dict,
    vertex_index,
)
from cohexp.core import T_CONORM_KINDS, T_NORM_KINDS, fiber_codes, fiber_digits

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


class TestProjection:
    def test_threshold_ties_map_up(self):
        d = Projection.threshold(0.5)
        assert d.apply_point((0.5,)) == (1.0,)
        assert d.apply_point((0.49999999,)) == (0.0,)
        assert d.apply_point((0.0, 1.0, 0.7)) == (0.0, 1.0, 1.0)

    def test_threshold_is_boolean(self):
        assert Projection.threshold(0.3).is_boolean
        assert Projection.threshold(0.3).level_values == (0.0, 1.0)
        assert not Projection.quantize(3).is_boolean
        # Boolean means an image of exactly {0, 1}, whatever the kind
        assert Projection.quantize(2).is_boolean

    def test_quantize_levels(self):
        d = Projection.quantize(3)
        assert d.level_values == (0.0, 0.5, 1.0)
        assert d.apply_point((0.2, 0.26, 0.76)) == (0.0, 0.5, 1.0)

    def test_identity_kind_is_refused(self):
        """A projection has fibers; the identity map has none to compare on."""
        with pytest.raises(ValidationError, match="unknown projection kind 'identity'"):
            Projection("identity")
        with pytest.raises(SerializationError, match="unknown projection kind 'identity'"):
            Projection.from_dict({"kind": "identity"})
        assert not hasattr(Projection, "identity")

    @given(unit, st.sampled_from([2, 3, 5, 11]))
    def test_quantize_is_idempotent(self, v, levels):
        d = Projection.quantize(levels)
        once = d.apply_point((v,))
        assert d.apply_point(once) == once

    @given(unit, st.floats(min_value=0.01, max_value=1.0))
    def test_threshold_is_idempotent(self, v, alpha):
        d = Projection.threshold(alpha)
        once = d.apply_point((v,))
        assert d.apply_point(once) == once
        assert once[0] in (0.0, 1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Projection.threshold(0.0),
            lambda: Projection.threshold(1.5),
            lambda: Projection.quantize(1),
            lambda: Projection("nope"),
            lambda: Projection("threshold", alpha=0.5, levels=2),
            lambda: Projection("quantize", levels=2.5),
            lambda: Projection("quantize", levels=True),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValidationError):
            bad()

    def test_round_trip(self):
        for d in (Projection.threshold(0.25), Projection.quantize(4)):
            assert Projection.from_dict(d.to_dict()) == d

    def test_from_dict_rejects_junk(self):
        with pytest.raises(SerializationError):
            Projection.from_dict({"kind": "threshold", "alpha": 0.5, "extra": 1})
        with pytest.raises(SerializationError):
            Projection.from_dict({"alpha": 0.5})
        for levels in (2.5, True):
            with pytest.raises(SerializationError):
                Projection.from_dict({"kind": "quantize", "levels": levels})

    def test_level_values_built_once(self):
        for d in (Projection.threshold(0.5), Projection.quantize(5)):
            assert d.level_values is d.level_values
        d = Projection.quantize(5)
        assert d.level_values == (0.0, 0.25, 0.5, 0.75, 1.0)
        fresh = Projection.quantize(5)
        assert d == fresh and hash(d) == hash(fresh) and {d, fresh} == {d}
        assert repr(d) == repr(fresh) == "Projection(kind='quantize', alpha=None, levels=5)"

    def test_apply_projection_helper(self):
        assert Projection.threshold(0.5).apply_point((0.2, 0.8)) == (0.0, 1.0)
        # integers are numbers
        assert Projection.quantize(3).apply_point(np.array([1, 0])) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "point",
        [["0.7", True], ["0.7", 0.1], [b"0.7"], [True, False], [0.2, None], ["a"]],
        ids=["str-and-bool", "numeric-str", "bytes", "bool", "object", "str"],
    )
    def test_apply_point_refuses_non_numbers(self, point):
        """A point's coordinates must be numbers, as evaluation points
        must: numpy would read "0.7" as 0.7 and True as 1.0."""
        with pytest.raises(ValidationError, match="evaluation points must be numbers"):
            Projection.threshold(0.5).apply_point(point)

    @pytest.mark.parametrize(
        "values",
        [["0.3"], np.array(["0.3"]), [b"0.3"], [True], np.array([True, False])],
        ids=["str", "str-array", "bytes", "bool", "bool-array"],
    )
    def test_apply_refuses_non_numbers(self, values):
        """``apply`` converts as ``apply_point`` does: numpy would read
        "0.3" as 0.3 and True as 1.0."""
        with pytest.raises(ValidationError, match="evaluation points must be numbers"):
            Projection.threshold(0.5).apply(values)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


class TestEvaluation:
    def test_const_ignores_input(self):
        c = Const((0.3, 0.7), in_arity=2)
        assert c((0.1, 0.9)) == (0.3, 0.7)
        assert c.in_arity == 2 and c.out_arity == 2

    def test_coord_selects_and_duplicates(self):
        f = Coord((1, 1, 0), 2)
        assert f((0.2, 0.9)) == (0.9, 0.9, 0.2)

    def test_identity_helper(self):
        f = identity(3)
        assert f((0.1, 0.5, 0.9)) == (0.1, 0.5, 0.9)

    @pytest.mark.parametrize(
        "kind,x,y,expected",
        [
            ("min", 0.3, 0.8, 0.3),
            ("product", 0.5, 0.5, 0.25),
            ("lukasiewicz", 0.7, 0.6, 0.3),
            ("lukasiewicz", 0.2, 0.3, 0.0),
        ],
    )
    def test_tnorm_values(self, kind, x, y, expected):
        assert TNorm(kind)((x, y))[0] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "kind,x,y,expected",
        [
            ("max", 0.3, 0.8, 0.8),
            ("prob_sum", 0.5, 0.5, 0.75),
            ("lukasiewicz", 0.3, 0.4, 0.7),
            ("lukasiewicz", 0.7, 0.6, 1.0),
        ],
    )
    def test_tconorm_values(self, kind, x, y, expected):
        assert TConorm(kind)((x, y))[0] == pytest.approx(expected, abs=1e-15)

    @given(unit, unit)
    def test_tnorm_below_tconorm(self, x, y):
        for kind in ("lukasiewicz",):
            assert TNorm(kind)((x, y))[0] <= TConorm(kind)((x, y))[0]

    def test_connectives_match_their_formulas_bit_for_bit(self):
        x, y = np.random.default_rng(3).random((2, 1000))
        reference = [
            (TNorm("min"), np.minimum(x, y)),
            (TNorm("product"), x * y),
            (TNorm("lukasiewicz"), np.maximum(0.0, x + y - 1.0)),
            (TConorm("max"), np.maximum(x, y)),
            (TConorm("prob_sum"), x + y - x * y),
            (TConorm("lukasiewicz"), np.minimum(1.0, x + y)),
        ]
        for f, want in reference:
            assert f.eval_batch(np.stack([x, y], axis=1)).tobytes() == want.tobytes()
        assert [f.kind for f, _ in reference] == [*T_NORM_KINDS, *T_CONORM_KINDS]
        assert TNorm("lukasiewicz") != TConorm("lukasiewicz")

    @pytest.mark.parametrize("cls, label", [(TNorm, "t-norm"), (TConorm, "t-conorm")])
    def test_unknown_connective_kind(self, cls, label):
        for kind in ("median", ["min"], None):
            with pytest.raises(ValidationError, match=f"unknown {label} kind"):
                cls(kind)

    def test_affine_clamps(self):
        f = Affine(((2.0,),), (0.0,))
        assert f((0.7,)) == (1.0,)
        assert f((0.3,)) == (0.6,)

    def test_affine_unclamped_rejects_escape(self):
        """An unclamped map is refused when built where its range over
        the unit cube leaves [0, 1], though it would stay inside at some
        points; one inside it is evaluated as it is."""
        with pytest.raises(ValidationError, match=r"^unclamped affine row 0 ranges over "
                           r"\[0\.0, 2\.0\] on the unit cube: .* refused, not clamped$") as exc:
            Affine(((2.0,),), (0.0,), clamp=False)
        assert exc.value.code == "E_INPUT"
        doc = {"node": "affine", "matrix": [[2.0]], "bias": [0.0], "clamp": False}
        with pytest.raises(SerializationError, match="^invalid 'affine' node: unclamped") as exc:
            from_dict(doc)
        assert exc.value.code == "E_FORMAT"
        f = Affine(((0.5,),), (0.25,), clamp=False)
        assert f((0.4,)) == (0.45,)

    @pytest.mark.parametrize("matrix, bias", [
        (((float("nan"), 0.0),), (0.0,)),
        (((1.0, float("inf")),), (0.0,)),
        (((1.0, 0.0),), (float("nan"),)),
        (((1.0, 0.0),), (float("-inf"),)),
        # evaluated on one row this overflowed to 1.0, where batches of 2
        # to 7 rows gave 0.25: twice a row's absolute sum must be finite
        (((1e308, 1e308, -1e308, -1e308),), (0.25,)),
    ])
    def test_affine_rejects_non_finite_parameters(self, matrix, bias):
        with pytest.raises(ValidationError, match="finite") as exc:
            Affine(matrix, bias)
        assert exc.value.code == "E_INPUT"
        doc = {"node": "affine", "matrix": [list(r) for r in matrix], "bias": list(bias)}
        with pytest.raises(SerializationError, match="^invalid 'affine' node: .*finite") as exc:
            from_dict(doc)
        assert exc.value.code == "E_FORMAT"

    @pytest.mark.parametrize("clamp", [True, False])
    def test_affine_keeps_a_large_row_that_cannot_overflow(self, clamp):
        """Twice the row's absolute sum is 1.6e308: the overflow check
        keeps it, and clamped, every batch size evaluates it to the same
        value without a warning.  Unclamped, its range leaves the cube,
        and it is refused for that, not as overflowing."""
        row = ((2e307, -2e307, 2e307, -2e307),)
        if not clamp:
            with pytest.raises(ValidationError, match="^unclamped affine row 0 ranges over"):
                Affine(row, (0.25,), clamp=False)
            return
        f = Affine(row, (0.25,))
        for rows in range(1, 9):
            assert f.eval_batch(np.full((rows, 4), 0.5)).tolist() == [[0.25]] * rows
        lo, hi = f.bounds(np.zeros((1, 4)), np.ones((1, 4)))
        assert (lo.tolist(), hi.tolist()) == ([[0.0]], [[1.0]])

    def test_lifted_projection(self):
        f = LiftedProjection(Projection.threshold(0.5), 2)
        assert f((0.2, 0.8)) == (0.0, 1.0)

    def test_compose_runs_inner_first(self):
        f = Compose(TConorm("lukasiewicz"), Parallel((Const((0.3,), in_arity=1), identity(1))))
        assert f((0.9, 0.4)) == pytest.approx((0.7,))

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValidationError):
            Compose(TNorm("min"), identity(3))

    def test_parallel_splits_input(self):
        f = Parallel((TNorm("min"), identity(1)))
        assert f.in_arity == 3 and f.out_arity == 2
        assert f((0.4, 0.9, 0.5)) == (0.4, 0.5)

    def test_piecewise_first_match_wins(self):
        f = Piecewise(
            regions=(
                Piece((Condition(0, "le", 0.5),), Const((0.1,), in_arity=1)),
                Piece((Condition(0, "le", 0.8),), Const((0.2,), in_arity=1)),
            ),
            default=Const((0.9,), in_arity=1),
        )
        assert f((0.3,)) == (0.1,)
        assert f((0.6,)) == (0.2,)
        assert f((0.81,)) == (0.9,)

    def test_piecewise_condition_conjunction(self):
        f = Piecewise(
            regions=(
                Piece(
                    (Condition(0, "ge", 0.5), Condition(1, "lt", 0.5)),
                    Const((1.0,), in_arity=2),
                ),
            ),
            default=Const((0.0,), in_arity=2),
        )
        assert f((0.7, 0.2)) == (1.0,)
        assert f((0.7, 0.5)) == (0.0,)
        assert f((0.2, 0.2)) == (0.0,)

    def test_piecewise_signature_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Piecewise(
                regions=(Piece((Condition(0, "le", 0.5),), Const((0.1,), in_arity=2)),),
                default=Const((0.2,), in_arity=1),
            )

    def test_eval_batch_validates_domain(self):
        f = TNorm("min")
        with pytest.raises(ValidationError):
            f.eval_batch(np.array([[0.5, 1.2]]))
        with pytest.raises(ValidationError):
            f.eval_batch(np.array([[0.5, np.nan]]))
        with pytest.raises(ValidationError):
            f.eval_batch(np.array([[0.5]]))

    NON_NUMERIC = {
        "str": [["a", "b"]],
        "numeric-str": [["0.3", "0.3"]],
        "bytes": [[b"0.3", b"0.3"]],
        "bool": [[True, False]],
        "object": np.array([[0.3, 0.3]], dtype=object),
        "dict": [[0.5, {}]],
        "ragged": [[0.5, [0.2, 0.3]]],
    }

    @pytest.mark.parametrize("batch", NON_NUMERIC.values(), ids=NON_NUMERIC.keys())
    def test_non_numeric_points_are_a_validation_error(self, batch):
        """numpy would read "0.3" as 0.3 and True as 1.0: neither is a
        number here."""
        with pytest.raises(ValidationError, match="evaluation points must be numbers"):
            TNorm("min").eval_batch(batch)
        with pytest.raises(ValidationError, match="evaluation points must be numbers"):
            TNorm("min")(batch[0])

    def test_integer_points_are_numbers(self):
        f = TConorm("lukasiewicz")
        assert f.eval_batch(np.array([[0, 1]], dtype=np.int8)).tolist() == [[1.0]]
        assert f([0, 0.25]) == (0.25,)

    def test_point_arity_checked(self):
        with pytest.raises(ValidationError):
            TNorm("min")((0.5,))

    def test_eval_expr_helper(self):
        assert TNorm("min")((0.4, 0.6)) == (0.4,)

    @given(st.lists(unit, min_size=2, max_size=2))
    def test_outputs_stay_in_unit_interval(self, point):
        for f in (TNorm("lukasiewicz"), TConorm("prob_sum"), Affine(((0.5, 0.5),), (0.3,))):
            out = f(tuple(point))
            assert all(0.0 <= v <= 1.0 for v in out)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _sample_exprs():
    return [
        Const((0.25, 1.0), in_arity=3),
        Coord((2, 0), 3),
        TNorm("lukasiewicz"),
        TConorm("prob_sum"),
        Affine(((0.5, 0.25), (0.0, 1.0)), (0.1, 0.0), clamp=False),
        LiftedProjection(Projection.quantize(3), 2),
        Compose(TNorm("min"), Parallel((identity(1), Const((0.4,), in_arity=0)))),
        Piecewise(
            regions=(
                Piece(
                    (Condition(0, "ge", 0.5), Condition(1, "lt", 0.25)),
                    Const((0.9,), in_arity=2),
                ),
            ),
            default=TNorm("product"),
        ),
    ]


class TestSerialisation:
    @pytest.mark.parametrize("expr", _sample_exprs(), ids=lambda e: e.node_name)
    def test_round_trip_preserves_semantics(self, expr):
        clone = from_dict(to_dict(expr))
        assert clone.in_arity == expr.in_arity
        assert clone.out_arity == expr.out_arity
        rng = np.random.default_rng(1)
        xs = rng.random((64, expr.in_arity))
        assert np.array_equal(clone.eval_batch(xs), expr.eval_batch(xs))

    def test_document_shape(self):
        doc = to_dict(TNorm("min"))
        assert doc == {"node": "tnorm", "in_arity": 2, "out_arity": 1, "kind": "min"}

    def test_unknown_node_rejected(self):
        with pytest.raises(SerializationError):
            from_dict({"node": "warp", "in_arity": 1, "out_arity": 1})

    def test_declared_arity_cross_checked(self):
        doc = to_dict(TNorm("min"))
        doc["in_arity"] = 3
        with pytest.raises(SerializationError):
            from_dict(doc)

    def test_malformed_payload_reported(self):
        with pytest.raises(SerializationError):
            from_dict({"node": "coord", "in_arity": 2, "out_arity": 1})
        with pytest.raises(SerializationError):
            from_dict({"node": "const", "values": [1.5], "in_arity": 0, "out_arity": 1})
        with pytest.raises(SerializationError):
            from_dict({"node": "coord", "indices": [0], "in_arity": "abc", "out_arity": 1})
        with pytest.raises(SerializationError):
            from_dict({"node": "const", "values": "ab", "in_arity": 0, "out_arity": 2})
        # the declared arities of a node that does not read them
        for key in ("in_arity", "out_arity"):
            for bad in ("abc", [], None):
                doc = {"node": "tnorm", "kind": "min", "in_arity": 2, "out_arity": 1, key: bad}
                with pytest.raises(SerializationError):
                    from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(SerializationError):
            from_dict([1, 2, 3])

    def test_deeply_nested_document_rejected(self):
        doc = {"node": "coord", "indices": [0], "in_arity": 1}
        for _ in range(5000):
            doc = {"node": "compose", "outer": {"node": "coord", "indices": [0], "in_arity": 1},
                   "inner": doc}
        with pytest.raises(SerializationError, match="nested too deeply") as exc:
            from_dict(doc)
        assert exc.value.code == "E_FORMAT"


# ---------------------------------------------------------------------------
# vertices and truth tables
# ---------------------------------------------------------------------------


class TestVertices:
    def test_order_is_binary_counting(self):
        vs = all_vertices(2)
        assert vs.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_vertex_index_inverts_enumeration(self):
        vs = all_vertices(3)
        for i, row in enumerate(vs):
            assert vertex_index([int(b) for b in row]) == i

    def test_zero_arity(self):
        assert all_vertices(0).shape == (1, 0)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            all_vertices(21)

    def test_vertex_index_rejects_non_bits(self):
        with pytest.raises(ValidationError):
            vertex_index([0, 2])


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("k", [2, 3, 7, 2048])
def test_fiber_digits_are_the_base_k_digits(k, n):
    """``fiber_digits`` gives what dividing by each place value and
    taking the rest mod ``k`` gives, and ``fiber_codes`` inverts it; a
    code outside ``[0, k**n)`` names no fiber and is refused, not
    wrapped into another one."""
    rng = np.random.default_rng([k, n])
    codes = np.concatenate([[0, k**n - 1], rng.integers(0, k**n, 1000)])
    digits = fiber_digits(codes, k, n)
    place_values = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    assert digits.shape == (len(codes), n) and digits.dtype == np.int64
    assert np.array_equal(digits, codes.reshape(-1, 1) // place_values % k)
    assert np.array_equal(fiber_codes(Projection.quantize(k), digits / (k - 1)), codes)
    for code in (-1, k**n, -(k**n)):
        with pytest.raises(ValidationError, match=rf"must be integers in \[0, {k}\*\*{n}\)"):
            fiber_digits([0, code], k, n)
    with pytest.raises(CapacityError):
        fiber_digits([0], k, 63)


@pytest.mark.parametrize("make", [
    lambda: Projection.quantize(4.0),
    lambda: Projection.threshold("0.5"),
    lambda: Projection.threshold(True),
    lambda: Affine(((0.5, 0.5),), (0.0,), clamp="false"),
    lambda: Affine((("0.5", 0.5),), (0.0,)),
    lambda: Coord((0.9, 1.2), 2),
    lambda: Coord((0, 1), 2.9),
    lambda: Const((0.5,), in_arity="3"),
    lambda: Const(("0.5",)),
    lambda: Condition(0.7, "le", 0.5),
    lambda: Condition(0, "le", "0.5"),
    lambda: Condition(0, "lt", float("nan")),
    lambda: LiftedProjection(Projection.threshold(0.5), 1.5),
    lambda: TruthTable(1, 1, [[0.7], [1.9]]),
    lambda: TruthTable(1.0, 1, [[0], [1]]),
], ids=[
    "levels-float", "alpha-string", "alpha-bool", "clamp-string", "matrix-string",
    "indices-float", "coord-arity-float", "const-arity-string", "const-string",
    "condition-index-float", "condition-value-string", "condition-value-nan",
    "lifted-arity-float",
    "rows-float", "inputs-float",
])
def test_scalar_fields_are_checked_not_coerced(make):
    with pytest.raises(ValidationError):
        make()


def test_numpy_scalars_are_stored_as_python_scalars():
    exprs = [
        Coord(np.array([1, 0]), np.int32(2)),
        Const((np.float32(0.5),), in_arity=np.int64(1)),
        Affine(((np.int64(1), 0),), (np.float64(0.0),), clamp=np.bool_(False)),
        LiftedProjection(Projection.quantize(np.uint8(4)), np.int64(2)),
    ]
    for expr in exprs:
        assert from_dict(to_dict(expr)) == expr
        assert json.loads(json.dumps(to_dict(expr))) == to_dict(expr)
    assert type(exprs[2].clamp) is bool and type(exprs[3].projection.levels) is int


class TestTruthTable:
    def test_row_lookup(self):
        t = TruthTable(2, 1, [[0], [1], [1], [0]])
        assert t.row((0, 1)) == (1,)
        assert t.row((1, 1)) == (0,)
        assert t.column(0).tolist() == [0, 1, 1, 0]
        # an output index outside [0, n_outputs) is refused, not wrapped
        for output in (1, 3, -1):
            with pytest.raises(ValidationError, match=r"output index must be an integer in \[0, 1\)"):
                t.column(output)

    @pytest.mark.parametrize("bits", [(1,), (1, 1, 1, 1)], ids=["short", "long"])
    def test_row_needs_one_bit_per_input(self, bits):
        """A vertex with fewer bits is no row of the table, although its
        bits spell a row index; one with more is refused alike."""
        t = TruthTable(3, 1, [[i % 2] for i in range(8)])
        with pytest.raises(ValidationError, match="3-input table has 3 bits"):
            t.row(bits)

    def test_equality_and_hash(self):
        a = TruthTable(1, 1, [[0], [1]])
        b = TruthTable(1, 1, [[0], [1]])
        c = TruthTable(1, 1, [[1], [1]])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_rows_are_read_only(self):
        t = TruthTable(1, 1, [[0], [1]])
        with pytest.raises(ValueError):
            t.rows[0, 0] = 1
        rows = t.to_dict()["rows"]
        with pytest.raises(TypeError, match="read-only"):
            rows[1][0] = 0
        assert rows == [[0], [1]] and t.rows.tolist() == [[0], [1]]

    def test_shape_validated(self):
        with pytest.raises(ValidationError):
            TruthTable(2, 1, [[0], [1]])
        with pytest.raises(ValidationError):
            TruthTable(1, 1, [[0], [2]])

    def test_round_trip(self):
        t = TruthTable(2, 2, [[0, 1], [1, 0], [1, 1], [0, 0]])
        assert TruthTable.from_dict(t.to_dict()) == t

    def test_fractional_rows_refused_in_documents(self):
        with pytest.raises(SerializationError) as exc:
            TruthTable.from_dict({"n_inputs": 1, "n_outputs": 1, "rows": [[0.7], [1.9]]})
        assert exc.value.code == "E_FORMAT"


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_projection_after_eval_lands_on_levels(n, rnd):
    """Projected outputs always lie on the projection's level grid."""
    d = Projection.quantize(4)
    f = LiftedProjection(d, n)
    xs = np.array([[rnd.random() for _ in range(n)] for _ in range(16)])
    out = f.eval_batch(xs)
    assert np.isin(out, np.asarray(d.level_values)).all()


def test_every_export_resolves():
    """No stale name in the package's ``__all__`` or in a module's."""
    modules = [cohexp] + [
        importlib.import_module(f"cohexp.{info.name}") for info in pkgutil.iter_modules(cohexp.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


# what the package exported while it listed its names itself
_FORMER_EXPORTS = """
    __version__ CohexpError ValidationError CapacityError SerializationError ContractError
    TrainingError RAW_TOL MAX_TABLE_INPUTS Projection FuzzyExpr Const Coord TNorm TConorm Affine
    LiftedProjection Compose Parallel Condition Piece Piecewise TruthTable all_vertices
    vertex_index identity to_dict from_dict SamplingSpec Witness ComponentReport CoherenceReport
    default_sampling coherence_masks is_coherent_at check_coherence incoherent_components
    MAX_SIMPLIFY_INPUTS DnfFormula FunctorLawReport default_var_names booleanize identity_table
    bool_compose verify_functor_law table_to_dnf GAMMA_KINDS GammaSpec ExtendedExpr OutputModExpr
    gamma_extend gamma_output_mod apply_gamma QuotientMorphism quotient_of quotient_compose
    functor_gamma extensionally_equal explain NoncompDemo demo_noncompositional MlpModel MlpExpr
    TrainConfig TrainResult init_model forward loss_and_grads gradient_check train Dataset
    SplitMetrics FormulaScore ExplanationReport ExtractionResult ExperimentReport
    canonical_setting make_dataset evaluate extract_and_score default_train_config default_gamma
    run_experiment write_artifacts load_json save_json load_expr save_expr
""".split()


def test_package_exports_its_modules_lists():
    """Each public name is declared once, in its module's ``__all__``:
    the package's is those lists in order, with no name twice and none
    of its former exports lost."""
    order = ["errors", "core", "coherence", "functor", "gamma", "nn", "experiments", "serialize"]
    listed = [name for m in order for name in importlib.import_module(f"cohexp.{m}").__all__]
    assert cohexp.__all__ == ["__version__", *listed]
    assert len(set(cohexp.__all__)) == len(cohexp.__all__)
    assert len(_FORMER_EXPORTS) == 88
    assert not set(_FORMER_EXPORTS) - set(cohexp.__all__)
