"""File-level loading and saving of expression documents."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohexp import (
    Affine,
    Compose,
    Condition,
    Const,
    Coord,
    LiftedProjection,
    Piece,
    Piecewise,
    GammaSpec,
    MlpExpr,
    MlpModel,
    Parallel,
    Projection,
    SamplingSpec,
    SerializationError,
    TConorm,
    TNorm,
    TruthTable,
    apply_gamma,
    check_coherence,
    from_dict,
    init_model,
    load_expr,
    load_json,
    save_expr,
    save_json,
    to_dict,
    verify_functor_law,
)
from cohexp.serialize import dumps


class TestJsonFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        save_json({"b": 2, "a": [1, {"z": True}]}, path)
        assert load_json(path) == {"b": 2, "a": [1, {"z": True}]}

    def test_saved_files_are_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json({"y": 1, "x": 2}, a)
        save_json({"x": 2, "y": 1}, b)
        assert a.read_text() == b.read_text()
        assert a.read_text().endswith("\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            load_json(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_json(path)

    def test_deeply_nested_json_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"node": "const", "values": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(SerializationError, match="nested too deeply"):
            load_json(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(SerializationError, match="JSON object"):
            load_json(path)


class TestExprFiles:
    def test_round_trip(self, tmp_path):
        expr = Compose(TConorm("lukasiewicz"), Parallel((TConorm("max"), TConorm("max"))))
        path = tmp_path / "expr.json"
        save_expr(expr, path)
        clone = load_expr(path)
        assert to_dict(clone) == to_dict(expr)

    def test_weights_ref_resolved_relative_to_the_file(self, tmp_path):
        model = init_model(2, (3,), 1, np.random.default_rng(8))
        nested = tmp_path / "nested"
        nested.mkdir()
        save_json(model.to_dict(), nested / "weights.json")
        doc = {"node": "mlp", "in_arity": 2, "out_arity": 1, "weights_ref": "weights.json"}
        save_json(doc, nested / "net.json")

        loaded = load_expr(nested / "net.json")
        direct = MlpExpr(model)
        xs = np.random.default_rng(9).random((16, 2))
        assert np.array_equal(loaded.eval_batch(xs), direct.eval_batch(xs))

    def test_weights_ref_inside_a_composite(self, tmp_path):
        model = init_model(1, (2,), 1, np.random.default_rng(4))
        save_json(model.to_dict(), tmp_path / "w.json")
        doc = {
            "node": "compose",
            "in_arity": 1,
            "out_arity": 1,
            "outer": {"node": "mlp", "in_arity": 1, "out_arity": 1, "weights_ref": "w.json"},
            "inner": {
                "node": "lifted_projection", "in_arity": 1, "out_arity": 1,
                "projection": {"kind": "threshold", "alpha": 0.5},
            },
        }
        save_json(doc, tmp_path / "net.json")
        loaded = load_expr(tmp_path / "net.json")
        assert loaded.in_arity == 1 and loaded.out_arity == 1

    def test_dangling_weights_ref(self, tmp_path):
        doc = {"node": "mlp", "in_arity": 2, "out_arity": 1, "weights_ref": "gone.json"}
        save_json(doc, tmp_path / "net.json")
        with pytest.raises(SerializationError, match="cannot read"):
            load_expr(tmp_path / "net.json")

    def test_inline_model_wins_over_ref(self, tmp_path):
        model = init_model(2, (2,), 1, np.random.default_rng(1))
        doc = {
            "node": "mlp", "in_arity": 2, "out_arity": 1,
            "model": model.to_dict(), "weights_ref": "missing.json",
        }
        save_json(doc, tmp_path / "net.json")
        loaded = load_expr(tmp_path / "net.json")
        assert loaded.in_arity == 2

    @pytest.mark.parametrize("depth", [600, 3000])
    def test_deeply_nested_expression_rejected(self, tmp_path, depth):
        """Past the JSON parser's depth limit, or within it but too deep
        to resolve references or decode, loading is a coded error."""
        leaf = '{"node": "coord", "indices": [0], "in_arity": 1}'
        path = tmp_path / "chain.json"
        path.write_text(f'{{"node": "compose", "outer": {leaf}, "inner": ' * depth + leaf + "}" * depth)
        with pytest.raises(SerializationError, match="nested too deeply"):
            load_expr(path)

    def test_saved_expr_is_plain_json(self, tmp_path):
        path = tmp_path / "expr.json"
        save_expr(TConorm("prob_sum"), path)
        doc = json.loads(path.read_text())
        assert doc["node"] == "tconorm"

    def test_referenced_file_is_not_resolved_in_turn(self, tmp_path):
        model = init_model(2, (2,), 1, np.random.default_rng(3))
        weights = model.to_dict()
        weights["note"] = {"node": "mlp", "weights_ref": "gone.json"}
        save_json(weights, tmp_path / "w.json")
        doc = {"node": "mlp", "in_arity": 2, "out_arity": 1, "weights_ref": "w.json"}
        save_json(doc, tmp_path / "net.json")
        # the nested reference is not resolved: that would fail with "cannot read"
        with pytest.raises(SerializationError, match="model document has no field 'note'"):
            load_expr(tmp_path / "net.json")


_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.floats(allow_infinity=False, allow_nan=False).map(np.float64)
)
_NUMBER_ROWS = st.lists(st.lists(_SCALARS, max_size=4), max_size=5)


def _documents():
    leaves = _SCALARS | st.text(max_size=6) | _NUMBER_ROWS
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
    ), max_leaves=30)


class TestDumps:
    """The bytes of every written document; a faster writer must keep them."""

    def test_readme_extended_example(self):
        doc = {
            "node": "extended", "in_arity": 3, "out_arity": 1,
            "base": {"node": "tconorm", "in_arity": 2, "out_arity": 1, "kind": "lukasiewicz"},
            "projection": {"kind": "threshold", "alpha": 0.5},
            "extended_components": [0],
            "contaminated": [[[0, 0]]],
        }
        assert dumps(doc) == (
            '{\n  "base": {\n    "in_arity": 2,\n    "kind": "lukasiewicz",\n'
            '    "node": "tconorm",\n    "out_arity": 1\n  },\n'
            '  "contaminated": [\n    [\n      [\n        0,\n        0\n      ]\n    ]\n  ],\n'
            '  "extended_components": [\n    0\n  ],\n  "in_arity": 3,\n'
            '  "node": "extended",\n  "out_arity": 1,\n'
            '  "projection": {\n    "alpha": 0.5,\n    "kind": "threshold"\n  }\n}\n'
        )

    def test_small_report(self):
        report = check_coherence(
            TConorm("lukasiewicz"), Projection.threshold(0.5), SamplingSpec.grid(5), witness_cap=1
        )
        assert dumps(report.to_dict()) == (
            '{\n  "coherent_fraction": 0.96,\n  "components": [\n    {\n'
            '      "coherent_fraction": 0.96,\n      "component": 0,\n      "witnesses": [\n'
            '        {\n          "output": [\n            0.5\n          ],\n'
            '          "point": [\n            0.25,\n            0.25\n          ],\n'
            '          "projected_direct": 1.0,\n'
            '          "projected_via_projected_inputs": 0.0\n        }\n      ]\n    }\n  ],\n'
            '  "in_arity": 2,\n  "n_points": 25,\n  "out_arity": 1,\n'
            '  "projection": {\n    "alpha": 0.5,\n    "kind": "threshold"\n  },\n'
            '  "sampling": {\n    "mode": "grid",\n    "points_per_axis": 5\n  },\n'
            '  "verdict": "incoherent_with_witnesses"\n}\n'
        )

    # The stdlib's indented encoder is the reference for every document.

    @staticmethod
    def _stdlib(doc) -> str:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        pytest.param({}, id="empty-dict"),
        pytest.param({"a": {}, "b": [], "c": [[], []]}, id="empty-members"),
        pytest.param({"rows": [[1], []]}, id="empty-last-row"),
        pytest.param({"rows": [[], [1]]}, id="empty-first-row"),
        pytest.param({"x": [[1, 2], [3], [4, 5, 6]]}, id="ragged-rows"),
        pytest.param({"x": [[1], [2, [3]], 4]}, id="rows-with-nested-list"),
        pytest.param({"x": [[1, [2]], [3]]}, id="list-nested-in-a-row"),
        pytest.param({"x": [[1], 5, [2]]}, id="scalar-between-rows"),
        pytest.param({"x": [1, [2, 3]], "y": [[1, 2], 3]}, id="scalar-and-row"),
        pytest.param({"x": [[[1, 2], [3]], [[4]], []]}, id="three-deep"),
        pytest.param({"x": [-0.0, 1e-07, 1e308, -1e308, 5e-324, 0.1, 2**64, -(2**70)]},
                     id="float-edges"),
        pytest.param({"x": [float("nan"), float("inf"), -float("inf")]}, id="non-finite"),
        pytest.param({"x": [1, True, 0, False, None, 2.5], "y": [[True, 1], [None, 0.0]]},
                     id="bools-in-ints"),
        pytest.param({"naïve": "Straße ✓ 漢字 \u2028 \U0001f600", "é": ["ü", 1, "\n\t\"\\"]},
                     id="non-ascii"),
        pytest.param({"x": ["[1, 2]", ", ", "]"], "y": [[1], ["a"]], "z": [{"a": [1, 2]}, 3]},
                     id="strings-like-syntax"),
        pytest.param({"x": [1, "a, b", "[c]"], "y": [[1, "x, y"]], "z": [[1], [", "]]},
                     id="strings-after-numbers"),
        pytest.param({"x": [1, {}], "y": [[{}, 2], [3]], "z": [[1], {}, [2]], "w": [{}, [1]]},
                     id="empty-dicts"),
        pytest.param({"t": (1, 2, 3), "u": ((1, 2), (3,)), "v": [(1.5, 2.5), [3.5]], "w": ()},
                     id="tuples"),
        pytest.param({"f": np.float64(0.1), "g": [np.float64(1e-07), np.float64(-0.0)],
                      "h": [[np.float64(2.0)], [np.float64(np.inf)]]}, id="numpy-floats"),
        pytest.param({1: "int key", 10: "ten", 9: "nine"}, id="int-keys"),
        pytest.param({"a": {True: 1, 2.5: 2}, "b": {None: 3}}, id="scalar-keys"),
        pytest.param({"x": [{"a": 1}, {"b": [1, 2]}]}, id="dicts-in-list"),
    ])
    def test_same_bytes_as_the_stdlib_encoder(self, doc):
        assert dumps(doc) == self._stdlib(doc)

    def test_three_deep_number_array(self):
        cube = np.arange(24).reshape(2, 3, 4)
        doc = {"cube": cube.tolist(), "cube_f": (cube / 7).tolist(), "slab": [cube.tolist()] * 2}
        assert dumps(doc) == self._stdlib(doc)

    def test_functor_law_report_of_sixteen_inputs(self):
        inner = MlpExpr(init_model(16, (4,), 2, np.random.default_rng(5)))
        report = verify_functor_law(inner, TConorm("lukasiewicz"), Projection.threshold(0.5))
        doc = report.to_dict()
        assert len(doc["lhs"]["rows"]) == 2**16 and doc["witness"] is not None
        assert dumps(doc) == self._stdlib(doc)

    def test_extended_document_with_contaminated_fibers(self):
        base = Parallel((TConorm("lukasiewicz"), TNorm("product")))
        spec = GammaSpec("extend", Projection.quantize(5), sampling=SamplingSpec.grid(9))
        doc = to_dict(apply_gamma(base, spec))
        assert [len(s) > 1 for s in doc["contaminated"]] == [True, True]
        assert dumps(doc) == self._stdlib(doc)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.dictionaries(st.text(max_size=4), _documents(), max_size=5))
    def test_generated_documents(self, doc):
        assert dumps(doc) == self._stdlib(doc)

    def test_unencodable_values_and_keys_raise_type_error(self):
        for doc in ({"x": np.int64(1)}, {"x": [1, {2}]}, {(1, 2): 0}, {"x": [[1], [object()]]}):
            with pytest.raises(TypeError):
                self._stdlib(doc)
            with pytest.raises(TypeError):
                dumps(doc)


_LAYER = {"weights": [[0.5, -0.5]], "bias": [0.0]}


@pytest.mark.parametrize("decode, doc", [
    (TruthTable.from_dict, {"n_inputs": "x", "n_outputs": 1, "rows": [[0], [1]]}),
    (TruthTable.from_dict, {"n_inputs": 0, "n_outputs": 1, "rows": [["a"]]}),
    (Projection.from_dict, {"kind": "threshold", "alpha": "x"}),
    (Projection.from_dict, {"kind": "threshold", "alpha": [1]}),
    (GammaSpec.from_dict, {"kind": "extend", "projection": {"kind": "threshold", "alpha": 0.5},
                           "sampling": {"mode": "grid", "points_per_axis": "abc"}}),
    (GammaSpec.from_dict, {"kind": "extend", "projection": {"kind": "threshold", "alpha": 0.5},
                           "sampling": [1]}),
    (SamplingSpec.from_dict, {"mode": "grid", "points_per_axis": "abc"}),
    (MlpModel.from_dict, {"layers": [{"weights": "abc", "bias": [0.0]}]}),
    (MlpModel.from_dict, {"layers": [{**_LAYER, "weights": [[0.5], [0.5]], "bias": [0.0, 0.0],
                                      "slope": "q"}, _LAYER]}),
    (from_dict, {"node": [1]}),
], ids=[
    "table-n_inputs", "table-row", "projection-alpha-str", "projection-alpha-list",
    "gamma-points", "gamma-sampling-list", "sampling-points", "model-weights", "model-slope",
    "node-list",
])
def test_malformed_documents_are_serialization_errors(decode, doc):
    with pytest.raises(SerializationError):
        decode(doc)


_TNORM_MEDIAN = {"node": "tnorm", "kind": "median"}


@pytest.mark.parametrize("doc, message", [
    ({"node": "coord", "in_arity": 1}, "malformed 'coord' node: 'indices'"),
    (_TNORM_MEDIAN, "invalid 'tnorm' node: unknown t-norm kind 'median'"),
    ({"node": "compose", "outer": _TNORM_MEDIAN,
      "inner": {"node": "coord", "indices": [0, 0], "in_arity": 1}},
     "invalid 'compose' node: invalid 'tnorm' node: unknown t-norm kind 'median'"),
    ({"node": "lifted_projection", "in_arity": 1, "projection": {"kind": "threshold", "alpha": 2}},
     "invalid 'lifted_projection' node: threshold projection needs alpha in (0, 1], got 2"),
], ids=["missing-field", "bad-kind", "nested", "bad-projection"])
def test_node_errors_name_every_enclosing_node(doc, message):
    with pytest.raises(SerializationError) as info:
        from_dict(doc)
    assert str(info.value) == message


def _node_documents() -> dict:
    """One document per node kind, as ``to_dict`` writes it; the repaired
    ones as ``repair`` writes them."""
    luk_or = TConorm("lukasiewicz")
    spec = {"projection": Projection.threshold(0.5), "sampling": SamplingSpec.grid(5)}
    exprs = [
        Const((0.5,), in_arity=2),
        Coord((1, 0), 2),
        TNorm("min"),
        luk_or,
        Affine(((2.0,),), (0.0,), clamp=False),
        LiftedProjection(Projection.threshold(0.5), 1),
        Compose(luk_or, Coord((0, 0), 1)),
        Parallel((luk_or, TNorm("product"))),
        Piecewise((Piece((Condition(0, "lt", 0.5),), luk_or),), TNorm("min")),
        MlpExpr(init_model(2, (3,), 1, np.random.default_rng(0))),
        apply_gamma(luk_or, GammaSpec("extend", **spec)),
        apply_gamma(luk_or, GammaSpec("output_mod", **spec)),
    ]
    return {expr.node_name: to_dict(expr) for expr in exprs}


@pytest.mark.parametrize("kind", sorted(_node_documents()))
def test_node_documents_refuse_fields_their_node_does_not_read(kind):
    """A misspelled payload field is an error that names it, not a
    default silently taken."""
    doc = _node_documents()[kind]
    assert to_dict(from_dict(doc)) == doc
    field = type(from_dict(doc)).payload_fields[0]
    misspelled = field[:-2] + field[-1] + field[-2]
    bad = {misspelled if key == field else key: value for key, value in doc.items()}
    with pytest.raises(SerializationError, match=rf"^'{kind}' node has no field '{misspelled}'$"):
        from_dict(bad)
