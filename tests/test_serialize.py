"""File-level loading and saving of expression documents."""

import copy
import enum
import json
import pickle
from pathlib import Path

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
        assert dumps(to_dict(loaded)) == dumps(to_dict(direct))

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

    def test_inline_model_wins_over_ref(self, tmp_path, monkeypatch):
        """The loader drops the reference of a node with an inline model
        and opens no other file."""
        model = init_model(2, (2,), 1, np.random.default_rng(1))
        doc = {
            "node": "mlp", "in_arity": 2, "out_arity": 1,
            "model": model.to_dict(), "weights_ref": "missing.json",
        }
        save_json(doc, tmp_path / "net.json")
        opened, read_text = [], Path.read_text

        def spy(path, *args, **kwargs):
            opened.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", spy)
        loaded = load_expr(tmp_path / "net.json")
        assert opened == ["net.json"]
        assert dumps(to_dict(loaded)) == dumps(to_dict(MlpExpr(model)))

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

    def test_scalars_as_the_c_encoder_writes_them(self):
        class Level(enum.IntEnum):
            LOW = 1

        class Ratio(float):
            pass

        class Name(str):
            pass

        doc = {
            "enum": Level.LOW, "ratio": Ratio(0.25), "name": Name("a\u00e9"), "big": 2**200,
            "floats": [-0.0, 5e-324, 1e16, 0.1 + 0.2, np.float64(1 / 3)],
            "specials": {"nan": float("nan"), "inf": float("inf"), "minus": -float("inf")},
            "float_keys": {float("nan"): 1, float("inf"): 2, -float("inf"): 3, np.float64(0.5): 4},
            "other_keys": {True: "t", False: "f"}, "int_keys": {2**70: 0, -3: 1},
            "none_key": {None: [None, True, False]},
        }
        assert dumps(doc) == self._stdlib(doc)

    def test_numpy_integers_and_booleans_raise_type_error(self):
        for doc in ({"x": np.bool_(True)}, {"x": [np.int64(1)]}, {"x": np.uint8(0)},
                    {np.int64(1): 0}, {np.bool_(False): 0}):
            with pytest.raises(TypeError):
                self._stdlib(doc)
            with pytest.raises(TypeError):
                dumps(doc)

    @pytest.mark.parametrize("n", range(11))
    def test_truth_tables_at_every_depth(self, n):
        """A table's rows, written from their array, have the stdlib's
        bytes at every indent they can be written at."""
        rng = np.random.default_rng(n)
        for m in range(1, 5):
            table = TruthTable(n, m, rng.integers(0, 2, (2**n, m))).to_dict()
            for doc in (table, {"t": table}, {"a": [{"t": table}, 1]},
                        {"a": [[{"b": {"t": table}}]], "rows": table["rows"]},
                        {"tables": [table["rows"], table["rows"]]}):
                assert dumps(doc) == self._stdlib(doc)

    def test_table_rows_are_their_plain_list(self):
        """Each row is a list that compares, prints and encodes as the
        plain row does; only its type differs, since it refuses
        changes."""
        table = TruthTable(3, 2, np.random.default_rng(3).integers(0, 2, (8, 2)))
        rows, plain = table.to_dict()["rows"], table.rows.tolist()
        assert rows == plain and repr(rows) == repr(plain)
        assert json.dumps(rows) == json.dumps(plain)
        for row, want in zip(rows, plain):
            assert isinstance(row, list) and row == want and repr(row) == repr(want)
            assert all(type(v) is int for v in row) and type(list(row)) is list

    @pytest.mark.parametrize("edit", [
        lambda rows: rows.__setitem__(0, [1]), lambda rows: rows.__delitem__(slice(0, 1)),
        lambda rows: rows.append([1]), lambda rows: rows.extend([[1]]),
        lambda rows: rows.insert(0, [1]), lambda rows: rows.pop(), lambda rows: rows.remove([0]),
        lambda rows: rows.clear(), lambda rows: rows.sort(), lambda rows: rows.reverse(),
        lambda rows: rows.__iadd__([[1]]), lambda rows: rows.__imul__(2),
        lambda rows: rows[1].__setitem__(0, 0), lambda rows: rows[0].append(1),
        lambda rows: rows[0].__iadd__([1]), lambda rows: rows[1].pop(),
        lambda rows: rows[0].clear(), lambda rows: rows[1].__delitem__(0),
    ])
    def test_table_rows_refuse_changes(self, edit):
        """The rows ``dumps`` writes from the table's array cannot drift
        from it: neither the list nor a row takes a change."""
        doc = TruthTable(1, 1, [[0], [1]]).to_dict()
        with pytest.raises(TypeError, match="read-only"):
            edit(doc["rows"])
        assert doc["rows"] == [[0], [1]] and dumps(doc) == self._stdlib(doc)

    def test_table_rows_copy_as_plain_lists(self):
        rows = TruthTable(2, 2, [[0, 1], [1, 0], [1, 1], [0, 0]]).to_dict()["rows"]
        for twin in (list(rows), rows.copy(), rows[:], copy.copy(rows), copy.deepcopy(rows),
                     pickle.loads(pickle.dumps(rows))):
            assert type(twin) is list and twin == rows
        for twin in (copy.copy(rows), copy.deepcopy(rows), pickle.loads(pickle.dumps(rows)),
                     copy.deepcopy(list(rows)), [list(r) for r in rows],
                     [copy.copy(r) for r in rows]):
            assert all(type(row) is list for row in twin) and twin == rows

    def test_deep_copied_table_rows_are_independent(self):
        """``copy.deepcopy(rows)`` gives every row its own plain list, so
        editing one leaves the equal rows as they are, and so does the
        documented ``[list(r) for r in rows]``.  ``copy.deepcopy`` of
        ``list(rows)`` keeps the sharing of equal rows (deepcopy's memo):
        editing one row of it edits every equal row."""
        rows = TruthTable(2, 1, [[0], [1], [0], [1]]).to_dict()["rows"]
        for twin in (copy.deepcopy(rows), [list(r) for r in rows]):
            twin[0].append(1)
            assert twin == [[0, 1], [1], [0], [1]]
        shared = copy.deepcopy(list(rows))
        shared[0].append(1)
        assert shared == [[0, 1], [1], [0, 1], [1]]
        assert rows == [[0], [1], [0], [1]]

    def test_edited_copies_of_table_rows_are_written_as_lists(self):
        """A copy of a table's rows, edited so that no table holds it, is
        written by the general path."""
        doc = TruthTable(2, 2, [[0, 1], [1, 0], [1, 1], [0, 0]]).to_dict()
        for value in (10, -1, True, 1.0, "1", None):
            rows = [list(r) for r in doc["rows"]]
            rows[2][1] = value
            edited = {**doc, "rows": rows, "nested": [{"rows": rows[1:]}]}
            assert dumps(edited) == self._stdlib(edited)

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
    (Condition.from_dict, [1]),
], ids=[
    "table-n_inputs", "table-row", "projection-alpha-str", "projection-alpha-list",
    "gamma-points", "gamma-sampling-list", "sampling-points", "model-weights", "model-slope",
    "node-list", "condition-list",
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
        Affine(((0.5,),), (0.25,), clamp=False),
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
    field = type(from_dict(doc)).payload_keys()[0]
    misspelled = field[:-2] + field[-1] + field[-2]
    bad = {misspelled if key == field else key: value for key, value in doc.items()}
    with pytest.raises(SerializationError, match=rf"^'{kind}' node has no field '{misspelled}'$"):
        from_dict(bad)


# the fields a document of each node kind read from its fields must hold
_REQUIRED_FIELDS = {
    "const": ["values"],
    "coord": ["indices", "in_arity"],
    "tnorm": ["kind"],
    "tconorm": ["kind"],
    "affine": ["matrix", "bias"],
    "lifted_projection": ["projection", "in_arity"],
    "compose": ["outer", "inner"],
    "parallel": ["parts"],
    "piecewise": ["regions", "default"],
    "mlp": ["model"],
    "output_mod": ["base", "fallback", "projection"],
}


def _without(doc: dict, field: str) -> dict:
    return {key: value for key, value in doc.items() if key != field}


def _missing_field_cases() -> list:
    """(reader, document lacking a required field, message): a spec, a
    piecewise condition inside a node and on its own, a region, and
    every node read from its fields."""
    condition = {"index": 0, "op": "lt", "value": 0.5}
    region = {"conditions": [condition], "expr": to_dict(TNorm("min"))}
    piecewise = {"node": "piecewise", "regions": [region], "default": to_dict(TNorm("min"))}
    cases = {
        "projection": (Projection.from_dict, {"alpha": 0.5},
                       "projection document needs a 'kind' field: {'alpha': 0.5}"),
        "sampling": (SamplingSpec.from_dict, {"points_per_axis": 3},
                     "malformed sampling document: 'mode'"),
        "gamma": (GammaSpec.from_dict, {"kind": "extend"}, "malformed gamma document: 'projection'"),
        "table": (TruthTable.from_dict, {"n_inputs": 0, "n_outputs": 1},
                  "malformed truth table document: 'rows'"),
        "condition": (from_dict, {**piecewise, "regions": [{**region, "conditions": [
            _without(condition, "value")]}]}, "malformed 'piecewise' node: 'value'"),
        "condition-alone": (Condition.from_dict, _without(condition, "value"),
                            "malformed piecewise condition: 'value'"),
        "region": (from_dict, {**piecewise, "regions": [_without(region, "expr")]},
                   "malformed 'piecewise' node: 'expr'"),
    }
    documents = _node_documents()
    for kind, fields in _REQUIRED_FIELDS.items():
        for field in fields:
            cases[f"{kind}-{field}"] = (from_dict, _without(documents[kind], field),
                                        f"malformed {kind!r} node: {field!r}")
    return cases


def test_required_fields_cover_every_node_read_from_its_fields():
    own = {"extended"}
    assert set(_REQUIRED_FIELDS) == set(_node_documents()) - own


@pytest.mark.parametrize("case", sorted(_missing_field_cases()))
def test_documents_missing_a_required_field_name_it(case):
    """A document that lacks a field with no default is malformed, and
    the message names the field (a projection names its ``kind`` in a
    message of its own)."""
    decode, doc, message = _missing_field_cases()[case]
    with pytest.raises(SerializationError) as info:
        decode(doc)
    assert (info.value.code, str(info.value)) == ("E_FORMAT", message)


_THRESHOLD = {"kind": "threshold", "alpha": 0.5}


@pytest.mark.parametrize("decode, doc, message", [
    (GammaSpec.from_dict, {"kind": "extend", "projection": _THRESHOLD, "bogus": 1},
     "gamma document has no field 'bogus'"),
    (GammaSpec.from_dict, {"kind": "output_mod", "projection": _THRESHOLD, "fallbak": None},
     "gamma document has no field 'fallbak'"),
    (TruthTable.from_dict, {"n_inputs": 0, "n_outputs": 1, "rows": [[1]], "bogus": 1},
     "truth table document has no field 'bogus'"),
    (Projection.from_dict, {**_THRESHOLD, "bogus": 1},
     "projection document has no field 'bogus'"),
    (SamplingSpec.from_dict, {"mode": "grid", "points_per_axis": 3, "bogus": 1},
     "sampling document has no field 'bogus'"),
], ids=["gamma", "gamma-misspelled", "table", "projection", "sampling"])
def test_gamma_and_table_documents_refuse_stray_fields(decode, doc, message):
    """As node documents do: a stray key in a gamma, truth-table,
    projection or sampling document is named, not ignored."""
    with pytest.raises(SerializationError) as info:
        decode(doc)
    assert (info.value.code, str(info.value)) == ("E_FORMAT", message)


_INF = float("inf")
_RANDOM_5 = {"mode": "random", "count": 5, "seed": 0}
_STEP = {"node": "coord", "in_arity": 1, "out_arity": 1, "indices": [0]}

# (value, its document, the message of a stray key): the documents are
# written field by field in declaration order, leaving out unset fields
_SPEC_DOCUMENTS = {
    "threshold": (Projection.threshold(0.3), {"kind": "threshold", "alpha": 0.3},
                  "projection document"),
    "quantize-2": (Projection.quantize(2), {"kind": "quantize", "levels": 2},
                   "projection document"),
    "quantize-3": (Projection.quantize(3), {"kind": "quantize", "levels": 3},
                   "projection document"),
    "quantize-65536": (Projection.quantize(65536), {"kind": "quantize", "levels": 65536},
                       "projection document"),
    "grid-2": (SamplingSpec.grid(2), {"mode": "grid", "points_per_axis": 2},
               "sampling document"),
    "grid-101": (SamplingSpec.grid(101), {"mode": "grid", "points_per_axis": 101},
                 "sampling document"),
    # a seed of 0 is set, so it is written
    "random-5": (SamplingSpec.random(5), _RANDOM_5, "sampling document"),
    "random-5-seed-7": (SamplingSpec.random(5, seed=7),
                        {"mode": "random", "count": 5, "seed": 7}, "sampling document"),
    "extend": (GammaSpec("extend", Projection.threshold(0.5)),
               {"kind": "extend", "projection": _THRESHOLD}, "gamma document"),
    "extend-sampled": (GammaSpec("extend", Projection.threshold(0.5), SamplingSpec.random(5)),
                       {"kind": "extend", "projection": _THRESHOLD, "sampling": _RANDOM_5},
                       "gamma document"),
    "output-mod": (GammaSpec("output_mod", Projection.quantize(3)),
                   {"kind": "output_mod", "projection": {"kind": "quantize", "levels": 3}},
                   "gamma document"),
    "output-mod-sampled": (
        GammaSpec("output_mod", Projection.threshold(0.5), SamplingSpec.grid(11)),
        {"kind": "output_mod", "projection": _THRESHOLD,
         "sampling": {"mode": "grid", "points_per_axis": 11}},
        "gamma document"),
    "output-mod-fallback": (
        GammaSpec("output_mod", Projection.threshold(0.5), fallback=from_dict(_STEP)),
        {"kind": "output_mod", "projection": _THRESHOLD, "fallback": _STEP},
        "gamma document"),
    "output-mod-sampled-fallback": (
        GammaSpec("output_mod", Projection.threshold(0.5), SamplingSpec.random(5),
                  from_dict(_STEP)),
        {"kind": "output_mod", "projection": _THRESHOLD, "sampling": _RANDOM_5,
         "fallback": _STEP},
        "gamma document"),
    "condition-lt": (Condition(0, "lt", 0.5), {"index": 0, "op": "lt", "value": 0.5},
                     "piecewise condition"),
    "condition-le": (Condition(1, "le", -_INF), {"index": 1, "op": "le", "value": -_INF},
                     "piecewise condition"),
    "condition-gt": (Condition(2, "gt", _INF), {"index": 2, "op": "gt", "value": _INF},
                     "piecewise condition"),
    "condition-ge": (Condition(0, "ge", 1.0), {"index": 0, "op": "ge", "value": 1.0},
                     "piecewise condition"),
    "table-0": (TruthTable(0, 1, [[1]]), {"n_inputs": 0, "n_outputs": 1, "rows": [[1]]},
                "truth table document"),
    "table-1": (TruthTable(1, 2, [[0, 1], [1, 0]]),
                {"n_inputs": 1, "n_outputs": 2, "rows": [[0, 1], [1, 0]]},
                "truth table document"),
    "table-3": (TruthTable(3, 1, [[b] for b in (0, 1, 1, 0, 1, 0, 0, 1)]),
                {"n_inputs": 3, "n_outputs": 1,
                 "rows": [[0], [1], [1], [0], [1], [0], [0], [1]]},
                "truth table document"),
}


@pytest.mark.parametrize("case", sorted(_SPEC_DOCUMENTS))
def test_spec_documents_hold_their_set_fields_in_order(case):
    """A spec's document holds exactly its set fields, in declaration
    order (the text report of ``check`` prints its repr), reads back to
    an equal spec, and a stray key in it is refused by name."""
    spec, doc, what = _SPEC_DOCUMENTS[case]
    assert repr(spec.to_dict()) == repr(doc)
    assert type(spec).from_dict(doc) == spec
    with pytest.raises(SerializationError) as info:
        type(spec).from_dict({**doc, "bogus": 1})
    assert str(info.value) == f"{what} has no field 'bogus'"


def test_piecewise_regions_hold_the_piece_fields_in_order():
    """A region's document holds a ``Piece``'s fields, conditions then
    expression, reads back to the same regions, and a stray key in it
    is refused by name."""
    inner = Coord((0,), 1)
    pieces = (Piece((Condition(0, "lt", 0.5), Condition(0, "ge", 0.25)), inner), Piece((), inner))
    expr = Piecewise(pieces, Const((0.5,), 1))
    regions = [
        {"conditions": [{"index": 0, "op": "lt", "value": 0.5},
                        {"index": 0, "op": "ge", "value": 0.25}],
         "expr": to_dict(inner)},
        {"conditions": [], "expr": to_dict(inner)},
    ]
    doc = to_dict(expr)
    assert repr(doc["regions"]) == repr(regions)
    assert to_dict(from_dict(doc)) == doc
    doc["regions"][1]["bogus"] = 1
    with pytest.raises(SerializationError) as info:
        from_dict(doc)
    assert str(info.value) == "invalid 'piecewise' node: piecewise region has no field 'bogus'"
