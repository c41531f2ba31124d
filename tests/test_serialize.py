"""File-level loading and saving of expression documents."""

import json

import numpy as np
import pytest

from cohexp import (
    Compose,
    MlpExpr,
    Parallel,
    SerializationError,
    TConorm,
    init_model,
    load_expr,
    load_json,
    save_expr,
    save_json,
    to_dict,
)


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
        direct = MlpExpr.from_model(model)
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
