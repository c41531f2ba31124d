"""Command line behaviour: parsing, precedence, exit codes, documents.

Everything drives ``cli.run`` in-process; one subprocess test runs the
``cohexp`` console-script target declared in ``pyproject.toml`` against
the source tree under test, the way pip's generated wrapper would, and
checks that it behaves exactly like ``cli.run``.
"""

import copy
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cohexp
from cohexp import (
    Affine,
    Compose,
    Condition,
    Const,
    Coord,
    GammaSpec,
    LiftedProjection,
    MlpExpr,
    OutputModExpr,
    Parallel,
    Piece,
    Piecewise,
    Projection,
    SamplingSpec,
    TConorm,
    TNorm,
    apply_gamma,
    from_dict,
    init_model,
    load_expr,
    save_json,
    to_dict,
)
from cohexp.cli import run
from conftest import jump_low

OK, BAD_INPUT, BAD_CONTRACT = 0, 2, 3


@pytest.fixture
def or_file(tmp_path):
    path = tmp_path / "or.json"
    save_json(to_dict(TConorm("lukasiewicz")), path)
    return str(path)


@pytest.fixture
def const_one_file(tmp_path):
    path = tmp_path / "one.json"
    save_json(to_dict(Const((1.0,), in_arity=2)), path)
    return str(path)


class TestCheck:
    def test_text_report(self, or_file, capsys):
        assert run(["check", "--expr", or_file, "--grid", "101"]) == OK
        out = capsys.readouterr().out
        assert "verdict: incoherent_with_witnesses" in out
        assert "0.879914" in out

    def test_structured_report(self, or_file, capsys):
        assert run(["check", "--expr", or_file, "--grid", "21", "--format", "structured"]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "incoherent_with_witnesses"
        assert doc["sampling"] == {"mode": "grid", "points_per_axis": 21}

    def test_out_file(self, or_file, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert run(["check", "--expr", or_file, "--grid", "11", "--out", str(target)]) == OK
        assert capsys.readouterr().out == ""
        assert "verdict:" in target.read_text()

    def test_random_sampling_uses_seed_flag(self, or_file, capsys):
        assert run([
            "check", "--expr", or_file, "--random", "100",
            "--seed", "9", "--format", "structured",
        ]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"] == {"mode": "random", "count": 100, "seed": 9}

    @pytest.mark.parametrize("env_seed", ["33", "many", "-3"])
    def test_env_seed_is_not_read(self, env_seed, or_file, capsys, monkeypatch):
        """The seed comes from the flag, else the config, else 0;
        COHEXP_SEED is not a source, so no value of it is an error."""
        monkeypatch.setenv("COHEXP_SEED", env_seed)
        assert run(["check", "--expr", or_file, "--random", "50", "--format", "structured"]) == OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["sampling"]["seed"] == 0 and captured.err == ""

    def test_flag_beats_env_seed(self, or_file, capsys, monkeypatch):
        monkeypatch.setenv("COHEXP_SEED", "33")
        assert run([
            "check", "--expr", or_file, "--random", "50",
            "--seed", "1", "--format", "structured",
        ]) == OK
        assert json.loads(capsys.readouterr().out)["sampling"]["seed"] == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_invalid_env_seed_unused_when_the_seed_is_set(self, source, or_file, tmp_path,
                                                          capsys, monkeypatch):
        """The variable is not read, so an invalid value there is not an
        error whichever source sets the seed."""
        monkeypatch.setenv("COHEXP_SEED", "many")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4}))
        flags = ["--seed", "4"] if source == "flag" else ["--config", str(cfg)]
        assert run([
            "check", "--expr", or_file, "--random", "5", *flags, "--format", "structured",
        ]) == OK
        assert json.loads(capsys.readouterr().out)["sampling"]["seed"] == 4

    @pytest.mark.parametrize("command, source", [
        (["check", "--random", "3"], "flag"),
        (["explain", "--gamma", "extend", "--random", "5"], "flag"),
        (["repair", "--gamma", "output-mod", "--random", "5", "--out-expr", "OUT"], "flag"),
        (["experiment", "--setting", "xor", "--outdir", "OUT"], "flag"),
        (["check", "--random", "3"], "config"),
    ], ids=["check", "explain-extend", "repair-output-mod", "experiment", "config"])
    def test_negative_seed_is_a_coded_error(self, command, source, or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -2}))
        seed = {"flag": ["--seed", "-1"], "config": ["--config", str(cfg)]}[source]
        argv = [command[0], *([] if command[0] == "experiment" else ["--expr", or_file])]
        argv += [str(tmp_path / "out") if a == "OUT" else a for a in command[1:]]
        assert run([*argv, *seed]) == BAD_INPUT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[E_INPUT]: ")
        assert "seed" in lines[0] and "Traceback" not in captured.err

    def test_negative_seed_unused_by_a_grid(self, or_file, capsys):
        """A grid sample takes no seed, so the seed is not read."""
        assert run(["check", "--expr", or_file, "--grid", "3", "--seed", "-1"]) == OK
        assert run(["check", "--expr", or_file, "--seed", "-1"]) == OK

    @pytest.mark.parametrize("which", ["expr", "config"])
    def test_file_not_utf8(self, which, or_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"node":"tconorm","kind":"max"\xff}')
        files = ["--expr", str(bad)] if which == "expr" else ["--expr", or_file, "--config", str(bad)]
        assert run(["check", *files, "--grid", "3"]) == BAD_INPUT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[E_FORMAT]: ")
        assert "not UTF-8" in lines[0] and "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_file(self, tmp_path, capsys):
        assert run(["check", "--expr", str(tmp_path / "nope.json")]) == BAD_INPUT
        assert "error[E_FORMAT]" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        '{"node": "const", "in_arity": 1, "values": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"node": "compose", "outer": {"node": "coord", "indices": [0], "in_arity": 1}, '
        '"inner": ' * 3000 + '{"node": "coord", "indices": [0], "in_arity": 1}' + "}" * 3000,
    ], ids=["deep-value", "compose-chain"])
    def test_deeply_nested_document(self, body, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(body)
        assert run(["check", "--expr", str(path)]) == BAD_INPUT
        err = capsys.readouterr().err
        assert "error[E_FORMAT]" in err and "Traceback" not in err

    def test_non_finite_affine_weight(self, tmp_path, capsys):
        """A NaN weight used to be reported coherent_on_sample with
        fraction 1.0, because NaN >= alpha is false on both sides."""
        path = tmp_path / "nan.json"
        path.write_text('{"node": "affine", "matrix": [[NaN, 0.5]], "bias": [0.0]}')
        assert run(["check", "--expr", str(path)]) == BAD_INPUT
        assert "error[E_FORMAT]" in capsys.readouterr().err

    def test_overflowing_network(self, tmp_path, capsys):
        """Finite weights near 1e308 overflow to nan inside the network;
        that used to print a verdict with f(x)=(nan,) and exit 0."""
        path = tmp_path / "huge.json"
        hidden = {"weights": [[1e308, 1e308], [1e308, -1e308]], "bias": [0.0, 0.0]}
        output = {"weights": [[1e308, -1e308]], "bias": [0.0]}
        path.write_text(json.dumps({"node": "mlp", "model": {"layers": [hidden, output]}}))
        assert run(["check", "--expr", str(path)]) == BAD_INPUT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[E_INPUT]")
        assert "non-finite" in lines[0] and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["in_arity", "out_arity"])
    def test_non_integer_declared_arity(self, key, tmp_path, capsys):
        path = tmp_path / "arity.json"
        doc = {"node": "tnorm", "kind": "min", "in_arity": 2, "out_arity": 1, key: "abc"}
        path.write_text(json.dumps(doc))
        assert run(["check", "--expr", str(path)]) == BAD_INPUT
        err = capsys.readouterr().err
        assert "error[E_FORMAT]" in err and "Traceback" not in err

    def test_non_string_node(self, tmp_path, capsys):
        path = tmp_path / "node.json"
        path.write_text('{"node": ["tconorm"], "kind": "max"}')
        assert run(["check", "--expr", str(path)]) == BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error[E_FORMAT]") and "Traceback" not in err

    def test_random_sample_over_the_cap(self, or_file, capsys):
        assert run(["check", "--expr", or_file, "--random", "1000000000000"]) == BAD_INPUT
        err = capsys.readouterr().err
        assert "error[E_CAPACITY]" in err and "Traceback" not in err

    def test_quantize_projection_flag(self, or_file, capsys):
        assert run([
            "check", "--expr", or_file, "--quantize", "3",
            "--grid", "13", "--format", "structured",
        ]) == OK
        assert json.loads(capsys.readouterr().out)["projection"] == {
            "kind": "quantize", "levels": 3,
        }


# Expressions whose grid check raises: the box-by-box check must raise
# what evaluating every point raises, with the same exit status.
_OVERFLOWING_MLP = {"node": "mlp", "model": {"layers": [
    {"weights": [[1e308, 1e308], [1e308, -1e308]], "bias": [0.0, 0.0]},
    {"weights": [[1e308, -1e308]], "bias": [0.0]},
]}}
# An unclamped affine map 1.25 y that leaves the cube where y > 0.8,
# taken only where 0.6 < x < 0.9: every fiber's vertex stays clear of
# it, and the boxes holding the points that raise project to one value.
# On these grids no output lies on the threshold, so with no witnesses
# asked for, no slice is evaluated again: only the bounds can surface
# the error.
_BAND = [{"index": 0, "op": "gt", "value": 0.6}, {"index": 0, "op": "lt", "value": 0.9}]
_ERROR_EXPRS = {
    "overflowing-mlp": _OVERFLOWING_MLP,
    "affine-in-compose": {
        "node": "compose",
        "outer": {"node": "affine", "matrix": [[1.25]], "bias": [0.0], "clamp": False},
        "inner": {"node": "piecewise",
                  "regions": [{"conditions": _BAND,
                               "expr": {"node": "coord", "in_arity": 2, "indices": [1]}}],
                  "default": {"node": "const", "in_arity": 2, "values": [0.5]}},
    },
    "affine-in-piecewise": {
        "node": "piecewise",
        "regions": [{"conditions": _BAND,
                     "expr": {"node": "affine", "matrix": [[0.0, 1.25]], "bias": [0.0],
                              "clamp": False}}],
        "default": {"node": "const", "in_arity": 2, "values": [0.25]},
    },
    "grid-over-cap": {"node": "tconorm", "kind": "lukasiewicz"},
}
# the same piecewise map as a component that a coordinate selection drops
_ERROR_EXPRS["affine-under-coord"] = {
    "node": "compose",
    "outer": {"node": "coord", "in_arity": 2, "indices": [1]},
    "inner": {"node": "compose",
              "outer": {"node": "parallel", "parts": [
                  _ERROR_EXPRS["affine-in-piecewise"],
                  {"node": "const", "in_arity": 2, "values": [0.25]}]},
              "inner": {"node": "coord", "in_arity": 2, "indices": [0, 1, 0, 1]}},
}


class TestGridBoxErrorParity:
    """Deciding grid boxes from bounds raises the error, message and exit
    status of evaluating every point (the check without boxes)."""

    @pytest.mark.parametrize("name", _ERROR_EXPRS)
    @pytest.mark.parametrize("grid", ["33", "65"])
    @pytest.mark.parametrize("witnesses", ["0", "100"])
    def test_same_error_with_and_without_boxes(
        self, name, grid, witnesses, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cohexp.coherence, "_MIN_BOX_POINTS", 0)
        path = tmp_path / "expr.json"
        path.write_text(json.dumps(_ERROR_EXPRS[name]))
        argv = ["check", "--expr", str(path), "--witness-limit", witnesses,
                "--grid", "2049" if name == "grid-over-cap" else grid]
        status = run(argv)
        boxed = capsys.readouterr()
        monkeypatch.setattr(cohexp.coherence, "_check_grid", lambda *args: None)
        assert run(argv) == status == BAD_INPUT
        assert capsys.readouterr() == boxed
        code = "E_CAPACITY" if name == "grid-over-cap" else "E_INPUT"
        assert boxed.out == "" and boxed.err.startswith(f"error[{code}]")
        assert len(boxed.err.splitlines()) == 1


class TestConfigPrecedence:
    def test_config_supplies_defaults(self, or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 13, "alpha": 0.25}))
        assert run([
            "check", "--expr", or_file, "--config", str(cfg), "--format", "structured",
        ]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"] == {"mode": "grid", "points_per_axis": 13}
        assert doc["projection"] == {"kind": "threshold", "alpha": 0.25}

    def test_flags_beat_config(self, or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 13}))
        assert run([
            "check", "--expr", or_file, "--config", str(cfg),
            "--grid", "7", "--format", "structured",
        ]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"]["points_per_axis"] == 7

    def test_unknown_config_key_rejected(self, or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gird": 13}))
        assert run(["check", "--expr", or_file, "--config", str(cfg)]) == BAD_INPUT
        assert "unknown options" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, key, expected", [
        ({"grid": 3}, ["--random", "5"], "sampling", {"mode": "random", "count": 5, "seed": 0}),
        ({"quantize": 3}, ["--alpha", "0.3"], "projection", {"kind": "threshold", "alpha": 0.3}),
        ({"alpha": 0.3}, ["--quantize", "4"], "projection", {"kind": "quantize", "levels": 4}),
    ], ids=["random-over-grid", "alpha-over-quantize", "quantize-over-alpha"])
    def test_flag_overrides_its_exclusive_group(self, config, flags, key, expected,
                                                or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([
            "check", "--expr", or_file, "--config", str(cfg), *flags, "--format", "structured",
        ]) == OK
        assert json.loads(capsys.readouterr().out)[key] == expected

    @pytest.mark.parametrize("config", [
        {"grid": 3, "random": 5},
        {"alpha": 0.3, "quantize": 4},
        {"quantize": None, "alpha": 0.3},
    ], ids=["grid-and-random", "alpha-and-quantize", "null-quantize"])
    def test_config_sets_two_of_one_exclusive_group(self, config, or_file, tmp_path, capsys):
        """Argparse refuses such a pair of flags; the config file may not
        pick one of them silently either.  A key counts as set whatever
        its value, null included."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["check", "--expr", or_file, "--config", str(cfg)]) == BAD_INPUT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[E_INPUT]: config file sets ")
        assert all(key in lines[0] for key in config)
        assert captured.out == ""

    def test_exclusive_pair_in_config_overridden_by_a_flag(self, or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 3, "random": 5, "alpha": 0.3, "quantize": 4}))
        assert run([
            "check", "--expr", or_file, "--config", str(cfg), "--grid", "4", "--alpha", "0.7",
            "--format", "structured",
        ]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"] == {"mode": "grid", "points_per_axis": 4}
        assert doc["projection"] == {"kind": "threshold", "alpha": 0.7}

    def test_identity_projection_is_refused(self, or_file, tmp_path, capsys):
        """The identity map has no fibers to check on, so no flag, config
        key or document selects it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"identity": False, "alpha": 0.3, "grid": 3}))
        assert run(["check", "--expr", or_file, "--config", str(cfg)]) == BAD_INPUT
        assert capsys.readouterr().err == (
            "error[E_INPUT]: config file sets unknown options: ['identity']\n"
        )
        assert run(["check", "--expr", or_file, "--identity"]) == BAD_INPUT  # argparse usage
        assert "unrecognized arguments: --identity" in capsys.readouterr().err
        doc = tmp_path / "mod.json"
        doc.write_text(json.dumps({
            "node": "output_mod", "base": to_dict(TConorm("max")), "fallback": None,
            "projection": {"kind": "identity"},
        }))
        assert run(["check", "--expr", str(doc), "--grid", "3"]) == BAD_INPUT
        assert re.fullmatch(
            r"error\[E_FORMAT\]: [^\n]*unknown projection kind 'identity'\n", capsys.readouterr().err
        )

    @pytest.mark.parametrize("body", [
        '{"grid": [3]}', '{"alpha": [0.5]}', '{"witness_limit": null}', '{"grid": 1e400}',
        '{"random": 1.5}', '{"quantize": "no"}', '{"format": "xml"}',
    ])
    def test_invalid_config_value(self, body, or_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        assert run(["check", "--expr", or_file, "--config", str(cfg)]) == BAD_INPUT
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[E_INPUT]: config key")
        assert captured.out == ""

    def test_config_supplies_the_setting(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"setting": "xor", "epochs": 1}))
        assert run([
            "experiment", "--config", str(cfg), "--outdir", str(tmp_path / "exp"),
            "--train-size", "32", "--val-size", "16", "--test-size", "16",
            "--format", "structured", "--out", str(tmp_path / "doc.json"),
        ]) == OK
        doc = json.loads((tmp_path / "doc.json").read_text())
        assert doc["setting"] == "xor"


class TestExplain:
    def test_extend(self, or_file, capsys):
        assert run(["explain", "--expr", or_file, "--gamma", "extend"]) == OK
        assert capsys.readouterr().out == "output 0: x ∨ y ∨ nc\n"

    def test_output_mod_is_the_default_gamma(self, or_file, capsys):
        assert run(["explain", "--expr", or_file]) == OK
        assert capsys.readouterr().out == "output 0: x ∨ y\n"

    def test_ascii_and_names(self, or_file, capsys):
        assert run([
            "explain", "--expr", or_file, "--gamma", "extend",
            "--ascii", "--names", "a,b,c",
        ]) == OK
        assert capsys.readouterr().out == "output 0: a | b | c\n"

    def test_no_simplify(self, or_file, capsys):
        assert run(["explain", "--expr", or_file, "--no-simplify"]) == OK
        out = capsys.readouterr().out
        assert out.count("∨") == 2 and out.count("∧") == 3

    def test_structured_document(self, or_file, capsys):
        assert run(["explain", "--expr", or_file, "--format", "structured"]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["formula"]["rendered"] == ["x ∨ y"]
        assert doc["gamma"]["kind"] == "output_mod"

    def test_default_gamma_ignores_the_sample(self, or_file, capsys):
        """The default repair is not run, so its sample is never drawn."""
        assert run(["explain", "--expr", or_file, "--random", "1000000000000"]) == OK
        assert capsys.readouterr().out == "output 0: x ∨ y\n"

    def test_disagreeing_fallback_exits_3(self, or_file, const_one_file, capsys):
        assert run([
            "explain", "--expr", or_file, "--gamma", f"output-mod:{const_one_file}",
        ]) == BAD_CONTRACT
        assert "error[E_CONTRACT]" in capsys.readouterr().err

    def test_unknown_gamma(self, or_file, capsys):
        assert run(["explain", "--expr", or_file, "--gamma", "patch"]) == BAD_INPUT
        assert "error[E_INPUT]" in capsys.readouterr().err


def test_misspelled_field_is_a_format_error(tmp_path, capsys):
    """``clmap`` is not ``clamp``: the map is not checked as a clamped one."""
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(
        {"node": "affine", "matrix": [[2.0]], "bias": [0.0], "clmap": False}
    ))
    assert run(["check", "--expr", str(path), "--grid", "5"]) == BAD_INPUT
    assert capsys.readouterr().err == "error[E_FORMAT]: 'affine' node has no field 'clmap'\n"


def _nested_typo(place: str) -> tuple[dict, str]:
    """A document with a stray key in a nested object, and the error it
    must give."""
    if place in ("model", "layer"):
        doc = to_dict(MlpExpr(init_model(2, (3,), 1, np.random.default_rng(0))))
        if place == "model":
            doc["model"]["slope"] = 0.5
            return doc, "invalid 'mlp' node: model document has no field 'slope'"
        # a misspelled optional key, which must not take the default slope
        doc["model"]["layers"][0]["slop"] = -3.0
        return doc, "invalid 'mlp' node: model layer 0 has no field 'slop'"
    piece = Piece((Condition(0, "lt", 0.5),), Const((0.9,), in_arity=2))
    doc = to_dict(Piecewise((piece,), Const((0.1,), in_arity=2)))
    if place == "region":
        region = doc["regions"][0]
        region["exp"] = region.pop("expr")
        return doc, "invalid 'piecewise' node: piecewise region has no field 'exp'"
    condition = doc["regions"][0]["conditions"][0]
    condition["vaule"] = condition.pop("value")
    return doc, "invalid 'piecewise' node: piecewise condition has no field 'vaule'"


@pytest.mark.parametrize("place", ["model", "layer", "region", "condition"])
def test_stray_nested_key_is_a_format_error(place, tmp_path, capsys):
    """A key that a model, a layer, a piecewise region or a condition
    does not read is one coded error naming it, not a default silently
    taken."""
    doc, message = _nested_typo(place)
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--expr", str(path), "--grid", "5"]) == BAD_INPUT
    assert capsys.readouterr().err == f"error[E_FORMAT]: {message}\n"


@pytest.mark.parametrize("gamma", ["extend", "output-mod"])
def test_repaired_documents_load(gamma, or_file, tmp_path, capsys):
    out_expr = tmp_path / "repaired.json"
    assert run(["repair", "--expr", or_file, "--gamma", gamma, "--grid", "5",
                "--out-expr", str(out_expr)]) == OK
    assert to_dict(load_expr(out_expr)) == json.loads(out_expr.read_text())


class TestRepair:
    def test_extend_writes_loadable_expression(self, or_file, tmp_path, capsys):
        out_expr = tmp_path / "repaired.json"
        assert run([
            "repair", "--expr", or_file, "--gamma", "extend", "--out-expr", str(out_expr),
        ]) == OK
        text = capsys.readouterr().out
        assert "verification: coherent_on_sample" in text
        repaired = load_expr(out_expr)
        assert repaired.in_arity == 3
        assert repaired((0.2, 0.2, 1.0)) == (1.0,)

    def test_output_mod_with_fallback_file(self, or_file, tmp_path):
        fb = tmp_path / "fb.json"
        doc = to_dict(TConorm("lukasiewicz"))
        save_json(
            {"node": "compose", "in_arity": 2, "out_arity": 1,
             "outer": doc,
             "inner": {"node": "lifted_projection", "in_arity": 2, "out_arity": 2,
                       "projection": {"kind": "threshold", "alpha": 0.5}}},
            fb,
        )
        out_expr = tmp_path / "repaired.json"
        assert run([
            "repair", "--expr", or_file,
            "--gamma", f"output-mod:{fb}", "--out-expr", str(out_expr),
        ]) == OK
        assert load_expr(out_expr).in_arity == 2

    def test_incompatible_fallback_exits_3(self, or_file, const_one_file, tmp_path, capsys):
        assert run([
            "repair", "--expr", or_file,
            "--gamma", f"output-mod:{const_one_file}",
            "--out-expr", str(tmp_path / "x.json"),
        ]) == BAD_CONTRACT
        assert "error[E_CONTRACT]" in capsys.readouterr().err

    def test_failed_verification_writes_nothing(self, or_file, tmp_path, capsys):
        """The repaired file appears only once its verification returns."""
        out_expr = tmp_path / "big.json"
        assert run([
            "repair", "--expr", or_file, "--gamma", "extend", "--grid", "256",
            "--out-expr", str(out_expr),
        ]) == BAD_INPUT
        assert capsys.readouterr().err.startswith("error[E_CAPACITY]: grid sample of 16777216")
        assert not out_expr.exists()

    def test_already_coherent_is_reported(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        save_json({"node": "lifted_projection", "in_arity": 2, "out_arity": 2,
                   "projection": {"kind": "threshold", "alpha": 0.5}}, path)
        out_expr = tmp_path / "same.json"
        assert run([
            "repair", "--expr", str(path), "--gamma", "extend", "--out-expr", str(out_expr),
        ]) == OK
        assert "already coherent: True" in capsys.readouterr().out


class TestDemoNoncomp:
    def test_default_witness(self, capsys):
        assert run(["demo-noncomp"]) == OK
        out = capsys.readouterr().out
        assert "kind: witness" in out
        assert "witness point a = 0.01" in out

    def test_structured(self, capsys):
        assert run(["demo-noncomp", "--format", "structured"]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "witness"
        assert (doc["point"], doc["lhs"], doc["rhs"]) == (0.01, 1.0, 0.0)

    def test_extend_arity_mismatch(self, capsys):
        assert run(["demo-noncomp", "--gamma", "extend"]) == OK
        assert "kind: arity_mismatch" in capsys.readouterr().out

    def test_supplied_coherent_g(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        save_json({"node": "lifted_projection", "in_arity": 1, "out_arity": 1,
                   "projection": {"kind": "threshold", "alpha": 0.5}}, path)
        assert run(["demo-noncomp", "--g-expr", str(path)]) == OK
        assert "kind: not_applicable" in capsys.readouterr().out

    def test_supplied_g_with_bad_fallback_exits_3(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        save_json(to_dict(jump_low()), g_path)
        fb_path = tmp_path / "fb.json"
        save_json(to_dict(Const((1.0,), in_arity=1)), fb_path)
        assert run([
            "demo-noncomp", "--gamma", f"output-mod:{fb_path}", "--g-expr", str(g_path),
        ]) == BAD_CONTRACT
        assert "error[E_CONTRACT]" in capsys.readouterr().err


class TestFunctorLaw:
    def test_violation(self, tmp_path, capsys):
        from conftest import step_at

        inner = tmp_path / "inner.json"
        outer = tmp_path / "outer.json"
        save_json(to_dict(jump_low(after=0.6)), inner)
        save_json(to_dict(step_at(0.7, 0.0, 1.0)), outer)
        assert run(["functor-law", "--inner", str(inner), "--outer", str(outer)]) == OK
        out = capsys.readouterr().out
        assert "verdict: violated at vertex (1,)" in out

    def test_holds(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        save_json({"node": "lifted_projection", "in_arity": 1, "out_arity": 1,
                   "projection": {"kind": "threshold", "alpha": 0.5}}, path)
        assert run(["functor-law", "--inner", str(path), "--outer", str(path)]) == OK
        assert capsys.readouterr().out == "verdict: holds\n"


class TestExperiment:
    def test_tiny_run_writes_artifacts(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        assert run([
            "experiment", "--setting", "fuzzy-or", "--outdir", str(outdir),
            "--epochs", "2", "--train-size", "64", "--val-size", "32", "--test-size", "64",
        ]) == OK
        out = capsys.readouterr().out
        assert "setting: fuzzy_or" in out
        for name in ("report.txt", "report.json", "model.json", "train.csv"):
            assert (outdir / name).exists()
        model = from_dict(json.loads((outdir / "model.json").read_text()))
        assert model.in_arity == 2

    def test_hidden_sizes_override(self, tmp_path, capsys):
        outdir = tmp_path / "exp"
        assert run([
            "experiment", "--setting", "fuzzy-or", "--outdir", str(outdir),
            "--epochs", "1", "--hidden-sizes", "3,2", "--learning-rate", "0.05",
            "--coherence-lambda", "0.5", "--batch-size", "8", "--weight-decay", "0.001",
            "--early-stopping-patience", "7",
            "--train-size", "32", "--val-size", "16", "--test-size", "16",
            "--format", "structured", "--out", str(tmp_path / "doc.json"),
        ]) == OK
        doc = json.loads((tmp_path / "doc.json").read_text())
        assert doc["config"]["hidden_sizes"] == [3, 2]
        assert doc["config"]["epochs"] == 1
        assert doc["config"]["learning_rate"] == 0.05
        assert doc["config"]["coherence_lambda"] == 0.5
        assert doc["config"]["batch_size"] == 8
        assert doc["config"]["weight_decay"] == 0.001
        assert doc["config"]["early_stopping_patience"] == 7

    def test_unknown_setting_rejected_by_parser(self, tmp_path, capsys):
        assert run(["experiment", "--setting", "parity", "--outdir", str(tmp_path)]) == BAD_INPUT


def test_usage_error_exits_2(capsys):
    assert run([]) == BAD_INPUT
    assert run(["check"]) == BAD_INPUT


def _run_source(cwd, *args) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args``, the source under test first on
    the path, from ``cwd`` (an empty directory, so that nothing in the
    working directory shadows it)."""
    src_dir = str(Path(cohexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd, env=env)


def test_installed_entry_point_matches(tmp_path, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cohexp"]
    module, attr = target.split(":")
    # The body of pip's console-script wrapper for ``module:attr``.
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'cohexp'\nsys.exit({attr}())\n"
    )

    def cohexp_script(*args):
        return _run_source(tmp_path, "-c", wrapper, *args)

    proc = cohexp_script("demo-noncomp")
    assert proc.returncode == OK, proc.stderr.decode()
    assert run(["demo-noncomp"]) == OK
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
    assert b"witness point a = 0.01" in proc.stdout

    proc = cohexp_script("check", "--expr", str(tmp_path / "missing.json"))
    assert proc.returncode == BAD_INPUT
    assert re.search(rb"^error\[E_[A-Z]+\]: ", proc.stderr, re.MULTILINE)


def test_module_entry_point_matches(tmp_path, or_file, capsys):
    """``python -m cohexp.cli`` runs the command line: the same report as
    ``cli.run``, and exit status 2 on a bad flag."""
    run_dir = tmp_path / "empty"
    run_dir.mkdir()
    argv = ["check", "--expr", or_file, "--grid", "5", "--format", "structured"]
    proc = _run_source(run_dir, "-m", "cohexp.cli", *argv)
    assert proc.returncode == OK, proc.stderr.decode()
    assert run(argv) == OK
    assert proc.stdout == capsys.readouterr().out.encode("utf-8") != b""
    proc = _run_source(run_dir, "-m", "cohexp.cli", "check", "--no-such-flag")
    assert proc.returncode == BAD_INPUT and proc.stdout == b""


# ---------------------------------------------------------------------------
# hostile documents
# ---------------------------------------------------------------------------


def _run_quietly(argv: list[str]) -> tuple[int, str, float]:
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue(), time.perf_counter() - start


def _wrong_scalar_documents() -> dict[str, dict]:
    """One document per scalar field, holding a value of the wrong kind."""
    lor, d = TConorm("lukasiewicz"), Projection.threshold(0.5)
    mod = to_dict(OutputModExpr(lor, None, d))
    ext = to_dict(apply_gamma(lor, GammaSpec("extend", d, sampling=SamplingSpec.grid(5))))
    mlp = to_dict(MlpExpr(init_model(2, (2,), 1, np.random.default_rng(0))))
    step = to_dict(jump_low())
    docs = {
        "alpha-string": dict(mod, projection={"kind": "threshold", "alpha": "0.5"}),
        "levels-float": dict(mod, projection={"kind": "quantize", "levels": 4.0}),
        "clamp-string": dict(to_dict(Affine(((0.5, 0.5),), (0.0,))), clamp="false"),
        "indices-float": {"node": "coord", "indices": [0.9, 1.2], "in_arity": 2},
        "coord-arity-float": {"node": "coord", "indices": [0, 1], "in_arity": 2.9},
        "const-arity-string": {"node": "const", "values": [0.5], "in_arity": "3"},
        "components-float": dict(ext, extended_components=[0.9]),
        "digit-float": copy.deepcopy(ext),
        "index-float": copy.deepcopy(step),
        "value-string": copy.deepcopy(step),
        "weights-strings": copy.deepcopy(mlp),
    }
    docs["digit-float"]["contaminated"][0][0][0] = 0.7
    docs["index-float"]["regions"][0]["conditions"][0]["index"] = 0.7
    docs["value-string"]["regions"][0]["conditions"][0]["value"] = "0.5"
    docs["weights-strings"]["model"]["layers"][0]["weights"][0] = ["0.5", "1"]
    return docs


_WRONG_SCALARS = _wrong_scalar_documents()


class TestHostileDocuments:
    @pytest.mark.parametrize("doc, flags", [
        ({"node": "const", "values": [0.5], "in_arity": 10**20}, ["--grid", "5"]),
        ({"node": "const", "values": [0.5], "in_arity": 10**20}, ["--random", "5"]),
        ({"node": "const", "values": [0.5], "in_arity": 10**20}, []),
        ({"node": "tconorm", "kind": "max"}, ["--quantize", "100000000000"]),
        ({"node": "output_mod", "base": {"node": "tconorm", "kind": "max"}, "fallback": None,
          "projection": {"kind": "quantize", "levels": 1e308}}, []),
    ], ids=["arity-grid", "arity-random", "arity-default", "quantize-flag", "quantize-node"])
    def test_refused_at_once(self, doc, flags, tmp_path):
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        code, err, seconds = _run_quietly(["check", "--expr", str(path), *flags])
        assert code == BAD_INPUT and re.fullmatch(r"error\[E_[A-Z]+\]: [^\n]*\n", err)
        # a hang here never returns; this bound catches a slow refusal
        assert seconds < 1.0

    @pytest.mark.parametrize("case", list(_WRONG_SCALARS))
    def test_scalar_of_the_wrong_kind_is_refused(self, case, tmp_path):
        """A number spelled as a string, a fraction where an integer
        belongs or a string where true or false belongs is refused, never
        converted."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_WRONG_SCALARS[case]))
        code, err, _ = _run_quietly(["check", "--expr", str(path), "--grid", "3"])
        assert code == BAD_INPUT and re.fullmatch(r"error\[E_FORMAT\]: [^\n]*\n", err), err


def _seed_documents() -> list[dict]:
    lor, threshold = TConorm("lukasiewicz"), Projection.threshold(0.5)
    exprs = [
        lor,
        Compose(lor, Parallel((TConorm("max"), TNorm("product")))),
        jump_low(),
        Affine(((0.5, 0.5),), (0.0,)),
        apply_gamma(lor, GammaSpec("extend", threshold, sampling=SamplingSpec.grid(5))),
        OutputModExpr(lor, None, threshold),
        OutputModExpr(lor, Const((1.0,), in_arity=2), Projection.quantize(3)),
        MlpExpr(init_model(2, (3,), 1, np.random.default_rng(0))),
        Compose(Coord((0, 0), 1), LiftedProjection(Projection.quantize(4), 1)),
    ]
    return [to_dict(e) for e in exprs]


_SEEDS = _seed_documents()
# Replacement values: wrong types, numbers spelled as strings,
# out-of-range and huge numbers.  No mid-sized arity or level count,
# which would be valid but slow.
_HOSTILE = st.sampled_from([
    None, True, 0, 1, 2, 3, -1, 0.5, 1.5, -0.5, 1e308, 10**20, 2**64,
    "", "x", "mlp", "const", "0.5", "1", "false",
    [], [0], [[0]], [1, 2], {}, {"node": "const", "values": [1.0]},
])


def _slots(doc):
    """Every (container, key) pair inside a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _mutated_documents(draw) -> dict:
    doc = copy.deepcopy(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" and isinstance(container, dict):
            key = draw(st.sampled_from(["node", "in_arity", "out_arity", "levels", "model"]))
        if action == "delete" and isinstance(container, dict):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(_HOSTILE))
        if not doc:
            break
    return doc


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_documents())
def test_mutated_documents_never_raise(tmp_path_factory, doc):
    """ROADMAP aim 3: every mutated document gives exit 0 or a coded error."""
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "doc.json"
    path.write_text(json.dumps(doc))
    out = str(work / "repaired.json")
    for command in (
        ["check", "--grid", "5"],
        ["explain"],
        ["repair", "--gamma", "extend", "--grid", "5", "--out-expr", out],
        ["repair", "--gamma", "output-mod", "--grid", "5", "--out-expr", out],
    ):
        code, err, _ = _run_quietly([command[0], "--expr", str(path), *command[1:]])
        assert code == OK or (
            code in (BAD_INPUT, BAD_CONTRACT) and re.fullmatch(r"error\[E_[A-Z]+\]: [^\n]*\n", err)
        ), (command, code, err)


# ---------------------------------------------------------------------------
# fuzzed config files and flags, with COHEXP_SEED values the package ignores
# ---------------------------------------------------------------------------

# every option a config file may set for check, explain or repair
_CONFIG_KEYS = [
    "format", "seed", "alpha", "quantize", "grid", "random",
    "witness_limit", "gamma", "simplify", "names", "ascii",
]
# JSON scalars and short lists; no size over 5 that a sample would accept
_CONFIG_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, 3, 5, -1, -2, 0.0, 0.3, 1.5, -0.5, 1e308, 10**20, 2**64,
    "", "x", "3", "-1", "0.5", "a,b", "text", "structured", "extend", "output-mod",
    "output-mod:", [], [3], [0.5, 1], ["x"],
])
# one flag or none from each group, so argparse itself never refuses the line
_FLAG_GROUPS = [
    [[], ["--grid", "3"], ["--random", "5"], ["--random", "50"]],
    [[], ["--alpha", "0.3"], ["--quantize", "4"]],
    [[], ["--seed", "0"], ["--seed", "7"], ["--seed", "-1"], ["--seed", "99999999999999999999"]],
]
_ENV_SEEDS = [None, "0", "5", "-3", "x", "1.5", "99999999999999999999"]


@st.composite
def _cli_settings(draw) -> tuple[dict, list[str], str | None]:
    keys = draw(st.lists(st.sampled_from(_CONFIG_KEYS), max_size=4, unique=True))
    config = {key: draw(_CONFIG_VALUES) for key in keys}
    flags = [flag for group in _FLAG_GROUPS for flag in draw(st.sampled_from(group))]
    return config, flags, draw(st.sampled_from(_ENV_SEEDS))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_settings())
def test_fuzzed_settings_never_raise(tmp_path_factory, case):
    """ROADMAP aim 3: every config file, flag set and COHEXP_SEED gives
    exit 0 or one coded error line."""
    config, flags, env_seed = case
    work = tmp_path_factory.mktemp("settings")
    expr, cfg, out = work / "or.json", work / "cfg.json", str(work / "repaired.json")
    save_json(to_dict(TConorm("lukasiewicz")), expr)
    cfg.write_text(json.dumps(config))
    if not {"grid", "random"} & set(config) and not {"--grid", "--random"} & set(flags):
        flags = [*flags, "--grid", "5"]  # the default 101-point grid is slow to repair
    saved = os.environ.pop("COHEXP_SEED", None)
    if env_seed is not None:
        os.environ["COHEXP_SEED"] = env_seed
    try:
        for command in (
            ["check"],
            ["explain"],
            ["repair", "--gamma", "extend", "--out-expr", out],
            ["repair", "--gamma", "output-mod", "--out-expr", out],
        ):
            argv = [*command, "--expr", str(expr), "--config", str(cfg), *flags]
            code, err, _ = _run_quietly(argv)
            assert code == OK or (
                code in (BAD_INPUT, BAD_CONTRACT)
                and re.fullmatch(r"error\[E_[A-Z]+\]: [^\n]*\n", err)
            ), (argv, config, env_seed, code, err)
    finally:
        os.environ.pop("COHEXP_SEED", None)
        if saved is not None:
            os.environ["COHEXP_SEED"] = saved
