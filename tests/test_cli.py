"""Command line behaviour: parsing, precedence, exit codes, documents.

Everything drives ``cli.run`` in-process; one subprocess test runs the
``cohexp`` console-script target declared in ``pyproject.toml`` against
the source tree under test, the way pip's generated wrapper would, and
checks that it behaves exactly like ``cli.run``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cohexp
from cohexp import Const, TConorm, from_dict, load_expr, save_json, to_dict
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

    def test_env_seed_is_the_default(self, or_file, capsys, monkeypatch):
        monkeypatch.setenv("COHEXP_SEED", "33")
        assert run(["check", "--expr", or_file, "--random", "50", "--format", "structured"]) == OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sampling"]["seed"] == 33

    def test_flag_beats_env_seed(self, or_file, capsys, monkeypatch):
        monkeypatch.setenv("COHEXP_SEED", "33")
        assert run([
            "check", "--expr", or_file, "--random", "50",
            "--seed", "1", "--format", "structured",
        ]) == OK
        assert json.loads(capsys.readouterr().out)["sampling"]["seed"] == 1

    def test_invalid_env_seed_rejected(self, or_file, capsys, monkeypatch):
        monkeypatch.setenv("COHEXP_SEED", "many")
        assert run(["check", "--expr", or_file]) == BAD_INPUT
        assert "error[E_INPUT]" in capsys.readouterr().err

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
    # Put the source under test first on the path, and run from an empty
    # directory so nothing in the working directory shadows it.
    src_dir = str(Path(cohexp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))

    def cohexp_script(*args):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True, cwd=tmp_path, env=env,
        )

    proc = cohexp_script("demo-noncomp")
    assert proc.returncode == OK, proc.stderr.decode()
    assert run(["demo-noncomp"]) == OK
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
    assert b"witness point a = 0.01" in proc.stdout

    proc = cohexp_script("check", "--expr", str(tmp_path / "missing.json"))
    assert proc.returncode == BAD_INPUT
    assert re.search(rb"^error\[E_[A-Z]+\]: ", proc.stderr, re.MULTILINE)
