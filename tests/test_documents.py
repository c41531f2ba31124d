"""Every document is written from its dataclass fields, and read back
into them.

A report writes each of its fields, None as null, plus the keys it
derives (a verdict, rendered formulas), minus the ones it leaves out (a
trained model, kept in its own file).  A node writes ``node``, its
signature and its ``payload_keys()``, its fields less the signature,
and reads back as it was.  No node reads or writes its own document.
"""

import dataclasses

import numpy as np
import pytest

from cohexp import (
    NODE_TYPES,
    Affine,
    ComponentReport,
    Compose,
    Condition,
    Const,
    Coord,
    DnfFormula,
    ExperimentReport,
    ExplanationReport,
    ExtractionResult,
    FormulaScore,
    GammaSpec,
    LiftedProjection,
    MlpExpr,
    NoncompDemo,
    OutputModExpr,
    Parallel,
    Piece,
    Piecewise,
    Projection,
    SamplingSpec,
    SplitMetrics,
    TConorm,
    TNorm,
    TrainConfig,
    TrainResult,
    TruthTable,
    Witness,
    apply_gamma,
    check_coherence,
    default_train_config,
    demo_noncompositional,
    from_dict,
    init_model,
    run_experiment,
    table_to_dnf,
    to_dict,
    verify_functor_law,
)
from cohexp.core import FuzzyExpr
from cohexp.errors import _field_names
from conftest import jump_low, step_at

D = Projection.threshold(0.5)
LUK_OR = TConorm("lukasiewicz")


def _names(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)]


@pytest.fixture(scope="module")
def experiment_report():
    cfg = dataclasses.replace(default_train_config("fuzzy_or"), epochs=2)
    report, _, _ = run_experiment("fuzzy_or", seed=0, cfg=cfg, sizes=(32, 16, 32))
    return report


def _reports(experiment_report):
    """(report, derived keys written before the fields, after them, and
    fields left out), one of each report kind."""
    check = check_coherence(LUK_OR, D, SamplingSpec.grid(11), witness_cap=2)
    law = verify_functor_law(step_at(0.5, 0.4, 1.0), jump_low(0.9), D)
    formula = table_to_dnf(law.lhs, var_names=["a"])
    extraction = experiment_report.extraction
    return {
        "coherence": (check, ["verdict"], [], []),
        "functor-law-violated": (law, ["verdict"], [], []),
        "functor-law-holds": (verify_functor_law(Coord((0,), 1), Coord((0,), 1), D),
                              ["verdict"], [], []),
        "demo-witness": (demo_noncompositional(GammaSpec("output_mod", D)), [], [], []),
        "demo-arity-mismatch": (demo_noncompositional(GammaSpec("extend", D)), [], [], []),
        "dnf": (formula, [], ["rendered"], []),
        "split-metrics": (experiment_report.metrics["test"], [], [], []),
        "explanation": (extraction.naive, [], [], []),
        "extraction": (extraction, [], [], []),
        "experiment": (experiment_report, [], [], []),
    }


_REPORT_KINDS = [
    "coherence", "functor-law-violated", "functor-law-holds", "demo-witness",
    "demo-arity-mismatch", "dnf", "split-metrics", "explanation", "extraction", "experiment",
]


@pytest.mark.parametrize("kind", _REPORT_KINDS)
def test_reports_hold_their_fields_and_derived_keys(kind, experiment_report):
    """The derived keys, then every field in declaration order (None as
    null), then the keys derived after them."""
    report, before, after, omitted = _reports(experiment_report)[kind]
    doc = report.to_dict()
    fields = [name for name in _names(type(report)) if name not in omitted]
    assert list(doc) == [*before, *fields, *after]
    assert all(doc[name] is None for name in fields if getattr(report, name) is None)


def test_nested_report_records_hold_their_fields():
    """Components and witnesses are written as their own fields; a
    witness's point and output become lists."""
    report = check_coherence(LUK_OR, D, SamplingSpec.grid(11), witness_cap=1)
    component = report.to_dict()["components"][0]
    assert list(component) == _names(ComponentReport)
    (witness,) = component["witnesses"]
    assert list(witness) == _names(Witness)
    first = report.components[0].witnesses[0]
    assert witness["point"] == list(first.point) and witness["output"] == list(first.output)


def test_experiment_training_block_leaves_the_model_out(experiment_report):
    doc = experiment_report.to_dict()
    assert list(doc["training"]) == [name for name in _names(TrainResult) if name != "model"]
    assert list(doc["config"]) == _names(TrainConfig)
    assert list(doc["metrics"]) == list(experiment_report.metrics)
    assert list(doc["metrics"]["test"]) == _names(SplitMetrics)
    assert doc["sizes"] == [32, 16, 32]


def test_explanation_scores_write_the_rendered_formula(experiment_report):
    """A score's ``formula`` key holds the rendered text, not the formula's
    fields: its fields are written with the formula rendered."""
    score = experiment_report.extraction.naive.scores[0]
    assert score.to_dict() == {
        "target_class": score.target_class, "formula": score.rendered, "fidelity": score.fidelity,
    }
    assert set(_names(FormulaScore)) - set(score.to_dict()) == set()


def test_formula_document_fills_in_default_names():
    formula = DnfFormula(2, ((((0, False), (1, True)),),))
    doc = formula.to_dict()
    assert doc == {
        "n_vars": 2,
        "outputs": [[[[0, False], [1, True]]]],
        "var_names": ["x", "y"],
        "rendered": ["x ∧ ¬y"],
    }


def test_demo_documents_write_unset_evidence_as_null():
    doc = demo_noncompositional(GammaSpec("output_mod", D), g=LiftedProjection(D, 1)).to_dict()
    assert list(doc) == _names(NoncompDemo)
    assert doc["f"] is doc["point"] is doc["lhs"] is doc["rhs"] is None


def test_field_names_are_kept_per_class():
    """An experiment report holds a dict, so it cannot be hashed: the
    field names are cached by class, never by instance."""
    model = init_model(2, (2,), 1, np.random.default_rng(0))
    explanation = ExplanationReport("raw", TruthTable(0, 1, [[1]]), ())
    extraction = ExtractionResult(explanation, None, 1.0, 0)
    report = ExperimentReport(
        "xor", 0, TrainConfig(), (1, 1, 1), {"train": SplitMetrics(1.0, 1.0)},
        TrainResult(model, 1.0, 0, 1, False), extraction,
    )
    with pytest.raises(TypeError):
        hash(report)
    assert list(report.to_dict()["metrics"]) == ["train"]
    assert _field_names(ExperimentReport) is _field_names(ExperimentReport)


def _nodes() -> dict:
    """One expression per node kind, and a repair with a supplied fallback."""
    spec = {"projection": D, "sampling": SamplingSpec.grid(5)}
    canonical = Compose(LUK_OR, LiftedProjection(D, 2))
    return {
        "const": Const((0.5, 0.25), in_arity=2),
        "coord": Coord((1, 0, 1), 2),
        "tnorm": TNorm("product"),
        "tconorm": LUK_OR,
        "affine": Affine(((0.5, 0.5),), (0.0,), clamp=False),
        "lifted_projection": LiftedProjection(Projection.quantize(3), 2),
        "compose": canonical,
        "parallel": Parallel((LUK_OR, TNorm("min"))),
        "piecewise": Piecewise((Piece((Condition(0, "lt", 0.5),), LUK_OR),), TNorm("min")),
        "mlp": MlpExpr(init_model(2, (3,), 1, np.random.default_rng(0))),
        "extended": apply_gamma(LUK_OR, GammaSpec("extend", **spec)),
        "output_mod": apply_gamma(LUK_OR, GammaSpec("output_mod", **spec)),
        "output_mod-fallback": OutputModExpr(LUK_OR, canonical, D),
    }


def test_every_node_kind_is_covered():
    assert {expr.node_name for expr in _nodes().values()} == set(NODE_TYPES)


@pytest.mark.parametrize("kind", sorted(_nodes()))
def test_node_documents_hold_their_payload_fields(kind):
    """``node``, the signature, then the payload fields.  The document
    reads back to an equal node."""
    expr = _nodes()[kind]
    doc = to_dict(expr)
    assert sorted(doc) == sorted(["node", "in_arity", "out_arity", *expr.payload_keys()])
    assert list(doc)[:3] == ["node", "in_arity", "out_arity"]
    again = from_dict(doc)
    assert to_dict(again) == doc
    if kind != "mlp":  # a network compares by identity
        assert again == expr


@pytest.mark.parametrize("hook", ["to_payload", "from_payload", "payload_fields"])
def test_no_node_reads_or_writes_its_own_document(hook):
    """Every node document is its fields, written by ``core._fields``
    and read by ``core._arguments``: neither ``FuzzyExpr`` nor any node
    class defines a document hook of its own."""
    classes = {base for cls in NODE_TYPES.values() for base in cls.__mro__}
    assert FuzzyExpr in classes
    assert [cls.__name__ for cls in classes if hook in vars(cls)] == []
