"""Synthetic experiments: train a fuzzy classifier, measure coherence,
extract Boolean explanations, and score their fidelity.

Two settings are built in, both on ``[0, 1]^2`` with the 0.5 threshold
projection:

``xor``
    Label: exclusive-or of the thresholded inputs.  Train/validation
    splits are uniform; the test split concentrates along the decision
    lines ``x = 0.5`` and ``y = 0.5`` (L-infinity distance <= 0.1).

``fuzzy_or``
    Label: thresholded bounded sum ``min(1, x + y)``.  The bounded sum
    itself is incoherent on the triangle ``T = {x + y >= 0.5, x <= 0.5,
    y <= 0.5}``, and networks trained on its labels inherit an
    incoherence region close to ``T``.  The test split concentrates
    there: 80% of the points are drawn within L-infinity distance 0.05
    of ``T``, the rest uniformly.

Explanation scoring compares, per class, the formula's value on the
projected features against the thresholded model output.  For the
domain-extension repair each added control input is bound per sample
to the thresholded model output of its component: at coherent samples
this agrees with the vertex value the naive table uses (coherence says
so), while at incoherent samples it feeds the formula exactly the
information the naive table cannot see, which is where the fidelity
gain comes from.

Reports are deterministic byte for byte given the seed.  Rendered
reports carry percentages with one decimal; CSV exports carry the raw
samples so plots can be reproduced externally.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# coherence_masks stays importable from here: bench/tracing.py wraps it in this namespace
from .coherence import coherence_masks, projected_outputs  # noqa: F401
from .core import FuzzyExpr, Projection, TruthTable, to_dict
from .errors import ValidationError
from .functor import DnfFormula, booleanize, default_var_names, table_to_dnf
from .gamma import ExtendedExpr, GammaSpec, gamma_extend
from .nn import MlpExpr, TrainConfig, TrainResult, train

__all__ = [
    "SETTINGS",
    "SPLITS",
    "Dataset",
    "SplitMetrics",
    "FormulaScore",
    "ExplanationReport",
    "ExtractionResult",
    "ExperimentReport",
    "make_dataset",
    "evaluate",
    "extract_and_score",
    "default_train_config",
    "default_gamma",
    "run_experiment",
    "write_artifacts",
]

SETTINGS = ("xor", "fuzzy_or")
SPLITS = ("train", "val", "test")

_SETTING_CODE = {"xor": 1, "fuzzy_or": 2}
_SPLIT_CODE = {"train": 1, "val": 2, "test": 3}

_XOR_BAND = 0.1
_NEAR_T_EPS = 0.05
_CONCENTRATED_SHARE = 0.8


def canonical_setting(name: str) -> str:
    key = name.replace("-", "_").lower()
    if key not in SETTINGS:
        raise ValidationError(f"unknown experiment setting {name!r}; choose from {SETTINGS}")
    return key


def _labels(setting: str, xs: np.ndarray) -> np.ndarray:
    if setting == "xor":
        return ((xs[:, 0] >= 0.5) ^ (xs[:, 1] >= 0.5)).astype(np.uint8)
    return (np.minimum(1.0, xs[:, 0] + xs[:, 1]) >= 0.5).astype(np.uint8)


def xor_band_mask(xs: np.ndarray, width: float = _XOR_BAND) -> np.ndarray:
    """Points within L-infinity distance ``width`` of either decision
    line of the xor setting."""
    return np.minimum(np.abs(xs[:, 0] - 0.5), np.abs(xs[:, 1] - 0.5)) <= width


def near_t_mask(xs: np.ndarray, eps: float = _NEAR_T_EPS) -> np.ndarray:
    """Points within L-infinity distance ``eps`` of the incoherence
    triangle ``T = {x + y >= 0.5, x <= 0.5, y <= 0.5}``."""
    x, y = xs[:, 0], xs[:, 1]
    reach_x = np.minimum(x + eps, 0.5)
    reach_y = np.minimum(y + eps, 0.5)
    return (x <= 0.5 + eps) & (y <= 0.5 + eps) & (reach_x + reach_y >= 0.5)


@dataclass(frozen=True)
class Dataset:
    """Immutable labelled sample of ``[0, 1]^2``."""

    setting: str
    split: str
    seed: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labs = np.ascontiguousarray(np.asarray(self.labels, dtype=np.uint8))
        if feats.ndim != 2 or labs.shape != (feats.shape[0],):
            raise ValidationError("features must be (N, n) with one label per row")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def csv_text(self) -> str:
        lines = ["x,y,label"]
        for row, label in zip(self.features, self.labels):
            lines.append(f"{float(row[0])!r},{float(row[1])!r},{int(label)}")
        return "\n".join(lines) + "\n"


def _rejection_sample(rng: np.random.Generator, count: int, predicate) -> np.ndarray:
    kept: list[np.ndarray] = []
    have = 0
    while have < count:
        draw = rng.random((max(4 * count, 256), 2))
        hits = draw[predicate(draw)]
        kept.append(hits)
        have += hits.shape[0]
    return np.concatenate(kept, axis=0)[:count]


def make_dataset(setting: str, split: str, size: int, seed: int = 0) -> Dataset:
    """Draw one split of one setting, reproducibly from the seed.

    Train and validation splits are uniform on the unit square; test
    splits follow the concentration recipe of their setting.
    """
    setting = canonical_setting(setting)
    if split not in SPLITS:
        raise ValidationError(f"unknown split {split!r}; choose from {SPLITS}")
    if size < 1:
        raise ValidationError("dataset size must be positive")
    rng = np.random.default_rng([int(seed), _SETTING_CODE[setting], _SPLIT_CODE[split]])

    if split != "test":
        xs = rng.random((size, 2))
    elif setting == "xor":
        xs = _rejection_sample(rng, size, xor_band_mask)
    else:
        concentrated = int(round(_CONCENTRATED_SHARE * size))
        near = _rejection_sample(rng, concentrated, near_t_mask)
        rest = rng.random((size - concentrated, 2))
        xs = np.concatenate([near, rest], axis=0)[rng.permutation(size)]

    return Dataset(setting, split, int(seed), xs, _labels(setting, xs))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitMetrics:
    accuracy: float
    coherency: float

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "coherency": self.coherency}


def evaluate(model: FuzzyExpr, dataset: Dataset, projection: Projection) -> SplitMetrics:
    """Accuracy of the thresholded model against the labels, and the
    fraction of samples at which the model is coherent."""
    if model.in_arity != dataset.features.shape[1] or model.out_arity != 1:
        raise ValidationError("evaluate expects a single-output model matching the features")
    _, preds, baseline = projected_outputs(model, projection, dataset.features)
    accuracy = float((preds[:, 0] == dataset.labels).mean())
    coherency = float((preds == baseline).all(axis=1).mean())
    return SplitMetrics(accuracy=accuracy, coherency=coherency)


# ---------------------------------------------------------------------------
# explanation extraction and fidelity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaScore:
    target_class: int
    rendered: str
    fidelity: float
    formula: DnfFormula

    def to_dict(self) -> dict:
        return {
            "target_class": self.target_class,
            "formula": self.rendered,
            "fidelity": self.fidelity,
        }


@dataclass(frozen=True)
class ExplanationReport:
    variant: str  # "raw" or "extended"
    table: TruthTable
    scores: tuple[FormulaScore, ...]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "table": self.table.to_dict(),
            "scores": [s.to_dict() for s in self.scores],
        }


@dataclass(frozen=True)
class ExtractionResult:
    naive: ExplanationReport
    extended: ExplanationReport | None
    coherent_fraction: float
    n_controls: int

    def to_dict(self) -> dict:
        return {
            "naive": self.naive.to_dict(),
            "extended": self.extended.to_dict() if self.extended else None,
            "coherent_fraction": self.coherent_fraction,
            "n_controls": self.n_controls,
        }


def _complement(table: TruthTable) -> TruthTable:
    return TruthTable(table.n_inputs, table.n_outputs, 1 - table.rows)


def _score_table(
    table: TruthTable,
    variant: str,
    vertices: np.ndarray,
    model_class: np.ndarray,
    simplify: bool,
    var_names: tuple[str, ...],
) -> ExplanationReport:
    scores = []
    for target in (1, 0):
        source = table if target == 1 else _complement(table)
        formula = table_to_dnf(source, simplify=simplify, var_names=var_names)
        values = formula.evaluate_batch(vertices)[:, 0].astype(bool)
        fidelity = float((values == (model_class == target)).mean())
        scores.append(FormulaScore(target, formula.render(), fidelity, formula))
    return ExplanationReport(variant=variant, table=table, scores=tuple(scores))


def extract_and_score(
    model: FuzzyExpr,
    dataset: Dataset,
    projection: Projection,
    gamma: GammaSpec | None = None,
    simplify: bool = True,
) -> ExtractionResult:
    """Extract per-class DNF explanations and score their fidelity.

    The naive path booleanizes the model as-is and evaluates the
    formulas on the projected features.  With a domain-extension
    ``gamma``, the repaired model is booleanized as well and each
    control input is bound, per sample, to the thresholded model
    output of the component it repairs.
    """
    if not projection.is_boolean:
        raise ValidationError("explanation extraction needs a Boolean-image projection")
    if gamma is not None and gamma.kind != "extend":
        raise ValidationError("extract_and_score supports gamma=None or a domain extension")
    xs = dataset.features
    n = model.in_arity
    proj_feats = projection.apply(xs)
    _, proj_out, baseline = projected_outputs(model, projection, xs)
    model_class = proj_out[:, 0]
    coherent = (proj_out == baseline).all(axis=1)

    base_names = default_var_names(n)
    naive_table = booleanize(model, projection)
    naive = _score_table(naive_table, "raw", proj_feats, model_class, simplify, base_names)

    extended = None
    n_controls = 0
    if gamma is not None:
        repaired = gamma_extend(model, gamma)
        if isinstance(repaired, ExtendedExpr):
            n_controls = len(repaired.components)
            controls = proj_out[:, list(repaired.components)]
            ext_vertices = np.concatenate([proj_feats, controls], axis=1)
            ext_table = booleanize(repaired, projection)
            extended = _score_table(
                ext_table, "extended", ext_vertices, model_class, simplify, repaired.var_names
            )

    return ExtractionResult(
        naive=naive,
        extended=extended,
        coherent_fraction=float(coherent.mean()),
        n_controls=n_controls,
    )


# ---------------------------------------------------------------------------
# end-to-end runner
# ---------------------------------------------------------------------------


def default_train_config(setting: str, seed: int = 0) -> TrainConfig:
    """Training defaults per setting.

    The xor network carries a coherence penalty: the labels are those
    of a coherent target, and the penalty pins the learned decision
    boundary to the projection grid.  The bounded-sum network trains
    without it, which is the configuration whose incoherence the
    explanations have to cope with.
    """
    setting = canonical_setting(setting)
    if setting == "xor":
        return TrainConfig(
            hidden_sizes=(16, 16),
            learning_rate=0.2,
            weight_decay=1e-5,
            coherence_lambda=1.0,
            epochs=400,
            batch_size=32,
            seed=seed,
            early_stopping_patience=60,
        )
    return TrainConfig(
        hidden_sizes=(16, 16),
        learning_rate=0.1,
        weight_decay=1e-5,
        coherence_lambda=0.0,
        epochs=250,
        batch_size=32,
        seed=seed,
        early_stopping_patience=40,
    )


def default_gamma(setting: str, projection: Projection) -> GammaSpec | None:
    """The bounded-sum setting extracts with a domain extension; xor
    (coherent by training) extracts naively only."""
    if canonical_setting(setting) == "fuzzy_or":
        return GammaSpec("extend", projection)
    return None


@dataclass(frozen=True)
class ExperimentReport:
    setting: str
    seed: int
    config: TrainConfig
    sizes: tuple[int, int, int]
    metrics: dict[str, SplitMetrics]
    training: TrainResult
    extraction: ExtractionResult

    def render_text(self) -> str:
        lines = [
            f"setting: {self.setting}   seed: {self.seed}",
            (
                f"training: {self.training.epochs_run} epochs run, best validation "
                f"accuracy {100 * self.training.best_val_accuracy:.1f}% at epoch "
                f"{self.training.best_epoch}"
            ),
            "",
            "split  accuracy  coherency",
        ]
        for split in SPLITS:
            m = self.metrics[split]
            lines.append(f"{split:<6} {100 * m.accuracy:>7.1f}%  {100 * m.coherency:>8.1f}%")
        lines += [
            "",
            f"test-sample coherent fraction: {100 * self.extraction.coherent_fraction:.1f}%",
            "",
            "explanations scored on the test split:",
            "variant   class  fidelity  formula",
        ]
        reports = [self.extraction.naive]
        if self.extraction.extended is not None:
            reports.append(self.extraction.extended)
        for report in reports:
            for score in report.scores:
                lines.append(
                    f"{report.variant:<9} {score.target_class:<6} "
                    f"{100 * score.fidelity:>7.1f}%  {score.rendered}"
                )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "seed": self.seed,
            "sizes": list(self.sizes),
            "config": {
                "hidden_sizes": list(self.config.hidden_sizes),
                "learning_rate": self.config.learning_rate,
                "weight_decay": self.config.weight_decay,
                "coherence_lambda": self.config.coherence_lambda,
                "epochs": self.config.epochs,
                "batch_size": self.config.batch_size,
                "seed": self.config.seed,
                "early_stopping_patience": self.config.early_stopping_patience,
                "projection": self.config.projection.to_dict(),
            },
            "training": {
                "epochs_run": self.training.epochs_run,
                "best_epoch": self.training.best_epoch,
                "best_val_accuracy": self.training.best_val_accuracy,
                "stopped_early": self.training.stopped_early,
            },
            "metrics": {split: self.metrics[split].to_dict() for split in SPLITS},
            "extraction": self.extraction.to_dict(),
        }


def run_experiment(
    setting: str,
    seed: int = 0,
    cfg: TrainConfig | None = None,
    sizes: tuple[int, int, int] = (1000, 250, 1000),
) -> tuple[ExperimentReport, MlpExpr, dict[str, Dataset]]:
    """Train, evaluate, and explain one setting end to end.

    Returns the report plus the frozen model and the datasets so
    callers can serialise them.  Deterministic for a given seed.
    """
    setting = canonical_setting(setting)
    if cfg is None:
        cfg = default_train_config(setting, seed)
    elif cfg.seed != seed:
        cfg = dataclasses.replace(cfg, seed=seed)
    projection = cfg.projection

    datasets = {
        split: make_dataset(setting, split, size, seed)
        for split, size in zip(SPLITS, sizes)
    }
    result = train(cfg, datasets["train"], datasets["val"])
    model = MlpExpr.from_model(result.model)

    metrics = {split: evaluate(model, datasets[split], projection) for split in SPLITS}
    extraction = extract_and_score(
        model, datasets["test"], projection, gamma=default_gamma(setting, projection)
    )
    report = ExperimentReport(
        setting=setting,
        seed=seed,
        config=cfg,
        sizes=tuple(sizes),
        metrics=metrics,
        training=result,
        extraction=extraction,
    )
    return report, model, datasets


def write_artifacts(
    report: ExperimentReport,
    model: MlpExpr,
    datasets: dict[str, Dataset],
    outdir: str | Path,
) -> list[Path]:
    """Write the rendered report, the structured report, the datasets,
    and the serialised model below ``outdir``; returns the paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _put(name: str, text: str) -> None:
        path = out / name
        path.write_text(text)
        written.append(path)

    _put("report.txt", report.render_text())
    _put("report.json", json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    _put("model.json", json.dumps(to_dict(model), indent=2, sort_keys=True) + "\n")
    for split, ds in datasets.items():
        _put(f"{split}.csv", ds.csv_text())
    return written
