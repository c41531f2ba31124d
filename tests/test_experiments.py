"""Datasets, metrics, explanation scoring, and the end-to-end runner.

Ground-truth oracles use the bounded-sum OR itself as the "model":
its booleanization is exactly x OR y, its coherent fraction on the
101-grid is 8976/10201, and the domain extension detects exactly the
fiber of (0, 0), so the extended explanation is x OR y OR nc with
fidelity 1 under the fiber-baseline control binding.
"""

import json
import tracemalloc

import numpy as np
import pytest

from cohexp import (
    CapacityError,
    Const,
    GammaSpec,
    Projection,
    TConorm,
    TrainConfig,
    ValidationError,
    default_var_names,
    evaluate,
    extract_and_score,
    make_dataset,
    run_experiment,
    write_artifacts,
)
from cohexp import experiments
from cohexp.errors import _field_names
from cohexp.experiments import (
    Dataset,
    canonical_setting,
    default_gamma,
    default_train_config,
    near_t_mask,
    xor_band_mask,
)

D = Projection.threshold(0.5)


class TestDatasets:
    def test_deterministic_per_seed_setting_split(self):
        a = make_dataset("xor", "train", 100, seed=3)
        b = make_dataset("xor", "train", 100, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_distinct_across_seeds_settings_splits(self):
        base = make_dataset("xor", "train", 100, seed=3)
        for other in (
            make_dataset("xor", "train", 100, seed=4),
            make_dataset("fuzzy_or", "train", 100, seed=3),
            make_dataset("xor", "val", 100, seed=3),
        ):
            assert not np.array_equal(base.features, other.features)

    def test_xor_labels(self):
        ds = make_dataset("xor", "train", 500, seed=0)
        x, y = ds.features[:, 0], ds.features[:, 1]
        assert np.array_equal(ds.labels, ((x >= 0.5) ^ (y >= 0.5)).astype(np.uint8))

    def test_fuzzy_or_labels(self):
        ds = make_dataset("fuzzy_or", "train", 500, seed=0)
        sums = np.minimum(1.0, ds.features.sum(axis=1))
        assert np.array_equal(ds.labels, (sums >= 0.5).astype(np.uint8))

    def test_xor_test_split_hugs_the_decision_lines(self):
        ds = make_dataset("xor", "test", 1000, seed=0)
        assert xor_band_mask(ds.features).all()

    def test_fuzzy_or_test_split_concentrates_near_the_triangle(self):
        ds = make_dataset("fuzzy_or", "test", 1000, seed=0)
        assert int(near_t_mask(ds.features).sum()) >= 750

    def test_train_split_is_not_concentrated(self):
        ds = make_dataset("fuzzy_or", "train", 1000, seed=0)
        # the dilated triangle covers ~0.14 of the square
        assert int(near_t_mask(ds.features).sum()) < 350

    def test_hyphenated_setting_accepted(self):
        assert canonical_setting("fuzzy-or") == "fuzzy_or"
        ds = make_dataset("fuzzy-or", "train", 10, seed=0)
        assert ds.setting == "fuzzy_or"

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_dataset("parity", "train", 10)
        with pytest.raises(ValidationError):
            make_dataset("xor", "holdout", 10)
        with pytest.raises(ValidationError):
            make_dataset("xor", "train", 0)
        with pytest.raises(ValidationError, match="seed"):
            make_dataset("xor", "train", 10, seed=-1)

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_split_over_the_cap_is_refused_before_drawing(self, split):
        """10**12 points would need 14.6 TiB; the cap refuses them at once."""
        for size in (experiments._MAX_SAMPLE_POINTS + 1, 10**12):
            with pytest.raises(CapacityError, match=f"{split} split of {size} points exceeds"):
                make_dataset("xor", split, size)

    def test_split_at_the_cap_is_drawn(self, monkeypatch):
        assert experiments._MAX_SAMPLE_POINTS == 4_194_304
        monkeypatch.setattr(experiments, "_MAX_SAMPLE_POINTS", 20)
        assert len(make_dataset("fuzzy_or", "test", 20)) == 20
        with pytest.raises(CapacityError):
            make_dataset("fuzzy_or", "test", 21)

    @pytest.mark.parametrize("size, seed", [(10, 1.5), (2.5, 0), (10, "1")])
    def test_size_and_seed_are_not_truncated(self, size, seed):
        with pytest.raises(ValidationError):
            make_dataset("xor", "train", size, seed=seed)

    def test_features_are_read_only(self):
        ds = make_dataset("xor", "train", 10, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 0.5

    @pytest.mark.parametrize("setting", ["xor", "fuzzy_or"])
    @pytest.mark.parametrize("size", [1, 64, 1000, 20_000, 100_003])
    def test_test_split_matches_a_round_drawn_at_once(self, setting, size, monkeypatch):
        """Drawing a round a chunk at a time keeps the points and the
        generator's state: the 1000-point fuzzy-or split needs two
        rounds, and draws its uniform rest and permutation after them."""
        drawn = [make_dataset(setting, "test", size, seed=seed) for seed in (0, 1, 2)]
        monkeypatch.setattr(experiments, "_rejection_sample", _round_at_once)
        for seed, ds in enumerate(drawn):
            expected = make_dataset(setting, "test", size, seed=seed)
            assert ds.features.tobytes() == expected.features.tobytes()
            assert ds.labels.tobytes() == expected.labels.tobytes()

    @pytest.mark.parametrize("count", [1, 700, 5000])
    def test_rejection_sample_over_several_rounds(self, count):
        """A predicate that a tenth of the points meet needs about three
        rounds past one hit; the hits and the generator's end state are
        those of rounds drawn whole."""
        rare = lambda xs: xs[:, 0] < 0.1  # noqa: E731
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        got = experiments._rejection_sample(a, count, rare)
        assert got.tobytes() == _round_at_once(b, count, rare).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("setting", ["xor", "fuzzy_or"])
    def test_test_split_peaks_under_four_times_its_size(self, setting):
        """A round is drawn a chunk at a time; drawn whole, a 4 MiB split
        peaked at about ten times its size."""
        size = 262_144
        tracemalloc.start()
        try:
            make_dataset(setting, "test", size, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * size * 2 * 8

    def test_csv_text_round_trips_exactly(self):
        ds = make_dataset("xor", "train", 5, seed=0)
        lines = ds.csv_text().strip().split("\n")
        assert lines[0] == "x,y,label"
        assert len(lines) == 6
        for row, line in zip(ds.features, lines[1:]):
            x, y, _ = line.split(",")
            assert float(x) == row[0] and float(y) == row[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_csv_text_writes_every_column(self, n):
        """A dataset of any width: one named column per feature, then the
        label."""
        features = np.random.default_rng(n).random((4, n))
        ds = Dataset("xor", "train", 0, features, [0, 1, 1, 0])
        lines = ds.csv_text().splitlines()
        assert lines[0] == ",".join([*default_var_names(n), "label"])
        assert len(lines) == 5
        for row, label, line in zip(features, ds.labels, lines[1:]):
            *xs, y = line.split(",")
            assert [float(x) for x in xs] == row.tolist() and int(y) == label

    @pytest.mark.parametrize("features, labels, message", [
        ([[0.5, 0.5]] * 2, [0, 2], "labels must be 0 or 1, got 0 to 2"),
        ([[0.5, 0.5]], [0.7], "labels must be 0 or 1, got dtype float64"),
        ([[0.5, 0.5]] * 2, [-1, 1], "labels must be 0 or 1, got -1 to 1"),
        ([[1.5, -2.0]], [1], "features must be finite numbers in [0, 1], got -2.0 to 1.5"),
    ], ids=["label-2", "label-fraction", "label-negative", "features-outside"])
    def test_refuses_labels_and_features_outside_their_range(self, features, labels, message):
        """A label is 0 or 1, never cast to one, and a feature lies in
        the unit interval: anything else is an input error."""
        with pytest.raises(ValidationError) as info:
            Dataset("xor", "train", 0, features, labels)
        assert (info.value.code, str(info.value)) == ("E_INPUT", message)


def _round_at_once(rng, count, predicate):
    """The reference rejection sampler: each round of ``max(4 * count,
    256)`` points is drawn in one call and all its hits are kept."""
    kept, have = [], 0
    while have < count:
        draw = rng.random((max(4 * count, 256), 2))
        hits = draw[predicate(draw)]
        kept.append(hits)
        have += hits.shape[0]
    return np.concatenate(kept, axis=0)[:count]


class TestMasks:
    def test_xor_band(self):
        pts = np.array([[0.45, 0.9], [0.5, 0.5], [0.65, 0.35], [0.0, 0.61]])
        assert xor_band_mask(pts).tolist() == [True, True, False, False]

    def test_near_triangle(self):
        pts = np.array([[0.3, 0.3], [0.55, 0.55], [0.2, 0.2], [0.1, 0.1], [0.7, 0.7]])
        assert near_t_mask(pts).tolist() == [True, True, True, False, False]


class TestEvaluate:
    def test_constant_on_balanced_vertices(self):
        vertices = np.tile(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float), (250, 1))
        labels = ((vertices[:, 0] >= 0.5) ^ (vertices[:, 1] >= 0.5)).astype(np.uint8)
        ds = Dataset("xor", "test", 0, vertices, labels)
        metrics = evaluate(Const((0.0,), in_arity=2), ds, D)
        assert metrics.accuracy == 0.5
        assert metrics.coherency == 1.0

    def test_ground_truth_or_on_the_grid(self, luk_or):
        from conftest import grid_points

        xs = grid_points(101, 2)
        labels = (np.minimum(1.0, xs.sum(axis=1)) >= 0.5).astype(np.uint8)
        ds = Dataset("fuzzy_or", "test", 0, xs, labels)
        metrics = evaluate(luk_or, ds, D)
        assert metrics.accuracy == 1.0
        assert metrics.coherency == 8976 / 10201

    def test_rejects_mismatched_model(self):
        ds = make_dataset("xor", "train", 10, seed=0)
        with pytest.raises(ValidationError):
            evaluate(Const((0.0,), in_arity=3), ds, D)


class TestExtractAndScore:
    @pytest.fixture
    def ground_truth(self, luk_or):
        ds = make_dataset("fuzzy_or", "test", 1000, seed=0)
        gamma = GammaSpec("extend", D)
        return extract_and_score(luk_or, ds, D, gamma=gamma)

    def test_naive_formulas(self, ground_truth):
        by_class = {s.target_class: s.rendered for s in ground_truth.naive.scores}
        assert by_class == {1: "x ∨ y", 0: "¬x ∧ ¬y"}

    def test_extended_formulas(self, ground_truth):
        by_class = {s.target_class: s.rendered for s in ground_truth.extended.scores}
        assert by_class == {1: "x ∨ y ∨ nc", 0: "¬x ∧ ¬y ∧ ¬nc"}
        assert ground_truth.n_controls == 1

    def test_naive_fidelity_equals_the_coherent_fraction(self, ground_truth):
        """The naive formula is d(f(d(x))); it disagrees with the
        thresholded model exactly at incoherent points."""
        for score in ground_truth.naive.scores:
            assert score.fidelity == ground_truth.coherent_fraction

    def test_extended_fidelity_is_exact(self, ground_truth):
        for score in ground_truth.extended.scores:
            assert score.fidelity == 1.0

    def test_concentration_makes_naive_fidelity_poor(self, ground_truth):
        assert ground_truth.coherent_fraction < 0.6

    def test_no_gamma_gives_no_extended_report(self, luk_or):
        ds = make_dataset("fuzzy_or", "test", 200, seed=0)
        result = extract_and_score(luk_or, ds, D)
        assert result.extended is None
        assert result.n_controls == 0

    def test_output_mod_gamma_rejected(self, luk_or):
        ds = make_dataset("fuzzy_or", "test", 200, seed=0)
        with pytest.raises(ValidationError):
            extract_and_score(luk_or, ds, D, gamma=GammaSpec("output_mod", D))

    def test_coherent_model_yields_no_controls(self):
        from cohexp import Compose, LiftedProjection

        ds = make_dataset("fuzzy_or", "test", 200, seed=0)
        model = Compose(TConorm("lukasiewicz"), LiftedProjection(D, 2))
        result = extract_and_score(model, ds, D, gamma=GammaSpec("extend", D))
        assert result.coherent_fraction == 1.0
        assert result.extended is None


class TestDefaults:
    def test_training_configs(self):
        xor = default_train_config("xor")
        assert xor.coherence_lambda > 0.0
        fuzzy = default_train_config("fuzzy_or", seed=5)
        assert fuzzy.coherence_lambda == 0.0
        assert fuzzy.seed == 5

    @pytest.mark.parametrize("seed", [0, 5])
    def test_training_configs_per_setting(self, seed):
        """The two settings share a network, weight decay and batch size,
        and differ in learning rate, penalty, epochs and patience."""
        xor = TrainConfig(
            hidden_sizes=(16, 16), learning_rate=0.2, weight_decay=1e-5,
            coherence_lambda=1.0, epochs=400, batch_size=32, seed=seed,
            early_stopping_patience=60,
        )
        fuzzy = TrainConfig(
            hidden_sizes=(16, 16), learning_rate=0.1, weight_decay=1e-5,
            coherence_lambda=0.0, epochs=250, batch_size=32, seed=seed,
            early_stopping_patience=40,
        )
        assert default_train_config("xor", seed) == xor
        assert default_train_config("fuzzy_or", seed) == fuzzy
        assert default_train_config("fuzzy-or", seed=seed) == fuzzy

    def test_gamma_defaults(self):
        assert default_gamma("xor", D) is None
        spec = default_gamma("fuzzy-or", D)
        assert spec is not None and spec.kind == "extend"


@pytest.fixture(scope="module")
def tiny_run():
    import dataclasses

    cfg = dataclasses.replace(
        default_train_config("fuzzy_or"), epochs=3, early_stopping_patience=3
    )
    return run_experiment("fuzzy_or", seed=0, cfg=cfg, sizes=(64, 32, 64))


class TestRunExperiment:
    def test_deterministic_documents(self, tiny_run):
        report, _, _ = tiny_run
        cfg = report.config
        again, _, _ = run_experiment("fuzzy_or", seed=0, cfg=cfg, sizes=(64, 32, 64))
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )

    def test_report_config_holds_the_train_config_fields(self, tiny_run):
        report, _, _ = tiny_run
        config = report.to_dict()["config"]
        assert tuple(config) == _field_names(TrainConfig)
        assert config["hidden_sizes"] == [16, 16]
        assert config["projection"] == report.config.projection.to_dict()
        projection = Projection.from_dict(config["projection"])
        assert TrainConfig(**{**config, "projection": projection}) == report.config

    def test_report_carries_all_splits(self, tiny_run):
        report, _, datasets = tiny_run
        assert set(report.metrics) == {"train", "val", "test"}
        assert {split: len(ds) for split, ds in datasets.items()} == {
            "train": 64, "val": 32, "test": 64,
        }

    def test_seed_mismatch_is_resolved_in_favour_of_the_argument(self, tiny_run):
        report, _, _ = tiny_run
        other, _, _ = run_experiment("fuzzy_or", seed=1, cfg=report.config, sizes=(64, 32, 64))
        assert other.seed == 1
        assert other.config.seed == 1

    def test_render_text_shape(self, tiny_run):
        report, _, _ = tiny_run
        text = report.render_text()
        assert "split  accuracy  coherency" in text
        assert "variant   class  fidelity  formula" in text
        for split in ("train", "val", "test"):
            assert f"\n{split}" in text

    def test_write_artifacts(self, tiny_run, tmp_path):
        report, model, datasets = tiny_run
        written = write_artifacts(report, model, datasets, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == [
            "model.json", "report.json", "report.txt", "test.csv", "train.csv", "val.csv",
        ]
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["setting"] == "fuzzy_or"
        model_doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert model_doc["node"] == "mlp"
