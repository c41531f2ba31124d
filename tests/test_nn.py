"""Network initialisation, gradients, training, and the frozen wrapper.

Gradient checks use models with randomised biases: with zero biases
and projected (vertex) inputs the piecewise-linear hidden units sit
exactly on their kink, where central differences average the two
one-sided slopes and disagree with either of them.  That is a property
of finite differencing at a non-smooth point, not of the gradients.
"""

import numpy as np
import pytest

from cohexp import (
    MlpExpr,
    MlpModel,
    Projection,
    SerializationError,
    TrainConfig,
    TrainingError,
    ValidationError,
    forward,
    from_dict,
    gradient_check,
    init_model,
    loss,
    loss_and_grads,
    to_dict,
    train,
)
from cohexp import nn
from cohexp.experiments import make_dataset


def random_model(rng, in_arity=2, hidden=(4, 3), out_arity=1):
    model = init_model(in_arity, hidden, out_arity, rng)
    for b in model.biases:
        b += rng.uniform(-0.3, 0.3, size=b.shape)
    model.slopes += rng.uniform(-0.1, 0.1, size=model.slopes.shape)
    return model


def small_batch(rng, in_arity=2, count=16):
    xs = rng.random((count, in_arity))
    ys = rng.integers(0, 2, (count, 1)).astype(np.float64)
    return xs, ys


class TestInit:
    def test_deterministic_from_seed(self):
        a = init_model(2, (4,), 1, np.random.default_rng(3))
        b = init_model(2, (4,), 1, np.random.default_rng(3))
        for va, vb in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(va, vb)

    def test_shapes_and_ranges(self):
        model = init_model(3, (5, 4), 2, np.random.default_rng(0))
        assert [w.shape for w in model.weights] == [(5, 3), (4, 5), (2, 4)]
        assert [b.shape for b in model.biases] == [(5,), (4,), (2,)]
        assert model.slopes.shape == (2,)
        assert np.all(model.slopes == 0.25)
        for w, fan in zip(model.weights, [(3, 5), (5, 4), (4, 2)]):
            lim = np.sqrt(6.0 / sum(fan))
            assert np.all(np.abs(w) <= lim)
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_signature(self):
        model = init_model(3, (5,), 2, np.random.default_rng(0))
        assert model.in_arity == 3 and model.out_arity == 2

    def test_copy_is_deep(self):
        model = init_model(2, (3,), 1, np.random.default_rng(1))
        clone = model.copy()
        clone.weights[0][0, 0] += 1.0
        assert model.weights[0][0, 0] != clone.weights[0][0, 0]


class TestForward:
    def test_outputs_are_probabilities(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        out = forward(model, rng.random((64, 2)))
        assert out.shape == (64, 1)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        xs = rng.random((16, 2))
        assert np.array_equal(forward(model, xs), forward(model, xs))


class TestGradients:
    def test_plain_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = TrainConfig(hidden_sizes=(4, 3), weight_decay=1e-4)
        model = random_model(rng)
        xs, ys = small_batch(rng)
        assert gradient_check(model, xs, ys, cfg) < 1e-6

    def test_coherence_penalty_gradients_match(self):
        rng = np.random.default_rng(12)
        cfg = TrainConfig(hidden_sizes=(4, 3), weight_decay=1e-4, coherence_lambda=0.7)
        model = random_model(rng)
        xs, ys = small_batch(rng)
        assert gradient_check(model, xs, ys, cfg) < 1e-6

    def test_loss_decomposition(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        xs, ys = small_batch(rng)
        bare = loss(model, xs, ys, TrainConfig(hidden_sizes=(4, 3), weight_decay=0.0))
        with_wd = loss(model, xs, ys, TrainConfig(hidden_sizes=(4, 3), weight_decay=0.1))
        penalty = 0.1 * sum(float(np.sum(w * w)) for w in model.weights)
        assert with_wd == pytest.approx(bare + penalty)

    def test_coherence_term_vanishes_on_projected_inputs(self):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        d = Projection.threshold(0.5)
        xs = d.apply(rng.random((16, 2)))
        ys = rng.integers(0, 2, (16, 1)).astype(np.float64)
        without = loss(model, xs, ys, TrainConfig(hidden_sizes=(4, 3), weight_decay=0.0))
        with_pen = loss(
            model, xs, ys,
            TrainConfig(hidden_sizes=(4, 3), weight_decay=0.0, coherence_lambda=5.0),
        )
        assert with_pen == pytest.approx(without)

    def test_grads_cover_every_parameter(self):
        rng = np.random.default_rng(15)
        model = random_model(rng)
        xs, ys = small_batch(rng)
        _, grads = loss_and_grads(model, xs, ys, TrainConfig(hidden_sizes=(4, 3)))
        shapes = [g.shape for g in grads]
        expected = [w.shape for w in model.weights] + [b.shape for b in model.biases]
        expected.append(model.slopes.shape)
        assert shapes == expected


def three_pass_loss_and_grads(model, xs, ys, cfg):
    """The penalised step as it was first written: separate forward
    passes on ``x`` and ``d(x)`` and three backward passes (BCE, penalty
    at ``x``, penalty at ``d(x)``) summed per parameter.  Kept as the
    reference the one-pass step is checked against."""
    n_items = ys.size
    out, cache = nn._forward_cache(model, xs)
    logits = cache[-1][1]
    total = float(np.mean(np.logaddexp(0.0, logits) - ys * logits))
    grads = nn._backward(model, cache, (out - ys) / n_items)
    out_fix, cache_fix = nn._forward_cache(model, cfg.projection.apply(xs))
    diff = out - out_fix
    total += cfg.coherence_lambda * float(np.mean(np.abs(diff)))
    s = cfg.coherence_lambda * np.sign(diff) / n_items
    g_main = nn._backward(model, cache, s * out * (1.0 - out))
    g_fix = nn._backward(model, cache_fix, -s * out_fix * (1.0 - out_fix))
    for acc, g1, g2 in zip(grads, g_main, g_fix):
        acc += g1 + g2
    for i, w in enumerate(model.weights):
        total += cfg.weight_decay * float(np.sum(w * w))
        grads[i] += 2.0 * cfg.weight_decay * w
    return total, grads


def masked_sigmoid(z):
    """The two-branch sigmoid with a boolean gather and scatter."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestPenalisedStep:
    @pytest.mark.parametrize("hidden", [(16, 16), (3,), (4, 3)])
    @pytest.mark.parametrize("count", [1, 7, 32])
    @pytest.mark.parametrize("out_arity", [1, 2])
    @pytest.mark.parametrize(
        "projection", [Projection.threshold(0.5), Projection.quantize(3)], ids=["thr", "q3"]
    )
    def test_matches_three_pass_reference(self, hidden, count, out_arity, projection):
        rng = np.random.default_rng(31)
        model = random_model(rng, hidden=hidden, out_arity=out_arity)
        xs = rng.random((count, 2))
        ys = rng.integers(0, 2, (count, out_arity)).astype(np.float64)
        cfg = TrainConfig(
            hidden_sizes=hidden, weight_decay=1e-3, coherence_lambda=0.7, projection=projection
        )
        value, grads = loss_and_grads(model, xs, ys, cfg)
        ref_value, ref_grads = three_pass_loss_and_grads(model, xs, ys, cfg)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert [g.shape for g in grads] == [g.shape for g in ref_grads]
        for got, ref in zip(grads, ref_grads):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("out_arity", [1, 2])
    def test_unpenalised_step_is_one_plain_pass(self, out_arity):
        rng = np.random.default_rng(32)
        model = random_model(rng, hidden=(16, 16), out_arity=out_arity)
        xs = rng.random((32, 2))
        ys = rng.integers(0, 2, (32, out_arity)).astype(np.float64)
        value, grads = loss_and_grads(model, xs, ys, TrainConfig(weight_decay=0.0))
        out, cache = nn._forward_cache(model, xs)
        logits = cache[-1][1]
        expected = nn._backward(model, cache, (out - ys) / ys.size)
        assert value == float(np.mean(np.logaddexp(0.0, logits) - ys * logits))
        for got, ref in zip(grads, expected):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_one_forward_and_one_backward_per_call(self, lam, monkeypatch):
        calls = {"forward": 0, "backward": 0}
        forward_cache, backward = nn._forward_cache, nn._backward

        def counted_forward(*args):
            calls["forward"] += 1
            return forward_cache(*args)

        def counted_backward(*args):
            calls["backward"] += 1
            return backward(*args)

        monkeypatch.setattr(nn, "_forward_cache", counted_forward)
        monkeypatch.setattr(nn, "_backward", counted_backward)
        rng = np.random.default_rng(33)
        xs, ys = small_batch(rng)
        loss_and_grads(random_model(rng), xs, ys, TrainConfig(coherence_lambda=lam))
        assert calls == {"forward": 1, "backward": 1}

    def test_sigmoid_matches_masked_two_branch_formula(self):
        tiny = np.finfo(np.float64).tiny
        special = np.array([
            0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, tiny / 2, -tiny / 2, tiny, -tiny,
            745.0, -745.0, 746.0, -746.0, 709.8, -709.8, 36.0, -36.0, 1e308, -1e308,
        ])
        rng = np.random.default_rng(34)
        finite = np.concatenate([
            rng.normal(0.0, 4.0, 4000), rng.normal(0.0, 300.0, 4000), rng.uniform(-1e-300, 1e-300, 100)
        ])
        for z in (special, finite, finite.reshape(-1, 2), special.reshape(-1, 4)):
            got = nn._sigmoid(z)
            assert got.shape == z.shape and got.dtype == z.dtype
            assert got.tobytes() == masked_sigmoid(z).tobytes()


class TestTrain:
    def test_zero_learning_rate_returns_initialisation(self):
        train_set = make_dataset("xor", "train", 64, seed=0)
        val_set = make_dataset("xor", "val", 32, seed=0)
        cfg = TrainConfig(hidden_sizes=(4,), learning_rate=0.0, epochs=3, seed=5)
        result = train(cfg, train_set, val_set)
        fresh = init_model(2, (4,), 1, np.random.default_rng(5))
        for got, want in zip(result.model.weights, fresh.weights):
            assert np.array_equal(got, want)
        assert result.best_epoch == 0

    def test_deterministic_for_a_seed(self):
        train_set = make_dataset("xor", "train", 128, seed=1)
        val_set = make_dataset("xor", "val", 64, seed=1)
        cfg = TrainConfig(hidden_sizes=(6,), epochs=10, seed=9)
        a = train(cfg, train_set, val_set)
        b = train(cfg, train_set, val_set)
        for va, vb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(va, vb)
        assert a.best_val_accuracy == b.best_val_accuracy

    def test_divergence_raises_naming_the_epoch(self):
        train_set = make_dataset("xor", "train", 64, seed=0)
        val_set = make_dataset("xor", "val", 32, seed=0)
        cfg = TrainConfig(hidden_sizes=(4,), learning_rate=0.2, weight_decay=1e3, epochs=50)
        with pytest.raises(TrainingError, match=r"diverged at epoch \d+"):
            train(cfg, train_set, val_set)

    def test_learns_xor_with_default_config(self):
        from cohexp.experiments import default_train_config

        train_set = make_dataset("xor", "train", 1000, seed=0)
        val_set = make_dataset("xor", "val", 250, seed=0)
        result = train(default_train_config("xor", seed=0), train_set, val_set)
        assert result.best_val_accuracy >= 0.99

    def test_learns_bounded_sum_or(self):
        from cohexp.experiments import default_train_config

        train_set = make_dataset("fuzzy_or", "train", 1000, seed=0)
        val_set = make_dataset("fuzzy_or", "val", 250, seed=0)
        result = train(default_train_config("fuzzy_or", seed=0), train_set, val_set)
        assert result.best_val_accuracy >= 0.95

    def test_early_stopping(self):
        train_set = make_dataset("xor", "train", 64, seed=0)
        val_set = make_dataset("xor", "val", 32, seed=0)
        cfg = TrainConfig(
            hidden_sizes=(2,), learning_rate=0.0, epochs=100, early_stopping_patience=3
        )
        result = train(cfg, train_set, val_set)
        assert result.stopped_early
        assert result.epochs_run == 3

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValidationError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValidationError):
            TrainConfig(hidden_sizes=())


class TestMlpExpr:
    def test_wraps_and_freezes_parameters(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        expr = MlpExpr.from_model(model)
        with pytest.raises(ValueError):
            expr.model.weights[0][0, 0] = 1.0
        # later mutation of the source does not leak into the wrapper
        xs = rng.random((8, 2))
        before = expr.eval_batch(xs)
        model.weights[0] += 10.0
        assert np.array_equal(expr.eval_batch(xs), before)

    def test_signature_matches_model(self):
        model = init_model(3, (4,), 2, np.random.default_rng(0))
        expr = MlpExpr.from_model(model)
        assert expr.in_arity == 3 and expr.out_arity == 2

    def test_serialisation_round_trip(self):
        rng = np.random.default_rng(22)
        expr = MlpExpr.from_model(random_model(rng))
        clone = from_dict(to_dict(expr))
        xs = rng.random((32, 2))
        assert np.array_equal(clone.eval_batch(xs), expr.eval_batch(xs))

    def test_overflow_is_a_coded_error_without_warnings(self):
        """The network overflows silently; ``eval_batch`` refuses the
        non-finite outputs (RuntimeWarnings fail the suite)."""
        model = nn.MlpModel(
            [np.array([[1e308, 1e308], [1e308, -1e308]]), np.array([[1e308, -1e308]])],
            [np.zeros(2), np.zeros(1)],
            np.array([0.25]),
        )
        expr = MlpExpr.from_model(model)
        with pytest.raises(ValidationError, match="non-finite"):
            expr.eval_batch(np.array([[0.5, 0.5], [0.9, 0.9]]))

    def test_weights_ref_must_be_resolved_first(self):
        with pytest.raises(SerializationError, match="weights_ref"):
            from_dict({"node": "mlp", "in_arity": 2, "out_arity": 1, "weights_ref": "w.json"})

    @pytest.mark.parametrize(
        "layer, activation",
        [(0, "relu"), (0, "tanh"), (0, "sigmoid"), (1, "relu"), (1, "tanh"), (1, "prelu")],
    )
    def test_unsupported_activation_rejected(self, layer, activation):
        """Hidden layers are PReLU and the output layer is sigmoid; a
        document declaring anything else is refused, not evaluated as
        PReLU/sigmoid under another name."""
        doc = init_model(1, (1,), 1, np.random.default_rng(3)).to_dict()
        doc["layers"][layer]["activation"] = activation
        with pytest.raises(SerializationError, match="activation") as exc:
            MlpModel.from_dict(doc)
        assert exc.value.code == "E_FORMAT"
        with pytest.raises(SerializationError, match="activation"):
            from_dict({"node": "mlp", "in_arity": 1, "out_arity": 1, "model": doc})

    @pytest.mark.parametrize("key", ["weights", "bias", "slope"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, key, value):
        doc = init_model(2, (3,), 1, np.random.default_rng(6)).to_dict()
        if key == "weights":
            doc["layers"][1]["weights"][0][2] = value
        elif key == "bias":
            doc["layers"][0]["bias"][1] = value
        else:
            doc["layers"][0]["slope"] = value
        with pytest.raises(SerializationError, match="finite") as exc:
            MlpModel.from_dict(doc)
        assert exc.value.code == "E_FORMAT"
        with pytest.raises(SerializationError, match="finite"):
            from_dict({"node": "mlp", "in_arity": 2, "out_arity": 1, "model": doc})

    def test_activation_key_is_optional(self):
        model = init_model(2, (3, 2), 1, np.random.default_rng(4))
        doc = model.to_dict()
        for layer in doc["layers"]:
            del layer["activation"]
        xs = np.random.default_rng(5).random((8, 2))
        assert np.array_equal(forward(MlpModel.from_dict(doc), xs), forward(model, xs))

    def test_model_document_shape(self):
        model = init_model(2, (3,), 1, np.random.default_rng(1))
        doc = model.to_dict()
        assert len(doc["layers"]) == 2
        assert doc["layers"][0]["activation"] == "prelu"
        assert doc["layers"][1]["activation"] == "sigmoid"
        again = MlpModel.from_dict(doc)
        xs = np.random.default_rng(2).random((8, 2))
        assert np.array_equal(forward(again, xs), forward(model, xs))
