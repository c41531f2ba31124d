"""Network initialisation, gradients, training, and the frozen wrapper.

Gradient checks use models with randomised biases: with zero biases
and projected (vertex) inputs the piecewise-linear hidden units sit
exactly on their kink, where central differences average the two
one-sided slopes and disagree with either of them.  That is a property
of finite differencing at a non-smooth point, not of the gradients.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cohexp import (
    CapacityError,
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


def per_array(model, buffer):
    """The weight, bias and slope arrays of ``buffer``, a flat array
    laid out like ``model.params``, in that order."""
    weights, biases, slopes = model.views(buffer)
    return [*weights, *biases, slopes]


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

    def test_network_over_the_cap_is_refused_before_drawing(self):
        """Two layers of 10**6 units would need 7.28 TiB of weights."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(CapacityError, match="network of 1000005000003 parameters exceeds"):
            init_model(2, (1_000_000, 1_000_000), 1, rng)
        assert rng.bit_generator.state == state

    def test_parameter_cap_counts_weights_biases_and_slopes(self, monkeypatch):
        assert nn._MAX_PARAMETERS == 4_194_304
        monkeypatch.setattr(nn, "_MAX_PARAMETERS", 339)  # the default network
        assert init_model(2, (16, 16), 1, np.random.default_rng(0)).slopes.shape == (2,)
        with pytest.raises(CapacityError, match="network of 356 parameters exceeds the cap of 339"):
            init_model(2, (16, 16), 2, np.random.default_rng(0))
        monkeypatch.setattr(nn, "_MAX_PARAMETERS", 338)
        with pytest.raises(CapacityError, match="network of 339 parameters"):
            init_model(2, (16, 16), 1, np.random.default_rng(0))

    def test_copy_is_deep(self):
        model = init_model(2, (3,), 1, np.random.default_rng(1))
        clone = model.copy()
        clone.weights[0][0, 0] += 1.0
        assert model.weights[0][0, 0] != clone.weights[0][0, 0]


class TestParameterBuffer:
    def test_constructor_does_not_alias_the_given_arrays(self):
        weights = [np.ones((3, 2)), np.full((1, 3), 2.0)]
        biases = [np.zeros(3), np.zeros(1)]
        slopes = np.array([0.25])
        model = MlpModel(weights, biases, slopes)
        held = [*model.weights, *model.biases, model.slopes]
        for given, arr in zip([*weights, *biases, slopes], held):
            assert not np.shares_memory(given, arr)
            assert np.array_equal(given, arr)
        model.params[:] = 9.0
        assert all(np.all(a == v) for a, v in zip(weights, (1.0, 2.0)))
        assert not biases[0].any() and slopes[0] == 0.25

    def test_one_float64_buffer_weights_then_biases_then_slopes(self):
        model = random_model(np.random.default_rng(2), 3, (5, 4), 2)
        assert model.params.dtype == np.float64 and model.params.flags.owndata
        held = [*model.weights, *model.biases, model.slopes]
        assert model.params.tobytes() == b"".join(a.tobytes() for a in held)
        assert model.n_weights == sum(w.size for w in model.weights) == 43
        for arr in held:
            assert arr.base is model.params

    def test_integer_arrays_become_float64(self):
        weights, biases = [np.ones((2, 1), dtype=np.int64)], [np.zeros(2, dtype=np.int32)]
        model = MlpModel(weights, biases, np.array([]))
        assert model.params.dtype == np.float64 and model.params.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_params_and_arrays_are_one_memory(self):
        model = random_model(np.random.default_rng(3))
        model.params[0] = 7.0
        model.params[model.n_weights] = -3.0
        assert model.weights[0][0, 0] == 7.0 and model.biases[0][0] == -3.0
        model.weights[-1] *= 0.0
        model.slopes[:] = 1.5
        end = model.n_weights
        assert not model.params[end - model.weights[-1].size : end].any()
        assert np.all(model.params[-model.slopes.size :] == 1.5)

    def test_views_lay_a_buffer_out_like_params(self):
        model = random_model(np.random.default_rng(5))
        buffer = np.arange(model.params.size, dtype=np.float64)
        arrays = per_array(model, buffer)
        assert [a.shape for a in arrays] == [a.shape for a in per_array(model, model.params)]
        assert all(a.base is buffer for a in arrays)
        assert np.concatenate([a.ravel() for a in arrays]).tolist() == buffer.tolist()


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

    @pytest.mark.parametrize("slope", [1e-300, 0.25, 0.999, 1.0, 1.0000001, 2.0])
    def test_prelu_matches_select_by_sign_bit_for_bit(self, slope):
        """For a positive slope the larger or smaller of ``z`` and
        ``slope * z`` is what selecting by the sign of ``z`` gives, down
        to signed zeros, infinities, subnormals and NaN."""
        tiny = np.finfo(np.float64).tiny
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny]
        z = np.concatenate([special, np.random.default_rng(7).normal(size=100_000)]).reshape(-1, 3)
        got = nn._prelu(z, np.float64(slope))
        assert got.view(np.uint64).tobytes() == np.where(z > 0, z, slope * z).view(np.uint64).tobytes()

    @pytest.mark.parametrize("slope", [-0.5, 0.0])
    def test_non_positive_slopes_select_by_sign(self, slope):
        """Neither the larger nor the smaller of ``z`` and ``slope * z``
        is the activation here (at slope 0, ``inf`` gives ``inf``, not
        ``0 * inf``); an MLP gives what a forward pass selecting by sign
        gives."""
        z = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324])
        with np.errstate(invalid="ignore"):  # 0 * inf
            assert nn._prelu(z, np.float64(slope)).tobytes() == np.where(z > 0, z, slope * z).tobytes()
        rng = np.random.default_rng(8)
        model = random_model(rng, 3, (5, 4), 2)
        model.slopes[:] = slope
        xs = np.concatenate([rng.normal(size=(500, 3)), np.zeros((1, 3)), -np.zeros((1, 3))])
        a = xs
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = a @ w.T + b
            a = np.where(z > 0, z, slope * z)
        expected = nn._sigmoid(a @ model.weights[-1].T + model.biases[-1])
        assert forward(model, xs).tobytes() == expected.tobytes()


    @pytest.mark.parametrize("hidden", [(), (5,), (5, 4, 3)])
    def test_forward_is_the_cached_pass_without_its_cache(self, hidden):
        """``forward`` and training's cached pass run one layer loop: the
        same output bits, and the cache holds every layer's input and
        pre-activation, which ``forward`` frees as it goes."""
        rng = np.random.default_rng(9)
        model = random_model(rng, 3, hidden, 2)
        xs = rng.random((300, 3))
        out, cache = nn._forward_cache(model, xs)
        assert forward(model, xs).tobytes() == out.tobytes()
        assert len(cache) == len(hidden) + 1 and cache[0][0] is xs
        for (a, z), w, b in zip(cache, model.weights, model.biases):
            assert z.tobytes() == (a @ w.T + b).tobytes()


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
        bare = loss_and_grads(model, xs, ys, TrainConfig(hidden_sizes=(4, 3), weight_decay=0.0))[0]
        with_wd = loss_and_grads(model, xs, ys, TrainConfig(hidden_sizes=(4, 3), weight_decay=0.1))[0]
        penalty = 0.1 * sum(float(np.sum(w * w)) for w in model.weights)
        assert with_wd == pytest.approx(bare + penalty)

    def test_coherence_term_vanishes_on_projected_inputs(self):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        d = Projection.threshold(0.5)
        xs = d.apply(rng.random((16, 2)))
        ys = rng.integers(0, 2, (16, 1)).astype(np.float64)
        without = loss_and_grads(model, xs, ys, TrainConfig(hidden_sizes=(4, 3), weight_decay=0.0))[0]
        with_pen = loss_and_grads(
            model, xs, ys,
            TrainConfig(hidden_sizes=(4, 3), weight_decay=0.0, coherence_lambda=5.0),
        )[0]
        assert with_pen == pytest.approx(without)

    def test_grads_cover_every_parameter(self):
        rng = np.random.default_rng(15)
        model = random_model(rng)
        xs, ys = small_batch(rng)
        _, grads = loss_and_grads(model, xs, ys, TrainConfig(hidden_sizes=(4, 3)))
        assert grads.shape == model.params.shape and grads.dtype == np.float64
        assert np.all(np.isfinite(grads)) and np.all(grads[model.n_weights :] != 0.0)
        shapes = [g.shape for g in per_array(model, grads)]
        expected = [w.shape for w in model.weights] + [b.shape for b in model.biases]
        expected.append(model.slopes.shape)
        assert shapes == expected

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_weight_decay_gradient_is_the_per_layer_term(self, lam):
        """Weight decay adds ``2 * weight_decay * w`` to each layer's
        weight gradient, bit for bit, and leaves biases and slopes."""
        rng = np.random.default_rng(16)
        model = random_model(rng, 3, (5, 4), 2)
        xs, ys = small_batch(rng, 3)
        ys = np.concatenate([ys, 1.0 - ys], axis=1)
        wd = 3e-3
        _, grads = loss_and_grads(
            model, xs, ys, TrainConfig(hidden_sizes=(5, 4), weight_decay=0.0, coherence_lambda=lam)
        )
        _, got = loss_and_grads(
            model, xs, ys, TrainConfig(hidden_sizes=(5, 4), weight_decay=wd, coherence_lambda=lam)
        )
        weight_grads, _, _ = model.views(grads)
        for w, g in zip(model.weights, weight_grads):
            g += 2.0 * wd * w
        assert got.tobytes() == grads.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_each_call_returns_a_fresh_gradient(self, lam):
        """``gradient_check`` keeps the analytic gradient of its first
        call while it makes the finite-difference calls."""
        rng = np.random.default_rng(17)
        model = random_model(rng)
        cfg = TrainConfig(hidden_sizes=(4, 3), coherence_lambda=lam)
        _, first = loss_and_grads(model, *small_batch(rng), cfg)
        kept = first.copy()
        _, second = loss_and_grads(model, *small_batch(rng), cfg)
        assert second is not first and not np.shares_memory(first, second)
        assert not np.shares_memory(first, model.params)
        assert first.tobytes() == kept.tobytes() != second.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_overflow_is_a_non_finite_loss_without_warnings(self, lam):
        """A public call enters its own error state; warnings are errors
        under this suite's settings."""
        rng = np.random.default_rng(18)
        model = random_model(rng)
        model.params *= 1e200
        value, _ = loss_and_grads(model, *small_batch(rng), TrainConfig(coherence_lambda=lam))
        assert not math.isfinite(value)


def three_pass_loss_and_grads(model, xs, ys, cfg):
    """The penalised step as it was first written: separate forward
    passes on ``x`` and ``d(x)`` and three backward passes (BCE, penalty
    at ``x``, penalty at ``d(x)``) summed per parameter.  Kept as the
    reference the one-pass step is checked against."""
    n_items = ys.size
    grads, g_main, g_fix = (np.empty_like(model.params) for _ in range(3))
    out, cache = nn._forward_cache(model, xs)
    logits = cache[-1][1]
    total = float(np.mean(np.logaddexp(0.0, logits) - ys * logits))
    nn._backward(model, cache, (out - ys) / n_items, model.views(grads))
    out_fix, cache_fix = nn._forward_cache(model, cfg.projection.apply(xs))
    diff = out - out_fix
    total += cfg.coherence_lambda * float(np.mean(np.abs(diff)))
    s = cfg.coherence_lambda * np.sign(diff) / n_items
    nn._backward(model, cache, s * out * (1.0 - out), model.views(g_main))
    nn._backward(model, cache_fix, -s * out_fix * (1.0 - out_fix), model.views(g_fix))
    arrays = per_array(model, grads)
    for acc, g1, g2 in zip(arrays, per_array(model, g_main), per_array(model, g_fix)):
        acc += g1 + g2
    for w, g in zip(model.weights, arrays):
        total += cfg.weight_decay * float(np.sum(w * w))
        g += 2.0 * cfg.weight_decay * w
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
        assert grads.shape == ref_grads.shape == model.params.shape
        for got, ref in zip(per_array(model, grads), per_array(model, ref_grads)):
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
        expected = np.empty_like(model.params)
        nn._backward(model, cache, (out - ys) / ys.size, model.views(expected))
        assert value == float(np.mean(np.logaddexp(0.0, logits) - ys * logits))
        assert grads.tobytes() == expected.tobytes()

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

    def test_network_over_the_cap_is_refused(self):
        train_set = make_dataset("xor", "train", 16, seed=0)
        val_set = make_dataset("xor", "val", 8, seed=0)
        cfg = TrainConfig(hidden_sizes=(1_000_000, 1_000_000))
        with pytest.raises(CapacityError, match="exceeds the cap of 4194304"):
            train(cfg, train_set, val_set)

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
        with pytest.raises(TrainingError, match=r"^training diverged at epoch 5: non-finite loss$"):
            train(cfg, train_set, val_set)

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(coherence_lambda=1.0), "epoch 5: non-finite loss"),
            (dict(batch_size=13), "epoch 2: non-finite loss"),
            # one step an epoch, whose update overflows: the overflow is
            # part of the divergence, and the parameter check reports it
            (dict(learning_rate=1e306, batch_size=64), "epoch 1: non-finite parameters"),
            (
                dict(learning_rate=1e306, batch_size=64, coherence_lambda=1.0),
                "epoch 1: non-finite parameters",
            ),
        ],
    )
    def test_divergence_names_the_epoch_and_the_check(self, settings, message):
        """Training steps raise no warning, which this suite's settings
        would make an error."""
        train_set = make_dataset("xor", "train", 64, seed=0)
        val_set = make_dataset("xor", "val", 32, seed=0)
        cfg = TrainConfig(**{"hidden_sizes": (4,), "weight_decay": 1e3, "epochs": 50, **settings})
        with pytest.raises(TrainingError, match=f"^training diverged at {message}$"):
            train(cfg, train_set, val_set)

    def test_validation_pass_does_not_warn(self):
        """The validation pass runs in the error state of the training
        steps: parameters that overflow first there are reported
        diverged by the next step, with no warning."""
        train_set = make_dataset("xor", "train", 64, seed=0)
        val_set = make_dataset("xor", "val", 32, seed=0)
        cfg = TrainConfig(
            hidden_sizes=(4,), learning_rate=1e308, weight_decay=0.0, batch_size=64, epochs=50
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=r"^training diverged at epoch 2: non-finite loss$"):
                train(cfg, train_set, val_set)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("n, batch_size", [(64, 32), (70, 13), (5, 8)])
    def test_one_loss_and_grads_call_per_minibatch(self, n, batch_size, lam, monkeypatch):
        """``train`` calls ``nn.loss_and_grads`` by its module name once
        a step, the ragged last batch included, so a wrapper around it
        sees every step."""
        sizes = []
        step = nn.loss_and_grads

        def counted(model, xs, ys, cfg, **kwargs):
            sizes.append(len(ys))
            return step(model, xs, ys, cfg, **kwargs)

        monkeypatch.setattr(nn, "loss_and_grads", counted)
        train_set = make_dataset("xor", "train", n, seed=0)
        val_set = make_dataset("xor", "val", 16, seed=0)
        cfg = TrainConfig(hidden_sizes=(3,), epochs=4, batch_size=batch_size, coherence_lambda=lam)
        result = train(cfg, train_set, val_set)
        assert result.epochs_run == 4
        assert len(sizes) == result.epochs_run * math.ceil(n / batch_size)
        assert sizes == [min(batch_size, n - lo) for lo in range(0, n, batch_size)] * 4

    def test_stacked_layout_puts_each_batch_over_its_projections(self):
        rows = np.concatenate([np.arange(7), 10 + np.arange(7)])  # x_j = j, d(x_j) = 10 + j
        laid = rows[nn._stacked_layout(7, 3)]
        assert laid.tolist() == [0, 1, 2, 10, 11, 12, 3, 4, 5, 13, 14, 15, 6, 16]

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
        with pytest.raises(ValidationError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 2.5), ("seed", 1.5), ("batch_size", "32"), ("hidden_sizes", (16.0,)),
         ("hidden_sizes", 16), ("early_stopping_patience", 4.0), ("learning_rate", "0.1"),
         ("weight_decay", float("nan")), ("coherence_lambda", True), ("epochs", True),
         ("projection", "threshold")],
    )
    def test_config_fields_are_checked_not_converted(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})

    def test_config_keeps_exact_field_types(self):
        cfg = TrainConfig(hidden_sizes=[np.int64(4), 3], epochs=np.int64(7), learning_rate=1)
        assert cfg.hidden_sizes == (4, 3) and type(cfg.hidden_sizes[0]) is int
        assert type(cfg.epochs) is int and type(cfg.learning_rate) is float

    def test_features_and_labels_required(self):
        """``train`` reads a dataset's ``features`` and ``labels``; any
        other input, such as a bare ``(X, y)`` pair, is refused."""
        val_set = make_dataset("xor", "val", 8, seed=0)
        pair = (np.zeros((8, 2)), np.zeros(8))
        with pytest.raises(ValidationError, match="features and labels"):
            train(TrainConfig(hidden_sizes=(2,), epochs=1), pair, val_set)


def per_array_train(cfg, train_set, val_set):
    """``train`` as a per-array SGD loop: each step gathers its rows by
    index, reads the flat gradient ``loss_and_grads`` returns through
    per-array views and updates every parameter array on its own.  Kept
    as the reference the flat-buffer loop is checked against bit for
    bit."""
    xs, ys = nn._as_xy(train_set)
    xv, yv = nn._as_xy(val_set)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(xs.shape[1], cfg.hidden_sizes, ys.shape[1], rng)
    best = model.copy()
    best_acc = nn._val_accuracy(model, xv, yv, cfg.projection)
    best_epoch = epochs_run = 0
    patience_left = cfg.early_stopping_patience
    n = xs.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            _, grads = loss_and_grads(model, xs[idx], ys[idx], cfg)
            for param, grad in zip(per_array(model, model.params), per_array(model, grads)):
                param -= cfg.learning_rate * grad
        acc = nn._val_accuracy(model, xv, yv, cfg.projection)
        if acc > best_acc:
            best_acc, best, best_epoch = acc, model.copy(), epoch
            patience_left = cfg.early_stopping_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    return best, best_epoch, epochs_run


def two_output_split(seed, size):
    """Points of the square labelled by two outputs: OR and AND of the
    thresholded coordinates."""
    xs = np.random.default_rng(seed).random((size, 2))
    bits = xs >= 0.5
    labels = np.stack([bits.any(axis=1), bits.all(axis=1)], axis=1).astype(np.float64)
    return SimpleNamespace(features=xs, labels=labels)


FLAT_CASES = {
    "penalised": dict(coherence_lambda=1.0),
    "plain": dict(coherence_lambda=0.0),
    "no-decay": dict(coherence_lambda=1.0, weight_decay=0.0),
    "decay-1e-3": dict(coherence_lambda=0.0, weight_decay=1e-3),
    "quantize3": dict(coherence_lambda=1.0, projection=Projection.quantize(3)),
    "two-outputs": dict(coherence_lambda=1.0),
    "one-hidden-layer": dict(hidden_sizes=(5,), coherence_lambda=1.0),
    "ragged-batches": dict(batch_size=13, coherence_lambda=1.0),
    "no-epochs": dict(epochs=0),
    "early-stop": dict(learning_rate=0.5, epochs=60, early_stopping_patience=3),
}


class TestFlatBufferTraining:
    @pytest.mark.parametrize("case", sorted(FLAT_CASES))
    def test_same_bits_as_the_per_array_loop(self, case, monkeypatch):
        """The returned model, ``best_epoch`` and ``epochs_run`` match, and
        so do the parameters at every validation, so a case whose best
        model is its initialisation still compares every step."""
        cfg = TrainConfig(**{"hidden_sizes": (6, 4), "epochs": 12, "seed": 4, **FLAT_CASES[case]})
        if case == "two-outputs":
            train_set, val_set = two_output_split(0, 70), two_output_split(1, 30)
        else:
            train_set = make_dataset("xor", "train", 70, seed=2)
            val_set = make_dataset("xor", "val", 30, seed=2)
        seen = []
        val_accuracy = nn._val_accuracy

        def recorded(model, *args):
            seen.append(b"".join(p.tobytes() for p in per_array(model, model.params)))
            return val_accuracy(model, *args)

        monkeypatch.setattr(nn, "_val_accuracy", recorded)
        result = train(cfg, train_set, val_set)
        got_seen, seen[:] = seen[:], []
        ref, ref_best_epoch, ref_epochs_run = per_array_train(cfg, train_set, val_set)
        got_views = per_array(result.model, result.model.params)
        ref_views = per_array(ref, ref.params)
        assert [v.shape for v in got_views] == [v.shape for v in ref_views]
        for got, want in zip(got_views, ref_views):
            assert got.tobytes() == want.tobytes()
        assert (result.best_epoch, result.epochs_run) == (ref_best_epoch, ref_epochs_run)
        assert got_seen == seen and len(seen) == result.epochs_run + 1
        if case == "early-stop":
            assert result.stopped_early and result.epochs_run < cfg.epochs
        if cfg.epochs:
            assert seen[-1] != seen[0]  # the parameters moved

    def test_returned_arrays_share_no_memory(self, monkeypatch):
        """The returned ``params`` owns its data and shares no memory
        with the model that training updated."""
        made = []

        def captured(*args):
            made.append(init_model(*args))
            return made[-1]

        monkeypatch.setattr(nn, "init_model", captured)
        train_set = make_dataset("xor", "train", 40, seed=0)
        val_set = make_dataset("xor", "val", 20, seed=0)
        model = train(TrainConfig(hidden_sizes=(4, 3), epochs=3), train_set, val_set).model
        (trained,) = made
        assert model.params.flags.owndata
        assert not np.shares_memory(model.params, trained.params)
        for arr in per_array(trained, trained.params):
            assert not np.shares_memory(model.params, arr)


class TestMlpExpr:
    def test_wraps_and_freezes_parameters(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        expr = MlpExpr(model)
        with pytest.raises(ValueError):
            expr.model.weights[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            expr.model.params[0] = 1.0
        for arr in per_array(expr.model, expr.model.params):
            with pytest.raises(ValueError):
                arr[...] = 1.0
        # later mutation of the source does not leak into the wrapper
        xs = rng.random((8, 2))
        before = expr.eval_batch(xs)
        model.weights[0] += 10.0
        assert np.array_equal(expr.eval_batch(xs), before)

    def test_signature_matches_model(self):
        model = init_model(3, (4,), 2, np.random.default_rng(0))
        expr = MlpExpr(model)
        assert expr.in_arity == 3 and expr.out_arity == 2

    def test_serialisation_round_trip(self):
        rng = np.random.default_rng(22)
        expr = MlpExpr(random_model(rng))
        clone = from_dict(to_dict(expr))
        xs = rng.random((32, 2))
        assert np.array_equal(clone.eval_batch(xs), expr.eval_batch(xs))

    def test_overflow_is_a_coded_error_without_warnings(self):
        """A network whose evaluation could overflow is refused when it is
        wrapped, without a warning (RuntimeWarnings fail the suite)."""
        model = nn.MlpModel(
            [np.array([[1e308, 1e308], [1e308, -1e308]]), np.array([[1e308, -1e308]])],
            [np.zeros(2), np.zeros(1)],
            np.array([0.25]),
        )
        with pytest.raises(ValidationError, match="^network layer 0 may overflow") as exc:
            MlpExpr(model)
        assert exc.value.code == "E_INPUT"

    def test_logit_that_overflows_on_one_row_only_is_refused(self):
        """This network's logit overflowed at (1, 1, 1, 1) only on a
        one-row batch: it gave 1.0 there and sigmoid(0.25) = 0.5622 on 2
        or 4 rows, and its output was finite either way."""
        model = nn.MlpModel([np.array([[1e308, 1e308, -1e308, -1e308]])], [np.array([0.25])],
                            np.array([]))
        with pytest.raises(ValidationError, match="^network layer 0 may overflow"):
            MlpExpr(model)
        doc = {"node": "mlp", "model": model.to_dict()}
        with pytest.raises(SerializationError, match="^invalid 'mlp' node: network layer 0") as exc:
            from_dict(doc)
        assert exc.value.code == "E_FORMAT"

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), 1e300])
    def test_slope_that_could_overflow_is_refused(self, slope):
        """A slope scales what the next layer sums (here twice the
        slope), so one that is not a number, or too large, is refused
        with the layer after it; 1e299 leaves that sum at 2e299."""
        def network(s):
            return MlpModel([-np.ones((1, 2)), np.ones((1, 1))], [np.zeros(1)] * 2, np.array([s]))

        with pytest.raises(ValidationError, match="^network layer 1 may overflow"):
            MlpExpr(network(slope))
        assert MlpExpr(network(1e299))((1.0, 1.0)) == (0.0,)

    def test_weights_ref_must_be_resolved_first(self):
        """Only the file loader reads a reference; the library reader
        refuses it by name, as any key that is not a field, with or
        without an inline model."""
        model = init_model(2, (2,), 1, np.random.default_rng(0)).to_dict()
        for inline in ({}, {"model": model}):
            doc = {"node": "mlp", "in_arity": 2, "out_arity": 1, **inline, "weights_ref": "w.json"}
            with pytest.raises(SerializationError) as info:
                from_dict(doc)
            assert str(info.value) == "'mlp' node has no field 'weights_ref'"

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

    @pytest.mark.parametrize("key", ["weights", "bias", "slope"])
    def test_string_parameters_refused(self, key):
        doc = init_model(2, (3,), 1, np.random.default_rng(6)).to_dict()
        if key == "weights":
            doc["layers"][0]["weights"][0] = ["0.5", "1"]
        elif key == "bias":
            doc["layers"][0]["bias"][1] = "0"
        else:
            doc["layers"][0]["slope"] = "0.25"
        with pytest.raises(SerializationError) as exc:
            MlpModel.from_dict(doc)
        assert exc.value.code == "E_FORMAT"

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
