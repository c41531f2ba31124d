"""A small numpy MLP used as the fuzzy classifier under study.

Architecture: dense hidden layers with PReLU activations (one learnable
slope per layer, initialised at 0.25) and a sigmoid output layer, so
the network is a genuine fuzzy function into ``(0, 1)``.  Training is
plain minibatch gradient descent with a fixed learning rate; no
adaptive optimiser state, which keeps runs bitwise reproducible from
the seed alone.

The loss is binary cross entropy plus an L2 weight penalty plus an
optional *coherence penalty*::

    loss = BCE(f(x), y) + weight_decay * sum ||W||^2
         + coherence_lambda * mean |f(x) - f(d(x))|

The last term pulls the network's value at ``x`` towards its value at
the projected point ``d(x)``, i.e. towards being coherent under ``d``.
A penalised step makes one forward pass over the stacked batch
``[x; d(x)]`` and, backpropagation being linear in the logit gradient,
one backward pass from both halves' stacked logit gradients.

Backpropagation is hand-written; ``gradient_check`` compares it
against central finite differences and returns the worst discrepancy,
scaled by ``max(1, |analytic|, |numeric|)``.

An ``MlpModel`` keeps its parameters in one flat float64 buffer,
``params`` (weights, then biases, then slopes), and its ``weights``,
``biases`` and ``slopes`` are views into it.  ``loss_and_grads``
returns the gradient as one array of the same layout, so weight decay
is one update of the weight prefix and a training step ends with one
``params -= lr * grads``.  Every value is computed as a per-array loop
would compute it, so the trained bits are the same.

``train`` sets up once per run what every step would otherwise redo:
the flat gradient buffer with its per-layer views, which each step
overwrites, and for a penalised run the projected features ``d(x)``.
Per epoch it draws the order of the points, gathers the features in
that order (laid out batch by batch as ``[x_b; d(x_b)]`` when
penalised) and enters the step error state, as the validation pass
does.  Per step it computes the loss, the gradient and the update.
``loss_and_grads`` called on its own runs the same step with a
workspace of its own and returns a fresh gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from .core import BOUND_PAD, FuzzyExpr, Projection
from .errors import (
    CapacityError,
    SerializationError,
    TrainingError,
    ValidationError,
    _checked,
    _fields_only,
    malformed,
)

__all__ = [
    "MlpModel",
    "TrainConfig",
    "TrainResult",
    "MlpExpr",
    "init_model",
    "forward",
    "loss_and_grads",
    "gradient_check",
    "train",
]

# Central-difference step of gradient_check.
_FD_STEP = 1e-5

# Weights, biases and slopes init_model may draw: 32 MiB of float64 a
# copy, and training holds several (parameters, gradients, the best
# model).  The default network has 339.
_MAX_PARAMETERS = 4_194_304

# The keys of a layer in a model document, in the order they are
# written; the output layer has no slope.
_LAYER_KEYS = ("weights", "bias", "activation", "slope")

# The error state of a training step and of the validation pass:
# divergence shows up as non-finite values that the step checks, and the
# intermediate overflow itself is expected there, not a bug.
_STEP_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


@dataclass
class MlpModel:
    """Parameter container: ``weights[i]`` has shape ``(fan_out,
    fan_in)``; ``slopes`` holds one PReLU slope per hidden layer (the
    output layer is always sigmoid).

    The constructor copies the given arrays into one flat float64
    buffer, ``params``, and rebinds ``weights``, ``biases`` and
    ``slopes`` as views into it, laid out by ``views``.  Write them in
    place: an array assigned in their stead is not a parameter."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    slopes: np.ndarray
    params: np.ndarray = field(init=False, repr=False)
    n_weights: int = field(init=False, repr=False)
    _layout: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or len(self.weights) < 1:
            raise ValidationError("weights and biases must pair up, one layer minimum")
        if any(w.ndim != 2 for w in self.weights):
            raise ValidationError("layer weights must be (fan_out, fan_in) matrices")
        if self.slopes.shape != (len(self.weights) - 1,):
            raise ValidationError("one PReLU slope per hidden layer")
        for i in range(1, len(self.weights)):
            if self.weights[i].shape[1] != self.weights[i - 1].shape[0]:
                raise ValidationError(f"layer {i} fan-in does not match layer {i-1} fan-out")
        for w, b in zip(self.weights, self.biases):
            if b.shape != (w.shape[0],):
                raise ValidationError("bias length must match the layer fan-out")
        arrays = (*self.weights, *self.biases, self.slopes)
        self.params = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
        self.n_weights = sum(w.size for w in self.weights)
        # (slice, shape) per array, worked out once, as every training
        # step lays its gradient out by it
        self._layout, start = [], 0
        for a in arrays:
            self._layout.append((slice(start, start + a.size), a.shape))
            start += a.size
        self.weights, self.biases, self.slopes = self.views(self.params)

    def views(self, buffer: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Weights, biases and slopes as views into the flat ``buffer``,
        laid out as ``params`` is."""
        views = [buffer[part].reshape(shape) for part, shape in self._layout]
        n_layers = len(views) // 2
        return views[:n_layers], views[n_layers:-1], views[-1]

    @property
    def in_arity(self) -> int:
        return int(self.weights[0].shape[1])

    @property
    def out_arity(self) -> int:
        return int(self.weights[-1].shape[0])

    def copy(self) -> "MlpModel":
        return MlpModel(self.weights, self.biases, self.slopes)

    def to_dict(self) -> dict:
        layers = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i < len(self.slopes):
                values = (w.tolist(), b.tolist(), "prelu", float(self.slopes[i]))
            else:
                values = (w.tolist(), b.tolist(), "sigmoid")
            layers.append(dict(zip(_LAYER_KEYS, values)))
        return {"layers": layers}

    @staticmethod
    def from_dict(doc: dict) -> "MlpModel":
        with malformed("model document"):
            _fields_only(doc, ("layers",), "model document")
            layers = doc["layers"]
            for i, layer in enumerate(layers):
                _fields_only(layer, _LAYER_KEYS, f"model layer {i}")
            need = "weights, biases and slopes must be numbers"
            weights, biases = (
                [_checked(np.asarray(l[key]), float, need).astype(np.float64) for l in layers]
                for key in ("weights", "bias")
            )
            slopes = np.asarray([_checked(l.get("slope", 0.25), float, need) for l in layers[:-1]])
            if not all(np.isfinite(a).all() for a in (*weights, *biases, slopes)):
                raise SerializationError("model weights, biases and slopes must be finite")
            for i, layer in enumerate(layers):
                expected = "prelu" if i < len(layers) - 1 else "sigmoid"
                if layer.get("activation", expected) != expected:
                    raise SerializationError(
                        f"layer {i}: activation {layer['activation']!r} is not supported; "
                        "hidden layers are 'prelu' and the output layer is 'sigmoid'"
                    )
            return MlpModel(weights, biases, slopes)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; every stochastic choice derives from ``seed``."""

    hidden_sizes: tuple[int, ...] = (16, 16)
    learning_rate: float = 0.2
    weight_decay: float = 1e-5
    coherence_lambda: float = 0.0
    epochs: int = 300
    batch_size: int = 32
    seed: int = 0
    early_stopping_patience: int = 50
    projection: Projection = Projection.threshold(0.5)

    def __post_init__(self) -> None:
        fields = (
            ("epochs", int, "epochs must be an integer >= 0", 0),
            ("batch_size", int, "batch_size must be an integer >= 1", 1),
            ("seed", int, "seed must be an integer >= 0", 0),
            ("early_stopping_patience", int, "early_stopping_patience must be an integer", None),
            ("learning_rate", float, "learning_rate must be a finite number >= 0", 0),
            ("weight_decay", float, "weight_decay must be a finite number >= 0", 0),
            ("coherence_lambda", float, "coherence_lambda must be a finite number >= 0", 0),
        )
        for name, kind, need, low in fields:
            # an infinite rate or weight would only diverge once the data is drawn
            high = np.finfo(np.float64).max if kind is float else None
            object.__setattr__(self, name, _checked(getattr(self, name), kind, need, low, high))
        need = "hidden_sizes must be a non-empty sequence of integers >= 1"
        if not isinstance(self.hidden_sizes, (tuple, list)) or not self.hidden_sizes:
            raise ValidationError(f"{need}, got {self.hidden_sizes!r}")
        sizes = tuple(_checked(h, int, need, 1) for h in self.hidden_sizes)
        object.__setattr__(self, "hidden_sizes", sizes)
        if not isinstance(self.projection, Projection):
            raise ValidationError(f"projection must be a Projection, got {self.projection!r}")


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    best_val_accuracy: float
    best_epoch: int
    epochs_run: int
    stopped_early: bool


def init_model(
    in_arity: int,
    hidden_sizes: Sequence[int],
    out_arity: int,
    rng: np.random.Generator,
) -> MlpModel:
    """Uniform initialisation in ``+-sqrt(6 / (fan_in + fan_out))``,
    zero biases, PReLU slopes at 0.25.  A network of more than
    ``_MAX_PARAMETERS`` weights, biases and slopes is a
    ``CapacityError``, raised before any is drawn."""
    sizes = [int(in_arity), *map(int, hidden_sizes), int(out_arity)]
    count = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    count += len(hidden_sizes)
    if count > _MAX_PARAMETERS:
        raise CapacityError(
            f"network of {count} parameters exceeds the cap of {_MAX_PARAMETERS}"
        )
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, np.full(len(hidden_sizes), 0.25))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _form_range(
    coef: np.ndarray, const: np.ndarray, elo: np.ndarray, ehi: np.ndarray, width: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Range over a box of the affine forms ``coef @ (x - lo) + const``
    plus an error in ``[elo, ehi]``, for ``0 <= x - lo <= width``."""
    span = coef * width[:, None, :]
    low = const + np.minimum(span, 0.0).sum(axis=2) + elo
    return low, const + np.maximum(span, 0.0).sum(axis=2) + ehi


def _prelu(z: np.ndarray, slope: float) -> np.ndarray:
    """``z`` where ``z > 0``, else ``slope * z``.  For ``0 < slope <= 1``
    that is the larger of the two and for ``slope > 1`` the smaller, bit
    for bit (signed zeros, infinities and NaN included), which costs less
    than selecting by sign; no such rule holds for ``slope <= 0``."""
    a = slope * z
    if 0 < slope <= 1:
        return np.maximum(a, z, out=a)
    if slope > 1:
        return np.minimum(a, z, out=a)
    return np.where(z > 0, z, a)


def _logits(model: MlpModel, xs: np.ndarray, cache: list | None = None) -> np.ndarray:
    """The output layer's pre-activations on a batch.  Given a ``cache``,
    appends each layer's (input, pre-activation) to it for the backward
    pass; without one, a layer's input is freed before its activation is
    made, and its pre-activation before the next layer's, so at most two
    of a layer's arrays are held at once."""
    a = xs
    for i, (weights, bias) in enumerate(zip(model.weights, model.biases)):
        z = a @ weights.T
        z += bias
        if cache is not None:
            cache.append((a, z))
        if i == len(model.slopes):
            return z
        del a
        a = _prelu(z, model.slopes[i])
        del z


def _forward_cache(model: MlpModel, xs: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass keeping (input, pre-activation) per layer."""
    cache: list = []
    return _sigmoid(_logits(model, xs, cache)), cache


def forward(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Network output on a ``(N, in_arity)`` batch."""
    return _sigmoid(_logits(model, np.asarray(xs, dtype=np.float64)))


def _backward(model: MlpModel, cache: list, d_logits: np.ndarray, grads: tuple) -> None:
    """Backpropagate a gradient given at the output-layer logits into
    ``grads``, the per-layer views ``model.views`` lays over a flat
    gradient buffer."""
    dW, db, dslope = grads
    a_in, _ = cache[-1]
    np.matmul(d_logits.T, a_in, out=dW[-1])
    d_logits.sum(axis=0, out=db[-1])
    da = d_logits @ model.weights[-1]
    for i in range(len(dW) - 2, -1, -1):
        a_prev, z = cache[i]
        neg = z <= 0
        dslope[i] = (da * np.where(neg, z, 0.0)).sum()
        dz = da * np.where(neg, model.slopes[i], 1.0)
        np.matmul(dz.T, a_prev, out=dW[i])
        dz.sum(axis=0, out=db[i])
        if i > 0:
            da = dz @ model.weights[i]


class _Workspace:
    """What every step of one training run reuses, made once for a
    model: the flat gradient buffer and its per-layer views."""

    def __init__(self, model: MlpModel) -> None:
        self.grads = np.empty_like(model.params)
        self.views = model.views(self.grads)


def _step(
    model: MlpModel, batch: np.ndarray, ys: np.ndarray, cfg: TrainConfig, work: _Workspace
) -> float:
    """The loss on one batch of ``ys.shape[0]`` points, its gradient
    written into ``work.grads``.  ``batch`` holds the points, stacked
    over their projections (``[x; d(x)]``) when the step is penalised.
    The caller enters the error state."""
    n, n_items = ys.shape[0], ys.size
    out_all, cache = _forward_cache(model, batch)
    out, logits = out_all[:n], cache[-1][1][:n]
    # a mean, as the sum over the count: np.mean's bits at less cost
    total = float((np.logaddexp(0.0, logits) - ys * logits).sum() / n_items)
    d_logits = (out - ys) / n_items
    if cfg.coherence_lambda > 0.0:
        out_fix = out_all[n:]
        diff = out - out_fix
        total += cfg.coherence_lambda * float(np.abs(diff).sum() / n_items)
        s = cfg.coherence_lambda * np.sign(diff) / n_items
        d_logits = np.concatenate(
            [d_logits + s * out * (1.0 - out), -s * out_fix * (1.0 - out_fix)]
        )
    _backward(model, cache, d_logits, work.views)

    if cfg.weight_decay > 0.0:
        w = model.params[: model.n_weights]
        total += cfg.weight_decay * float(w @ w)
        work.grads[: model.n_weights] += 2.0 * cfg.weight_decay * w
    return total


def loss_and_grads(
    model: MlpModel,
    xs: np.ndarray,
    ys: np.ndarray,
    cfg: TrainConfig,
    *,
    _work: _Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Loss and its gradient, a fresh array laid out like
    ``model.params`` (``model.views`` reads it per layer).

    ``train`` passes its run's workspace as ``_work``: ``xs`` is then
    the float64 batch as ``_step`` reads it, the caller holds the error
    state, and the gradient returned is ``_work.grads``, which the next
    step overwrites."""
    if _work is not None:
        return _step(model, xs, ys, cfg, _work), _work.grads
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    work = _Workspace(model)
    with np.errstate(**_STEP_ERRSTATE):
        if cfg.coherence_lambda > 0.0:
            xs = np.concatenate([xs, cfg.projection.apply(xs)])
        return _step(model, xs, ys, cfg, work), work.grads


def gradient_check(model: MlpModel, xs: np.ndarray, ys: np.ndarray, cfg: TrainConfig) -> float:
    """Worst discrepancy between backprop and central finite
    differences of step ``_FD_STEP`` over every parameter, scaled by
    ``max(1, |analytic|, |numeric|)``."""
    work = model.copy()
    _, grads = loss_and_grads(work, xs, ys, cfg)
    params = work.params
    worst = 0.0
    for j, analytic in enumerate(grads):
        keep = params[j]
        params[j] = keep + _FD_STEP
        up = loss_and_grads(work, xs, ys, cfg)[0]
        params[j] = keep - _FD_STEP
        down = loss_and_grads(work, xs, ys, cfg)[0]
        params[j] = keep
        numeric = (up - down) / (2.0 * _FD_STEP)
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst


def _as_xy(data) -> tuple[np.ndarray, np.ndarray]:
    if not (hasattr(data, "features") and hasattr(data, "labels")):
        raise ValidationError("expected a dataset with features and labels")
    xs = np.asarray(data.features, dtype=np.float64)
    ys = np.asarray(data.labels, dtype=np.float64)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    if xs.ndim != 2 or xs.shape[0] != ys.shape[0]:
        raise ValidationError("features and labels must align on the batch axis")
    return xs, ys


def _val_accuracy(model: MlpModel, xs: np.ndarray, ys: np.ndarray, projection: Projection) -> float:
    """Accuracy on the validation set, in the step error state: an output
    that is not finite means the run has diverged, which its next step
    reports."""
    with np.errstate(**_STEP_ERRSTATE):
        preds = projection.apply(forward(model, xs))
    return float((preds == ys).all(axis=1).mean())


def _stacked_layout(n: int, size: int) -> np.ndarray:
    """The order of the ``2 n`` rows ``[x; d(x)]`` that lays out batches
    of ``size`` points (the last one ragged) one after another, each as
    ``[x_b; d(x_b)]``."""
    j = np.arange(n)
    lo = j // size * size
    at = lo + j
    return np.argsort(np.concatenate([at, at + np.minimum(size, n - lo)]))


def train(cfg: TrainConfig, train_set, val_set) -> TrainResult:
    """Minibatch gradient descent; returns the parameters with the best
    validation accuracy seen (strict improvements only, so a run that
    never improves returns the initialisation).  Raises
    :class:`TrainingError` on divergence, naming the epoch."""
    xs, ys = _as_xy(train_set)
    xv, yv = _as_xy(val_set)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(xs.shape[1], cfg.hidden_sizes, ys.shape[1], rng)
    params = model.params

    best = model.copy()
    best_acc = _val_accuracy(model, xv, yv, cfg.projection)
    best_epoch = 0
    patience_left = cfg.early_stopping_patience
    epochs_run = 0
    stopped_early = False

    n, size = xs.shape[0], cfg.batch_size
    work = _Workspace(model)
    rows, features, layout = 1, xs, None
    if cfg.coherence_lambda > 0.0:
        # d is elementwise, so d(xs)[perm] is d(xs[perm]) bit for bit:
        # project once, and lay each epoch's batches out as [x_b; d(x_b)]
        # with one gather
        with np.errstate(**_STEP_ERRSTATE):
            features = np.concatenate([xs, cfg.projection.apply(xs)])
        rows, layout = 2, _stacked_layout(n, size)
    for epoch in range(1, cfg.epochs + 1):
        epochs_run = epoch
        perm = rng.permutation(n)
        order = perm if layout is None else np.concatenate([perm, perm + n])[layout]
        xe, ye = features[order], ys[perm]
        with np.errstate(**_STEP_ERRSTATE):
            for lo in range(0, n, size):
                hi = lo + size
                value, grads = loss_and_grads(
                    model, xe[rows * lo : rows * hi], ye[lo:hi], cfg, _work=work
                )
                if not math.isfinite(value):
                    raise TrainingError(f"training diverged at epoch {epoch}: non-finite loss")
                params -= cfg.learning_rate * grads
        if not np.isfinite(params).all():
            raise TrainingError(f"training diverged at epoch {epoch}: non-finite parameters")
        acc = _val_accuracy(model, xv, yv, cfg.projection)
        if acc > best_acc:
            best_acc = acc
            best = model.copy()
            best_epoch = epoch
            patience_left = cfg.early_stopping_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                stopped_early = True
                break

    return TrainResult(
        model=best,
        best_val_accuracy=best_acc,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        stopped_early=stopped_early,
    )


@dataclass(frozen=True, eq=False)
class MlpExpr(FuzzyExpr):
    """A trained network frozen as a fuzzy expression.

    The wrapped parameters are private copies with the write flag
    cleared, so later training steps cannot mutate an explanation that
    has already been extracted.
    """

    node_name: ClassVar[str] = "mlp"

    model: MlpModel = field(repr=False)

    def __post_init__(self) -> None:
        frozen = self.model.copy()
        for arr in (frozen.params, *frozen.weights, *frozen.biases, frozen.slopes):
            arr.setflags(write=False)
        object.__setattr__(self, "model", frozen)
        self._logit_pad  # refuses parameters whose evaluation could overflow

    @property
    def in_arity(self) -> int:
        return self.model.in_arity

    @property
    def out_arity(self) -> int:
        return self.model.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return forward(self.model, xs)

    @cached_property
    def _logit_pad(self) -> np.ndarray:
        """Per logit, ``BOUND_PAD`` times the largest sum of absolute
        terms any layer can form on the unit cube.  Where that reaches
        1e300 (or is not a number) at some layer, evaluating or bounding
        the network could overflow, and its parameters are a
        ``ValidationError``."""
        model = self.model
        scale = np.ones(self.in_arity)
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (w, b) in enumerate(zip(model.weights, model.biases)):
                if i:
                    scale = scale * np.maximum(1.0, np.abs(model.slopes[i - 1]))
                scale = np.abs(w) @ scale + np.abs(b)
                if not np.all(scale < 1e300):
                    raise ValidationError(
                        f"network layer {i} may overflow on the unit cube: its sums of "
                        "absolute terms must stay below 1e300"
                    )
        return BOUND_PAD * (1.0 + scale)

    def bounds(self, lo, hi):
        """Symbolic interval bounds: each unit is an affine form in the
        offset ``x - lo`` plus an error interval.  A PReLU that is
        stable on the box keeps its form; an unstable one is replaced by
        its range ``[min(s zlo, 0), max(s zlo, zhi)]``.  Logits are
        widened before the sigmoid (``_sigmoid(-1e-17)`` is exactly 0.5),
        and its outputs by ``BOUND_PAD`` after it, for its own rounding.

        Plain centre-radius intervals (``W c + b`` and ``|W| r`` per
        layer) lose the correlation between units that share inputs, so
        far fewer boxes are decided.  On 12 two-input networks of the
        kind the check-grid benchmark uses, under the 0.5 threshold, both
        gave the same reports, but plain intervals left 6 305 840 rows to
        evaluate on 2048**2 grids against 434 864, and 2 786 224 against
        270 768 on 1024**2 grids: 1.5 s against 0.23 s and 0.62 s
        against 0.14 s (one BLAS thread, a 2-core Xeon)."""
        pad = self._logit_pad
        model = self.model
        width = hi - lo
        coef = np.broadcast_to(model.weights[0], (len(lo),) + model.weights[0].shape)
        const = lo @ model.weights[0].T + model.biases[0]
        elo = ehi = np.zeros_like(const)
        for i in range(1, len(model.weights)):
            zlo, zhi = _form_range(coef, const, elo, ehi, width)
            s = float(model.slopes[i - 1])
            unstable = (zlo < 0.0) & (zhi > 0.0)
            factor = np.where(zlo >= 0.0, 1.0, np.where(unstable, 0.0, s))
            coef = coef * factor[:, :, None]
            const = const * factor
            elo, ehi = elo * factor, ehi * factor
            elo, ehi = np.minimum(elo, ehi), np.maximum(elo, ehi)
            elo = np.where(unstable, np.minimum(s * zlo, 0.0), elo)
            ehi = np.where(unstable, np.maximum(s * zlo, zhi), ehi)
            w, b = model.weights[i], model.biases[i]
            wpos, wneg = np.maximum(w, 0.0), np.minimum(w, 0.0)
            coef = np.matmul(w, coef)
            const = const @ w.T + b
            elo, ehi = elo @ wpos.T + ehi @ wneg.T, ehi @ wpos.T + elo @ wneg.T
        zlo, zhi = _form_range(coef, const, elo, ehi, width)
        olo = np.maximum(_sigmoid(zlo - pad) - BOUND_PAD, 0.0)
        ohi = np.minimum(_sigmoid(zhi + pad) + BOUND_PAD, 1.0)
        return olo, ohi
