"""Core value types: projections, fuzzy expressions, truth tables.

Conventions used throughout the package
---------------------------------------
* A *fuzzy point* is an element of the unit hypercube ``[0, 1]^n``,
  represented as a tuple of floats (single points) or as a float64
  array of shape ``(batch, n)`` (batched evaluation).
* A *fuzzy function* ``f : [0,1]^n -> [0,1]^m`` is represented by a
  :class:`FuzzyExpr` tree.  Expressions are immutable; evaluation is
  vectorised over the batch axis.
* A *projection* ``d : [0,1] -> S`` is an idempotent map onto a finite
  subset ``S`` of the unit interval, applied componentwise to points.
  The threshold projection with parameter ``alpha`` sends ``x`` to
  ``1.0`` exactly when ``x >= alpha`` (ties map up), so its image is
  the Boolean pair ``{0.0, 1.0}``.
* Raw fuzzy values are compared with absolute tolerance ``RAW_TOL``;
  projected values live on a finite grid and are compared exactly.
* ``FuzzyExpr.bounds`` maps a batch of input boxes to output intervals
  (interval bound propagation) that hold every value evaluation gives,
  so a consumer projects them as they are.  Bounds are computed in
  plain float arithmetic, so each node whose arithmetic may round pads
  its own result by ``BOUND_PAD`` (connectives, affine maps, network
  outputs); a node that only selects, compares or passes values on
  (constants, coordinates, composition, juxtaposition, a lifted
  projection, piecewise conditions, a repair's control inputs) is
  exact.

The serialisation format is a single JSON object per expression: the
field ``node`` names the variant, ``in_arity``/``out_arity`` give the
signature, and the remaining payload fields are the node's
``payload_keys()``: its fields less the signature (see README for the
schema).  Expression classes register themselves in :data:`NODE_TYPES`
via ``__init_subclass__`` so modules can contribute new node kinds
without import cycles.

Documents are written from their dataclass fields, and read back into
them, here: ``_fields`` writes a report's or a node's fields,
``_set_fields`` a spec's (a projection, a sampling, a repair, a
piecewise condition, a truth table) without its unset ones, and
``_arguments`` reads either by the fields' declared types.  Every node
document is its fields, read by that one reader and written by that
one writer.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import (
    CapacityError,
    SerializationError,
    ValidationError,
    _checked,
    _field_names,
    _fields_only,
    malformed,
)

__all__ = [
    "RAW_TOL",
    "BOUND_PAD",
    "MAX_TABLE_INPUTS",
    "Point",
    "Projection",
    "FuzzyExpr",
    "Const",
    "Coord",
    "TNorm",
    "TConorm",
    "Affine",
    "LiftedProjection",
    "Compose",
    "Parallel",
    "Condition",
    "Piece",
    "Piecewise",
    "TruthTable",
    "all_vertices",
    "fiber_codes",
    "fiber_digits",
    "vertex_index",
    "identity",
    "to_dict",
    "from_dict",
    "NODE_TYPES",
]

# Absolute tolerance for comparing raw (unprojected) fuzzy values.
RAW_TOL = 1e-12

# A node whose bounds may miss a value by float rounding widens them by
# this much (scaled by a node's magnitude where its arithmetic can grow
# large: affine maps, network logits).
BOUND_PAD = 1e-9

# Hard cap on vertex enumeration: 2**20 rows is the largest truth table
# this package will materialise.
MAX_TABLE_INPUTS = 20

# A quantizing projection's image is enumerated in full (level values,
# fiber codes), so its level count is capped at 16 bits of resolution.
_MAX_LEVELS = 1 << 16

Point = tuple[float, ...]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """Idempotent componentwise map from ``[0, 1]`` onto a subset of it.

    Two kinds are supported:

    * ``threshold``: ``x -> 1.0 if x >= alpha else 0.0`` with
      ``alpha in (0, 1]``.  Boolean image ``{0.0, 1.0}``.
    * ``quantize``: snap to the nearest of ``levels`` uniformly spaced
      values ``0, 1/(levels-1), ..., 1``.
    """

    kind: str
    alpha: float | None = None
    levels: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "threshold":
            if self.levels is not None:
                raise ValidationError("threshold projection takes no levels")
            need = "threshold projection needs alpha in (0, 1]"
            alpha = _checked(self.alpha, float, need)
            if not 0.0 < alpha <= 1.0:
                raise ValidationError(f"{need}, got {self.alpha!r}")
            object.__setattr__(self, "alpha", alpha)
        elif self.kind == "quantize":
            if self.alpha is not None:
                raise ValidationError("quantize projection takes no alpha")
            need = f"quantize levels must be an integer in [2, {_MAX_LEVELS}]"
            object.__setattr__(self, "levels", _checked(self.levels, int, need, 2, _MAX_LEVELS))
        else:
            raise ValidationError(f"unknown projection kind {self.kind!r}")

    @staticmethod
    def threshold(alpha: float) -> "Projection":
        return Projection("threshold", alpha=alpha)

    @staticmethod
    def quantize(levels: int) -> "Projection":
        return Projection("quantize", levels=levels)

    @property
    def is_boolean(self) -> bool:
        """True when the image is exactly ``{0.0, 1.0}``."""
        return self.level_values == (0.0, 1.0)

    @cached_property
    def level_values(self) -> tuple[float, ...]:
        """The finite image.  Built once per projection: fiber coding
        reads it on every slice."""
        if self.kind == "threshold":
            return (0.0, 1.0)
        k = self.levels
        return tuple(i / (k - 1) for i in range(k))

    def apply(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        """Apply the projection componentwise to an array of values; a
        value that is not a number (a string, bytes, a Boolean) is a
        ``ValidationError``."""
        arr = _float_points(values)
        if self.kind == "threshold":
            return (arr >= self.alpha).astype(np.float64)
        k = self.levels
        return np.round(arr * (k - 1)) / (k - 1)

    def apply_point(self, x: Sequence[float]) -> Point:
        """The projection of one point, as a tuple of floats."""
        return tuple(float(v) for v in self.apply(x))

    def to_dict(self) -> dict:
        return _set_fields(self)

    @staticmethod
    def from_dict(doc: dict) -> "Projection":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SerializationError(f"projection document needs a 'kind' field: {doc!r}")
        with malformed("projection document"):
            return _read(Projection, doc, "projection document")


# ---------------------------------------------------------------------------
# fuzzy expressions
# ---------------------------------------------------------------------------

NODE_TYPES: dict[str, type["FuzzyExpr"]] = {}


def _float_points(xs) -> np.ndarray:
    """``xs`` as a float64 array; points that are not numbers are a
    ``ValidationError``.  Integers and floats are numbers; strings,
    bytes, Booleans and other objects are not, even where numpy could
    convert them ("0.3" to 0.3, True to 1.0)."""
    try:
        arr = np.asarray(xs)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"evaluation points must be numbers ({exc})") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"evaluation points must be numbers, got {arr.dtype} values")
    return arr.astype(np.float64, copy=False)


def _check_batch(xs: np.ndarray, arity: int) -> np.ndarray:
    arr = _float_points(xs)
    if arr.ndim != 2 or arr.shape[1] != arity:
        raise ValidationError(
            f"expected a batch of shape (N, {arity}), got {np.shape(xs)!r}"
        )
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0):
        raise ValidationError("evaluation points must lie inside the unit hypercube")
    return arr


class FuzzyExpr:
    """Base class for fuzzy function expressions ``[0,1]^n -> [0,1]^m``.

    Subclasses are frozen dataclasses that implement ``_eval`` over an
    already validated float64 batch of shape ``(N, in_arity)`` and must
    return a float64 array of shape ``(N, out_arity)`` with values in
    ``[0, 1]``.
    """

    node_name: ClassVar[str] = ""
    in_arity: int
    out_arity: int

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        name = getattr(cls, "node_name", "")
        if name:
            NODE_TYPES[name] = cls

    # -- evaluation ---------------------------------------------------

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_batch(self, xs: np.ndarray | Sequence[Sequence[float]]) -> np.ndarray:
        """Evaluate on a batch of points; shape ``(N, in_arity)`` in,
        shape ``(N, out_arity)`` out."""
        return self._eval(_check_batch(xs, self.in_arity))

    def bounds(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Interval bounds over a batch of boxes.

        ``lo`` and ``hi`` have shape ``(B, in_arity)``, with ``lo <= hi``
        inside the unit hypercube.  Returns ``(B, out_arity)`` arrays
        that hold ``_eval`` at every point of each box, rounding
        included: a node pads its own (see ``BOUND_PAD``).  ``None``:
        the node has no bounds.
        """
        return None

    def __call__(self, x: Sequence[float]) -> Point:
        arr = _float_points(x)
        if arr.ndim != 1 or arr.shape[0] != self.in_arity:
            raise ValidationError(
                f"expected a point of arity {self.in_arity}, got shape {arr.shape}"
            )
        out = self.eval_batch(arr.reshape(1, -1))
        return tuple(float(v) for v in out[0])

    # -- serialisation ------------------------------------------------

    @classmethod
    def payload_keys(cls) -> tuple[str, ...]:
        """The keys a node document holds besides ``node``, ``in_arity``
        and ``out_arity``: the node's fields less those two."""
        return tuple(name for name in _field_names(cls) if name not in ("in_arity", "out_arity"))


@dataclass(frozen=True)
class Const(FuzzyExpr):
    """Constant function; ignores its input."""

    node_name: ClassVar[str] = "const"

    values: tuple[float, ...]
    in_arity: int = 0

    def __post_init__(self) -> None:
        need = "constant values must be numbers in [0, 1]"
        values = tuple(_checked(v, float, need, 0, 1) for v in self.values)
        object.__setattr__(self, "values", values)
        in_arity = _checked(self.in_arity, int, "in_arity must be an integer >= 0", 0)
        object.__setattr__(self, "in_arity", in_arity)
        if not self.values:
            raise ValidationError("constant needs at least one output value")

    @property
    def out_arity(self) -> int:
        return len(self.values)

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return np.tile(np.asarray(self.values, dtype=np.float64), (xs.shape[0], 1))

    def bounds(self, lo, hi):
        out = self._eval(lo)
        return out, out


@dataclass(frozen=True)
class Coord(FuzzyExpr):
    """Coordinate selection / duplication / permutation."""

    node_name: ClassVar[str] = "coord"

    indices: tuple[int, ...]
    in_arity: int

    def __post_init__(self) -> None:
        indices = tuple(_checked(i, int, "coord indices must be integers") for i in self.indices)
        object.__setattr__(self, "indices", indices)
        in_arity = _checked(self.in_arity, int, "in_arity must be an integer")
        object.__setattr__(self, "in_arity", in_arity)
        if not self.indices:
            raise ValidationError("coord needs at least one index")
        if any(i < 0 or i >= self.in_arity for i in self.indices):
            raise ValidationError(
                f"coord indices {self.indices} out of range for arity {self.in_arity}"
            )

    @property
    def out_arity(self) -> int:
        return len(self.indices)

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return xs[:, list(self.indices)]

    def bounds(self, lo, hi):
        return self._eval(lo), self._eval(hi)


def identity(n: int) -> Coord:
    """The identity function on ``[0,1]^n``."""
    return Coord(tuple(range(n)), n)


@dataclass(frozen=True)
class _Connective(FuzzyExpr):
    """Binary fuzzy connective ``[0,1]^2 -> [0,1]``; ``kind`` picks its
    function from the subclass's ``functions`` table."""

    label: ClassVar[str] = ""
    functions: ClassVar[dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]] = {}

    kind: str

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in self.functions:
            raise ValidationError(f"unknown {self.label} kind {self.kind!r}")

    in_arity: ClassVar[int] = 2  # type: ignore[misc]
    out_arity: ClassVar[int] = 1  # type: ignore[misc]

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return self.functions[self.kind](xs[:, 0], xs[:, 1]).reshape(-1, 1)

    def bounds(self, lo, hi):
        # every kind is non-decreasing in each argument, up to rounding
        olo, ohi = self._eval(lo), self._eval(hi)
        return np.maximum(olo - BOUND_PAD, 0.0), np.minimum(ohi + BOUND_PAD, 1.0)


class TNorm(_Connective):
    """Binary t-norm: ``min``, ``product`` or ``lukasiewicz``
    (``max(0, x + y - 1)``)."""

    node_name: ClassVar[str] = "tnorm"
    label: ClassVar[str] = "t-norm"
    functions: ClassVar[dict] = {
        "min": np.minimum,
        "product": lambda x, y: x * y,
        "lukasiewicz": lambda x, y: np.maximum(0.0, x + y - 1.0),
    }


class TConorm(_Connective):
    """Binary t-conorm: ``max``, ``prob_sum`` (``x + y - xy``) or
    ``lukasiewicz`` (``min(1, x + y)``)."""

    node_name: ClassVar[str] = "tconorm"
    label: ClassVar[str] = "t-conorm"
    functions: ClassVar[dict] = {
        "max": np.maximum,
        "prob_sum": lambda x, y: x + y - x * y,
        "lukasiewicz": lambda x, y: np.minimum(1.0, x + y),
    }


T_NORM_KINDS = tuple(TNorm.functions)
T_CONORM_KINDS = tuple(TConorm.functions)


@dataclass(frozen=True)
class Affine(FuzzyExpr):
    """Affine map ``x -> M x + b``, clamped into ``[0, 1]`` by default.

    With ``clamp=False`` the map is refused, rather than clamped, where
    its range over the unit cube leaves ``[0, 1]`` by more than the pad
    of its bounds.  Every node maps into the cube, so an affine node's
    inputs lie in it, and an accepted map is clipped only to remove
    rounding.
    """

    node_name: ClassVar[str] = "affine"

    matrix: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    clamp: bool = True

    def __post_init__(self) -> None:
        need = "affine matrix and bias entries must be numbers"
        mat = tuple(tuple(_checked(v, float, need) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "bias", tuple(_checked(v, float, need) for v in self.bias))
        object.__setattr__(self, "clamp", _checked(self.clamp, bool, "clamp takes true or false"))
        if not mat or not mat[0]:
            raise ValidationError("affine matrix must be non-empty")
        if any(len(row) != len(mat[0]) for row in mat):
            raise ValidationError("affine matrix rows must have equal length")
        if len(self.bias) != len(mat):
            raise ValidationError("affine bias length must match the row count")
        if not np.all(np.isfinite(mat)) or not np.all(np.isfinite(self.bias)):
            raise ValidationError("affine matrix and bias must be finite")
        # no partial sum of ``M x + b`` on the unit cube exceeds a row's
        # absolute sum, so with that doubled finite neither evaluation
        # nor the pad of its bounds can overflow
        with np.errstate(over="ignore"):
            reach = 2.0 * (np.abs(mat).sum(axis=1) + np.abs(self.bias))
        if not np.all(np.isfinite(reach)):
            row = int(np.argmin(np.isfinite(reach)))
            raise ValidationError(
                f"affine row {row} may overflow on the unit cube: twice the sum of its "
                "absolute entries and bias must be finite"
            )
        if not self.clamp:
            # row i ranges from b_i plus its negative entries to b_i plus
            # its positive ones on the cube
            pos, neg, pad = self._interval_parts
            low, high = self._b + neg.sum(axis=1), self._b + pos.sum(axis=1)
            leaves = (low < -pad) | (high > 1.0 + pad)
            if leaves.any():
                row = int(np.argmax(leaves))
                raise ValidationError(
                    f"unclamped affine row {row} ranges over [{float(low[row])}, "
                    f"{float(high[row])}] on the unit cube: with clamp false a map that "
                    "leaves [0, 1] is refused, not clamped"
                )

    @property
    def in_arity(self) -> int:
        return len(self.matrix[0])

    @property
    def out_arity(self) -> int:
        return len(self.matrix)

    @cached_property
    def _m(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=np.float64)

    @cached_property
    def _b(self) -> np.ndarray:
        return np.asarray(self.bias, dtype=np.float64)

    @cached_property
    def _interval_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix's positive and negative parts, and per output the
        padding its sums need: ``BOUND_PAD`` times their magnitude."""
        m = self._m
        pad = BOUND_PAD * (1.0 + np.abs(m).sum(axis=1) + np.abs(self._b))
        return np.maximum(m, 0.0), np.minimum(m, 0.0), pad

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return np.clip(xs @ self._m.T + self._b, 0.0, 1.0)

    def bounds(self, lo, hi):
        pos, neg, pad = self._interval_parts
        olo = lo @ pos.T + hi @ neg.T + (self._b - pad)
        ohi = hi @ pos.T + lo @ neg.T + (self._b + pad)
        return np.clip(olo, 0.0, 1.0), np.clip(ohi, 0.0, 1.0)


@dataclass(frozen=True)
class LiftedProjection(FuzzyExpr):
    """A projection applied componentwise, viewed as a fuzzy function."""

    node_name: ClassVar[str] = "lifted_projection"

    projection: Projection
    in_arity: int

    def __post_init__(self) -> None:
        need = "lifted projection needs an integer arity >= 1"
        object.__setattr__(self, "in_arity", _checked(self.in_arity, int, need, 1))

    @property
    def out_arity(self) -> int:
        return self.in_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return self.projection.apply(xs)

    def bounds(self, lo, hi):
        # a projection is non-decreasing, and the inner bounds hold every
        # value the inner node gives, rounding included
        return self._eval(lo), self._eval(hi)


@dataclass(frozen=True)
class Compose(FuzzyExpr):
    """Function composition ``outer . inner`` (inner runs first)."""

    node_name: ClassVar[str] = "compose"

    outer: FuzzyExpr
    inner: FuzzyExpr

    def __post_init__(self) -> None:
        if self.inner.out_arity != self.outer.in_arity:
            raise ValidationError(
                f"cannot compose: inner produces {self.inner.out_arity} values, "
                f"outer consumes {self.outer.in_arity}"
            )

    @property
    def in_arity(self) -> int:
        return self.inner.in_arity

    @property
    def out_arity(self) -> int:
        return self.outer.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return self.outer._eval(self.inner._eval(xs))

    def bounds(self, lo, hi):
        inner = self.inner.bounds(lo, hi)
        return None if inner is None else self.outer.bounds(*inner)


@dataclass(frozen=True)
class Parallel(FuzzyExpr):
    """Juxtaposition: runs each part on its own slice of the input."""

    node_name: ClassVar[str] = "parallel"

    parts: tuple[FuzzyExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValidationError("parallel needs at least one part")

    @property
    def in_arity(self) -> int:
        return sum(p.in_arity for p in self.parts)

    @property
    def out_arity(self) -> int:
        return sum(p.out_arity for p in self.parts)

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        chunks = []
        lo = 0
        for p in self.parts:
            hi = lo + p.in_arity
            chunks.append(p._eval(xs[:, lo:hi]))
            lo = hi
        return np.concatenate(chunks, axis=1)

    def bounds(self, lo, hi):
        parts = []
        start = 0
        for p in self.parts:
            stop = start + p.in_arity
            part = p.bounds(lo[:, start:stop], hi[:, start:stop])
            if part is None:
                return None
            parts.append(part)
            start = stop
        return tuple(np.concatenate([part[i] for part in parts], axis=1) for i in (0, 1))


_CONDITION_OPS = ("lt", "le", "gt", "ge")


@dataclass(frozen=True)
class Condition:
    """Axis-aligned comparison ``x[index] <op> value`` with exact float
    comparison; ``gt``/``ge`` are the exact complements of ``le``/``lt``."""

    document_name: ClassVar[str] = "piecewise condition"

    index: int
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _CONDITION_OPS:
            raise ValidationError(f"unknown condition op {self.op!r}")
        index = _checked(self.index, int, "a condition index must be an integer")
        # NaN fails every comparison, so gt/ge would not complement le/lt
        need = "a condition value must be a number other than NaN"
        value = _checked(self.value, float, need, -np.inf)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "value", value)

    def mask(self, xs: np.ndarray) -> np.ndarray:
        col = xs[:, self.index]
        if self.op == "lt":
            return col < self.value
        if self.op == "le":
            return col <= self.value
        if self.op == "gt":
            return col > self.value
        return col >= self.value

    def mask_over(self, lo: np.ndarray, hi: np.ndarray, every: bool) -> np.ndarray:
        """Per box ``[lo, hi]``: whether the comparison holds at every
        point (``every``) or at some point of it."""
        upper = self.op in ("lt", "le")
        return self.mask(hi if upper == every else lo)

    def to_dict(self) -> dict:
        return _set_fields(self)

    @staticmethod
    def from_dict(doc: dict) -> "Condition":
        with malformed(Condition.document_name):
            return _read(Condition, doc, Condition.document_name)


@dataclass(frozen=True)
class Piece:
    """One region (a conjunction of conditions) with its branch."""

    document_name: ClassVar[str] = "piecewise region"

    conditions: tuple[Condition, ...]
    expr: FuzzyExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))

    def mask(self, xs: np.ndarray) -> np.ndarray:
        m = np.ones(xs.shape[0], dtype=bool)
        for c in self.conditions:
            m &= c.mask(xs)
        return m

    def mask_over(self, lo: np.ndarray, hi: np.ndarray, every: bool) -> np.ndarray:
        """Per box: whether every condition holds at every point of it
        (``every``), or each holds at some point (a superset of the boxes
        the region meets)."""
        m = np.ones(lo.shape[0], dtype=bool)
        for c in self.conditions:
            m &= c.mask_over(lo, hi, every)
        return m


@dataclass(frozen=True)
class Piecewise(FuzzyExpr):
    """First-match piecewise definition over axis-aligned regions.

    Regions are tested in order; a point matching no region falls
    through to ``default``.  Every branch must share the same signature.
    """

    node_name: ClassVar[str] = "piecewise"

    regions: tuple[Piece, ...]
    default: FuzzyExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        sig = (self.default.in_arity, self.default.out_arity)
        for piece in self.regions:
            if (piece.expr.in_arity, piece.expr.out_arity) != sig:
                raise ValidationError("piecewise branches must share one signature")
            for c in piece.conditions:
                if c.index < 0 or c.index >= sig[0]:
                    raise ValidationError(
                        f"piecewise condition index {c.index} out of range"
                    )

    @property
    def in_arity(self) -> int:
        return self.default.in_arity

    @property
    def out_arity(self) -> int:
        return self.default.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        n = xs.shape[0]
        out = np.empty((n, self.out_arity), dtype=np.float64)
        remaining = np.ones(n, dtype=bool)
        for piece in self.regions:
            m = piece.mask(xs) & remaining
            if m.any():
                out[m] = piece.expr._eval(xs[m])
                remaining &= ~m
        if remaining.any():
            out[remaining] = self.default._eval(xs[remaining])
        return out

    def bounds(self, lo, hi):
        # the hull over the branches a box can reach; conditions are
        # exact comparisons, tested on the box as it is
        olo = np.full((lo.shape[0], self.out_arity), np.inf)
        ohi = np.full((lo.shape[0], self.out_arity), -np.inf)
        open_ = np.ones(lo.shape[0], dtype=bool)  # not covered by an earlier piece
        for piece in (*self.regions, Piece((), self.default)):
            reach = open_ & piece.mask_over(lo, hi, every=False)
            # every branch is bounded, reached or not, so that None does
            # not depend on the boxes
            part = piece.expr.bounds(lo[reach], hi[reach])
            if part is None:
                return None
            olo[reach] = np.minimum(olo[reach], part[0])
            ohi[reach] = np.maximum(ohi[reach], part[1])
            open_ &= ~piece.mask_over(lo, hi, every=True)
        return olo, ohi


# ---------------------------------------------------------------------------
# serialisation entry points
# ---------------------------------------------------------------------------


def to_dict(expr: FuzzyExpr) -> dict:
    """Serialise an expression to a plain JSON-compatible dict."""
    doc = {"node": expr.node_name, "in_arity": expr.in_arity, "out_arity": expr.out_arity}
    doc.update(_fields(expr, in_arity=None, out_arity=None))
    return doc


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _document(value):
    """``value`` as a document holds it: a scalar as it is (None as
    null), a tuple, list or array as a list, an expression as its node
    document, a value with a ``to_dict`` by that, a dict key by key and
    a dataclass by ``_fields``."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (tuple, list)):
        return [v if type(v) in _SCALARS else _document(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, FuzzyExpr):
        return to_dict(value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _document(v) for key, v in value.items()}
    if dataclasses.is_dataclass(value):
        return _fields(value)
    return value


def _fields(obj, **convert) -> dict:
    """The document of the dataclass instance ``obj``: every field in
    declaration order, written by ``_document``, or by ``convert[name]``
    where one is given; a converter given as None leaves its field out."""
    doc = {}
    for name in _field_names(type(obj)):
        write = convert.get(name, _document)
        if write is not None:
            doc[name] = write(getattr(obj, name))
    return doc


def _set_fields(spec, **convert) -> dict:
    """The document of the spec ``spec``: its ``_fields`` (with
    ``convert``) that are set (not None)."""
    return {name: value for name, value in _fields(spec, **convert).items() if value is not None}


def from_dict(doc: dict) -> FuzzyExpr:
    """Rebuild an expression from its dict form.  A document nested too
    deeply for the interpreter's recursion limit is a
    :class:`SerializationError`."""
    # caught once, where the stack has unwound, rather than in every node
    try:
        return _decode_node(doc)
    except RecursionError as exc:
        raise SerializationError("expression document is nested too deeply to decode") from exc


def _decode_node(doc: dict) -> FuzzyExpr:
    if not isinstance(doc, dict):
        raise SerializationError(f"expression document must be an object, got {type(doc).__name__}")
    name = doc.get("node")
    if not isinstance(name, str) or name not in NODE_TYPES:
        raise SerializationError(f"unknown expression node {name!r}")
    node = NODE_TYPES[name]
    _fields_only(doc, ("node", "in_arity", "out_arity", *node.payload_keys()), f"{name!r} node")
    with malformed(f"{name!r} node", prefix_invalid=True):
        expr = node(**_arguments(node, doc, _decode_node))
        keys = [key for key in ("in_arity", "out_arity") if key in doc]
        declared = {key: _checked(doc[key], int, f"{key} must be an integer") for key in keys}
    for key, got in (("in_arity", expr.in_arity), ("out_arity", expr.out_arity)):
        if declared.get(key, got) != got:
            raise SerializationError(
                f"declared {key}={doc[key]} does not match reconstructed {got}"
            )
    return expr


def _reader(hint, decode: Callable[[dict], FuzzyExpr]) -> Callable:
    """How a field declared as ``hint`` is read from its document value:
    an expression by ``decode`` (itself, so that a nested node costs no
    stack frame of its own), an optional value as None or as its type,
    a ``tuple[T, ...]`` item by item, a spec that names its document
    (``document_name``) by ``_read`` with ``decode``, so that its faults
    are the enclosing node's, a type with a ``from_dict`` by that, and
    any other value as it is."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        read = _reader(*(arg for arg in args if arg is not type(None)), decode)
        return lambda value: None if value is None else read(value)
    if origin is tuple:
        read = _reader(args[0], decode)
        return lambda value: tuple(map(read, value))
    if hint is FuzzyExpr:
        return decode
    if hasattr(hint, "document_name"):
        return lambda value: _read(hint, value, hint.document_name, decode)
    return getattr(hint, "from_dict", lambda value: value)


@cache
def _field_readers(cls: type, decode: Callable) -> tuple[tuple[str, bool, Callable], ...]:
    """Per field of the dataclass ``cls``: its name, whether a document
    must hold it (it has no default) and its ``_reader``, resolved once
    per class and node decoder."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return tuple(
        (f.name, f.default is f.default_factory is missing, _reader(hints[f.name], decode))
        for f in dataclasses.fields(cls)
    )


def _arguments(cls, doc: dict, decode: Callable[[dict], FuzzyExpr] = from_dict) -> dict:
    """The reading twin of ``_fields``: the keyword arguments of the
    dataclass ``cls`` that its document ``doc`` holds, each field read
    by its declared type, a nested node by ``decode``.  A field the
    document leaves out takes its default; a required one is a
    ``KeyError``, which ``malformed`` reports by name."""
    fields = _field_readers(cls, decode)
    return {name: read(doc[name]) for name, must, read in fields if must or name in doc}


def _read(cls, doc: dict, what: str, decode: Callable[[dict], FuzzyExpr] = from_dict):
    """The instance of the dataclass ``cls`` that its document ``doc``
    holds, read by ``_arguments``; a key that is not one of its fields
    is refused by name, as the ``what``."""
    _fields_only(doc, _field_names(cls), what)
    return cls(**_arguments(cls, doc, decode))


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------


def _fiber_count(k: int, n: int) -> int:
    if k**n > (1 << 62):
        raise CapacityError(f"cannot index {k}^{n} projection fibers")
    return k**n


def _place_values(k: int, n: int) -> np.ndarray:
    """``k**(n-1), ..., k, 1``: the value of each digit of a fiber code."""
    return _fiber_count(k, n) // k ** np.arange(1, n + 1, dtype=np.int64)


def fiber_codes(projection: Projection, xs: np.ndarray) -> np.ndarray:
    """Encode the fiber ``d(x)`` of each row as one integer: the level
    indices of ``d(x)`` as base-``k`` digits, axis 0 most significant
    (so a Boolean vertex's code is its truth-table row)."""
    k = len(projection.level_values)
    place_values = _place_values(k, np.shape(xs)[1])
    return np.round(projection.apply(xs) * (k - 1)).astype(np.int64) @ place_values


def fiber_digits(codes: np.ndarray, k: int, n: int) -> np.ndarray:
    """Inverse of :func:`fiber_codes`: the ``(N, n)`` level indices of
    each code; divided by ``k - 1`` they are the fiber's projected point.
    A code outside ``[0, k**n)`` is a ``ValidationError``."""
    need = f"fiber codes over {n} inputs must be integers in [0, {k}**{n})"
    codes = _checked(np.asarray(codes).reshape(-1), int, need, 0, _fiber_count(k, n) - 1)
    if n == 0:  # np.unravel_index takes no shape ()
        return np.zeros((len(codes), 0), dtype=np.int64)
    return np.column_stack(np.unravel_index(codes.astype(np.int64, copy=False), (k,) * n))


def all_vertices(n: int) -> np.ndarray:
    """All Boolean vertices of ``[0,1]^n`` as float rows in lexicographic
    order with input 0 most significant: row ``i`` encodes ``i`` in binary."""
    if n < 0:
        raise ValidationError("arity must be >= 0")
    if n > MAX_TABLE_INPUTS:
        raise CapacityError(
            f"vertex enumeration capped at {MAX_TABLE_INPUTS} inputs, got {n}"
        )
    return fiber_digits(np.arange(2**n), 2, n).astype(np.float64)


def vertex_index(bits: Sequence[int]) -> int:
    """Row index of a Boolean vertex (input 0 most significant)."""
    if any(b not in (0, 1) for b in bits):
        raise ValidationError(f"vertex components must be 0 or 1, got {bits!r}")
    return int(np.asarray(bits, dtype=np.int64) @ _place_values(2, len(bits)))


class _ReadOnlyList(list):
    """A list that refuses every change; a copy or pickle of it is a
    plain list."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(
            "the rows of a truth table document are read-only: "
            "edit a copy, [list(r) for r in rows]"
        )

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce_ex__(self, protocol):
        return list, (list(self),)


class _TableRows(_ReadOnlyList):
    """The rows of a validated :class:`TruthTable` as ``tolist`` gives
    them, holding the table's ``uint8`` array too: ``serialize.dumps``
    writes the rows from the array in one pass, so neither the list nor
    a row takes a change.  Equal rows are one shared read-only list.
    ``[list(r) for r in rows]`` or ``copy.deepcopy(rows)`` is a copy to
    edit; a copy or pickle of the rows is plain lists, but
    ``copy.deepcopy(list(rows))`` keeps equal rows one shared list."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        # equal rows are adjacent in lexicographic order, and each run of
        # them is one list: fewer objects to build than ``tolist`` makes
        order = np.lexsort(array.T)
        ranked = array[order]
        first = np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)]
        run = np.empty(len(array), dtype=np.int64)
        run[order] = np.cumsum(first) - 1
        shared = [_ReadOnlyList(row) for row in ranked[first].tolist()]
        super().__init__(map(shared.__getitem__, run.tolist()))
        self.array = array

    def __reduce_ex__(self, protocol):
        return list, (self.array.tolist(),)


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Exhaustive Boolean function table over ``{0,1}^n_inputs``.

    ``rows[i]`` holds the output vector at the vertex whose bits spell
    ``i`` with input 0 most significant.  The row array is read-only.
    """

    n_inputs: int
    n_outputs: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        need = f"truth table inputs must be an integer in [0, {MAX_TABLE_INPUTS}]"
        n_inputs = _checked(self.n_inputs, int, need, 0, MAX_TABLE_INPUTS)
        object.__setattr__(self, "n_inputs", n_inputs)
        need = "truth table needs an integer output count >= 1"
        object.__setattr__(self, "n_outputs", _checked(self.n_outputs, int, need, 1))
        rows = _checked(np.asarray(self.rows), int, "truth table entries must be 0 or 1", 0, 1)
        if rows.shape != (2**self.n_inputs, self.n_outputs):
            raise ValidationError(
                f"truth table rows must have shape {(2**self.n_inputs, self.n_outputs)}, "
                f"got {rows.shape}"
            )
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return (
            self.n_inputs == other.n_inputs
            and self.n_outputs == other.n_outputs
            and bool(np.array_equal(self.rows, other.rows))
        )

    def __hash__(self) -> int:
        return hash((self.n_inputs, self.n_outputs, self.rows.tobytes()))

    def row(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Output vector at one vertex of ``n_inputs`` bits."""
        if len(bits) != self.n_inputs:
            raise ValidationError(
                f"a vertex of a {self.n_inputs}-input table has {self.n_inputs} bits, got {bits!r}"
            )
        return tuple(int(v) for v in self.rows[vertex_index(bits)])

    def column(self, output: int) -> np.ndarray:
        """The table's values of one output, one per row."""
        need = f"output index must be an integer in [0, {self.n_outputs})"
        return self.rows[:, _checked(output, int, need, 0, self.n_outputs - 1)]

    def to_dict(self) -> dict:
        """The table's document.  Its ``rows`` are read-only, as
        ``serialize.dumps`` writes them from the table's array: the list
        and each row refuse changes; edit a copy, ``[list(r) for r in
        doc["rows"]]``.  Equal rows are one shared list, and
        ``copy.deepcopy(list(doc["rows"]))`` keeps them shared, so
        editing one row of it edits every equal row."""
        return _set_fields(self, rows=_TableRows)

    @staticmethod
    def from_dict(doc: dict) -> "TruthTable":
        with malformed("truth table document"):
            return _read(TruthTable, doc, "truth table document")
