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
  or infinite subset ``S`` of the unit interval, applied componentwise
  to points.  The threshold projection with parameter ``alpha`` sends
  ``x`` to ``1.0`` exactly when ``x >= alpha`` (ties map up), so its
  image is the Boolean pair ``{0.0, 1.0}``.
* Raw fuzzy values are compared with absolute tolerance ``RAW_TOL``;
  projected values live on a finite grid and are compared exactly.

The serialisation format is a single JSON object per expression: the
field ``node`` names the variant, ``in_arity``/``out_arity`` give the
signature, and the remaining payload fields mirror the constructor
arguments (see README for the schema).  Expression classes register
themselves in :data:`NODE_TYPES` via ``__init_subclass__`` so modules
can contribute new node kinds without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import CapacityError, SerializationError, ValidationError

__all__ = [
    "RAW_TOL",
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
    "eval_expr",
    "apply_projection",
    "compose",
    "parallel",
    "to_dict",
    "from_dict",
    "NODE_TYPES",
]

# Absolute tolerance for comparing raw (unprojected) fuzzy values.
RAW_TOL = 1e-12

# Hard cap on vertex enumeration: 2**20 rows is the largest truth table
# this package will materialise.
MAX_TABLE_INPUTS = 20

Point = tuple[float, ...]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """Idempotent componentwise map from ``[0, 1]`` onto a subset of it.

    Three kinds are supported:

    * ``threshold``: ``x -> 1.0 if x >= alpha else 0.0`` with
      ``alpha in (0, 1]``.  Boolean image ``{0.0, 1.0}``.
    * ``identity``: ``x -> x``.  Image is all of ``[0, 1]``.
    * ``quantize``: snap to the nearest of ``levels`` uniformly spaced
      values ``0, 1/(levels-1), ..., 1``.
    """

    kind: str
    alpha: float | None = None
    levels: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "threshold":
            if self.alpha is None or not (0.0 < float(self.alpha) <= 1.0):
                raise ValidationError(
                    f"threshold projection needs alpha in (0, 1], got {self.alpha!r}"
                )
            if self.levels is not None:
                raise ValidationError("threshold projection takes no levels")
        elif self.kind == "identity":
            if self.alpha is not None or self.levels is not None:
                raise ValidationError("identity projection takes no parameters")
        elif self.kind == "quantize":
            if self.alpha is not None:
                raise ValidationError("quantize projection takes no alpha")
            k = self.levels
            if isinstance(k, bool) or not isinstance(k, Real) or k % 1 or k < 2:
                raise ValidationError(f"quantize levels must be an integer >= 2, got {k!r}")
            object.__setattr__(self, "levels", int(k))
        else:
            raise ValidationError(f"unknown projection kind {self.kind!r}")

    @staticmethod
    def threshold(alpha: float) -> "Projection":
        return Projection("threshold", alpha=float(alpha))

    @staticmethod
    def identity() -> "Projection":
        return Projection("identity")

    @staticmethod
    def quantize(levels: int) -> "Projection":
        return Projection("quantize", levels=levels)

    @property
    def is_boolean(self) -> bool:
        """True when the image is exactly ``{0.0, 1.0}``."""
        return self.kind == "threshold"

    @property
    def level_values(self) -> tuple[float, ...] | None:
        """The finite image, or None when the image is infinite."""
        if self.kind == "threshold":
            return (0.0, 1.0)
        if self.kind == "quantize":
            k = self.levels
            return tuple(i / (k - 1) for i in range(k))
        return None

    def apply(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        """Apply the projection componentwise to an array of values."""
        arr = np.asarray(values, dtype=np.float64)
        if self.kind == "threshold":
            return (arr >= self.alpha).astype(np.float64)
        if self.kind == "quantize":
            k = self.levels
            return np.round(arr * (k - 1)) / (k - 1)
        return arr.copy()

    def apply_point(self, x: Sequence[float]) -> Point:
        return tuple(float(v) for v in self.apply(np.asarray(x, dtype=np.float64)))

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.alpha is not None:
            doc["alpha"] = self.alpha
        if self.levels is not None:
            doc["levels"] = self.levels
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "Projection":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SerializationError(f"projection document needs a 'kind' field: {doc!r}")
        known = {"kind", "alpha", "levels"}
        extra = set(doc) - known
        if extra:
            raise SerializationError(f"unknown projection fields: {sorted(extra)}")
        try:
            return Projection(doc["kind"], alpha=doc.get("alpha"), levels=doc.get("levels"))
        except ValidationError as exc:
            raise SerializationError(str(exc)) from exc


def apply_projection(projection: Projection, x: Sequence[float]) -> Point:
    """Project a fuzzy point componentwise."""
    return projection.apply_point(x)


# ---------------------------------------------------------------------------
# fuzzy expressions
# ---------------------------------------------------------------------------

NODE_TYPES: dict[str, type["FuzzyExpr"]] = {}


def _check_batch(xs: np.ndarray, arity: int) -> np.ndarray:
    arr = np.asarray(xs, dtype=np.float64)
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
        shape ``(N, out_arity)`` out.  Non-finite outputs (an overflowing
        network, say) are rejected here, once, rather than in every node."""
        out = self._eval(_check_batch(xs, self.in_arity))
        if not np.isfinite(out).all():
            raise ValidationError(
                f"{self.node_name or 'expression'} produced non-finite outputs (nan or inf)"
            )
        return out

    def __call__(self, x: Sequence[float]) -> Point:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.in_arity:
            raise ValidationError(
                f"expected a point of arity {self.in_arity}, got shape {arr.shape}"
            )
        out = self.eval_batch(arr.reshape(1, -1))
        return tuple(float(v) for v in out[0])

    # -- serialisation ------------------------------------------------

    def to_payload(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, doc: dict, decode: Callable[[dict], "FuzzyExpr"]) -> "FuzzyExpr":
        raise NotImplementedError


def eval_expr(f: FuzzyExpr, x: Sequence[float]) -> Point:
    """Evaluate a fuzzy expression at a single point."""
    return f(x)


@dataclass(frozen=True)
class Const(FuzzyExpr):
    """Constant function; ignores its input."""

    node_name: ClassVar[str] = "const"

    values: tuple[float, ...]
    in_arity: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValidationError("constant needs at least one output value")
        if any(not (0.0 <= v <= 1.0) for v in self.values):
            raise ValidationError(f"constant values must lie in [0, 1]: {self.values}")
        if self.in_arity < 0:
            raise ValidationError("in_arity must be >= 0")

    @property
    def out_arity(self) -> int:
        return len(self.values)

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return np.tile(np.asarray(self.values, dtype=np.float64), (xs.shape[0], 1))

    def to_payload(self) -> dict:
        return {"values": list(self.values)}

    @classmethod
    def from_payload(cls, doc, decode):
        return Const(tuple(doc["values"]), in_arity=int(doc.get("in_arity", 0)))


@dataclass(frozen=True)
class Coord(FuzzyExpr):
    """Coordinate selection / duplication / permutation."""

    node_name: ClassVar[str] = "coord"

    indices: tuple[int, ...]
    in_arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
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

    def to_payload(self) -> dict:
        return {"indices": list(self.indices)}

    @classmethod
    def from_payload(cls, doc, decode):
        return Coord(tuple(doc["indices"]), in_arity=int(doc["in_arity"]))


def identity(n: int) -> Coord:
    """The identity function on ``[0,1]^n``."""
    return Coord(tuple(range(n)), n)


T_NORM_KINDS = ("min", "product", "lukasiewicz")
T_CONORM_KINDS = ("max", "prob_sum", "lukasiewicz")


@dataclass(frozen=True)
class TNorm(FuzzyExpr):
    """Binary t-norm: ``min``, ``product`` or ``lukasiewicz``
    (``max(0, x + y - 1)``)."""

    node_name: ClassVar[str] = "tnorm"

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in T_NORM_KINDS:
            raise ValidationError(f"unknown t-norm kind {self.kind!r}")

    in_arity: ClassVar[int] = 2  # type: ignore[misc]
    out_arity: ClassVar[int] = 1  # type: ignore[misc]

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        x, y = xs[:, 0], xs[:, 1]
        if self.kind == "min":
            out = np.minimum(x, y)
        elif self.kind == "product":
            out = x * y
        else:
            out = np.maximum(0.0, x + y - 1.0)
        return out.reshape(-1, 1)

    def to_payload(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_payload(cls, doc, decode):
        return TNorm(doc["kind"])


@dataclass(frozen=True)
class TConorm(FuzzyExpr):
    """Binary t-conorm: ``max``, ``prob_sum`` (``x + y - xy``) or
    ``lukasiewicz`` (``min(1, x + y)``)."""

    node_name: ClassVar[str] = "tconorm"

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in T_CONORM_KINDS:
            raise ValidationError(f"unknown t-conorm kind {self.kind!r}")

    in_arity: ClassVar[int] = 2  # type: ignore[misc]
    out_arity: ClassVar[int] = 1  # type: ignore[misc]

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        x, y = xs[:, 0], xs[:, 1]
        if self.kind == "max":
            out = np.maximum(x, y)
        elif self.kind == "prob_sum":
            out = x + y - x * y
        else:
            out = np.minimum(1.0, x + y)
        return out.reshape(-1, 1)

    def to_payload(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def from_payload(cls, doc, decode):
        return TConorm(doc["kind"])


@dataclass(frozen=True)
class Affine(FuzzyExpr):
    """Affine map ``x -> M x + b``, clamped into ``[0, 1]`` by default.

    With ``clamp=False`` the caller promises the image stays inside the
    unit hypercube; evaluation checks the promise and raises otherwise.
    """

    node_name: ClassVar[str] = "affine"

    matrix: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    clamp: bool = True

    def __post_init__(self) -> None:
        mat = tuple(tuple(float(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "bias", tuple(float(v) for v in self.bias))
        if not mat or not mat[0]:
            raise ValidationError("affine matrix must be non-empty")
        if any(len(row) != len(mat[0]) for row in mat):
            raise ValidationError("affine matrix rows must have equal length")
        if len(self.bias) != len(mat):
            raise ValidationError("affine bias length must match the row count")
        if not np.all(np.isfinite(mat)) or not np.all(np.isfinite(self.bias)):
            raise ValidationError("affine matrix and bias must be finite")

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

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        out = xs @ self._m.T + self._b
        if self.clamp:
            return np.clip(out, 0.0, 1.0)
        if out.size and (out.min() < 0.0 or out.max() > 1.0):
            raise ValidationError("unclamped affine output left the unit hypercube")
        return out

    def to_payload(self) -> dict:
        return {
            "matrix": [list(row) for row in self.matrix],
            "bias": list(self.bias),
            "clamp": self.clamp,
        }

    @classmethod
    def from_payload(cls, doc, decode):
        return Affine(
            tuple(tuple(row) for row in doc["matrix"]),
            tuple(doc["bias"]),
            clamp=bool(doc.get("clamp", True)),
        )


@dataclass(frozen=True)
class LiftedProjection(FuzzyExpr):
    """A projection applied componentwise, viewed as a fuzzy function."""

    node_name: ClassVar[str] = "lifted_projection"

    projection: Projection
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValidationError("lifted projection needs arity >= 1")

    @property
    def in_arity(self) -> int:
        return self.arity

    @property
    def out_arity(self) -> int:
        return self.arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return self.projection.apply(xs)

    def to_payload(self) -> dict:
        return {"projection": self.projection.to_dict()}

    @classmethod
    def from_payload(cls, doc, decode):
        return LiftedProjection(Projection.from_dict(doc["projection"]), int(doc["in_arity"]))


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

    def to_payload(self) -> dict:
        return {"outer": to_dict(self.outer), "inner": to_dict(self.inner)}

    @classmethod
    def from_payload(cls, doc, decode):
        return Compose(decode(doc["outer"]), decode(doc["inner"]))


def compose(outer: FuzzyExpr, inner: FuzzyExpr) -> Compose:
    """``compose(g, f)`` is the function ``x -> g(f(x))``."""
    return Compose(outer, inner)


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

    def to_payload(self) -> dict:
        return {"parts": [to_dict(p) for p in self.parts]}

    @classmethod
    def from_payload(cls, doc, decode):
        return Parallel(tuple(decode(p) for p in doc["parts"]))


def parallel(*parts: FuzzyExpr) -> Parallel:
    return Parallel(tuple(parts))


_CONDITION_OPS = ("lt", "le", "gt", "ge")


@dataclass(frozen=True)
class Condition:
    """Axis-aligned comparison ``x[index] <op> value`` with exact float
    comparison; ``gt``/``ge`` are the exact complements of ``le``/``lt``."""

    index: int
    op: str
    value: float

    def __post_init__(self) -> None:
        if self.op not in _CONDITION_OPS:
            raise ValidationError(f"unknown condition op {self.op!r}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "index", int(self.index))

    def mask(self, xs: np.ndarray) -> np.ndarray:
        col = xs[:, self.index]
        if self.op == "lt":
            return col < self.value
        if self.op == "le":
            return col <= self.value
        if self.op == "gt":
            return col > self.value
        return col >= self.value

    def to_dict(self) -> dict:
        return {"index": self.index, "op": self.op, "value": self.value}

    @staticmethod
    def from_dict(doc: dict) -> "Condition":
        return Condition(int(doc["index"]), doc["op"], float(doc["value"]))


@dataclass(frozen=True)
class Piece:
    """One region (a conjunction of conditions) with its branch."""

    conditions: tuple[Condition, ...]
    expr: FuzzyExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))

    def mask(self, xs: np.ndarray) -> np.ndarray:
        m = np.ones(xs.shape[0], dtype=bool)
        for c in self.conditions:
            m &= c.mask(xs)
        return m


@dataclass(frozen=True)
class Piecewise(FuzzyExpr):
    """First-match piecewise definition over axis-aligned regions.

    Pieces are tested in order; a point matching no piece falls through
    to ``default``.  Every branch must share the same signature.
    """

    node_name: ClassVar[str] = "piecewise"

    pieces: tuple[Piece, ...]
    default: FuzzyExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))
        sig = (self.default.in_arity, self.default.out_arity)
        for piece in self.pieces:
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
        for piece in self.pieces:
            m = piece.mask(xs) & remaining
            if m.any():
                out[m] = piece.expr._eval(xs[m])
                remaining &= ~m
        if remaining.any():
            out[remaining] = self.default._eval(xs[remaining])
        return out

    def to_payload(self) -> dict:
        return {
            "regions": [
                {
                    "conditions": [c.to_dict() for c in piece.conditions],
                    "expr": to_dict(piece.expr),
                }
                for piece in self.pieces
            ],
            "default": to_dict(self.default),
        }

    @classmethod
    def from_payload(cls, doc, decode):
        pieces = tuple(
            Piece(
                tuple(Condition.from_dict(c) for c in region["conditions"]),
                decode(region["expr"]),
            )
            for region in doc["regions"]
        )
        return Piecewise(pieces, decode(doc["default"]))


# ---------------------------------------------------------------------------
# serialisation entry points
# ---------------------------------------------------------------------------


def to_dict(expr: FuzzyExpr) -> dict:
    """Serialise an expression to a plain JSON-compatible dict."""
    doc = {"node": expr.node_name, "in_arity": expr.in_arity, "out_arity": expr.out_arity}
    doc.update(expr.to_payload())
    return doc


def from_dict(doc: dict, decode: Callable[[dict], FuzzyExpr] | None = None) -> FuzzyExpr:
    """Rebuild an expression from its dict form.

    ``decode`` is the recursion hook used for nested nodes; external
    callers normally leave it unset.  A document nested too deeply for
    the interpreter's recursion limit is a :class:`SerializationError`.
    """
    # caught once, where the stack has unwound, rather than in every node
    try:
        return _decode_node(doc, decode)
    except RecursionError as exc:
        raise SerializationError("expression document is nested too deeply to decode") from exc


def _decode_node(doc: dict, decode: Callable[[dict], FuzzyExpr] | None = None) -> FuzzyExpr:
    if not isinstance(doc, dict):
        raise SerializationError(f"expression document must be an object, got {type(doc).__name__}")
    name = doc.get("node")
    if name not in NODE_TYPES:
        raise SerializationError(f"unknown expression node {name!r}")
    dec = decode if decode is not None else _decode_node
    try:
        expr = NODE_TYPES[name].from_payload(doc, dec)
        declared = {key: int(doc[key]) for key in ("in_arity", "out_arity") if key in doc}
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise SerializationError(f"malformed {name!r} node: {exc}") from exc
    except ValidationError as exc:
        raise SerializationError(f"invalid {name!r} node: {exc}") from exc
    for key, got in (("in_arity", expr.in_arity), ("out_arity", expr.out_arity)):
        if declared.get(key, got) != got:
            raise SerializationError(
                f"declared {key}={doc[key]} does not match reconstructed {got}"
            )
    return expr


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------


def _place_values(k: int, n: int) -> np.ndarray:
    return k ** np.arange(n - 1, -1, -1, dtype=np.int64)


def fiber_codes(projection: Projection, xs: np.ndarray) -> np.ndarray:
    """Encode the fiber ``d(x)`` of each row as one integer: the level
    indices of ``d(x)`` as base-``k`` digits, axis 0 most significant
    (so a Boolean vertex's code is its truth-table row)."""
    levels = projection.level_values
    if levels is None:
        raise ValidationError("fiber tracking needs a projection with finite image")
    k = len(levels)
    n = np.shape(xs)[1]
    if k**n > (1 << 62):
        raise CapacityError(f"cannot index {k}^{n} projection fibers")
    digits = np.round(projection.apply(xs) * (k - 1)).astype(np.int64)
    return digits @ _place_values(k, n)


def fiber_digits(codes: np.ndarray, k: int, n: int) -> np.ndarray:
    """Inverse of :func:`fiber_codes`: the ``(N, n)`` level indices of
    each code; divided by ``k - 1`` they are the fiber's projected point."""
    return np.asarray(codes, dtype=np.int64).reshape(-1, 1) // _place_values(k, n) % k


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
    row = np.asarray(bits, dtype=np.float64).reshape(1, -1)
    return int(fiber_codes(Projection.threshold(0.5), row)[0])


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
        if self.n_inputs < 0 or self.n_inputs > MAX_TABLE_INPUTS:
            raise ValidationError(
                f"truth table inputs must lie in [0, {MAX_TABLE_INPUTS}]"
            )
        if self.n_outputs < 1:
            raise ValidationError("truth table needs at least one output")
        rows = np.ascontiguousarray(np.asarray(self.rows), dtype=np.uint8)
        if rows.shape != (2**self.n_inputs, self.n_outputs):
            raise ValidationError(
                f"truth table rows must have shape {(2**self.n_inputs, self.n_outputs)}, "
                f"got {rows.shape}"
            )
        if rows.size and rows.max() > 1:
            raise ValidationError("truth table entries must be 0 or 1")
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
        """Output vector at one vertex."""
        return tuple(int(v) for v in self.rows[vertex_index(bits)])

    def column(self, output: int) -> np.ndarray:
        return self.rows[:, output]

    def to_dict(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "rows": self.rows.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "TruthTable":
        try:
            return TruthTable(int(doc["n_inputs"]), int(doc["n_outputs"]), np.asarray(doc["rows"]))
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed truth table document: {exc}") from exc
        except ValidationError as exc:
            raise SerializationError(str(exc)) from exc
