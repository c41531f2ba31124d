"""Coherency repairs and the quotient they induce.

A *coherency repair* (gamma) turns an arbitrary fuzzy function into a
coherent one and leaves already-coherent functions untouched.  Two
constructions are provided:

Domain extension (``gamma_extend``)
    Adds one fresh control input per incoherent output component.  A
    sampled coherence scan estimates, for each incoherent component,
    the set of *contaminated fibers*: projection classes ``d(x)`` that
    contain at least one incoherent point.  On those fibers the
    extended function returns the control input; everywhere else it
    passes the original output through.  The result is coherent at
    every scanned point, whatever the control values: on a
    contaminated fiber ``f~(x, c) = c`` and ``f~(d(x), d(c)) = d(c)``
    project alike, and a clean fiber holds only coherent scanned points.
    It is *not* coherent everywhere: a fiber whose incoherent points
    all fall between scanned points stays unmarked.  The price of a
    marked fiber is that *every* point of it defers to the control
    input, including the coherent ones.

Output modification (``gamma_output_mod``)
    Keeps the signature and replaces the output at incoherent points
    with a fallback ``g``.  The repair is coherent exactly when the
    fallback matches the projected baseline at every incoherent point:
    ``d(g(x)) == d(f(d(x)))`` there.  This is checked on the configured
    sample's scans of ``f`` and ``g`` and a violation raises
    :class:`ContractError` (the guarantee is conditional, not free).
    When no fallback is supplied the canonical choice ``g = f . d`` is
    used; it satisfies the condition identically and is always sound.

Both repairs act as the identity on functions that are coherent on the
configured sample, which makes them idempotent.  Quotienting by
"equal after repair" yields classes on which booleanization composes:
repaired functions are coherent, and composites of coherent functions
are again coherent, so the composite of two canonical representatives
is its own canonical representative.  The repair itself is *not*
compositional, and ``demo_noncompositional`` produces a concrete
arithmetic witness (or a signature obstruction for domain extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np

from .coherence import (
    SamplingSpec,
    coherence_masks,
    default_sampling,
    eval_chunked,
    projected_outputs,
)
from .core import (
    RAW_TOL,
    Compose,
    Const,
    Condition,
    FuzzyExpr,
    Piece,
    Piecewise,
    Projection,
    fiber_codes,
    fiber_digits,
    from_dict,
    to_dict,
)
from .errors import ContractError, SerializationError, ValidationError
from .functor import DnfFormula, booleanize, default_var_names, table_to_dnf

__all__ = [
    "GAMMA_KINDS",
    "GammaSpec",
    "ExtendedExpr",
    "OutputModExpr",
    "QuotientMorphism",
    "apply_gamma",
    "gamma_extend",
    "gamma_output_mod",
    "quotient_of",
    "quotient_compose",
    "functor_gamma",
    "extensionally_equal",
    "explain",
    "NoncompDemo",
    "demo_noncompositional",
]

GAMMA_KINDS = ("extend", "output_mod")

# Sample size and seed for deciding extensional equality of expressions.
_EXT_EQ_COUNT = 10_000
_EXT_EQ_SEED = 0


@dataclass(frozen=True)
class GammaSpec:
    """Configuration of a coherency repair.

    ``sampling=None`` selects the density default for the function
    arity at application time.  ``fallback`` is only meaningful for
    ``output_mod``; leaving it unset selects the canonical fallback
    ``f . d``.
    """

    kind: str
    projection: Projection
    sampling: SamplingSpec | None = None
    fallback: FuzzyExpr | None = None

    def __post_init__(self) -> None:
        if self.kind not in GAMMA_KINDS:
            raise ValidationError(f"unknown gamma kind {self.kind!r}")
        if self.kind == "extend" and self.fallback is not None:
            raise ValidationError("domain extension takes no fallback")

    def sampling_for(self, arity: int) -> SamplingSpec:
        return self.sampling if self.sampling is not None else default_sampling(arity)

    def same_family(self, other: "GammaSpec") -> bool:
        return self.kind == other.kind and self.projection == other.projection

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "projection": self.projection.to_dict()}
        if self.sampling is not None:
            doc["sampling"] = self.sampling.to_dict()
        if self.fallback is not None:
            doc["fallback"] = to_dict(self.fallback)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "GammaSpec":
        try:
            return GammaSpec(
                doc["kind"],
                Projection.from_dict(doc["projection"]),
                sampling=SamplingSpec.from_dict(doc["sampling"]) if "sampling" in doc else None,
                fallback=from_dict(doc["fallback"]) if doc.get("fallback") is not None else None,
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed gamma document: {exc}") from exc
        except ValidationError as exc:
            raise SerializationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# repaired-expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedExpr(FuzzyExpr):
    """Domain-extension repair: original inputs plus one control input
    per repaired component, appended in component order.

    ``contaminated[j]`` holds the fiber codes (see ``fiber_codes``) on
    which component ``components[j]`` defers to its control input.
    """

    node_name: ClassVar[str] = "extended"

    base: FuzzyExpr
    projection: Projection
    components: tuple[int, ...]
    contaminated: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(int(c) for c in self.components))
        object.__setattr__(
            self, "contaminated", tuple(tuple(sorted(int(v) for v in s)) for s in self.contaminated)
        )
        if len(self.components) != len(self.contaminated):
            raise ValidationError("one contaminated fiber set per extended component")
        if not self.components:
            raise ValidationError("domain extension must repair at least one component")
        if list(self.components) != sorted(set(self.components)):
            raise ValidationError("extended components must be strictly ascending")
        if any(c < 0 or c >= self.base.out_arity for c in self.components):
            raise ValidationError("extended component out of range")
        if self.projection.level_values is None:
            raise ValidationError("domain extension needs a projection with finite image")

    @property
    def in_arity(self) -> int:
        return self.base.in_arity + len(self.components)

    @property
    def out_arity(self) -> int:
        return self.base.out_arity

    @property
    def var_names(self) -> tuple[str, ...]:
        """Default input names: the base's, then ``nc`` or ``nc1``, ``nc2``, ..."""
        p = len(self.components)
        controls = ("nc",) if p == 1 else tuple(f"nc{j + 1}" for j in range(p))
        return default_var_names(self.base.in_arity) + controls

    @cached_property
    def _contaminated_arrays(self) -> tuple[np.ndarray, ...]:
        # sorted by __post_init__, so membership is a binary search
        return tuple(np.asarray(s, dtype=np.int64) for s in self.contaminated)

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        nb = self.base.in_arity
        x = xs[:, :nb]
        out = self.base._eval(x).copy()
        codes = fiber_codes(self.projection, x)
        for j, comp in enumerate(self.components):
            fibers = self._contaminated_arrays[j]
            if fibers.size:
                hit = fibers.take(np.searchsorted(fibers, codes), mode="clip") == codes
                out[hit, comp] = xs[hit, nb + j]
        return out

    def to_payload(self) -> dict:
        k = len(self.projection.level_values)  # type: ignore[arg-type]
        n = self.base.in_arity
        return {
            "base": to_dict(self.base),
            "projection": self.projection.to_dict(),
            "extended_components": list(self.components),
            "contaminated": [fiber_digits(s, k, n).tolist() for s in self.contaminated],
        }

    @classmethod
    def from_payload(cls, doc, decode):
        base = decode(doc["base"])
        projection = Projection.from_dict(doc["projection"])
        levels = projection.level_values
        if levels is None:
            raise SerializationError("extended node needs a finite-image projection")
        k = len(levels)
        n = base.in_arity
        contaminated = []
        for fiber_set in doc["contaminated"]:
            digits = np.asarray(fiber_set, dtype=np.int64).reshape(len(fiber_set), n)
            codes = fiber_codes(projection, digits / (k - 1))
            if not np.array_equal(fiber_digits(codes, k, n), digits):
                raise ValidationError(f"contaminated fiber digits must lie in [0, {k})")
            contaminated.append(codes)
        return ExtendedExpr(base, projection, tuple(doc["extended_components"]), contaminated)


@dataclass(frozen=True)
class OutputModExpr(FuzzyExpr):
    """Output-modification repair: same signature as the base function,
    fallback output at points where the base is incoherent; ``None``
    stands for the canonical fallback ``f . d``."""

    node_name: ClassVar[str] = "output_mod"

    base: FuzzyExpr
    fallback: FuzzyExpr | None
    projection: Projection

    def __post_init__(self) -> None:
        fb, base = self.fallback, self.base
        if fb is not None and (fb.in_arity, fb.out_arity) != (base.in_arity, base.out_arity):
            raise ValidationError(
                f"fallback signature ({fb.in_arity} -> {fb.out_arity}) does not match "
                f"the repaired function ({base.in_arity} -> {base.out_arity})"
            )

    @property
    def in_arity(self) -> int:
        return self.base.in_arity

    @property
    def out_arity(self) -> int:
        return self.base.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        y, direct, baseline = projected_outputs(self.base, self.projection, xs)
        out = y.copy()
        bad = ~(direct == baseline).all(axis=1)
        if bad.any():
            fb, rows = self.fallback, xs[bad]
            out[bad] = self.base._eval(self.projection.apply(rows)) if fb is None else fb._eval(rows)
        return out

    def to_payload(self) -> dict:
        return {
            "base": to_dict(self.base),
            "fallback": None if self.fallback is None else to_dict(self.fallback),
            "projection": self.projection.to_dict(),
        }

    @classmethod
    def from_payload(cls, doc, decode):
        base, fb = decode(doc["base"]), doc["fallback"]
        fallback = None if fb is None else decode(fb)
        return OutputModExpr(base, fallback, Projection.from_dict(doc["projection"]))


# ---------------------------------------------------------------------------
# the repairs
# ---------------------------------------------------------------------------


def gamma_extend(f: FuzzyExpr, spec: GammaSpec) -> FuzzyExpr:
    """Domain-extension repair of ``f`` under ``spec``.

    Returns ``f`` itself when the scan finds no incoherent component
    (the repair is the identity on coherent functions); otherwise an
    :class:`ExtendedExpr` with one control input per incoherent
    component.  The result is coherent at every scanned point, but a
    fiber whose incoherence the scan misses stays unmarked.
    """
    if spec.kind != "extend":
        raise ValidationError(f"gamma_extend called with kind {spec.kind!r}")
    xs = spec.sampling_for(f.in_arity).sample(f.in_arity)
    ok = coherence_masks(f, spec.projection, xs)
    bad_components = [i for i in range(f.out_arity) if not ok[:, i].all()]
    if not bad_components:
        return f
    contaminated = [np.unique(fiber_codes(spec.projection, xs[~ok[:, i]])) for i in bad_components]
    return ExtendedExpr(f, spec.projection, tuple(bad_components), contaminated)


def gamma_output_mod(f: FuzzyExpr, spec: GammaSpec) -> FuzzyExpr:
    """Output-modification repair of ``f`` under ``spec``.

    A supplied fallback ``g`` must be coherent itself and must agree,
    after projection, with the projected baseline ``f . d`` at the
    incoherent points of ``f``; both are checked on one scan each of
    ``f`` and ``g`` over the sample, and a violation raises
    :class:`ContractError`.  The canonical fallback ``f . d`` meets
    both conditions by definition and is not checked.
    """
    if spec.kind != "output_mod":
        raise ValidationError(f"gamma_output_mod called with kind {spec.kind!r}")
    repaired = OutputModExpr(f, spec.fallback, spec.projection)
    xs = spec.sampling_for(f.in_arity).sample(f.in_arity)
    _, direct, baseline = projected_outputs(f, spec.projection, xs)
    bad = ~(direct == baseline).all(axis=1)
    if spec.fallback is not None:
        _, g_direct, g_baseline = projected_outputs(spec.fallback, spec.projection, xs)
        g_bad = np.flatnonzero(~(g_direct == g_baseline).all(axis=0)).tolist()
        if g_bad:
            raise ContractError(
                "output modification needs a coherent fallback; the supplied one is "
                f"incoherent on components {g_bad}"
            )
        misses = np.flatnonzero(bad & ~(g_direct == baseline).all(axis=1))
        if misses.size:
            point = tuple(float(v) for v in xs[misses[0]])
            raise ContractError(
                "output modification with this fallback is still incoherent (the fallback "
                "disagrees with the projected baseline at incoherent points); first "
                f"witness: {point}"
            )
    return repaired if bad.any() else f


def apply_gamma(f: FuzzyExpr, spec: GammaSpec) -> FuzzyExpr:
    """Dispatch to the repair named by ``spec.kind``."""
    if spec.kind == "extend":
        return gamma_extend(f, spec)
    return gamma_output_mod(f, spec)


# ---------------------------------------------------------------------------
# quotient structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMorphism:
    """An equivalence class of fuzzy functions under "equal after
    repair", carried by its canonical coherent representative.

    The class is typed by the signature of the canonical member (for
    domain extension this includes the added control inputs).
    """

    canonical: FuzzyExpr
    gamma: GammaSpec
    origin: FuzzyExpr | None = None

    @property
    def in_arity(self) -> int:
        return self.canonical.in_arity

    @property
    def out_arity(self) -> int:
        return self.canonical.out_arity


def quotient_of(f: FuzzyExpr, spec: GammaSpec) -> QuotientMorphism:
    """The class of ``f`` under the repair ``spec``."""
    return QuotientMorphism(canonical=apply_gamma(f, spec), gamma=spec, origin=f)


def quotient_compose(g: QuotientMorphism, f: QuotientMorphism) -> QuotientMorphism:
    """Compose classes: the composite of the canonical representatives
    is coherent (coherent functions are closed under composition), so
    it is its own canonical representative."""
    if not g.gamma.same_family(f.gamma):
        raise ValidationError("cannot compose classes taken under different repairs")
    if f.canonical.out_arity != g.canonical.in_arity:
        raise ValidationError(
            f"cannot compose: inner class produces {f.canonical.out_arity} values, "
            f"outer consumes {g.canonical.in_arity}"
        )
    return QuotientMorphism(
        canonical=Compose(g.canonical, f.canonical), gamma=g.gamma, origin=None
    )


def functor_gamma(q: QuotientMorphism) -> FuzzyExpr:
    """Send a class to its canonical coherent representative."""
    return q.canonical


def extensionally_equal(
    f: FuzzyExpr,
    g: FuzzyExpr,
    projection: Projection,
    count: int = _EXT_EQ_COUNT,
    seed: int = _EXT_EQ_SEED,
) -> bool:
    """Sampled extensional equality: same signature, same projected
    outputs on ``count`` seeded uniform points (compared exactly)."""
    if (f.in_arity, f.out_arity) != (g.in_arity, g.out_arity):
        return False
    xs = SamplingSpec.random(count, seed=seed).sample(f.in_arity)
    return bool(
        np.array_equal(projection.apply(eval_chunked(f, xs)), projection.apply(eval_chunked(g, xs)))
    )


# ---------------------------------------------------------------------------
# explanation pipeline
# ---------------------------------------------------------------------------


def explain(
    f: FuzzyExpr,
    spec: GammaSpec,
    simplify: bool = True,
    var_names: Sequence[str] | None = None,
) -> DnfFormula:
    """Repair, booleanize, and extract a DNF explanation.

    Output modification with the canonical fallback ``f . d`` is skipped:
    it cannot fail, and leaves ``f`` alone on the Boolean vertices (fixed
    points of ``d``).  Control inputs added by domain extension are named
    ``nc`` (or ``nc1``, ``nc2``, ... when several) unless names are supplied.
    """
    if not spec.projection.is_boolean:
        raise ValidationError("explanations need a projection with image {0, 1}")
    canonical = spec.kind == "output_mod" and spec.fallback is None
    repaired = f if canonical else apply_gamma(f, spec)
    if var_names is None and isinstance(repaired, ExtendedExpr):
        var_names = repaired.var_names
    table = booleanize(repaired, spec.projection)
    return table_to_dnf(table, simplify=simplify, var_names=var_names)


# ---------------------------------------------------------------------------
# non-compositionality of the repair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoncompDemo:
    """Evidence that the repair does not commute with composition.

    ``kind`` is ``"witness"`` when an arithmetic witness exists:
    ``repair(g . f)(a) != (repair(g) . repair(f))(a)`` with ``f`` the
    constant ``a``.  For domain extension the two sides differ already
    in signature, reported as ``"arity_mismatch"``.  A coherent ``g``
    yields ``"not_applicable"`` (the repair fixes it, no witness).
    """

    kind: str
    gamma: GammaSpec
    g: FuzzyExpr
    f: FuzzyExpr | None
    point: float | None
    lhs: float | None
    rhs: float | None
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma.to_dict(),
            "g": to_dict(self.g),
            "f": to_dict(self.f) if self.f is not None else None,
            "point": self.point,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "detail": self.detail,
        }


def _jump_candidates() -> list[FuzzyExpr]:
    """Unary step functions that are incoherent under the 0.5 threshold.

    The first is 0 at the vertex 0 and 1 elsewhere (incoherent on
    (0, 0.5)); the second is 1 at the vertex 1 and 0.2 elsewhere
    (incoherent on [0.5, 1)).  Between them they give every fallback a
    chance to disagree with the repaired value on some incoherent
    point.
    """
    low = Piecewise(
        (Piece((Condition(0, "le", 0.0),), Const((0.0,), in_arity=1)),),
        Const((1.0,), in_arity=1),
    )
    high = Piecewise(
        (Piece((Condition(0, "ge", 1.0),), Const((1.0,), in_arity=1)),),
        Const((0.2,), in_arity=1),
    )
    return [low, high]


def demo_noncompositional(spec: GammaSpec, g: FuzzyExpr | None = None) -> NoncompDemo:
    """Produce a concrete non-compositionality record for the repair.

    Uses the supplied unary ``g`` or falls back to built-in step
    functions.  For ``output_mod`` the witness is an incoherent point
    ``a`` where the repair changed the value of ``g``: with ``f`` the
    constant function at ``a``, the composite ``g . f`` is constant and
    therefore coherent (the repair leaves it alone, left side
    ``g(a)``), while the right side evaluates the repaired ``g`` at
    ``a``.  For ``extend`` the repaired ``g`` consumes an extra control
    input, so the composite of the repaired parts is not even
    well-typed against the repair of the composite.
    """
    if spec.projection != Projection.threshold(0.5):
        raise ValidationError(
            "the non-compositionality demo is built for the 0.5 threshold projection"
        )
    candidates = [g] if g is not None else _jump_candidates()
    grid = SamplingSpec.grid(101)
    last_error: ContractError | None = None

    for cand in candidates:
        if cand.in_arity != 1 or cand.out_arity != 1:
            raise ValidationError("the demo needs a unary single-output function")
        xs = grid.sample(1)
        ok = coherence_masks(cand, spec.projection, xs)[:, 0]
        if ok.all():
            if g is not None:
                return NoncompDemo(
                    kind="not_applicable",
                    gamma=spec,
                    g=cand,
                    f=None,
                    point=None,
                    lhs=None,
                    rhs=None,
                    detail="g is coherent on the sample; the repair fixes it and "
                    "no composition witness exists",
                )
            continue

        if spec.kind == "extend":
            repaired = gamma_extend(cand, spec)
            return NoncompDemo(
                kind="arity_mismatch",
                gamma=spec,
                g=cand,
                f=Const((0.0,), in_arity=1),
                point=None,
                lhs=None,
                rhs=None,
                detail=(
                    "with f the constant 0, the composite g . f is constant and its "
                    "repair keeps signature 1 -> 1, while the repaired g alone has "
                    f"signature {repaired.in_arity} -> {repaired.out_arity}; the "
                    "repaired parts do not even compose to the same type"
                ),
            )

        try:
            repaired = gamma_output_mod(cand, spec)
        except ContractError as exc:
            last_error = exc
            if g is not None:
                raise
            continue

        changed = np.abs(repaired.eval_batch(xs) - cand.eval_batch(xs))[:, 0] > RAW_TOL
        hits = np.flatnonzero(changed & ~ok)
        if hits.size == 0:
            continue
        a = float(xs[int(hits[0]), 0])
        f_const = Const((a,), in_arity=1)
        composite = Compose(cand, f_const)
        lhs_fn = apply_gamma(composite, spec)  # constant, hence coherent: repair is identity
        lhs = float(lhs_fn((a,))[0])
        rhs = float(repaired((a,))[0])
        return NoncompDemo(
            kind="witness",
            gamma=spec,
            g=cand,
            f=f_const,
            point=a,
            lhs=lhs,
            rhs=rhs,
            detail=(
                f"repair(g . f)({a}) = {lhs} but (repair(g) . repair(f))({a}) = {rhs}; "
                "the repair of the coherent composite keeps the original value while "
                "the repaired g has already overwritten it"
            ),
        )

    if last_error is not None:
        raise last_error
    raise ContractError("no built-in candidate produced a non-compositionality witness")
