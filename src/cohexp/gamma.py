"""Coherency repairs and the quotient they induce.

A *coherency repair* (gamma) turns an arbitrary fuzzy function into a
coherent one and leaves already-coherent functions untouched.  Two
constructions are provided:

Domain extension (``gamma_extend``)
    Adds one fresh control input per incoherent output component.  A
    sampled coherence scan estimates, for each incoherent component,
    the set of *contaminated fibers*: projection classes ``d(x)`` that
    contain at least one incoherent point.  The scan is a coherence
    check's walk, which collects the fibers of the offenders it finds; a
    grid is never drawn.  On those fibers the extended function returns
    the control input; everywhere else it passes the original output
    through.  The result is coherent at every scanned point, whatever
    the control values: on a contaminated fiber ``f~(x, c) = c`` and
    ``f~(d(x), d(c)) = d(c)`` project alike, and a clean fiber holds
    only coherent scanned points.
    It is *not* coherent everywhere: a fiber whose incoherent points
    all fall between scanned points stays unmarked.  The price of a
    marked fiber is that *every* point of it defers to the control
    input, including the coherent ones.

Output modification (``gamma_output_mod``)
    Keeps the signature and replaces the output at incoherent points
    with a fallback ``g``.  The repair is coherent exactly when the
    fallback matches the projected baseline at every incoherent point:
    ``d(g(x)) == d(f(d(x)))`` there.  This is checked on scans of ``f``
    and ``g`` over the configured sample, drawn whole, and a violation
    raises :class:`ContractError` (the guarantee is conditional, not
    free).  When no fallback is supplied the canonical choice
    ``g = f . d`` is used; it satisfies the condition identically and is
    always sound, so the repair only asks whether ``f`` offends anywhere
    on the sample, and a coherence check's walk answers that.

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
from typing import ClassVar, Sequence

import numpy as np

from .coherence import (
    SamplingSpec,
    _check_sample,
    _offends,
    _one_value,
    _tally,
    check_coherence,
    coherence_masks,
    default_sampling,
    eval_chunked,
    incoherent_components,
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
    _place_values,
    fiber_codes,
    fiber_digits,
    _fields,
    _read,
    _set_fields,
)
from .errors import ContractError, ValidationError, _checked, malformed
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
        return _set_fields(self)

    @staticmethod
    def from_dict(doc: dict) -> "GammaSpec":
        with malformed("gamma document"):
            return _read(GammaSpec, doc, "gamma document")


# ---------------------------------------------------------------------------
# repaired-expression nodes
# ---------------------------------------------------------------------------

# Fibonacci hashing: the top bits of a code times 2**64 over the golden
# ratio spread runs of consecutive codes evenly over a table.  Every
# operand is a uint64, so numpy's legacy and current type promotion
# compute the same bits.
_FIB_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _fiber_hash(codes: np.ndarray, bits: int) -> np.ndarray:
    """A ``bits``-bit hash of each fiber code, ``1 <= bits <= 64``."""
    return codes.astype(np.uint64) * _FIB_MULTIPLIER >> np.uint64(64 - bits)


def _fiber_filter(fibers: np.ndarray) -> tuple[np.ndarray, int]:
    """A one-hash filter of a set of fiber codes, in the manner of Bloom
    (1970): a table of ``2**bits`` bits, 32 to 64 a code and at least one
    word, with bit ``_fiber_hash(c, bits)`` set for each code ``c`` of
    the set, so a code whose bit is clear is not in it."""
    bits = max(6, (32 * len(fibers) - 1).bit_length())
    h = _fiber_hash(fibers, bits)
    words = np.zeros(1 << (bits - 6), dtype=np.uint64)
    np.bitwise_or.at(words, h >> np.uint64(6), np.uint64(1) << (h & np.uint64(63)))
    return words, bits


@dataclass(frozen=True, eq=False)
class ExtendedExpr(FuzzyExpr):
    """Domain-extension repair: original inputs plus one control input
    per repaired component, appended in component order.

    ``contaminated[j]`` holds the fibers on which component
    ``extended_components[j]`` defers to its control input, one row of
    level digits (one in ``[0, K)`` per base input) a fiber, in the
    order of their codes (see ``fiber_codes``); the arrays are
    read-only.
    """

    node_name: ClassVar[str] = "extended"

    base: FuzzyExpr
    projection: Projection
    extended_components: tuple[int, ...]
    contaminated: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        k, n = len(self.projection.level_values), self.base.in_arity
        need = f"contaminated fiber digits must be integers in [0, {k})"
        digits, codes = [], []
        for fibers in self.contaminated:
            fiber_set = np.asarray(fibers)
            # an empty set reads as floats of shape (0,): no fibers
            if len(fibers) and fiber_set.shape != (len(fibers), n):
                raise ValidationError(
                    f"each contaminated fiber must be a list of {n} level indices"
                )
            fiber_set = _checked(fiber_set, int, need, 0, k - 1)
            fiber_set = fiber_set.reshape(len(fibers), n).astype(np.int64)
            set_codes = fiber_set @ _place_values(k, n)
            # sorted, so the codes a filter passes are looked up by bisection
            order = np.argsort(set_codes)
            digits.append(fiber_set[order])
            digits[-1].setflags(write=False)
            codes.append(set_codes[order])
        object.__setattr__(self, "contaminated", tuple(digits))
        need = "extended components must be output indices of the base"
        components = _checked(
            np.asarray(self.extended_components), int, need, 0, self.base.out_arity - 1
        )
        object.__setattr__(self, "extended_components", tuple(components.tolist()))
        if len(self.extended_components) != len(self.contaminated):
            raise ValidationError("one contaminated fiber set per extended component")
        if not self.extended_components:
            raise ValidationError("domain extension must repair at least one component")
        if list(self.extended_components) != sorted(set(self.extended_components)):
            raise ValidationError("extended components must be strictly ascending")
        # built here, not on the first batch: built among a walk's slice
        # temporaries, the filters left glibc's heap fragmented and raised
        # the peak RSS of some 500 000-point checks by 12 MiB
        object.__setattr__(self, "_contaminated_arrays", tuple(codes))
        object.__setattr__(self, "_contaminated_filters", tuple(map(_fiber_filter, codes)))

    def _key(self) -> tuple:
        """The fields, each fiber set by its bytes: equal bases have equal
        arities, so equal bytes are equal digits."""
        fibers = tuple(s.tobytes() for s in self.contaminated)
        return self.base, self.projection, self.extended_components, fibers

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, ExtendedExpr) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def in_arity(self) -> int:
        return self.base.in_arity + len(self.extended_components)

    @property
    def out_arity(self) -> int:
        return self.base.out_arity

    @property
    def var_names(self) -> tuple[str, ...]:
        """Default input names: the base's, then ``nc`` or ``nc1``, ``nc2``, ..."""
        p = len(self.extended_components)
        controls = ("nc",) if p == 1 else tuple(f"nc{j + 1}" for j in range(p))
        return default_var_names(self.base.in_arity) + controls

    def _marked(self, j: int, codes: np.ndarray) -> np.ndarray:
        """Per fiber code, whether component ``extended_components[j]``
        defers to its control input there."""
        words, bits = self._contaminated_filters[j]
        h = _fiber_hash(codes, bits)
        hit = (words[h >> np.uint64(6)] >> (h & np.uint64(63)) & np.uint64(1)).astype(bool)
        # at most one code in 32 outside the set passes the filter too
        maybe = np.flatnonzero(hit)
        fibers, candidates = self._contaminated_arrays[j], codes[maybe]
        hit[maybe] = fibers.take(np.searchsorted(fibers, candidates), mode="clip") == candidates
        return hit

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        nb = self.base.in_arity
        x = xs[:, :nb]
        out = self.base._eval(x).copy()
        codes = fiber_codes(self.projection, x)
        for j, comp in enumerate(self.extended_components):
            hit = self._marked(j, codes)
            out[hit, comp] = xs[hit, nb + j]
        return out

    def bounds(self, lo, hi):
        """The base's bounds, and for a repaired component on a box in
        one contaminated fiber its control input's interval, exactly; on
        a box across fibers the hull of both, where the component has a
        contaminated fiber."""
        nb = self.base.in_arity
        base = self.base.bounds(lo[:, :nb], hi[:, :nb])
        if base is None:
            return None
        olo, ohi = base[0].copy(), base[1].copy()
        codes = fiber_codes(self.projection, lo[:, :nb])
        across = codes != fiber_codes(self.projection, hi[:, :nb])
        for j, comp in enumerate(self.extended_components):
            if not len(self.contaminated[j]):
                continue
            inside = ~across & self._marked(j, codes)
            clo, chi = lo[:, nb + j], hi[:, nb + j]
            olo[across, comp] = np.minimum(olo[across, comp], clo[across])
            ohi[across, comp] = np.maximum(ohi[across, comp], chi[across])
            olo[inside, comp], ohi[inside, comp] = clo[inside], chi[inside]
        return olo, ohi


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
        bad = _offends(direct, baseline)
        if bad.any():
            fb, rows = self.fallback, xs[bad]
            out[bad] = self.base._eval(self.projection.apply(rows)) if fb is None else fb._eval(rows)
        return out

    def bounds(self, lo, hi):
        """The hull of the base's bounds and the fallback's; the
        canonical fallback ``f . d`` is bounded by the base on the
        projected box, as the projection is non-decreasing.  On a box in
        one fiber where the base's bounds project to one value on the
        box and on its projection, the base is coherent at every point
        of it, or at none, so the bound is the base's or the
        fallback's."""
        d = self.projection
        plo, phi = d.apply(lo), d.apply(hi)
        base, via = self.base.bounds(lo, hi), self.base.bounds(plo, phi)
        fb = via if self.fallback is None else self.fallback.bounds(lo, hi)
        if base is None or via is None or fb is None:
            return None
        olo, ohi = np.minimum(base[0], fb[0]), np.maximum(base[1], fb[1])
        same, direct = _one_value(d, *base)
        same_via, baseline = _one_value(d, *via)
        settled = (plo == phi).all(axis=1) & same & same_via
        coherent = (direct == baseline).all(axis=1)
        for pick, (blo, bhi) in ((settled & coherent, base), (settled & ~coherent, fb)):
            olo[pick], ohi[pick] = blo[pick], bhi[pick]
        return olo, ohi


# ---------------------------------------------------------------------------
# the repairs
# ---------------------------------------------------------------------------


def gamma_extend(f: FuzzyExpr, spec: GammaSpec) -> FuzzyExpr:
    """Domain-extension repair of ``f`` under ``spec``.

    Returns ``f`` itself when the scan finds no incoherent component
    (the repair is the identity on coherent functions); otherwise an
    :class:`ExtendedExpr` with one control input per incoherent
    component.  The result is coherent at every scanned point, but a
    fiber whose incoherence the scan misses stays unmarked.  The scan is
    a check's walk (``coherence._check_sample``, no witnesses kept) that
    also collects each component's offender fibers.
    """
    if spec.kind != "extend":
        raise ValidationError(f"gamma_extend called with kind {spec.kind!r}")
    fibers: list[np.ndarray] = []
    report = _check_sample(f, spec.projection, spec.sampling_for(f.in_arity), 0, fibers)
    bad_components = incoherent_components(report)
    if not bad_components:
        return f
    k = len(spec.projection.level_values)
    contaminated = [fiber_digits(fibers[i], k, f.in_arity) for i in bad_components]
    return ExtendedExpr(f, spec.projection, tuple(bad_components), contaminated)


def gamma_output_mod(f: FuzzyExpr, spec: GammaSpec) -> FuzzyExpr:
    """Output-modification repair of ``f`` under ``spec``.

    A supplied fallback ``g`` must be coherent itself and must agree,
    after projection, with the projected baseline ``f . d`` at the
    incoherent points of ``f``; both are checked on one scan each of
    ``f`` and ``g`` over the drawn sample, and a violation raises
    :class:`ContractError` naming the first offending sample point.  The
    canonical fallback ``f . d`` meets both conditions by definition and
    is not checked: the repair is ``f`` unless ``check_coherence`` finds
    an offender, on its walk.
    """
    if spec.kind != "output_mod":
        raise ValidationError(f"gamma_output_mod called with kind {spec.kind!r}")
    repaired = OutputModExpr(f, spec.fallback, spec.projection)
    sampling = spec.sampling_for(f.in_arity)
    if spec.fallback is None:
        report = check_coherence(f, spec.projection, sampling, witness_cap=0)
        return repaired if report.coherent_fraction < 1 else f
    xs = sampling.sample(f.in_arity)
    _, direct, baseline = projected_outputs(f, spec.projection, xs)
    _, g_direct, g_baseline = projected_outputs(spec.fallback, spec.projection, xs)
    bad = _offends(direct, baseline)
    g_bad = np.flatnonzero(_tally(g_direct == g_baseline)[:-1]).tolist()
    if g_bad:
        raise ContractError(
            "output modification needs a coherent fallback; the supplied one is "
            f"incoherent on components {g_bad}"
        )
    misses = np.flatnonzero(bad & _offends(g_direct, baseline))
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

    @property
    def in_arity(self) -> int:
        return self.canonical.in_arity

    @property
    def out_arity(self) -> int:
        return self.canonical.out_arity


def quotient_of(f: FuzzyExpr, spec: GammaSpec) -> QuotientMorphism:
    """The class of ``f`` under the repair ``spec``."""
    return QuotientMorphism(canonical=apply_gamma(f, spec), gamma=spec)


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
    return QuotientMorphism(canonical=Compose(g.canonical, f.canonical), gamma=g.gamma)


def functor_gamma(q: QuotientMorphism) -> FuzzyExpr:
    """Send a class to its canonical coherent representative."""
    return q.canonical


def extensionally_equal(f: FuzzyExpr, g: FuzzyExpr, projection: Projection) -> bool:
    """Sampled extensional equality: same signature, same projected
    outputs on ``_EXT_EQ_COUNT`` seeded uniform points (compared exactly)."""
    if (f.in_arity, f.out_arity) != (g.in_arity, g.out_arity):
        return False
    xs = SamplingSpec.random(_EXT_EQ_COUNT, seed=_EXT_EQ_SEED).sample(f.in_arity)
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
    Evidence an outcome lacks stays None: a mismatch carries only ``f``,
    a coherent ``g`` none of ``f``, ``point``, ``lhs`` and ``rhs``.
    """

    kind: str
    gamma: GammaSpec
    g: FuzzyExpr
    detail: str
    f: FuzzyExpr | None = None
    point: float | None = None
    lhs: float | None = None
    rhs: float | None = None

    def to_dict(self) -> dict:
        return _fields(self)


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
    xs = spec.sampling_for(1).sample(1)  # the sample the repair scans
    # raised when no candidate gives an outcome: the last repair's refusal, or this
    error = ContractError("no built-in candidate produced a non-compositionality witness")
    for cand in candidates:
        if cand.in_arity != 1 or cand.out_arity != 1:
            raise ValidationError("the demo needs a unary single-output function")
        ok = coherence_masks(cand, spec.projection, xs)[:, 0]
        if ok.all():
            if g is None:
                continue
            return NoncompDemo(
                "not_applicable", spec, cand,
                "g is coherent on the sample; the repair fixes it and "
                "no composition witness exists",
            )
        try:
            repaired = apply_gamma(cand, spec)
        except ContractError as exc:
            error = exc
            continue
        if spec.kind == "extend":
            return NoncompDemo(
                "arity_mismatch", spec, cand,
                "with f the constant 0, the composite g . f is constant and its "
                "repair keeps signature 1 -> 1, while the repaired g alone has "
                f"signature {repaired.in_arity} -> {repaired.out_arity}; the "
                "repaired parts do not even compose to the same type",
                f=Const((0.0,), in_arity=1),
            )
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
            "witness", spec, cand,
            f"repair(g . f)({a}) = {lhs} but (repair(g) . repair(f))({a}) = {rhs}; "
            "the repair of the coherent composite keeps the original value while "
            "the repaired g has already overwritten it",
            f=f_const, point=a, lhs=lhs, rhs=rhs,
        )
    raise error
