"""Coherence checking for fuzzy functions under a projection.

A fuzzy function ``f`` is *coherent at a point* ``x`` (with respect to
a projection ``d``) when projecting its output commutes with first
projecting the input::

    d(f(x)) == d(f(d(x)))

The coherent set of ``f`` is the subset of its domain where this holds.
Points already in the image of ``d`` (fixed points) are always
coherent because ``d`` is idempotent.  Checks here are sample-based:
a report can certify incoherence by exhibiting witnesses, while a
clean sample only certifies coherence *on that sample*.

Projected values are compared exactly; both sides of the comparison
are produced by the same projection code path, so equal projected
values are bit-identical floats.

With no more fibers ``d(x)`` than sampled points, the baseline
``d(f(d(x)))`` is evaluated once per fiber and gathered by fiber code.

Expressions are evaluated over a sample in slices of ``EVAL_CHUNK``
rows (:func:`eval_chunked`), so the memory an evaluation needs beyond
the sample and its output arrays is bounded by the chunk, not by the
sample size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import FuzzyExpr, Point, Projection, fiber_codes, fiber_digits
from .errors import CapacityError, ValidationError

__all__ = [
    "DEFAULT_WITNESS_CAP",
    "SamplingSpec",
    "Witness",
    "ComponentReport",
    "CoherenceReport",
    "default_sampling",
    "eval_chunked",
    "fiber_table",
    "projected_outputs",
    "coherence_masks",
    "is_coherent_at",
    "check_coherence",
    "incoherent_components",
]

# At most this many witnesses are materialised per output component;
# coherent fractions always count every sampled point.
DEFAULT_WITNESS_CAP = 100

# Sampling, on a grid or at random, refuses to materialise more points
# than this; the check comes before anything is allocated or drawn.
_MAX_SAMPLE_POINTS = 4_194_304

# Expressions are evaluated in slices of at most this many rows, small
# enough that an MLP's hidden activations stay in cache.  It must stay a
# power of two: BLAS kernels can round a row differently when it sits in
# a batch of 1, 3 or 7 rows than when it sits in a larger one, and slice
# boundaries at a power of two leave the last partial slice with the
# same row blocks as the whole batch, so chunked results are
# bit-identical to a single eval_batch call.
EVAL_CHUNK = 1 << 13


@dataclass(frozen=True)
class SamplingSpec:
    """Where to evaluate a function when checking coherence.

    ``grid`` mode places ``points_per_axis`` equally spaced points on
    every axis (both endpoints included) and takes the full product.
    ``random`` mode draws ``count`` points uniformly from the unit
    hypercube with a seeded generator; results are reproducible
    bit-for-bit for a given seed.
    """

    mode: str
    points_per_axis: int | None = None
    count: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode == "grid":
            if self.points_per_axis is None or int(self.points_per_axis) < 2:
                raise ValidationError("grid sampling needs points_per_axis >= 2")
            if self.count is not None or self.seed is not None:
                raise ValidationError("grid sampling takes only points_per_axis")
        elif self.mode == "random":
            if self.count is None or int(self.count) < 1:
                raise ValidationError("random sampling needs a positive count")
            if self.points_per_axis is not None:
                raise ValidationError("random sampling takes no points_per_axis")
            if self.seed is None:
                object.__setattr__(self, "seed", 0)
        else:
            raise ValidationError(f"unknown sampling mode {self.mode!r}")

    @staticmethod
    def grid(points_per_axis: int) -> "SamplingSpec":
        return SamplingSpec("grid", points_per_axis=int(points_per_axis))

    @staticmethod
    def random(count: int, seed: int = 0) -> "SamplingSpec":
        return SamplingSpec("random", count=int(count), seed=int(seed))

    def sample(self, arity: int) -> np.ndarray:
        """Materialise the sample as a ``(N, arity)`` float64 array.

        Grid points are emitted in lexicographic order with axis 0
        slowest; random points in generator order.
        """
        if arity < 0:
            raise ValidationError("arity must be >= 0")
        if arity == 0:
            return np.zeros((1, 0), dtype=np.float64)
        k = int(self.points_per_axis or 0)
        total = k**arity if self.mode == "grid" else int(self.count)  # type: ignore[arg-type]
        if total > _MAX_SAMPLE_POINTS:
            raise CapacityError(
                f"{self.mode} sample of {total} points exceeds the cap of {_MAX_SAMPLE_POINTS}"
            )
        if self.mode == "random":
            return np.random.default_rng(self.seed).random((total, arity))
        axis = np.linspace(0.0, 1.0, k)
        out = np.empty((total, arity))
        for j in range(arity):
            # column j repeats each level k**(arity-j-1) times, k**j times over
            out.reshape(k**j, k, -1, arity)[:, :, :, j] = axis[:, None]
        return out

    def to_dict(self) -> dict:
        doc: dict = {"mode": self.mode}
        if self.points_per_axis is not None:
            doc["points_per_axis"] = self.points_per_axis
        if self.count is not None:
            doc["count"] = self.count
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "SamplingSpec":
        return SamplingSpec(
            doc.get("mode", ""),
            points_per_axis=doc.get("points_per_axis"),
            count=doc.get("count"),
            seed=doc.get("seed"),
        )


def default_sampling(arity: int, seed: int = 0) -> SamplingSpec:
    """Default check density: a 101-point grid per axis up to arity 2,
    ``10**5`` seeded random points above."""
    if arity <= 2:
        return SamplingSpec.grid(101)
    return SamplingSpec.random(100_000, seed=seed)


@dataclass(frozen=True)
class Witness:
    """One sampled point at which coherence fails for a component."""

    point: Point
    output: Point
    projected_direct: float
    projected_via_projected_inputs: float


@dataclass(frozen=True)
class ComponentReport:
    component: int
    coherent_fraction: float
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class CoherenceReport:
    """Result of a sampled coherence check.

    ``components[i].coherent_fraction`` counts every sampled point;
    witnesses are capped but their absence in a component means the
    component was coherent on the whole sample.
    """

    projection: Projection
    sampling: SamplingSpec
    in_arity: int
    out_arity: int
    n_points: int
    components: tuple[ComponentReport, ...]
    # Fraction of sampled points coherent in every component at once.
    coherent_fraction: float

    @property
    def verdict(self) -> str:
        if all(c.coherent_fraction == 1.0 for c in self.components):
            return "coherent_on_sample"
        return "incoherent_with_witnesses"

    def to_dict(self) -> dict:
        return {
            "projection": self.projection.to_dict(),
            "sampling": self.sampling.to_dict(),
            "in_arity": self.in_arity,
            "out_arity": self.out_arity,
            "n_points": self.n_points,
            "verdict": self.verdict,
            "coherent_fraction": self.coherent_fraction,
            "components": [
                {
                    "component": c.component,
                    "coherent_fraction": c.coherent_fraction,
                    "witnesses": [
                        {
                            "point": list(w.point),
                            "output": list(w.output),
                            "projected_direct": w.projected_direct,
                            "projected_via_projected_inputs": w.projected_via_projected_inputs,
                        }
                        for w in c.witnesses
                    ],
                }
                for c in self.components
            ],
        }


def eval_chunked(
    f: FuzzyExpr, xs: np.ndarray, rows: Callable[[np.ndarray], np.ndarray] | None = None
) -> np.ndarray:
    """``f.eval_batch`` over ``xs`` in slices of ``EVAL_CHUNK`` rows,
    written into one ``(len(xs), out_arity)`` array.  ``rows`` maps each
    slice of ``xs`` to the points ``f`` is evaluated at (default: the
    slice itself)."""
    out = np.empty((len(xs), f.out_arity), dtype=np.float64)
    for lo in range(0, len(xs), EVAL_CHUNK):
        chunk = xs[lo : lo + EVAL_CHUNK]
        out[lo : lo + EVAL_CHUNK] = f.eval_batch(chunk if rows is None else rows(chunk))
    return out


def fiber_table(f: FuzzyExpr, projection: Projection, codes: np.ndarray) -> np.ndarray:
    """``d(f(r))`` at the point ``r`` of each fiber code, one row per
    code; the projection must have a finite image."""
    k = len(projection.level_values)  # type: ignore[arg-type]
    n = f.in_arity
    return projection.apply(eval_chunked(f, codes, lambda c: fiber_digits(c, k, n) / (k - 1)))


def projected_outputs(
    f: FuzzyExpr, projection: Projection, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f(x), d(f(x)), d(f(d(x))))`` per row of ``xs``.  With at most
    ``len(xs)`` fibers the baseline is tabulated for the fibers present
    in ``xs``, else ``f`` is evaluated at every projected row."""
    fx = eval_chunked(f, xs)
    levels = projection.level_values
    fibers = len(levels) ** f.in_arity if levels is not None else None
    if fibers is not None and fibers <= len(xs):
        codes = np.empty(len(xs), dtype=np.int64)
        for lo in range(0, len(xs), EVAL_CHUNK):
            codes[lo : lo + EVAL_CHUNK] = fiber_codes(projection, xs[lo : lo + EVAL_CHUNK])
        present = np.flatnonzero(np.bincount(codes, minlength=fibers))
        table = np.empty((fibers, f.out_arity), dtype=np.float64)
        table[present] = fiber_table(f, projection, present)
        baseline = table[codes]
    else:
        baseline = projection.apply(eval_chunked(f, xs, projection.apply))
    return fx, projection.apply(fx), baseline


def coherence_masks(f: FuzzyExpr, projection: Projection, xs: np.ndarray) -> np.ndarray:
    """Boolean array of shape ``(N, out_arity)``: True where component
    ``i`` of ``f`` is coherent at the sampled point."""
    _, direct, baseline = projected_outputs(f, projection, xs)
    return direct == baseline


def is_coherent_at(
    f: FuzzyExpr,
    projection: Projection,
    x: Sequence[float],
    component: int | None = None,
) -> bool:
    """Check coherence of ``f`` at a single point.

    With ``component=None`` every output component must be coherent.
    """
    arr = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if arr.shape[1] != f.in_arity:
        raise ValidationError(
            f"point arity {arr.shape[1]} does not match function arity {f.in_arity}"
        )
    ok = coherence_masks(f, projection, arr)[0]
    if component is None:
        return bool(ok.all())
    if component < 0 or component >= f.out_arity:
        raise ValidationError(f"component {component} out of range for arity {f.out_arity}")
    return bool(ok[component])


def check_coherence(
    f: FuzzyExpr,
    projection: Projection,
    sampling: SamplingSpec | None = None,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> CoherenceReport:
    """Sample the domain of ``f`` and report per-component coherence.

    The coherent fraction counts every sampled point.  Witness lists
    are capped at ``witness_cap`` per component: grid samples keep the
    first offenders in sample order, random samples keep a seeded
    uniform subset (re-sorted by sample index).
    """
    if witness_cap < 0:
        raise ValidationError("witness_cap must be >= 0")
    if sampling is None:
        sampling = default_sampling(f.in_arity)
    xs = sampling.sample(f.in_arity)
    fx, proj_direct, proj_via_levels = projected_outputs(f, projection, xs)
    ok = proj_direct == proj_via_levels

    components = []
    for i in range(f.out_arity):
        bad = np.flatnonzero(~ok[:, i])
        fraction = 1.0 - bad.size / xs.shape[0]
        if bad.size > witness_cap:
            if sampling.mode == "random":
                rng = np.random.default_rng([int(sampling.seed or 0), 0x5EED, i])
                bad = np.sort(rng.choice(bad, size=witness_cap, replace=False))
            else:
                bad = bad[:witness_cap]
        witnesses = tuple(
            Witness(
                point=tuple(float(v) for v in xs[j]),
                output=tuple(float(v) for v in fx[j]),
                projected_direct=float(proj_direct[j, i]),
                projected_via_projected_inputs=float(proj_via_levels[j, i]),
            )
            for j in bad
        )
        components.append(ComponentReport(i, float(fraction), witnesses))

    return CoherenceReport(
        projection=projection,
        sampling=sampling,
        in_arity=f.in_arity,
        out_arity=f.out_arity,
        n_points=int(xs.shape[0]),
        components=tuple(components),
        coherent_fraction=float(ok.all(axis=1).mean()),
    )


def incoherent_components(report: CoherenceReport) -> list[int]:
    """Indices of output components with at least one incoherent sample,
    in ascending order."""
    return [c.component for c in report.components if c.coherent_fraction < 1.0]
