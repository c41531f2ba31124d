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

A grid over one or more inputs is never materialised
(:func:`_check_grid`): its points follow from their indices, and it is
evaluated in the same ``EVAL_CHUNK`` slices, one at a time, so the
report equals the materialised one byte for byte.  Such a grid of at
least ``_MIN_BOX_POINTS`` points, with no more fibers than points, is
not evaluated point by point when ``f`` has interval bounds
(``FuzzyExpr.bounds``).  It is cut into one index box per fiber.  A box
whose bounds project to one value in every component is decided whole
against its fiber's baseline.  Other boxes are bisected, and only the
points of undecided leaves are evaluated.  Verdicts taken near a
projection boundary are taken again in their own slice.  Other grids
walk every slice: below ``_MIN_BOX_POINTS`` that costs less than
bounding boxes.  In both cases the witnesses come from the first
slices, in sample order, that hold offenders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import BOUND_PAD, FuzzyExpr, Point, Projection, fiber_codes, fiber_digits
from .errors import CapacityError, ValidationError, _checked, malformed

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

# Sampling refuses to materialise more points, or more coordinates
# (points times arity: 512 MiB), than these, before anything is drawn.
_MAX_SAMPLE_POINTS = 4_194_304
_MAX_SAMPLE_COORDS = 16 * _MAX_SAMPLE_POINTS

# Expressions are evaluated in slices of at most this many rows, small
# enough that an MLP's hidden activations stay in cache.  It must stay a
# power of two: BLAS kernels can round a row differently when it sits in
# a batch of 1, 3 or 7 rows than when it sits in a larger one, and slice
# boundaries at a power of two leave the last partial slice with the
# same row blocks as the whole batch, so chunked results are
# bit-identical to a single eval_batch call.
EVAL_CHUNK = 1 << 13

# Grid checks bisect an undecided index box until it holds at most this
# many points, and then evaluate them.
_LEAF_POINTS = 64

# Smaller grids are checked point by point: below about 128**2 points
# evaluating every point costs less than bounding and bisecting boxes,
# even for an MLP (up to 256**2 for a cheap norm or piecewise tree).
_MIN_BOX_POINTS = 1 << 14

# A verdict from evaluating leaf points in gathered batches is kept only
# where every output is further than this from a projection boundary:
# outside its own EVAL_CHUNK slice a row can round differently.
_GATHER_MARGIN = 1e-12


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
            if self.count is not None or self.seed is not None:
                raise ValidationError("grid sampling takes only points_per_axis")
            need = "grid sampling needs an integer points_per_axis >= 2"
            object.__setattr__(self, "points_per_axis", _checked(self.points_per_axis, int, need, 2))
        elif self.mode == "random":
            if self.points_per_axis is not None:
                raise ValidationError("random sampling takes no points_per_axis")
            need = "random sampling needs a positive integer count"
            object.__setattr__(self, "count", _checked(self.count, int, need, 1))
            need = "random sampling needs a non-negative integer seed"
            seed = 0 if self.seed is None else self.seed
            object.__setattr__(self, "seed", _checked(seed, int, need, 0))
        else:
            raise ValidationError(f"unknown sampling mode {self.mode!r}")

    @staticmethod
    def grid(points_per_axis: int) -> "SamplingSpec":
        return SamplingSpec("grid", points_per_axis=points_per_axis)

    @staticmethod
    def random(count: int, seed: int = 0) -> "SamplingSpec":
        return SamplingSpec("random", count=count, seed=seed)

    def sample(self, arity: int) -> np.ndarray:
        """Materialise the sample as a ``(N, arity)`` float64 array.

        Grid points are emitted in lexicographic order with axis 0
        slowest; random points in generator order.
        """
        if arity < 0:
            raise ValidationError("arity must be >= 0")
        if arity == 0:
            return np.zeros((1, 0), dtype=np.float64)
        total = self._size(arity)
        if self.mode == "random":
            return np.random.default_rng(self.seed).random((total, arity))
        k = self.points_per_axis
        axis = np.linspace(0.0, 1.0, k)
        out = np.empty((total, arity))
        for j in range(arity):
            # column j repeats each level k**(arity-j-1) times, k**j times over
            out.reshape(k**j, k, -1, arity)[:, :, :, j] = axis[:, None]
        return out

    def _size(self, arity: int) -> int:
        """The number of points over ``arity >= 1`` inputs; a sample over
        the caps is a ``CapacityError``."""
        k = self.points_per_axis or 0
        # k >= 2, so a grid over 23 or more axes is over the cap: k**arity is not computed
        if self.mode == "grid" and arity >= _MAX_SAMPLE_POINTS.bit_length():
            raise CapacityError(
                f"grid sample of {k}**{arity} points exceeds the cap of {_MAX_SAMPLE_POINTS}"
            )
        total = k**arity if self.mode == "grid" else self.count or 0
        if total > _MAX_SAMPLE_POINTS:
            raise CapacityError(
                f"{self.mode} sample of {total} points exceeds the cap of {_MAX_SAMPLE_POINTS}"
            )
        if total * arity > _MAX_SAMPLE_COORDS:
            raise CapacityError(
                f"{self.mode} sample of {total} points over {arity} inputs exceeds the cap "
                f"of {_MAX_SAMPLE_COORDS} coordinates"
            )
        return total

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
        with malformed("sampling document"):
            return SamplingSpec(**doc)


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
    code."""
    k = len(projection.level_values)
    n = f.in_arity
    return projection.apply(eval_chunked(f, codes, lambda c: fiber_digits(c, k, n) / (k - 1)))


def projected_outputs(
    f: FuzzyExpr, projection: Projection, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f(x), d(f(x)), d(f(d(x))))`` per row of ``xs``.  With at most
    ``len(xs)`` fibers the baseline is tabulated for the fibers present
    in ``xs``, else ``f`` is evaluated at every projected row."""
    fx = eval_chunked(f, xs)
    fibers = len(projection.level_values) ** f.in_arity
    if fibers <= len(xs):
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
    if component is not None:
        component = _checked(component, int, "component must be an integer")
        if component < 0 or component >= f.out_arity:
            raise ValidationError(f"component {component} out of range for arity {f.out_arity}")
    ok = coherence_masks(f, projection, arr)[0]
    return bool(ok.all() if component is None else ok[component])


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
    uniform subset (re-sorted by sample index).  A grid over one or
    more inputs is checked slice by slice (:func:`_check_grid`), with
    the same report as evaluating every point at once.
    """
    witness_cap = _checked(witness_cap, int, "witness_cap must be an integer")
    if witness_cap < 0:
        raise ValidationError("witness_cap must be >= 0")
    if sampling is None:
        sampling = default_sampling(f.in_arity)
    if sampling.mode == "grid":
        report = _check_grid(f, projection, sampling, witness_cap)
        if report is not None:
            return report
    xs = sampling.sample(f.in_arity)
    fx, proj_direct, proj_via_levels = projected_outputs(f, projection, xs)
    ok = proj_direct == proj_via_levels
    witnesses = []
    for i in range(f.out_arity):
        bad = np.flatnonzero(~ok[:, i])
        if bad.size > witness_cap:
            if sampling.mode == "random":
                rng = np.random.default_rng([int(sampling.seed or 0), 0x5EED, i])
                bad = np.sort(rng.choice(bad, size=witness_cap, replace=False))
            else:
                bad = bad[:witness_cap]
        witnesses.append(
            [_witness(xs[j], fx[j], proj_direct[j, i], proj_via_levels[j, i]) for j in bad]
        )
    bad_count, any_bad = (~ok).sum(axis=0), int((~ok.all(axis=1)).sum())
    return _report(f, projection, sampling, len(xs), bad_count, any_bad, witnesses)


def _witness(point, output, direct, baseline) -> Witness:
    return Witness(
        point=tuple(float(v) for v in point),
        output=tuple(float(v) for v in output),
        projected_direct=float(direct),
        projected_via_projected_inputs=float(baseline),
    )


def _report(f, projection, sampling, total, bad_count, any_bad, witnesses) -> CoherenceReport:
    """The report of a check over ``total`` points, ``bad_count[i]`` of
    them incoherent in component ``i`` and ``any_bad`` in some one."""
    components = tuple(
        ComponentReport(i, float(1.0 - int(bad) / total), tuple(kept))
        for i, (bad, kept) in enumerate(zip(bad_count, witnesses))
    )
    return CoherenceReport(
        projection=projection,
        sampling=sampling,
        in_arity=f.in_arity,
        out_arity=f.out_arity,
        n_points=total,
        components=components,
        coherent_fraction=float((total - any_bad) / total),
    )


def _one_value(projection: Projection, lo: np.ndarray, hi: np.ndarray, pad: float):
    """Per row: whether every component of ``[lo - pad, hi + pad]``
    projects to one value, and the projection of ``lo - pad``.  The
    projection is non-decreasing, so the values in between project
    the same."""
    low = projection.apply(lo - pad)
    return (low == projection.apply(hi + pad)).all(axis=1), low


def _bisect(blo: np.ndarray, bhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve each index box along its longest side: all left halves,
    then all right halves."""
    rows = np.arange(len(blo))
    axis = np.argmax(bhi - blo, axis=1)
    mid = (blo[rows, axis] + bhi[rows, axis]) // 2
    left_hi, right_lo = bhi.copy(), blo.copy()
    left_hi[rows, axis] = mid
    right_lo[rows, axis] = mid + 1
    return np.concatenate([blo, right_lo]), np.concatenate([left_hi, bhi])


def _box_points(blo: np.ndarray, bhi: np.ndarray, strides: np.ndarray):
    """Flat sample indices of every point of each index box, box after
    box and in sample order within a box, and the box each one is in."""
    shape = bhi - blo + 1
    size = shape.prod(axis=1)
    box = np.repeat(np.arange(len(blo)), size)
    rest = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    flat = np.zeros_like(rest)
    for j in reversed(range(blo.shape[1])):
        flat += (rest % shape[box, j] + blo[box, j]) * strides[j]
        rest //= shape[box, j]
    return flat, box


def _check_grid(
    f: FuzzyExpr, projection: Projection, sampling: SamplingSpec, witness_cap: int
) -> CoherenceReport | None:
    """A grid check one ``EVAL_CHUNK`` slice at a time (see the module
    docstring); ``None`` for a grid over no inputs, or where evaluation
    raises: the materialised check then raises the error (or not)
    exactly as it would have.

    Every slice is walked, counting its verdicts, unless the grid has at
    least ``_MIN_BOX_POINTS`` points, no more fibers than points and
    bounds on every node.  Then a box is decided when ``f.bounds``,
    widened by ``BOUND_PAD``, projects to one value in every component.
    Undecided boxes are bisected down to leaves of at most
    ``_LEAF_POINTS`` points, which are evaluated together in
    ``EVAL_CHUNK`` batches.  A gathered verdict is kept only where the
    row's box was bounded and every output is ``_GATHER_MARGIN`` clear
    of the projection's boundaries; the slices of other rows are walked
    too.  Witnesses come from the first walked slices, in sample order,
    that hold offenders, each evaluated whole: in box mode, the slices
    that meet a decided bad box's flat index range or hold a bad leaf
    row, until every component has its witnesses.
    """
    n, m = f.in_arity, f.out_arity
    if n == 0:
        return None
    total = sampling._size(n)
    levels = len(projection.level_values)
    tabulated = levels**n <= total
    k = sampling.points_per_axis
    axis = np.linspace(0.0, 1.0, k)
    strides = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    slices = -(-total // EVAL_CHUNK)
    cap = min(witness_cap, total)
    witnesses: list[list[Witness]] = [[] for _ in range(m)]
    bad_count = np.zeros(m, dtype=np.int64)
    any_bad = 0

    def points(flat: np.ndarray) -> np.ndarray:
        return axis[np.column_stack(np.unravel_index(flat, (k,) * n))]

    def bound(blo, bhi):
        with np.errstate(over="ignore", invalid="ignore"):
            return f.bounds(axis[blo], axis[bhi])

    def walk(s: int) -> np.ndarray:
        """Evaluate slice ``s`` whole, as the materialised check does,
        keep its first offenders in each component short of ``cap``,
        and return its verdicts."""
        xs = points(np.arange(s * EVAL_CHUNK, min((s + 1) * EVAL_CHUNK, total)))
        fx = f.eval_batch(xs)
        direct = projection.apply(fx)
        if tabulated:
            baseline = table[fiber_codes(projection, xs)]
        else:
            baseline = projection.apply(f.eval_batch(projection.apply(xs)))
        ok = direct == baseline
        for i, kept in enumerate(witnesses):
            for j in np.flatnonzero(~ok[:, i])[: cap - len(kept)].tolist():
                kept.append(_witness(xs[j], fx[j], direct[j, i], baseline[j, i]))
        return ok

    try:
        bounds = None
        if tabulated:
            # one box per fiber: the projection is non-decreasing, so each
            # level covers one run of grid indices on every axis
            cuts = np.flatnonzero(np.diff(projection.apply(axis))) + 1
            run_lo, run_hi = np.concatenate([[0], cuts]), np.concatenate([cuts - 1, [k - 1]])
            runs = np.indices((len(run_lo),) * n).reshape(n, -1).T
            blo, bhi = run_lo[runs], run_hi[runs]
            # the fibers present, ascending, so the table is built as the
            # materialised check builds it
            present = fiber_codes(projection, axis[blo])
            table = np.empty((levels**n, m), dtype=np.float64)
            table[present] = fiber_table(f, projection, present)
            if total >= _MIN_BOX_POINTS:
                bounds = bound(blo, bhi)
        if bounds is None:
            for s in range(slices):
                ok = walk(s)
                bad_count += (~ok).sum(axis=0)
                any_bad += int((~ok.all(axis=1)).sum())
            return _report(f, projection, sampling, total, bad_count, any_bad, witnesses)

        fiber = present
        bad_boxes = []  # (first and last flat index, bad components) of decided bad boxes
        leaves = []  # (blo, bhi, fiber, bounded) of undecided leaves
        while len(blo):
            bounded = np.isfinite(bounds[0]).all(axis=1) & np.isfinite(bounds[1]).all(axis=1)
            same, value = _one_value(projection, *bounds, BOUND_PAD)
            decided = bounded & same
            size = (bhi - blo + 1).prod(axis=1)
            bad = value[decided] != table[fiber[decided]]
            hit = bad.any(axis=1)
            bad_count += (bad * size[decided, None]).sum(axis=0)
            any_bad += int(size[decided][hit].sum())
            bad_boxes.append((blo[decided][hit] @ strides, bhi[decided][hit] @ strides, bad[hit]))
            leaf = ~decided & (size <= _LEAF_POINTS)
            leaves.append((blo[leaf], bhi[leaf], fiber[leaf], bounded[leaf]))
            split = ~decided & ~leaf
            blo, bhi = _bisect(blo[split], bhi[split])
            fiber = np.tile(fiber[split], 2)
            bounds = bound(blo, bhi)

        # leaf points, in sample order, evaluated in gathered batches
        llo, lhi, lfiber, lbounded = (np.concatenate(parts) for parts in zip(*leaves))
        flat, box = _box_points(llo, lhi, strides)
        order = np.argsort(flat)
        flat, box = flat[order], box[order]
        fx = eval_chunked(f, points(flat))
        ok = projection.apply(fx) == table[lfiber[box]]
        clear, _ = _one_value(projection, fx, fx, _GATHER_MARGIN)
        unsure = np.zeros(slices, dtype=bool)
        unsure[flat[~(clear & lbounded[box])] // EVAL_CHUNK] = True

        # per slice and component, whether the slice may hold an offender
        first, last, bad = (np.concatenate(parts) for parts in zip(*bad_boxes))
        edges = np.zeros((slices + 1, m), dtype=np.int64)
        np.add.at(edges, first // EVAL_CHUNK, bad)
        np.subtract.at(edges, last // EVAL_CHUNK + 1, bad)
        wanted = np.cumsum(edges, axis=0)[:-1] > 0
        rows, comps = np.nonzero(~ok)
        wanted[flat[rows] // EVAL_CHUNK, comps] = True

        for s in range(slices):
            short = np.array([len(kept) < cap for kept in witnesses])
            if unsure[s] or (wanted[s] & short).any():
                # every leaf row of the slice takes the slice's verdict
                a, b = np.searchsorted(flat, [s * EVAL_CHUNK, (s + 1) * EVAL_CHUNK])
                ok[a:b] = walk(s)[flat[a:b] - s * EVAL_CHUNK]
        bad_count += (~ok).sum(axis=0)
        any_bad += int((~ok.all(axis=1)).sum())
    except ValidationError:
        return None
    return _report(f, projection, sampling, total, bad_count, any_bad, witnesses)


def incoherent_components(report: CoherenceReport) -> list[int]:
    """Indices of output components with at least one incoherent sample,
    in ascending order."""
    return [c.component for c in report.components if c.coherent_fraction < 1.0]
