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

Expressions are evaluated over a sample in slices of ``EVAL_CHUNK``
rows (:func:`eval_chunked`), so the memory an evaluation needs beyond
the sample and its output arrays is bounded by the chunk, not by the
sample size.  One routine gives a slice's ``(f(x), d(f(x)),
d(f(d(x))))`` (:func:`_slice_outputs`), for :func:`projected_outputs`
and for every check alike.  With no more fibers ``d(x)`` than sampled
points, and at most ``_MAX_SAMPLE_POINTS``, the baseline
``d(f(d(x)))`` is read by fiber code from one table, built once for
every fiber the sample meets (:func:`_baseline_table`); with more,
``f`` is evaluated at every projected point of the slice.

Every check walks its sample in those slices (:func:`_check_sample`),
so the report equals evaluating every point at once byte for byte.  A
grid's slices are walked one at a time, in order.  A random sample's
are shared by the calling thread and, where the process may run on two
CPUs or more, one helper thread (at most one in the process), each
taking the next slice until none is left (:func:`_walk_every`); each
slice writes only its own rows and its own tally, so the report has the
same bytes whichever walker takes which slice.  No check materialises
its sample: each slice is read when it is walked
(``SamplingSpec._rows``), a grid's points from their indices
(``core.fiber_digits``) and a random sample's from their place in the
generator's stream.  Only a grid's work is capped
(``_MAX_GRID_POINTS``).  A grid with no more projection levels than
points per axis meets every fiber, so its table is over all of them.

Such a grid is not evaluated point by point when it has at least
``_MIN_BOX_POINTS`` points, its fibers average at least 8 points each,
and ``f`` has interval bounds (``FuzzyExpr.bounds``).  It is cut into
one index box per fiber, each carrying its fiber's code, and a box is
decided whole against its fiber's baseline when its bounds project to
one value in every component (each node pads its own rounding).
Undecided boxes are bisected down to leaves of at most ``_LEAF_POINTS``
points (:func:`_decide_boxes`), whose points are evaluated together in
``EVAL_CHUNK`` batches.  A gathered verdict is kept only where every
output of the row is ``_GATHER_MARGIN`` clear of the projection's
boundaries; the slices of other rows are walked too.  Where the boxes
made and the points of undecided leaves come to more than
``_MAX_SAMPLE_POINTS`` rows, every slice is walked instead.  Other
grids walk every slice: with fewer points, or fewer points per fiber,
that costs less than bounding boxes.

In both cases a grid's witnesses are the first offenders of each
component in sample order, from the first slices that hold offenders,
each walked whole; with boxes, those are the slices that meet a decided
bad box's flat index range or hold a bad leaf row.  A random sample's
are a seeded subset of all its offenders.

Both repairs in ``gamma`` scan through the same walk: domain extension
has it collect the fiber codes of each component's offenders (of decided
bad boxes, bad leaf rows and offenders in walked slices), and the
canonical output modification reads the check's coherent fraction.
Every check first frees a 16 MiB block, so that glibc serves the
slices' temporaries from its heap whatever the process freed before
(``_HEAP_PRIMER_BYTES``).  Each walker holds one slice of temporaries,
in its own glibc arena.  Beyond them a random check that chooses
witnesses keeps 11 bytes a point and component: ``f(x)``, the
baseline's level index (``uint16``) and the verdict.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import FuzzyExpr, Point, Projection, _check_batch, _fields, _float_points
from .core import _place_values, _read, _set_fields, fiber_codes, fiber_digits
from .errors import CapacityError, ValidationError, _checked, malformed

__all__ = [
    "DEFAULT_WITNESS_CAP",
    "SamplingSpec",
    "Witness",
    "ComponentReport",
    "CoherenceReport",
    "default_sampling",
    "eval_chunked",
    "fiber_outputs",
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

# Sampling refuses more points, or more coordinates (points times arity:
# 512 MiB), than these, before anything is drawn: they cap what
# SamplingSpec.sample holds, the per-point arrays a random check keeps
# for its witnesses (it reads its sample a slice at a time, and refuses
# what sample() would), and the fiber table, offender fibers and box
# decisions of a grid.
_MAX_SAMPLE_POINTS = 4_194_304
_MAX_SAMPLE_COORDS = 16 * _MAX_SAMPLE_POINTS

# A grid check holds one slice of its grid at a time, or at most
# _MAX_SAMPLE_POINTS rows of box decisions, so only its work is capped.
# How long that work takes depends on the expression: walking every
# slice of a 512**2 grid at 256 levels (4 points a fiber, so no box is
# decided; best of 3) cost 0.05 us a point for the Lukasiewicz OR,
# 0.21 us for a 2-input network of two 16-unit layers and 9.3 us for one
# of two 256-unit layers (a 2-core Xeon), so a walk of this many points
# with no box decided takes about 14 s, 57 s and 42 min.
_MAX_GRID_POINTS = 1 << 28

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

# Every check first allocates and frees a block of this size.  A slice's
# temporaries (MLP activations, gathered points) reach about 1 MiB, and
# glibc serves a block above its dynamic mmap threshold with fresh pages,
# faulted in again on every slice; it raises the threshold (and its heap
# trim threshold, to twice that) only when the process frees such a
# block.  Freeing this one raises it past every slice temporary, so a
# walk's speed does not depend on what the process freed before.  It must
# stay below 32 MiB, glibc's ceiling for the dynamic threshold: freeing a
# larger block leaves the threshold as it was.  np.empty touches none of
# its pages.
_HEAP_PRIMER_BYTES = 16 << 20

# A random sample's slices are walked by this many threads: the caller
# and, with two, one helper.  Each walker holds one slice of temporaries
# (in its own glibc arena), and more than two were not measured.
_WALKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# held by a walk while its helper thread runs, so that at most one helper
# exists: a walk that finds it held, by a check on another thread, walks
# alone
_helper_busy = threading.Lock()


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
        slowest; random points in generator order.  A sample over no
        inputs is its one point.
        """
        if arity < 0:
            raise ValidationError("arity must be >= 0")
        total = self._size(arity)
        out = np.empty((total, arity))
        for lo in range(0, total, EVAL_CHUNK):
            out[lo : lo + EVAL_CHUNK] = self._rows(arity, lo, min(lo + EVAL_CHUNK, total))
        return out

    def _rows(self, arity: int, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` of the sample over ``arity`` inputs, in any
        order of calls.  A grid point follows from its index
        (``core.fiber_digits``); a random one from its place in the
        generator's stream, which PCG64 jumps to: each float64 takes
        one 64-bit draw."""
        if self.mode == "random":
            rng = np.random.default_rng(self.seed)
            rng.bit_generator.advance(int(lo) * arity)  # numpy integers overflow there
            return rng.random((hi - lo, arity))
        k = self.points_per_axis
        return np.linspace(0.0, 1.0, k)[fiber_digits(np.arange(lo, hi), k, arity)]

    def _size(self, arity: int, walked: bool = False) -> int:
        """The number of points over ``arity`` inputs (one over none); a
        sample over the caps is a ``CapacityError``.  A ``walked`` grid
        is capped at ``_MAX_GRID_POINTS`` points and no coordinates."""
        if arity == 0:
            return 1
        k = self.points_per_axis or 0
        cap = _MAX_GRID_POINTS if walked else _MAX_SAMPLE_POINTS
        # k >= 2, so a grid over cap.bit_length() or more axes is over the
        # cap: k**arity is not computed
        if self.mode == "grid" and arity >= cap.bit_length():
            raise CapacityError(f"grid sample of {k}**{arity} points exceeds the cap of {cap}")
        total = k**arity if self.mode == "grid" else self.count or 0
        if total > cap:
            raise CapacityError(f"{self.mode} sample of {total} points exceeds the cap of {cap}")
        if not walked and total * arity > _MAX_SAMPLE_COORDS:
            raise CapacityError(
                f"{self.mode} sample of {total} points over {arity} inputs exceeds the cap "
                f"of {_MAX_SAMPLE_COORDS} coordinates"
            )
        return total

    def to_dict(self) -> dict:
        return _set_fields(self)

    @staticmethod
    def from_dict(doc: dict) -> "SamplingSpec":
        with malformed("sampling document"):
            return _read(SamplingSpec, doc, "sampling document")


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
        return {"verdict": self.verdict, **_fields(self)}


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


def fiber_outputs(f: FuzzyExpr, k: int, codes: np.ndarray) -> np.ndarray:
    """``f(r)`` at the point ``r`` of each code of a fiber of ``k``
    levels per axis, one row per code."""
    n = f.in_arity
    return eval_chunked(f, codes, lambda c: fiber_digits(c, k, n) / (k - 1))


def fiber_table(f: FuzzyExpr, projection: Projection, codes: np.ndarray) -> np.ndarray:
    """``d(f(r))`` at the point ``r`` of each fiber code, one row per
    code."""
    return projection.apply(fiber_outputs(f, len(projection.level_values), codes))


def _baseline_table(
    f: FuzzyExpr,
    projection: Projection,
    total: int,
    rows: Callable[[int, int], np.ndarray] | None = None,
) -> np.ndarray | None:
    """The fiber table of every fiber a sample of ``total`` points meets,
    one row per fiber code (the rows of fibers it misses are unset), or
    ``None`` where fibers outnumber ``min(total, _MAX_SAMPLE_POINTS)``.
    A grid (``rows`` is ``None``) then has no more levels than points
    per axis, so it meets every fiber; the fibers of another sample are
    found a slice at a time, ``rows(lo, hi)`` giving rows ``lo:hi``."""
    fibers = len(projection.level_values) ** f.in_arity
    if fibers > min(total, _MAX_SAMPLE_POINTS):
        return None
    present = np.arange(fibers)
    if rows is not None:
        seen = np.zeros(fibers, dtype=bool)
        for lo in range(0, total, EVAL_CHUNK):
            seen[fiber_codes(projection, rows(lo, min(lo + EVAL_CHUNK, total)))] = True
        present = np.flatnonzero(seen)
    table = np.empty((fibers, f.out_arity), dtype=np.float64)
    table[present] = fiber_table(f, projection, present)
    return table


def _slice_outputs(
    f: FuzzyExpr, projection: Projection, xs: np.ndarray, table: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f(x), d(f(x)), d(f(d(x))))`` per row of one slice ``xs``: the
    baseline is read from ``table`` by fiber code, or, with no table,
    evaluated at the projected rows."""
    fx = f.eval_batch(xs)
    direct = projection.apply(fx)
    if table is None:
        return fx, direct, projection.apply(f.eval_batch(projection.apply(xs)))
    return fx, direct, table[fiber_codes(projection, xs)]


def projected_outputs(
    f: FuzzyExpr, projection: Projection, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(f(x), d(f(x)), d(f(d(x))))`` per row of ``xs``, one
    ``EVAL_CHUNK`` slice at a time; the baseline is read from a table
    of the fibers present in ``xs`` where a check's would be
    (:func:`_baseline_table`)."""
    xs = _check_batch(xs, f.in_arity)  # its fibers are found before it is evaluated
    table = _baseline_table(f, projection, len(xs), lambda lo, hi: xs[lo:hi])
    out = np.empty((3, len(xs), f.out_arity), dtype=np.float64)
    for lo in range(0, len(xs), EVAL_CHUNK):
        rows = xs[lo : lo + EVAL_CHUNK]
        out[:, lo : lo + EVAL_CHUNK] = _slice_outputs(f, projection, rows, table)
    return tuple(out)


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
    arr = _float_points(x).reshape(1, -1)
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
    uniform subset (re-sorted by sample index).  Every sample is
    checked slice by slice (:func:`_check_sample`), with the same
    report as evaluating every point at once: its baseline is read from
    a table over every fiber of a grid, or every fiber a random sample
    meets, when there are no more fibers than points, and evaluated per
    point otherwise; a grid's fiber boxes are decided from bounds only
    where they average 8 points or more.
    """
    witness_cap = _checked(witness_cap, int, "witness_cap must be an integer")
    if witness_cap < 0:
        raise ValidationError("witness_cap must be >= 0")
    if sampling is None:
        sampling = default_sampling(f.in_arity)
    return _check_sample(f, projection, sampling, witness_cap)


def _witness(projection: Projection, point, output, i: int, via: float) -> Witness:
    return Witness(
        point=tuple(float(v) for v in point),
        output=tuple(float(v) for v in output),
        projected_direct=float(projection.apply(output[i])),
        projected_via_projected_inputs=float(via),
    )


def _tally(ok: np.ndarray, size: np.ndarray | None = None) -> np.ndarray:
    """Per component, the points incoherent where ``ok`` is False, and
    last those incoherent in some component; row ``r`` of ``ok`` counts
    ``size[r]`` points (default 1)."""
    # one row per component: on numpy 2.4.6 (a 2-core Xeon, one thread,
    # best of 5 x 200 calls) a C-ordered (8192, 2) bool array reduced
    # along axis 1 in 113-132 us, its transposed copy along axis 0 in
    # 6-8 us; an (8192, 1) one took 1-3 us either way.  The older figure
    # of 10 to 60 times (150-190 us against 3-12 us) names no numpy
    # version and is unverified; numpy 1.24 was not measured.
    bad = ~ok.T.copy()
    bad = np.vstack([bad, bad.any(axis=0)])
    return bad.sum(axis=1) if size is None else bad @ size


def _offends(direct: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """Per row of ``f(x)`` and ``f(d(x))``, both projected, whether some
    component differs; reduced one row per component, as in ``_tally``."""
    return ~(direct == baseline).T.copy().all(axis=0)


def _joined(parts: list[tuple]) -> list[np.ndarray]:
    """Tuples of arrays, joined place by place into one array each."""
    return [np.concatenate(side) for side in zip(*parts)]


def _one_value(projection: Projection, lo: np.ndarray, hi: np.ndarray, pad: float = 0.0):
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
    """Flat sample indices of every point of the index boxes, in sample
    order, and the box each one is in."""
    shape = bhi - blo + 1
    size = shape.prod(axis=1)
    box = np.repeat(np.arange(len(blo)), size)
    rest = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    flat = np.zeros_like(rest)
    for j in reversed(range(blo.shape[1])):
        flat += (rest % shape[box, j] + blo[box, j]) * strides[j]
        rest //= shape[box, j]
    order = np.argsort(flat)
    return flat[order], box[order]


def _decide_boxes(f: FuzzyExpr, projection: Projection, axis: np.ndarray, table: np.ndarray):
    """Decide the fiber boxes of the grid with the points ``axis`` on
    every axis from ``f.bounds``, against ``table``, its fiber table.

    The grid is cut into one index box per fiber, and each box carries
    its fiber's code from then on.  A box is decided when its bounds
    project to one value in every component: its points are
    all coherent in a component where that value is the fiber's
    baseline, and all incoherent elsewhere.  An undecided box is halved
    along its longest side (:func:`_bisect`) until it holds at most
    ``_LEAF_POINTS`` points.  Returns ``(tally, bad, leaves)``:

    - ``tally``, the ``_tally`` of the points of every decided box;
    - ``bad``, the decided boxes with an incoherent component, as
      ``(low corners, high corners, incoherent components, fiber codes)``;
    - ``leaves``, the undecided leaves, as ``(low corners, high corners,
      fiber codes)``.

    ``None`` where ``f`` has no bounds, or where the boxes made and the
    points of undecided leaves come to more than ``_MAX_SAMPLE_POINTS``
    rows, as many as a drawn sample may hold.
    """
    n = f.in_arity
    # the projection is non-decreasing, so each level covers one run of
    # grid indices on every axis
    cuts = np.flatnonzero(np.diff(projection.apply(axis))) + 1
    run_lo, run_hi = np.concatenate([[0], cuts]), np.concatenate([cuts - 1, [len(axis) - 1]])
    runs = fiber_digits(np.arange(len(run_lo) ** n), len(run_lo), n)
    blo, bhi = run_lo[runs], run_hi[runs]
    codes = fiber_codes(projection, axis[blo])
    tally = np.zeros(f.out_arity + 1, dtype=np.int64)
    bad_boxes, leaves = [], []
    # rows held, as in a drawn sample: every box made, and the points of
    # undecided leaves, which the grid caller gathers at once
    held_rows = len(blo)
    while len(blo):
        parts = []  # f.bounds of the boxes, EVAL_CHUNK boxes a call
        for lo in range(0, len(blo), EVAL_CHUNK):
            chunk = slice(lo, lo + EVAL_CHUNK)
            parts.append(f.bounds(axis[blo[chunk]], axis[bhi[chunk]]))
            if parts[-1] is None:
                return None
        decided, value = _one_value(projection, *_joined(parts))
        size = (bhi - blo + 1).prod(axis=1)
        bad = value[decided] != table[codes[decided]]
        hit = bad.any(axis=1)
        tally += _tally(~bad, size[decided])
        bad_boxes.append((blo[decided][hit], bhi[decided][hit], bad[hit], codes[decided][hit]))
        leaf = ~decided & (size <= _LEAF_POINTS)
        leaves.append((blo[leaf], bhi[leaf], codes[leaf]))
        split = ~decided & ~leaf
        blo, bhi = _bisect(blo[split], bhi[split])
        codes = np.tile(codes[split], 2)  # both halves of a box lie in its fiber
        held_rows += int(size[leaf].sum()) + len(blo)
        if held_rows > _MAX_SAMPLE_POINTS:
            return None
    return tally, _joined(bad_boxes), _joined(leaves)


def _walk_every(walk: Callable[[int], object], slices: int) -> None:
    """``walk(s)`` for every ``s`` in ``range(slices)``, in no set order:
    the caller and, with ``_WALKERS`` at 2, one helper thread each pull
    the next slice until none is left.  The helper runs under the
    caller's numpy error state, which numpy keeps per thread.  An error
    in either walker stops the other at its next pull, and the call
    returns or raises only once the helper has ended: the caller's own
    error first, else the helper's."""
    if _WALKERS < 2 or slices < 2 or not _helper_busy.acquire(blocking=False):
        for s in range(slices):
            walk(s)
        return
    pulls, lock, failed = iter(range(slices)), threading.Lock(), threading.Event()
    errors: list[BaseException] = []

    def pull() -> None:
        while not failed.is_set():
            with lock:
                s = next(pulls, None)
            if s is None:
                return
            try:
                walk(s)
            except BaseException:
                failed.set()
                raise

    def helped(err: dict) -> None:
        with np.errstate(**err):
            try:
                pull()
            except BaseException as exc:  # the caller raises it
                errors.append(exc)

    try:
        helper = threading.Thread(target=helped, args=(np.geterr(),), name="cohexp-walk")
        helper.start()
        try:
            pull()
        finally:
            helper.join()
    finally:
        _helper_busy.release()
    if errors:
        raise errors[0]


def _check_sample(
    f: FuzzyExpr,
    projection: Projection,
    sampling: SamplingSpec,
    witness_cap: int,
    offender_fibers: list[np.ndarray] | None = None,
) -> CoherenceReport:
    """A check one ``EVAL_CHUNK`` slice at a time (see the module
    docstring): the walk, a grid's box decisions (:func:`_decide_boxes`)
    and the choice of witnesses.  Every slice is read when it is walked
    (``SamplingSpec._rows``), so no sample is held whole; a grid is
    capped at ``_MAX_GRID_POINTS`` points, unless ``offender_fibers`` is
    given, and a random sample at the caps of a drawn one.

    A walked grid slice keeps the rows of its offenders in the
    components that have found fewer than ``witness_cap`` so far, and a
    grid's witnesses are the first ``witness_cap`` of each component, in
    sample order.  A random sample takes the seeded subset of its
    offenders once their count is known, so with a cap above 0 it keeps
    ``f(x)``, the baseline's level index and the verdicts of every
    point, in arrays whose size does not depend on how many offend, and
    reads the points of the witnesses it chose back from the sample.  Its
    slices are walked on two threads where it may (:func:`_walk_every`);
    a grid's in order, on the calling thread.

    Given ``offender_fibers``, the check appends to it, per component,
    the sorted fiber codes that hold an offender: the fiber of each
    decided bad box (a box lies in one fiber), of each bad leaf row and
    of each offender in a walked slice.  Deciding boxes adds the codes
    of its boxes and leaf rows only once it returns a tally: where it
    cannot, it has walked no slice.

    The check first frees a block of ``_HEAP_PRIMER_BYTES`` (see there).
    """
    np.empty(_HEAP_PRIMER_BYTES, dtype=np.uint8)
    n, m = f.in_arity, f.out_arity
    random = sampling.mode == "random"
    # a grid is walked, and so capped by its work, unless the walk keeps
    # offender fibers, whose lists grow with the offenders
    total = sampling._size(n, not random and offender_fibers is None)
    table = _baseline_table(f, projection, total, partial(sampling._rows, n) if random else None)
    slices = -(-total // EVAL_CHUNK)
    cap = min(witness_cap, total)
    # (x, f(x), baseline, bad) of grid offenders that may be witnesses
    kept = [(np.empty((0, n)), *[np.empty((0, m))] * 2, np.empty((0, m), dtype=bool))]
    # which offenders of a random sample are witnesses depends on their
    # count, so it keeps every point's f(x), baseline and verdicts: arrays
    # of one size whatever that count (a list of offenders made the heap,
    # and peak memory, vary).  The baseline is kept as its level index,
    # which a uint16 holds (at most _MAX_LEVELS levels): 11 bytes a point
    # and component in all
    keep_all = random and cap > 0
    if keep_all:
        outs, bads = np.empty((total, m)), np.empty((total, m), dtype=bool)
        levels = np.empty((total, m), dtype=np.uint16)
        top = len(projection.level_values) - 1
    # the _tally of each walked slice, and a grid's running sum of them,
    # which picks what it keeps and walks
    tallies = np.zeros((slices, m + 1), dtype=np.int64)
    found = np.zeros(m + 1, dtype=np.int64)
    # per component, the fiber codes of offenders, for offender_fibers, in
    # any order: np.unique sorts them
    hits = [[np.empty(0, dtype=np.int64)] for _ in range(m)]

    def walk(s: int) -> np.ndarray:
        """Evaluate slice ``s`` whole, keep what its witnesses may need,
        write its tally to ``tallies[s]`` (on a grid, add it to
        ``found``) and return its verdicts.  A random sample's slices
        write only their own rows and slots, so they may be walked in any
        order, on two threads."""
        lo, hi = s * EVAL_CHUNK, min((s + 1) * EVAL_CHUNK, total)
        xs = sampling._rows(n, lo, hi)
        fx, direct, baseline = _slice_outputs(f, projection, xs, table)
        ok = direct == baseline
        if keep_all:
            outs[lo:hi], levels[lo:hi], bads[lo:hi] = fx, np.round(baseline * top), ~ok
        elif not random:
            rows = np.flatnonzero(~ok[:, found[:m] < cap].all(axis=1))
            kept.append((xs[rows], fx[rows], baseline[rows], ~ok[rows]))
        counted = tallies[s] = _tally(ok)
        if not random:
            found[:] += counted
        if offender_fibers is not None:
            for i in np.flatnonzero(counted[:m]):
                hits[i].append(fiber_codes(projection, xs[~ok[:, i]]))
        return ok

    counts = None
    # boxes are decided only on grids of _MIN_BOX_POINTS points whose
    # fiber boxes average 8 points or more: on smaller boxes walking is
    # faster (an MLP on 1024**2 points, 4 a box: 0.7 s against 1.9 s);
    # a floor of 0 decides boxes on every grid
    per = _MIN_BOX_POINTS // 8
    if not random and table is not None and total * per >= _MIN_BOX_POINTS * max(len(table), per):
        k = sampling.points_per_axis
        axis = np.linspace(0.0, 1.0, k)
        boxes = _decide_boxes(f, projection, axis, table)
        if boxes is not None:
            tally, (blo, bhi, bad, bad_codes), (llo, lhi, lcodes) = boxes
            strides = _place_values(k, n)
            # leaf points, in sample order, evaluated in gathered batches
            flat, box = _box_points(llo, lhi, strides)
            fx = eval_chunked(f, axis[fiber_digits(flat, k, n)])
            codes = lcodes[box]
            ok = projection.apply(fx) == table[codes]
            clear, _ = _one_value(projection, fx, fx, _GATHER_MARGIN)
            unsure = np.zeros(slices, dtype=bool)
            unsure[flat[~clear] // EVAL_CHUNK] = True
            # per slice and component, whether the slice may hold an offender
            edges = np.zeros((slices + 1, m), dtype=np.int64)
            np.add.at(edges, blo @ strides // EVAL_CHUNK, bad)
            np.subtract.at(edges, bhi @ strides // EVAL_CHUNK + 1, bad)
            wanted = np.cumsum(edges, axis=0)[:-1] > 0
            rows, comps = np.nonzero(~ok)
            wanted[flat[rows] // EVAL_CHUNK, comps] = True
            for s in range(slices):
                if unsure[s] or (wanted[s] & (found[:m] < cap)).any():
                    # every leaf row of the slice takes the slice's verdict
                    a, b = np.searchsorted(flat, [s * EVAL_CHUNK, (s + 1) * EVAL_CHUNK])
                    ok[a:b] = walk(s)[flat[a:b] - s * EVAL_CHUNK]
            if offender_fibers is not None:
                for i in range(m):
                    hits[i] += [bad_codes[bad[:, i]], codes[~ok[:, i]]]
            counts = tally + _tally(ok)
    if counts is None:
        if random:
            _walk_every(walk, slices)
        else:
            # a grid keeps its first offenders: its slices go in order
            for s in range(slices):
                walk(s)
        counts = tallies.sum(axis=0)

    if offender_fibers is not None:
        offender_fibers.extend(np.unique(np.concatenate(h)) for h in hits)
    if keep_all:
        fx, bad = outs, bads
    else:
        xs, fx, baseline, bad = _joined(kept)
    components = []
    for i in range(m):
        at = np.flatnonzero(bad[:, i])
        if at.size > cap and random:
            rng = np.random.default_rng([sampling.seed, 0x5EED, i])
            at = at[np.sort(rng.choice(at.size, size=cap, replace=False))]
        witnesses = []
        for j in at[:cap]:
            if keep_all:
                # a random sample's witness points are read back once chosen
                x, via = sampling._rows(n, j, j + 1)[0], projection.level_values[levels[j, i]]
            else:
                x, via = xs[j], baseline[j, i]
            witnesses.append(_witness(projection, x, fx[j], i, via))
        fraction = float(1.0 - int(counts[i]) / total)
        components.append(ComponentReport(i, fraction, tuple(witnesses)))
    return CoherenceReport(
        projection=projection,
        sampling=sampling,
        in_arity=n,
        out_arity=m,
        n_points=total,
        components=tuple(components),
        coherent_fraction=float((total - int(counts[-1])) / total),
    )


def incoherent_components(report: CoherenceReport) -> list[int]:
    """Indices of output components with at least one incoherent sample,
    in ascending order."""
    return [c.component for c in report.components if c.coherent_fraction < 1.0]
