"""Sampled coherence checking.

The bounded-sum connectives have closed-form incoherence regions under
the 0.5 threshold, which pins the expected grid fractions exactly:

* ``min(1, x+y)`` is incoherent on ``{x+y >= 0.5, x < 0.5, y < 0.5}``.
  On the 101-point grid that is 1225 of 10201 points.
* ``max(0, x+y-1)`` is incoherent on the mirrored triangle
  ``{x >= 0.5, y >= 0.5, x+y < 1.5}``.
"""

import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohexp import (
    GAMMA_KINDS,
    Affine,
    CapacityError,
    CoherenceReport,
    ContractError,
    Compose,
    Condition,
    Const,
    Coord,
    ExtendedExpr,
    FuzzyExpr,
    GammaSpec,
    LiftedProjection,
    MlpExpr,
    OutputModExpr,
    Parallel,
    Piece,
    Piecewise,
    Projection,
    SamplingSpec,
    SerializationError,
    TConorm,
    TNorm,
    ValidationError,
    apply_gamma,
    check_coherence,
    coherence_masks,
    default_sampling,
    identity,
    incoherent_components,
    init_model,
    is_coherent_at,
)
from cohexp import coherence as coherence_module
from cohexp import gamma as gamma_module
from cohexp.coherence import _MAX_SAMPLE_POINTS, EVAL_CHUNK, fiber_table, projected_outputs
from cohexp.core import BOUND_PAD, _place_values, fiber_codes, fiber_digits
from cohexp.nn import forward
from cohexp.serialize import dumps
from conftest import BatchRecorder

# 101-point grid: the incoherent triangle holds 1225 of 10201 points.
GRID_101_COHERENT_FRACTION = 1.0 - 1225 / 10201


class TestSamplingSpec:
    def test_grid_sample_is_lexicographic(self):
        xs = SamplingSpec.grid(3).sample(2)
        assert xs.tolist() == [
            [0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
            [0.5, 0.0], [0.5, 0.5], [0.5, 1.0],
            [1.0, 0.0], [1.0, 0.5], [1.0, 1.0],
        ]

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 17])
    def test_grid_matches_meshgrid(self, arity, k):
        axis = np.linspace(0.0, 1.0, k)
        expected = np.stack(np.meshgrid(*([axis] * arity), indexing="ij"), -1).reshape(-1, arity)
        xs = SamplingSpec.grid(k).sample(arity)
        assert xs.shape == expected.shape and xs.dtype == expected.dtype
        assert xs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k, arity", [(100, 2), (3, 9)])
    def test_grid_is_the_decoded_lattice(self, k, arity):
        """Point ``i`` of a grid of more than one ``EVAL_CHUNK`` is the
        axis value of each of ``fiber_digits(i)``."""
        assert k**arity > EVAL_CHUNK
        expected = np.linspace(0.0, 1.0, k)[fiber_digits(np.arange(k**arity), k, arity)]
        assert SamplingSpec.grid(k).sample(arity).tobytes() == expected.tobytes()

    def test_grid_includes_endpoints(self):
        xs = SamplingSpec.grid(101).sample(1)
        assert xs[0, 0] == 0.0 and xs[-1, 0] == 1.0
        assert xs.shape == (101, 1)

    def test_random_is_seed_deterministic(self):
        a = SamplingSpec.random(100, seed=7).sample(3)
        b = SamplingSpec.random(100, seed=7).sample(3)
        c = SamplingSpec.random(100, seed=8).sample(3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_grid_capacity_cap(self):
        with pytest.raises(CapacityError):
            SamplingSpec.grid(101).sample(4)

    @pytest.mark.parametrize("count", [_MAX_SAMPLE_POINTS + 1, 10**12])
    def test_random_capacity_cap(self, count):
        spec = SamplingSpec.random(count, seed=3)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                spec.sample(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert SamplingSpec.random(_MAX_SAMPLE_POINTS, seed=3).sample(1).shape == (
            _MAX_SAMPLE_POINTS, 1)

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True])
    def test_random_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(SerializationError) as exc:
            SamplingSpec.from_dict({"mode": "random", "count": 5, "seed": seed})
        assert exc.value.code == "E_FORMAT" and "non-negative integer seed" in str(exc.value)
        with pytest.raises(ValidationError):
            SamplingSpec("random", count=5, seed=seed)

    @pytest.mark.parametrize("make", [
        lambda: SamplingSpec("random", count=3.5),
        lambda: SamplingSpec.random(2.7),
        lambda: SamplingSpec.random(5, seed=1.5),
        lambda: SamplingSpec.grid(3.9),
        lambda: SamplingSpec.grid("3"),
    ], ids=["count", "random-count", "random-seed", "grid", "grid-string"])
    def test_sizes_and_seeds_are_not_truncated(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_fractional_grid_document_refused(self):
        with pytest.raises(SerializationError) as exc:
            SamplingSpec.from_dict({"mode": "grid", "points_per_axis": 2.5})
        assert exc.value.code == "E_FORMAT"

    def test_numpy_integers_accepted(self):
        spec = SamplingSpec.random(np.int64(5), seed=np.uint8(3))
        assert spec.to_dict() == {"mode": "random", "count": 5, "seed": 3}
        assert type(spec.count) is int and type(spec.seed) is int

    def test_validation(self):
        with pytest.raises(ValidationError):
            SamplingSpec.grid(1)
        with pytest.raises(ValidationError):
            SamplingSpec.random(0)
        with pytest.raises(ValidationError):
            SamplingSpec("diagonal")

    def test_default_sampling_density(self):
        assert default_sampling(2) == SamplingSpec.grid(101)
        assert default_sampling(3) == SamplingSpec.random(100_000, seed=0)

    def test_round_trip(self):
        for s in (SamplingSpec.grid(5), SamplingSpec.random(10, seed=3)):
            assert SamplingSpec.from_dict(s.to_dict()) == s


class TestCoherenceMasks:
    def test_triangle_is_exactly_the_incoherent_set(self, luk_or, threshold):
        xs = SamplingSpec.grid(101).sample(2)
        got_incoherent = ~coherence_masks(luk_or, threshold, xs)[:, 0]
        x, y = xs[:, 0], xs[:, 1]
        expected = (x + y >= 0.5) & (x < 0.5) & (y < 0.5)
        assert np.array_equal(got_incoherent, expected)
        assert int(expected.sum()) == 1225

    def test_mirror_triangle_for_the_tnorm(self, luk_and, threshold):
        xs = SamplingSpec.grid(101).sample(2)
        got_incoherent = ~coherence_masks(luk_and, threshold, xs)[:, 0]
        x, y = xs[:, 0], xs[:, 1]
        expected = (x >= 0.5) & (y >= 0.5) & (x + y < 1.5)
        assert np.array_equal(got_incoherent, expected)

    def test_components_are_independent(self, luk_or, threshold):
        f = Parallel((luk_or, LiftedProjection(threshold, 1)))
        xs = np.array([[0.3, 0.3, 0.7]])
        mask = coherence_masks(f, threshold, xs)
        assert mask.tolist() == [[False, True]]

    def test_is_coherent_at(self, luk_or, threshold):
        assert not is_coherent_at(luk_or, threshold, (0.3, 0.3))
        assert is_coherent_at(luk_or, threshold, (0.6, 0.6))
        assert is_coherent_at(luk_or, threshold, (0.1, 0.2))

    def test_is_coherent_at_component_selection(self, luk_or, threshold):
        f = Parallel((luk_or, identity(1)))
        assert not is_coherent_at(f, threshold, (0.3, 0.3, 0.7))
        assert not is_coherent_at(f, threshold, (0.3, 0.3, 0.7), component=0)
        assert is_coherent_at(f, threshold, (0.3, 0.3, 0.7), component=1)
        with pytest.raises(ValidationError):
            is_coherent_at(f, threshold, (0.3, 0.3, 0.7), component=2)

    @pytest.mark.parametrize("component", [0.5, "0", True], ids=["float", "str", "bool"])
    def test_is_coherent_at_component_is_checked(self, luk_or, threshold, component):
        with pytest.raises(ValidationError, match="component must be an integer"):
            is_coherent_at(luk_or, threshold, (0.3, 0.3), component=component)

    @pytest.mark.parametrize(
        "point",
        [["a", "b"], [0.3, None, 0.1j], ["0.3", "0.3"], [True, False]],
        ids=["str", "mixed", "numeric-str", "bool"],
    )
    def test_is_coherent_at_non_numeric_point(self, luk_or, threshold, point):
        with pytest.raises(ValidationError, match="evaluation points must be numbers"):
            is_coherent_at(luk_or, threshold, point)


class TestCheckCoherence:
    def test_frozen_grid_fraction(self, luk_or, threshold):
        report = check_coherence(luk_or, threshold, SamplingSpec.grid(101))
        assert report.coherent_fraction == GRID_101_COHERENT_FRACTION
        assert report.components[0].coherent_fraction == GRID_101_COHERENT_FRACTION
        assert report.verdict == "incoherent_with_witnesses"
        assert report.n_points == 10201

    def test_coherent_function_has_no_witnesses(self, threshold):
        report = check_coherence(LiftedProjection(threshold, 2), threshold)
        assert report.verdict == "coherent_on_sample"
        assert report.coherent_fraction == 1.0
        assert report.components[0].witnesses == ()

    def test_witness_records_both_sides(self, luk_or, threshold):
        report = check_coherence(luk_or, threshold, SamplingSpec.grid(101))
        w = report.components[0].witnesses[0]
        assert w.point == (0.01, 0.49)
        assert w.output == (0.5,)
        assert w.projected_direct == 1.0
        assert w.projected_via_projected_inputs == 0.0

    def test_witness_cap_respected(self, luk_or, threshold):
        report = check_coherence(luk_or, threshold, SamplingSpec.grid(101), witness_cap=7)
        assert len(report.components[0].witnesses) == 7
        # the fraction still counts every grid point
        assert report.coherent_fraction == GRID_101_COHERENT_FRACTION

    def test_random_witness_subset_is_reproducible(self, luk_or, threshold):
        spec = SamplingSpec.random(5000, seed=11)
        a = check_coherence(luk_or, threshold, spec, witness_cap=10)
        b = check_coherence(luk_or, threshold, spec, witness_cap=10)
        assert a.components[0].witnesses == b.components[0].witnesses
        assert len(a.components[0].witnesses) == 10

    def test_joint_fraction_counts_rows_bad_anywhere(self, luk_or, luk_and, threshold):
        from cohexp import Compose, Coord

        # both connectives fed the same (x, y); their incoherence
        # triangles are disjoint, so joint failures add up
        f = Compose(Parallel((luk_or, luk_and)), Coord((0, 1, 0, 1), 2))
        report = check_coherence(f, threshold, SamplingSpec.grid(101))
        per_component = [c.coherent_fraction for c in report.components]
        assert report.coherent_fraction == pytest.approx(sum(per_component) - 1.0)
        assert report.coherent_fraction == 1.0 - 2500 / 10201
        assert incoherent_components(report) == [0, 1]

    def test_report_document_shape(self, luk_or, threshold):
        doc = check_coherence(luk_or, threshold, SamplingSpec.grid(11)).to_dict()
        assert doc["verdict"] == "incoherent_with_witnesses"
        assert doc["in_arity"] == 2 and doc["out_arity"] == 1
        assert doc["sampling"] == {"mode": "grid", "points_per_axis": 11}
        witness = doc["components"][0]["witnesses"][0]
        assert set(witness) == {"point", "output", "projected_direct", "projected_via_projected_inputs"}

    def test_negative_witness_cap_rejected(self, luk_or, threshold):
        with pytest.raises(ValidationError):
            check_coherence(luk_or, threshold, witness_cap=-1)

    @pytest.mark.parametrize("cap", [1.5, "3", True], ids=["float", "str", "bool"])
    def test_witness_cap_is_checked_not_converted(self, luk_or, threshold, cap):
        with pytest.raises(ValidationError, match="witness_cap must be an integer"):
            check_coherence(luk_or, threshold, SamplingSpec.grid(5), witness_cap=cap)

    def test_negative_witness_cap_message(self, luk_or, threshold):
        """The message the command line prints for ``--witness-limit -1``."""
        with pytest.raises(ValidationError, match=r"^witness_cap must be >= 0$"):
            check_coherence(luk_or, threshold, SamplingSpec.grid(5), witness_cap=-1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fixed_points_are_always_coherent(arity, seed):
    """d(x) is a fixed point of d, so both sides of the coherence
    comparison coincide there, whatever the function."""
    rng = np.random.default_rng(seed)
    d = Projection.threshold(0.5)
    f = Const(tuple(rng.random(2)), in_arity=arity) if seed % 2 else identity(arity)
    if isinstance(f, Const) or arity >= 1:
        xs = d.apply(rng.random((32, arity)))
        assert coherence_masks(f, d, xs).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_projection_composed_functions_are_coherent_everywhere(seed):
    """f = g . d is coherent at every point: d is idempotent."""
    rng = np.random.default_rng(seed)
    from cohexp import Affine, Compose

    d = Projection.threshold(0.5)
    g = Affine(tuple(tuple(row) for row in rng.uniform(0, 0.5, (1, 2))), (0.1,))
    f = Compose(g, LiftedProjection(d, 2))
    xs = rng.random((200, 2))
    assert coherence_masks(f, d, xs).all()


def test_report_fields_round_trip_through_dict(luk_or, threshold):
    report = check_coherence(luk_or, threshold, SamplingSpec.grid(21))
    doc = report.to_dict()
    assert doc["coherent_fraction"] == report.coherent_fraction
    assert Projection.from_dict(doc["projection"]) == threshold
    assert isinstance(report, CoherenceReport)


def _mlp(n: int):
    return MlpExpr(init_model(n, (5,), 2, np.random.default_rng(n)))


def _piecewise(n: int):
    """A clamped affine sum where the last input is at least 0.3, a
    constant elsewhere."""
    ramp = Affine(((0.6,) * n,), (0.1,))
    return Piecewise((Piece((Condition(n - 1, "ge", 0.3),), ramp),), Const((0.7,), in_arity=n))


@pytest.mark.parametrize(
    "projection",
    [Projection.threshold(0.5), Projection.quantize(3), Projection.quantize(4)],
    ids=["threshold", "quantize3", "quantize4"],
)
@pytest.mark.parametrize("make", [_mlp, _piecewise], ids=["mlp", "piecewise"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("extra", [-1, 0, 37], ids=["below", "equal", "above"])
def test_projected_outputs_match_direct_evaluation(projection, make, n, extra):
    """Below ``k**n`` points the baseline is evaluated per point, from
    ``k**n`` on it is tabulated per fiber; both must give exactly the
    values of evaluating ``f`` at every projected point."""
    f = make(n)
    k = len(projection.level_values)
    xs = SamplingSpec.random(k**n + extra, seed=n).sample(n)
    fx, direct, baseline = projected_outputs(f, projection, xs)
    assert np.array_equal(fx, f.eval_batch(xs))
    assert np.array_equal(direct, projection.apply(f.eval_batch(xs)))
    assert np.array_equal(baseline, projection.apply(f.eval_batch(projection.apply(xs))))


@pytest.mark.parametrize("value", [2.0, -0.6, np.nan])
def test_projected_outputs_refuse_points_outside_the_cube(luk_or, value):
    """Points outside the cube are refused as evaluation refuses them,
    before their fibers are looked up in a table."""
    xs = np.full((20, 2), 0.5)
    xs[7, 1] = value
    with pytest.raises(ValidationError, match="inside the unit hypercube"):
        projected_outputs(luk_or, Projection.quantize(3), xs)


def _mlp16(n: int, m: int):
    return MlpExpr(init_model(n, (16, 16), m, np.random.default_rng(10 * n + m)))


CHUNK_EXPRS = {
    "mlp1x1": _mlp16(1, 1),
    "mlp2x2": _mlp16(2, 2),
    "mlp4x1": _mlp16(4, 1),
    "mlp4x2": _mlp16(4, 2),
    "affine": Affine(((0.3, 0.5, -0.2), (0.1, 0.1, 0.7)), (0.2, -0.1)),
    "piecewise": _piecewise(2),
    "norms": Compose(TConorm("lukasiewicz"), Parallel((TNorm("product"), TConorm("prob_sum")))),
    "extended": ExtendedExpr(TConorm("lukasiewicz"), Projection.quantize(3), (0,), ((0, 1, 4),)),
}

CHUNK_ROWS = {
    "1": 1,
    "3": 3,
    "7": 7,
    "chunk-1": EVAL_CHUNK - 1,
    "chunk": EVAL_CHUNK,
    "chunk+1": EVAL_CHUNK + 1,
    "2chunks+3": 2 * EVAL_CHUNK + 3,
    "101sq": 101**2,
}


@pytest.mark.parametrize(
    "projection",
    [Projection.threshold(0.5), Projection.quantize(3)],
    ids=["threshold", "quantize3"],
)
@pytest.mark.parametrize("rows", CHUNK_ROWS.values(), ids=CHUNK_ROWS.keys())
@pytest.mark.parametrize("name", CHUNK_EXPRS.keys())
def test_chunked_evaluation_is_bit_identical(name, rows, projection):
    """Slicing a sample into ``EVAL_CHUNK`` rows changes no bit of any
    output: ``projected_outputs`` and ``fiber_table`` equal a single
    whole-batch ``eval_batch``."""
    f = CHUNK_EXPRS[name]
    n = f.in_arity
    rng = np.random.default_rng(rows)
    xs = rng.random((rows, n))
    fx, direct, baseline = projected_outputs(f, projection, xs)
    whole = f.eval_batch(xs)
    assert np.array_equal(fx, whole)
    assert np.array_equal(direct, projection.apply(whole))
    assert np.array_equal(baseline, projection.apply(f.eval_batch(projection.apply(xs))))

    k = len(projection.level_values)
    codes = rng.integers(0, k**n, rows)
    points = fiber_digits(codes, k, n) / (k - 1)
    assert np.array_equal(
        fiber_table(f, projection, codes), projection.apply(f.eval_batch(points))
    )


# 128**2 fibers outnumber the 101**2 grid points, so quantize(128) takes the per-point path
@pytest.mark.parametrize(
    "run, projection",
    [
        (run, projection)
        for run in ("check", "projected_outputs")
        for projection in (Projection.threshold(0.5), Projection.quantize(128))
    ],
    ids=["table", "direct", "projected_outputs-table", "projected_outputs-direct"],
)
def test_check_evaluates_at_most_a_chunk_at_a_time(luk_or, run, projection, monkeypatch):
    f = BatchRecorder(luk_or)
    encoded = []
    monkeypatch.setattr(
        coherence_module, "fiber_codes", lambda p, xs: encoded.append(len(xs)) or fiber_codes(p, xs)
    )
    sampling = SamplingSpec.grid(101)
    assert 101**2 > EVAL_CHUNK
    if run == "check":
        assert check_coherence(f, projection, sampling).n_points == 101**2
    else:
        fx, _, _ = projected_outputs(f, projection, sampling.sample(2))
        assert len(fx) == 101**2
    assert max(f.sizes) <= EVAL_CHUNK
    # fibers are encoded a chunk at a time too, and only on the table
    # path; a drawn sample is encoded once more first, to find the
    # fibers it meets
    if projection.is_boolean:
        scans = 1 if run == "check" else 2
        assert max(encoded) <= EVAL_CHUNK and sum(encoded) == scans * 101**2
    else:
        assert encoded == []
    # f(x) on every point, then the baseline: per fiber or per point
    assert sum(f.sizes) == 101**2 + (4 if projection.is_boolean else 101**2)


# ---------------------------------------------------------------------------
# grid checks decided box by box
# ---------------------------------------------------------------------------

GRID_PROJECTIONS = {
    "alpha0.5": Projection.threshold(0.5),
    "alpha1.0": Projection.threshold(1.0),
    "q3": Projection.quantize(3),
    "q5": Projection.quantize(5),
    # few points per fiber box on the grids that have a fiber table
    "q33": Projection.quantize(33),
}


def _materialised_report(f, projection, sampling, cap) -> dict:
    """What a check reports when every point is evaluated at once:
    ``projected_outputs`` over ``sampling.sample()``, with the first
    ``cap`` offenders of each component as witnesses on a grid, and a
    seeded uniform subset of ``cap`` of them, in sample order, on a
    random sample."""
    xs = sampling.sample(f.in_arity)
    fx, direct, baseline = projected_outputs(f, projection, xs)
    ok = direct == baseline
    components = []
    for i in range(f.out_arity):
        bad = kept = np.flatnonzero(~ok[:, i])
        if sampling.mode == "random" and bad.size > cap:
            rng = np.random.default_rng([sampling.seed, 0x5EED, i])
            kept = np.sort(rng.choice(bad, size=cap, replace=False))
        components.append({
            "component": i,
            "coherent_fraction": 1.0 - bad.size / len(xs),
            "witnesses": [
                {
                    "point": [float(v) for v in xs[j]],
                    "output": [float(v) for v in fx[j]],
                    "projected_direct": float(direct[j, i]),
                    "projected_via_projected_inputs": float(baseline[j, i]),
                }
                for j in kept[:cap]
            ],
        })
    return {
        "projection": projection.to_dict(),
        "sampling": sampling.to_dict(),
        "in_arity": f.in_arity,
        "out_arity": f.out_arity,
        "n_points": len(xs),
        "verdict": "coherent_on_sample" if ok.all() else "incoherent_with_witnesses",
        "coherent_fraction": float(ok.all(axis=1).mean()),
        "components": components,
    }


def _offender_fibers(f, projection, sampling) -> list[np.ndarray]:
    """Per component, the sorted fiber codes of the points where
    evaluating the whole sample at once finds ``f`` incoherent."""
    xs = sampling.sample(f.in_arity)
    ok = coherence_masks(f, projection, xs)
    return [np.unique(fiber_codes(projection, xs[~ok[:, i]])) for i in range(f.out_arity)]


def _assert_repaired(f, fibers, kind: str, repaired) -> None:
    """``repaired`` is what repair ``kind`` makes of ``f`` from these
    offender fibers: ``f`` itself where there are none; else a domain
    extension of the incoherent components that marks exactly their
    offenders' fibers, or ``f`` with the canonical fallback."""
    bad = [i for i in range(f.out_arity) if fibers[i].size]
    if not bad:
        assert repaired is f
    elif kind == "extend":
        assert isinstance(repaired, ExtendedExpr) and repaired.base is f
        assert repaired.components == tuple(bad)
        assert repaired.contaminated == tuple(tuple(fibers[i].tolist()) for i in bad)
    else:
        assert isinstance(repaired, OutputModExpr) and repaired.base is f
        assert repaired.fallback is None


def _assert_repairs_match(f, projection, sampling) -> None:
    """Both repairs decide what evaluating every point at once decides,
    or raise the same error."""
    try:
        fibers = _offender_fibers(f, projection, sampling)
    except ValidationError as exc:
        for kind in GAMMA_KINDS:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                apply_gamma(f, GammaSpec(kind, projection, sampling))
        return
    for kind in GAMMA_KINDS:
        _assert_repaired(f, fibers, kind, apply_gamma(f, GammaSpec(kind, projection, sampling)))


UNIT = st.floats(0.0, 1.0)


@st.composite
def scalar_exprs(draw, n: int, depth: int):
    """An ``n -> 1`` expression: coordinates, constants, clamped and
    unclamped affine maps, norm and conorm trees, piecewise
    definitions and lifted projections."""
    choice = draw(st.integers(0, 6 if depth else 3))
    if choice == 0:
        return Coord((draw(st.integers(0, n - 1)),), n)
    if choice == 1:
        return Const((draw(UNIT),), in_arity=n)
    if choice == 2:
        row = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(n))
        return Affine((row,), (draw(st.floats(-1.0, 1.0)),))
    if choice == 3:
        # non-negative weights summing with the bias to at most 1 keep it in the cube
        row = tuple(draw(UNIT) / (n + 1) for _ in range(n))
        return Affine((row,), (draw(UNIT) / (n + 1),), clamp=False)
    a, b = draw(scalar_exprs(n, depth - 1)), draw(scalar_exprs(n, depth - 1))
    if choice == 4:
        node = draw(st.sampled_from([TNorm, TConorm]))
        conn = node(draw(st.sampled_from(sorted(node.functions))))
        return Compose(conn, Compose(Parallel((a, b)), Coord(tuple(range(n)) * 2, n)))
    if choice == 5:
        op = draw(st.sampled_from(["lt", "le", "gt", "ge"]))
        cut = draw(st.sampled_from([0.25, 0.5, 0.7, draw(UNIT)]))
        return Piecewise((Piece((Condition(draw(st.integers(0, n - 1)), op, cut),), a),), b)
    steps = [Projection.threshold(0.5), Projection.threshold(1.0), Projection.quantize(3)]
    levels = draw(st.sampled_from(steps))
    return Compose(LiftedProjection(levels, 1), a)


@st.composite
def crossing_mlps(draw, n: int):
    """A small PReLU network whose 0.5 decision boundary passes through
    a drawn point of the cube, so that grids straddle it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 2))
    model = init_model(n, (draw(st.sampled_from([4, 8])),) * draw(st.integers(1, 2)), m, rng)
    model.slopes[:] = draw(st.sampled_from([0.25, -0.5, 1.5]))
    p = forward(model, rng.random((1, n)))[0]
    model.biases[-1] -= np.log(p / (1.0 - p))
    return MlpExpr(model)


class RowShifted(FuzzyExpr):
    """Lowers the output of every other row of a batch by 1e-14, as a
    BLAS kernel may round a row by its place in the batch.  Its bounds
    are the wrapped expression's, with the lower one padded for the
    shift, as every node pads its own rounding."""

    def __init__(self, inner: FuzzyExpr) -> None:
        self.inner = inner

    @property
    def in_arity(self) -> int:
        return self.inner.in_arity

    @property
    def out_arity(self) -> int:
        return self.inner.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        out = self.inner._eval(xs).copy()
        out[1::2] = np.maximum(out[1::2] - 1e-14, 0.0)
        return out

    def bounds(self, lo, hi):
        inner = self.inner.bounds(lo, hi)
        if inner is None:
            return None
        return np.maximum(inner[0] - BOUND_PAD, 0.0), inner[1]


REPAIR_PROJECTIONS = [Projection.threshold(0.5), Projection.threshold(0.3), Projection.quantize(3)]
REPAIR_SAMPLES = [SamplingSpec.grid(5), SamplingSpec.grid(9), SamplingSpec.random(300, seed=1)]


@st.composite
def repairs_of(draw, f: FuzzyExpr):
    """A repair of ``f`` by ``apply_gamma`` on a small sample: a domain
    extension, or an output modification with the canonical fallback,
    with ``f . d`` supplied, or with a drawn fallback.  Where the repair
    leaves ``f`` as it is, or the drawn fallback breaks its contract,
    the node is built directly, with drawn contaminated fibers."""
    n, m = f.in_arity, f.out_arity
    projection = draw(st.sampled_from(REPAIR_PROJECTIONS))
    kind = draw(st.sampled_from(["extend", "canonical", "f.d", "drawn"]))
    fallback = None
    if kind == "f.d":
        fallback = Compose(f, LiftedProjection(projection, n))
    elif kind == "drawn":
        parts = tuple(draw(scalar_exprs(n, 2)) for _ in range(m))
        fallback = Compose(Parallel(parts), Coord(tuple(range(n)) * m, n))
    spec = GammaSpec("extend" if kind == "extend" else "output_mod", projection,
                     draw(st.sampled_from(REPAIR_SAMPLES)), fallback)
    try:
        repaired = apply_gamma(f, spec)
    except (ContractError, ValidationError):
        repaired = f
    if repaired is not f:
        return repaired
    if kind != "extend":
        return OutputModExpr(f, fallback, projection)
    fibers = len(projection.level_values) ** n
    contaminated = [draw(st.lists(st.integers(0, fibers - 1), max_size=4)) for _ in range(m)]
    return ExtendedExpr(f, projection, tuple(range(m)), contaminated)


GRID_MODES = {"boxes": 0, "every-slice": 1 << 62}


@contextmanager
def grid_mode(mode: str):
    """Inside this context every grid is decided box by box (where it
    can be), or every slice of it is walked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coherence_module, "_MIN_BOX_POINTS", GRID_MODES[mode])
        yield


@st.composite
def grid_cases(draw):
    kind = draw(st.sampled_from(["norms", "mlp", "luk-or", "repaired"]))
    if kind == "luk-or":
        # grid sums land on 0.5 exactly: the threshold's tie
        f, k = TConorm("lukasiewicz"), draw(st.sampled_from([101, 201]))
    elif kind == "mlp":
        f, k = draw(crossing_mlps(draw(st.integers(2, 3)))), draw(st.integers(2, 65))
    elif kind == "norms":
        f, k = draw(scalar_exprs(draw(st.integers(1, 3)), 3)), draw(st.integers(2, 65))
    else:
        # a repair of a scalar tree or of a 1- or 2-output network, on a
        # grid of at most about 20 000 points over its inputs
        base = draw(st.one_of(scalar_exprs(draw(st.integers(1, 2)), 3), crossing_mlps(2)))
        f = draw(repairs_of(RowShifted(base) if draw(st.booleans()) else base))
        k = draw(st.integers(2, int(20_000 ** (1 / f.in_arity))))
    return (RowShifted(f) if draw(st.booleans()) else f), k


@settings(max_examples=500, deadline=None, derandomize=True)
@given(grid_cases(), st.sampled_from(sorted(GRID_PROJECTIONS)), st.sampled_from([0, 1, 100]))
def test_grid_boxes_match_every_point_evaluated(case, projection_name, cap):
    """Deciding grid boxes from bounds, and walking every slice, each
    report what evaluating every point at once reports, byte for byte,
    or raise the same error; and so do both repairs, which scan the
    grid the same way."""
    f, k = case
    projection = GRID_PROJECTIONS[projection_name]
    sampling = SamplingSpec.grid(k)
    for mode in GRID_MODES:
        with grid_mode(mode):
            _assert_repairs_match(f, projection, sampling)
    try:
        expected = _materialised_report(f, projection, sampling, cap)
    except ValidationError as exc:
        for mode in GRID_MODES:
            with pytest.raises(type(exc), match=re.escape(str(exc))), grid_mode(mode):
                check_coherence(f, projection, sampling, witness_cap=cap)
        return
    for mode in GRID_MODES:
        with grid_mode(mode):
            report = check_coherence(f, projection, sampling, witness_cap=cap)
        assert dumps(report.to_dict()) == dumps(expected)


RANDOM_PROJECTIONS = {
    **GRID_PROJECTIONS,
    # more fibers than points on most samples: the per-point baseline
    "q64": Projection.quantize(64),
}


@st.composite
def random_cases(draw):
    """A scalar tree over 1-4 inputs or a 1- or 2-output network, and a
    random sample of it: from one point to three slices, with fibers the
    sample misses where it is just large enough for a fiber table."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        f = draw(scalar_exprs(n, 3))
    else:
        f = draw(crossing_mlps(n))
    f = RowShifted(f) if draw(st.booleans()) else f
    name = draw(st.sampled_from(sorted(RANDOM_PROJECTIONS)))
    fibers = len(RANDOM_PROJECTIONS[name].level_values) ** n
    count = draw(st.sampled_from([1, 7, fibers, fibers + 3, 2 * fibers, 3 * EVAL_CHUNK - 5]))
    sampling = SamplingSpec.random(min(count, 3 * EVAL_CHUNK), seed=draw(st.integers(0, 2**32)))
    return f, name, sampling


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_cases(), st.sampled_from([0, 1, 100, 10**9]))
def test_random_checks_match_every_point_evaluated(case, cap):
    """A random sample walked slice by slice reports what evaluating it
    at once reports, witnesses taken by the seeded subset rule included,
    byte for byte, or raises the same error; and both repairs decide
    what evaluating it at once decides."""
    f, projection_name, sampling = case
    projection = RANDOM_PROJECTIONS[projection_name]
    _assert_repairs_match(f, projection, sampling)
    try:
        expected = _materialised_report(f, projection, sampling, cap)
    except ValidationError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            check_coherence(f, projection, sampling, witness_cap=cap)
        return
    report = check_coherence(f, projection, sampling, witness_cap=cap)
    assert dumps(report.to_dict()) == dumps(expected)


@st.composite
def bounded_exprs(draw, n: int):
    """A scalar tree or a network over ``n`` inputs, or a repair of one."""
    f = draw(st.one_of(scalar_exprs(n, 3), crossing_mlps(n)) if n > 1 else scalar_exprs(n, 3))
    return draw(repairs_of(f)) if draw(st.booleans()) else f


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(bounded_exprs(n), st.integers(0, 2**32 - 1)))
)
def test_bounds_hold_every_point_of_a_box(case):
    """Every point of a box evaluates inside the node's bounds for it,
    exactly (each node pads its own rounding), and a box with finite
    bounds has no point where evaluation raises."""
    f, seed = case
    rng = np.random.default_rng(seed)
    n = f.in_arity
    ends = np.sort(rng.random((10, 2, n)), axis=1)
    # degenerate and whole-cube boxes too
    ends[0] = [[0.3] * n, [0.3] * n]
    ends[1] = [[0.0] * n, [1.0] * n]
    # boxes whose ends are 101-grid points, from 0.5 on: the one at 0.5
    # alone, one inside a single fiber of every repair projection, and
    # one that may cross fibers
    ends[2] = [[0.5] * n, [0.5] * n]
    ends[3] = [[0.5] * n, np.round(50 + 20 * rng.random(n)) / 100]
    ends[4] = [[0.5] * n, np.round(50 + 50 * rng.random(n)) / 100]
    ends[5] = np.sort(np.round(100 * rng.random((2, n))) / 100, axis=0)
    lo, hi = ends[:, 0], ends[:, 1]
    olo, ohi = f.bounds(lo, hi)
    assert olo.shape == ohi.shape == (10, f.out_arity)
    for b in range(10):
        if not (np.isfinite(olo[b]).all() and np.isfinite(ohi[b]).all()):
            continue
        # corners, and uniform points inside
        corners = np.where(fiber_digits(np.arange(2**n), 2, n), hi[b], lo[b])
        xs = np.concatenate([corners, lo[b] + (hi[b] - lo[b]) * rng.random((64, n))])
        ys = f.eval_batch(xs)
        assert (ys >= olo[b]).all() and (ys <= ohi[b]).all()


def test_grid_boxes_skip_decided_points(luk_or, threshold, monkeypatch):
    """On the bounded-sum OR most of a 200-point grid is decided without
    evaluation, and the report is the per-point one.  (No grid sum is
    exactly 0.5 there: a 201-point grid has such ties, and their rows
    are evaluated again in their own slices.)"""
    rows = []
    eval_batch = FuzzyExpr.eval_batch
    monkeypatch.setattr(
        FuzzyExpr, "eval_batch", lambda f, xs: rows.append(len(xs)) or eval_batch(f, xs)
    )
    sampling = SamplingSpec.grid(200)
    report = check_coherence(luk_or, threshold, sampling)
    assert sum(rows) < 200**2 // 4
    monkeypatch.setattr(FuzzyExpr, "eval_batch", eval_batch)
    assert dumps(report.to_dict()) == dumps(_materialised_report(luk_or, threshold, sampling, 100))


def test_grid_boxes_decide_a_repaired_network(threshold, monkeypatch):
    """A 101**3 check of the domain extension of a 2-input network is
    decided from its fiber boxes: on a contaminated fiber the output is
    the control input, exactly, so a box there projects to one value
    even where its controls start at 0.5.  Evaluating every point takes
    1 030 309 rows; the report is the every-slice walk's."""
    model = init_model(2, (16, 16), 1, np.random.default_rng(100))
    p = forward(model, np.array([[0.3, 0.3]]))[0]
    model.biases[-1] -= np.log(p / (1.0 - p))
    repaired = apply_gamma(MlpExpr(model), GammaSpec("extend", threshold))
    assert isinstance(repaired, ExtendedExpr) and repaired.in_arity == 3
    rows = []
    eval_batch = FuzzyExpr.eval_batch
    monkeypatch.setattr(
        FuzzyExpr, "eval_batch", lambda f, xs: rows.append(len(xs)) or eval_batch(f, xs)
    )
    sampling = SamplingSpec.grid(101)
    report = check_coherence(repaired, threshold, sampling)
    assert report.verdict == "coherent_on_sample"
    assert sum(rows) <= 10_000
    with grid_mode("every-slice"):
        expected = check_coherence(repaired, threshold, sampling)
    assert sum(rows) > 101**3
    assert dumps(report.to_dict()) == dumps(expected.to_dict())


def test_grid_boxes_take_a_witness_cap_past_the_grid(luk_or, threshold, monkeypatch):
    """A witness cap larger than any array index keeps every offender,
    as the per-point check does."""
    monkeypatch.setattr(coherence_module, "_MIN_BOX_POINTS", 0)
    sampling = SamplingSpec.grid(33)
    report = check_coherence(luk_or, threshold, sampling, witness_cap=10**20)
    assert report.to_dict() == _materialised_report(luk_or, threshold, sampling, 33**2)


def test_grid_boxes_pad_a_lifted_step(threshold):
    """A connective pads its own bounds, so a lifted step over it is
    tested on them as they are.  In floats the probabilistic sum is not
    monotone where its slope is zero: along y = 1 it gives 1.0 at some
    grid points and 1 - 2**-53 at others, and a box whose upper corner
    gives the latter must not be decided as below a threshold at 1."""
    f = Compose(LiftedProjection(Projection.threshold(1.0), 1), TConorm("prob_sum"))
    sampling = SamplingSpec.grid(200)
    report = check_coherence(f, threshold, sampling)
    assert dumps(report.to_dict()) == dumps(_materialised_report(f, threshold, sampling, 100))
    assert report.components[0].coherent_fraction < 1.0


class Undecided(FuzzyExpr):
    """The wrapped expression, with bounds that span the unit interval
    on every box, so that no box is ever decided."""

    def __init__(self, inner: FuzzyExpr) -> None:
        self.inner = inner

    @property
    def in_arity(self) -> int:
        return self.inner.in_arity

    @property
    def out_arity(self) -> int:
        return self.inner.out_arity

    def _eval(self, xs: np.ndarray) -> np.ndarray:
        return self.inner._eval(xs)

    def bounds(self, lo, hi):
        shape = (len(lo), self.out_arity)
        return np.zeros(shape), np.ones(shape)


def test_box_decisions_hold_at_most_the_sample_cap(threshold, monkeypatch):
    """Where boxes never decide, bounding stops once the boxes made and
    the points of undecided leaves come to more than
    ``_MAX_SAMPLE_POINTS`` rows, and every slice is walked instead: no
    leaf point is gathered, and the report is the per-point one.  Under
    the real cap the same grid gathers every point as a leaf point."""
    f = Undecided(TConorm("lukasiewicz"))
    sampling = SamplingSpec.grid(200)
    expected = dumps(_materialised_report(f, threshold, sampling, 100))
    gathered = []  # leaf points gathered by each check
    box_points = coherence_module._box_points

    def gather(blo, bhi, strides):
        flat, box = box_points(blo, bhi, strides)
        gathered.append(len(flat))
        return flat, box

    monkeypatch.setattr(coherence_module, "_box_points", gather)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coherence_module, "_MAX_SAMPLE_POINTS", 5_000)
        seen = _record_bounds(patch, f)
        report = check_coherence(f, threshold, sampling)
    assert seen and gathered == []
    assert dumps(report.to_dict()) == expected
    report = check_coherence(f, threshold, sampling)
    assert gathered == [200**2]
    assert dumps(report.to_dict()) == expected


def _record_bounds(monkeypatch, f) -> list:
    """The boxes a check asks ``f`` itself to bound, as ``(box count,
    whether bounds came back)``."""
    seen = []
    inner = type(f).bounds

    def bounds(self, lo, hi):
        out = inner(self, lo, hi)
        if self is f:
            seen.append((len(lo), out is not None))
        return out

    monkeypatch.setattr(type(f), "bounds", bounds)
    return seen


def test_small_grids_take_the_per_point_check(luk_or, threshold, monkeypatch):
    """Below _MIN_BOX_POINTS points every slice of a grid is evaluated
    and no box is bounded; from there on it is decided box by box."""
    seen = _record_bounds(monkeypatch, luk_or)
    sampling = SamplingSpec.grid(127)
    report = check_coherence(luk_or, threshold, sampling)
    assert seen == []
    assert dumps(report.to_dict()) == dumps(_materialised_report(luk_or, threshold, sampling, 100))
    check_coherence(luk_or, threshold, SamplingSpec.grid(128))
    assert seen and all(bounded for _, bounded in seen)


def test_boxes_only_where_fiber_boxes_average_8_points(luk_or, monkeypatch):
    """A grid whose fiber boxes average fewer than 8 points walks every
    slice and bounds no box: an MLP on a 1024**2 grid at 512 levels has
    4 points a box.  On a 400**2 grid 141 levels leave 8.05 points a box,
    which are decided from bounds, and 142 levels leave 7.94."""
    mlp = MlpExpr(init_model(2, (16, 16), 1, np.random.default_rng(0)))
    seen = _record_bounds(monkeypatch, mlp)
    check_coherence(mlp, Projection.quantize(512), SamplingSpec.grid(1024))
    assert seen == []
    seen = _record_bounds(monkeypatch, luk_or)
    sampling = SamplingSpec.grid(400)
    for levels, boxed in ((142, False), (141, True)):
        projection = Projection.quantize(levels)
        report = check_coherence(luk_or, projection, sampling)
        assert bool(seen) == boxed
        expected = _materialised_report(luk_or, projection, sampling, 100)
        assert dumps(report.to_dict()) == dumps(expected)


CHUNKED_BOUNDS_CASES = {
    # name: (expression, levels, points per axis); 10**4 fiber boxes each
    "luk-or": (TConorm("lukasiewicz"), 100, 800),
    "mlp": (MlpExpr(init_model(2, (16, 16), 1, np.random.default_rng(0))), 100, 600),
}


@pytest.mark.parametrize("name", CHUNKED_BOUNDS_CASES)
def test_fiber_boxes_are_bounded_a_chunk_at_a_time(name, monkeypatch):
    """More than ``EVAL_CHUNK`` fiber boxes are bounded ``EVAL_CHUNK``
    boxes a call, and the report is the every-slice walk's, byte for
    byte."""
    f, levels, k = CHUNKED_BOUNDS_CASES[name]
    projection, sampling = Projection.quantize(levels), SamplingSpec.grid(k)
    assert levels**2 > EVAL_CHUNK
    seen = _record_bounds(monkeypatch, f)
    report = check_coherence(f, projection, sampling)
    assert seen[:2] == [(EVAL_CHUNK, True), (levels**2 - EVAL_CHUNK, True)]
    assert max(boxes for boxes, _ in seen) <= EVAL_CHUNK
    with grid_mode("every-slice"):
        expected = check_coherence(f, projection, sampling)
    assert dumps(report.to_dict()) == dumps(expected.to_dict())


def _crossing_mlp():
    """A 2-input network whose outputs span 0.10 to 0.69, and so cross
    three boundaries of quantize(5)."""
    model = init_model(2, (16, 16), 1, np.random.default_rng(1))
    model.weights[-1] *= 8
    p = forward(model, np.array([[0.4, 0.6]]))[0]
    model.biases[-1] -= np.log(p / (1.0 - p))
    return MlpExpr(model)


_CROSSING_MLP = _crossing_mlp()
DECIDED_BOX_CASES = {
    # name: (expression, projection, points per axis)
    # grid sums land on 0.5 exactly: the threshold's tie
    "luk-or": (TConorm("lukasiewicz"), Projection.threshold(0.5), 201),
    "mlp": (_CROSSING_MLP, Projection.quantize(5), 256),
    # the canonical repair: coherent, with leaves where the base is not
    "output-mod": (OutputModExpr(_CROSSING_MLP, None, Projection.quantize(5)), Projection.quantize(5),
                   256),
}


@pytest.mark.parametrize("name", DECIDED_BOX_CASES)
def test_decided_boxes_carry_their_fiber_and_add_up(name):
    """Every box that deciding a grid's fiber boxes returns, decided bad
    or an undecided leaf, carries the fiber code of both of its corners;
    and the tally of the decided boxes, plus the verdicts of the leaf
    points evaluated in their own slices, is the tally of walking every
    slice."""
    f, projection, k = DECIDED_BOX_CASES[name]
    axis = np.linspace(0.0, 1.0, k)
    table = coherence_module._baseline_table(f, projection, k**2)
    tally, bad, leaves = coherence_module._decide_boxes(f, projection, axis, table)
    assert len(leaves[0]) and (len(bad[0]) > 0) == (name != "output-mod")
    for lo, hi, _, codes in (bad, leaves):
        assert np.array_equal(fiber_codes(projection, axis[lo]), codes)
        assert np.array_equal(fiber_codes(projection, axis[hi]), codes)
    _, direct, baseline = projected_outputs(f, projection, SamplingSpec.grid(k).sample(2))
    ok = direct == baseline
    flat, _ = coherence_module._box_points(leaves[0], leaves[1], _place_values(k, 2))
    expected = coherence_module._tally(ok)
    assert np.array_equal(tally + coherence_module._tally(ok[flat]), expected)
    assert expected[-1] > 0 or name == "output-mod"


@pytest.mark.parametrize("alpha", [None, 1.0, 1e-9], ids=["quantize", "alpha1.0", "alpha1e-9"])
def test_every_level_lies_on_a_grid_axis_as_long(alpha):
    """A grid with no more levels than points per axis meets every fiber,
    so its fiber table is built over all of them: for every ``k`` up to
    300 points per axis, each level of a projection with at most ``k``
    levels is the projection of some point of the axis."""
    axes = {k: np.linspace(0.0, 1.0, k)[:, None] for k in range(2, 301)}
    if alpha is None:
        projections = [Projection.quantize(levels) for levels in range(2, 301)]
    else:
        projections = [Projection.threshold(alpha)]
    for projection in projections:
        levels = len(projection.level_values)
        for k in range(levels, 301):
            codes = fiber_codes(projection, axes[k])
            assert np.array_equal(np.unique(codes), np.arange(levels))


def test_grid_boxes_need_bounds_everywhere(threshold, monkeypatch):
    """An expression with a node that has no bounds walks every slice:
    no box is bounded, and every point is evaluated."""
    inner = BatchRecorder(identity(2))
    unbounded = Compose(TConorm("lukasiewicz"), inner)
    assert unbounded.bounds(np.zeros((1, 2)), np.ones((1, 2))) is None
    seen = _record_bounds(monkeypatch, unbounded)
    sampling = SamplingSpec.grid(129)
    report = check_coherence(unbounded, threshold, sampling, 5)
    assert seen and not any(bounded for _, bounded in seen)
    # every point, and the four fiber vertices
    assert sum(inner.sizes) == 129**2 + 4
    assert dumps(report.to_dict()) == dumps(_materialised_report(unbounded, threshold, sampling, 5))


@contextmanager
def nothing_materialised():
    """Inside this context a check or a repair may not evaluate its
    whole sample at once, and may draw only a random sample, once."""
    drawn = []
    sample = SamplingSpec.sample

    def draw(spec, arity):
        if spec.mode == "grid" or drawn:
            raise AssertionError("a check drew a grid, or a random sample twice")
        drawn.append(arity)
        return sample(spec, arity)

    def refuse(*args, **kwargs):
        raise AssertionError("a check evaluated its whole sample at once")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SamplingSpec, "sample", draw)
        patch.setattr(coherence_module, "projected_outputs", refuse)
        patch.setattr(gamma_module, "coherence_masks", refuse)
        yield


def _band(n: int):
    """0.9 on a thin tube along axis 0, where the middle coordinates lie
    within 0.006 of 0.3 and the last one in [0.294, 0.315], and 0.1
    elsewhere: under the 0.5 threshold every tube point is incoherent,
    since the vertices of the cube lie outside it.  On the 91-point grid
    the tube holds two points of each plane x0 = const."""
    near = tuple(
        Condition(j, op, value)
        for j in range(1, n - 1)
        for op, value in (("ge", 0.294), ("le", 0.306))
    )
    tube = (Condition(n - 1, "ge", 0.294), Condition(n - 1, "le", 0.315))
    return Piecewise((Piece(near + tube, Const((0.9,), in_arity=n)),), Const((0.1,), in_arity=n))


def _far_apart_mlp():
    """A 2 -> 2 network with one linear hidden layer: component 0 is
    incoherent where 0.25 <= y < 0.5 (from the first grid row on),
    component 1 where 0.5 <= x < 0.8 (from the middle of the grid on)."""
    model = init_model(2, (2,), 2, np.random.default_rng(0))
    model.weights[0][:] = np.eye(2)
    model.slopes[:] = 1.0
    model.weights[1][:] = [[0.0, 40.0], [40.0, 0.0]]
    model.biases[1][:] = [-10.0, -32.0]
    return MlpExpr(model)


MATERIALISED_CASES = {
    # name: (expression, projection, points per axis)
    "small-grid": (TConorm("lukasiewicz"), Projection.threshold(0.5), 101),
    "box-mode": (TConorm("lukasiewicz"), Projection.threshold(0.5), 201),
    "more-fibers-than-points": (TConorm("prob_sum"), Projection.quantize(200), 150),
    "unbounded-output-mod": (
        OutputModExpr(TConorm("lukasiewicz"), None, Projection.quantize(3)),
        Projection.threshold(0.5),
        160,
    ),
    "thin-band": (_band(3), Projection.threshold(0.5), 91),
    "far-apart-mlp": (_far_apart_mlp(), Projection.threshold(0.5), 512),
}


@pytest.mark.parametrize("run", [0, 1, 100, *GAMMA_KINDS])
@pytest.mark.parametrize("mode", [*GRID_MODES, "random"])
@pytest.mark.parametrize("name", MATERIALISED_CASES)
def test_grid_checks_never_materialise(name, mode, run, monkeypatch):
    """A grid check equals the materialised report without drawing the
    sample or calling ``projected_outputs``, whether it walks every
    slice or decides boxes.  A random check of as many points draws its
    sample once, and does not call ``projected_outputs`` either.  ``run``
    is the check's witness cap, or names a repair: both repairs scan the
    sample the same way, with no whole-sample scan of ``f``, and decide
    what the materialised scan decides."""
    f, projection, k = MATERIALISED_CASES[name]
    if mode == "random":
        sampling, mode = SamplingSpec.random(k**2, seed=k), "every-slice"
    else:
        sampling = SamplingSpec.grid(k)
    monkeypatch.setattr(coherence_module, "_MIN_BOX_POINTS", GRID_MODES[mode])
    if run in GAMMA_KINDS:
        fibers = _offender_fibers(f, projection, sampling)
        projected = gamma_module.projected_outputs

        def on_slices_only(g, *args):
            # an output_mod node's own evaluation scans its base per slice
            assert g is not f, "a repair evaluated its whole sample at once"
            return projected(g, *args)

        monkeypatch.setattr(gamma_module, "projected_outputs", on_slices_only)
        with nothing_materialised():
            repaired = apply_gamma(f, GammaSpec(run, projection, sampling))
        _assert_repaired(f, fibers, run, repaired)
        return
    expected = dumps(_materialised_report(f, projection, sampling, run))
    with nothing_materialised():
        report = check_coherence(f, projection, sampling, witness_cap=run)
    assert dumps(report.to_dict()) == expected


@pytest.mark.parametrize("cap", [0, 1])
@pytest.mark.parametrize(
    "sampling", [SamplingSpec.grid(5), SamplingSpec.random(50, seed=3)], ids=["grid", "random"]
)
@pytest.mark.parametrize("values", [(0.3,), (0.7, 0.5)], ids=["one-output", "two-outputs"])
def test_checks_over_no_inputs_take_one_point(values, sampling, cap):
    """A sample over no inputs is its one point, for grids and random
    samples alike, as evaluating the drawn sample at once reports; a
    grid is walked, not drawn, as over one or more inputs.  Both
    repairs find the constant coherent there."""
    f = BatchRecorder(Const(values))
    projection = Projection.threshold(0.5)
    expected = dumps(_materialised_report(f, projection, sampling, cap))
    f.sizes.clear()
    with nothing_materialised():
        report = check_coherence(f, projection, sampling, witness_cap=cap)
    assert report.n_points == 1 and report.verdict == "coherent_on_sample"
    assert dumps(report.to_dict()) == expected
    # the one fiber's vertex, then f at the point
    assert f.sizes == [1, 1]
    _assert_repairs_match(f.inner, projection, sampling)


def _flat_index(point, k: int) -> int:
    return int(np.round(np.asarray(point) * (k - 1)) @ k ** np.arange(len(point) - 1, -1, -1))


def test_thin_band_witnesses_span_many_slices():
    """The first 100 offenders of a thin tube lie in more than 20
    slices, and are the materialised check's."""
    f, projection, k = MATERIALISED_CASES["thin-band"]
    sampling = SamplingSpec.grid(k)
    report = check_coherence(f, projection, sampling)
    witnesses = report.components[0].witnesses
    assert len(witnesses) == 100
    assert len({_flat_index(w.point, k) // EVAL_CHUNK for w in witnesses}) > 20
    assert dumps(report.to_dict()) == dumps(_materialised_report(f, projection, sampling, 100))


def test_components_first_offenders_far_apart():
    """Each component of the network keeps its own first offenders,
    although those of component 1 start about half the grid after those
    of component 0."""
    f, projection, k = MATERIALISED_CASES["far-apart-mlp"]
    sampling = SamplingSpec.grid(k)
    report = check_coherence(f, projection, sampling)
    first = [_flat_index(c.witnesses[0].point, k) for c in report.components]
    assert first[0] < EVAL_CHUNK and first[1] > k**2 // 2 - EVAL_CHUNK
    assert all(len(c.witnesses) == 100 for c in report.components)
    assert dumps(report.to_dict()) == dumps(_materialised_report(f, projection, sampling, 100))
