"""Sampled coherence checking.

The bounded-sum connectives have closed-form incoherence regions under
the 0.5 threshold, which pins the expected grid fractions exactly:

* ``min(1, x+y)`` is incoherent on ``{x+y >= 0.5, x < 0.5, y < 0.5}``.
  On the 101-point grid that is 1225 of 10201 points.
* ``max(0, x+y-1)`` is incoherent on the mirrored triangle
  ``{x >= 0.5, y >= 0.5, x+y < 1.5}``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohexp import (
    Affine,
    CapacityError,
    CoherenceReport,
    Compose,
    Condition,
    Const,
    ExtendedExpr,
    LiftedProjection,
    MlpExpr,
    Parallel,
    Piece,
    Piecewise,
    Projection,
    SamplingSpec,
    TConorm,
    TNorm,
    ValidationError,
    check_coherence,
    coherence_masks,
    default_sampling,
    identity,
    incoherent_components,
    init_model,
    is_coherent_at,
)
from cohexp import coherence as coherence_module
from cohexp.coherence import _MAX_SAMPLE_POINTS, EVAL_CHUNK, fiber_table, projected_outputs
from cohexp.core import fiber_codes, fiber_digits
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


@pytest.mark.parametrize(
    "projection", [Projection.threshold(0.5), Projection.identity()], ids=["table", "direct"]
)
def test_check_evaluates_at_most_a_chunk_at_a_time(luk_or, projection, monkeypatch):
    f = BatchRecorder(luk_or)
    encoded = []
    monkeypatch.setattr(
        coherence_module, "fiber_codes", lambda p, xs: encoded.append(len(xs)) or fiber_codes(p, xs)
    )
    sampling = SamplingSpec.grid(101)
    assert 101**2 > EVAL_CHUNK
    report = check_coherence(f, projection, sampling)
    assert report.n_points == 101**2
    assert max(f.sizes) <= EVAL_CHUNK
    # fibers are encoded a chunk at a time too, and only on the table path
    if projection.is_boolean:
        assert max(encoded) <= EVAL_CHUNK and sum(encoded) == 101**2
    else:
        assert encoded == []
    # f(x) on every point, then the baseline: per fiber or per point
    assert sum(f.sizes) == 101**2 + (4 if projection.is_boolean else 101**2)
