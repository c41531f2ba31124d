"""Coherency repairs, the induced quotient, and non-compositionality.

Repair guarantees under the 0.5 threshold, frozen against the
bounded-sum OR ``min(1, x+y)`` whose incoherent set is the triangle
``{x+y >= 0.5, x < 0.5, y < 0.5}``: its only contaminated projection
fiber is the one of ``(0, 0)``.
"""

import numpy as np
import pytest

from cohexp import (
    Compose,
    Condition,
    Const,
    ContractError,
    ExtendedExpr,
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
    ValidationError,
    apply_gamma,
    bool_compose,
    booleanize,
    check_coherence,
    coherence_masks,
    demo_noncompositional,
    explain,
    extensionally_equal,
    from_dict,
    functor_gamma,
    gamma_extend,
    gamma_output_mod,
    identity,
    init_model,
    is_coherent_at,
    quotient_compose,
    quotient_of,
    table_to_dnf,
    to_dict,
)
from cohexp import gamma as gamma_module
from cohexp.core import fiber_digits
from conftest import BatchRecorder, jump_high, jump_low

D = Projection.threshold(0.5)
GRID = SamplingSpec.grid(101)


def extend_spec(sampling=GRID):
    return GammaSpec("extend", D, sampling=sampling)


def output_mod_spec(fallback=None, sampling=GRID):
    return GammaSpec("output_mod", D, sampling=sampling, fallback=fallback)


class TestGammaSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            GammaSpec("average", D)

    def test_extend_takes_no_fallback(self):
        with pytest.raises(ValidationError):
            GammaSpec("extend", D, fallback=Const((1.0,), in_arity=2))

    def test_round_trip(self):
        specs = [
            extend_spec(),
            output_mod_spec(),
            output_mod_spec(fallback=Const((1.0,), in_arity=2)),
            GammaSpec("extend", D),
        ]
        for spec in specs:
            again = GammaSpec.from_dict(spec.to_dict())
            assert again.kind == spec.kind
            assert again.projection == spec.projection
            assert again.sampling == spec.sampling
            if spec.fallback is None:
                assert again.fallback is None
            else:
                assert to_dict(again.fallback) == to_dict(spec.fallback)

    def test_null_fallback_is_canonical(self):
        doc = dict(output_mod_spec().to_dict(), fallback=None)
        assert GammaSpec.from_dict(doc).fallback is None

    def test_same_family(self):
        assert extend_spec().same_family(GammaSpec("extend", D))
        assert not extend_spec().same_family(output_mod_spec())
        assert not extend_spec().same_family(GammaSpec("extend", Projection.threshold(0.25)))


class TestDomainExtension:
    def test_contaminated_fiber_is_the_origin_class(self, luk_or):
        ext = gamma_extend(luk_or, extend_spec())
        assert isinstance(ext, ExtendedExpr)
        assert ext.components == (0,)
        assert ext.contaminated == ((0,),)  # fiber code of d(x) = (0, 0)
        assert ext.in_arity == 3 and ext.out_arity == 1

    def test_control_input_decides_contaminated_fibers(self, luk_or):
        ext = gamma_extend(luk_or, extend_spec())
        # (0.2, 0.4) projects into the contaminated fiber (0, 0)
        assert ext((0.2, 0.4, 0.0)) == (0.0,)
        assert ext((0.2, 0.4, 1.0)) == (1.0,)
        assert ext((0.2, 0.4, 0.3)) == (0.3,)

    def test_clean_fibers_pass_through_exactly(self, luk_or):
        ext = gamma_extend(luk_or, extend_spec())
        assert ext((0.7, 0.2, 0.0)) == luk_or((0.7, 0.2))
        assert ext((0.6, 0.6, 1.0)) == luk_or((0.6, 0.6))

    def test_repair_is_coherent_on_independent_sample(self, luk_or):
        ext = gamma_extend(luk_or, extend_spec())
        report = check_coherence(ext, D, SamplingSpec.random(20_000, seed=4242))
        assert report.verdict == "coherent_on_sample"
        assert report.coherent_fraction == 1.0

    def test_coherent_function_returned_unchanged(self):
        f = LiftedProjection(D, 2)
        assert gamma_extend(f, extend_spec()) is f

    def test_coherent_at_every_scanned_point_not_everywhere(self):
        """The 101-point grid misses the sliver 0.201 < x < 0.209, so only
        the fiber (1, 0) is marked: the repair is coherent on the grid for
        any control value, but not at a point inside the sliver."""
        one = Const((1.0,), in_arity=2)
        sliver = (Condition(0, "gt", 0.201), Condition(0, "lt", 0.209), Condition(1, "le", 0.1))
        block = (Condition(0, "ge", 0.5), Condition(0, "lt", 0.8), Condition(1, "lt", 0.5))
        f = Piecewise((Piece(sliver, one), Piece(block, one)), Const((0.0,), in_arity=2))
        ext = gamma_extend(f, extend_spec())
        assert ext.contaminated == ((2,),)  # fiber code of (1, 0)
        xs = GRID.sample(2)
        for c in (0.0, 1.0, 0.3):
            points = np.column_stack([xs, np.full(len(xs), c)])
            assert coherence_masks(ext, D, points).all()
        assert not is_coherent_at(ext, D, (0.205, 0.05, 0.3))

    def test_var_names_name_the_controls(self, luk_or, luk_and):
        assert gamma_extend(luk_or, extend_spec()).var_names == ("x", "y", "nc")
        ext = ExtendedExpr(Parallel((luk_or, luk_and)), D, (0, 1), ((0,), (3,)))
        assert ext.var_names == ("x", "y", "z", "x4", "nc1", "nc2")

    def test_idempotent(self, luk_or):
        once = apply_gamma(luk_or, extend_spec())
        twice = apply_gamma(once, GammaSpec("extend", D, sampling=SamplingSpec.random(5000)))
        assert twice is once

    def test_projected_agreement_at_coherent_points(self, luk_or):
        """Binding the control to the fiber baseline d(f(d(x))) makes
        the extension agree with the original, after projection, at
        every originally coherent point."""
        ext = gamma_extend(luk_or, extend_spec())
        xs = SamplingSpec.random(5000, seed=99).sample(2)
        coherent = coherence_masks(luk_or, D, xs)[:, 0]
        baseline = D.apply(luk_or.eval_batch(D.apply(xs)))[:, 0]
        ext_in = np.concatenate([xs, baseline.reshape(-1, 1)], axis=1)
        got = D.apply(ext.eval_batch(ext_in))[:, 0]
        want = D.apply(luk_or.eval_batch(xs))[:, 0]
        assert np.array_equal(got[coherent], want[coherent])

    def test_multi_component_extension(self, luk_or, luk_and):
        from cohexp import Coord

        f = Compose(Parallel((luk_or, luk_and)), Coord((0, 1, 0, 1), 2))
        ext = gamma_extend(f, extend_spec())
        assert isinstance(ext, ExtendedExpr)
        assert ext.components == (0, 1)
        assert ext.in_arity == 4
        # or-component contaminated at fiber (0,0); and-component at (1,1)
        assert ext.contaminated == ((0,), (3,))
        report = check_coherence(ext, D, SamplingSpec.random(20_000, seed=7))
        assert report.coherent_fraction == 1.0

    def test_serialisation_round_trip(self, luk_or):
        cases = [
            (D, [[[0, 0]]]),  # digit form of the fiber
            # three levels: the fibers (0, 0), (0, 1), (1, 0), (1, 1)
            (Projection.quantize(3), [[[0, 0], [0, 1], [1, 0], [1, 1]]]),
        ]
        for projection, digits in cases:
            ext = gamma_extend(luk_or, GammaSpec("extend", projection, sampling=GRID))
            doc = to_dict(ext)
            assert doc["node"] == "extended"
            assert doc["contaminated"] == digits
            clone = from_dict(doc)
            assert clone.contaminated == ext.contaminated
            xs = SamplingSpec.random(500, seed=3).sample(3)
            assert np.array_equal(clone.eval_batch(xs), ext.eval_batch(xs))

    @pytest.mark.parametrize("digits", [[[0, 2]], [[0, -1]], [[0]], [[0, 0, 0]]])
    def test_malformed_fiber_digits_rejected(self, luk_or, digits):
        doc = to_dict(gamma_extend(luk_or, extend_spec()))
        doc["contaminated"] = [digits]
        with pytest.raises(SerializationError):
            from_dict(doc)

    @pytest.mark.parametrize("size", [20, 1, 0], ids=["many", "one", "empty"])
    def test_contaminated_membership_matches_isin(self, size):
        """A control input is used exactly on the codes ``np.isin``
        finds in the contaminated set, also for codes below its smallest
        and above its largest member, and for an empty set."""
        k, n = 4, 3
        rng = np.random.default_rng(size)
        fibers = sorted(rng.choice(np.arange(8, k**n - 8), size=size, replace=False).tolist())
        ext = ExtendedExpr(Const((0.25,), in_arity=n), Projection.quantize(k), (0,), (fibers,))
        doc = to_dict(ext)
        assert len(doc["contaminated"]) == 1
        codes = np.concatenate([np.arange(k**n), rng.integers(0, k**n, 500)])
        xs = np.column_stack([fiber_digits(codes, k, n) / (k - 1), np.ones(len(codes))])
        for expr in (ext, from_dict(doc)):
            hit = expr.eval_batch(xs)[:, 0] == 1.0
            assert np.array_equal(hit, np.isin(codes, fibers))

    def test_validation(self, luk_or):
        with pytest.raises(ValidationError):
            ExtendedExpr(luk_or, D, (), ())
        with pytest.raises(ValidationError):
            ExtendedExpr(luk_or, D, (1,), ((0,),))
        with pytest.raises(ValidationError):
            ExtendedExpr(luk_or, D, (0,), ((0,), (1,)))
        with pytest.raises(ValidationError):
            ExtendedExpr(luk_or, Projection.identity(), (0,), ((0,),))
        with pytest.raises(ValidationError):
            gamma_extend(luk_or, output_mod_spec())


class TestOutputModification:
    def test_canonical_fallback_overwrites_incoherent_points(self, luk_or):
        repaired = gamma_output_mod(luk_or, output_mod_spec())
        assert isinstance(repaired, OutputModExpr)
        # (0.3, 0.3) is incoherent: raw 0.6 projects to 1, baseline to 0
        assert repaired((0.3, 0.3)) == (0.0,)
        # coherent points keep their raw value bit for bit
        assert repaired((0.7, 0.2)) == luk_or((0.7, 0.2))
        assert repaired((0.1, 0.2)) == luk_or((0.1, 0.2))

    def test_signature_is_preserved(self, luk_or):
        repaired = gamma_output_mod(luk_or, output_mod_spec())
        assert repaired.in_arity == 2 and repaired.out_arity == 1

    def test_repair_is_coherent_on_independent_sample(self, luk_or):
        repaired = gamma_output_mod(luk_or, output_mod_spec())
        report = check_coherence(repaired, D, SamplingSpec.random(20_000, seed=777))
        assert report.coherent_fraction == 1.0

    def test_coherent_function_returned_unchanged(self):
        f = LiftedProjection(D, 2)
        assert gamma_output_mod(f, output_mod_spec()) is f

    def test_idempotent(self, luk_or):
        once = apply_gamma(luk_or, output_mod_spec())
        twice = apply_gamma(once, output_mod_spec(sampling=SamplingSpec.random(5000)))
        assert twice is once

    def test_compatible_explicit_fallback_accepted(self, luk_or):
        # the canonical fallback, supplied explicitly, passes the check
        fallback = Compose(luk_or, LiftedProjection(D, 2))
        repaired = gamma_output_mod(luk_or, output_mod_spec(fallback=fallback))
        assert isinstance(repaired, OutputModExpr)
        assert check_coherence(repaired, D, GRID).coherent_fraction == 1.0

    def test_incompatible_fallback_raises_contract_error(self, luk_or):
        # constant 1 is coherent but disagrees with the projected
        # baseline (0) inside the triangle, so the repair cannot work
        with pytest.raises(ContractError):
            gamma_output_mod(luk_or, output_mod_spec(fallback=Const((1.0,), in_arity=2)))

    def test_incoherent_fallback_rejected(self, luk_or, luk_and):
        with pytest.raises(ContractError, match="coherent fallback"):
            gamma_output_mod(luk_or, output_mod_spec(fallback=luk_and))

    def test_incoherent_fallback_rejected_for_coherent_f(self, luk_and):
        with pytest.raises(ContractError, match="coherent fallback"):
            gamma_output_mod(Const((0.3,), in_arity=2), output_mod_spec(fallback=luk_and))

    def test_first_witness_of_an_incompatible_fallback(self, luk_or):
        # the first grid point of the triangle in lexicographic order
        with pytest.raises(ContractError, match=r"first witness: \(0\.01, 0\.49\)"):
            gamma_output_mod(luk_or, output_mod_spec(fallback=Const((1.0,), in_arity=2)))

    @pytest.mark.parametrize("with_fallback", [False, True], ids=["canonical", "fallback"])
    def test_one_scan_of_f_and_of_the_fallback(self, luk_or, with_fallback):
        """``f``, and a supplied fallback, are evaluated on the sample once
        plus once per fiber present: at most N + 4 rows on the 101 grid."""
        f = BatchRecorder(luk_or)
        g = BatchRecorder(Compose(luk_or, LiftedProjection(D, 2))) if with_fallback else None
        assert isinstance(gamma_output_mod(f, output_mod_spec(fallback=g)), OutputModExpr)
        assert sum(f.sizes) <= 101**2 + 4
        if g is not None:
            assert sum(g.sizes) <= 101**2 + 4

    def test_canonical_document_holds_f_once(self):
        f = MlpExpr(init_model(2, (16, 16), 1, np.random.default_rng(3)))
        repaired = gamma_output_mod(f, output_mod_spec())
        doc = to_dict(repaired)
        assert doc["fallback"] is None and doc["base"] == to_dict(f)
        # the explicit f . d that canonical documents used to carry
        explicit = Compose(f, LiftedProjection(D, 2))
        xs = SamplingSpec.random(20_000, seed=21).sample(2)
        want = OutputModExpr(f, explicit, D).eval_batch(xs)
        assert not np.array_equal(want, f.eval_batch(xs))
        for document in (doc, dict(doc, fallback=to_dict(explicit))):
            assert np.array_equal(from_dict(document).eval_batch(xs), want)

    def test_fallback_arity_checked(self, luk_or):
        with pytest.raises(ValidationError):
            gamma_output_mod(luk_or, output_mod_spec(fallback=Const((1.0,), in_arity=1)))

    def test_serialisation_round_trip(self, luk_or):
        repaired = gamma_output_mod(luk_or, output_mod_spec())
        doc = to_dict(repaired)
        assert doc["node"] == "output_mod"
        clone = from_dict(doc)
        xs = SamplingSpec.random(500, seed=13).sample(2)
        assert np.array_equal(clone.eval_batch(xs), repaired.eval_batch(xs))


class TestExplain:
    def test_extension_adds_a_named_control(self, luk_or):
        formula = explain(luk_or, extend_spec())
        assert formula.render() == "x ∨ y ∨ nc"

    def test_output_mod_keeps_the_variables(self, luk_or):
        formula = explain(luk_or, output_mod_spec())
        assert formula.render() == "x ∨ y"

    def test_explicit_names_win(self, luk_or):
        formula = explain(luk_or, extend_spec(), var_names=("a", "b", "c"))
        assert formula.render() == "a ∨ b ∨ c"

    def test_simplify_off_lists_minterms(self, luk_or):
        formula = explain(luk_or, output_mod_spec(), simplify=False)
        assert len(formula.outputs[0]) == 3

    def test_needs_boolean_projection(self, luk_or):
        with pytest.raises(ValidationError):
            explain(luk_or, GammaSpec("output_mod", Projection.quantize(3)))

    def test_canonical_output_mod_runs_no_repair(self, luk_or, monkeypatch):
        calls = []
        monkeypatch.setattr(gamma_module, "apply_gamma", lambda f, spec: calls.append(spec) or f)
        assert explain(luk_or, output_mod_spec()).render() == "x ∨ y"
        assert calls == []
        explain(luk_or, extend_spec())
        explain(luk_or, output_mod_spec(fallback=luk_or))
        assert [spec.kind for spec in calls] == ["extend", "output_mod"]

    def test_canonical_output_mod_keeps_the_table_of_f(self):
        spec = output_mod_spec(sampling=SamplingSpec.random(20_000, seed=5))
        xs = spec.sampling.sample(4)
        model = init_model(4, (8, 8), 1, np.random.default_rng(12))
        median = float(np.median(MlpExpr(model).eval_batch(xs)))
        model.biases[-1] -= np.log(median / (1.0 - median))  # half the points above 0.5
        f = MlpExpr(model)
        assert not coherence_masks(f, D, xs).all()
        repaired = apply_gamma(f, spec)
        assert isinstance(repaired, OutputModExpr)
        assert booleanize(repaired, D) == booleanize(f, D)
        assert explain(f, spec) == table_to_dnf(booleanize(f, D))

    def test_multi_control_names(self, luk_or, luk_and):
        from cohexp import Coord

        f = Compose(Parallel((luk_or, luk_and)), Coord((0, 1, 0, 1), 2))
        formula = explain(f, extend_spec())
        assert formula.names == ("x", "y", "nc1", "nc2")


class TestQuotient:
    def test_well_defined_on_equivalent_representatives(self):
        """Two functions whose raw values differ only inside the
        repaired region produce extensionally equal canonicals."""
        from cohexp import Condition, Piece, Piecewise

        f1 = jump_low(after=1.0)  # 0 at the origin, 1 elsewhere
        f2 = Piecewise(  # same, except 0.7 on (0, 0.25)
            pieces=(
                Piece((Condition(0, "le", 0.0),), Const((0.0,), in_arity=1)),
                Piece((Condition(0, "lt", 0.25),), Const((0.7,), in_arity=1)),
            ),
            default=Const((1.0,), in_arity=1),
        )
        xs = SamplingSpec.random(1000, seed=2).sample(1)
        assert not np.array_equal(f1.eval_batch(xs), f2.eval_batch(xs))
        q1 = quotient_of(f1, output_mod_spec())
        q2 = quotient_of(f2, output_mod_spec())
        assert extensionally_equal(functor_gamma(q1), functor_gamma(q2), D)

    def test_quotient_composition_is_coherent(self):
        qf = quotient_of(jump_low(), output_mod_spec())
        qg = quotient_of(jump_high(), output_mod_spec())
        composite = quotient_compose(qg, qf)
        report = check_coherence(composite.canonical, D, SamplingSpec.grid(501))
        assert report.coherent_fraction == 1.0

    def test_explanation_factors_through_the_quotient(self):
        """Booleanizing the composite class equals composing the
        booleanizations of the factors."""
        qf = quotient_of(jump_low(), output_mod_spec())
        qg = quotient_of(jump_high(), output_mod_spec())
        composite = quotient_compose(qg, qf)
        lhs = booleanize(functor_gamma(composite), D)
        rhs = bool_compose(
            booleanize(functor_gamma(qg), D), booleanize(functor_gamma(qf), D)
        )
        assert lhs == rhs

    def test_composition_requires_same_family(self):
        qf = quotient_of(jump_low(), output_mod_spec())
        qg = quotient_of(jump_high(), extend_spec())
        with pytest.raises(ValidationError):
            quotient_compose(qg, qf)

    def test_extension_changes_the_class_type(self):
        """Domain extension types the class by the extended signature,
        so unary classes stop being composable once repaired."""
        qf = quotient_of(jump_low(), extend_spec())
        qg = quotient_of(jump_high(), extend_spec())
        assert qf.in_arity == 2 and qf.out_arity == 1
        with pytest.raises(ValidationError):
            quotient_compose(qg, qf)

    def test_extensionally_equal_checks_signature(self, luk_or):
        assert not extensionally_equal(luk_or, identity(1), D)
        assert extensionally_equal(luk_or, luk_or, D)


class TestNoncompDemo:
    def test_canonical_fallback_witness(self):
        demo = demo_noncompositional(output_mod_spec(sampling=None))
        assert demo.kind == "witness"
        assert demo.point == 0.01
        assert demo.lhs == 1.0
        assert demo.rhs == 0.0
        assert demo.lhs != demo.rhs

    def test_constant_fallback_witness(self):
        spec = output_mod_spec(fallback=Const((1.0,), in_arity=1), sampling=None)
        demo = demo_noncompositional(spec)
        assert demo.kind == "witness"
        assert demo.point == 0.5
        assert demo.lhs == 0.2
        assert demo.rhs == 1.0

    def test_extension_blocks_on_signature(self):
        demo = demo_noncompositional(GammaSpec("extend", D))
        assert demo.kind == "arity_mismatch"
        assert "2 -> 1" in demo.detail

    def test_coherent_supplied_function_is_not_applicable(self):
        demo = demo_noncompositional(
            output_mod_spec(sampling=None), g=LiftedProjection(D, 1)
        )
        assert demo.kind == "not_applicable"

    def test_supplied_function_with_bad_fallback_propagates(self):
        spec = output_mod_spec(fallback=Const((1.0,), in_arity=1), sampling=None)
        with pytest.raises(ContractError):
            demo_noncompositional(spec, g=jump_low())

    def test_requires_the_boolean_threshold(self):
        with pytest.raises(ValidationError):
            demo_noncompositional(GammaSpec("output_mod", Projection.threshold(0.25)))

    def test_demo_document(self):
        doc = demo_noncompositional(output_mod_spec(sampling=None)).to_dict()
        assert doc["kind"] == "witness"
        assert doc["point"] == 0.01
        assert doc["lhs"] == 1.0 and doc["rhs"] == 0.0
        assert doc["g"]["node"] == "piecewise"
