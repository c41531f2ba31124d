"""End-to-end acceptance checks.

Each test certifies one criterion at its stated tolerance and prints
one PASS/FAIL line in the terminal summary (see conftest).  Numeric
oracles are computed independently of the library where possible:
closed-form grid counts, explicit region masks, brute-force Boolean
covers, and central finite differences.
"""

import time

import numpy as np
import pytest

from cohexp import (
    Affine,
    Compose,
    Condition,
    Const,
    Coord,
    GammaSpec,
    LiftedProjection,
    Parallel,
    Piece,
    Piecewise,
    Projection,
    SamplingSpec,
    TNorm,
    TruthTable,
    apply_gamma,
    bool_compose,
    booleanize,
    check_coherence,
    coherence_masks,
    demo_noncompositional,
    extensionally_equal,
    functor_gamma,
    gamma_extend,
    gamma_output_mod,
    identity,
    identity_table,
    quotient_compose,
    quotient_of,
    run_experiment,
    table_to_dnf,
    verify_functor_law,
)
from conftest import jump_high, jump_low, step_at

D = Projection.threshold(0.5)

XOR_TERMS = frozenset(
    {
        frozenset({(0, False), (1, True)}),
        frozenset({(0, True), (1, False)}),
    }
)


# ---------------------------------------------------------------------------
# random generators used by the fuzz criteria
# ---------------------------------------------------------------------------


def random_expr(rng, n_in, n_out, depth):
    """An arbitrary expression of the requested signature."""
    if depth == 0 or rng.random() < 0.3:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return Const(tuple(rng.random(n_out)), in_arity=n_in)
        if kind == 1:
            return Coord(tuple(int(v) for v in rng.integers(0, n_in, n_out)), n_in)
        matrix = tuple(tuple(float(v) for v in row) for row in rng.uniform(-1, 1, (n_out, n_in)))
        return Affine(matrix, tuple(float(v) for v in rng.random(n_out)))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        mid = int(rng.integers(1, 5))
        return Compose(
            random_expr(rng, mid, n_out, depth - 1), random_expr(rng, n_in, mid, depth - 1)
        )
    if kind == 1 and n_in >= 2 and n_out >= 2:
        in_split = int(rng.integers(1, n_in))
        out_split = int(rng.integers(1, n_out))
        return Parallel(
            (
                random_expr(rng, in_split, out_split, depth - 1),
                random_expr(rng, n_in - in_split, n_out - out_split, depth - 1),
            )
        )
    cond = Condition(
        int(rng.integers(0, n_in)),
        ("lt", "le", "gt", "ge")[int(rng.integers(0, 4))],
        float(rng.random()),
    )
    return Piecewise(
        (Piece((cond,), random_expr(rng, n_in, n_out, depth - 1)),),
        random_expr(rng, n_in, n_out, depth - 1),
    )


def random_coherent_expr(rng, n_in, n_out, depth):
    """Precomposition with the projection is coherent at every point."""
    return Compose(random_expr(rng, n_in, n_out, depth - 1), LiftedProjection(D, n_in))


def incoherent_corpus():
    """Expressions of arity 1..4 whose incoherent sets fill half-unit
    slabs, so any reasonable scan detects every contaminated fiber."""
    corpus = []
    for n in range(1, 5):
        for slot in range(n):
            for make, params in ((jump_low, (0.6, 0.8, 1.0)), (jump_high, (0.0, 0.2, 0.4))):
                for value in params:
                    parts = []
                    if slot:
                        parts.append(identity(slot))
                    parts.append(make(value))
                    if n - slot - 1:
                        parts.append(identity(n - slot - 1))
                    expr = parts[0] if len(parts) == 1 else Parallel(tuple(parts))
                    corpus.append((expr, slot))
    return corpus


def construction_sampling(arity):
    if arity <= 2:
        return SamplingSpec.grid(101)
    return SamplingSpec.random(50_000, seed=0)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


@pytest.mark.criterion(
    "1. bounded-sum OR on the 201-grid: incoherent exactly on the strict "
    "triangle, coherent fraction 0.875 +/- 0.01, under 1 s"
)
def test_criterion_1_incoherence_region(luk_or):
    start = time.monotonic()
    xs = SamplingSpec.grid(201).sample(2)
    incoherent = ~coherence_masks(luk_or, D, xs)[:, 0]
    x, y = xs[:, 0], xs[:, 1]
    triangle = (x + y >= 0.5) & (x < 0.5) & (y < 0.5)
    assert np.array_equal(incoherent, triangle)
    assert int(incoherent.sum()) == 4950
    fraction = 1.0 - incoherent.mean()
    assert abs(fraction - 0.875) <= 0.01
    assert time.monotonic() - start < 1.0


@pytest.mark.criterion(
    "2. concrete counterexamples: the bounded-sum AND is incoherent at "
    "(0.6, 0.6) and a step/jump pair breaks the factorisation at vertex 0"
)
def test_criterion_2_counterexamples(functor_law_violating_pair):
    luk_and = TNorm("lukasiewicz")
    direct = D.apply_point(luk_and((0.6, 0.6)))
    via_vertices = D.apply_point(luk_and(D.apply_point((0.6, 0.6))))
    assert direct == (0.0,)
    assert via_vertices == (1.0,)
    assert direct != via_vertices

    f, g = functor_law_violating_pair
    report = verify_functor_law(f, g, D)
    assert not report.holds
    assert report.witness == (0,)
    assert report.composite_row == (1,)
    assert report.factored_row == (0,)


@pytest.mark.criterion(
    "3. factorisation holds on 200 random coherent pairs (arity <= 4, "
    "depth <= 3) and on identities up to arity 8, under 10 s"
)
def test_criterion_3_functor_law_on_coherent_pairs():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        f = random_coherent_expr(rng, n, m, 3)
        g = random_coherent_expr(rng, m, k, 3)
        xs = rng.random((100, n))
        assert coherence_masks(f, D, xs).all()
        report = verify_functor_law(f, g, D)
        assert report.holds, f"violated at {report.witness} after {checked} pairs"
        checked += 1
    for n in range(1, 9):
        assert booleanize(identity(n), D) == identity_table(n)
    assert time.monotonic() - start < 10.0


@pytest.mark.criterion(
    "4. on 60 incoherent expressions both repairs are coherent on an "
    "independent sample and agree with the original at its coherent points"
)
def test_criterion_4_repair_guarantees():
    corpus = incoherent_corpus()
    assert len(corpus) >= 50
    verify = {n: SamplingSpec.random(20_000, seed=31_337) for n in range(1, 6)}
    for expr, slot in corpus:
        n = expr.in_arity
        spec_ext = GammaSpec("extend", D, sampling=construction_sampling(n))
        spec_mod = GammaSpec("output_mod", D, sampling=construction_sampling(n))
        extended = gamma_extend(expr, spec_ext)
        modified = gamma_output_mod(expr, spec_mod)
        assert extended is not expr and modified is not expr

        xs = verify[n].sample(n)
        coherent = coherence_masks(expr, D, xs).all(axis=1)
        assert 0 < coherent.sum() < xs.shape[0]

        # both repairs coherent everywhere on the fresh sample
        assert check_coherence(extended, D, verify[extended.in_arity]).coherent_fraction == 1.0
        assert check_coherence(modified, D, verify[n]).coherent_fraction == 1.0

        # output modification keeps coherent points bit for bit
        assert np.array_equal(
            modified.eval_batch(xs)[coherent], expr.eval_batch(xs)[coherent]
        )

        # the extension agrees after projection once its controls are
        # bound to the fiber baseline of the component they repair
        baseline = D.apply(expr.eval_batch(D.apply(xs)))
        controls = baseline[:, list(extended.extended_components)]
        got = D.apply(extended.eval_batch(np.concatenate([xs, controls], axis=1)))
        want = D.apply(expr.eval_batch(xs))
        assert np.array_equal(got[coherent], want[coherent])
        assert slot in extended.extended_components


@pytest.mark.criterion(
    "5. the output-modification repair is not compositional: constant "
    "factor witnesses with unequal sides for both fallback choices"
)
def test_criterion_5_noncompositionality():
    canonical = demo_noncompositional(GammaSpec("output_mod", D))
    assert canonical.kind == "witness"
    assert (canonical.point, canonical.lhs, canonical.rhs) == (0.01, 1.0, 0.0)

    constant = demo_noncompositional(
        GammaSpec("output_mod", D, fallback=Const((1.0,), in_arity=1))
    )
    assert constant.kind == "witness"
    assert (constant.point, constant.lhs, constant.rhs) == (0.5, 0.2, 1.0)

    for demo in (canonical, constant):
        g, f, a = demo.g, demo.f, demo.point
        composite_repaired = apply_gamma(Compose(g, f), demo.gamma)
        g_repaired = apply_gamma(g, demo.gamma)
        assert composite_repaired((a,))[0] == demo.lhs
        assert g_repaired(f((a,)))[0] == demo.rhs
        assert demo.lhs != demo.rhs


@pytest.mark.criterion(
    "6. the quotient is well defined (equivalent representatives share "
    "their canonical) and explanation factors through it on composites"
)
def test_criterion_6_quotient():
    spec = GammaSpec("output_mod", D, sampling=SamplingSpec.grid(101))

    for make, values in ((jump_low, (0.6, 0.8, 1.0)), (jump_high, (0.0, 0.2, 0.4))):
        representatives = [make(v) for v in values]
        canonicals = [functor_gamma(quotient_of(r, spec)) for r in representatives]
        for a, b in zip(representatives[1:], representatives[:-1]):
            xs = SamplingSpec.random(1000, seed=5).sample(1)
            assert not np.array_equal(a.eval_batch(xs), b.eval_batch(xs))
        for other in canonicals[1:]:
            assert extensionally_equal(canonicals[0], other, D)

    inners = [jump_low(1.0), jump_high(0.2), step_at(0.3, 0.1, 0.9)]
    outers = [jump_high(0.4), jump_low(0.6), step_at(0.7, 0.4, 1.0)]
    for f in inners:
        for g in outers:
            qf = quotient_of(f, spec)
            qg = quotient_of(g, spec)
            composite = quotient_compose(qg, qf)
            lhs = booleanize(functor_gamma(composite), D)
            rhs = bool_compose(
                booleanize(functor_gamma(qg), D), booleanize(functor_gamma(qf), D)
            )
            assert lhs == rhs


@pytest.mark.criterion(
    "7. DNF extraction round-trips 1000 random tables up to 6 inputs in "
    "both modes and recovers the exact XOR formula"
)
def test_criterion_7_dnf_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        t = TruthTable(n, 1, rng.integers(0, 2, (2**n, 1)))
        assert table_to_dnf(t, simplify=True).to_table() == t
        assert table_to_dnf(t, simplify=False).to_table() == t

    xor = table_to_dnf(TruthTable(2, 1, [[0], [1], [1], [0]]))
    assert xor.term_sets() == XOR_TERMS
    assert xor.render() == "(x ∧ ¬y) ∨ (¬x ∧ y)"


@pytest.mark.criterion(
    "8. analytic gradients match central differences within 1e-4 on 20 "
    "random small networks, with and without the coherence penalty"
)
def test_criterion_8_gradient_check():
    from cohexp import TrainConfig, gradient_check, init_model

    rng = np.random.default_rng(88)
    for trial in range(20):
        hidden = tuple(int(v) for v in rng.integers(2, 6, size=int(rng.integers(1, 3))))
        model = init_model(2, hidden, 1, rng)
        for b in model.biases:
            b += rng.uniform(-0.5, 0.5, b.shape)
        model.slopes += rng.uniform(-0.1, 0.1, model.slopes.shape)
        xs = rng.random((12, 2))
        ys = rng.integers(0, 2, (12, 1)).astype(np.float64)
        cfg = TrainConfig(
            hidden_sizes=hidden,
            weight_decay=1e-4,
            coherence_lambda=0.7 if trial % 2 else 0.0,
        )
        err = gradient_check(model, xs, ys, cfg)
        assert err < 1e-4, f"trial {trial}: gradient error {err}"


@pytest.mark.criterion(
    "9. xor experiment (seed 0): test accuracy and coherency both at "
    "least 0.90 and the class-1 explanation is exactly XOR, under 60 s"
)
def test_criterion_9_xor_experiment():
    start = time.monotonic()
    report, _, _ = run_experiment("xor", seed=0)
    test_metrics = report.metrics["test"]
    assert test_metrics.accuracy >= 0.90
    assert test_metrics.coherency >= 0.90
    class_one = next(s for s in report.extraction.naive.scores if s.target_class == 1)
    assert class_one.formula.term_sets() == XOR_TERMS
    assert time.monotonic() - start < 60.0


@pytest.mark.criterion(
    "10. bounded-sum experiment (seeds 0..2): concentrated test split "
    "drops coherency by >= 0.15 and extended beats naive fidelity on "
    "both classes, under 60 s per seed"
)
def test_criterion_10_fuzzy_or_experiment():
    for seed in (0, 1, 2):
        start = time.monotonic()
        report, _, _ = run_experiment("fuzzy_or", seed=seed)
        train_coherency = report.metrics["train"].coherency
        test_coherency = report.metrics["test"].coherency
        assert train_coherency - test_coherency >= 0.15, f"seed {seed}"

        extraction = report.extraction
        assert extraction.extended is not None, f"seed {seed}"
        naive = {s.target_class: s.fidelity for s in extraction.naive.scores}
        extended = {s.target_class: s.fidelity for s in extraction.extended.scores}
        for target in (0, 1):
            assert extended[target] > naive[target], (
                f"seed {seed} class {target}: extended {extended[target]} "
                f"vs naive {naive[target]}"
            )
        assert time.monotonic() - start < 60.0, f"seed {seed}"
