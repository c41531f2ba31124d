"""Self-test of the benchmark itself, in seconds.

Run from the repository root::

    python3 bench/selftest.py

Runs every workload at a tiny size twice (untraced, then traced),
checks that the second run agrees with answers recorded from the first,
drives every oracle outcome (``ok``, ``known``, ``failed``) through
real and tampered references, checks that every trace wrapper recorded
a span and every per-layer metric was measured on some workload,
checks that every full-size check-fine op has more fibers than sample
points, and times one set-up process.  Exits 1 and lists the problems
if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys

import envinfo

envinfo.prepare()

import harness  # noqa: E402
from cohexp.serialize import load_expr  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op, build_pass  # noqa: E402

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _judged(op: Op, obs: dict, ref: dict | None) -> str:
    return oracle.judge(op, obs, ref)[0]


def check_oracle_paths(results: list) -> None:
    """Tampered references must turn ``ok`` into ``failed``."""
    for res in results:
        ref = oracle.reference_record(res.obs)
        bad_input = dict(ref, input_sha256="0" * 64)
        expect(_judged(res.op, res.obs, bad_input) == "failed", f"{res.op.name}: input change missed")
        expect(_judged(res.op, res.obs, None) == "failed", f"{res.op.name}: missing reference missed")
        if res.op.kind == "experiment":
            flipped = dict(ref, property=not res.obs["property"])
            want = "failed" if res.obs["property"] is False else "ok"
            expect(_judged(res.op, res.obs, flipped) == want, f"{res.op.name}: property path")
        elif res.obs["exit"] == 0:
            wrong = dict(ref, answer_sha256="0" * 64)
            expect(_judged(res.op, res.obs, wrong) == "failed", f"{res.op.name}: wrong answer missed")
            if res.op.known_defect:
                defect = dict(ref, exit=2, error="E_CAPACITY")
                expect(_judged(res.op, res.obs, defect) == "ok",
                       f"{res.op.name}: success after a known defect not accepted")
                broken = copy.deepcopy(res.obs)
                broken["answer"]["verification_verdict"] = "incoherent_with_witnesses"
                expect(_judged(res.op, broken, defect) == "failed",
                       f"{res.op.name}: bad success after a known defect accepted")


def check_error_paths(work) -> None:
    """Coded errors, tracebacks and experiment properties."""
    missing = Op("selftest/missing", "check", "selftest/missing",
                 ("check", "--expr", "{work}/no-such-file.json", "--format", "structured",
                  "--out", "{work}/missing.out.json"))
    res = harness.run_op(missing, work)
    obs = oracle.observe(missing, work, res.exit, res.stderr, res.traceback)
    expect((obs["exit"], obs["error"]) == (2, "E_FORMAT"), f"coded error not parsed: {obs}")
    ref = oracle.reference_record(obs)
    expect(_judged(missing, obs, ref) == "known", "error seen on the reference commit not 'known'")
    expect(_judged(missing, obs, dict(ref, exit=0, error=None)) == "failed", "new error not 'failed'")

    original = harness.cli.run

    def boom(argv):
        raise RuntimeError("selftest")

    harness.cli.run = boom
    try:
        res = harness.run_op(missing, work)
    finally:
        harness.cli.run = original
    expect(res.exit is None and res.traceback and "RuntimeError" in res.traceback,
           "escaping exception not recorded as a traceback")
    obs = oracle.observe(missing, work, res.exit, res.stderr, res.traceback)
    expect(_judged(missing, obs, ref) == "failed", "traceback not 'failed'")

    # A call that raises inside traced code leaves spans without counts.
    (work / "luk-or.json").write_text(json.dumps({"node": "tconorm", "kind": "lukasiewicz"}))
    too_big = Op("selftest/too-big", "check", "selftest/too-big",
                 ("check", "--expr", "{work}/luk-or.json", "--grid", "4096", "--format", "structured",
                  "--out", "{work}/too-big.out.json"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = harness.run_op(too_big, work)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    expect(res.exit == 2 and "E_CAPACITY" in res.stderr, f"capacity error expected: {res.stderr}")
    expect(any(s[5] is None for s in spans), "no span of a raising call")
    tracing.layer_metrics(spans, res.latency_s)

    good_xor = {
        "metrics": {"test": {"accuracy": 0.95, "coherency": 0.97}},
        "extraction": {"naive": {"scores": [{"target_class": 1, "formula": "(x ∧ ¬y) ∨ (¬x ∧ y)"}]}},
    }
    expect(oracle.experiment_property("xor", good_xor)[0], "xor property rejects XOR")
    bad_xor = copy.deepcopy(good_xor)
    bad_xor["extraction"]["naive"]["scores"][0]["formula"] = "x ∨ y"
    expect(not oracle.experiment_property("xor", bad_xor)[0], "xor property accepts OR")


def check_fine_is_sparse(work) -> None:
    """check-fine is the regime with more fibers (levels ** inputs)
    than sample points.  Only ops on generated documents are checked: an
    extended expression has more inputs than its base, so more fibers."""
    plan = build_pass("check-fine", seed=0)
    plan.write_documents(work)
    for op in plan.ops:
        if not op.inputs:
            continue
        fibers = int(op.flag("--quantize", work)) ** load_expr(work / op.inputs[0]).in_arity
        points = int(op.flag("--random", work))
        expect(fibers > points, f"{op.name}: {fibers} fibers for {points} points")


def main() -> int:
    tracer = tracing.Tracer()
    sites: set[str] = set()
    measured: set[str] = set()
    for workload in WORKLOADS:
        work = harness.work_dir(f"selftest-{workload}")
        try:
            plan = build_pass(workload, seed=0, tiny=True)
            plan.write_documents(work)
            harness.run_op(plan.warmup, work)
            _wall, first = harness.run_pass(plan, work, 0)
            refs = {r.op.ref_key: oracle.reference_record(r.obs) for r in first}
            tracer.install()
            try:
                wall, second = harness.run_pass(plan, work, 1, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            harness.judge(second, refs)
            for r in second:
                expect(r.outcome in ("ok", "known"), f"{r.op.name}: {r.outcome} {r.reason}")
            check_oracle_paths(second)
            metrics = tracing.layer_metrics(spans, wall)
            overhead = metrics["trace.overhead_s"]
            expect(0 < overhead < 0.5 * wall, f"{workload}: tracing overhead {overhead:.4f} s of {wall:.3f} s")
            expect(set(metrics) == {m for m, _ in tracing.LAYER_METRICS}, f"{workload}: metric names")
            coverage = metrics["trace.span_coverage"]
            expect(0.5 < coverage <= 1.0, f"{workload}: span coverage {coverage:.3f}")
            measured |= {k for k, v in metrics.items() if v}
            sites |= {s[6] for s in spans}
            print(f"{workload}: {len(second)} ops, {len(spans)} spans, coverage {coverage:.3f}")
        finally:
            harness.remove_work(work)

    every_site = {tracing.site(owner, attr) for owner, attr, _n, _c in tracing.TARGETS}
    expect(not every_site - sites, f"wrappers without spans: {sorted(every_site - sites)}")
    filled_by_caller = {"experiments.report_digest_match"}
    unmeasured = {m for m, _ in tracing.LAYER_METRICS} - measured - filled_by_caller
    expect(not unmeasured, f"per-layer metrics never measured: {sorted(unmeasured)}")

    work = harness.work_dir("selftest-errors")
    try:
        check_error_paths(work)
        check_fine_is_sparse(work)
    finally:
        harness.remove_work(work)

    expect(run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0), "tail percentile")
    expect(run.tail([1.0, 2.0]) == (2.0, 100.0), "tail with few ops")
    setup = run.measure_setups("extract", 0, 15, 1)
    expect(len(setup) == 1 and setup[0] > 0, "set-up process")
    env = envinfo.environment(0)
    expect(env["blas_threads"] is None or env["blas_threads"] <= env["nproc"], "BLAS threads")
    json.dumps(env)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
