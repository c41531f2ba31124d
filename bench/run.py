"""cohexp benchmark: one run of one workload.

Run from the repository root::

    python3 bench/run.py --workload check-grid --seed 1 --seconds 15 --trace 0

Workloads: ``check-grid``, ``check-fine``, ``train``, ``extract`` (see
``workloads.py`` and NOTES.md).  Every op is a ``cohexp`` CLI command run
in-process through ``cohexp.cli.run``, one after the other in a single
process.  A run repeats the workload's fixed op list (a *pass*)
``PASSES_AT_15S`` times (scaled to ``--seconds``), checks every answer with
its oracle, and prints a report whose last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``run_s``, ``op_s.p50``, ``op_s.tail``, ``peak_rss_mb``; ``failed_ratio``
is printed above).  With ``--trace 1`` every pass is traced and the metrics
are the per-layer ones, medians over the passes.
The full result, with the environment block, goes to
``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import envinfo

envinfo.prepare()

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import PASSES_AT_15S, WORKLOADS  # noqa: E402

# Set-ups measured per run; setup_s is their median.
SETUP_SAMPLES = 3
_CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
)


def _parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _passes(args) -> int:
    return max(1, round(PASSES_AT_15S[args.workload] * args.seconds / 15))


def _setup_child(args) -> int:
    work = harness.work_dir(f"setup-{args.workload}")
    try:
        harness.set_up(args.workload, args.seed, work, _passes(args))
        print("READY", flush=True)
    finally:
        harness.remove_work(work)
    return 0


def measure_setups(workload: str, seed: int, seconds: float, samples: int) -> list[float]:
    """Time fresh processes from spawn until their first op could start
    (interpreter start, imports, documents, warm-up op)."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--setup-only"],
            stdout=subprocess.PIPE, text=True, cwd=envinfo.ROOT,
        )
        watchdog = threading.Timer(_CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise SystemExit(f"set-up process failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 ops beyond it
    (the 11th largest), and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_only:
        return _setup_child(args)

    refs = oracle.load_refs()
    env = envinfo.environment(args.seed)
    envinfo.check_threads(env)
    setups = [] if args.trace else measure_setups(args.workload, args.seed, args.seconds, SETUP_SAMPLES)

    n_passes = _passes(args)
    tracer = tracing.Tracer() if args.trace else None
    walls: list[float] = []
    results: list[harness.OpResult] = []
    traced: list[tuple[float, list, list]] = []
    work = harness.work_dir(args.workload)
    try:
        plans = harness.set_up(args.workload, args.seed, work, n_passes)
        for index, plan in enumerate(plans):
            if tracer is not None:
                tracer.install()
            try:
                wall, res = harness.run_pass(plan, work, index, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls.append(wall)
            results += res
            if tracer is not None:
                traced.append((wall, tracer.take(), res))
        harness.judge(results, refs)
    finally:
        harness.remove_work(work)

    n_ops = len(results)
    n_failed = sum(r.outcome == "failed" for r in results)
    n_known = sum(r.outcome == "known" for r in results)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": n_passes, "ops_per_pass": len(plans[0].ops),
              "environment": env}
    if args.trace:
        per_pass = []
        for wall, spans, res in traced:
            m = tracing.layer_metrics(spans, wall)
            m["experiments.report_digest_match"] = sum(
                r.op.kind == "experiment"
                and r.obs.get("report_sha256") == refs.get(r.op.ref_key, {}).get("report_sha256")
                for r in res
            )
            per_pass.append(m)
        metrics_raw = _median_dicts(per_pass)
        units = dict(tracing.LAYER_METRICS)
        idle = sorted(k for k, u in units.items() if metrics_raw[k] == 0)
        result["not_exercised"] = idle
        result["spans_file"] = str(_write_spans(args, traced).relative_to(envinfo.ROOT))
    else:
        latencies = [r.latency_s for r in results]
        tail_s, tail_pct = tail(latencies)
        metrics_raw = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(walls),
            "op_s.p50": statistics.median(latencies),
            "op_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        result.update(
            setup_samples_s=setups,
            pass_walls_s=walls,
            tail={"percentile": tail_pct, "ops": n_ops, "ops_beyond": min(10, n_ops - 1)},
            failed_ratio=(n_failed + n_known) / n_ops,
        )
    metrics = {k: {"value": metrics_raw[k], "unit": units[k]} for k in units}
    result.update(
        metrics=metrics,
        attempted=n_ops,
        failed=n_failed,
        known_failures=n_known,
        ops=[{"name": r.op.name, "pass": r.pass_index, "latency_s": r.latency_s,
              "outcome": r.outcome, "reason": r.reason} for r in results],
    )
    harness.OUT.mkdir(parents=True, exist_ok=True)
    path = harness.OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    _report(args, result, results)
    print(json.dumps({"correct": n_failed == 0, "attempted": n_ops, "failed": n_failed,
                      "metrics": metrics}))
    return 0


def _write_spans(args, traced) -> Path:
    harness.OUT.mkdir(parents=True, exist_ok=True)
    path = harness.OUT / f"spans_{args.workload}_seed{args.seed}.json"
    doc = {"fields": tracing.SPAN_FIELDS, "passes": [spans for _wall, spans, _res in traced]}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path


def _report(args, result: dict, results: list) -> None:
    print(f"cohexp benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{result['passes']} passes of {result['ops_per_pass']} ops")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    if args.trace:
        print("per-layer metrics (median over traced passes):")
    else:
        print("end-to-end metrics:")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        t = result["tail"]
        print(f"  op_s.tail is p{t['percentile']:.1f} of {t['ops']} ops ({t['ops_beyond']} beyond it); "
              f"setup_s is the median of {len(result['setup_samples_s'])} set-ups")
        print(f"  {'failed_ratio':<36} {result['failed_ratio']:>14.6g} ratio "
              f"({result['failed'] + result['known_failures']} of {result['attempted']} ops)")
    else:
        print("  not exercised on this workload (reported as 0): "
              + (", ".join(result["not_exercised"]) or "none"))
        print(f"  spans written to {result['spans_file']}")
    oks = sum(r.outcome == "ok" for r in results)
    print(f"oracle: {oks} ok, {result['known_failures']} failed as on the reference commit, "
          f"{result['failed']} failed otherwise, of {result['attempted']} ops")
    seen: dict[tuple[str, str, str], int] = {}
    for r in results:
        if r.outcome != "ok":
            key = (r.outcome, r.op.name, r.reason)
            seen[key] = seen.get(key, 0) + 1
    for (outcome, name, reason), count in seen.items():
        op = next(r.op for r in results if r.op.name == name)
        label = "known defect" if outcome == "known" else "FAILED"
        note = f" [{op.known_defect}]" if op.known_defect and outcome == "known" else ""
        print(f"  {label}: {name} x{count}: {reason}{note}")


if __name__ == "__main__":
    sys.exit(main())
