"""Re-measure the ROADMAP item-1 baseline table through the harness.

Run from the repository root::

    python3 bench/baseline.py [--repeats 3]

Each entry is one CLI op run in-process with the tracer installed; the
entry's time is read from the span named in the table (so the whole
op's JSON and file work is excluded where the ROADMAP timed a library
call).  Prints min, median and max over the repeats and writes them to
``bench/out/BENCH_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import envinfo

envinfo.prepare()

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import LUK_OR, Op, _item_rng, incoherent_mlp, mlp_doc, mlp_with_true_rows  # noqa: E402


_QMC_TABLES = ((549, 0), (2400, 1), (4000, 0))


def _op(name: str, argv: list[str]) -> Op:
    return Op(f"baseline/{name}", "baseline", "", tuple(argv) + (
        "--format", "structured", "--out", "{work}/" + name + ".out.json"))


def _spans_named(spans, name, where=None):
    return [s for s in spans if s[0] == name and (where is None or where(s))]


def _dur(s) -> float:
    return s[2] - s[1]


def _children(spans, parent_index, name):
    return [s for s in spans if s[3] == parent_index and s[0] == name]


def entries(work):
    """(label, roadmap value, op, function of the op's spans -> {quantity: value})."""
    docs = {
        "luk-or.json": LUK_OR,
        "mlp2.json": incoherent_mlp(_item_rng("check-grid", "mlp-a", 0), 2, 1),
        "law16-inner.json": mlp_doc(_item_rng("extract", "law16x2-inner", 0), 16, 2),
        "law16-outer.json": mlp_doc(_item_rng("extract", "law16x2-outer", 0), 2, 1),
    }
    # (true rows, item): item 0 at 2400 rows runs Petrick's search for
    # minutes, like the pool items in workloads.SLOW_ITEMS.
    for rows, item in _QMC_TABLES:
        docs[f"mlp12-rows{rows}.json"] = mlp_with_true_rows(_item_rng("extract", f"mlp12-rows{rows}", item), 12, rows)
    for name, doc in docs.items():
        (work / name).write_text(json.dumps(doc))

    def check_span(spans):
        i = next(k for k, s in enumerate(spans) if s[0] == "coherence.check_coherence")
        evals = _children(spans, i, "core.eval_batch")
        return {"check_coherence_s": _dur(spans[i]), "f(x)_s": _dur(evals[0]), "f(d(x))_s": _dur(evals[1])}

    def train_span(spans):
        train = _spans_named(spans, "nn.train")[0]
        steps = _spans_named(spans, "nn.loss_and_grads")
        return {
            "train_s": _dur(train),
            "epochs": train[5]["epochs"],
            "steps": len(steps),
            "us_per_step": 1e6 * _dur(train) / len(steps),
            "loss_and_grads_us_p50": 1e6 * statistics.median(_dur(s) for s in steps),
        }

    def booleanize_span(spans):
        big = _spans_named(spans, "functor.booleanize", lambda s: s[5]["vertices"] == 2**16)
        return {"booleanize_s": _dur(big[-1])}

    def qmc_span(spans):
        s = _spans_named(spans, "functor.table_to_dnf")[0]
        return {"table_to_dnf_s": _dur(s), "true_rows": s[5]["minterms"], "terms": s[5]["terms"]}

    w = "{work}/"
    yield ("check_coherence, Lukasiewicz OR, 2048^2 grid", "166 ms",
           _op("luk-or-2048", ["check", "--expr", w + "luk-or.json", "--grid", "2048"]), check_span)
    yield ("same grid, 16x16 MLP", "3.3 s (f(x) 1.9 s, f(d(x)) 1.5 s)",
           _op("mlp-2048", ["check", "--expr", w + "mlp2.json", "--grid", "2048"]), check_span)
    yield ("xor training", "1.8 s, 188 epochs, ~305 us per step",
           _op("xor", ["experiment", "--setting", "xor", "--seed", "0", "--outdir", w + "xor"]), train_span)
    yield ("fuzzy-or training", "0.29 s, ~136 us per step",
           _op("fuzzy-or", ["experiment", "--setting", "fuzzy-or", "--seed", "0", "--outdir", w + "fuzzy-or"]),
           train_span)
    yield ("booleanize, MLP with 16 inputs", "79 ms",
           _op("law16", ["functor-law", "--inner", w + "law16-inner.json", "--outer", w + "law16-outer.json"]),
           booleanize_span)
    for rows, _item in _QMC_TABLES:
        yield (f"QMC on a 12-input MLP table ({rows} true rows)", "46 ms (549 true rows)" if rows == 549 else "-",
               _op(f"qmc12-{rows}", ["explain", "--expr", w + f"mlp12-rows{rows}.json", "--seed", "0"]), qmc_span)


def main() -> int:
    p = argparse.ArgumentParser(description="ROADMAP item-1 baseline through the benchmark harness")
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args()
    env = envinfo.environment(0)
    envinfo.check_threads(env)
    tracer = tracing.Tracer()
    work = harness.work_dir("baseline")
    rows = []
    try:
        for label, roadmap, op, read in entries(work):
            samples = []
            for _ in range(args.repeats):
                tracer.install()
                try:
                    res = harness.run_op(op, work)
                finally:
                    tracer.uninstall()
                spans = tracer.take()
                if res.exit != 0:
                    raise SystemExit(f"{op.name} failed: exit {res.exit} {res.stderr} {res.traceback}")
                samples.append(read(spans))
            stats = {
                k: {"min": min(s[k] for s in samples), "median": statistics.median(s[k] for s in samples),
                    "max": max(s[k] for s in samples)}
                for k in samples[0]
            }
            rows.append({"entry": label, "roadmap": roadmap, "repeats": args.repeats, "measured": stats})
            shown = ", ".join(f"{k} {v['median']:.4g} [{v['min']:.4g}..{v['max']:.4g}]" for k, v in stats.items())
            print(f"{label}: roadmap {roadmap}; measured {shown}", flush=True)
    finally:
        harness.remove_work(work)
    harness.OUT.mkdir(parents=True, exist_ok=True)
    (harness.OUT / "BENCH_baseline.json").write_text(
        json.dumps({"environment": env, "entries": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
