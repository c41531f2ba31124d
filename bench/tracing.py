"""Spans around calls into cohexp, recorded from outside the package.

``Tracer.install`` replaces each target below with a wrapper that
records a span (name, start, end, parent span, op id, counts, site and
the wrapper's own time) and
``Tracer.uninstall`` puts the originals back, so untraced passes run
the package's own functions.  Names bound with ``from ... import`` are
wrapped in every namespace whose code calls them, functions that a
module calls by its own global name are wrapped in that module, and
methods are wrapped on their class.  Spans stay in memory until the
run writes them out.

Span names follow the module that defines the function, so a call
through ``cli.check_coherence`` and one through ``gamma.coherence_masks``
both count towards the ``coherence`` layer.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from cohexp import cli, coherence, core, experiments, functor, gamma, nn


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1])[0])}


def _elements(args, kwargs, result):
    return {"elements": int(np.size(args[1]))}


def _sample_points(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _check_counts(args, kwargs, result):
    return {"points": result.n_points, "witnesses": sum(len(c.witnesses) for c in result.components)}


def _mask_points(args, kwargs, result):
    return {"points": int(np.shape(args[2])[0])}


def _vertices(args, kwargs, result):
    return {"vertices": 2 ** args[0].in_arity}


def _dnf_counts(args, kwargs, result):
    return {
        "minterms": int(np.asarray(args[0].rows).sum()),
        "terms": sum(len(terms) for terms in result.outputs),
    }


def _fibers(args, kwargs, result):
    return {"fibers": sum(len(s) for s in getattr(result, "contaminated", ()))}


def _epochs(args, kwargs, result):
    return {"epochs": result.epochs_run}


# (owner, attribute, span name, count function)
TARGETS = (
    (cli, "run", "cli.run", None),
    (cli, "load_expr", "serialize.load_expr", None),
    (cli, "check_coherence", "coherence.check_coherence", _check_counts),
    (cli, "apply_gamma", "gamma.apply_gamma", None),
    (cli, "explain", "gamma.explain", None),
    (cli, "verify_functor_law", "functor.verify_functor_law", None),
    (gamma, "coherence_masks", "coherence.coherence_masks", _mask_points),
    (gamma, "booleanize", "functor.booleanize", _vertices),
    (gamma, "table_to_dnf", "functor.table_to_dnf", _dnf_counts),
    (gamma, "apply_gamma", "gamma.apply_gamma", None),
    (gamma, "gamma_extend", "gamma.gamma_extend", _fibers),
    (gamma, "gamma_output_mod", "gamma.gamma_output_mod", None),
    (functor, "booleanize", "functor.booleanize", _vertices),
    (experiments, "coherence_masks", "coherence.coherence_masks", _mask_points),
    (experiments, "booleanize", "functor.booleanize", _vertices),
    (experiments, "table_to_dnf", "functor.table_to_dnf", _dnf_counts),
    (experiments, "gamma_extend", "gamma.gamma_extend", _fibers),
    (experiments, "train", "nn.train", _epochs),
    (experiments, "make_dataset", "experiments.make_dataset", None),
    (experiments, "evaluate", "experiments.evaluate", None),
    (experiments, "extract_and_score", "experiments.extract_and_score", None),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "write_artifacts", "experiments.write_artifacts", None),
    (nn, "forward", "nn.forward", _rows),
    (nn, "loss_and_grads", "nn.loss_and_grads", None),
    (core.FuzzyExpr, "eval_batch", "core.eval_batch", _rows),
    (core.Projection, "apply", "core.projection_apply", _elements),
    (coherence.SamplingSpec, "sample", "coherence.sample", _sample_points),
    (functor.DnfFormula, "evaluate_batch", "functor.dnf_evaluate", None),
)


def site(owner, attr: str) -> str:
    """Where a wrapper sits, e.g. ``gamma.coherence_masks`` or
    ``core.FuzzyExpr.eval_batch``."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


SPAN_FIELDS = ("name", "start", "end", "parent", "op", "counts", "site", "overhead")


class Tracer:
    """Records spans while installed; ``spans`` rows follow ``SPAN_FIELDS``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, where: str, fn, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, where, 0.0]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            # the time this wrapper adds around the call (left 0 when it raised)
            span[7] = (span[1] - entered) + (time.perf_counter() - span[2])
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, site(owner, attr), original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# (metric, unit); the traced run reports every one of them.
LAYER_METRICS = (
    ("cli.run.self_s", "s"),
    ("serialize.load_expr.s", "s"),
    ("core.eval_batch.calls", "count"),
    ("core.eval_batch.rows", "count"),
    ("core.eval_batch.self_s", "s"),
    ("core.projection_apply.elements", "count"),
    ("core.projection_apply.self_s", "s"),
    ("coherence.sample.points", "count"),
    ("coherence.sample.s", "s"),
    ("coherence.check_coherence.calls", "count"),
    ("coherence.check_coherence.self_s", "s"),
    ("coherence.coherence_masks.self_s", "s"),
    ("coherence.witnesses", "count"),
    ("coherence.eval_rows_per_point", "ratio"),
    ("gamma.apply_gamma.calls", "count"),
    ("gamma.gamma_extend.s", "s"),
    ("gamma.gamma_output_mod.s", "s"),
    ("gamma.explain.self_s", "s"),
    ("gamma.eval_rows_per_point", "ratio"),
    ("gamma.contaminated_fibers", "count"),
    ("functor.booleanize.vertices", "count"),
    ("functor.booleanize.self_s", "s"),
    ("functor.verify_functor_law.self_s", "s"),
    ("functor.table_to_dnf.calls", "count"),
    ("functor.table_to_dnf.minterms", "count"),
    ("functor.table_to_dnf.s", "s"),
    ("functor.table_to_dnf.terms", "count"),
    ("functor.dnf_evaluate.s", "s"),
    ("nn.train.calls", "count"),
    ("nn.train.self_s", "s"),
    ("nn.loss_and_grads.calls", "count"),
    ("nn.loss_and_grads.s", "s"),
    ("nn.step_us.p50", "us"),
    ("nn.step_us.p90", "us"),
    ("nn.forward.calls", "count"),
    ("nn.forward.rows", "count"),
    ("nn.forward.self_s", "s"),
    ("nn.epochs", "count"),
    ("experiments.run_experiment.s", "s"),
    ("experiments.make_dataset.s", "s"),
    ("experiments.evaluate.s", "s"),
    ("experiments.extract_and_score.s", "s"),
    ("experiments.write_artifacts.s", "s"),
    ("experiments.report_digest_match", "count"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], pass_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``.s`` sums the outermost spans of a name (a nested span of the
    same name is not counted twice); ``.self_s`` sums every span's
    duration minus its direct children's.  ``trace.overhead_s`` sums
    the time the wrappers themselves took (span bookkeeping and count
    functions), which is what tracing adds to the pass.
    ``experiments.report_digest_match`` is filled in by the caller.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def outermost(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    cli_run_all = 0.0
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    # Root span (outermost check_coherence/coherence_masks, or outermost
    # apply_gamma) that each span sits under; parents precede children.
    coh_root = [-1] * n
    gam_root = [-1] * n
    coh_rows: dict[int, int] = {}
    gam_rows: dict[int, int] = {}
    gam_points: dict[int, int] = {}
    steps_us = []
    for i, s in enumerate(spans):
        name, p, c = s[0], s[3], s[5] or {}
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        if outermost(i):
            total[name] = total.get(name, 0.0) + dur[i]
        if name == "cli.run":
            cli_run_all += dur[i]
        for key, value in c.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        coh_root[i] = coh_root[p] if p >= 0 else -1
        if coh_root[i] < 0 and name in ("coherence.check_coherence", "coherence.coherence_masks"):
            coh_root[i] = i
        gam_root[i] = gam_root[p] if p >= 0 else -1
        if gam_root[i] < 0 and name == "gamma.apply_gamma":
            gam_root[i] = i
        # a span whose call raised has no counts
        if name == "core.eval_batch":
            if coh_root[i] >= 0:
                coh_rows[coh_root[i]] = coh_rows.get(coh_root[i], 0) + c.get("rows", 0)
            if gam_root[i] >= 0:
                gam_rows[gam_root[i]] = gam_rows.get(gam_root[i], 0) + c.get("rows", 0)
        if name == "coherence.sample" and gam_root[i] >= 0:
            gam_points[gam_root[i]] = gam_points.get(gam_root[i], 0) + c.get("points", 0)
        if name == "nn.loss_and_grads":
            steps_us.append(dur[i] * 1e6)

    coh_points = sum((spans[r][5] or {}).get("points", 0) for r in set(coh_root) if r >= 0)
    step_p50, step_p90 = np.percentile(steps_us, [50, 90]) if steps_us else (0.0, 0.0)
    out = {
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "coherence.witnesses": counts.get("coherence.check_coherence.witnesses", 0),
        "coherence.eval_rows_per_point": _ratio(sum(coh_rows.values()), coh_points),
        "gamma.eval_rows_per_point": _ratio(sum(gam_rows.values()), sum(gam_points.values())),
        "gamma.contaminated_fibers": counts.get("gamma.gamma_extend.fibers", 0),
        "nn.step_us.p50": float(step_p50),
        "nn.step_us.p90": float(step_p90),
        "nn.epochs": counts.get("nn.train.epochs", 0),
        # every cli.run span, nested ones too: a doubled wrapper shows as ~2
        "trace.span_coverage": _ratio(cli_run_all, pass_wall_s),
        "trace.overhead_s": sum(s[7] for s in spans),
    }
    for metric, _unit in LAYER_METRICS:
        if metric in out:
            continue
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "s":
            out[metric] = total.get(layer, 0.0)
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif metric in counts:
            out[metric] = counts[metric]
        else:
            out[metric] = 0
    return out
