"""Command line interface.

Subcommands::

    check        sampled coherence report for an expression file
    explain      repair + booleanize + DNF extraction
    repair       write the repaired expression to a file
    demo-noncomp produce a non-compositionality record for a repair
    functor-law  compare booleanize(g . f) against the composed tables
    experiment   run a built-in synthetic experiment end to end

Exit codes: 0 on success, 2 for input or format problems, 3 when a
mathematical contract fails (incompatible fallback, diverged training).
Errors print one line ``error[CODE]: message`` on stderr.

Flag values beat ``--config`` file values, which beat built-in
defaults; the default seed comes from ``COHEXP_SEED`` when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import experiments
from .coherence import SamplingSpec, check_coherence, default_sampling, incoherent_components
from .core import Projection, to_dict
from .errors import CohexpError, ContractError, ValidationError
from .functor import verify_functor_law
from .gamma import GammaSpec, apply_gamma, demo_noncompositional, explain
from .serialize import load_expr, load_json, save_json

__all__ = ["run", "main"]

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_CONTRACT = 3


def _env_seed() -> int:
    raw = os.environ.get("COHEXP_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"COHEXP_SEED must be an integer, got {raw!r}") from exc


def _preload_config(argv: list[str]) -> dict:
    """Fish --config out of argv before the real parse so its values
    can serve as parser defaults (explicit flags then win)."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    return load_json(path) if path is not None else {}


def _build_parser(config: dict) -> argparse.ArgumentParser:
    """Parser with ``config`` values as defaults; rejects keys no option reads."""
    configurable = set()

    def dflt(name: str, builtin):
        configurable.add(name)
        return config.get(name, builtin)

    parser = argparse.ArgumentParser(
        prog="cohexp",
        description="Boolean explanations for fuzzy classifiers via coherence analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "structured"),
                       default=dflt("format", "text"),
                       help="text report or structured JSON document")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the report there instead of stdout")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="JSON file with default option values")
        p.add_argument("--seed", type=int, default=dflt("seed", _env_seed()),
                       help="seed for sampled checks (default: COHEXP_SEED or 0)")

    def add_projection(p: argparse.ArgumentParser) -> None:
        g = p.add_mutually_exclusive_group()
        g.add_argument("--alpha", type=float, default=dflt("alpha", 0.5),
                       help="threshold projection parameter (default 0.5)")
        g.add_argument("--quantize", type=int, default=dflt("quantize", None),
                       metavar="LEVELS", help="use a quantizing projection instead")
        g.add_argument("--identity", action="store_true",
                       default=dflt("identity", False),
                       help="use the identity projection")

    def add_sampling(p: argparse.ArgumentParser, scope: str = "") -> None:
        g = p.add_mutually_exclusive_group()
        g.add_argument("--grid", type=int, default=dflt("grid", None),
                       metavar="K", help=f"grid sampling with K points per axis{scope}")
        g.add_argument("--random", type=int, default=dflt("random", None),
                       metavar="N", help=f"random sampling with N points{scope}")

    p_check = sub.add_parser("check", help="sampled coherence report")
    p_check.add_argument("--expr", required=True, metavar="FILE")
    add_projection(p_check)
    add_sampling(p_check)
    p_check.add_argument("--witness-limit", type=int,
                         default=dflt("witness_limit", 100))
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_explain = sub.add_parser("explain", help="extract a DNF explanation")
    p_explain.add_argument("--expr", required=True, metavar="FILE")
    add_projection(p_explain)
    add_sampling(p_explain, "; used only by --gamma extend or output-mod:FILE")
    p_explain.add_argument("--gamma", default=dflt("gamma", None),
                           metavar="KIND", help="extend | output-mod[:fallback-file]")
    p_explain.add_argument("--no-simplify", dest="simplify", action="store_false",
                           default=dflt("simplify", True))
    p_explain.add_argument("--names", default=dflt("names", None),
                           help="comma-separated variable names")
    p_explain.add_argument("--ascii", action="store_true",
                           default=dflt("ascii", False),
                           help="render with & | ! instead of unicode")
    add_common(p_explain)
    p_explain.set_defaults(func=_cmd_explain)

    p_repair = sub.add_parser("repair", help="write the repaired expression")
    p_repair.add_argument("--expr", required=True, metavar="FILE")
    add_projection(p_repair)
    add_sampling(p_repair)
    p_repair.add_argument("--gamma", required=True, metavar="KIND",
                          help="extend | output-mod[:fallback-file]")
    p_repair.add_argument("--out-expr", required=True, metavar="FILE",
                          help="where to write the repaired expression")
    add_common(p_repair)
    p_repair.set_defaults(func=_cmd_repair)

    p_demo = sub.add_parser("demo-noncomp",
                            help="show that the repair is not compositional")
    p_demo.add_argument("--gamma", default=dflt("gamma", "output-mod"),
                        metavar="KIND", help="extend | output-mod[:fallback-file]")
    p_demo.add_argument("--g-expr", default=None, metavar="FILE",
                        help="use this unary function instead of the built-ins")
    add_common(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    p_law = sub.add_parser("functor-law",
                           help="check booleanize(g . f) == booleanize(g) . booleanize(f)")
    p_law.add_argument("--inner", required=True, metavar="FILE", help="f (runs first)")
    p_law.add_argument("--outer", required=True, metavar="FILE", help="g")
    add_projection(p_law)
    add_common(p_law)
    p_law.set_defaults(func=_cmd_law)

    p_exp = sub.add_parser("experiment", help="run a built-in experiment")
    p_exp.add_argument("--setting", default=dflt("setting", None),
                       required="setting" not in config,
                       choices=("xor", "fuzzy-or", "fuzzy_or"))
    p_exp.add_argument("--outdir", required=True, metavar="DIR")
    p_exp.add_argument("--epochs", type=int, default=dflt("epochs", None))
    p_exp.add_argument("--learning-rate", type=float,
                       default=dflt("learning_rate", None))
    p_exp.add_argument("--coherence-lambda", type=float,
                       default=dflt("coherence_lambda", None))
    p_exp.add_argument("--batch-size", type=int, default=dflt("batch_size", None))
    p_exp.add_argument("--weight-decay", type=float, default=dflt("weight_decay", None))
    p_exp.add_argument("--hidden-sizes", default=dflt("hidden_sizes", None),
                       help="comma-separated layer widths")
    p_exp.add_argument("--early-stopping-patience", type=int,
                       default=dflt("early_stopping_patience", None))
    p_exp.add_argument("--train-size", type=int, default=dflt("train_size", 1000))
    p_exp.add_argument("--val-size", type=int, default=dflt("val_size", 250))
    p_exp.add_argument("--test-size", type=int, default=dflt("test_size", 1000))
    add_common(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    unknown = set(config) - configurable
    if unknown:
        raise ValidationError(f"config file sets unknown options: {sorted(unknown)}")
    return parser


# ---------------------------------------------------------------------------
# shared argument interpretation
# ---------------------------------------------------------------------------


def _projection_from(args) -> Projection:
    if getattr(args, "identity", False):
        return Projection.identity()
    if getattr(args, "quantize", None) is not None:
        return Projection.quantize(args.quantize)
    return Projection.threshold(args.alpha)


def _sampling_from(args, arity: int) -> SamplingSpec:
    if getattr(args, "grid", None) is not None:
        return SamplingSpec.grid(args.grid)
    if getattr(args, "random", None) is not None:
        return SamplingSpec.random(args.random, seed=args.seed)
    return default_sampling(arity, seed=args.seed)


def _gamma_from(args, projection: Projection, sampling: SamplingSpec | None) -> GammaSpec:
    raw = args.gamma
    if raw is None:
        raise ValidationError("this operation needs --gamma")
    if raw == "extend":
        return GammaSpec("extend", projection, sampling=sampling)
    if raw == "output-mod" or raw == "output_mod":
        return GammaSpec("output_mod", projection, sampling=sampling)
    for prefix in ("output-mod:", "output_mod:"):
        if raw.startswith(prefix):
            fallback = load_expr(raw[len(prefix):])
            return GammaSpec("output_mod", projection, sampling=sampling, fallback=fallback)
    raise ValidationError(
        f"unknown gamma {raw!r}; expected extend or output-mod[:fallback-file]"
    )


def _emit(args, text: str, document: dict) -> None:
    payload = (
        text if args.format == "text" else json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    expr = load_expr(args.expr)
    projection = _projection_from(args)
    sampling = _sampling_from(args, expr.in_arity)
    report = check_coherence(expr, projection, sampling, witness_cap=args.witness_limit)
    lines = [
        f"projection: {projection.to_dict()}",
        f"sampling: {sampling.to_dict()} ({report.n_points} points)",
        f"verdict: {report.verdict}",
        f"coherent fraction (all components): {report.coherent_fraction:.6f}",
    ]
    for comp in report.components:
        lines.append(
            f"component {comp.component}: coherent fraction "
            f"{comp.coherent_fraction:.6f}, {len(comp.witnesses)} witnesses kept"
        )
        if comp.witnesses:
            w = comp.witnesses[0]
            lines.append(
                f"  first witness: x={w.point} f(x)={w.output} "
                f"direct={w.projected_direct:g} via-projection={w.projected_via_projected_inputs:g}"
            )
    lines.append(f"incoherent components: {incoherent_components(report)}")
    _emit(args, "\n".join(lines) + "\n", report.to_dict())
    return _EXIT_OK


def _cmd_explain(args) -> int:
    expr = load_expr(args.expr)
    projection = _projection_from(args)
    sampling = _sampling_from(args, expr.in_arity)
    if args.gamma is None:
        gamma = GammaSpec("output_mod", projection, sampling=sampling)
    else:
        gamma = _gamma_from(args, projection, sampling)
    names = args.names.split(",") if args.names else None
    formula = explain(expr, gamma, simplify=args.simplify, var_names=names)
    rendered = formula.render_all(ascii_ops=args.ascii)
    text = "".join(
        f"output {o}: {line}\n" for o, line in enumerate(rendered)
    )
    _emit(args, text, {"gamma": gamma.to_dict(), "formula": formula.to_dict()})
    return _EXIT_OK


def _cmd_repair(args) -> int:
    expr = load_expr(args.expr)
    projection = _projection_from(args)
    sampling = _sampling_from(args, expr.in_arity)
    gamma = _gamma_from(args, projection, sampling)
    repaired = apply_gamma(expr, gamma)
    save_json(to_dict(repaired), args.out_expr)
    verification = check_coherence(repaired, projection, sampling)
    changed = repaired is not expr
    text = (
        f"gamma: {gamma.kind}\n"
        f"signature: {expr.in_arity} -> {expr.out_arity} becomes "
        f"{repaired.in_arity} -> {repaired.out_arity}\n"
        f"already coherent: {not changed}\n"
        f"verification: {verification.verdict} "
        f"(fraction {verification.coherent_fraction:.6f})\n"
        f"written: {args.out_expr}\n"
    )
    _emit(args, text, {
        "gamma": gamma.to_dict(),
        "already_coherent": not changed,
        "expr": to_dict(repaired),
        "verification": verification.to_dict(),
        "written": str(args.out_expr),
    })
    return _EXIT_OK


def _cmd_demo(args) -> int:
    projection = Projection.threshold(0.5)
    gamma = _gamma_from(args, projection, None)
    g = load_expr(args.g_expr) if args.g_expr else None
    demo = demo_noncompositional(gamma, g=g)
    lines = [f"kind: {demo.kind}"]
    if demo.kind == "witness":
        lines += [
            f"witness point a = {demo.point}",
            f"repair(g . f)(a) = {demo.lhs}",
            f"(repair(g) . repair(f))(a) = {demo.rhs}",
        ]
    lines.append(f"detail: {demo.detail}")
    _emit(args, "\n".join(lines) + "\n", demo.to_dict())
    return _EXIT_OK


def _cmd_law(args) -> int:
    inner = load_expr(args.inner)
    outer = load_expr(args.outer)
    projection = _projection_from(args)
    report = verify_functor_law(inner, outer, projection)
    if report.holds:
        text = "verdict: holds\n"
    else:
        text = (
            f"verdict: violated at vertex {report.witness}; composite row "
            f"{report.composite_row}, factored row {report.factored_row}\n"
        )
    _emit(args, text, report.to_dict())
    return _EXIT_OK


def _cmd_experiment(args) -> int:
    setting = experiments.canonical_setting(args.setting)
    cfg = experiments.default_train_config(setting, seed=args.seed)
    if isinstance(args.hidden_sizes, str):
        args.hidden_sizes = args.hidden_sizes.split(",")
    if args.hidden_sizes is not None:
        args.hidden_sizes = tuple(int(v) for v in args.hidden_sizes)
    overrides = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(cfg)
        if getattr(args, field.name, None) is not None
    }
    cfg = dataclasses.replace(cfg, **overrides)
    report, model, datasets = experiments.run_experiment(
        setting,
        seed=args.seed,
        cfg=cfg,
        sizes=(args.train_size, args.val_size, args.test_size),
    )
    written = experiments.write_artifacts(report, model, datasets, args.outdir)
    doc = report.to_dict()
    doc["artifacts"] = [str(p) for p in written]
    text = report.render_text() + "".join(f"wrote {p}\n" for p in written)
    _emit(args, text, doc)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _preload_config(argv)
        parser = _build_parser(config)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except ContractError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _EXIT_CONTRACT
    except CohexpError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except OSError as exc:
        print(f"error[E_IO]: {exc}", file=sys.stderr)
        return _EXIT_INPUT


def main() -> None:
    sys.exit(run())
