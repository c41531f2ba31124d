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
defaults (the seed's is 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Callable

from . import experiments
from .coherence import DEFAULT_WITNESS_CAP, SamplingSpec, check_coherence, default_sampling
from .coherence import incoherent_components
from .core import Projection, to_dict
from .errors import CohexpError, ContractError, ValidationError
from .functor import verify_functor_law
from .gamma import GammaSpec, apply_gamma, demo_noncompositional, explain
from .serialize import dumps, load_expr, load_json, save_json

__all__ = ["run", "main"]

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_CONTRACT = 3


def _widths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        ) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  An option a config file may
    set is left unset by the parse unless it is given on the command
    line; ``settings`` lists the chosen subcommand's such options with
    their built-in defaults, and ``configurable`` names those of every
    subcommand.  Both are shared by every parse and only read."""
    configurable = set()

    def option(p, *flags, default=None, group=None, **kw) -> None:
        action = (group or p).add_argument(*flags, default=argparse.SUPPRESS, **kw)
        p.get_default("settings").append((action, default, group))
        configurable.add(action.dest)

    parser = argparse.ArgumentParser(
        prog="cohexp",
        description="Boolean explanations for fuzzy classifiers via coherence analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, settings=[])
        return p

    def add_common(p: argparse.ArgumentParser) -> None:
        option(p, "--format", choices=("text", "structured"), default="text",
               help="text report or structured JSON document")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the report there instead of stdout")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="JSON file with default option values")

    def add_projection(p: argparse.ArgumentParser) -> None:
        g = p.add_mutually_exclusive_group()
        option(p, "--alpha", type=float, default=0.5, group=g,
               help="threshold projection parameter (default 0.5)")
        option(p, "--quantize", type=int, group=g,
               metavar="LEVELS", help="use a quantizing projection instead")

    def add_sampling(p: argparse.ArgumentParser, scope: str = "") -> None:
        g = p.add_mutually_exclusive_group()
        option(p, "--grid", type=int, group=g,
               metavar="K", help=f"grid sampling with K points per axis{scope}")
        option(p, "--random", type=int, group=g,
               metavar="N", help=f"random sampling with N points{scope}")
        option(p, "--seed", type=int, default=0,
               help=f"seed of a random sample (default 0){scope}")

    p_check = command("check", _cmd_check, "sampled coherence report")
    p_check.add_argument("--expr", required=True, metavar="FILE")
    add_projection(p_check)
    add_sampling(p_check)
    option(p_check, "--witness-limit", type=int, default=DEFAULT_WITNESS_CAP)
    add_common(p_check)

    p_explain = command("explain", _cmd_explain, "extract a DNF explanation")
    p_explain.add_argument("--expr", required=True, metavar="FILE")
    add_projection(p_explain)
    add_sampling(p_explain, "; used only by --gamma extend or output-mod:FILE")
    option(p_explain, "--gamma", default="output-mod",
           metavar="KIND", help="extend | output-mod[:fallback-file]")
    option(p_explain, "--no-simplify", dest="simplify", action="store_false", default=True)
    option(p_explain, "--names", help="comma-separated variable names")
    option(p_explain, "--ascii", action="store_true", default=False,
           help="render with & | ! instead of unicode")
    add_common(p_explain)

    p_repair = command("repair", _cmd_repair, "write the repaired expression")
    p_repair.add_argument("--expr", required=True, metavar="FILE")
    add_projection(p_repair)
    add_sampling(p_repair)
    p_repair.add_argument("--gamma", required=True, metavar="KIND",
                          help="extend | output-mod[:fallback-file]")
    p_repair.add_argument("--out-expr", required=True, metavar="FILE",
                          help="where to write the repaired expression")
    add_common(p_repair)

    p_demo = command("demo-noncomp", _cmd_demo, "show that the repair is not compositional")
    option(p_demo, "--gamma", default="output-mod",
           metavar="KIND", help="extend | output-mod[:fallback-file]")
    p_demo.add_argument("--g-expr", default=None, metavar="FILE",
                        help="use this unary function instead of the built-ins")
    add_common(p_demo)

    p_law = command("functor-law", _cmd_law,
                    "check booleanize(g . f) == booleanize(g) . booleanize(f)")
    p_law.add_argument("--inner", required=True, metavar="FILE", help="f (runs first)")
    p_law.add_argument("--outer", required=True, metavar="FILE", help="g")
    add_projection(p_law)
    add_common(p_law)

    p_exp = command("experiment", _cmd_experiment, "run a built-in experiment")
    option(p_exp, "--setting", choices=("xor", "fuzzy-or", "fuzzy_or"))
    p_exp.add_argument("--outdir", required=True, metavar="DIR")
    option(p_exp, "--epochs", type=int)
    option(p_exp, "--learning-rate", type=float)
    option(p_exp, "--coherence-lambda", type=float)
    option(p_exp, "--batch-size", type=int)
    option(p_exp, "--weight-decay", type=float)
    option(p_exp, "--hidden-sizes", type=_widths, help="comma-separated layer widths")
    option(p_exp, "--early-stopping-patience", type=int)
    option(p_exp, "--train-size", type=int, default=1000)
    option(p_exp, "--val-size", type=int, default=250)
    option(p_exp, "--test-size", type=int, default=1000)
    add_common(p_exp)
    option(p_exp, "--seed", type=int, default=0,
           help="seed of the datasets, the initialisation and the batch order (default 0)")
    parser.set_defaults(configurable=configurable)
    return parser


def _settle(args) -> None:
    """Give each option the command line left unset its ``--config``
    value, converted and checked as the flag's text would be, else its
    built-in default.  A flag on the command line also overrides the
    config values of the other options in its mutually exclusive group;
    without such a flag, the config may set at most one option of the
    group."""
    config = load_json(args.config) if args.config else {}
    unknown = set(config) - args.configurable
    if unknown:
        raise ValidationError(f"config file sets unknown options: {sorted(unknown)}")
    flagged = {g for action, _, g in args.settings if g is not None and hasattr(args, action.dest)}
    chosen: dict = {}
    for action, _, group in args.settings:
        if group is not None and group not in flagged and action.dest in config:
            chosen.setdefault(group, []).append(action.dest)
    for keys in chosen.values():
        if len(keys) > 1:
            raise ValidationError(f"config file sets mutually exclusive options: {keys}")
    for action, default, group in args.settings:
        if hasattr(args, action.dest):
            continue
        key, value = action.dest, config.get(action.dest)
        if key not in config or group in flagged:
            value = default
        elif action.nargs == 0:  # an on/off flag
            if not isinstance(value, bool):
                raise ValidationError(f"config key {key!r} takes true or false, got {value!r}")
        else:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValidationError(f"config key {key!r} takes a string or number, got {value!r}")
            try:
                value = (action.type or str)(str(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValidationError(f"config key {key!r}: invalid value {value!r}") from exc
            if action.choices is not None and value not in action.choices:
                raise ValidationError(f"config key {key!r} must be one of {list(action.choices)}")
        setattr(args, key, value)


# ---------------------------------------------------------------------------
# shared argument interpretation
# ---------------------------------------------------------------------------


def _projection_from(args) -> Projection:
    if args.quantize is not None:
        return Projection.quantize(args.quantize)
    return Projection.threshold(args.alpha)


def _sampling_from(args, arity: int) -> SamplingSpec:
    if args.grid is not None:
        return SamplingSpec.grid(args.grid)
    if args.random is not None:
        return SamplingSpec.random(args.random, seed=args.seed)
    return default_sampling(arity, seed=args.seed)


def _gamma_from(args, projection: Projection, sampling: SamplingSpec | None) -> GammaSpec:
    head, colon, path = args.gamma.partition(":")
    kind = head.replace("-", "_")
    if kind == "output_mod" or (kind == "extend" and not colon):
        fallback = load_expr(path) if colon else None
        return GammaSpec(kind, projection, sampling=sampling, fallback=fallback)
    raise ValidationError(
        f"unknown gamma {args.gamma!r}; expected extend or output-mod[:fallback-file]"
    )


def _emit(args, text: str, document: Callable[[], dict]) -> None:
    """Write ``text``, or with ``--format structured`` the document that
    ``document()`` builds: a text report builds none."""
    payload = text if args.format == "text" else dumps(document())
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
    _emit(args, "\n".join(lines) + "\n", report.to_dict)
    return _EXIT_OK


def _cmd_explain(args) -> int:
    expr = load_expr(args.expr)
    projection = _projection_from(args)
    sampling = _sampling_from(args, expr.in_arity)
    gamma = _gamma_from(args, projection, sampling)
    names = args.names.split(",") if args.names else None
    formula = explain(expr, gamma, simplify=args.simplify, var_names=names)
    rendered = formula.render_all(ascii_ops=args.ascii)
    text = "".join(
        f"output {o}: {line}\n" for o, line in enumerate(rendered)
    )
    _emit(args, text, lambda: {"gamma": gamma.to_dict(), "formula": formula.to_dict()})
    return _EXIT_OK


def _cmd_repair(args) -> int:
    expr = load_expr(args.expr)
    projection = _projection_from(args)
    sampling = _sampling_from(args, expr.in_arity)
    gamma = _gamma_from(args, projection, sampling)
    repaired = apply_gamma(expr, gamma)
    verification = check_coherence(repaired, projection, sampling)
    repaired_doc = to_dict(repaired)
    save_json(repaired_doc, args.out_expr)
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
    _emit(args, text, lambda: {
        "gamma": gamma.to_dict(),
        "already_coherent": not changed,
        "expr": repaired_doc,
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
    _emit(args, "\n".join(lines) + "\n", demo.to_dict)
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
    _emit(args, text, report.to_dict)
    return _EXIT_OK


def _cmd_experiment(args) -> int:
    if args.setting is None:
        raise ValidationError("experiment needs --setting, or a 'setting' in the config file")
    setting = experiments.canonical_setting(args.setting)
    cfg = experiments.default_train_config(setting, seed=args.seed)
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
    text = report.render_text() + "".join(f"wrote {p}\n" for p in written)
    _emit(args, text, lambda: {**report.to_dict(), "artifacts": [str(p) for p in written]})
    return _EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        _settle(args)
        return args.func(args)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except CohexpError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _EXIT_CONTRACT if isinstance(exc, ContractError) else _EXIT_INPUT
    except OSError as exc:
        print(f"error[E_IO]: {exc}", file=sys.stderr)
        return _EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
