"""Running ops and passes in-process, and judging them.

Import this only after ``envinfo.prepare()`` has capped the thread
pools and put ``src`` on ``sys.path``.
"""

from __future__ import annotations

import io
import os
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from cohexp import cli

import oracle
from envinfo import ROOT
from workloads import Op, Pass, build_pass

OUT = ROOT / "bench" / "out"


@dataclass
class OpResult:
    op: Op
    pass_index: int
    latency_s: float
    exit: int | None
    stderr: str
    traceback: str | None
    obs: dict = field(default_factory=dict)
    outcome: str = ""
    reason: str = ""


def work_dir(tag: str) -> Path:
    path = OUT / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_work(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def run_op(op: Op, work: Path, pass_index: int = 0) -> OpResult:
    """Run one op through ``cohexp.cli.run`` and time it.

    An exception escaping ``cli.run`` is a traceback the CLI should
    have turned into a coded error: it is recorded, not raised.
    """
    argv = op.resolved_argv(work)
    err = io.StringIO()
    tb = None
    start = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # noqa: BLE001  (the op fails; the run goes on)
        code = None
        tb = traceback.format_exc()
    latency = time.perf_counter() - start
    return OpResult(op, pass_index, latency, code, err.getvalue(), tb)


def set_up(workload: str, seed: int, work: Path, n_passes: int) -> list[Pass]:
    """Generate the documents of every pass and run the warm-up op."""
    plans = [build_pass(workload, seed=seed, pass_index=i) for i in range(n_passes)]
    for plan in plans:
        plan.write_documents(work)
    run_op(plans[0].warmup, work)
    return plans


def run_pass(plan: Pass, work: Path, pass_index: int, tracer=None) -> tuple[float, list[OpResult]]:
    """Run every op of the pass in order (a closed loop: the next op
    starts when the previous one returned), then observe the answers.
    Returns the pass wall time, which excludes the observation."""
    results = []
    start = time.perf_counter()
    for op in plan.ops:
        if tracer is not None:
            tracer.op = f"{pass_index}:{op.name}"
        results.append(run_op(op, work, pass_index))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    for res in results:
        try:
            res.obs = oracle.observe(res.op, work, res.exit, res.stderr, res.traceback)
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            res.obs = {"unreadable": f"{type(exc).__name__}: {exc}"}
    return wall, results


def judge(results: list[OpResult], refs: dict) -> None:
    for res in results:
        if "unreadable" in res.obs:
            res.outcome, res.reason = "failed", "unreadable answer: " + res.obs["unreadable"]
        else:
            res.outcome, res.reason = oracle.judge(res.op, res.obs, refs.get(res.op.ref_key))
