"""Workload definitions: input documents and the fixed op list of one pass.

Every op is one ``cohexp`` CLI command, run in-process through
``cohexp.cli.run``.  A workload's pass is a fixed list of ops built from
*slots*.  Each slot has a pool of ``POOL_SIZE`` candidate inputs,
generated from fixed item seeds; the workload seed picks a different
candidate per slot for each pass of a run.  Every candidate therefore
has a reference answer recorded in ``refs.json``, whatever workload
seed a run is given.

Input documents are written by this module in the JSON interchange
schema (README), with weights drawn by numpy here rather than by the
package, so that a change inside ``src/`` cannot silently change the
inputs: ``refs.json`` also stores a digest of every generated input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("check-grid", "check-fine", "train", "extract")

POOL_SIZE = 8

# Passes a run makes at ``--seconds 15``; other values scale it (at
# least one pass).  The count is fixed before timing starts, so every run
# of a workload with the same ``--seconds`` does the same work whatever
# the machine's speed.  NOTES.md lists the pass times on its machine.
PASSES_AT_15S = {"check-grid": 2, "check-fine": 2, "train": 2, "extract": 3}

_WORKLOAD_CODE = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Items whose explain op did not finish: the minimiser's Petrick search
# on their truth tables ran for minutes on the reference commit (see
# NOTES.md), longer than a whole run may take.  Filling the pools skips
# them; they stay listed here as reproducible inputs for minimiser work.
SLOW_ITEMS = frozenset({("extract", "mlp10-rows500", 7), ("extract", "mlp11-rows1700", 7)})

# train: experiment seeds, consecutive from 0.
_XOR_SEEDS = (0, 1, 2)
_FUZZY_OR_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class Op:
    """One CLI command and what its oracle needs to know.

    ``argv`` may mention ``{work}``, replaced by the run's work
    directory.  ``inputs`` names the generated documents the op reads;
    their bytes and ``argv`` make up the input digest that is compared
    with the reference.  ``known_defect`` describes a failure the
    reference commit is known to produce.
    """

    name: str
    kind: str  # check | repair | explain | functor-law | experiment
    ref_key: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    known_defect: str | None = None

    def resolved_argv(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]

    def flag(self, name: str, work: Path) -> str:
        """The value the op passes for ``--name``."""
        return self.resolved_argv(work)[self.argv.index(name) + 1]

    def input_digest(self, work: Path) -> str:
        h = hashlib.sha256("\0".join(self.argv).encode())
        for name in self.inputs:
            h.update(b"\0" + (work / name).read_bytes())
        return h.hexdigest()


@dataclass
class Pass:
    """The documents to generate and the ops to run, in order."""

    documents: dict[str, dict] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    # A small op run once during set-up, untimed and unchecked.
    warmup: Op | None = None

    def write_documents(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        for name, doc in self.documents.items():
            (work / name).write_text(json.dumps(doc, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------


def _item_index(workload: str, slot: str, pool_index: int) -> int:
    """The item seed behind a pool index, skipping ``SLOW_ITEMS``."""
    items = (i for i in range(POOL_SIZE + len(SLOW_ITEMS)) if (workload, slot, i) not in SLOW_ITEMS)
    return next(i for k, i in enumerate(items) if k == pool_index)


def _item_rng(workload: str, slot: str, index: int) -> np.random.Generator:
    slot_code = int.from_bytes(hashlib.sha256(slot.encode()).digest()[:4], "big")
    return np.random.default_rng([_WORKLOAD_CODE[workload], slot_code, index])


def mlp_doc(rng: np.random.Generator, n_in: int, n_out: int, hidden=(16, 16)) -> dict:
    """A PReLU/sigmoid MLP with Glorot-uniform weights and small biases."""
    sizes = [n_in, *hidden, n_out]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        lim = float(np.sqrt(6.0 / (fan_in + fan_out)))
        layer = {
            "weights": rng.uniform(-lim, lim, size=(fan_out, fan_in)).tolist(),
            "bias": rng.uniform(-0.1, 0.1, size=fan_out).tolist(),
        }
        if i < len(sizes) - 2:
            layer.update(activation="prelu", slope=0.25)
        else:
            layer["activation"] = "sigmoid"
        layers.append(layer)
    return {"node": "mlp", "in_arity": n_in, "out_arity": n_out, "model": {"layers": layers}}


def _shift_output_bias(doc: dict, shift) -> dict:
    last = doc["model"]["layers"][-1]
    last["bias"] = [float(b - s) for b, s in zip(last["bias"], np.broadcast_to(shift, len(last["bias"])))]
    return doc


def incoherent_mlp(rng: np.random.Generator, n_in: int, n_out: int) -> dict:
    """An MLP whose 0.5 decision boundary passes through the middle of
    the fiber of the origin, so that every candidate is incoherent under
    the 0.5 threshold and takes the same repair path."""
    doc = mlp_doc(rng, n_in, n_out)
    return _shift_output_bias(doc, _mlp_logits(doc, np.full((1, n_in), 0.25))[0])


def _mlp_logits(doc: dict, xs: np.ndarray) -> np.ndarray:
    layers = doc["model"]["layers"]
    a = xs
    for layer in layers[:-1]:
        z = a @ np.asarray(layer["weights"]).T + np.asarray(layer["bias"])
        a = np.where(z > 0, z, layer["slope"] * z)
    return a @ np.asarray(layers[-1]["weights"]).T + np.asarray(layers[-1]["bias"])


def _vertices(n: int) -> np.ndarray:
    codes = np.arange(2**n)
    return np.stack([(codes >> (n - 1 - i)) & 1 for i in range(n)], axis=1).astype(float)


def mlp_with_true_rows(rng: np.random.Generator, n_in: int, true_rows: int) -> dict:
    """A single-output MLP whose 0.5-threshold truth table has about
    ``true_rows`` true vertices, by shifting the output bias.  The
    minimiser's cost grows with that count, so fixing it keeps the
    cost of an explain op steady across pool candidates."""
    doc = mlp_doc(rng, n_in, 1)
    logits = np.sort(_mlp_logits(doc, _vertices(n_in))[:, 0])[::-1]
    return _shift_output_bias(doc, 0.5 * (logits[true_rows - 1] + logits[true_rows]))


def _norm(rng: np.random.Generator, node: str) -> dict:
    # min and max commute with every projection, so compositions of them
    # are coherent and would skip the repair work the other kinds need.
    kinds = {"tnorm": ("product", "lukasiewicz"), "tconorm": ("prob_sum", "lukasiewicz")}
    return {"node": node, "kind": str(rng.choice(kinds[node]))}


def _other(node: str) -> str:
    return "tconorm" if node == "tnorm" else "tnorm"


def norms2_doc(rng: np.random.Generator) -> dict:
    """``outer(inner1(x, y), inner2(y, x))``: a 2-input composition of norms."""
    outer = str(rng.choice(("tnorm", "tconorm")))
    pair = {
        "node": "parallel",
        "parts": [_norm(rng, _other(outer)), _norm(rng, str(rng.choice(("tnorm", "tconorm"))))],
    }
    dup = {"node": "coord", "in_arity": 2, "indices": [0, 1, 1, 0]}
    inner = {"node": "compose", "outer": pair, "inner": dup}
    return {"node": "compose", "outer": _norm(rng, outer), "inner": inner}


def norms4_doc(rng: np.random.Generator) -> dict:
    """``outer(inner1(x1, x2), inner2(x3, x4))``."""
    outer = str(rng.choice(("tnorm", "tconorm")))
    parts = [_norm(rng, _other(outer)), _norm(rng, _other(outer))]
    return {"node": "compose", "outer": _norm(rng, outer), "inner": {"node": "parallel", "parts": parts}}


def norms_chain4_doc(rng: np.random.Generator) -> dict:
    """``outer(mid(inner(x1, x2), x3), x4)``."""
    outer = str(rng.choice(("tnorm", "tconorm")))
    ident = {"node": "coord", "in_arity": 1, "indices": [0]}
    inner = {"node": "parallel", "parts": [_norm(rng, outer), ident]}
    mid = {"node": "compose", "outer": _norm(rng, _other(outer)), "inner": inner}
    return {"node": "compose", "outer": _norm(rng, outer), "inner": {"node": "parallel", "parts": [mid, ident]}}


def piecewise_doc(rng: np.random.Generator) -> dict:
    """Three axis-aligned regions with norm, conorm and affine branches."""
    cut0, cut1 = (float(v) for v in rng.uniform(0.2, 0.8, size=2))
    affine = {
        "node": "affine",
        "matrix": [rng.uniform(-1.0, 1.0, size=2).tolist()],
        "bias": [float(rng.uniform(0.2, 0.8))],
        "clamp": True,
    }
    return {
        "node": "piecewise",
        "regions": [
            {"conditions": [{"index": 0, "op": "le", "value": cut0}], "expr": _norm(rng, "tnorm")},
            {"conditions": [{"index": 1, "op": "gt", "value": cut1}], "expr": _norm(rng, "tconorm")},
        ],
        "default": affine,
    }


LUK_OR = {"node": "tconorm", "kind": "lukasiewicz"}
LUK_AND = {"node": "tnorm", "kind": "lukasiewicz"}


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------


class _Builder:
    """Collects documents and ops for one pass of one workload."""

    def __init__(self, workload: str, seed: int | None, pass_index: int, pool_index: int | None):
        self.workload = workload
        self.seed = seed
        self.pass_index = pass_index
        self.pool_index = pool_index
        self.result = Pass()

    def rng(self, code: int) -> np.random.Generator:
        return np.random.default_rng([int(self.seed), code])

    def pick(self, slot: str) -> int:
        """Pool index for ``slot``: ``pool_index`` when given, otherwise
        entry ``pass_index`` of a permutation of the pool drawn from the
        workload seed, so the passes of a run meet different candidates."""
        if self.pool_index is not None:
            return self.pool_index
        slot_code = int.from_bytes(hashlib.sha256(slot.encode()).digest()[:4], "big")
        return int(self.rng(slot_code).permutation(POOL_SIZE)[self.pass_index % POOL_SIZE])

    def document(self, slot: str, make, index: int | None = None) -> tuple[str, int]:
        """Generate the pool document of ``slot`` at ``index``, or at the
        index the seed picks; returns its file name and item index."""
        item = _item_index(self.workload, slot, self.pick(slot) if index is None else index)
        name = f"{slot}-{item}.json"
        self.result.documents[name] = make(_item_rng(self.workload, slot, item))
        return name, item

    def fixed(self, name: str, doc: dict) -> str:
        self.result.documents[name] = doc
        return name

    def op(self, name, kind, argv, inputs=(), index=None, **extra) -> None:
        """Add an op; its reference is keyed by name and item index."""
        key = name if index is None else f"{name}#{index}"
        self.result.ops.append(Op(
            name=f"{self.workload}/{name}",
            kind=kind,
            ref_key=f"{self.workload}/{key}",
            argv=tuple(argv) + ("--format", "structured", "--out", "{work}/" + name + ".out.json"),
            inputs=tuple(inputs),
            **extra,
        ))

    def warmup(self, kind, argv) -> None:
        self.result.warmup = Op(
            name=f"{self.workload}/warmup", kind=kind, ref_key="", argv=tuple(argv)
            + ("--format", "structured", "--out", "{work}/warmup.out.json"),
        )


def _check_grid(b: _Builder, tiny: bool) -> None:
    big, mid, small, repair_k = (48, 32, 16, 16) if tiny else (2048, 1024, 512, 256)
    mlp = lambda rng: incoherent_mlp(rng, 2, 1)  # noqa: E731
    lor = b.fixed("luk-or.json", LUK_OR)
    land = b.fixed("luk-and.json", LUK_AND)

    def check(name, doc, index, k):
        b.op(name, "check", ["check", "--expr", "{work}/" + doc, "--grid", str(k)], [doc], index)

    doc, i = b.document("mlp-a", mlp)
    b.warmup("check", ["check", "--expr", "{work}/" + doc, "--grid", str(big // 8)])
    check(f"check-mlp-grid{big}", doc, i, big)
    check(f"check-luk-or-grid{big}", lor, 0, big)
    for slot in ("mlp-b", "mlp-c", "mlp-f"):
        doc, i = b.document(slot, mlp)
        check(f"check-{slot}-grid{mid}", doc, i, mid)
    check(f"check-luk-and-grid{mid}", land, 0, mid)
    doc, i = b.document("piecewise", piecewise_doc)
    check(f"check-piecewise-grid{mid}", doc, i, mid)
    doc, i = b.document("norms2", norms2_doc)
    check(f"check-compose-grid{mid}", doc, i, mid)

    doc, i = b.document("mlp-d", mlp)
    name = f"repair-output-mod-grid{small}"
    b.op(name, "repair",
         ["repair", "--expr", "{work}/" + doc, "--gamma", "output-mod", "--grid", str(small),
          "--out-expr", "{work}/repaired-output-mod.json"], [doc], i)
    b.op(f"check-repaired-grid{mid}", "check",
         ["check", "--expr", "{work}/repaired-output-mod.json", "--grid", str(mid)], index=i)

    doc, i = b.document("mlp-e", mlp)
    extend = ["repair", "--expr", "{work}/" + doc, "--gamma", "extend",
              "--out-expr", "{work}/repaired-extend.json"]
    if tiny:
        extend += ["--grid", "12"]
    b.op("repair-extend-default", "repair", extend, [doc], i)
    explain = ["explain", "--expr", "{work}/" + doc, "--seed", "0"]
    if tiny:
        explain += ["--grid", "12"]
    b.op("explain-mlp", "explain", explain, [doc], i)

    # Known defect, kept visible on purpose: the repair succeeds and writes
    # its output, but verification re-samples the grid over the 3-input
    # repaired expression, and K**3 exceeds the 4 194 304-point cap for
    # any K >= 162.  (The tiny self-test size stays below the cap.)
    name = f"repair-extend-grid{repair_k}-luk-or"
    b.op(name, "repair",
         ["repair", "--expr", "{work}/" + lor, "--gamma", "extend", "--grid", str(repair_k),
          "--out-expr", "{work}/repaired-luk-or.json"], [lor], 0,
         known_defect="E_CAPACITY: verification grid exceeds the 4194304-point cap")


def _check_fine(b: _Builder, tiny: bool) -> None:
    n_check, n_repair = (4000, 2000) if tiny else (500_000, 200_000)
    # Every expression has 4 inputs, so even at 32 levels there are more
    # fibers (32**4 = 1 048 576) than check points: this is the sparse
    # regime.  Three inputs would give at most 64**3 = 262 144 fibers,
    # fewer than the check points.  NOTES.md lists the ratio per op.
    groups = (
        ("mlp4x1", 32, lambda rng: incoherent_mlp(rng, 4, 1)),
        ("mlp4", 64, lambda rng: incoherent_mlp(rng, 4, 2)),
        ("norms4", 64, norms4_doc),
        ("chain4", 32, norms_chain4_doc),
    )
    for slot, levels, make in groups:
        doc, i = b.document(slot, make)
        q = ["--quantize", str(levels)]
        seed = ["--seed", str(1000 + i)]
        ext = f"{slot}-extended.json"
        b.op(f"check-{slot}-q{levels}", "check",
             ["check", "--expr", "{work}/" + doc, *q, "--random", str(n_check), *seed], [doc], i)
        b.op(f"repair-extend-{slot}-q{levels}", "repair",
             ["repair", "--expr", "{work}/" + doc, *q, "--gamma", "extend",
              "--random", str(n_repair), *seed, "--out-expr", "{work}/" + ext], [doc], i)
        b.op(f"check-extended-{slot}-q{levels}", "check",
             ["check", "--expr", "{work}/" + ext, *q, "--random", str(n_check), *seed], index=i)
    # A full-size check of the cheap last expression: the first large
    # allocations of a process are slower than later ones.
    b.warmup("check", ["check", "--expr", "{work}/" + doc, *q, "--random", str(n_check), *seed])


def _train(b: _Builder, tiny: bool) -> None:
    sizes = ["--train-size", "64", "--val-size", "32", "--test-size", "64", "--epochs", "3"] if tiny else []
    entries = [("xor", s) for s in _XOR_SEEDS] + [("fuzzy-or", s) for s in _FUZZY_OR_SEEDS]
    if tiny:
        entries = [("xor", 0), ("fuzzy-or", 0)]
    b.warmup("experiment", ["experiment", "--setting", "xor", "--seed", "0", "--outdir", "{work}/warmup",
                            "--train-size", "64", "--val-size", "32", "--test-size", "64", "--epochs", "2"])
    if b.pool_index is None:
        order = b.rng(b.pass_index).permutation(len(entries))
        entries = [entries[j] for j in order]
    for setting, seed in entries:
        name = f"experiment-{setting}-seed{seed}"
        b.op(name, "experiment",
             ["experiment", "--setting", setting, "--seed", str(seed),
              "--outdir", "{work}/" + name, *sizes])


def _extract(b: _Builder, tiny: bool) -> None:
    explains = ((4, 5), (5, 9), (6, 20)) if tiny else (
        (8, 120), (9, 300), (10, 500), (10, 900), (11, 800), (11, 1700)
    )
    for n, rows in explains:
        slot = f"mlp{n}-rows{rows}"
        doc, i = b.document(slot, lambda rng, n=n, rows=rows: mlp_with_true_rows(rng, n, rows))
        argv = ["explain", "--expr", "{work}/" + doc, "--seed", str(2000 + i)]
        if b.result.warmup is None:
            b.warmup("explain", argv + ["--random", "2000"])
        if tiny:
            argv += ["--random", "2000"]
        b.op(f"explain-{slot}", "explain", argv, [doc], i)
    laws = ((6, 2),) if tiny else ((12, 4), (14, 3), (16, 2))
    for n, m in laws:
        slot = f"law{n}x{m}"
        i = b.pick(slot)
        inner, _ = b.document(f"{slot}-inner", lambda rng, n=n, m=m: mlp_doc(rng, n, m), i)
        outer, _ = b.document(f"{slot}-outer", lambda rng, m=m: mlp_doc(rng, m, 1), i)
        b.op(f"functor-law-{slot}", "functor-law",
             ["functor-law", "--inner", "{work}/" + inner, "--outer", "{work}/" + outer],
             [inner, outer], i)


_BUILDERS = {"check-grid": _check_grid, "check-fine": _check_fine, "train": _train, "extract": _extract}


def build_pass(workload: str, seed: int | None = None, pass_index: int = 0,
               pool_index: int | None = None, tiny: bool = False) -> Pass:
    """The documents and ops of pass ``pass_index`` of a run.

    With ``pool_index`` every slot takes that pool candidate, which is
    how ``refs.json`` covers the whole pool; otherwise the workload
    ``seed`` picks them.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    builder = _Builder(workload, seed, pass_index, pool_index)
    _BUILDERS[workload](builder, tiny)
    return builder.result
