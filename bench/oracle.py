"""Oracles: what counts as the right answer for each op.

``check``, ``repair``, ``explain`` and ``functor-law`` ops are compared
with reference answers recorded from the reference commit (``refs.json``).
Only the answer fields below are compared; fields a later version adds
to the reports are ignored.  ``experiment`` ops must meet the paper's
properties (xor: test accuracy and coherency >= 0.90 and the class-1
formula is exactly XOR; fuzzy-or: coherency drops by >= 0.15 from train
to test and the extended explanation beats the naive one on both
classes).  Byte identity of ``report.json`` with the reference is
counted separately and is not a failure.

An op ends in one of three outcomes:

``ok``
    exit code 0 and an answer the oracle accepts.
``known``
    the op failed (non-zero exit, or an experiment property missed)
    exactly as it did on the reference commit.  It still counts in
    ``failed_ratio``.
``failed``
    anything else: a traceback, an error the reference did not have,
    a wrong answer, or an input that differs from the reference input.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

_ERROR_CODE = re.compile(r"error\[([A-Z_]+)\]")


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def load_refs(path: Path = REFS_PATH) -> dict:
    return json.loads(path.read_text())["ops"]


# ---------------------------------------------------------------------------
# answer fields
# ---------------------------------------------------------------------------


def _check_answer(doc: dict) -> dict:
    return {
        "verdict": doc["verdict"],
        "n_points": doc["n_points"],
        "components": [
            {
                "coherent_fraction": c["coherent_fraction"],
                "witness_points": [w["point"] for w in c["witnesses"]],
            }
            for c in doc["components"]
        ],
    }


def _repair_answer(doc: dict) -> dict:
    return {
        "signature": [doc["expr"]["in_arity"], doc["expr"]["out_arity"]],
        "verification_verdict": doc["verification"]["verdict"],
    }


def _term_sets(outputs: list) -> list:
    return [sorted(sorted(tuple(lit) for lit in term) for term in terms) for terms in outputs]


def _explain_answer(doc: dict) -> dict:
    return {"term_sets": _term_sets(doc["formula"]["outputs"])}


def _law_answer(doc: dict) -> dict:
    return {"verdict": doc["verdict"], "witness": doc["witness"]}


ANSWER_FIELDS = {
    "check": _check_answer,
    "repair": _repair_answer,
    "explain": _explain_answer,
    "functor-law": _law_answer,
}


# ---------------------------------------------------------------------------
# experiment properties
# ---------------------------------------------------------------------------

_XOR_TERMS = sorted([sorted([("x", False), ("y", True)]), sorted([("x", True), ("y", False)])])


def _parse_rendered(text: str) -> list:
    """Term sets of a rendered DNF such as ``(x ∧ ¬y) ∨ (¬x ∧ y)``."""
    terms = []
    for part in text.split(" ∨ "):
        lits = [lit.strip() for lit in part.strip().strip("()").split(" ∧ ")]
        terms.append(sorted((lit.lstrip("¬"), lit.startswith("¬")) for lit in lits))
    return sorted(terms)


def experiment_property(setting: str, report: dict) -> tuple[bool, str]:
    """Whether an experiment report meets its property, and why not."""
    metrics = report["metrics"]
    extraction = report["extraction"]
    if setting == "xor":
        test = metrics["test"]
        class_one = next(s for s in extraction["naive"]["scores"] if s["target_class"] == 1)
        problems = []
        if test["accuracy"] < 0.90:
            problems.append(f"test accuracy {test['accuracy']:.4f} < 0.90")
        if test["coherency"] < 0.90:
            problems.append(f"test coherency {test['coherency']:.4f} < 0.90")
        if _parse_rendered(class_one["formula"]) != _XOR_TERMS:
            problems.append(f"class-1 formula {class_one['formula']!r} is not XOR")
        return not problems, "; ".join(problems)
    drop = metrics["train"]["coherency"] - metrics["test"]["coherency"]
    problems = []
    if drop < 0.15:
        problems.append(f"coherency drop {drop:.4f} < 0.15")
    if extraction["extended"] is None:
        problems.append("no extended explanation")
    else:
        naive = {s["target_class"]: s["fidelity"] for s in extraction["naive"]["scores"]}
        extended = {s["target_class"]: s["fidelity"] for s in extraction["extended"]["scores"]}
        for target in (0, 1):
            if not extended[target] > naive[target]:
                problems.append(
                    f"class {target}: extended fidelity {extended[target]:.4f} "
                    f"<= naive {naive[target]:.4f}"
                )
    return not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# observing and judging one op
# ---------------------------------------------------------------------------


def observe(op, work: Path, exit_code: int | None, stderr: str, traceback_text: str | None) -> dict:
    """Everything the oracle compares, gathered right after the op ran."""
    obs: dict = {
        "exit": exit_code,
        "error": None,
        "traceback": traceback_text,
        "input_sha256": op.input_digest(work),
    }
    match = _ERROR_CODE.search(stderr)
    if match:
        obs["error"] = match.group(1)
    if exit_code != 0 or traceback_text is not None:
        return obs
    if op.kind == "experiment":
        raw = (Path(op.flag("--outdir", work)) / "report.json").read_bytes()
        holds, why = experiment_property(op.flag("--setting", work).replace("-", "_"), json.loads(raw))
        obs.update(property=holds, why=why, report_sha256=hashlib.sha256(raw).hexdigest())
    else:
        answer = ANSWER_FIELDS[op.kind](json.loads(Path(op.flag("--out", work)).read_text()))
        obs.update(answer_sha256=_digest(answer), answer=answer)
    return obs


def reference_record(obs: dict) -> dict:
    """What ``refs.json`` keeps of an observation on the reference commit."""
    rec = {"exit": obs["exit"], "error": obs["error"], "input_sha256": obs["input_sha256"]}
    if obs["traceback"] is not None:
        rec["traceback"] = obs["traceback"].strip().splitlines()[-1]
    for key in ("answer_sha256", "property", "why", "report_sha256"):
        if key in obs:
            rec[key] = obs[key]
    if "answer" in obs:
        ans = obs["answer"]
        rec["summary"] = {k: ans[k] for k in ("verdict", "n_points", "signature",
                                              "verification_verdict") if k in ans}
    return rec


def _known_defect_success(obs: dict) -> tuple[bool, str]:
    """The E_CAPACITY repair, once it succeeds, must return the
    3-input extension of Lukasiewicz OR and verify it coherent."""
    ans = obs["answer"]
    ok = ans["signature"] == [3, 1] and ans["verification_verdict"] == "coherent_on_sample"
    return ok, "" if ok else f"repaired answer {ans} is not a coherent 3 -> 1 extension"


def judge(op, obs: dict, ref: dict | None) -> tuple[str, str]:
    """Outcome (``ok``, ``known`` or ``failed``) and a one-line reason."""
    if obs["traceback"] is not None:
        return "failed", "traceback: " + obs["traceback"].strip().splitlines()[-1]
    if ref is None:
        return "failed", "no reference answer for this op"
    if obs["input_sha256"] != ref["input_sha256"]:
        return "failed", "generated input differs from the reference input"
    if obs["exit"] != 0:
        reason = f"exit {obs['exit']} {obs['error'] or ''}".strip()
        if (obs["exit"], obs["error"]) == (ref["exit"], ref["error"]):
            return "known", reason + " (as on the reference commit)"
        return "failed", reason
    if op.kind == "experiment":
        if obs["property"]:
            return "ok", ""
        if ref.get("property") is False:
            return "known", obs["why"] + " (as on the reference commit)"
        return "failed", obs["why"]
    if ref["exit"] != 0:
        if op.known_defect:
            holds, why = _known_defect_success(obs)
            return ("ok", "") if holds else ("failed", why)
        return "failed", f"reference exited {ref['exit']} {ref['error']}, this run succeeded"
    if obs["answer_sha256"] != ref["answer_sha256"]:
        return "failed", f"answer differs from the reference (reference {ref.get('summary')})"
    return "ok", ""
