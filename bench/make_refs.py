"""Regenerate ``bench/refs.json``, the oracle's reference answers.

Run from the repository root, on the reference commit only::

    python3 bench/make_refs.py

It runs every op of every workload on every pool candidate once
(about four minutes on the machine in NOTES.md) and records, per op,
the exit code and error code, a digest of the generated input, and a
digest of the answer fields (``oracle.ANSWER_FIELDS``) or, for
experiments, whether the property held and the ``report.json`` digest.
Answers recorded here are what later commits are checked against, so
regenerating them on a changed package would hide its regressions: the
script refuses to write when the sources in ``src/cohexp`` differ from
the ones the current ``refs.json`` was recorded on (its
``source_sha256``).  ``--new-source`` overrides that, for a deliberate
change of the reference commit.
"""

from __future__ import annotations

import argparse
import json
import sys

import envinfo

envinfo.prepare()

import harness  # noqa: E402
import oracle  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, build_pass  # noqa: E402


def check_source(new_source: bool) -> None:
    """Refuse to record answers of a package other than the one the
    current references come from."""
    if new_source or not oracle.REFS_PATH.exists():
        return
    recorded = json.loads(oracle.REFS_PATH.read_text()).get("source_sha256")
    current = envinfo.source_sha256()
    if recorded != current:
        raise SystemExit(
            f"src/cohexp (sha256 {current[:12]}) is not the package refs.json was recorded on "
            f"(sha256 {str(recorded)[:12]}); regenerate on the reference commit, or pass "
            "--new-source to change the reference deliberately"
        )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--new-source", action="store_true",
                   help="record answers even though src/cohexp differs from the recorded package")
    check_source(p.parse_args(argv).new_source)
    refs: dict[str, dict] = {}
    work = harness.work_dir("refs")
    try:
        for workload in WORKLOADS:
            for index in range(POOL_SIZE):
                plan = build_pass(workload, pool_index=index)
                if all(op.ref_key in refs for op in plan.ops):
                    continue
                plan.write_documents(work)
                _wall, results = harness.run_pass(plan, work, 0)
                for res in results:
                    rec = oracle.reference_record(res.obs)
                    old = refs.setdefault(res.op.ref_key, rec)
                    if old != rec:
                        raise SystemExit(f"{res.op.ref_key} is not deterministic: {old} != {rec}")
                    print(f"{res.op.ref_key}: exit {rec['exit']} {rec.get('summary', '')}"
                          f"{rec.get('why', '')} {res.latency_s:.3f}s", flush=True)
    finally:
        harness.remove_work(work)
    env = envinfo.environment(0)
    doc = {
        "regenerate_with": "python3 bench/make_refs.py",
        "git_commit": env["git_commit"],
        "source_sha256": env["source_sha256"],
        "pool_size": POOL_SIZE,
        "ops": dict(sorted(refs.items())),
    }
    oracle.REFS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} reference answers to {oracle.REFS_PATH.relative_to(envinfo.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
