"""Proof that the benchmark's output checks work.

    python3 perfbench/selftest.py

For each workload, the unlisted oracle-xcheck too, it runs one real request from the seed-0 pool,
confirms that the output passes, corrupts the output and confirms that the
benchmark counts the request as failed.  It also runs one oracle request
under a budget too small to meet.  Exits 1 if any failure goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def _plan_mass(out: dict) -> dict:
    path = Path(out["files"][0])
    data = json.loads(path.read_text())
    data["pairs"][0]["mass"] *= 1.5
    path.write_text(json.dumps(data))
    return out


def _flow_label(out: dict) -> dict:
    path = Path(out["files"][0])
    data = json.loads(path.read_text())
    per = data["labels"][max(data["labels"], key=int)]
    per["4"] = [v + 0.25 for v in per["4"]]
    path.write_text(json.dumps(data))
    return out


def _oracle_value(out: dict) -> dict:
    lp_value, value = out["values"]
    return {"values": (lp_value * (1.0 + 1e-6), value)}


def _verdict(out: dict) -> dict:
    return {**out, "stdout": ["not equivalent\n"]}


def main() -> int:
    run._import_program()
    import workloads

    cases = (   # workload, pool index, corruption
        ("dist-bushy", 0, _plan_mass),
        ("flow-chain", workloads.FLOW_CYCLE.index("geo-3x4"), _flow_label),
        ("oracle-xcheck", 0, _oracle_value),
        ("canon-equiv", 1, _verdict),
    )
    work = run.HERE / "out" / "selftest"
    missed = 0
    try:
        for name, index, corrupt in cases:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = workloads.build(name, run.DEFAULT_SEED, work, run.references_for(name, run.DEFAULT_SEED))
            req = wl.pool[index]
            _, out, error = run.attempt(None, req, "clean", wl.budget_s)
            reason = run.judge(req, out, error)
            if reason is not None:
                print(f"{name}: the clean {req.kind} output failed: {reason}")
                missed += 1
                continue
            reason = run.judge(req, corrupt(out), None)
            print(f"{name}: corrupted {req.kind} output "
                  + (f"counted as failed: {reason}" if reason else "NOT counted as failed"))
            missed += reason is None
            if name == "oracle-xcheck":
                reason = run.judge(req, *run.attempt(None, req, "budget", 1e-3)[1:])
                print(f"{name}: {req.kind} over a 1 ms budget "
                      + (f"counted as failed: {reason}" if reason else "NOT counted as failed"))
                missed += reason is None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
