"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--first-seed 0] [--workloads dist-bushy,...]
                                [--out perfbench/out/spread.json]

Runs ``run.py --trace 0`` once per workload and seed, one after another, for
the ``run_seconds`` of BENCHMARK.json.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, beside the bound
that BENCHMARK.json fixes.  A spread is steady below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(HERE / "out" / "spread.json"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            env = json.loads(lines[-2].removeprefix("environment: "))
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[metric] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound}
            unsteady = metric != "setup_s" and spread >= bound / 3
            steady = steady and not unsteady
            print(f"  {metric:<16} median {statistics.median(values):<12.5g} spread {spread:7.2%}"
                  f"  bound {bound:.0%}{'  NOT STEADY' if unsteady else ''}", flush=True)
        env = {k: v for k, v in env.items() if k != "seed"}
        report["workloads"][name] = {"environment": env, "summary": summary, "runs": runs}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
