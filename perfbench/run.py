"""adawass benchmark: one workload, closed loop, one single-threaded client.

    python3 perfbench/run.py --workload dist-bushy --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Generates the workload's inputs from the seed, runs its requests one after
another for the given time, then checks every output.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# the benchmark pins BLAS to one thread before numpy is imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

T_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LISTED = ("dist-bushy", "flow-chain", "canon-equiv")
UNLISTED = ("oracle-xcheck",)   # fails by design: the oracle's known defect
SETUP_REPEATS = 5
DEFAULT_SEED = 0
TAIL_BEYOND = 10


def _import_program():
    """Import adawass from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import adawass
    except ImportError as exc:
        sys.exit(f"error: cannot import adawass from {ROOT / 'src'}: {exc}")
    if Path(adawass.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"error: adawass was imported from {adawass.__file__}, not from {ROOT / 'src'}")


class OverBudget(Exception):
    """A request ran past its time budget."""


def _alarm(signum, frame):
    raise OverBudget("request ran past its time budget")


def attempt(tracer, req, tag: str, budget_s: float | None):
    """Run one request; returns (latency, output or None, error or None)."""
    name = "cli.request" if req.cli else "oracle.request"
    if budget_s is not None:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = perf_counter()
    try:
        out = tracer.span(name, req.call, tag) if tracer else req.call(tag)
        error = None
    except (Exception, SystemExit) as exc:   # a failed request is counted, never raised
        out, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        latency = perf_counter() - start
        if budget_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    return latency, out, error


def judge(req, out, error):
    """Why a finished request counts as failed, or None when it succeeded."""
    if error is not None:
        return error
    try:
        req.check(out)
    except Exception as exc:                 # a wrong or unreadable output is a failed request
        return f"{type(exc).__name__}: {exc}"
    return None


def output_bytes(out) -> int:
    if out is None or "stdout" not in out:
        return 0
    return (sum(len(s.encode()) for s in out["stdout"])
            + sum(os.path.getsize(f) for f in out["files"] if os.path.exists(f)))


def environment(args, budget_s) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "budget_s": budget_s,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def setup(name: str, seed: int, work: Path, references):
    """Generate and write the inputs, then warm up on a miniature of the workload."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    import workloads
    wl = workloads.build(name, seed, work, references)
    (work / "warmup").mkdir()
    warm = workloads.build_warmup(name, work / "warmup")
    for i, req in enumerate(warm.pool):
        reason = judge(req, *attempt(None, req, f"warm{i}", warm.budget_s)[1:])
        if reason is not None:
            raise RuntimeError(f"warm-up request {req.kind} failed: {reason}")
    return wl


def references_for(name: str, seed: int) -> list[float] | None:
    """Pinned values for the default seed, where the workload has them."""
    pinned = json.loads((HERE / "reference.json").read_text())
    entry = pinned.get(name)
    return entry["values"] if entry and entry["seed"] == seed else None


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and its rank."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def by_kind(results) -> dict:
    """Request count and median latency per request kind."""
    groups: dict[str, list[float]] = {}
    for req, _, latency, _, _ in results:
        groups.setdefault(req.kind, []).append(latency)
    return {k: {"count": len(v), "median_s": statistics.median(v)} for k, v in sorted(groups.items())}


def timed_loop(wl, seconds: float):
    """Whole cycles of requests until ``seconds`` have passed, so that every
    run has the same mix; returns the results and the timed wall time."""
    results = []           # (request, tag, latency, output, error)
    start = perf_counter()
    while len(results) % wl.cycle or perf_counter() - start < seconds:
        i = len(results)
        req = wl.pool[i % len(wl.pool)]
        results.append((req, str(i), *attempt(None, req, str(i), wl.budget_s)))
    return results, perf_counter() - start


def traced_loop(wl, seconds: float, tracer):
    """One untraced warm pass over a cycle, then alternate an untraced and a
    traced pass until ``seconds`` have passed; returns the results, the
    number of traced passes, the untraced and traced request seconds of the
    alternating passes, and the output bytes of the traced ones."""
    results = []
    passes = 0
    spent = {None: 0.0, False: 0.0, True: 0.0}
    traced_bytes = 0

    def run_pass(traced):
        nonlocal traced_bytes
        if traced:
            tracer.install()
        try:
            for j, req in enumerate(wl.pool[:wl.cycle]):
                tag = f"{passes}-{traced}-{j}"
                tracer.request = len(results)
                row = attempt(tracer if traced else None, req, tag, wl.budget_s)
                results.append((req, tag, *row))
                spent[traced] += row[0]
                if traced:
                    traced_bytes += output_bytes(row[1])
        finally:
            tracer.remove()

    run_pass(None)      # first touches of the inputs and of memory, not compared
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        run_pass(False)
        run_pass(True)
        passes += 1
    return results, passes, spent[False], spent[True], traced_bytes


def run_workload(args) -> int:
    import tracer as tracing

    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    references = references_for(args.workload, args.seed)
    import_s = perf_counter() - T_START
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl = setup(args.workload, args.seed, work, references)
            setups.append(perf_counter() - t0)
        if args.trace:
            tracer = tracing.Tracer()
            results, passes, untraced_s, traced_s, traced_bytes = traced_loop(wl, args.seconds, tracer)
        else:
            results, elapsed = timed_loop(wl, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_start = perf_counter()
        failures = []
        for req, tag, latency, out, error in results:
            reason = judge(req, out, error)
            if reason is not None:
                failures.append({"request": tag, "kind": req.kind,
                                 "latency_s": latency, "reason": reason})
        check_s = perf_counter() - check_start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(results), len(failures)
    latencies = [r[2] for r in results]
    tail_s, tail_pct = tail(latencies)
    env = environment(args, wl.budget_s)
    summary = {
        "workload": args.workload, "environment": env,
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "import_s": import_s, "setup_runs_s": setups, "check_s": check_s,
        "tail_percentile": tail_pct, "tail_samples": attempted,
        "requests_per_cycle": wl.cycle, "latency_by_kind": by_kind(results),
        "failures": failures,
    }
    for f in failures:
        print(f"FAILED {f['kind']} (request {f['request']}, {f['latency_s']:.3f} s): {f['reason']}")
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, passes, traced_s, untraced_s, traced_bytes)
        summary["passes"] = passes
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"{args.workload}: {passes} traced passes of {wl.cycle} requests; spans in {trace_path}")
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "requests_per_s": {"value": (attempted - failed) / elapsed, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        summary["timed_s"] = elapsed
        print(f"{args.workload}: {attempted} requests in {elapsed:.2f} s, {failed} failed "
              f"(failed_ratio {failed / attempted:.4f}); latency_tail_s is "
              f"p{tail_pct:.1f} of {attempted} samples")
    summary["metrics"] = metrics
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    print("environment: " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, unlisted ones too, each in a fresh process; prints all
    end-to-end metrics."""
    rows = []
    for name in LISTED + UNLISTED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ratio = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows.append((name, {**result["metrics"], "failed_ratio": ratio}))
    names = list(rows[0][1])
    print(f"{'metric':<16}" + "".join(f"{n:>16}" for n, _ in rows) + "  unit")
    for m in names:
        print(f"{m:<16}" + "".join(f"{r[m]['value']:>16.6g}" for _, r in rows)
              + f"  {rows[0][1][m]['unit']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=LISTED + UNLISTED + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    _import_program()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
