"""Run each workload repeatedly and print the spread of its end-to-end metrics.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--trace]

Each round runs every workload of ``BENCHMARK.json`` once for its
``run_seconds``, each in a fresh process, one after the other, with the
order reversed on every other round so that a slow spell of the host does
not always fall on the same workload.  Round r uses seed
first_seed + r.  For each workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound from ``BENCHMARK.json``; the
spread is marked when it is not below a third of the bound.  ``--trace``
adds one traced run after each untraced one and prints the tracing
overhead, the relative drop in items/s.  The raw results are written to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result line, stderr summary)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    summary = next(
        json.loads(line.split(" ", 2)[2])
        for line in proc.stderr.splitlines()
        if line.startswith("perfbench summary ")
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), summary


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    seconds = config["run_seconds"]
    results = {w: [] for w in names}
    traced = {w: [] for w in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for workload in order:
            seed = args.first_seed + r
            result, summary = run_once(workload, seed, seconds, 0)
            results[workload].append({"seed": seed, **result, "summary": summary})
            print(f"round {r} {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ) + f" failed={result['failed']}/{result['attempted']}", flush=True)
            if args.trace:
                _, traced_summary = run_once(workload, seed, seconds, 1)
                traced[workload].append(traced_summary)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"\n{'workload':9} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for metric, bound in bounds.items():
            median, q1, q3, rel = spread([run["metrics"][metric]["value"] for run in runs])
            mark = "" if rel < bound / 3 else "  <- not below bound/3"
            print(f"{workload:9} {metric:12} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{rel:7.3f} {bound:6.2f}{mark}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{workload:9} failed share per run: {sorted(shares)}")
        if traced[workload]:
            plain = statistics.median(run["summary"]["items_per_s"] for run in runs)
            with_trace = statistics.median(s["items_per_s"] for s in traced[workload])
            print(f"{workload:9} tracing overhead: items/s {plain:.4g} untraced, "
                  f"{with_trace:.4g} traced ({(plain - with_trace) / plain:+.1%})")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"runs": results, "traced": traced}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
