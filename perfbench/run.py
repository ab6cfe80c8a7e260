"""Benchmark of the rydsense model chain: one named workload from one seed.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (setup time, throughput,
median item time, peak memory); with ``--trace 1`` the public functions of
each package module are wrapped and the metrics are per-layer self times
and call counts per item.  Spans of the traced run are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one BLAS thread: the host has 2 cores and its speed varies
# between processes by itself; threads would add scheduling noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
READY = "perfbench-ready"

PER_LAYER_CALLS = (
    "cli.main",
    "multiparticle.count_pmf",
    "multiparticle.count_distribution",
    "multiparticle.fisher_information",
    "multiparticle.super_rabi_means",
    "multiparticle.interaction_channel_kraus",
    "fockspace.classical_fi",
    "fockspace.apply_channel",
    "fockspace.measure",
    "dipolar.excluded_volume_integral",
    "estimation.run_estimation",
    "error_prevention.fi_with_prevention",
)
PER_LAYER_SELF = (
    "cli.main",
    "cli.write_table",
    "multiparticle.count_pmf",
    "multiparticle.count_distribution",
    "multiparticle.fisher_information",
    "multiparticle.super_rabi_means",
    "multiparticle.interaction_channel_kraus",
    "fockspace.classical_fi",
    "fockspace.apply_channel",
    "fockspace.measure",
    "fockspace.coherent_state",
    "fockspace.detection_loss_channel",
    "fockspace.number_povm",
    "dipolar.excluded_volume_integral",
    "dipolar.readout_expectation_mc",
    "estimation.run_estimation",
    "estimation.sensitivity_from_model",
    "error_prevention.enhancement_curve",
    "error_prevention.expectation_curves",
)
LAYERS = ("cli", "multiparticle", "fockspace", "dipolar", "estimation", "error_prevention")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "estimate", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set up, print a ready line and exit (used to time set-up in a fresh process)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_package():
    """Import numpy, scipy and rydsense from this checkout's ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rydsense
        import rydsense.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rydsense from {ROOT / 'src'}: {exc}")
    if Path(rydsense.__file__).resolve().parent != (ROOT / "src" / "rydsense").resolve():
        sys.exit(f"perfbench: imported rydsense from {rydsense.__file__}, not this checkout")


def item_rng(seed: int, stream: int, index: int):
    """Stream 0 holds the measured items, stream 1 the warm-up item."""
    return np.random.default_rng([seed, stream, index])


def set_up(args, work_dir: Path):
    """Imports, the workload object and one untimed warm-up item."""
    import_package()
    import workloads
    from rydsense import cli

    import_s = time.perf_counter() - _START
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ[cli.OUTPUT_DIR_ENV] = str(work_dir)
    workload = workloads.WORKLOADS[args.workload]()
    t1 = time.perf_counter()
    warm = workload.make(item_rng(args.seed, 1, 0), 0)
    workload.run(warm)
    warmup_s = time.perf_counter() - t1
    return workload, import_s, warmup_s


def time_setup(args) -> float:
    """Set up once in a fresh process; seconds from spawn to the ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        try:
            code = proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or line.strip() != READY:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def measure(args, workload, tracer):
    """Run whole items for ``--seconds`` in SETUP_REPEATS equal parts; check each one.

    An untraced run times one fresh-process set-up after each part, so the
    set-up times are spread over the same stretch of the host's speed drift
    as the items.  The set-ups do not count toward ``--seconds``.  An item
    whose call or check raises is counted as failed with its traceback, and
    the run goes on.
    """
    item_s, failures, setup_s = [], [], []
    index = 0
    for _ in range(SETUP_REPEATS):
        end = time.perf_counter() + args.seconds / SETUP_REPEATS
        while True:
            item = workload.make(item_rng(args.seed, 0, index), index)
            t0 = time.perf_counter()
            try:
                try:
                    if tracer is None:
                        out = workload.run(item)
                    else:
                        out = tracer.span(tracing.ITEM_SPAN, workload.run, item)
                finally:
                    item_s.append(time.perf_counter() - t0)
                problems = workload.check(item, out)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                failures.append((index, problems))
            index += 1
            if time.perf_counter() >= end:
                break
        if tracer is None:
            setup_s.append(time_setup(args))
    return item_s, failures, setup_s


def layer_metrics(tracer, totals: dict, items: int, import_s: float, warmup_s: float) -> dict:
    """Per-item call counts and self times, layer totals and set-up parts."""
    metrics = {}

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_ms(name):
        return 1e3 * totals.get(name, (0, 0.0))[1] / items

    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls(name) / items, "count")
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms")
    metrics["multiparticle.count_pmf.outcomes"] = (tracer.pmf_outcomes / items, "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (
            sum((self_ms(n) for n in totals if n.startswith(layer + ".")), 0.0), "ms")
    metrics["setup.import_ms"] = (1e3 * import_s, "ms")
    metrics["setup.warmup_ms"] = (1e3 * warmup_s, "ms")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload, import_s, warmup_s = set_up(args, work_dir)
        if args.setup_probe:
            print(READY, flush=True)
            return 0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install("rydsense")
        item_s, failures, setup_s = measure(args, workload, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_problems = workload.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for index, problems in failures:
        for problem in problems:
            print(f"perfbench: item {index} failed: {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"perfbench: run check failed: {problem}", file=sys.stderr)

    items = len(item_s)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "items": items,
        "timed_s": sum(item_s), "items_per_s": items / sum(item_s),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "items_per_s": (items / sum(item_s), "1/s"),
            "item_p50_ms": (1e3 * statistics.median(item_s), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.uninstall()
        totals = tracer.totals()
        missing = [name for name in workload.expected_calls
                   if totals.get(name, (0, 0))[0] == 0]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        summary["spans"] = len(tracer.spans)
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
        if missing:
            print(f"perfbench: traced run recorded no calls to {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        metrics = layer_metrics(tracer, totals, items, import_s, warmup_s)
    print("perfbench summary " + json.dumps(summary), file=sys.stderr)
    result = {
        "correct": not run_problems,
        "attempted": items,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
