"""pnlab benchmark: one workload per invocation, closed loop, one call in flight.

    python3 perfbench/run.py --workload {levels,palindromes,jpm,sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; pnlab is imported from its `src/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones (see BENCHMARK.json); with `--trace 1` they are the
per-layer ones from a traced run.  A human-readable summary goes to
stderr.  The exit code is 0 when every result matched its reference,
1 when any did not, and 2 when pnlab cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
MIN_PASSES = 3


def load_pnlab():
    """Import pnlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "pnlab" / "__init__.py").is_file():
        raise ImportError(f"pnlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pnlab
    from pnlab import cli, collapse, jpm, normality, oracle, palindromes, verify, words

    if Path(pnlab.__file__).resolve().parent != (SRC / "pnlab").resolve():
        raise ImportError(f"pnlab was imported from {pnlab.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        Word=words.Word, words=words, normality=normality, palindromes=palindromes,
        collapse=collapse, jpm=jpm, oracle=oracle, verify=verify, cli=cli,
    )


def percentile(values, pct):
    """Linear interpolation between closest ranks of sorted values."""
    pos = (len(values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def setup(args, refs):
    """Import, seeded input generation and warm-up: everything before the first timed call."""
    pn = load_pnlab()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](pn, args.seed, args.scale, refs)
    workload.warm_up()
    return pn, workload


def probe_setup(args) -> float:
    """Wall time of a fresh process that only sets up, from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
    start = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def run_passes(workload, log, seconds, min_passes):
    """Repeat the job list until `seconds` have passed and at least `min_passes` ran.

    Returns each pass's (seconds, cal) totals.
    """
    totals = []
    start = perf_counter()
    while len(totals) < min_passes or perf_counter() - start < seconds:
        log.pass_s = log.pass_cal = 0.0
        workload.run_pass(log)
        totals.append((log.pass_s, log.pass_cal))
    return totals


def measure(args, workload, log):
    """End-to-end metrics.

    The host this was built on runs a fixed CPU loop at about 14 ms in
    some stretches and 19-21 ms in others, for seconds to minutes at a
    time, and process CPU time swings the same way.  Seconds measured
    over a 25 s run then depend on the stretch the run caught (quartile
    spreads of 20-30 % over ten seeds, even for best-of-repetition
    times).  Call times are therefore also expressed in `cal`, units of
    a fixed calibration loop timed just before the call, which moves
    with the host and not with pnlab; those spreads are a few percent.
    Each call contributes the median of its repetitions.  Set-up stays
    in seconds; its probes run after the passes, because a probe process
    cools the caches for the call that follows it.
    """
    passes = run_passes(workload, log, args.seconds, MIN_PASSES)
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload.oracle_check(log)
    cal = {label: statistics.median(values) for label, values in log.cal.items()}
    latency = sorted(cal[label] for label in log.latency)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_cal": (sum(cal.values()), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "call_p50_cal": (statistics.median(latency), "cal"),
        "call_p90_cal": (percentile(latency, 90), "cal"),
    }
    seconds = {label: statistics.median(values) for label, values in log.times.items()}
    extra = {"passes": len(passes), "calls": len(latency), "setup_probes": len(probes),
             "wall_s": sum(seconds.values()), "cal_unit_ms": 1000 * sum(seconds.values()) / sum(cal.values())}
    if log.queries:
        extra["query_per_s"] = log.queries / log.query_s
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def measure_traced(args, pn, workload, log):
    """Untraced passes, one tracemalloc pass for peaks, then traced passes."""
    from layers import PEAK_NAMES, per_layer_values, targets
    from tracing import Tracer

    half = args.seconds / 2
    untraced = run_passes(workload, log, half, 2)
    workload.oracle_check(log)

    memory = Tracer(peak_names=PEAK_NAMES)
    memory.install(targets(memory, pn))
    log.tracer = memory
    try:
        workload.run_pass(log)
    finally:
        memory.uninstall()

    tracer = Tracer()
    tracer.install(targets(tracer, pn))
    log.tracer = tracer
    try:
        traced = run_passes(workload, log, half, 2)
    finally:
        tracer.uninstall()
        log.tracer = None
    passes = len(traced)
    overhead = statistics.median(c for _, c in traced) / statistics.median(c for _, c in untraced) - 1
    other = (sum(s for s, _ in traced) - tracer.top_s) / passes
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    metrics = per_layer_values(tracer, memory.peaks, passes, overhead, other)
    extra = {"passes": passes, "untraced_passes": len(untraced), "spans_kept": len(tracer.spans),
             "spans_dropped": tracer.dropped}
    return metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("levels", "palindromes", "jpm", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="reference file (the smoke test passes a corrupted copy)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        refs = json.loads(args.references.read_text())[args.scale]
        pn, workload = setup(args, refs)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    from workloads import Log

    log = Log()
    if args.trace:
        metrics, extra = measure_traced(args, pn, workload, log)
    else:
        metrics, extra = measure(args, workload, log)
    info = {"workload": args.workload, "seed": args.seed, "scale": args.scale, **workload.info(), **extra,
            "fail_frac": log.failed / log.attempted}
    print("info " + json.dumps(info), file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for message in log.messages:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted, "failed": log.failed,
                      "metrics": metrics}))
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
