"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads levels jpm --seeds 10 [--out FILE]

For every end-to-end metric it prints the median over the runs and the
quartile spread (Q3 - Q1) / median, as `statistics.quantiles(values,
n=4)` gives the quartiles, next to the metric's bound and a third of it.
`--trace` adds one traced run per workload.  `--out` writes everything
as JSON: a BENCH file in the format the ROADMAP asks for (name, n,
seconds, peak_mb, result_count) plus every metric of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = next(json.loads(line[5:]) for line in proc.stderr.splitlines() if line.startswith("info "))
    return {"seed": seed, "trace": trace, "elapsed_s": elapsed, "info": info, **result}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"runs": [], "cases": []}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, seed, SPEC["run_seconds"], 0) for seed in range(1, args.seeds + 1)]
        report["runs"] += runs
        print(f"{workload}: {len(runs)} runs, {statistics.median(r['elapsed_s'] for r in runs):.1f} s each")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            flag = "" if s < bound / 3 else ("  ABOVE bound/3" if s <= bound else "  ABOVE BOUND")
            if name != "setup_s":
                worst = max(worst, s / bound)
            print(f"  {name:14s} median {statistics.median(values):12.6g}  spread {s:.4f}  "
                  f"bound {bound}  (bound/3 {bound / 3:.4f}){flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
        info = runs[0]["info"]
        report["cases"].append({
            "name": workload,
            "n": info["n"],
            "seconds": statistics.median(r["info"]["wall_s"] for r in runs),
            "wall_cal": statistics.median(r["metrics"]["wall_cal"]["value"] for r in runs),
            "peak_mb": statistics.median(r["metrics"]["peak_rss_mb"]["value"] for r in runs),
            "result_count": info["result_count"],
            "failed": sum(r["failed"] for r in runs),
        })
        if args.trace:
            traced = run_once(workload, 1, SPEC["run_seconds"], 1)
            report["runs"].append(traced)
            print(f"  traced: overhead {traced['metrics']['trace.overhead_frac']['value']:.3f}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
