"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, exits 0 and prints
exactly the metrics BENCHMARK.json names, with their units; that the
traced `levels` run makes no `max_ones` calls; that a corrupted
reference makes the correctness gate fail (exit 1, `correct` false);
and that a directory holding only the benchmark's own files exits
non-zero without printing a result.  Scratch files go under
perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = BENCH_DIR / "out" / "smoke"


def run(workload, trace, *extra, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, where):
    names = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == names, f"{where}: metric names or units differ: {sorted(set(got) ^ set(names))}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} is not a number"


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            where = f"{workload} trace={trace}"
            proc = run(workload, trace)
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            result = last_json(proc)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, where
            check_metrics(result, expected, where)
            if trace and workload == "levels":
                assert result["metrics"]["words.max_ones.calls"]["value"] == 0, "levels calls max_ones"
            print(f"ok  {where}")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    for workload in workloads:
        corrupted = json.loads(json.dumps(refs))
        entries = corrupted["tiny"][workload]
        key = sorted(entries)[0]
        entries[key] = "0" * len(entries[key])
        path = SCRATCH / f"references-{workload}.json"
        path.write_text(json.dumps(corrupted))
        proc = run(workload, 0, "--references", str(path))
        result = last_json(proc)
        assert proc.returncode == 1, f"{workload}: corrupted reference gave exit {proc.returncode}"
        assert not result["correct"] and result["failed"] > 0, f"{workload}: gate did not fail"
        print(f"ok  {workload}: corrupted reference {key!r} fails the gate")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(workloads[0], 0, cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory must fail without a result"
    shutil.rmtree(bare)
    print("ok  bare directory exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
