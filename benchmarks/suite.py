"""Run every workload over several seeds and summarise the runs.

Usage, from the root of a source checkout:

    python3 benchmarks/suite.py                       # 4 workloads x 10 seeds, untraced
    python3 benchmarks/suite.py --seeds 5 --workloads test_curve
    python3 benchmarks/suite.py --traced --out benchmarks/trajectory/<sha>.json

Each run is a separate ``run.py`` process, started only after the previous
one has exited.  For every end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
interquartile distance as a share of the median, which BENCHMARK.json's
bounds must stay above.  ``--traced`` adds one traced run per workload.
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


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    provenance = json.loads(proc.stdout.strip().splitlines()[0])["provenance"]
    return {"seed": seed, "wall_s": wall, "provenance": provenance, **result}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        seeds = range(1, args.seeds + 1)
        runs = [run_once(workload, seed, 0) for seed in seeds]
        entry = {
            "provenance": runs[0]["provenance"],
            "seeds": list(seeds),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "end_to_end": summarise(runs),
        }
        print(f"{workload}: {len(runs)} runs, all correct: {entry['all_correct']}, "
              f"failed {entry['failed']}/{entry['attempted']}, wall {min(entry['wall_s'])}-{max(entry['wall_s'])} s")
        for name, m in entry["end_to_end"].items():
            spread = m.get("spread")
            flag = ""
            if spread is not None and name in bounds and spread > bounds[name] / 3:
                flag = f"  spread above a third of bound {bounds[name]}"
            spread_text = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {name:14s} median {m['median']:<12.6g} {m['unit']:6s} spread {spread_text}{flag}")
        if args.traced:
            traced = run_once(workload, 1, 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            print(f"  traced run: correct {traced['correct']}, "
                  f"overhead {entry['traced']['trace.overhead_frac']:.3f}, "
                  f"selfcheck intersect calls {entry['traced']['trace.selfcheck_intersect_calls']}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
