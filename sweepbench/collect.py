#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 sweepbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                  [--seconds S] [--out PATH]

Each run is a fresh ``run.py`` process, one after another. For every
workload and metric the summary holds the values, their median, quartiles
(``statistics.quantiles(n=4)``) and the quartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json, and each run's
provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".sweepbench_out" / "collect.json")
    args = parser.parse_args()

    metric_specs = declared["per_layer" if args.trace else "end_to_end"]
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(ROOT / "sweepbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads(
                (ROOT / ".sweepbench_out" / workload / f"seed{seed}-trace{args.trace}"
                 / "result.json").read_text())
            runs.append({"seed": seed, "result": result, "provenance": record["provenance"]})
            print(workload, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                  f"correct={result['correct']}", flush=True)
        metrics = {}
        for spec in metric_specs:
            entry = spread([r["result"]["metrics"][spec["name"]]["value"] for r in runs])
            metrics[spec["name"]] = {"unit": spec["unit"], "bound": spec.get("bound"), **entry}
        summary["workloads"][workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
            "provenance": [r["provenance"] for r in runs],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            bound = f" bound {m['bound']}" if m["bound"] is not None else ""
            share = "n/a" if m["iqr_share"] is None else f"{m['iqr_share']:.4f}"
            print(f"{workload:<18} {name:<44} median {m['median']:.6g} {m['unit']}"
                  f"  iqr/median {share}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
