#!/usr/bin/env python3
"""Sweep benchmark for the movable-RIS simulator.

Usage (from the root of a checkout):

    python3 sweepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process, one caller: sweeps run back to back for ``--seconds`` through
``harness.sweep`` and ``harness.write_results``, the path of the command-line
sweeps. ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` reports its per-layer metrics from spans
recorded around the calls into each package module. Every sweep's outputs
are checked (see ``checks.py``). The last line of standard output is one
JSON object; the full record, with provenance, goes to
``.sweepbench_out/<workload>/seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import bootstrap

bootstrap.prepare()  # before numpy loads; exits 2 without the package source

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from movable_ris import baselines  # noqa: E402

SETUP_REPEATS = 15  # fresh processes per run; setup_s is their median
PROBE_TRIALS = 3  # trials per kind in the per-search probe of a traced run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "movable_ris").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": bootstrap.git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": bootstrap.nproc(),
        "blas_threads": blas_threads(),
    }


def setup_seconds(workload, sweep_seed: int) -> tuple[float, float]:
    """One fresh-process set-up: (wall seconds, reference seconds), timed in the child."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         workload.sweep_kind, json.dumps(workload.values[0]), str(sweep_seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    wall, speed = map(float, done.stdout.split())
    return wall, calibrate.to_reference(wall, speed)


def end_to_end(workload, seed: int, seconds: float, runner: workloads.SweepRunner) -> tuple[dict, dict]:
    seeds = workloads.timed_seeds(workload, seed, seconds)
    setup = [setup_seconds(workload, seeds[0]) for _ in range(SETUP_REPEATS)]
    workloads.warm_up(workload, seeds[0])
    runs = [runner.sweep(sweep_seed) for sweep_seed in seeds]
    outcomes = sum(run.outcomes for run in runs)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "trials_per_s": outcomes / sum(run.reference_s for run in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "timed_sweep_seeds": seeds,
        "trials_per_s_samples": [run.trials_per_s for run in runs],
        "setup_s_samples": [ref for _, ref in setup],
        "wall_trials_per_s": outcomes / sum(run.wall_s for run in runs),
        "wall_trials_per_s_samples": [run.wall_trials_per_s for run in runs],
        "wall_setup_s_samples": [wall for wall, _ in setup],
    }
    return metrics, detail


# Per-layer span statistics reported, by span name.
LAYER_FIELDS = {
    "channel.realize_channels": ("calls", "self_s"),
    "channel.link_channel": ("calls", "self_s"),
    "channel.composite_channel": ("calls", "self_s"),
    "channel.draw_trial": ("calls",),
    "beamforming.effective_channel": ("calls", "self_s", "p50_us", "p99_us"),
    "beamforming.achievable_rate": ("calls", "self_s", "p50_us", "p99_us"),
    "beamforming.bb_stages": ("self_s",),
    "beamforming.design_rf_stages": ("calls", "self_s"),
    "optimizer.run_pso": ("calls", "self_s"),
    "baselines.build_scenario_pack": ("calls", "self_s"),
}


def seconds_per_trial(workload, sweep_seed: int, runner: workloads.SweepRunner) -> dict:
    """Per-search cost of every kind on the workload's first swept value, in reference seconds."""
    config, geometry = workloads.first_point(workload)
    pack = baselines.build_scenario_pack(config, geometry, sweep_seed)
    out = {}
    for kind in baselines.BaselineKind:
        times = []
        for t in range(PROBE_TRIALS):
            clock = calibrate.ReferenceClock()
            clock.probe()
            outcome = baselines.run_baseline(kind, pack, t)
            clock.probe()
            times.append(clock.reference_s)
            runner.attempted += 1
            runner.failed += not math.isfinite(outcome.rate)
        out[kind.value] = statistics.median(times)
    return out


def per_layer(workload, seed: int, seconds: float, runner: workloads.SweepRunner) -> tuple[dict, dict]:
    """Spans of one traced sweep of the run's first timed seed.

    The same sweep runs untraced first, for ``trace.overhead_ratio``. Then
    the first swept value is traced again on its own: its counts must equal
    those of the first value in the full traced sweep.
    """
    sweep_seed = workloads.timed_seeds(workload, seed, seconds)[0]
    workloads.warm_up(workload, sweep_seed)
    kind_cost = seconds_per_trial(workload, sweep_seed, runner)
    # Probed between trials like the traced sweep, so the overhead ratio
    # compares like with like.
    untraced = runner.sweep(sweep_seed, trial_probes=True)
    tracer = tracer_mod.Tracer()
    run = runner.sweep(sweep_seed, tracer)
    again = tracer_mod.Tracer()
    runner.sweep(sweep_seed, again, first_value_only=True)
    tracer_mod.write_spans([tracer, again], runner.out_dir / "spans.npz")
    # The first value's spans end where its first kind's point at the second
    # value begins. Results are written once per sweep, after every value.
    first_value = tracer.span_index("harness.monte_carlo_point", len(workload.kinds))
    repeat = tracer.counts(first_value), again.counts()
    for counts in repeat:
        counts.pop("harness.write_results.calls")
    if repeat[0] != repeat[1]:
        runner.messages.append(
            f"first-value counts differ between two traced sweeps of one seed: {repeat}")

    stats = tracer.stats()
    # Span times are wall times; the traced sweep's reference/wall ratio puts
    # them in reference seconds like the end-to-end metrics.
    scale = run.reference_s / run.wall_s
    metrics = {}
    for span, fields in LAYER_FIELDS.items():
        for field in fields:
            if field == "calls":
                value = stats[span].calls
            elif field == "self_s":
                value = stats[span].self_s * scale
            else:
                value = float(np.percentile(stats[span].durations_us * scale,
                                            50 if field == "p50_us" else 99))
            metrics[f"{span}.{field}"] = value
    metrics["optimizer.fitness_evals"] = stats[tracer_mod.FITNESS].calls
    metrics["optimizer.hop_cache_hit_ratio"] = tracer_mod.hop_cache_hit_ratio(stats)
    metrics["optimizer.gbest_improve_ratio"] = (
        tracer.gbest_increases / tracer.pso_iterations if tracer.pso_iterations else 0.0)
    for kind, value in kind_cost.items():
        metrics[f"baselines.{kind}.s_per_trial"] = value
    # The sweep span also covers the host-speed probes between trials,
    # so the sweep's own time is the probe-free wall time minus write_results.
    write = stats["harness.write_results"].total_s
    sweep_s = run.wall_s - write
    metrics["harness.sweep.s"] = sweep_s * scale
    metrics["harness.write_results.s"] = write * scale
    metrics["harness.flagged_fraction"] = (
        sum(len(r.flagged_trials) for r in run.results) / run.outcomes)
    metrics["trace.overhead_ratio"] = run.trials_per_s / untraced.trials_per_s
    detail = {
        "traced_sweep_seed": sweep_seed,
        "first_value_counts": repeat[0],
        "counts_repeat_exactly": repeat[0] == repeat[1],
        "untraced_trials_per_s": untraced.trials_per_s,
        "traced_trials_per_s": run.trials_per_s,
        # Per-(value, kind) work against per-trial work, as shares of the sweep.
        "scenario_pack_share": stats["baselines.build_scenario_pack"].total_s / sweep_s,
        "trial_share": stats["baselines.run_baseline"].total_s / sweep_s,
    }
    return metrics, detail


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """Attach units from BENCHMARK.json; the two lists of names must agree."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {names}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    out_dir = bootstrap.OUT / workload.name / f"seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    prov = provenance(args.seed)
    runner = workloads.SweepRunner(workload, out_dir, checks.load_reference()["workloads"][workload.name])

    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(workload, args.seed, args.seconds, runner)
    metrics = with_units(metrics, declared["per_layer" if args.trace else "end_to_end"])
    correct = runner.failed == 0 and not runner.messages
    failed_fraction = runner.failed / runner.attempted
    record = {
        "provenance": prov,
        "workload": workload.name,
        "why": next(w["why"] for w in declared["workloads"] if w["name"] == workload.name),
        "trace": args.trace,
        "seconds": args.seconds,
        "calibrate_reference_speed": calibrate.REFERENCE_SPEED,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_fraction": failed_fraction,
        "check_messages": runner.messages,
        "metrics": metrics,
        "detail": detail,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    for message in runner.messages:
        sys.stderr.write(f"check failed: {message}\n")
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"commit={prov['git_commit']} python={prov['python']} numpy={prov['numpy']} "
          f"blas={prov['blas']} nproc={prov['nproc']} blas_threads={prov['blas_threads']}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'trials_per_s (wall clock)':<44} {detail['wall_trials_per_s']:>14.6g} trials/s")
        print(f"{'setup_s (wall clock)':<44} "
              f"{statistics.median(detail['wall_setup_s_samples']):>14.6g} s")
    print(f"{'failed_fraction':<44} {failed_fraction:>14.6g} ratio "
          f"({runner.failed} of {runner.attempted} trial outcomes)")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
