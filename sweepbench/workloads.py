"""The benchmark's workloads and the sweep path they all run.

Every workload is one ``harness.sweep`` followed by ``harness.write_results``,
the path the command-line sweeps take, at the default 8x8 Tx/Rx, 28 GHz and
30 dBm scenario unless the workload sweeps that value. ``SweepRunner`` times
and checks each sweep. Import this module
only after ``bootstrap.prepare()``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import calibrate
import checks
import movable_ris
import setup_probe
from bootstrap import SRC
from movable_ris import harness, scenario
from movable_ris.baselines import BaselineKind
from tracer import Patcher

if not Path(movable_ris.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"movable_ris was loaded from {movable_ris.__file__}, not {SRC}")

# Channel/search seeds a sweep may use. ``reference.json`` holds the
# results.csv digests of every one, so each sweep's bytes can be checked.
POOL = tuple(range(12))
# Monte Carlo trials per (swept value, kind): the reduced criterion-4 size in
# ROADMAP.md. The command line defaults to 50.
TRIALS = 10
TICK_S = 0.05  # seconds of work between host-speed probes in an untraced sweep


@dataclass(frozen=True)
class Workload:
    name: str
    sweep_kind: str
    values: tuple
    kinds: tuple[BaselineKind, ...]
    # Reference seconds of one sweep, median over the pool, when reference.json
    # was recorded; it fixes how many sweeps a run of a given length times.
    nominal_s: float

    def first_value_only(self) -> Workload:
        return replace(self, values=self.values[:1])


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_power_sweep", "power", (10.0, 20.0, 30.0, 40.0), tuple(BaselineKind),
                 nominal_s=37.6),
        Workload("phase_search", "elements", (16, 36, 64, 100),
                 (BaselineKind.FIXED_RIS_OPT_PHASE,), nominal_s=3.8),
        Workload("position_search", "ue_scenarios",
                 ((60.0, 90.0, 2.0), (70.0, 85.0, 2.0), (85.0, 75.0, 2.0)),
                 (BaselineKind.MOVABLE_RIS_RANDOM_PHASE, BaselineKind.FD_RELAY), nominal_s=13.5),
    )
}


def sweep_seeds(seed: int) -> list[int]:
    """The run's order of pool seeds; the workload seed fixes it."""
    return random.Random(seed).sample(POOL, len(POOL))


def timed_seeds(workload: Workload, seed: int, seconds: float) -> list[int]:
    """Pool seeds a run times: as many sweeps as ``seconds`` holds at the nominal size.

    The count depends only on ``seconds`` and the workload, never on how fast
    the code runs, so every commit times the same sweeps for one seed.
    """
    count = max(1, min(len(POOL), round(seconds / workload.nominal_s)))
    return sweep_seeds(seed)[:count]


def first_point(workload: Workload):
    """Configuration and geometry of the workload's first swept value."""
    config, geometry = scenario.default_config()
    return harness.apply_swept_value(config, geometry, workload.sweep_kind, workload.values[0])


def warm_up(workload: Workload, sweep_seed: int) -> float:
    """Build the first scenario pack and evaluate one rate (lazy LAPACK set-up)."""
    return setup_probe.warm_up(workload.sweep_kind, workload.values[0], sweep_seed)


def run_sweep(workload: Workload, sweep_seed: int, out_dir: Path):
    """The command-line path: ``harness.sweep`` then ``harness.write_results``."""
    config, geometry = scenario.default_config()
    spec = harness.SweepSpec(
        kind=workload.sweep_kind,
        values=workload.values,
        baselines=workload.kinds,
        trials=TRIALS,
        seed=sweep_seed,
    )
    results = harness.sweep(spec, config, geometry)
    csv_path, meta_path = harness.write_results(results, out_dir, config, geometry)
    return results, csv_path, meta_path


@dataclass
class SweepRun:
    results: list
    csv_path: Path
    meta_path: Path
    wall_s: float  # sweep + write_results, without the speed probes
    reference_s: float  # the same at the reference host speed (calibrate.py)

    @property
    def outcomes(self) -> int:
        return sum(r.trials for r in self.results)

    @property
    def trials_per_s(self) -> float:
        """Trial outcomes per reference second."""
        return self.outcomes / self.reference_s

    @property
    def wall_trials_per_s(self) -> float:
        return self.outcomes / self.wall_s


class SweepRunner:
    """Runs one workload's sweeps: times each, checks its outputs, keeps the tally.

    The host-speed probes run before the sweep, every ``TICK_S`` seconds
    during it and after ``write_results``. A traced sweep probes before each
    sweep point and each trial instead, because a timer probe would land
    inside a span.
    """

    def __init__(self, workload: Workload, out_dir: Path, reference: dict | None):
        self.workload = workload
        self.out_dir = out_dir
        self.reference = reference  # results.csv row digests by sweep seed; None skips
        self.history = checks.HistoryCheck()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def sweep(self, sweep_seed: int, tracer=None, first_value_only: bool = False,
              trial_probes: bool = False) -> SweepRun:
        """Run, time and check one sweep; ``first_value_only`` sweeps ``values[:1]``.

        ``trial_probes`` probes between trials, as a traced sweep does, even
        when the sweep is not traced.
        """
        workload = self.workload.first_value_only() if first_value_only else self.workload
        clock = calibrate.ReferenceClock()

        def probed(fn):
            def after_probe(*args, **kwargs):
                clock.probe(calibrate.TICK_ITERATIONS)
                return fn(*args, **kwargs)
            return after_probe

        self.history.start_sweep()
        with Patcher() as patcher:
            self.history.install(patcher)
            if tracer is not None:
                tracer.patch(patcher)
            if trial_probes or tracer is not None:
                # Wrapped last, so the probes run outside every span.
                patcher.wrap(harness, "monte_carlo_point", probed)
                patcher.wrap(harness, "run_baseline", probed)
                ticking = nullcontext()
            else:
                ticking = clock.ticking(TICK_S)
            clock.probe()
            with ticking:
                results, csv_path, meta_path = run_sweep(workload, sweep_seed, self.out_dir)
            clock.probe()
        run = SweepRun(results, csv_path, meta_path, clock.wall_s, clock.reference_s)
        expected = None if self.reference is None else self.reference[str(sweep_seed)]
        bad = checks.bad_outcomes(run, self.history, expected)
        self.attempted += run.outcomes
        self.failed += len(bad)
        if bad:
            self.messages.append(f"sweep seed {sweep_seed}: bad (point, trial) {sorted(bad)[:8]}")
        return run
