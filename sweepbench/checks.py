"""Output checks made on every sweep the benchmark runs.

A trial outcome is one (swept value, kind, trial). It is bad when the
harness reports it failed, its rate is not finite, its swarm's global-best
history decreases, an hd_relay rate is not exactly half the fd_relay rate of
the same trial, or the results.csv row it feeds differs from the reference
bytes recorded for the sweep seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from movable_ris import baselines, harness, optimizer
from tracer import Patcher

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def csv_digests(csv_path: Path) -> list[str]:
    """A short digest of every line of results.csv, the trailing empty one included."""
    lines = Path(csv_path).read_bytes().split(b"\n")
    return [hashlib.sha256(line).hexdigest()[:16] for line in lines]


class HistoryCheck:
    """Tags each swarm search with its (point, trial) and flags decreasing histories."""

    def __init__(self):
        self.point = -1
        self.trial = -1
        self.bad: set[tuple[int, int]] = set()

    def install(self, patcher: Patcher) -> None:
        patcher.wrap(harness, "monte_carlo_point", self._count_points)
        patcher.wrap(harness, "run_baseline", self._tag_trials)
        patcher.wrap(baselines, "run_pso", self._check_history)
        patcher.wrap(optimizer, "run_pso", self._check_history)

    def start_sweep(self) -> None:
        self.point = -1
        self.bad = set()

    def _count_points(self, monte_carlo_point):
        def counted(*args, **kwargs):
            self.point += 1
            return monte_carlo_point(*args, **kwargs)
        return counted

    def _tag_trials(self, run_baseline):
        def tagged(kind, pack, trial_index):
            self.trial = trial_index
            return run_baseline(kind, pack, trial_index)
        return tagged

    def _check_history(self, run_pso):
        def checked(*args, **kwargs):
            best_vec, best_val, history = run_pso(*args, **kwargs)
            if any(b < a for a, b in zip(history, history[1:])) or history[-1] != best_val:
                self.bad.add((self.point, self.trial))
            return best_vec, best_val, history
        return checked


def bad_outcomes(run, history: HistoryCheck, reference: list[str] | None) -> set[tuple[int, int]]:
    """(point, trial) pairs of one sweep that fail a check.

    ``reference`` holds the row digests of results.csv; None skips the byte
    comparison (used only while recording the reference).
    """
    bad = set(history.bad)
    points = json.loads(Path(run.meta_path).read_text())["results"]
    rates_by_point = []
    for i, point in enumerate(points):
        failed = set(point["failed_trials"])
        bad.update((i, t) for t in failed)
        rates = dict(zip([t for t in range(point["trials"]) if t not in failed],
                         point["per_trial_rates"]))
        bad.update((i, t) for t, rate in rates.items() if not math.isfinite(rate))
        rates_by_point.append(rates)

    index = {(p["swept_value"], p["baseline"]): i for i, p in enumerate(points)}
    for (value, kind), i in index.items():
        fd = index.get((value, "fd_relay"))
        if kind == "hd_relay" and fd is not None:
            fd_rates = rates_by_point[fd]
            bad.update((i, t) for t, rate in rates_by_point[i].items()
                       if t not in fd_rates or rate != fd_rates[t] / 2.0)

    if reference is not None:
        # A sweep of the first values only must match the reference's first rows.
        expected = reference[:1 + len(points)] + reference[-1:]
        rows = csv_digests(run.csv_path)
        if len(rows) != len(expected) or rows[0] != expected[0]:
            mismatched = range(len(points))
        else:
            mismatched = [i for i in range(len(points)) if rows[i + 1] != expected[i + 1]]
        for i in mismatched:
            bad.update((i, t) for t in range(points[i]["trials"]))
    return bad


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
