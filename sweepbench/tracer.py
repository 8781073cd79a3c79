"""Spans around the calls into each package module, recorded from outside.

The package binds names with ``from .x import y``, so a function is wrapped
in every module namespace it is looked up from. Spans are kept in memory
(name, parent span, start, end) and written out when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from movable_ris import baselines, beamforming, channel, harness, optimizer

# (namespace the caller looks the name up in, attribute, span name)
TRACE_POINTS = (
    (harness, "sweep", "harness.sweep"),
    (harness, "write_results", "harness.write_results"),
    (harness, "monte_carlo_point", "harness.monte_carlo_point"),
    (harness, "build_scenario_pack", "baselines.build_scenario_pack"),
    (harness, "run_baseline", "baselines.run_baseline"),
    (baselines, "draw_trial", "channel.draw_trial"),
    (baselines, "design_rf_stages", "beamforming.design_rf_stages"),
    (baselines, "link_channel", "channel.link_channel"),
    (baselines, "hybrid_link_rate", "beamforming.hybrid_link_rate"),
    (baselines, "run", "optimizer.run"),
    (baselines, "run_pso", "optimizer.run_pso"),
    (optimizer, "run_pso", "optimizer.run_pso"),
    (optimizer.ProblemContext, "hop_matrices", "optimizer.ProblemContext.hop_matrices"),
    (optimizer, "realize_channels", "channel.realize_channels"),
    (optimizer, "composite_channel", "channel.composite_channel"),
    (optimizer, "effective_channel", "beamforming.effective_channel"),
    (optimizer, "bb_stages", "beamforming.bb_stages"),
    (optimizer, "achievable_rate", "beamforming.achievable_rate"),
    (channel, "link_channel", "channel.link_channel"),
    (beamforming, "effective_channel", "beamforming.effective_channel"),
    (beamforming, "bb_stages", "beamforming.bb_stages"),
    (beamforming, "achievable_rate", "beamforming.achievable_rate"),
)
FITNESS = "optimizer.fitness"  # each call of the objective handed to run_pso
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in TRACE_POINTS] + [FITNESS]))


class Patcher:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class LayerStats:
    calls: int
    total_s: float
    self_s: float
    durations_us: np.ndarray


class Tracer:
    """Span recorder for one traced sweep; install it with ``patch``."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._open: list[int] = []
        self.gbest_increases = 0
        self.pso_iterations = 0

    def _span(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        names, parents, starts, ends, open_ = (
            self.name, self.parent, self.start_ns, self.end_ns, self._open)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return traced

    def _search(self, name: str, run_pso):
        """Span a swarm search, its fitness calls, and its global-best history."""
        def traced_search(fitness_fn, *args, **kwargs):
            best_vec, best_val, history = run_pso(self._span(FITNESS, fitness_fn), *args, **kwargs)
            self.gbest_increases += sum(b > a for a, b in zip(history, history[1:]))
            self.pso_iterations += len(history) - 1
            return best_vec, best_val, history

        return self._span(name, traced_search)

    def patch(self, patcher: Patcher) -> None:
        for owner, attr, name in TRACE_POINTS:
            make = self._search if attr == "run_pso" else self._span
            patcher.wrap(owner, attr, functools.partial(make, name))

    def span_index(self, name: str, occurrence: int) -> int:
        """Index of the ``occurrence``-th span named ``name`` (from 0), or the span count."""
        hits = np.flatnonzero(np.frombuffer(self.name, dtype=np.int32) == SPAN_NAMES.index(name))
        return int(hits[occurrence]) if occurrence < hits.size else len(self.name)

    def stats(self, limit: int | None = None) -> dict[str, LayerStats]:
        """Per span name: calls, total time, self time, per-call durations.

        ``limit`` keeps only the spans opened before that index.
        """
        name = np.frombuffer(self.name, dtype=np.int32)[:limit]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:limit]
        dur = (np.frombuffer(self.end_ns, dtype=np.int64)
               - np.frombuffer(self.start_ns, dtype=np.int64))[:limit].astype(float) * 1e-9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        out = {}
        for i, span_name in enumerate(SPAN_NAMES):
            mask = name == i
            out[span_name] = LayerStats(
                calls=int(mask.sum()),
                total_s=float(dur[mask].sum()),
                self_s=float((dur[mask] - child[mask]).sum()),
                durations_us=dur[mask] * 1e6,
            )
        return out

    def counts(self, limit: int | None = None) -> dict:
        """The exact counts later changes may cite; they must repeat run to run."""
        stats = self.stats(limit)
        counts = {f"{n}.calls": s.calls for n, s in stats.items()}
        counts["optimizer.fitness_evals"] = stats[FITNESS].calls
        counts["optimizer.hop_cache_hit_ratio"] = hop_cache_hit_ratio(stats)
        return counts


def hop_cache_hit_ratio(stats: dict[str, LayerStats]) -> float:
    lookups = stats["optimizer.ProblemContext.hop_matrices"].calls
    if lookups == 0:
        return 0.0
    return 1.0 - stats["channel.realize_channels"].calls / lookups


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """One compressed archive: span arrays of every traced sweep, tagged by sweep."""
    np.savez_compressed(
        path,
        span_names=np.array(SPAN_NAMES),
        sweep=np.concatenate([np.full(len(t.name), k, np.int32) for k, t in enumerate(tracers)]),
        name=np.concatenate([np.frombuffer(t.name, np.int32) for t in tracers]),
        parent=np.concatenate([np.frombuffer(t.parent, np.int32) for t in tracers]),
        start_ns=np.concatenate([np.frombuffer(t.start_ns, np.int64) for t in tracers]),
        end_ns=np.concatenate([np.frombuffer(t.end_ns, np.int64) for t in tracers]),
    )
