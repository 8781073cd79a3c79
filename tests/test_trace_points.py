"""The traced sweep benchmark wraps names that exist in the package.

``sweepbench/tracer.py`` patches each (namespace, attribute) pair in its
``TRACE_POINTS``; a refactor that deletes or renames one of them would only
surface when the traced benchmark runs. These tests import the tracer
without writing anything next to it, check every pair, and check that every
searching kind still reaches the spans the benchmark takes percentiles of.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from movable_ris import harness
from movable_ris.baselines import BaselineKind
from movable_ris.scenario import PsoParams, default_config

SWEEPBENCH = Path(__file__).resolve().parents[1] / "sweepbench"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SWEEPBENCH))
    assert "tracer" not in sys.modules
    try:
        module = importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    assert Path(module.__file__).resolve().parent == SWEEPBENCH
    return module


def test_every_trace_point_resolves(tracer):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TRACE_POINTS
        if not hasattr(owner, attr)
    ]
    assert missing == []


@pytest.mark.parametrize("kind", [BaselineKind.MOVABLE_RIS_JOINT,
                                  BaselineKind.FIXED_RIS_OPT_PHASE,
                                  BaselineKind.MOVABLE_RIS_RANDOM_PHASE,
                                  BaselineKind.FD_RELAY])
def test_every_search_reaches_the_percentile_spans(tracer, kind):
    # sweepbench/run.py takes percentiles of these spans' durations, which
    # fails on a span with no calls.
    config, geometry = default_config()
    config = replace(config, tx_antennas=(4, 4), rx_antennas=(4, 4), ris_elements=(2, 2),
                     pso=PsoParams(swarm_size=4, iterations=2))
    spans = tracer.Tracer()
    with tracer.Patcher() as patcher:
        spans.patch(patcher)
        harness.monte_carlo_point(config, geometry, kind, 1, 3)
    stats = spans.stats()
    assert stats["optimizer.run_pso"].calls == 1
    assert stats["beamforming.effective_channel"].calls >= 1
    assert stats["beamforming.achievable_rate"].calls >= 1
