"""The sweep benchmark wraps names that exist in the package.

``sweepbench/tracer.py`` patches each (namespace, attribute) pair in its
``TRACE_POINTS``, and ``sweepbench/checks.py`` wraps the points its history
check reads; a refactor that deletes or renames one of them would only
surface when the benchmark runs. These tests import the benchmark modules
without writing anything next to them, check every pair, and check that
every searching kind still reaches the spans the benchmark takes
percentiles of.
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


def _import_sweepbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SWEEPBENCH))
    assert name not in sys.modules and "tracer" not in sys.modules
    try:
        module = importlib.import_module(name)
    finally:
        sys.modules.pop(name, None)
        sys.modules.pop("tracer", None)  # checks.py imports it too
    assert Path(module.__file__).resolve().parent == SWEEPBENCH
    return module


@pytest.fixture()
def tracer(monkeypatch):
    return _import_sweepbench(monkeypatch, "tracer")


def test_every_trace_point_resolves(tracer):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TRACE_POINTS
        if not hasattr(owner, attr)
    ]
    assert missing == []


def test_every_unused_import_is_a_trace_point(tracer):
    # a name imported only for the tracer must go once TRACE_POINTS stops naming it
    points = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in tracer.TRACE_POINTS}
    package = Path(harness.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        module = f"movable_ris.{path.stem}"
        for line in path.read_text().splitlines():
            code, marker, _ = line.partition("# noqa: F401")
            if marker:
                names = code.rsplit("import ", 1)[-1].replace(",", " ").split()
                stray += [f"{module}.{name}" for name in names if (module, name) not in points]
    assert stray == []


def test_every_history_check_wrap_point_resolves(monkeypatch):
    checks = _import_sweepbench(monkeypatch, "checks")
    wrapped = []

    class Recorder:
        def wrap(self, owner, attr, make):
            wrapped.append((owner, attr))

    checks.HistoryCheck().install(Recorder())
    names = [f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}" for owner, attr in wrapped]
    assert sorted(names) == sorted(["harness.monte_carlo_point", "harness.run_baseline",
                                    "baselines.run_pso", "optimizer.run_pso"])
    missing = [name for (owner, attr), name in zip(wrapped, names) if not hasattr(owner, attr)]
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
    assert stats["optimizer.run"].calls == 1  # every searching kind goes through the one routine
    assert stats["optimizer.run_pso"].calls == 1
    assert stats["beamforming.effective_channel"].calls >= 1
    assert stats["beamforming.achievable_rate"].calls >= 1


def _small_config():
    config, geometry = default_config()
    return replace(config, tx_antennas=(4, 4), rx_antennas=(4, 4), ris_elements=(2, 2),
                   pso=PsoParams(swarm_size=3, iterations=2)), geometry


def _traced_sweep(tracer, spec, config, geometry):
    spans = tracer.Tracer()
    with tracer.Patcher() as patcher:
        spans.patch(patcher)
        harness.sweep(spec, config, geometry)
    return spans


_SWEEPS = [("power", (10.0, 20.0)), ("elements", (4, 16)),
           ("ue_scenarios", ((60.0, 90.0, 2.0), (70.0, 85.0, 2.0)))]


def test_every_swept_value_traces_its_rf_stage_design(tracer):
    # sweepbench/run.py reads beamforming.design_rf_stages per layer. A power sweep keeps its
    # first value's pack, whose stages do not read the power, so it designs them once; every
    # other sweep designs them at each value's first point, never before it.
    config, geometry = _small_config()
    for kind, values in _SWEEPS:
        spec = harness.SweepSpec(kind=kind, values=values,
                                 baselines=(BaselineKind.FIXED_RIS_RANDOM_PHASE,), trials=1, seed=3)
        spans = _traced_sweep(tracer, spec, config, geometry)
        second_value = spans.span_index("harness.monte_carlo_point", 1)
        assert spans.stats(second_value)["beamforming.design_rf_stages"].calls == 1
        assert spans.stats()["beamforming.design_rf_stages"].calls == (1 if kind == "power" else 2)


@pytest.mark.parametrize("kind, values", _SWEEPS)
def test_first_value_spans_equal_a_sweep_of_the_first_value_alone(tracer, kind, values):
    # the check of sweepbench/run.py's per_layer: the spans opened before the second value's
    # first point count what a sweep of the first value alone does, so no later value's work,
    # such as building its pack, runs ahead of that point
    config, geometry = _small_config()
    kinds = (BaselineKind.FD_RELAY, BaselineKind.HD_RELAY, BaselineKind.MOVABLE_RIS_RANDOM_PHASE)
    spec = harness.SweepSpec(kind=kind, values=values, baselines=kinds, trials=2, seed=3)
    spans = _traced_sweep(tracer, spec, config, geometry)
    alone = _traced_sweep(tracer, replace(spec, values=values[:1]), config, geometry)
    first_value = spans.span_index("harness.monte_carlo_point", len(kinds))
    assert first_value < len(spans.name)
    assert spans.counts(first_value) == alone.counts()
