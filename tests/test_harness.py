import gc
import json
import math
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movable_ris import optimizer
from movable_ris.baselines import BaselineKind, build_scenario_pack, trial_channels
from movable_ris.channel import hop_ends, hops
from movable_ris.harness import (
    CSV_HEADER,
    SweepSpec,
    apply_swept_value,
    emit_plot_script,
    monte_carlo_point,
    sweep,
    write_results,
)
from movable_ris.scenario import ConfigError, PsoParams, default_config, parse_config, validate


def read_results_csv(path: Path) -> list[dict]:
    """Parse an emitted CSV back into row dictionaries."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def small_scenario():
    config, geometry = default_config()
    config = replace(
        config,
        tx_antennas=(4, 4),
        rx_antennas=(4, 4),
        ris_elements=(2, 2),
        pso=PsoParams(swarm_size=6, iterations=8, velocity_clamp=0.5),
    )
    return config, geometry


def test_single_trial_mean_and_zero_stderr():
    config, geometry = small_scenario()
    r = monte_carlo_point(config, geometry, BaselineKind.FIXED_RIS_RANDOM_PHASE, 1, 9)
    assert r.trials == 1
    assert r.mean_rate == r.per_trial_rates[0]
    assert r.stderr == 0.0


def test_monte_carlo_deterministic():
    config, geometry = small_scenario()
    a = monte_carlo_point(config, geometry, BaselineKind.MOVABLE_RIS_JOINT, 4, 9)
    b = monte_carlo_point(config, geometry, BaselineKind.MOVABLE_RIS_JOINT, 4, 9)
    assert a.per_trial_rates == b.per_trial_rates
    assert a.mean_rate == b.mean_rate
    assert (a.ris_x, a.ris_y) == (b.ris_x, b.ris_y)


def test_mean_is_average_and_position_in_platform():
    config, geometry = small_scenario()
    r = monte_carlo_point(config, geometry, BaselineKind.MOVABLE_RIS_RANDOM_PHASE, 6, 9)
    assert r.mean_rate == pytest.approx(np.mean(r.per_trial_rates), rel=1e-12)
    assert geometry.contains(r.ris_x, r.ris_y)
    for x, y in r.per_trial_positions:
        assert geometry.contains(x, y)


def test_trial_count_consistency():
    # 50- and 200-trial Monte Carlo estimates agree within 3 pooled SEs
    config, geometry = small_scenario()
    kind = BaselineKind.FIXED_RIS_RANDOM_PHASE
    small = monte_carlo_point(config, geometry, kind, 50, 9)
    large = monte_carlo_point(config, geometry, kind, 200, 9)
    pooled = math.hypot(small.stderr, large.stderr)
    assert abs(small.mean_rate - large.mean_rate) <= 3 * pooled


def test_apply_swept_value():
    config, geometry = small_scenario()
    c2, _ = apply_swept_value(config, geometry, "power", 17.0)
    assert c2.tx_power_dbm == 17.0
    c3, _ = apply_swept_value(config, geometry, "elements", 36)
    assert c3.ris_elements == (6, 6)
    assert apply_swept_value(config, geometry, "elements", 16.0)[0].ris_elements == (4, 4)
    _, g4 = apply_swept_value(config, geometry, "ue_scenarios", (80.0, 60.0, 2.0))
    assert g4.ue_position == (80.0, 60.0, 2.0)
    with pytest.raises(ConfigError):
        apply_swept_value(config, geometry, "elements", 35)  # not a square
    with pytest.raises(ConfigError):
        apply_swept_value(config, geometry, "ue_scenarios", (80.0, 60.0))


@pytest.mark.parametrize("kind, value", [
    ("elements", 16.5), ("elements", 36.9), ("elements", True), ("elements", float("inf")),
    ("elements", "abc"), ("power", "abc"), ("power", None), ("single", None),
    ("ue_scenarios", None), ("ue_scenarios", 5.0), ("ue_scenarios", ("a", 60.0, 2.0)),
])
def test_swept_values_are_refused_not_coerced(kind, value, monkeypatch):
    # a value float() or the element count would coerce raises ConfigError naming it, before
    # any trial runs
    config, geometry = small_scenario()
    with pytest.raises(ConfigError, match=re.escape(repr(value))):
        apply_swept_value(config, geometry, kind, value)
    import movable_ris.harness as harness_mod

    monkeypatch.setattr(harness_mod, "run_baseline", lambda *args: pytest.fail("a trial ran"))
    spec = SweepSpec(kind=kind, values=(30.0, value) if kind == "power" else (value,),
                     baselines=(BaselineKind.FIXED_RIS_RANDOM_PHASE,), trials=1)
    with pytest.raises(ConfigError, match=re.escape(repr(value))):
        sweep(spec, config, geometry)


def test_sweep_cardinality_and_order():
    config, geometry = small_scenario()
    kinds = (BaselineKind.FIXED_RIS_RANDOM_PHASE, BaselineKind.HD_RELAY)
    spec = SweepSpec(kind="power", values=(0.0, 10.0, 20.0), baselines=kinds, trials=2, seed=5)
    results = sweep(spec, config, geometry)
    assert len(results) == 6  # 3 values x 2 kinds
    got = [(r.swept_value, r.baseline) for r in results]
    expected = [(repr(v), k) for v in (0.0, 10.0, 20.0) for k in kinds]
    assert got == expected


def test_sweep_rejects_bad_spec():
    with pytest.raises(ValueError):
        SweepSpec(kind="power", values=())
    with pytest.raises(ValueError):
        SweepSpec(kind="nope", values=(1,))
    with pytest.raises(ValueError):
        SweepSpec(kind="power", values=(1,), trials=0)
    # baselines are refused where they enter: none, a name, or an unknown name
    with pytest.raises(ValueError, match="baseline list must be nonempty"):
        SweepSpec(kind="power", values=(30.0,), baselines=(), trials=1)
    for kind in ("fd_relay", "nope"):
        with pytest.raises(ValueError, match=f"baseline '{kind}' is not a BaselineKind"):
            SweepSpec(kind="power", values=(30.0,), baselines=(kind,), trials=1)


@pytest.mark.parametrize("kind, value", [
    ("elements", 0),  # unchecked, an IndexError from inside the RF-stage design
    ("power", math.nan),  # unchecked, two failed NaN trials
    ("ue_scenarios", (50.0, 50.0, 5.0)),  # on the RIS plane: unchecked, 38.33 bps/Hz
    ("ue_scenarios", (50.0, 50.0, 9.0)),  # above it: unchecked, 31.74 bps/Hz
])
def test_sweep_rejects_an_invalid_point_before_any_trial(monkeypatch, kind, value):
    import movable_ris.harness as harness_mod

    ran = []
    monkeypatch.setattr(harness_mod, "run_baseline", lambda *args: ran.append(args))
    valid = {"elements": 16, "power": 30.0, "ue_scenarios": (60.0, 90.0, 2.0)}[kind]
    spec = SweepSpec(kind=kind, values=(valid, value),
                     baselines=(BaselineKind.MOVABLE_RIS_JOINT,), trials=2)
    with pytest.raises(ConfigError, match=f"invalid {kind} value"):
        harness_mod.sweep(spec, *default_config())
    assert ran == []


def test_write_results_round_trip(tmp_path):
    config, geometry = small_scenario()
    spec = SweepSpec(
        kind="power",
        values=(0.0, 10.0),
        baselines=(BaselineKind.FIXED_RIS_RANDOM_PHASE,),
        trials=2,
        seed=5,
    )
    results = sweep(spec, config, geometry)
    csv_path, meta_path = write_results(results, tmp_path, config, geometry)
    text = csv_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    rows = read_results_csv(csv_path)
    assert len(rows) == len(results)
    for row, r in zip(rows, results):
        assert row["baseline"] == r.baseline.value
        assert float(row["mean_rate_bpshz"]) == r.mean_rate
        assert row["config_digest"] == r.config_digest
    meta = json.loads(meta_path.read_text())
    assert meta["config"]["ris_elements"] == [2, 2]
    assert meta["conventions"]["fixed_ris_position"] == "platform center"
    assert len(meta["results"]) == len(results)


def test_write_results_refuses_empty(tmp_path):
    config, geometry = small_scenario()
    with pytest.raises(ValueError, match="empty"):
        write_results([], tmp_path, config, geometry)


def test_plot_script_power(tmp_path):
    config, geometry = small_scenario()
    spec = SweepSpec(
        kind="power",
        values=(0.0, 10.0),
        baselines=(BaselineKind.FIXED_RIS_RANDOM_PHASE, BaselineKind.HD_RELAY),
        trials=1,
        seed=5,
    )
    results = sweep(spec, config, geometry)
    write_results(results, tmp_path, config, geometry)
    script = emit_plot_script(results, tmp_path / "plot_results.py", geometry)
    text = script.read_text()
    assert "results.csv" in text
    # portability: no absolute paths embedded
    assert str(tmp_path) not in text
    assert compile(text, str(script), "exec") is not None


def test_plot_script_ue_scenarios_executes(tmp_path, monkeypatch):
    # an optimizing baseline exercises the numpy-position path in the CSV
    config, geometry = small_scenario()
    spec = SweepSpec(
        kind="ue_scenarios",
        values=((80.0, 60.0, 2.0), (60.0, 90.0, 2.0)),
        baselines=(BaselineKind.FIXED_RIS_RANDOM_PHASE, BaselineKind.MOVABLE_RIS_JOINT),
        trials=1,
        seed=5,
    )
    results = sweep(spec, config, geometry)
    write_results(results, tmp_path, config, geometry)
    script = emit_plot_script(results, tmp_path / "plot_results.py", geometry)
    text = script.read_text()
    assert "Rectangle" in text  # platform outline for the position scatter
    assert "bar" in text
    # every CSV position field must parse as a plain float
    for row in read_results_csv(tmp_path / "results.csv"):
        float(row["ris_x"])
        float(row["ris_y"])
    pytest.importorskip("matplotlib")
    monkeypatch.setenv("MPLBACKEND", "Agg")
    import subprocess as sp
    import sys as _sys

    proc = sp.run([_sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.png").exists()


def test_plot_script_refuses_mixed_kinds(tmp_path):
    config, geometry = small_scenario()
    a = sweep(
        SweepSpec(kind="power", values=(0.0,), baselines=(BaselineKind.HD_RELAY,), trials=1, seed=5),
        config, geometry,
    )
    b = sweep(
        SweepSpec(kind="elements", values=(4,), baselines=(BaselineKind.HD_RELAY,), trials=1, seed=5),
        config, geometry,
    )
    with pytest.raises(ValueError, match="mixed"):
        emit_plot_script(a + b, tmp_path / "p.py", geometry)
    with pytest.raises(ValueError, match="no results to plot"):
        emit_plot_script([], tmp_path / "p.py", geometry)


def test_dump_channels_written(tmp_path):
    config, geometry = small_scenario()
    monte_carlo_point(
        config, geometry, BaselineKind.FIXED_RIS_RANDOM_PHASE, 2, 9, dump_dir=tmp_path
    )
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [
        "fixed_ris_random_phase_trial000_ris_rx.txt",
        "fixed_ris_random_phase_trial000_tx_ris.txt",
        "fixed_ris_random_phase_trial001_ris_rx.txt",
        "fixed_ris_random_phase_trial001_tx_ris.txt",
    ]
    header, *rows = (tmp_path / files[0]).read_text().splitlines()
    assert header == "# complex matrix 16 4"
    assert len(rows) == 16
    assert len(rows[0].split()) == 8  # 4 columns as re/im pairs


@pytest.mark.parametrize("kind", list(BaselineKind))
def test_dumped_hops_have_the_platform_node_s_arrays(tmp_path, kind):
    config, geometry = small_scenario()
    config = replace(config, rx_antennas=(2, 4))  # 8 receive antennas against 16 transmit
    result = monte_carlo_point(config, geometry, kind, 1, 9, dump_dir=tmp_path)
    relay = kind in (BaselineKind.FD_RELAY, BaselineKind.HD_RELAY)
    # a relay receives hop 1 on its receive array and sends hop 2 from its transmit array
    platform = (config.num_rx, config.num_tx) if relay else (config.num_ris, config.num_ris)
    shapes = {"tx_ris": (platform[0], config.num_tx), "ris_rx": (config.num_rx, platform[1])}
    dumped = {}
    for link, shape in shapes.items():
        header, *rows = (tmp_path / f"{kind.value}_trial000_{link}.txt").read_text().splitlines()
        assert header == "# complex matrix {} {}".format(*shape)
        dumped[link] = np.array([row.split() for row in rows], dtype=float).view(complex)
    if relay:  # the hops the relay's reported rate is taken on
        trial = trial_channels(build_scenario_pack(config, geometry, 9), 0)
        relay_hops = hops(config, geometry, trial, np.array(result.per_trial_positions),
                          hop_ends(config, (config.rx_antennas, config.tx_antennas)))
        for link, (hop,) in zip(shapes, relay_hops):
            assert dumped[link].tobytes() == hop.tobytes()


def test_sweep_spec_rejects_negative_seeds():
    with pytest.raises(ValueError, match="seeds must be non-negative"):
        SweepSpec(kind="power", values=(1,), seed=-1)
    with pytest.raises(ValueError, match="seeds must be non-negative"):
        SweepSpec(kind="power", values=(1,), pso_seed=-3)


def test_pso_seed_rekeys_search_only():
    config, geometry = small_scenario()
    kind = BaselineKind.MOVABLE_RIS_JOINT
    base = monte_carlo_point(config, geometry, kind, 3, 9)
    rekeyed = monte_carlo_point(config, geometry, kind, 3, 9, pso_seed=777)
    assert base.per_trial_rates != rekeyed.per_trial_rates
    # schemes without a search are untouched by the pso seed
    kind = BaselineKind.FIXED_RIS_RANDOM_PHASE
    a = monte_carlo_point(config, geometry, kind, 3, 9)
    b = monte_carlo_point(config, geometry, kind, 3, 9, pso_seed=777)
    assert a.per_trial_rates == b.per_trial_rates


def test_trial_failures_recorded_and_point_flagged(monkeypatch):
    import movable_ris.harness as harness_mod

    config, geometry = small_scenario()
    real_run = harness_mod.run_baseline

    def flaky(kind, pack, trial_index):
        if trial_index % 3 == 0:
            raise np.linalg.LinAlgError("injected trial failure")
        return real_run(kind, pack, trial_index)

    monkeypatch.setattr(harness_mod, "run_baseline", flaky)
    r = harness_mod.monte_carlo_point(
        config, geometry, BaselineKind.FIXED_RIS_RANDOM_PHASE, 9, 9
    )
    assert r.failed_trials == [0, 3, 6]
    assert r.point_flagged  # 3/9 > 10%
    assert len(r.per_trial_rates) == 6
    assert r.mean_rate == pytest.approx(np.mean(r.per_trial_rates))


def test_trial_bug_propagates(monkeypatch):
    import movable_ris.harness as harness_mod

    config, geometry = small_scenario()

    def broken(kind, pack, trial_index):
        raise IndexError("injected shape bug")

    monkeypatch.setattr(harness_mod, "run_baseline", broken)
    with pytest.raises(IndexError, match="injected shape bug"):
        harness_mod.monte_carlo_point(
            config, geometry, BaselineKind.FIXED_RIS_RANDOM_PHASE, 3, 9
        )


def test_non_finite_rate_is_a_failed_trial(monkeypatch):
    import movable_ris.harness as harness_mod

    config, geometry = small_scenario()
    real_run = harness_mod.run_baseline

    def nan_on_one(kind, pack, trial_index):
        outcome = real_run(kind, pack, trial_index)
        if trial_index == 1:
            outcome = replace(outcome, rate=math.nan)
        return outcome

    monkeypatch.setattr(harness_mod, "run_baseline", nan_on_one)
    r = harness_mod.monte_carlo_point(
        config, geometry, BaselineKind.FIXED_RIS_RANDOM_PHASE, 4, 9
    )
    assert r.failed_trials == [1]
    assert len(r.per_trial_rates) == len(r.per_trial_positions) == 3
    assert all(math.isfinite(rate) for rate in r.per_trial_rates)
    assert math.isfinite(r.mean_rate)


def test_mean_rate_non_decreasing_in_power_per_kind():
    config, geometry = small_scenario()
    spec = SweepSpec(
        kind="power",
        values=(0.0, 15.0, 30.0),
        baselines=tuple(BaselineKind),
        trials=5,
        seed=9,
    )
    results = sweep(spec, config, geometry)
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.baseline, []).append((float(r.swept_value), r.mean_rate))
    for kind, series in by_kind.items():
        series.sort()
        rates = [m for _, m in series]
        assert rates == sorted(rates), f"{kind.value} mean not non-decreasing: {rates}"


def test_element_sweep_shares_trials_across_sizes():
    # common random numbers across the swept element counts
    config, geometry = small_scenario()
    spec = SweepSpec(
        kind="elements",
        values=(4, 16),
        baselines=(BaselineKind.HD_RELAY,),
        trials=3,
        seed=5,
    )
    results = sweep(spec, config, geometry)
    # the relay does not involve the RIS: identical trials give identical rates
    assert results[0].per_trial_rates == results[1].per_trial_rates


@contextmanager
def _point_packs():
    """Each ``monte_carlo_point`` call's pack, with the count of kept evaluations that its
    search traces held when the point took it, in call order."""
    import movable_ris.harness as harness_mod

    seen = []
    real = harness_mod._point_pack

    def taken(*args):
        pack = real(*args)
        seen.append((pack, _kept_count(pack)))
        return pack

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_mod, "_point_pack", taken)
        yield seen


def _kept_count(pack):
    """How many evaluations' cores a pack's search traces hold, one per row of each trace."""
    return sum(len(trace.cores) for trace in pack.search_traces.values()
               if trace.cores is not None)


def _traces(pack):
    """The identities of a pack's search traces, by (searching kind, trial)."""
    return {key: id(trace) for key, trace in pack.search_traces.items()}


@contextmanager
def _retrace_log():
    """Per search trace, each run's evaluations in order, as (the particles' bytes, whether the
    evaluation retraced the run before: it took no SVD of its own)."""
    runs, svds = {}, []
    real_objective, real_core = optimizer.SearchTrace.objective, optimizer._gram_core

    def objective(trace, context, decoder, evaluations):
        score, decisions = real_objective(trace, context, decoder, evaluations)
        run = []
        runs.setdefault(id(trace), []).append(run)

        def logged(v):
            count = len(svds)
            values = score(v)
            run.append((v.tobytes(), len(svds) == count))
            return values
        return logged, decisions

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer.SearchTrace, "objective", objective)
        mp.setattr(optimizer, "_gram_core", lambda *args: svds.append(1) or real_core(*args))
        yield runs


_RELAY = (BaselineKind.FD_RELAY, BaselineKind.HD_RELAY)
_SEARCHING = (BaselineKind.MOVABLE_RIS_JOINT, BaselineKind.FIXED_RIS_OPT_PHASE,
              BaselineKind.MOVABLE_RIS_RANDOM_PHASE, BaselineKind.FD_RELAY)


@given(seed=st.integers(0, 11),
       powers=st.lists(st.sampled_from([-30.0, 0.0, 10.0, 20.0, 30.0, 40.0, 2000.0]),
                       min_size=2, max_size=4),
       trials=st.integers(1, 2), order=st.sampled_from([1, -1]))
@example(seed=3, powers=[-30.0, 0.0, 40.0, 40.0, 2000.0], trials=1, order=1)
@settings(max_examples=5, deadline=None)
def test_power_sweep_retracing_searches_equals_each_power_alone(seed, powers, trials, order):
    # a power step's searches, of every kind, retrace the step before's while their decisions
    # agree, and every retraced evaluation scores the particles of the step before, byte for
    # byte; the results keep the bytes of a sweep of each power alone, whose traces start empty
    config, geometry = default_config()
    kinds = tuple(BaselineKind)[::order]
    spec = SweepSpec(kind="power", values=tuple(powers), baselines=kinds, trials=trials, seed=seed)
    with _point_packs() as seen, _retrace_log() as runs:
        results = sweep(spec, config, geometry)
    first = _traces(seen[0][0])
    assert set(first) == {(kind, t) for kind in _SEARCHING for t in range(trials)}
    assert all(_traces(pack) == first for pack, _ in seen)  # one trace per search, chain-wide
    evaluations = config.pso.iterations + 1
    assert all(trace.cores.shape[0] == evaluations for trace in seen[0][0].search_traces.values())
    for chain in runs.values():
        assert len(chain) <= len(powers)  # fd_relay does not search again at a repeated value
        for before, after in zip(chain, chain[1:]):
            assert after[0][1]  # the first evaluation's particles come from the rng stream alone
            for (particles, again), (earlier, _) in zip(after, before):
                assert not again or particles == earlier
    alone = [result for power in powers
             for result in sweep(replace(spec, values=(power,)), config, geometry)]
    assert repr(results) == repr(alone)


@pytest.mark.parametrize("kind, values, baselines, kept", [
    ("power", (10.0, 20.0, 20.0), (*_SEARCHING, BaselineKind.HD_RELAY), True),
    ("power", (10.0,), _SEARCHING, False),  # no step
    ("power", (10.0, 20.0), (BaselineKind.FIXED_RIS_RANDOM_PHASE,), False),  # no search
    ("elements", (4, 16), _SEARCHING, False),
    ("ue_scenarios", ((60.0, 90.0, 2.0), (70.0, 85.0, 2.0)), _SEARCHING, False),
])
def test_only_power_steps_carry_every_search_trace(kind, values, baselines, kept):
    # a value's first point starts from the search traces, of every searching kind, of the value
    # before only at a power step; every other value builds its pack, with no trace
    config, geometry = small_scenario()
    spec = SweepSpec(kind=kind, values=values, baselines=baselines, trials=2, seed=3)
    with _point_packs() as seen:
        sweep(spec, config, geometry)
    assert len(seen) == len(values) * len(baselines)
    firsts = seen[::len(baselines)]  # each value's first point; the kinds after it share its pack
    assert all(seen[i][0] is seen[i - 1][0] for i in range(len(seen)) if i % len(baselines))
    assert firsts[0][1] == 0 and all((taken > 0) == kept for _, taken in firsts[1:])
    # a power step carries the traces of the value before; other steps start anew
    traces = {tuple(_traces(pack).items()) for pack, _ in firsts}
    assert len(traces) == (1 if kind == "power" else len(values))


def test_a_power_chains_traces_hold_one_core_row_per_evaluation():
    # what one power chain's search traces hold: one (6, links, Z) core row per evaluation and,
    # measured by tracemalloc, numpy arrays of at most (iterations + 1) x Z x 6 float64 per RIS
    # search and twice that per relay search, and Python objects (the decision records, the
    # traces and the stores' entries) of at most (iterations + 1) x (Z + 128) bytes per search
    config, geometry = small_scenario()
    spec = SweepSpec(kind="power", values=(10.0, 20.0, 30.0), baselines=tuple(BaselineKind),
                     trials=2, seed=3)
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)  # numpy's arrays

    def held(snapshot):
        """(numpy array bytes, other bytes) traced in ``snapshot``."""
        arrays = snapshot.filter_traces([domain]).statistics("filename")
        others = snapshot.filter_traces([tracemalloc.DomainFilter(False, domain.domain)])
        return np.array([sum(stat.size for stat in stats)
                         for stats in (arrays, others.statistics("filename"))])

    swarm, evaluations = config.pso.swarm_size, config.pso.iterations + 1
    with _point_packs() as seen:
        tracemalloc.start()
        try:
            sweep(spec, config, geometry)
            gc.collect()
            kept = held(tracemalloc.take_snapshot())
            traces = seen[-1][0].search_traces
            assert sorted(traces) == sorted((kind, t) for kind in _SEARCHING for t in range(2))
            for (kind, _), trace in traces.items():
                links = 2 if kind in _RELAY else 1
                assert trace.cores.shape == (evaluations, 6, links, swarm)
            for pack, _ in seen:
                pack.search_traces.clear()
            gc.collect()
            arrays, others = kept - held(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
    searches = spec.trials * len(_SEARCHING)
    relays = spec.trials  # fd_relay's, whose cores hold both hops
    assert arrays <= (searches + relays) * evaluations * swarm * 6 * 8
    assert others <= searches * evaluations * (swarm + 128)
    assert arrays > 0 and others > 0


# Config-file values a fuzzed line draws from: small counts (arrays of at most
# 3x3, at most 3 paths) and floats from plausible to extreme and non-finite.
_COUNT = st.integers(-1, 3).map(str)
_FLOAT = st.one_of(
    st.floats(-1.0, 100.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]),
).map(repr)
_FUZZ_KEYS = {
    **{key: (_COUNT, 2) for key in ("tx_antennas", "rx_antennas", "ris_elements")},
    **{key: (_COUNT, 1) for key in ("num_paths", "num_streams", "max_rf_chains", "rng_seed")},
    **{key: (_FLOAT, 2) for key in ("angular_spread_deg", "platform_x_range", "platform_y_range")},
    **{key: (_FLOAT, 3) for key in ("tx_position", "ue_position")},
    **{key: (_FLOAT, 1) for key in (
        "carrier_frequency_ghz", "bandwidth_hz", "noise_psd_dbm_per_hz", "tx_power_dbm",
        "path_loss_exponent", "element_spacing_wavelengths", "ris_height_m",
        "pso_social_weight", "pso_cognitive_weight", "pso_inertia_start", "pso_inertia_end",
        "pso_velocity_clamp")},
    "path_loss_mode": (st.sampled_from(["alpha", "db", "dB"]), 1),
}


@st.composite
def _config_texts(draw) -> str:
    """A few ``key = value`` lines, now and then with a wrong token count."""
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(_FUZZ_KEYS)), unique=True, max_size=5)):
        token, count = _FUZZ_KEYS[key]
        count = draw(st.sampled_from([count] * 9 + [count + 1]))
        lines.append(f"{key} = {' '.join(draw(st.lists(token, min_size=count, max_size=count)))}")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_fuzzed_config_ends_in_an_error_a_recorded_failure_or_a_finite_rate(text):
    config, geometry = default_config()
    base = (replace(config, tx_antennas=(2, 2), rx_antennas=(2, 2), ris_elements=(2, 2),
                    num_paths=2, pso=PsoParams(swarm_size=3, iterations=2)), geometry)
    try:
        config, geometry = parse_config(text, base)
    except ConfigError:
        return
    errors = validate(config, geometry)
    try:  # the pack rejects every configuration validate does, and an RF design short of beams
        build_scenario_pack(config, geometry, config.rng_seed)
    except ConfigError as exc:
        assert not errors or str(exc) == "invalid configuration: " + "; ".join(errors), text
        return
    assert not errors, (errors, text)
    for kind in BaselineKind:
        result = monte_carlo_point(config, geometry, kind, 1, config.rng_seed)
        assert result.failed_trials or math.isfinite(result.mean_rate), (kind, text)
