import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _, g4 = apply_swept_value(config, geometry, "ue_scenarios", (80.0, 60.0, 2.0))
    assert g4.ue_position == (80.0, 60.0, 2.0)
    with pytest.raises(ConfigError):
        apply_swept_value(config, geometry, "elements", 35)  # not a square
    with pytest.raises(ConfigError):
        apply_swept_value(config, geometry, "ue_scenarios", (80.0, 60.0))


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
