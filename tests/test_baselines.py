import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movable_ris import baselines, optimizer
from movable_ris.beamforming import _COND_LIMIT, rf_stage
from movable_ris.baselines import (
    BaselineKind,
    ScenarioPack,
    build_scenario_pack,
    make_problem_context,
    relay_rate,
    run_baseline,
    trial_channels,
)
from movable_ris.harness import apply_swept_value
from movable_ris.scenario import ConfigError, PsoParams, default_config, rng_stream
from test_acceptance import SEED, UE_POSITIONS, _random_scenario


def small_pack(seed=42, **config_overrides):
    """Reduced arrays so statistical tests stay fast."""
    config, geometry = default_config()
    overrides = dict(
        tx_antennas=(4, 4),
        rx_antennas=(4, 4),
        ris_elements=(4, 4),
        pso=PsoParams(swarm_size=8, iterations=12, velocity_clamp=0.5),
    )
    overrides.update(config_overrides)
    config = replace(config, **overrides)
    return config, geometry, build_scenario_pack(config, geometry, seed)


def test_all_kinds_finite_smoke():
    config, geometry, pack = small_pack()
    rates = {}
    for kind in BaselineKind:
        out = run_baseline(kind, pack, 0)
        assert math.isfinite(out.rate) and out.rate >= 0
        assert geometry.contains(out.x, out.y)
        rates[kind] = out.rate
    # ordering recorded; upper bound property on this trial
    assert rates[BaselineKind.FD_RELAY] >= rates[BaselineKind.MOVABLE_RIS_JOINT]


def test_common_random_numbers_share_path_sets():
    _, _, pack = small_pack()
    t_a = trial_channels(pack, 3)
    t_b = trial_channels(pack, 3)
    np.testing.assert_array_equal(t_a.gains, t_b.gains)
    np.testing.assert_array_equal(t_a.offsets, t_b.offsets)
    # different trials get different draws
    t_c = trial_channels(pack, 4)
    assert not np.allclose(t_a.gains, t_c.gains)


def test_trial_draw_independent_of_ris_size():
    # element sweeps reuse identical trials: draws depend only on L and spreads
    _, _, pack_small = small_pack()
    _, _, pack_large = small_pack(ris_elements=(10, 10))
    a = trial_channels(pack_small, 5)
    b = trial_channels(pack_large, 5)
    np.testing.assert_array_equal(a.gains, b.gains)
    np.testing.assert_array_equal(a.offsets, b.offsets)


def test_run_baseline_deterministic():
    _, _, pack = small_pack()
    for kind in (BaselineKind.MOVABLE_RIS_JOINT, BaselineKind.FD_RELAY):
        a = run_baseline(kind, pack, 1)
        b = run_baseline(kind, pack, 1)
        assert a.rate == b.rate
        assert (a.x, a.y) == (b.x, b.y)


def test_optimized_phase_beats_random_statistically():
    _, _, pack = small_pack()
    opt, rand = [], []
    for t in range(25):
        opt.append(run_baseline(BaselineKind.FIXED_RIS_OPT_PHASE, pack, t).rate)
        rand.append(run_baseline(BaselineKind.FIXED_RIS_RANDOM_PHASE, pack, t).rate)
    assert np.mean(opt) > np.mean(rand)
    # optimization dominates per matched trial as well (same frozen channel)
    assert np.mean(np.array(opt) >= np.array(rand)) >= 0.9


def test_single_element_phase_invariance():
    # with one reflecting element the phase is a global factor the combining
    # absorbs: optimized and random phases give the same rate on every trial
    _, _, pack = small_pack(ris_elements=(1, 1))
    for t in range(5):
        opt = run_baseline(BaselineKind.FIXED_RIS_OPT_PHASE, pack, t).rate
        rand = run_baseline(BaselineKind.FIXED_RIS_RANDOM_PHASE, pack, t).rate
        assert opt == pytest.approx(rand, abs=1e-9)


def test_hd_is_exactly_half_fd():
    _, _, pack = small_pack()
    for t in range(10):
        fd = relay_rate(pack, t, "fd")
        hd = relay_rate(pack, t, "hd")
        assert hd.rate == fd.rate / 2.0  # exact float halving
        assert (hd.x, hd.y) == (fd.x, fd.y)


def test_fd_then_hd_runs_one_search(monkeypatch):
    _, _, pack = small_pack(seed=43)
    run_pso = optimizer.run_pso
    searches = []

    def counting(*args, **kwargs):
        searches.append(1)
        return run_pso(*args, **kwargs)

    monkeypatch.setattr(optimizer, "run_pso", counting)
    fd = relay_rate(pack, 0, "fd")
    hd = relay_rate(pack, 0, "hd")
    assert len(searches) == 1
    assert hd.rate == fd.rate / 2.0


def test_hd_first_on_new_pack_is_half_fd():
    _, _, pack = small_pack(seed=44)
    for t in range(3):
        hd = relay_rate(replace(pack), t, "hd")
        fd = relay_rate(replace(pack), t, "fd")
        assert hd.rate == fd.rate / 2.0
        assert (hd.x, hd.y) == (fd.x, fd.y)


def test_scenario_packs_of_equal_arguments_share_no_mutable_state():
    # no pack is handed out twice: a search on one leaves another of equal arguments as built
    config, geometry, pack = small_pack(seed=5)
    other = build_scenario_pack(config, geometry, 5)
    assert other is not pack
    for name in STAGES:
        stage, same = getattr(pack, name), getattr(other, name)
        assert stage.tobytes() == same.tobytes() and not np.shares_memory(stage, same)
    relay_rate(pack, 0, "fd")
    assert list(pack.fd_relay_outcomes) == [0]
    assert list(pack.search_traces) == [(BaselineKind.FD_RELAY, 0)]
    assert other.fd_relay_outcomes == other.search_traces == {}
    assert other.beams is not pack.beams and other.search_ends is not pack.search_ends


def _beam_moved_one_cell(stage, shape, spacing):
    """``stage`` with beam 0 moved one cell of its array's cosine grid along x."""
    lam_x, lam_y = np.angle(stage[0, [shape[1], 1]] / stage[0, 0]) / (2 * math.pi * spacing)
    stage = stage.copy()
    stage[0] = rf_stage([(lam_x + 2.0 / shape[0], lam_y)], shape, spacing)[0]
    return stage


def test_a_replaced_pack_reuses_no_relay_search(monkeypatch):
    # after a relay search on a pack, a pack made by replace with other stages gives the relay
    # outcomes of a new pack of its fields, and one made by replace alone searches afresh
    config, geometry = default_config()
    pack = build_scenario_pack(config, geometry, 1)
    searched = relay_rate(pack, 0, "fd")
    stage = _beam_moved_one_cell(pack.relay_f2_hop1, config.rx_antennas,
                                 config.element_spacing_wavelengths)
    moved = replace(pack, relay_f2_hop1=stage)
    built = ScenarioPack(config, geometry, 1, **{name: getattr(moved, name) for name in STAGES})
    for duplex in ("fd", "hd"):
        assert repr(relay_rate(moved, 0, duplex)) == repr(relay_rate(built, 0, duplex))
    assert relay_rate(moved, 0, "fd").rate != searched.rate
    searches = []
    run_pso = optimizer.run_pso
    monkeypatch.setattr(optimizer, "run_pso", lambda *args: searches.append(1) or run_pso(*args))
    again = replace(pack)
    assert again.fd_relay_outcomes == again.search_traces == {}
    fresh = relay_rate(again, 0, "fd")
    assert searches == [1] and fresh is not searched and repr(fresh) == repr(searched)
    key = (BaselineKind.FD_RELAY, 0)
    assert again.search_traces[key] is not pack.search_traces[key]


def test_unset_pso_seed_keys_the_searches_by_the_channel_seed():
    config, geometry, pack = small_pack(seed=45)
    assert pack.pso_seed is None
    same = build_scenario_pack(config, geometry, 45, 45)
    other = build_scenario_pack(config, geometry, 45, 46)
    kind = BaselineKind.MOVABLE_RIS_JOINT
    base, resolved = run_baseline(kind, pack, 0), run_baseline(kind, same, 0)
    assert (resolved.rate, resolved.x, resolved.y) == (base.rate, base.x, base.y)
    np.testing.assert_array_equal(resolved.phases, base.phases)
    assert run_baseline(kind, other, 0).rate != base.rate


def test_relay_rejects_unknown_duplex():
    _, _, pack = small_pack()
    with pytest.raises(ValueError):
        relay_rate(pack, 0, "xd")


def test_movable_joint_delegates_to_optimizer_run():
    from movable_ris.optimizer import run
    from movable_ris.scenario import STREAM_PSO, rng_stream

    config, geometry, pack = small_pack()
    out = run_baseline(BaselineKind.MOVABLE_RIS_JOINT, pack, 2)
    ctx = make_problem_context(pack, 2)
    state, rate, _ = run(ctx, config.pso, rng_stream(pack.seed, 2, STREAM_PSO, 0))
    assert out.rate == rate
    assert (out.x, out.y) == (state.x, state.y)


def test_relay_symmetric_geometry_prefers_midline(monkeypatch):
    # Tx and UE mirror-placed across the platform diagonal with a single
    # unit-gain path per hop: the min-hop surface is deterministic and
    # mirror-symmetric, so a dense grid oracle must peak on the hop-balancing
    # midline x + y = 110 (up to grid resolution)
    config, geometry = default_config()
    config = replace(
        config,
        tx_antennas=(4, 4),
        rx_antennas=(4, 4),
        num_paths=1,
        angular_spread_deg=(0.0, 0.0),
    )
    geometry = replace(geometry, tx_position=(0.0, 0.0, 2.0), ue_position=(110.0, 110.0, 2.0))
    pack = build_scenario_pack(config, geometry, 7)
    trial = trial_channels(pack, 0)
    monkeypatch.setattr(baselines, "trial_channels",
                        lambda pack, index: replace(trial, gains=np.ones_like(trial.gains)))
    relay = baselines._RelaySearch(pack, 0)
    grid = np.linspace(40.0, 70.0, 13)
    xy = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    rates = relay.rate_for(optimizer.RisState(xy[:, 0], xy[:, 1], None, xy))
    best_xy = xy[np.argmax(rates)]  # the first maximum, x before y as the grid loop found it
    step = grid[1] - grid[0]
    assert abs(best_xy[0] + best_xy[1] - 110.0) <= step + 1e-9


def test_dominance_chain_small_scale():
    # means over matched trials; reduced arrays and budget keep this quick
    _, _, pack = small_pack()
    kinds = [
        BaselineKind.FD_RELAY,
        BaselineKind.MOVABLE_RIS_JOINT,
        BaselineKind.MOVABLE_RIS_RANDOM_PHASE,
        BaselineKind.FIXED_RIS_OPT_PHASE,
        BaselineKind.FIXED_RIS_RANDOM_PHASE,
    ]
    means = {
        kind: np.mean([run_baseline(kind, pack, t).rate for t in range(20)])
        for kind in kinds
    }
    assert means[BaselineKind.FD_RELAY] >= means[BaselineKind.MOVABLE_RIS_JOINT]
    assert means[BaselineKind.MOVABLE_RIS_JOINT] >= means[BaselineKind.MOVABLE_RIS_RANDOM_PHASE]
    assert means[BaselineKind.MOVABLE_RIS_JOINT] >= means[BaselineKind.FIXED_RIS_OPT_PHASE]
    assert means[BaselineKind.FIXED_RIS_OPT_PHASE] >= means[BaselineKind.FIXED_RIS_RANDOM_PHASE]


# sha256 of the shapes and bytes of every pack's four RF stages, in _stage_packs
# order. Every rate in every output is computed through these stages.
RF_STAGE_DIGEST = "74dd946aa8fec51663d2eaf739315b993e3faa2bcec0f71fc75b400e4ad07a22"


def _stage_packs():
    """The default scenario, the benchmark's swept UE positions and element counts,
    and 200 random scenarios of the constraint-suite kind."""
    config, geometry = default_config()
    yield config, geometry
    for kind, values in (("ue_scenarios", UE_POSITIONS), ("elements", (16, 36, 64, 100))):
        for value in values:
            yield apply_swept_value(config, geometry, kind, value)
    rng = rng_stream(SEED, 103)
    for _ in range(200):
        yield _random_scenario(rng)


def test_rf_stage_bytes_are_pinned():
    digest = hashlib.sha256()
    for config, geometry in _stage_packs():
        pack = build_scenario_pack(config, geometry, 0)
        for stage in (pack.f1, pack.f2, pack.relay_f2_hop1, pack.relay_f1_hop2):
            digest.update(repr(stage.shape).encode())
            digest.update(stage.tobytes())
    assert digest.hexdigest() == RF_STAGE_DIGEST


# --- what enters a pack ----------------------------------------------------------

STAGES = ("f1", "f2", "relay_f2_hop1", "relay_f1_hop2")


def _beam_rows(pack, name):
    """A stage's beams as rows: a combiner's rows, a precoder's columns."""
    stage = getattr(pack, name)
    return stage if "f2" in name else stage.T


# Configurations scenario.validate rejects, each with the message the pack raises it with.
_INVALID = [
    ({"num_streams": 0}, {}, "num_streams must be >= 1"),
    ({"ris_elements": (0, 0)}, {}, "ris_elements: counts must be >= 1, got (0, 0)"),
    ({"tx_power_dbm": math.nan}, {}, "tx_power_dbm must be finite, got nan"),
    ({}, {"ue_position": (100.0, 100.0, 5.0)},
     "ue_position z = 5.0 must lie below the RIS plane (ris_height_m = 5.0)"),
    ({"num_paths": 0}, {}, "num_paths must be >= 1"),
    ({"element_spacing_wavelengths": 0.0}, {}, "element spacing must be positive"),
    ({"num_streams": 2, "max_rf_chains": 1}, {}, "streams exceed RF chains (2 > 1)"),
    # a platform move would turn a path's phase past float64's radian resolution
    ({"carrier_frequency_ghz": 1e300}, {}, "carrier_frequency_ghz = 1e+300 turns a path's phase by "
     "up to 4.446e+302 rad across the platform; past 2**52 rad, float64 cannot resolve a radian"),
    ({"carrier_frequency_ghz": 1e307}, {}, "carrier_frequency_ghz = 1e+307 turns a path's phase by "
     "up to inf rad across the platform; past 2**52 rad, float64 cannot resolve a radian"),
    # P / sigma^2 passes the float range from about 2,978.5 dBm at the default noise; the
    # reference's I + W^-1 Q did from about 3,050 dBm, and it warned in slogdet
    ({"tx_power_dbm": 3050.0}, {}, "transmit over noise power (1e+302 W / 3.981e-14 W) passes the "
     "float range; check tx_power_dbm, noise_psd_dbm_per_hz and bandwidth_hz"),
    ({"tx_power_dbm": 3100.0}, {}, "transmit over noise power (1e+307 W / 3.981e-14 W) passes the "
     "float range; check tx_power_dbm, noise_psd_dbm_per_hz and bandwidth_hz"),
    # the path gains bound I + W^-1 Q too: with the Tx under the platform centre 1 m and 0.01 m
    # below the RIS plane, the relay's reference warned in slogdet and gave NaN at these powers
    ({"tx_power_dbm": 2978.547}, {"tx_position": (55.0, 55.0, 4.0)},
     "tx_power_dbm = 2978.547 passes the float range in the rate's I + W^-1 Q: over a noise "
     "power of 3.981e-14 W, at the largest path amplitudes 0.1277 (Tx) and 0.01767 (UE), its "
     "bound is e^793.7; check tx_power_dbm, noise_psd_dbm_per_hz, path_loss_exponent and the "
     "node heights"),
    ({"tx_power_dbm": 2900.0}, {"tx_position": (55.0, 55.0, 4.99)},
     "tx_power_dbm = 2900.0 passes the float range in the rate's I + W^-1 Q: over a noise "
     "power of 3.981e-14 W, at the largest path amplitudes 508.3 (Tx) and 0.01767 (UE), its "
     "bound is e^792.2; check tx_power_dbm, noise_psd_dbm_per_hz, path_loss_exponent and the "
     "node heights"),
    ({"rng_seed": -1}, {}, "rng_seed must be a non-negative 64-bit integer"),
]


@pytest.mark.parametrize("config_changes, geometry_changes, message", _INVALID)
def test_pack_rejects_what_validate_rejects_with_its_message(config_changes, geometry_changes,
                                                             message):
    config, geometry = default_config()
    config, geometry = replace(config, **config_changes), replace(geometry, **geometry_changes)
    with pytest.raises(ConfigError, match=f"^invalid configuration: {re.escape(message)}$"):
        build_scenario_pack(config, geometry, 0)


def test_stage_short_of_beams_is_named():
    # at 4 wavelengths the two cells of a 2-element axis give one beam, so a 2 x 2 array has
    # one usable beam for two streams
    config, geometry = default_config()
    config = replace(config, tx_antennas=(2, 2), element_spacing_wavelengths=4.0)
    with pytest.raises(ConfigError, match=re.escape(
            "RF stage f1 has 1 usable beams for 2 streams at spacing 4.0 wavelengths")):
        build_scenario_pack(config, geometry, 0)


_COUNTS = st.integers(1, 8)
_SPACINGS = st.one_of(st.floats(0.05, 4.0), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]))


@st.composite
def _configs(draw):
    """Arrays of 1-8 elements per axis at spacings of 0.05-4 wavelengths, aliasing ones often."""
    config, geometry = default_config()
    tx, rx = draw(st.tuples(_COUNTS, _COUNTS)), draw(st.tuples(_COUNTS, _COUNTS))
    streams = draw(st.integers(1, min(4, math.prod(tx), math.prod(rx))))
    config = replace(config, tx_antennas=tx, rx_antennas=rx, num_streams=streams,
                     max_rf_chains=draw(st.integers(streams, 8)),
                     angular_spread_deg=(draw(st.floats(0.0, 30.0)), draw(st.floats(0.0, 30.0))),
                     element_spacing_wavelengths=draw(_SPACINGS))
    ue = (draw(st.floats(60.0, 120.0)), draw(st.floats(60.0, 120.0)), 2.0)
    return config, replace(geometry, ue_position=ue)


@settings(max_examples=120, deadline=None)
@given(_configs())
@example((replace(default_config()[0], element_spacing_wavelengths=2.0), default_config()[1]))
@example((replace(default_config()[0], tx_antennas=(2, 2), element_spacing_wavelengths=4.0),
          default_config()[1]))
def test_designed_stages_stay_within_the_condition_limit(drawn):
    config, geometry = drawn
    try:
        pack = build_scenario_pack(config, geometry, 0)
    except ConfigError as exc:
        beams = re.fullmatch(r"RF stage \w+ has (\d+) usable beams for \d+ streams at spacing "
                             r"\S+ wavelengths", str(exc))
        assert beams and int(beams[1]) < config.num_streams, str(exc)
        return
    for name in STAGES:
        beams = _beam_rows(pack, name)
        assert config.num_streams <= len(beams) <= config.max_rf_chains
        assert np.linalg.cond(beams @ beams.conj().T) <= _COND_LIMIT


def test_default_scenario_at_two_wavelengths_carries_no_beam_twice():
    # at spacing 2.0 two grid cells alias: the design used to put both on RF chains
    config, geometry = default_config()
    config = replace(config, element_spacing_wavelengths=2.0)
    pack = build_scenario_pack(config, geometry, 0)
    for name in STAGES:
        beams = _beam_rows(pack, name)
        assert len({b.tobytes() for b in beams}) == len(beams), name
        gram = np.abs(beams @ beams.conj().T)
        assert np.all(gram[~np.eye(len(beams), dtype=bool)] < 1.0 - 1e-9), name
    context = make_problem_context(pack, 0)
    cx, cy = geometry.platform_center()
    phases = rng_stream(SEED, 5).uniform(0.0, 2 * math.pi, (4, config.num_ris))
    assert np.all(np.isfinite(context.rate_for(optimizer.RisState(cx, cy, phases))))
    for kind in BaselineKind:
        assert math.isfinite(run_baseline(kind, replace(pack), 0).rate)
