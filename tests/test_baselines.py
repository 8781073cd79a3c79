import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from movable_ris import optimizer
from movable_ris.baselines import (
    BaselineKind,
    build_scenario_pack,
    make_problem_context,
    relay_rate,
    run_baseline,
    trial_channels,
)
from movable_ris.harness import apply_swept_value
from movable_ris.scenario import PsoParams, default_config, rng_stream
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
        hd = relay_rate(replace(pack, fd_relay_outcomes={}), t, "hd")
        fd = relay_rate(replace(pack, fd_relay_outcomes={}), t, "fd")
        assert hd.rate == fd.rate / 2.0
        assert (hd.x, hd.y) == (fd.x, fd.y)


def test_scenario_pack_reused_only_for_identical_arguments():
    config, geometry = default_config()
    pack = build_scenario_pack(config, geometry, 5, None)
    assert build_scenario_pack(config, geometry, 5, None) is pack
    for args in (
        (config, geometry, 6, None),
        (config, geometry, 5, 9),
        (replace(config, tx_power_dbm=20.0), geometry, 5, None),
        (config, replace(geometry, ue_position=(90.0, 100.0, 2.0)), 5, None),
    ):
        other = build_scenario_pack(*args)
        assert other is not pack
        assert build_scenario_pack(*args) is other
        pack = other


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


def test_relay_symmetric_geometry_prefers_midline():
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
    from movable_ris.baselines import _RelaySearch

    trial = trial_channels(pack, 0)
    trial = replace(trial, gains=np.ones_like(trial.gains))
    grid = np.linspace(40.0, 70.0, 13)
    best, best_xy = -1.0, None
    for x in grid:
        for y in grid:
            r = _RelaySearch(pack, trial).hop_rates(np.array([[x, y]]), False)[0][0]
            if r > best:
                best, best_xy = r, (float(x), float(y))
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
