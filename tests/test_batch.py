"""Batched and looped evaluation agree bit for bit.

Every search objective scores a (Z, D) batch in one call. Each test here
compares that call with the same objective evaluated one particle at a time,
by bytes, not within a tolerance.
"""

import hashlib
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movable_ris import baselines, beamforming, channel, optimizer
from movable_ris.baselines import BaselineKind, build_scenario_pack
from movable_ris.beamforming import hybrid_link_rate, rf_steering_column
from movable_ris.harness import apply_swept_value
from movable_ris.scenario import PsoParams, default_config, rng_stream
from test_acceptance import UE_POSITIONS

# The searches score particles on factored reductions of the hops; those
# round differently from the reference pipeline, by at most this much.
FACTORED_RTOL = 1e-13

SEARCHES = (
    BaselineKind.MOVABLE_RIS_JOINT,
    BaselineKind.FIXED_RIS_OPT_PHASE,
    BaselineKind.MOVABLE_RIS_RANDOM_PHASE,
    BaselineKind.FD_RELAY,
)


def _pack(seed=5):
    config, geometry = default_config()
    config = replace(config, tx_antennas=(4, 4), rx_antennas=(4, 4), ris_elements=(2, 3),
                     pso=PsoParams(swarm_size=6, iterations=4))
    return build_scenario_pack(config, geometry, seed)


def _ill_conditioned(pack, gap=1e-11):
    """The same pack with receive beam 1 moved ``gap`` in cosine from beam 0, so W is near singular.

    Both are ``rf_steering_column`` beams, which ``ScenarioPack.beams`` reads one axis at a time.
    """
    spacing = pack.config.element_spacing_wavelengths
    m_x, m_y = pack.config.rx_antennas

    def squeeze(f2):
        # beam 0's cosines from its phase steps along x and along y
        lam_x, lam_y = np.angle(f2[0, [m_y, 1]] / f2[0, 0]) / (2 * math.pi * spacing)
        f2 = f2.copy()
        f2[1] = rf_steering_column(lam_x + gap, lam_y, m_x, m_y, spacing)
        return f2
    return replace(pack, f2=squeeze(pack.f2), relay_f2_hop1=squeeze(pack.relay_f2_hop1),
                   fd_relay_outcomes={})


@contextmanager
def _objective_of(kind, pack, trial_index, zero_channel=False):
    """The batch objective a search of ``kind`` hands to its swarm, without searching."""
    captured = []

    def capture(fitness_fn, dim, params, rng):
        captured.append(fitness_fn)
        return np.full(dim, 0.5), 0.0, [0.0]

    real_trial = baselines.trial_channels

    def trial_channels(pack, index):
        trial = real_trial(pack, index)
        return replace(trial, gains=np.zeros_like(trial.gains)) if zero_channel else trial

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "run_pso", capture)
        mp.setattr(baselines, "trial_channels", trial_channels)
        # a private outcome store: the placeholder search must not reach the cached pack
        baselines.run_baseline(kind, replace(pack, fd_relay_outcomes={}), trial_index)
        yield captured[0]


def _particles(draw_seed, count, dim, clamp, duplicate):
    rng = rng_stream(draw_seed, 0)
    p = rng.random((count, dim))
    if clamp:  # particles pinned to the box walls, as pso_step leaves them
        p[rng.random((count, dim)) < 0.3] = 0.0
        p[rng.random((count, dim)) < 0.3] = 1.0
    if duplicate and count > 1:
        p[-1] = p[0]
    return p


def _same_bytes(batch, rows):
    batch = np.asarray(batch, dtype=float)
    assert batch.shape == (len(rows),)
    assert batch.tobytes() == np.asarray(rows, dtype=float).tobytes(), (batch, rows)


@given(
    kind=st.sampled_from(SEARCHES),
    trial_index=st.integers(min_value=0, max_value=50),
    draw_seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=7),
    clamp=st.booleans(),
    duplicate=st.booleans(),
    zero_channel=st.booleans(),
    ill_conditioned=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batch_objective_equals_per_particle(kind, trial_index, draw_seed, count, clamp,
                                             duplicate, zero_channel, ill_conditioned):
    pack = _pack()
    if ill_conditioned:
        pack = _ill_conditioned(pack)
    dim = {BaselineKind.FIXED_RIS_OPT_PHASE: pack.config.num_ris,
           BaselineKind.MOVABLE_RIS_JOINT: pack.config.num_ris + 2}.get(kind, 2)
    particles = _particles(draw_seed, count, dim, clamp, duplicate)
    with _objective_of(kind, pack, trial_index, zero_channel) as objective:
        batch = objective(particles)
        rows = [objective(p[None])[0] for p in particles]
    _same_bytes(batch, rows)
    if zero_channel:
        assert not np.any(batch)


def _relay_pack(ue_position=None):
    """The default pack, or the pack with the UE at ``ue_position``."""
    config, geometry = default_config()
    if ue_position is not None:
        config, geometry = apply_swept_value(config, geometry, "ue_scenarios", ue_position)
    return build_scenario_pack(config, geometry, 5)


def _relay_points(pack, draw_seed, count):
    xy = _particles(draw_seed, count, 2, clamp=True, duplicate=True)
    return np.column_stack(optimizer.decode_xy(xy[:, 0], xy[:, 1], pack.geometry))


def test_relay_batch_equals_min_hop_rate_rows():
    for pack in (_pack(), _relay_pack(), _relay_pack((85.0, 75.0, 2.0))):
        trial = baselines.trial_channels(pack, 2)
        points = _relay_points(pack, 12, 9)
        relay = baselines._RelaySearch(pack, trial)
        for factored in (False, True):
            rates, deficient = relay.hop_rates(points, factored)
            rows = [relay.hop_rates(points[i:i + 1], factored) for i in range(len(points))]
            _same_bytes(rates, [r[0] for r, _ in rows])
            assert deficient.tolist() == [d[0] for _, d in rows]


_RELAY_HOPS = (("relay_f2_hop1", "f1"), ("f2", "relay_f1_hop2"))  # (receive, transmit) stages


def _per_hop_search(pack, trial, points):
    """The relay search's reduced hops, one matmul each, and its rates and flags from one rate
    call per hop."""
    config = pack.config
    hops = channel.hops(config, pack.geometry, trial, points, pack.search_ends["relay"])
    budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
    (rate1, flags1), (rate2, flags2) = (
        hybrid_link_rate(getattr(pack, rx), hop, getattr(pack, tx), *budget, reduced=True)
        for (rx, tx), hop in zip(_RELAY_HOPS, hops))
    return hops, np.where(rate2 < rate1, rate2, rate1), flags1 | flags2


@pytest.mark.parametrize("ue_position", [None, (85.0, 75.0, 2.0)])
def test_relay_one_pass_equals_per_hop_rates(ue_position):
    # the default relay's four ends are 8x8 with 3 beams each; at (85, 75, 2) f2 and
    # relay_f1_hop2 carry 6 beams, so that pack keeps the per-hop calls
    pack = _relay_pack(ue_position)
    for trial_index, count in ((0, 1), (1, 10), (2, 40)):
        trial = baselines.trial_channels(pack, trial_index)
        points = _relay_points(pack, trial_index, count)
        _, expected, flags = _per_hop_search(pack, trial, points)
        rates, deficient = baselines._RelaySearch(pack, trial).hop_rates(points, True)
        _same_bytes(rates, expected)
        assert deficient.tolist() == flags.tolist()
    # without UE-hop gains that hop is rank 0 at every point: the stacked call falls back
    trial = replace(trial, gains=trial.gains * np.array([1.0, 0.0])[:, None, None])
    _, expected, flags = _per_hop_search(pack, trial, points)
    rates, deficient = baselines._RelaySearch(pack, trial).hop_rates(points, True)
    _same_bytes(rates, expected)
    assert deficient.all() and flags.all()


def test_relay_search_takes_one_stacked_rate_call(monkeypatch):
    calls = []
    real = baselines.hybrid_link_rate

    def counted(f2, h, *args, **kwargs):
        calls.append(h.shape)
        return real(f2, h, *args, **kwargs)

    monkeypatch.setattr(baselines, "hybrid_link_rate", counted)
    for pack, stages_stack in ((_relay_pack(), True), (_relay_pack((85.0, 75.0, 2.0)), False)):
        # both hops' combiners, and both precoders, have equal shapes: the reduced hops stack
        shapes = [[getattr(pack, name).shape for name in stage] for stage in zip(*_RELAY_HOPS)]
        assert (shapes[0][0] == shapes[0][1] and shapes[1][0] == shapes[1][1]) == stages_stack
        trial = baselines.trial_channels(pack, 0)
        points = _relay_points(pack, 0, 6)
        calls.clear()
        rates, _ = baselines._RelaySearch(pack, trial).hop_rates(points, True)
        if stages_stack:
            _, expected, _ = _per_hop_search(pack, trial, points)
            assert calls == [(2, 6, 3, 3)]
            assert rates.tobytes() == expected.tobytes()
        else:
            assert calls == [(6, 3, 3), (6, 6, 6)]


def test_stacked_links_with_a_rank_deficient_row_run_link_by_link():
    # a rank-one row carries fewer streams, so the rows of both links run one at a time
    pack = _relay_pack()
    config = pack.config
    trial = baselines.trial_channels(pack, 3)
    stack = np.stack(channel.hops(config, pack.geometry, trial, _relay_points(pack, 3, 6),
                                  pack.search_ends["relay"]))
    stack[1, 2] = np.outer(stack[1, 2][:, 0], stack[1, 2][0])  # rank one: one stream
    stages = [[getattr(pack, name) for name in hop] for hop in _RELAY_HOPS]
    f2, f1 = (np.stack(stage)[:, None] for stage in zip(*stages))
    budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
    rates, deficient = hybrid_link_rate(f2, stack, f1, *budget, reduced=True)
    links = [hybrid_link_rate(rx, hop, tx, *budget, reduced=True)
             for (rx, tx), hop in zip(stages, stack)]
    assert rates.tobytes() == np.stack([r for r, _ in links]).tobytes()
    assert deficient.tolist() == [d.tolist() for _, d in links] == [
        [False] * 6, [False] * 2 + [True] + [False] * 3]


def _random_stack(rng, count, rows, cols, zero_rows, rank_one_rows):
    h = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
    for i in zero_rows:
        h[i] = 0.0
    for i in rank_one_rows:
        h[i] = np.outer(h[i][:, 0], h[i][0])
    return h


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=6),
    streams=st.integers(min_value=1, max_value=3),
    near_parallel=st.booleans(),
    noise=st.sampled_from([1e-3, 0.0]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_stacked_rate_pipeline_equals_per_matrix(seed, count, streams, near_parallel, noise,
                                                 data):
    """Rank-deficient and ridge (zero noise) rows inside one stack, also through a hand-built
    combiner with two nearly parallel rows."""
    rng = rng_stream(seed, 1)
    m, n_rf = 6, 3
    zero_rows = data.draw(st.sets(st.integers(0, count - 1)))
    rank_one_rows = data.draw(st.sets(st.integers(0, count - 1))) - zero_rows
    h = _random_stack(rng, count, m, m, zero_rows, rank_one_rows)
    f1 = (rng.standard_normal((m, n_rf)) + 1j * rng.standard_normal((m, n_rf))) / math.sqrt(m)
    f2 = (rng.standard_normal((n_rf, m)) + 1j * rng.standard_normal((n_rf, m))) / math.sqrt(m)
    if near_parallel:
        f2[1] = f2[0] + 1e-9 * f2[1]
    budget = (2.0, streams, noise)
    rates, deficient = hybrid_link_rate(f2, h, f1, *budget)
    rows = [hybrid_link_rate(f2, h_b[None], f1, *budget) for h_b in h]
    _same_bytes(rates, [r[0] for r, _ in rows])
    assert deficient.tolist() == [d[0] for _, d in rows]
    assert all(deficient[i] for i in zero_rows | rank_one_rows if streams > 1)


@pytest.mark.parametrize("rows", [1, 10, 40])
@pytest.mark.parametrize("shape", [(3, 3), (5, 6)])
def test_full_rank_reduced_stack_rates_equal_the_stage_pipeline(rows, shape):
    """Stacks whose rows all carry ``num_streams`` streams on the direct branch.

    Row 0's first column is zero, so every right singular vector leads with a
    negligible entry and the phase alignment takes its general branch.
    """
    rng = rng_stream(rows, 4)
    h = _random_stack(rng, rows, *shape, (), ())
    h[0, :, 0] = 0.0
    m = 8
    f1 = (rng.standard_normal((m, shape[1])) + 1j * rng.standard_normal((m, shape[1]))) / m
    f2 = (rng.standard_normal((shape[0], m)) + 1j * rng.standard_normal((shape[0], m))) / m
    power, streams, noise = 2.0, 2, 1e-3
    eff = beamforming._decompose(h.copy())
    assert np.abs(eff.vh[0, :streams, 0]).max() < 1e-12 and min(eff.ranks) >= streams
    stages = beamforming.bb_stages(eff, power, streams, f1)
    stages.f2 = f2
    expected = beamforming.achievable_rate(stages, eff, noise)
    rates, deficient = hybrid_link_rate(f2, h, f1, power, streams, noise, reduced=True)
    _same_bytes(rates, expected)
    assert deficient.tolist() == stages.rank_deficient.tolist() == [False] * rows


def _search_of(kind, pack, trial_index):
    """The batch objective a search of ``kind`` hands to its swarm and the context it scores on."""
    contexts = []
    real_run = baselines.run

    def run(context, *args):
        contexts.append(context)
        return real_run(context, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "run", run)
        with _objective_of(kind, pack, trial_index) as objective:
            return objective, contexts[0]


def _pinned_packs():
    """The default pack, the benchmark's element counts and UE positions, and spacing 0.4."""
    config, geometry = default_config()
    yield build_scenario_pack(config, geometry, 0)
    for kind, values in (("elements", (16, 36, 64, 100)), ("ue_scenarios", UE_POSITIONS)):
        for value in values:
            yield build_scenario_pack(*apply_swept_value(config, geometry, kind, value), 0)
    yield build_scenario_pack(replace(config, element_spacing_wavelengths=0.4), geometry, 0)


def _mixed_rank_stack(rng, shape):
    """Full-rank, rank-one and zero reduced channels in one stack: rows carry 2, 1 and 1 streams."""
    h = _random_stack(rng, 6, *shape, zero_rows={2}, rank_one_rows={1, 4})
    return h, h[[1, 2, 4]]  # the mixed stack and an all-deficient one


# sha256 of the search objective's rates and rank flags on seeded particle batches, for every
# searching kind on every _pinned_packs pack, then of the mixed-rank stacks through the joint
# context's rate pipeline. A change in rounding moves it.
OBJECTIVE_DIGEST = "ac32b3a5275b13a4828f5dfeba62bf2e607b9e18f6808ca8bc263858a31499af"


def test_search_objective_bytes_are_pinned():
    digest = hashlib.sha256()

    def update(context, rates):
        digest.update(np.asarray(rates, dtype=float).tobytes())
        digest.update(bytes([context.saw_rank_deficiency]))
        context.saw_rank_deficiency = False

    for p, pack in enumerate(_pinned_packs()):
        for kind in SEARCHES:
            dim = {BaselineKind.FIXED_RIS_OPT_PHASE: pack.config.num_ris,
                   BaselineKind.MOVABLE_RIS_JOINT: pack.config.num_ris + 2}.get(kind, 2)
            for trial_index in (0, 1):
                objective, context = _search_of(kind, pack, trial_index)
                for clamp in (False, True):
                    particles = _particles(100 * p + trial_index, 10, dim, clamp, duplicate=clamp)
                    update(context, objective(particles))
        _, context = _search_of(BaselineKind.MOVABLE_RIS_JOINT, pack, 0)
        shape = (pack.f2.shape[0], pack.f1.shape[1])
        for stack in _mixed_rank_stack(rng_stream(p, 2), shape):
            update(context, context._rates(stack, reduced=True))
    assert digest.hexdigest() == OBJECTIVE_DIGEST


def test_condition_numbers_are_taken_once_per_pack(monkeypatch):
    # the RF design bounds every stage's condition number, so no rate call takes one
    calls = []
    real = np.linalg.cond

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(np.linalg, "cond", counted)
    base = _pack()
    for iterations in (1, 4):
        config = replace(base.config, pso=PsoParams(swarm_size=3, iterations=iterations))
        pack = build_scenario_pack(config, base.geometry, 5)
        calls.clear()
        for kind in (BaselineKind.FIXED_RIS_OPT_PHASE, BaselineKind.FD_RELAY):
            baselines.run_baseline(kind, pack, 0)
        assert calls == []


def test_search_value_equals_the_reported_rate(monkeypatch):
    # run_pso returns the objective's value at the vector the search decodes and reports; the
    # outcome's rate is the reference pipeline's at that state, so the two differ by rounding only
    values = []
    real_run_pso = optimizer.run_pso

    def run_pso(*args):
        best_vec, best_value, history = real_run_pso(*args)
        values.append(best_value)
        return best_vec, best_value, history

    monkeypatch.setattr(optimizer, "run_pso", run_pso)
    monkeypatch.setattr(baselines, "run_pso", run_pso)
    config, geometry = default_config()
    packs = [build_scenario_pack(config, geometry, 0)] + [
        build_scenario_pack(*apply_swept_value(config, geometry, "elements", count), 1)
        for count in (16, 36, 64, 100)]
    for pack in packs:
        pack = replace(pack, fd_relay_outcomes={})  # every fd_relay trial searches here
        for kind in SEARCHES:
            for trial_index in range(5):
                values.clear()
                outcome = baselines.run_baseline(kind, pack, trial_index)
                (value,) = values
                assert outcome.rate == pytest.approx(value, rel=FACTORED_RTOL, abs=0.0), (
                    pack.config.ris_elements, kind, trial_index)
