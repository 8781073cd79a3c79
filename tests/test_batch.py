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

from movable_ris import baselines, beamforming, channel, harness, optimizer
from movable_ris.baselines import BaselineKind, build_scenario_pack
from movable_ris.beamforming import hybrid_link_rate, rf_stage
from movable_ris.harness import apply_swept_value
from movable_ris.scenario import PsoParams, default_config, rng_stream
from test_acceptance import UE_POSITIONS

# The searches score particles on factored reductions of the hops, by the closed-form rate;
# those round differently from the reference pipeline, by at most this much.
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

    Both are ``rf_stage`` beams, which ``ScenarioPack.beams`` reads one axis at a time.
    """
    spacing = pack.config.element_spacing_wavelengths
    m_x, m_y = pack.config.rx_antennas

    def squeeze(f2):
        # beam 0's cosines from its phase steps along x and along y
        lam_x, lam_y = np.angle(f2[0, [m_y, 1]] / f2[0, 0]) / (2 * math.pi * spacing)
        f2 = f2.copy()
        f2[1] = rf_stage([(lam_x + gap, lam_y)], (m_x, m_y), spacing)[0]
        return f2
    return replace(pack, f2=squeeze(pack.f2), relay_f2_hop1=squeeze(pack.relay_f2_hop1))


@contextmanager
def _objective_of(kind, pack, trial_index, zero_channel=False):
    """The batch objective a search of ``kind`` hands to its swarm, without searching."""
    captured = []

    def capture(fitness_fn, dim, params, rng, decisions=None):
        captured.append(fitness_fn)
        return np.full(dim, 0.5), 0.0, [0.0]

    real_trial = baselines.trial_channels

    def trial_channels(pack, index):
        trial = real_trial(pack, index)
        return replace(trial, gains=np.zeros_like(trial.gains)) if zero_channel else trial

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "run_pso", capture)
        mp.setattr(baselines, "trial_channels", trial_channels)
        # a replaced pack starts with empty stores: the placeholder search, on a patched trial,
        # leaves ``pack``'s as they were
        baselines.run_baseline(kind, replace(pack), trial_index)
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
    rows = []
    for p in particles:  # each row the first evaluation of a search of its own, as the batch is
        with _objective_of(kind, pack, trial_index, zero_channel) as objective:
            rows.append(objective(p[None])[0])
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


def _relay_state(points):
    """The relay search's decoded batch at the (Z, 2) platform ``points``."""
    return optimizer.RisState(points[:, 0], points[:, 1], None, points)


def _search_rows(relay, points):
    """The relay search's rate and rank flag at each of the ``points`` alone."""
    rows = []
    for point in points:
        relay.saw_rank_deficiency = False
        rows.append((relay.search_rates(_relay_state(point[None]))[0], relay.saw_rank_deficiency))
    relay.saw_rank_deficiency = False
    return rows


def test_relay_batch_equals_min_hop_rate_rows():
    # the search's batch and its rows, with the per-hop flags of one rate call per hop
    for pack in (_pack(), _relay_pack(), _relay_pack((85.0, 75.0, 2.0))):
        points = _relay_points(pack, 12, 9)
        relay = baselines._RelaySearch(pack, 2)
        _, expected, flags = _per_hop_search(pack, relay.trial, points)
        rows = _search_rows(relay, points)
        _same_bytes(relay.search_rates(_relay_state(points)), [r for r, _ in rows])
        _same_bytes(expected, [r for r, _ in rows])
        assert relay.saw_rank_deficiency == flags.any()
        assert [d for _, d in rows] == flags.tolist()


@pytest.mark.parametrize("zero_ue_hop", [False, True], ids=["ue_hop", "zero_ue_hop"])
@pytest.mark.parametrize("ue_position", [None, (85.0, 75.0, 2.0)], ids=["default", "ue_85_75"])
@pytest.mark.parametrize("kind", ["ris", "fd_relay"])
def test_reference_batch_equals_each_state(kind, ue_position, zero_ue_hop, monkeypatch):
    # rate_for of a batch, of phase vectors at one position for the RIS and of positions for the
    # relay, is each state's own call in bytes and in the rank flag; one state gives a float.
    # Without UE-hop gains every state is rank deficient
    if zero_ue_hop:
        _zero_ue_hop(monkeypatch)
    for pack in [_relay_pack(ue_position)] + [_pack()] * (ue_position is None):
        for trial_index in (0, 3):
            rng = rng_stream(trial_index, 6)
            if kind == "ris":
                search = baselines.make_problem_context(pack, trial_index)
                x, y = optimizer.decode_xy(*rng.random(2), pack.geometry)
                phases = rng.uniform(0.0, 2.0 * math.pi, (7, pack.config.num_ris))
                batch = optimizer.RisState(x, y, phases)
                states = [optimizer.RisState(x, y, row) for row in phases]
            else:
                search = baselines._RelaySearch(pack, trial_index)
                points = _relay_points(pack, trial_index, 7)
                batch = _relay_state(points)
                states = [optimizer.RisState(float(a), float(b), None) for a, b in points]
            rows = []
            for state in states:
                search.saw_rank_deficiency = False
                rows.append((search.rate_for(state), search.saw_rank_deficiency))
                assert type(rows[-1][0]) is float
            search.saw_rank_deficiency = False
            _same_bytes(search.rate_for(batch), [r for r, _ in rows])
            assert search.saw_rank_deficiency == any(d for _, d in rows) == zero_ue_hop


_RELAY_HOPS = (("relay_f2_hop1", "f1"), ("f2", "relay_f1_hop2"))  # (receive, transmit) stages


def _grams(f2, f1):
    """The stages' Grams (F1^H F1, F2 F2^H) that the searches' rate step takes."""
    return f1.conj().T @ f1, f2 @ f2.conj().T


def _stack_search(links, budget, stacks):
    """A search over ``links``, each (F2, F1, Grams), at the rate ``budget`` whose ``_reduced``
    answers the reduced ``stacks``, one per link, whatever the state."""
    search = optimizer._ClosedFormSearch()
    search._links, search._budget, search.saw_rank_deficiency = tuple(links), budget, False
    search._reduced = lambda state: stacks
    return search


def _link_rates(f2, h, f1, budget):
    """The search route's rates of one link's reduced stack ``h``, and the rank flag of each row
    scored alone, whose any() is the batch's flag."""
    link = [(f2, f1, _grams(f2, f1))]
    search = _stack_search(link, budget, (h,))
    rates, flags = search.search_rates(None), []
    for row in h:
        alone = _stack_search(link, budget, (row[None],))
        alone.search_rates(None)
        flags.append(alone.saw_rank_deficiency)
    assert search.saw_rank_deficiency == any(flags)
    return rates, np.array(flags)


def _per_hop_search(pack, trial, points):
    """The relay search's reduced hops, one matmul each, and its rates and flags from a search
    of one link per hop."""
    config = pack.config
    hops = channel.hops(config, pack.geometry, trial, points, pack.search_ends["relay"])
    budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
    stages = [(getattr(pack, rx), getattr(pack, tx)) for rx, tx in _RELAY_HOPS]
    (rate1, flags1), (rate2, flags2) = (
        _link_rates(f2, hop, f1, budget) for (f2, f1), hop in zip(stages, hops))
    return hops, np.where(rate2 < rate1, rate2, rate1), flags1 | flags2


def _assert_search_is_per_hop(relay, points, expected, flags):
    """The relay search's batch, its core's steps and its rows have the per-hop calls' bytes
    and flags; each link's core holds that hop's ``_gram_core``, NaN rows included, and the core
    alone, on the hops rebuilt, gives the same bytes."""
    state = _relay_state(points)
    _same_bytes(relay.search_rates(state), expected)
    assert relay.saw_rank_deficiency == flags.any()
    core, hops = relay.search_core(state)
    for i, ((_, _, grams), hop) in enumerate(zip(relay._links, hops)):
        link = beamforming._gram_core(hop, relay._budget[1], grams)
        assert core[:, i].tobytes() == link.tobytes()
    for given in (hops, None):
        relay.saw_rank_deficiency = False
        _same_bytes(relay.core_rates(state, core, given), expected)
        assert relay.saw_rank_deficiency == flags.any()
    rows = _search_rows(relay, points)
    _same_bytes([r for r, _ in rows], expected)
    assert [d for _, d in rows] == flags.tolist()


@pytest.mark.parametrize("ue_position", [None, (85.0, 75.0, 2.0)])
def test_relay_one_pass_equals_per_hop_rates(ue_position, monkeypatch):
    # the default relay's four ends are 8x8 with 3 beams each; at (85, 75, 2) f2 and
    # relay_f1_hop2 carry 6 beams, and the search takes its links' cores all the same
    pack = _relay_pack(ue_position)
    for trial_index, count in ((0, 1), (1, 10), (2, 40)):
        trial = baselines.trial_channels(pack, trial_index)
        points = _relay_points(pack, trial_index, count)
        _, expected, flags = _per_hop_search(pack, trial, points)
        _assert_search_is_per_hop(baselines._RelaySearch(pack, trial_index), points, expected,
                                  flags)
    # without UE-hop gains that hop is rank 0 at every point: its core rows are NaN, and the
    # pipeline takes them
    trial = replace(trial, gains=trial.gains * np.array([1.0, 0.0])[:, None, None])
    monkeypatch.setattr(baselines, "trial_channels", lambda pack, index: trial)
    _, expected, flags = _per_hop_search(pack, trial, points)
    relay = baselines._RelaySearch(pack, trial_index)
    _assert_search_is_per_hop(relay, points, expected, flags)
    core = relay.search_core(_relay_state(points))[0]
    assert flags.all() and np.isnan(core[:, 1]).all() and not np.isnan(core[:, 0]).any()


def test_relay_search_takes_one_gram_core_per_link(monkeypatch):
    # whatever its stages' shapes, a relay search step, and a search call without a trace, takes
    # one _gram_core per hop into one (6, 2, Z) core, with the bytes of the per-hop calls
    calls = []
    real_core = optimizer._gram_core
    monkeypatch.setattr(optimizer, "_gram_core",
                        lambda h, *args: calls.append(("core", h.shape)) or real_core(h, *args))
    for pack, hop2 in ((_relay_pack(), (6, 3, 3)), (_relay_pack((85.0, 75.0, 2.0)), (6, 6, 6))):
        # both hops' combiners, and both precoders, have equal shapes only at the default UE
        shapes = [[getattr(pack, name).shape for name in stage] for stage in zip(*_RELAY_HOPS)]
        equal = shapes[0][0] == shapes[0][1] and shapes[1][0] == shapes[1][1]
        assert equal == (hop2 == (6, 3, 3))
        trial = baselines.trial_channels(pack, 0)
        points = _relay_points(pack, 0, 6)
        state = _relay_state(points)
        _, expected, _ = _per_hop_search(pack, trial, points)
        calls.clear()
        relay = baselines._RelaySearch(pack, 0)
        assert relay.closed_form
        core, hops = relay.search_core(state)
        assert core.shape == (6, 2, 6) and calls == [("core", (6, 3, 3)), ("core", hop2)]
        assert relay.core_rates(state, core, hops).tobytes() == expected.tobytes()
        calls.clear()
        assert relay.search_rates(state).tobytes() == expected.tobytes()
        assert calls == [("core", (6, 3, 3)), ("core", hop2)]


def _zero_ue_hop(monkeypatch):
    """Every trial without UE-hop gains: each core of every search has rows for the pipeline."""
    real = baselines.trial_channels

    def trial_channels(pack, index):
        trial = real(pack, index)
        return replace(trial, gains=trial.gains * np.array([1.0, 0.0])[:, None, None])

    monkeypatch.setattr(baselines, "trial_channels", trial_channels)


def _log_pipeline(monkeypatch, log, index=lambda: None):
    """Log to ``log`` each stack the searches' closed form sends to the pipeline, at
    ``hybrid_link_rate(reduced=True)``: (``index()``, its row count). The references' calls,
    unreduced, are not logged."""
    real = optimizer.hybrid_link_rate

    def logged(f2, h, f1, *budget, reduced=False):
        if reduced:
            log.append((index(), len(h)))
        return real(f2, h, f1, *budget, reduced=reduced)

    monkeypatch.setattr(optimizer, "hybrid_link_rate", logged)


def _power_step(pack, kind, power, packs):
    """Trial 0 of ``kind`` at ``power`` on the pack that a power sweep holding ``packs`` takes
    (``harness._point_pack``): (the pack, the outcome's repr)."""
    config = replace(pack.config, tx_power_dbm=power)
    point = harness._point_pack(packs, config, pack.geometry, pack.seed, None)
    return point, repr(baselines.run_baseline(kind, point, 0))


@pytest.mark.parametrize("kind, ue_position", [
    (BaselineKind.FD_RELAY, None),
    # the relay's stages carry 3 and 6 beams: its two links take one core each all the same
    (BaselineKind.FD_RELAY, (85.0, 75.0, 2.0)),
    (BaselineKind.FIXED_RIS_OPT_PHASE, None),
    (BaselineKind.MOVABLE_RIS_JOINT, None),
], ids=["fd_relay", "fd_relay_ue_85_75", "fixed_ris_opt_phase", "movable_ris_joint"])
def test_search_traces_reuse_cores_and_keep_none_the_pipeline_takes(kind, ue_position,
                                                                     monkeypatch):
    # a power step's search retraces the previous power's while their decisions agree: those
    # evaluations take only the tail of the kept core, with no SVD, and every outcome keeps the
    # bytes of a search at its power on a new pack. The packs come as a power sweep's do
    svds, pipelines = [], []
    real = optimizer._gram_core
    monkeypatch.setattr(optimizer, "_gram_core",
                        lambda h, *args: svds.append(h.shape[:-2]) or real(h, *args))
    _log_pipeline(monkeypatch, pipelines)
    pack = _relay_pack(ue_position)
    evaluations = pack.config.pso.iterations + 1
    links = 2 if kind == BaselineKind.FD_RELAY else 1  # the relay's two hops
    swarm = (pack.config.pso.swarm_size,)

    def search(power, packs):
        svds.clear()
        pipelines.clear()
        return _power_step(pack, kind, power, packs)

    powers = (30.0, 40.0, 40.0, 2000.0)
    alone = {power: search(power, [])[1] for power in powers}
    packs, misses = [], []
    for power in powers:
        point, outcome = search(power, packs)
        trace = point.search_traces[kind, 0]
        assert outcome == alone[power]
        assert trace.cores.shape == (evaluations, 6, links, *swarm)
        assert not np.isnan(trace.cores).any()  # no row the closed form cannot score
        assert svds == [swarm] * len(svds) and len(svds) % links == 0
        assert pipelines == ([(None, *swarm)] * evaluations * links if power == 2000.0 else [])
        misses.append(len(svds) // links)
    # the first power computes every core, a repeated power none, and every power step retraces
    # at least its first evaluation; at 2000 dBm the closed form passes the float range, so every
    # evaluation, a retraced one with its kept core too, sends its rows to the pipeline
    assert misses[0] == evaluations and misses[2] == 0
    assert misses[1] < evaluations and misses[3] < evaluations
    # a core row the closed form cannot score whatever the budget is kept NaN, and takes the
    # pipeline at every power: with no UE-hop gains every row of that hop is rank 0, every
    # rate 0, and the next power retraces every evaluation, computing no core
    _zero_ue_hop(monkeypatch)
    alone = {power: search(power, [])[1] for power in (30.0, 40.0)}
    packs, misses = [], []
    for power in (30.0, 40.0):
        point, outcome = search(power, packs)
        cores = point.search_traces[kind, 0].cores
        assert outcome == alone[power] and "flagged=True" in outcome
        assert np.isnan(cores[:, :, -1]).all() and not np.isnan(cores[:, :, :-1]).any()
        assert pipelines == [(None, *swarm)] * evaluations  # the UE hop's rows, each evaluation
        misses.append(len(svds) // links)
    assert misses == [evaluations, 0]


@pytest.mark.parametrize("kind", [BaselineKind.FD_RELAY, BaselineKind.FIXED_RIS_OPT_PHASE,
                                  BaselineKind.MOVABLE_RIS_JOINT],
                         ids=["fd_relay", "fixed_ris_opt_phase", "movable_ris_joint"])
def test_a_core_with_pipeline_rows_ends_no_retrace(kind, monkeypatch):
    # one mid-run evaluation's core has a row the closed form cannot score, whatever the budget:
    # its trace keeps that row NaN, and the next power retraces it as it retraces every
    # evaluation whose decisions so far match the last run's, with only its NaN row taking the
    # pipeline; every outcome keeps the bytes of a search at its power on a new pack
    pack = _relay_pack()
    evaluations = pack.config.pso.iterations + 1
    links = 2 if kind == BaselineKind.FD_RELAY else 1
    middle = evaluations // 2
    real = optimizer._gram_core
    batches = []
    monkeypatch.setattr(optimizer, "_gram_core",
                        lambda h, *args: batches.append(h.tobytes()) or real(h, *args))
    _power_step(pack, kind, 40.0, [])
    target = batches[middle * links]  # the first link's batch at evaluation ``middle``
    computed, pipelined, current = [], [], {}

    def evaluation():
        return len(current["trace"].decisions)

    def gram_core(h, *args):
        """``_gram_core``, with row 0 of the target batch NaN; logs the evaluation."""
        core = real(h, *args)
        computed.append(evaluation())
        if h.tobytes() == target:
            core[:, 0] = math.nan
        return core

    monkeypatch.setattr(optimizer, "_gram_core", gram_core)
    _log_pipeline(monkeypatch, pipelined, evaluation)

    def search(power, packs):
        """``_power_step``: (the pack, the outcome's repr, the evaluations that took an SVD, and
        those that took the pipeline with their row counts)."""
        config = replace(pack.config, tx_power_dbm=power)
        point = harness._point_pack(packs, config, pack.geometry, pack.seed, None)
        current["trace"] = point.search_traces.setdefault((kind, 0), optimizer.SearchTrace())
        computed.clear()
        pipelined.clear()
        outcome = repr(baselines.run_baseline(kind, point, 0))
        assert computed == sorted(computed) and len(computed) % links == 0
        return point, outcome, sorted(set(computed)), list(pipelined)

    # a repeated power does not search the relay again; its decisions at 40 dBm match 30 dBm's
    powers = (30.0, 40.0) if kind == BaselineKind.FD_RELAY else (30.0, 40.0, 40.0)
    alone = {power: search(power, [])[1] for power in powers}
    packs, last, retraced = [], None, []
    for power in powers:
        point, outcome, took, pipeline = search(power, packs)
        trace = point.search_traces[kind, 0]
        assert outcome == alone[power]
        expected = range(evaluations)
        if last is not None:  # retraced: every decision before it is the last run's
            expected = [c for c in expected if trace.decisions[:c] != last[:c]]
        assert took == list(expected)
        # the only NaN core row is row 0 of the first link at the target, which its run holds
        # at evaluation ``middle``; that one row, and no other, takes the pipeline
        nan = np.argwhere(np.isnan(trace.cores)).tolist()
        assert nan in ([], [[middle, entry, 0, 0] for entry in range(6)])
        assert pipeline == ([(middle, 1)] if nan else [])
        if nan and middle not in took:
            retraced.append(power)
        last = list(trace.decisions)  # the next run rewrites them
    assert 40.0 in retraced  # a power step whose evaluation ``middle`` retraced its NaN row


def test_a_hop_with_a_rank_deficient_row_runs_row_by_row():
    # a rank-one row of hop 2 carries fewer streams, so that hop's rows run one at a time, each
    # with the hop's own stages, and keep their bytes and flags as each row alone; hop 1's
    # rows are all full rank and run as one stack
    pack = _relay_pack()
    config = pack.config
    trial = baselines.trial_channels(pack, 3)
    hops = channel.hops(config, pack.geometry, trial, _relay_points(pack, 3, 6),
                        pack.search_ends["relay"])
    hops[1][2] = np.outer(hops[1][2][:, 0], hops[1][2][0])  # rank one: one stream
    budget = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
    flags = []
    for (rx, tx), hop in zip(_RELAY_HOPS, hops):
        f2, f1 = getattr(pack, rx), getattr(pack, tx)
        rates, deficient = hybrid_link_rate(f2, hop, f1, *budget, reduced=True)
        rows = [hybrid_link_rate(f2, row[None], f1, *budget, reduced=True) for row in hop]
        _same_bytes(rates, [r[0] for r, _ in rows])
        assert deficient.tolist() == [d[0] for _, d in rows]
        flags.append(deficient.tolist())
    assert flags == [[False] * 6, [False] * 2 + [True] + [False] * 3]


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
# context's search rate step. A change in rounding moves it.
OBJECTIVE_DIGEST = "73bf01cb553ff705f97a70e935c2f20c6f66dd07aa12ddc8b638c22868a255b9"


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
            context._reduced = lambda state, stack=stack: (stack,)
            update(context, context.search_rates(None))
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
    # the default pack, the phase_search element counts and the position_search UE packs,
    # whose RF stages carry 5-6 beams
    packs = [build_scenario_pack(config, geometry, 0)] + [
        build_scenario_pack(*apply_swept_value(config, geometry, kind, value), 1)
        for kind, values in (("elements", (16, 36, 64, 100)), ("ue_scenarios", UE_POSITIONS))
        for value in values]
    for pack in packs:  # new packs: every fd_relay trial searches here
        for kind in SEARCHES:
            for trial_index in range(5):
                values.clear()
                outcome = baselines.run_baseline(kind, pack, trial_index)
                (value,) = values
                assert outcome.rate == pytest.approx(value, rel=FACTORED_RTOL, abs=0.0), (
                    pack.config.ris_elements, kind, trial_index)
