import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from movable_ris import optimizer
from movable_ris.baselines import (
    BaselineKind,
    build_scenario_pack,
    make_problem_context,
    run_baseline,
)
from movable_ris.optimizer import (
    TWO_PI,
    RisState,
    brute_force_joint,
    decode,
    init_swarm,
    pso_step,
    run,
    run_pso,
)
from movable_ris.scenario import PsoParams, default_config, rng_stream


def tiny_scenario(ris=(1, 2), seed=123):
    config, geometry = default_config()
    config = replace(config, tx_antennas=(2, 2), rx_antennas=(2, 2), ris_elements=ris)
    return config, geometry, build_scenario_pack(config, geometry, seed)


def encode(state: RisState, geometry) -> np.ndarray:
    """Inverse of decode for in-range states (phases taken mod 2pi)."""
    x0, x1 = geometry.platform_x_range
    y0, y1 = geometry.platform_y_range
    return np.concatenate(
        (
            [(state.x - x0) / (x1 - x0), (state.y - y0) / (y1 - y0)],
            (np.asarray(state.phases) % TWO_PI) / TWO_PI,
        )
    )


# --- decode ------------------------------------------------------------------


def test_decode_lower_corner():
    _, geometry, _ = tiny_scenario()
    state = decode(np.zeros(4), geometry)
    assert (state.x, state.y) == (40.0, 40.0)
    np.testing.assert_allclose(state.phases, 0.0)


def test_decode_midpoint():
    _, geometry, _ = tiny_scenario()
    state = decode(np.full(4, 0.5), geometry)
    assert (state.x, state.y) == (55.0, 55.0)
    np.testing.assert_allclose(state.phases, math.pi)


def test_decode_by_hand():
    _, geometry, _ = tiny_scenario()
    state = decode(np.array([1.0, 0.0, 0.25, 0.75]), geometry)
    assert (state.x, state.y) == (70.0, 40.0)
    np.testing.assert_allclose(state.phases, [math.pi / 2, 3 * math.pi / 2])


def test_decode_phases_live_in_half_open_interval():
    _, geometry, _ = tiny_scenario()
    state = decode(np.array([0.5, 0.5, 1.0, 0.999999]), geometry)
    assert np.all(state.phases >= 0.0)
    assert np.all(state.phases < 2 * math.pi)  # the 2*pi endpoint wraps to 0


@given(vec=st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_decode_encode_bijection(vec):
    _, geometry, _ = tiny_scenario()
    v = np.asarray(vec)
    state = decode(v, geometry)
    np.testing.assert_allclose(encode(state, geometry), v, atol=1e-12)
    # decoded states always satisfy the feasibility constraints
    assert geometry.contains(state.x, state.y)
    assert np.all((state.phases >= 0) & (state.phases < 2 * math.pi))


@given(v=hnp.arrays(float, hnp.array_shapes(max_dims=2), elements=st.one_of(
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0)]), st.floats(0.0, 1.0))))
@settings(max_examples=200, deadline=None)
def test_wrap_phases_equal_the_remainder_on_the_unit_interval(v):
    # every phase decoder wraps 2 pi v by one compare and select instead of an fmod
    want = (TWO_PI * v) % TWO_PI
    got = optimizer._wrap_phases(v)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert optimizer._wrap_phases(np.array([1.0]))[0] == 0.0  # the one point that wraps


# the default platform, and one whose bounds have no exact binary form
DECODE_GEOMETRIES = (default_config()[1], replace(
    default_config()[1], platform_x_range=(-3.3, 17.1), platform_y_range=(0.1, 0.7)))
unit_coordinate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@given(
    z=st.integers(min_value=1, max_value=12),
    dim=st.sampled_from([2, 4, 38]),
    geometry=st.sampled_from(DECODE_GEOMETRIES),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_batch_platform_points_equal_stacked_decode_xy(z, dim, geometry, data):
    """The (Z, 2) points a batch hands the search are ``decode_xy``'s values, byte for byte."""
    v = data.draw(hnp.arrays(float, (z, dim), elements=unit_coordinate))
    want = np.column_stack(optimizer.decode_xy(v[:, 0], v[:, 1], geometry))
    for state in (decode(v, geometry), optimizer.decode_on_platform(v, geometry, None)):
        assert state.xy.shape == (z, 2)
        assert state.xy.tobytes() == want.tobytes()
        assert np.column_stack((state.x, state.y)).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", list(BaselineKind))
def test_outcome_positions_are_plain_floats(kind, monkeypatch):
    """Each kind reports x and y as Python floats: the ris_x and ris_y CSV fields are their repr."""
    config, geometry = default_config()
    config = replace(config, tx_antennas=(2, 2), rx_antennas=(2, 2), ris_elements=(2, 2),
                     pso=PsoParams(swarm_size=4, iterations=3))
    pack = build_scenario_pack(config, geometry, 5)  # a new pack: hd searches
    best = []

    def spy(*args):
        result = real(*args)
        best.append(result[0])
        return result

    real = optimizer.run_pso
    monkeypatch.setattr(optimizer, "run_pso", spy)
    outcome = run_baseline(kind, pack, 0)
    assert type(outcome.x) is float and type(outcome.y) is float
    if best and len(best[0]) != config.num_ris:  # the search moved the platform
        assert (outcome.x, outcome.y) == optimizer.decode_xy(*best[0][:2], geometry)
    else:
        assert (outcome.x, outcome.y) == geometry.platform_center()


# --- fitness -----------------------------------------------------------------


def test_fitness_is_pure():
    config, geometry, pack = tiny_scenario()
    ctx = make_problem_context(pack, 0)
    vec = rng_stream(1, 0).random(4)
    state = decode(vec[None], ctx.geometry)
    assert ctx.search_rates(state)[0] == ctx.search_rates(state)[0]


def test_fitness_zero_channel_context():
    config, geometry, pack = tiny_scenario()
    ctx = make_problem_context(pack, 0)
    ctx = replace(ctx, trial=replace(ctx.trial, gains=np.zeros_like(ctx.trial.gains)))
    for seed in range(5):
        state = decode(rng_stream(seed, 0).random(4)[None], ctx.geometry)
        assert ctx.search_rates(state)[0] == 0.0


def test_fitness_phase_wrap_invariance():
    config, geometry, pack = tiny_scenario()
    ctx = make_problem_context(pack, 0)
    state = RisState(52.0, 63.0, np.array([0.3, 1.1]))
    wrapped = RisState(52.0, 63.0, np.array([0.3 + 2 * math.pi, 1.1]))
    assert ctx.rate_for(state) == pytest.approx(ctx.rate_for(wrapped), abs=1e-10)


# --- swarm updates -----------------------------------------------------------


def _quadratic(center):
    """Negated squared distance to ``center``, one value per row of a (Z, D) batch."""

    def f(v):
        return -np.sum((v - center) ** 2, axis=-1)

    return f


def test_init_swarm_shapes_and_history():
    params = PsoParams(swarm_size=7, iterations=5)
    state = init_swarm(_quadratic(0.5), 3, params, rng_stream(0, 0))
    assert state.positions.shape == (7, 3)
    assert np.all(state.velocities == 0.0)
    assert len(state.history) == 1
    assert state.global_best_value == max(state.best_values)


def test_step_keeps_positions_in_box_and_zeroes_clamped_velocity():
    params = PsoParams(swarm_size=6, iterations=4, velocity_clamp=1.0)
    f = _quadratic(1.5)  # optimum outside the box: drives particles to the wall
    rng = rng_stream(1, 0)
    state = init_swarm(f, 2, params, rng)
    for t in range(1, 5):
        pso_step(state, params, t, rng, f)
        assert np.all(state.positions >= 0.0)
        assert np.all(state.positions <= 1.0)
        at_wall = (state.positions == 0.0) | (state.positions == 1.0)
        # velocity on any clamped dimension was zeroed during that step
        assert np.all(np.isfinite(state.velocities))


def test_zero_velocity_at_global_best_is_fixpoint():
    params = PsoParams(swarm_size=4, iterations=3)
    f = _quadratic(0.25)
    rng = rng_stream(2, 0)
    state = init_swarm(f, 3, params, rng)
    best = state.global_best_position.copy()
    state.positions[:] = best
    state.best_positions[:] = best
    state.best_values[:] = state.global_best_value
    state.velocities[:] = 0.0
    pso_step(state, params, 1, rng, f)
    np.testing.assert_array_equal(state.positions, np.tile(best, (4, 1)))


def test_pure_drift_regression():
    # social = cognitive = 0, inertia 1: ballistic motion with clamping
    # (validate() rejects zero weights for real runs; the update law itself
    # degrades gracefully, which is what this regression pins down)
    params = PsoParams(
        swarm_size=3, iterations=2, social_weight=0.0, cognitive_weight=0.0,
        inertia_start=1.0, inertia_end=1.0, velocity_clamp=0.5,
    )
    f = _quadratic(0.5)
    rng = rng_stream(3, 0)
    state = init_swarm(f, 2, params, rng)
    state.velocities[:] = 0.1
    expected = np.clip(state.positions + 0.1, 0.0, 1.0)
    pso_step(state, params, 1, rng, f)
    np.testing.assert_allclose(state.positions, expected, atol=1e-12)
    expected2 = np.clip(state.positions + 0.1, 0.0, 1.0)
    pso_step(state, params, 2, rng, f)
    np.testing.assert_allclose(state.positions, expected2, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=30, deadline=None)
def test_global_best_history_monotone(seed):
    params = PsoParams(swarm_size=5, iterations=12)
    rng = rng_stream(seed, 0)
    center = rng.random(3)
    _, _, history = run_pso(_quadratic(center), 3, params, rng)
    assert len(history) == 13
    assert all(a <= b for a, b in zip(history, history[1:]))


def _reference_run_pso(row_fn, dim, params, rng):
    """Per-particle swarm loop: one objective call per particle, strict-> bests."""
    z = params.swarm_size
    pos = rng.random((z, dim))
    vel = np.zeros((z, dim))
    values = np.array([row_fn(pos[i]) for i in range(z)])
    g, top = 0, -math.inf
    for i in range(z):  # index-order strict-> scan: the first maximum, never a NaN
        if values[i] > top:
            g, top = i, values[i]
    best_pos, best_val = pos.copy(), values.copy()
    gbest_pos, gbest_val = pos[g].copy(), float(values[g])
    history = [gbest_val]
    for t in range(1, params.iterations + 1):
        frac = (t - 1) / (params.iterations - 1) if params.iterations > 1 else 0.0
        inertia = params.inertia_start + (params.inertia_end - params.inertia_start) * frac
        y1 = rng.random((z, dim))
        y2 = rng.random((z, dim))
        vel = (params.social_weight * y1 * (gbest_pos[None, :] - pos)
               + params.cognitive_weight * y2 * (best_pos - pos) + inertia * vel)
        np.clip(vel, -params.velocity_clamp, params.velocity_clamp, out=vel)
        pos = pos + vel
        vel[(pos < 0.0) | (pos > 1.0)] = 0.0
        np.clip(pos, 0.0, 1.0, out=pos)
        for i in range(z):
            value = row_fn(pos[i])  # a NaN best gives way to the first non-NaN value
            if value > best_val[i] or (math.isnan(best_val[i]) and not math.isnan(value)):
                best_val[i] = value
                best_pos[i] = pos[i].copy()
        for i in range(z):
            if best_val[i] > gbest_val or (math.isnan(gbest_val) and not math.isnan(best_val[i])):
                gbest_val = float(best_val[i])
                gbest_pos = best_pos[i].copy()
        history.append(gbest_val)
    return gbest_pos, gbest_val, history


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    swarm_size=st.integers(min_value=1, max_value=6),
    dim=st.integers(min_value=1, max_value=4),
    iterations=st.integers(min_value=0, max_value=12),
    center=st.floats(min_value=-0.5, max_value=1.5),
    levels=st.sampled_from([1.0, 4.0, 1e6]),
    nan_at_wall=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_run_pso_matches_per_particle_loop(seed, swarm_size, dim, iterations, center, levels,
                                           nan_at_wall):
    # Coarse levels give ties; NaN on the upper wall appears only after a
    # clamp, never at the uniform start, and must never become a best.
    def row_fn(v):
        if nan_at_wall and np.any(v == 1.0):
            return math.nan
        return -float(np.round(np.sum((v - center) ** 2) * levels)) / levels

    def batch_fn(positions):
        return [row_fn(v) for v in positions]

    params = PsoParams(swarm_size=swarm_size, iterations=iterations, velocity_clamp=0.8)
    best_vec, best_val, history = run_pso(batch_fn, dim, params, rng_stream(seed, 0))
    ref_vec, ref_val, ref_history = _reference_run_pso(row_fn, dim, params, rng_stream(seed, 0))
    assert best_vec.tobytes() == ref_vec.tobytes()
    assert best_val == ref_val
    assert history == ref_history
    assert all(a <= b for a, b in zip(history, history[1:]))
    assert history[-1] == best_val


def _logged_run(fn, dim, params, seed):
    """(positions' bytes, decisions) of each evaluation of a ``run_pso`` of ``fn``."""
    positions, decisions = [], []
    run_pso(lambda v: positions.append(v.tobytes()) or fn(v), dim, params, rng_stream(seed, 0),
            decisions)
    return positions, decisions


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    swarm_size=st.integers(min_value=1, max_value=6),
    dim=st.integers(min_value=1, max_value=4),
    iterations=st.integers(min_value=0, max_value=8),
    centers=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
    levels=st.sampled_from([1.0, 4.0, 1e6]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_equal_decisions_before_an_evaluation_give_its_positions(seed, swarm_size, dim,
                                                                 iterations, centers, levels,
                                                                 data):
    # the positions of evaluation c depend only on the rng stream and the decisions before c:
    # objectives that decide alike (one scaled by 2, as a budget rescales rates) score the same
    # particles throughout, other objectives as long as their decisions agree, and a value of
    # evaluation k changed to flip a decision changes the records from k on
    def quadratic(center):
        return lambda v: -np.round(((v - center) ** 2).sum(axis=1) * levels) / levels

    params = PsoParams(swarm_size=swarm_size, iterations=iterations, velocity_clamp=0.8)
    base = quadratic(centers[0])
    positions, decisions = _logged_run(base, dim, params, seed)
    assert len(positions) == len(decisions) == iterations + 1
    first = 0 if swarm_size > 1 else 1  # a lone particle is evaluation 0's best whatever its value
    assume(iterations >= first)
    k = data.draw(st.integers(first, iterations), label="k")
    j = data.draw(st.integers(0, swarm_size - 1), label="j")
    decided = decisions[k] == j if k == 0 else np.frombuffer(decisions[k][0], dtype=bool)[j]
    calls = []

    def perturbed(v):
        values = base(v)
        if len(calls) == k:  # particle j's step k goes where base's did not: a new decision
            values[j] = -math.inf if decided else math.inf
        calls.append(1)
        return values

    runs = {name: _logged_run(fn, dim, params, seed)
            for name, fn in (("scaled", lambda v: 2.0 * base(v)), ("other", quadratic(centers[1])),
                             ("perturbed", perturbed))}
    assert runs["scaled"] == (positions, decisions)
    for other_positions, other_decisions in runs.values():
        for c in range(iterations + 1):
            if other_decisions[:c] == decisions[:c]:
                assert other_positions[c] == positions[c], c
    changed_positions, changed = runs["perturbed"]
    assert changed[:k] == decisions[:k] and changed[k] != decisions[k]
    assert changed_positions[:k + 1] == positions[:k + 1]


def test_nan_at_the_first_particle_does_not_poison_the_search():
    # One NaN at particle 0 of the initial swarm: the global best starts at the
    # best finite particle, so the search and its whole history stay finite.
    calls = []

    def objective(positions):
        values = -np.sum((positions - 0.3) ** 2, axis=1)
        if not calls:
            values[0] = math.nan
            calls.append(values.copy())
        return values

    params = PsoParams(swarm_size=5, iterations=4)
    state = init_swarm(objective, 3, params, rng_stream(4, 0))
    first = calls[0]
    assert state.global_best_value == np.nanmax(first)
    assert np.array_equal(state.global_best_position, state.positions[np.nanargmax(first)])
    calls.clear()
    _, best_val, history = run_pso(objective, 3, params, rng_stream(4, 0))
    assert len(history) == params.iterations + 1
    assert all(math.isfinite(h) for h in history) and best_val == history[-1]


def _nan_for_the_first(count):
    """A per-particle objective that reads NaN for its first ``count`` calls."""
    scored = []

    def row_fn(v):
        scored.append(None)
        return math.nan if len(scored) <= count else -float(np.sum((v - 0.3) ** 2))

    return row_fn


def test_all_nan_first_call_recovers_at_the_first_finite_value():
    # Every particle of the initial call is NaN, so every best starts NaN; the
    # first non-NaN values must replace them.
    params = PsoParams(swarm_size=5, iterations=4)
    row_fn = _nan_for_the_first(params.swarm_size)
    best_vec, best_val, history = run_pso(lambda p: [row_fn(v) for v in p], 3, params,
                                          rng_stream(4, 0))
    assert math.isnan(history[0])
    assert all(math.isfinite(h) for h in history[1:])
    assert all(a <= b for a, b in zip(history[1:], history[2:]))
    assert best_val == history[-1] == -float(np.sum((best_vec - 0.3) ** 2))
    ref_vec, ref_val, ref_history = _reference_run_pso(
        _nan_for_the_first(params.swarm_size), 3, params, rng_stream(4, 0))
    assert ref_vec.tobytes() == best_vec.tobytes()
    assert ref_val == best_val and ref_history[1:] == history[1:]


@given(
    best=st.lists(st.one_of(st.floats(-3, 3), st.just(math.nan)), min_size=1, max_size=6),
    new=st.lists(st.one_of(st.floats(-3, 3), st.just(math.nan)), min_size=6, max_size=6),
    gbest=st.floats(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_pso_step_bests_follow_strict_scan(best, new, gbest):
    # Any swarm state, NaN personal bests included: bests move only on a
    # strict improvement or from NaN to a non-NaN value, and the global best
    # is what an index-order strict-> scan picks, so a NaN is never chosen
    # the way np.argmax would.
    z = len(best)
    values = np.array(new[:z])
    state = init_swarm(lambda p: np.zeros(len(p)), 2, PsoParams(swarm_size=z), rng_stream(1, 0))
    state.best_values = np.array(best)
    state.global_best_value = gbest
    expected_best = [v if v > b or (math.isnan(b) and not math.isnan(v)) else b
                     for v, b in zip(values, best)]
    expected_g, expected_i = gbest, None
    for i, b in enumerate(expected_best):
        if b > expected_g:
            expected_g, expected_i = b, i
    pso_step(state, PsoParams(swarm_size=z), 1, rng_stream(2, 0), lambda p: values)
    assert np.array_equal(state.best_values, expected_best, equal_nan=True)
    assert state.history[-1] == expected_g == state.global_best_value
    if expected_i is not None:
        assert np.array_equal(state.global_best_position, state.best_positions[expected_i])


def test_objective_must_return_one_value_per_particle():
    params = PsoParams(swarm_size=4, iterations=1)
    with pytest.raises(ValueError, match="shape"):
        run_pso(lambda p: np.zeros(len(p) + 1), 2, params, rng_stream(8, 0))


def test_run_zero_iterations_returns_init_best():
    params = PsoParams(swarm_size=5, iterations=0)
    rng = rng_stream(4, 0)
    best_vec, best_val, history = run_pso(_quadratic(0.5), 2, params, rng)
    assert len(history) == 1
    assert history[0] == best_val


def test_single_particle_value_monotone_on_sphere():
    # with one particle both attractors coincide, so the value can only be
    # preserved or improved by leftover inertia; never lost
    params = PsoParams(swarm_size=1, iterations=40)
    rng = rng_stream(5, 0)
    _, best_val, history = run_pso(_quadratic(0.5), 4, params, rng)
    assert best_val >= history[0]
    assert all(a <= b for a, b in zip(history, history[1:]))


def test_single_particle_at_optimum_stays_in_box():
    params = PsoParams(swarm_size=1, iterations=10)
    f = _quadratic(0.5)
    rng = rng_stream(15, 0)
    state = init_swarm(f, 3, params, rng)
    state.positions[0] = 0.5
    state.best_positions[0] = 0.5
    state.best_values[0] = f(np.full(3, 0.5))
    state.global_best_position = np.full(3, 0.5)
    state.global_best_value = state.best_values[0]
    for t in range(1, 11):
        pso_step(state, params, t, rng, f)
        assert np.all((state.positions >= 0) & (state.positions <= 1))
    assert state.global_best_value == f(np.full(3, 0.5))


def test_swarm_beats_random_on_table_scale():
    # final >= initial by a strictly positive margin in >= 95% of seeds
    params = PsoParams(swarm_size=10, iterations=30)
    improved = 0
    seeds = 60
    for seed in range(seeds):
        rng = rng_stream(seed, 1)
        center = rng.random(6)
        _, best, history = run_pso(_quadratic(center), 6, params, rng)
        if best > history[0]:
            improved += 1
    assert improved >= 0.95 * seeds


def test_swarm_improves_over_init_on_desk_scenario():
    # the real joint objective at default scale: 100 seeds, Z=10, T=30
    config, geometry = default_config()
    pack = build_scenario_pack(config, geometry, 77)
    improved = 0
    seeds = 100
    for s in range(seeds):
        ctx = make_problem_context(pack, s)
        _, best, history = run(ctx, config.pso, rng_stream(77, s, 1))
        if best > history[0]:
            improved += 1
    assert improved >= 0.95 * seeds


def _tied_objective(v):
    """A bowl read in steps of 1/16, so particles tie exactly; row 3 is NaN on every call."""
    values = np.floor(-16.0 * np.sum((v - 0.3) ** 2, axis=-1)) / 16.0
    values[3] = math.nan
    return values


# sha256 of run_pso's history, best vector and value, and the final positions, velocities and
# personal bests on _tied_objective at dims 2, 38 and 100, under the default coefficients and
# under a tight velocity clamp. A change in the swarm's arithmetic, its clamps or its tie and
# NaN handling moves it.
SWARM_DIGEST = "406d974ad6a65a75d06e9e7bda0e609a39c2dd65606a8d1b6bc8632e7fc4fee5"


def test_swarm_dynamics_bytes_are_pinned(monkeypatch):
    states = []
    real_init = optimizer.init_swarm

    def init(*args):
        states.append(real_init(*args))
        return states[-1]

    monkeypatch.setattr(optimizer, "init_swarm", init)
    digest = hashlib.sha256()
    tight = PsoParams(swarm_size=7, iterations=12, velocity_clamp=0.1)
    for params in (PsoParams(), tight):
        for dim in (2, 38, 100):
            best_vec, best_val, history = run_pso(_tied_objective, dim, params, rng_stream(dim, 3))
            state = states[-1]
            for array in (history, best_vec, [best_val], state.positions, state.velocities,
                          state.best_positions, state.best_values):
                digest.update(np.asarray(array, dtype=float).tobytes())
    assert digest.hexdigest() == SWARM_DIGEST


# --- joint context and oracle --------------------------------------------------


def test_run_returns_feasible_state_and_history():
    config, geometry, pack = tiny_scenario()
    ctx = make_problem_context(pack, 0)
    params = PsoParams(swarm_size=6, iterations=10)
    state, rate, history = run(ctx, params, rng_stream(6, 0))
    assert geometry.contains(state.x, state.y)
    assert len(state.phases) == config.num_ris
    assert len(history) == 11
    # the reported rate is the reference pipeline's at the returned state; the
    # swarm's own value differs from it by rounding only
    assert np.float64(rate).tobytes() == np.float64(ctx.rate_for(state)).tobytes()
    assert rate == pytest.approx(history[-1], rel=1e-13, abs=0.0)
    assert all(a <= b for a, b in zip(history, history[1:]))


def test_brute_force_single_point_equals_fitness():
    config, geometry, pack = tiny_scenario(ris=(1, 1))
    ctx = make_problem_context(pack, 0)
    state, value = brute_force_joint(ctx, 1, 1)
    assert (state.x, state.y) == (55.0, 55.0)  # midpoint for a 1-point grid
    assert value == pytest.approx(ctx.rate_for(state), abs=1e-12)


def _nan_where_last_phase_is_low(rate_for):
    """A rate_for that reads NaN wherever the last element's phase is below pi.

    In grid order that is the first half of every run of phase_steps points,
    so every chunk of the oracle's phase grid holds a NaN.
    """
    def patched(state):
        values = rate_for(state)
        return np.where(np.asarray(state.phases)[..., -1] < math.pi, math.nan, values)[()]
    return patched


def _hand_loop(ctx, geometry, num_ris, position_steps, phase_steps):
    """Reference oracle: one point at a time in grid order, first strict maximum."""
    best = -math.inf
    best_state = None
    for gx in np.linspace(0, 1, position_steps):
        for gy in np.linspace(0, 1, position_steps):
            for ks in itertools.product(range(phase_steps), repeat=num_ris):
                cand = decode(np.array([gx, gy, *(k / phase_steps for k in ks)]), geometry)
                r = ctx.rate_for(cand)
                if r > best:
                    best, best_state = r, cand
    return best_state, best


def test_brute_force_matches_hand_loop(monkeypatch):
    cases = [  # (RIS shape, trial, phase rows per rate_for call, NaN values)
        ((1, 1), 0, None, False),
        ((1, 2), 0, None, False),  # the criterion-3 toy
        ((1, 2), 1, None, False),
        ((1, 2), 2, 7, False),     # chunks split each position's phase grid
        ((1, 2), 3, 7, True),      # a NaN is never the maximum
    ]
    for ris, trial, chunk, with_nan in cases:
        config, geometry, pack = tiny_scenario(ris=ris)
        ctx = make_problem_context(pack, trial)
        with monkeypatch.context() as mp:
            if chunk is not None:
                mp.setattr(optimizer, "_ORACLE_CHUNK", chunk)
            if with_nan:
                mp.setattr(ctx, "rate_for", _nan_where_last_phase_is_low(ctx.rate_for))
            state, value = brute_force_joint(ctx, 4, 8)
            best_state, best = _hand_loop(ctx, geometry, config.num_ris, 4, 8)
        assert isinstance(value, float)
        assert np.float64(value).tobytes() == np.float64(best).tobytes()
        assert (state.x, state.y) == (best_state.x, best_state.y)
        assert state.phases.tobytes() == best_state.phases.tobytes()
        if with_nan:
            assert state.phases[-1] >= math.pi


def test_brute_force_refuses_oversized_grid():
    config, geometry, pack = tiny_scenario(ris=(4, 4))
    ctx = make_problem_context(pack, 0)
    with pytest.raises(ValueError, match="grid too large"):
        brute_force_joint(ctx, 10, 16)  # 100 * 16^16 points


def test_pso_reaches_oracle_on_tiny_instance():
    # scaled-down version of the acceptance comparison: 10 seeds here
    config, geometry, pack = tiny_scenario()
    params = PsoParams(swarm_size=10, iterations=50)
    hits = 0
    for seed in range(10):
        ctx = make_problem_context(pack, seed)
        _, oracle = brute_force_joint(ctx, 4, 8)
        _, val, _ = run(ctx, params, rng_stream(100 + seed, 0))
        if val >= 0.98 * oracle:
            hits += 1
    assert hits >= 8


def test_fitness_at_brute_force_argmax_beats_random_particles():
    config, geometry, pack = tiny_scenario()
    ctx = make_problem_context(pack, 0)
    _, oracle = brute_force_joint(ctx, 6, 8)
    rng = rng_stream(7, 0)
    random_vals = [ctx.search_rates(decode(rng.random(4)[None], ctx.geometry))[0]
                   for _ in range(100)]
    # the grid argmax dominates random sampling on the same landscape almost
    # surely; allow the tiny chance a random point lands on a better peak
    assert oracle >= np.quantile(random_vals, 0.95)


@pytest.mark.parametrize("steps", [(0, 8), (4, 0), (-1, 2)])
def test_brute_force_rejects_steps_below_one(steps):
    _, _, pack = tiny_scenario()
    with pytest.raises(ValueError, match="grid steps must be >= 1"):
        brute_force_joint(make_problem_context(pack, 0), *steps)
