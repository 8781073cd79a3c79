"""The batched building blocks of one fitness evaluation, against scalar references.

Each reference below is the per-position or per-matrix computation the
batched code replaced, kept here so the comparison does not run through
the code under test. Comparisons are by bytes, not within a tolerance,
except for the searches' factored objectives, which are held to a stated
relative bound of the reference rates.
"""

import math
import re
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from movable_ris import baselines, beamforming, channel, optimizer
from movable_ris.baselines import BaselineKind, build_scenario_pack
from movable_ris.beamforming import effective_channel, hybrid_link_rate
from movable_ris.harness import apply_swept_value
from movable_ris.channel import (
    DegenerateGeometryError,
    composite_channel,
    steering_matrix,
    wavelength_m,
)
from movable_ris.scenario import (
    PsoParams,
    default_config,
    path_amplitudes,
    rng_stream,
    validate,
)
from test_batch import FACTORED_RTOL, _objective_of
from test_channel import hop_paths


UP, DOWN = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)  # the nodes' and the platform's array boresights


class LinkAngles(NamedTuple):
    """Mean angles (radians) at end a (departure) and end b (arrival), and the length."""

    dep_elevation: float
    dep_azimuth: float
    arr_elevation: float
    arr_azimuth: float
    distance_m: float


def _reference_mean_angles(pos_a, pos_b, boresight_a, boresight_b) -> LinkAngles:
    """One link's mean angles with np.linalg.norm and np.dot on its 3-vectors."""
    v = np.asarray(pos_b, dtype=float) - np.asarray(pos_a, dtype=float)
    tau = float(np.linalg.norm(v))
    if tau == 0.0:
        raise DegenerateGeometryError(f"coincident positions {pos_a}")
    u = v / tau
    w = -u
    return LinkAngles(
        math.acos(min(max(float(np.dot(u, boresight_a)), -1.0), 1.0)),
        math.atan2(u[1], u[0]),
        math.acos(min(max(float(np.dot(w, boresight_b)), -1.0), 1.0)),
        math.atan2(w[1], w[0]),
        tau,
    )


def _angle_bytes(angles: LinkAngles) -> bytes:
    """The fields' bytes, with every NaN as ``np.nan``: a NaN's sign bit is not compared.

    ``platform_angles`` gives both ends of a link one ``acos``, so a NaN
    row's node-end elevation has the platform end's sign, where the
    reference's negated unit vector flips it. Nothing downstream reads the
    sign of a NaN.
    """
    fields = np.array([np.asarray(field, dtype=float) for field in angles])
    return np.where(np.isnan(fields), np.nan, fields).tobytes()


def _platform_links(geometry, xy) -> LinkAngles:
    """``channel.platform_angles`` of the points as one LinkAngles of (2B,) fields, node-major.

    End a is the platform point and end b the node, Tx node first.
    """
    angles, tau = channel.platform_angles(geometry, np.array(xy, dtype=float))
    el, az = angles.reshape(2, 2, -1)
    return LinkAngles(el[0], az[0], el[1], az[1], tau.ravel())


def _reference_links(geometry, xy) -> LinkAngles:
    """Per-link references of ``_platform_links``."""
    points = [(x, y, geometry.ris_height_m) for x, y in xy]
    rows = [_reference_mean_angles(point, node, DOWN, UP)
            for node in (geometry.tx_position, geometry.ue_position) for point in points]
    return LinkAngles(*zip(*rows))


GEOMETRY = default_config()[1]
NODES = (GEOMETRY.tx_position, GEOMETRY.ue_position)
CORNERS = tuple((x, y) for x in GEOMETRY.platform_x_range for y in GEOMETRY.platform_y_range)
BELOW_NODES = tuple(node[:2] for node in NODES)  # platform points straight above a node
coordinate = st.floats(min_value=-200.0, max_value=300.0, allow_nan=False)
platform_xy = st.one_of(
    st.sampled_from(CORNERS + BELOW_NODES + (GEOMETRY.platform_center(),)),
    st.tuples(coordinate, coordinate),  # mostly off the platform
)
node_position = st.tuples(coordinate, coordinate, st.floats(min_value=0.0, max_value=50.0))


@given(
    nodes=st.one_of(st.just(NODES), st.tuples(node_position, node_position)),
    xy=st.lists(platform_xy, min_size=1, max_size=8),
    height=st.sampled_from([GEOMETRY.ris_height_m, 0.1, 37.5]),
)
@settings(max_examples=200, deadline=None)
def test_platform_angles_equal_scalar_reference(nodes, xy, height):
    """Nodes below and above the platform plane, at three platform heights."""
    geometry = replace(GEOMETRY, tx_position=nodes[0], ue_position=nodes[1], ris_height_m=height)
    try:
        reference = _reference_links(geometry, xy)
    except DegenerateGeometryError as exc:  # a node on a platform point: the first one raises
        with pytest.raises(DegenerateGeometryError, match=re.escape(str(exc))):
            channel.platform_angles(geometry, np.array(xy))
        return
    assert _angle_bytes(_platform_links(geometry, xy)) == _angle_bytes(reference)


def _raw_cosines(pos_a, pos_b, boresight_a, boresight_b) -> tuple[float, float]:
    """Each end's boresight projection before ``acos`` clamps it, as the reference takes it."""
    v = np.asarray(pos_b, dtype=float) - np.asarray(pos_a, dtype=float)
    u = v / np.linalg.norm(v)
    return float(np.dot(u, boresight_a)), float(np.dot(-u, boresight_b))


@pytest.mark.parametrize("xy, tx_z, cosine", [
    ([(55.0, 45.0), (50.0, 40.0)], 2.0, 1.0),  # the Tx node right below the first point
    ([(55.0, 45.0), (50.0, 40.0)], 8.0, -1.0),  # the Tx node right above it
    ([(55.0, 45.0), (math.nan, 45.0), (50.0, 40.0)], 2.0, 1.0),  # a NaN row among finite ones
], ids=["one", "minus_one", "nan_row"])
def test_clamped_and_nan_cosines_equal_scalar_reference(xy, tx_z, cosine):
    """The first link's projections are ``cosine`` at both ends; each link equals its reference."""
    geometry = replace(GEOMETRY, tx_position=(55.0, 45.0, tx_z), ris_height_m=5.0)
    assert _raw_cosines((*xy[0], 5.0), geometry.tx_position, DOWN, UP) == (cosine, cosine)
    reference = _reference_links(geometry, xy)
    nan_links = [i for i, p in enumerate(xy * 2) if math.isnan(p[0])]
    for field in reference:  # a NaN row stays NaN rather than raising
        assert all(math.isnan(field[i]) for i in nan_links)
    assert _angle_bytes(_platform_links(geometry, xy)) == _angle_bytes(reference)


@given(
    nodes=st.one_of(
        st.just(NODES),
        st.tuples(*[st.tuples(coordinate, coordinate, st.floats(min_value=0.0, max_value=4.9))] * 2),
    ),
    height=st.sampled_from([GEOMETRY.ris_height_m, 37.5]),
)
@settings(max_examples=50, deadline=None)
def test_platform_footprint_entries_equal_reference(nodes, height):
    """Entry (axis, end, node, anchor) of the footprint is that anchor-node pair's reference."""
    geometry = replace(GEOMETRY, tx_position=nodes[0], ue_position=nodes[1], ris_height_m=height)
    footprint = beamforming.platform_footprint(geometry)
    assert footprint.shape == (2, 2, 2, 5)
    for node_index, node in enumerate(nodes):
        for anchor_index, (x, y) in enumerate((GEOMETRY.platform_center(),) + CORNERS):
            ref = _reference_mean_angles((x, y, height), node, DOWN, UP)
            want = [[ref.dep_elevation, ref.arr_elevation], [ref.dep_azimuth, ref.arr_azimuth]]
            assert footprint[:, :, node_index, anchor_index].tobytes() == np.array(want).tobytes()


def test_coincident_nodes_still_raise():
    node = (55.0, 45.0, GEOMETRY.ris_height_m)
    stack = np.array([(50.0, 50.0, 5.0), node, (60.0, 60.0, 5.0)])
    geometry = replace(GEOMETRY, ue_position=node)
    with pytest.raises(DegenerateGeometryError, match=re.escape(f"coincident positions {node}")):
        channel.platform_angles(geometry, stack[:, :2])
    geometry = replace(GEOMETRY, tx_position=node)
    config = default_config()[0]
    trial = channel.draw_trial(config, rng_stream(1, 0))
    with pytest.raises(DegenerateGeometryError):
        channel.realize_channels(config, geometry, trial, node[:2])
    with pytest.raises(DegenerateGeometryError, match=re.escape(f"coincident positions {node}")):
        channel.hops(config, geometry, trial, stack[:, :2])  # one row of a batch


# --- hop matrices to the reduced channel ----------------------------------------


def _reference_hop(config, geometry, trial, x, y, link, platform_shape=None):
    """One position's hop matrix, built path by path as a single-position loop would."""
    z = geometry.ris_height_m
    into = link == "tx_ris"
    if into:  # (elevation/azimuth, platform/node end): the Tx hop arrives at the platform
        ref = _reference_mean_angles(geometry.tx_position, (x, y, z), UP, DOWN)
        means = [[ref.arr_elevation, ref.dep_elevation], [ref.arr_azimuth, ref.dep_azimuth]]
    else:
        ref = _reference_mean_angles((x, y, z), geometry.ue_position, DOWN, UP)
        means = [[ref.dep_elevation, ref.arr_elevation], [ref.dep_azimuth, ref.arr_azimuth]]
    paths = hop_paths(np.array(means), ref.distance_m, trial, 0 if into else 1)
    el, az = (paths.arr_elevation, paths.arr_azimuth) if into else (
        paths.dep_elevation, paths.dep_azimuth)
    # the translation phase of each path, taken at its platform-side direction
    dx, dy = np.array([x, y]) - geometry.platform_center()
    ux, uy = np.sin(el) * np.cos(az), np.sin(el) * np.sin(az)
    paths.gains = paths.gains * np.exp(
        -2j * np.pi * (dx * ux + dy * uy) / wavelength_m(config.carrier_frequency_ghz))
    platform = config.ris_elements if platform_shape is None else platform_shape
    tx_shape, rx_shape = (config.tx_antennas, platform) if into else (platform, config.rx_antennas)
    spacing = config.element_spacing_wavelengths
    amp = path_amplitudes(config.carrier_frequency_ghz, (paths.distance_m,),
                          config.path_loss_exponent, config.path_loss_mode)[0]
    left = steering_matrix(paths.arr_elevation, paths.arr_azimuth, *rx_shape, spacing)
    left *= (amp * paths.gains)[None, :]
    right = steering_matrix(paths.dep_elevation, paths.dep_azimuth, *tx_shape, spacing)
    return left @ right.T


def _toy_pack(seed):
    config, geometry = default_config()
    config = replace(config, tx_antennas=(4, 4), rx_antennas=(4, 4), ris_elements=(2, 3),
                     pso=PsoParams(swarm_size=6, iterations=4))
    return build_scenario_pack(config, geometry, seed)


def _default_pack(seed):
    return build_scenario_pack(*default_config(), seed)


@contextmanager
def _effective_channels():
    """Every EffectiveChannel the rate pipeline builds inside the block, in call order."""
    seen = []

    def spy(f2, h, f1):
        eff = effective_channel(f2, h, f1)
        seen.append(eff)
        return eff

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beamforming, "effective_channel", spy)
        yield seen


def _eff_bytes(eff, row=...):
    """Bytes of an EffectiveChannel's arrays, or of one row of a stacked one."""
    return [a[row].tobytes() for a in (eff.matrix, eff.u, eff.singular_values, eff.vh)]


def _positions(pack, draw_seed, count, clamp):
    rng = rng_stream(draw_seed, 2)
    p = rng.random((count, 2))
    if clamp:  # platform walls, as pso_step leaves particles
        p[rng.random((count, 2)) < 0.3] = 0.0
        p[rng.random((count, 2)) < 0.3] = 1.0
    # x and y as two contiguous arrays
    return tuple(optimizer.decode_on_platform(p, pack.geometry, None).points.T.copy())


# The reference side of a factored comparison takes slogdet(I + W^-1 Q) / ln 2, and adding I
# rounds each 1 + m_ii to a multiple of ulp(1) = eps: one rounding flip moves its rate by
# eps / ln 2 whatever its size, so a low rate is held to a few of those absolutely. The search
# side's closed form keeps its relative accuracy at low rates.
LOW_RATE_ATOL = 4 * np.finfo(float).eps / math.log(2)


@given(
    scale=st.sampled_from(["default", "toy"]),
    trial_index=st.integers(min_value=0, max_value=30),
    draw_seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=6),
    clamp=st.booleans(),
    shared=st.sampled_from(["none", "phases", "position"]),
)
# a rate of 1.04e-3 bps/Hz whose two sides differ by 3.0e-16, 2.9e-13 relative: the search's
# closed form is 6 ulp from an exact evaluation and the reference 1,330 ulp
@example(scale="toy", trial_index=7, draw_seed=1408, count=5, clamp=True, shared="none")
@settings(max_examples=30, deadline=None)
def test_ris_loop_equals_composite_then_effective_channel(
    scale, trial_index, draw_seed, count, clamp, shared
):
    pack = (_default_pack if scale == "default" else _toy_pack)(4)
    context = baselines.make_problem_context(pack, trial_index)
    x, y = _positions(pack, draw_seed, count, clamp)
    n = pack.config.num_ris
    shared_phases = shared == "phases"
    phases = rng_stream(draw_seed, 5).uniform(0.0, 2 * math.pi, n if shared_phases else (count, n))
    state = optimizer.RisState(x, y, phases)
    if shared == "position":  # one position: the cached reduced hops of a phase-only search
        state = optimizer.RisState(float(x[0]), float(y[0]), phases)
        x, y = np.full(count, x[0]), np.full(count, y[0])
    searched = context.search_rates(state)
    reference = []
    for b in range(count):
        phases_b = phases if shared_phases else phases[b]
        h_ti = _reference_hop(pack.config, pack.geometry, context.trial, x[b], y[b], "tx_ris")
        h_ir = _reference_hop(pack.config, pack.geometry, context.trial, x[b], y[b], "ris_rx")
        h = composite_channel(h_ir, phases_b, h_ti)
        row = effective_channel(pack.f2, h, pack.f1)
        with _effective_channels() as seen:
            rate = context.rate_for(optimizer.RisState(float(x[b]), float(y[b]), phases_b))
        (eff,) = seen
        assert _eff_bytes(eff, 0) == _eff_bytes(row)
        assert eff.ranks == row.ranks
        expected, _ = hybrid_link_rate(pack.f2, h[None], pack.f1, pack.config.tx_power_watts,
                                       pack.config.num_streams, pack.config.noise_power_watts)
        assert np.float64(rate).tobytes() == expected[0].tobytes()
        reference.append(rate)
    np.testing.assert_allclose(searched, reference, rtol=FACTORED_RTOL, atol=LOW_RATE_ATOL)


@given(
    scale=st.sampled_from(["default", "toy"]),
    trial_index=st.integers(min_value=0, max_value=30),
    draw_seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=6),
    clamp=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_relay_loop_equals_per_particle_effective_channel(
    scale, trial_index, draw_seed, count, clamp
):
    pack = (_default_pack if scale == "default" else _toy_pack)(4)
    config = pack.config
    trial = baselines.trial_channels(pack, trial_index)
    x, y = _positions(pack, draw_seed, count, clamp)
    relay, xy = baselines._RelaySearch(pack, trial_index), np.column_stack((x, y))
    with _effective_channels() as seen:
        rates = relay.rate_for(optimizer.RisState(x, y, None, xy))
    hop1, hop2 = seen
    for b in range(count):
        h1 = _reference_hop(config, pack.geometry, trial, x[b], y[b], "tx_ris", config.rx_antennas)
        h2 = _reference_hop(config, pack.geometry, trial, x[b], y[b], "ris_rx", config.tx_antennas)
        for batch, row in ((hop1, effective_channel(pack.relay_f2_hop1, h1, pack.f1)),
                           (hop2, effective_channel(pack.f2, h2, pack.relay_f1_hop2))):
            assert _eff_bytes(batch, b) == _eff_bytes(row)
        args = (config.tx_power_watts, config.num_streams, config.noise_power_watts)
        rate1, _ = hybrid_link_rate(pack.relay_f2_hop1, h1[None], pack.f1, *args)
        rate2, _ = hybrid_link_rate(pack.f2, h2[None], pack.relay_f1_hop2, *args)
        assert rates[b].tobytes() == min(rate1[0], rate2[0]).tobytes()
    searched = relay.search_rates(optimizer.RisState(x, y, None, xy))
    np.testing.assert_allclose(searched, rates, rtol=FACTORED_RTOL, atol=0.0)


@given(power=st.floats(-400.0, 3200.0), psd=st.floats(-3200.0, 400.0),
       draw_seed=st.integers(0, 10_000))
@example(power=2000.0, psd=-174.0, draw_seed=0)
@example(power=2631.302559851226, psd=-174.0, draw_seed=0)  # the largest power validate accepts
@settings(max_examples=30, deadline=None)
def test_search_rates_are_finite_wherever_the_reported_rate_is(power, psd, draw_seed):
    # From about 1,563 dBm at the default noise the closed form's d1 d2 passes the float range;
    # such rows take the pipeline, so both searches keep seeing the reported rate, and without
    # a warning. validate bounds the reference's own I + W^-1 Q by the float range; where a
    # reported rate is not finite all the same, nothing is held.
    default = _default_pack(4)
    config = replace(default.config, tx_power_dbm=power, noise_psd_dbm_per_hz=psd)
    assume(not validate(config, default.geometry))
    pack = replace(default, config=config)
    x, y = _positions(pack, draw_seed, 4, clamp=False)
    phases = rng_stream(draw_seed, 3).uniform(0.0, 2.0 * math.pi, (4, config.num_ris))
    contexts = (baselines.make_problem_context(pack, 0),
                baselines._RelaySearch(pack, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reference = [[context.rate_for(optimizer.RisState(float(x[b]), float(y[b]), phases[b]))
                      for b in range(len(x))] for context in contexts]
    if not np.isfinite(reference).all():
        return
    assert not caught, [str(w.message) for w in caught]
    state = optimizer.RisState(x, y, phases, np.column_stack((x, y)))
    for context, expected in zip(contexts, reference):
        searched = context.search_rates(state)
        np.testing.assert_allclose(searched, expected, rtol=FACTORED_RTOL, atol=LOW_RATE_ATOL)


def _largest_accepted_power(config, geometry) -> float:
    """The largest ``tx_power_dbm`` that validate accepts with ``config`` and ``geometry``."""
    accepted, rejected = -400.0, 3200.0
    while (power := (accepted + rejected) / 2.0) not in (accepted, rejected):
        if validate(replace(config, tx_power_dbm=power), geometry):
            rejected = power
        else:
            accepted = power
    return accepted


@given(node=st.sampled_from(["tx_position", "ue_position"]), depth=st.floats(0.01, 4.99),
       over=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), below=st.floats(0.0, 600.0),
       draw_seed=st.integers(0, 10_000))
# the Tx under the platform centre 1 m and 0.01 m below the RIS plane
@example(node="tx_position", depth=1.0, over=(0.5, 0.5), below=0.0, draw_seed=0)
@example(node="tx_position", depth=0.01, over=(0.5, 0.5), below=0.0, draw_seed=0)
@settings(max_examples=15, deadline=None)
def test_references_are_finite_up_to_the_largest_accepted_power(node, depth, over, below,
                                                               draw_seed):
    # validate bounds the reference's I + W^-1 Q through the largest path amplitude, that of
    # a hop as short as the node's depth under the RIS plane: at any power it accepts, with the
    # platform right over a node that close, the RIS and relay references are finite
    config, geometry = default_config()
    x, y = (lo + t * (hi - lo) for t, (lo, hi) in zip(over, (geometry.platform_x_range,
                                                              geometry.platform_y_range)))
    geometry = replace(geometry, **{node: (x, y, geometry.ris_height_m - depth)})
    power = _largest_accepted_power(config, geometry) - below
    pack = build_scenario_pack(replace(config, tx_power_dbm=power), geometry, 1)
    px, py = _positions(pack, draw_seed, 3, clamp=False)
    xy = np.column_stack((np.append(px, x), np.append(py, y)))  # and right over the node
    phases = rng_stream(draw_seed, 3).uniform(0.0, 2.0 * math.pi, (2, config.num_ris))
    context = baselines.make_problem_context(pack, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ris = [context.rate_for(optimizer.RisState(float(a), float(b), phases)) for a, b in xy]
        relay = baselines._RelaySearch(pack, 0).rate_for(
            optimizer.RisState(xy[:, 0], xy[:, 1], None, xy))
    assert not caught, [str(w.message) for w in caught]
    assert np.isfinite(ris).all() and np.isfinite(relay).all()


# --- per-axis projection onto the RF beams --------------------------------------


def _hop_angles(geometry, trial, xy):
    """Path elevations and azimuths (end, hop, B, L), platform end first, as ``hops`` takes them."""
    means, _ = channel.platform_angles(geometry, xy)
    return means[..., None] + trial.offsets


def _kron_steering(elevations, azimuths, m_x, m_y, spacing):
    """``steering_matrix`` column by column, each the np.kron of its per-axis phase vectors."""
    ux = np.sin(elevations) * np.cos(azimuths)
    uy = np.sin(elevations) * np.sin(azimuths)
    columns = [np.kron(np.exp(-2j * np.pi * spacing * np.arange(m_x) * a),
                       np.exp(-2j * np.pi * spacing * np.arange(m_y) * b))
               for a, b in zip(ux.ravel(), uy.ravel())]
    return np.swapaxes(np.reshape(columns, (*ux.shape, m_x * m_y)), -1, -2)


def _line_pack(seed):
    config, geometry = default_config()
    config = replace(config, tx_antennas=(1, 8), rx_antennas=(1, 5), ris_elements=(1, 4),
                     pso=PsoParams(swarm_size=6, iterations=4))
    return build_scenario_pack(config, geometry, seed)


@given(
    scale=st.sampled_from(["default", "toy", "line"]),
    trial_index=st.integers(min_value=0, max_value=30),
    draw_seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=6),
    clamp=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_per_axis_projection_equals_beams_times_steering(scale, trial_index, draw_seed, count,
                                                         clamp):
    pack = {"default": _default_pack, "toy": _toy_pack, "line": _line_pack}[scale](4)
    config = pack.config
    trial = baselines.trial_channels(pack, trial_index)
    xy = np.column_stack(_positions(pack, draw_seed, count, clamp))
    el, az = _hop_angles(pack.geometry, trial, xy)
    tx, rx = config.tx_antennas, config.rx_antennas
    ends = (  # each RF stage as rows of beams, with the (end, hop) whose angles it sees
        ("f1", pack.f1.T, tx, (1, 0)),
        ("relay_f2_hop1", pack.relay_f2_hop1, rx, (0, 0)),
        ("f2", pack.f2, rx, (1, 1)),
        ("relay_f1_hop2", pack.relay_f1_hop2.T, tx, (0, 1)),
    )
    spacing = config.element_spacing_wavelengths
    for name, beams, shape, end in ends:
        full = steering_matrix(el[end], az[end], *shape, spacing)
        assert full.tobytes() == _kron_steering(el[end], az[end], *shape, spacing).tobytes()
        phases = channel._axis_phases(*channel._direction_cosines(el[end], az[end]), *shape,
                                      spacing)
        projected = channel._steering_of(*phases, pack.beams[name])
        # entries are bounded by |beam| |column| = sqrt(M); rounding is held relative to that
        bound = FACTORED_RTOL * math.sqrt(shape[0] * shape[1])
        np.testing.assert_allclose(projected, beams @ full, rtol=0.0, atol=bound, err_msg=name)


@given(
    m=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    spacing=st.floats(min_value=0.1, max_value=2.0),
    cosines=hnp.arrays(float, st.builds(lambda s: (2, *s), hnp.array_shapes(max_dims=3)),
                       elements=st.floats(min_value=-1.0, max_value=1.0)),
)
@settings(max_examples=200, deadline=None)
def test_search_axis_powers_equal_axis_phases(m, spacing, cosines):
    """The search's per-axis factors, powers of one exponential, against one exponential per entry.

    Either takes row k's phase 2 pi s k u to within 3 eps of it relatively (the
    exponent's products) plus exp's own rounding; a power b^k carries b's error
    k times and at most one complex product's sqrt(5) eps per doubling. So an
    entry of an axis of m elements is off by at most (12 pi s + 8) m eps.
    """
    ux, uy = cosines
    reference = channel._axis_phases(ux, uy, *m, spacing)
    powers = channel._axis_powers(cosines, *m, spacing)
    for got, want, size in zip(powers, reference, m):
        assert got.shape == want.shape == (*ux.shape[:-1], size, ux.shape[-1])
        assert (got[..., 0, :] == 1.0).all()
        bound = (12 * math.pi * spacing + 8) * size * np.finfo(float).eps
        np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)


@pytest.mark.parametrize("ue_position", [(85.0, 75.0, 2.0), (60.0, 90.0, 2.0)])
def test_grouped_ends_equal_end_by_end_steering(ue_position):
    """Ends that share one exponential pass get the bytes each end gets on its own.

    The relay's 8x8 ends carry 3 and 6 beams at (85, 75, 2), and 3, 5 and 6 at
    (60, 90, 2); there the RIS search's Tx and UE ends share a shape but not a
    beam count.
    """
    config, geometry = apply_swept_value(*default_config(), "ue_scenarios", ue_position)
    pack = build_scenario_pack(config, geometry, 5)
    trial = baselines.trial_channels(pack, 2)
    xy = np.column_stack(_positions(pack, 3, 10, True))
    spacing = config.element_spacing_wavelengths
    u, _ = channel._path_geometry(config, geometry, trial, xy)
    relay = BaselineKind.FD_RELAY.platform_shapes(config)
    searches = {  # each search's platform arrays and (end, hop)-ordered stages
        "ris": ((config.ris_elements,) * 2, (None, None, "f1", "f2")),
        "relay": (relay, ("relay_f2_hop1", "relay_f1_hop2", "f1", "f2")),
    }
    counts = set()
    for name, (platform, stages) in searches.items():
        ends = pack.search_ends[name]
        blocks = channel._end_blocks(u, ends, spacing)
        for i, (shape, stage) in enumerate(zip((*platform, config.tx_antennas,
                                                config.rx_antennas), stages)):
            beams = stage and pack.beams[stage]
            counts.add(stage and len(beams[0]))
            alone = channel._steering_of(*channel._axis_powers(u[:, i], *shape, spacing), beams)
            assert blocks[i].tobytes() == alone.tobytes(), (name, i)
    assert len(counts - {None}) >= 2


@pytest.mark.parametrize("relay", [False, True])
def test_ends_without_beams_keep_steering_matrix_bytes(relay):
    # every end of a call without beams is steering_matrix's own exponentials, byte for byte
    pack = _default_pack(4)
    config, geometry = pack.config, pack.geometry
    trial = baselines.trial_channels(pack, 1)
    xy = np.column_stack(_positions(pack, 9, 5, True))
    platform = (config.rx_antennas, config.tx_antennas) if relay else (config.ris_elements,) * 2
    ends = channel.hop_ends(config, platform)
    # the relay's four ends are all 8x8; the RIS grid's are 6x6, the leading rows of an 8-row pass
    assert ends.shapes == (((8, 8),) * 4 if relay else ((6, 6),) * 2 + ((8, 8),) * 2)
    el, az = _hop_angles(geometry, trial, xy)
    spacing = config.element_spacing_wavelengths
    u, _ = channel._path_geometry(config, geometry, trial, xy)
    blocks = channel._end_blocks(u, ends, spacing)
    for i, shape in enumerate((*platform, config.tx_antennas, config.rx_antennas)):
        want = steering_matrix(el[i // 2, i % 2], az[i // 2, i % 2], *shape, spacing)
        assert blocks[i].tobytes() == want.tobytes()


axis_shape = st.tuples(st.integers(1, 12), st.integers(1, 12))


@given(
    shapes=st.tuples(axis_shape, axis_shape, axis_shape, axis_shape),
    beamed=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    spacing=st.floats(min_value=0.1, max_value=2.0),
    batch=st.integers(1, 4),
    paths=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(shapes=((2, 3), (2, 3), (8, 8), (8, 8)), beamed=(False, False, True, True),
         spacing=0.5, batch=3, paths=10, seed=1)  # a RIS grid smaller than the Tx and Rx arrays
@example(shapes=((12, 10), (12, 10), (4, 4), (5, 3)), beamed=(False, False, True, True),
         spacing=0.5, batch=3, paths=10, seed=2)  # and one larger than both
@example(shapes=((3, 9), (3, 9), (8, 2), (8, 2)), beamed=(False,) * 4,
         spacing=0.5, batch=2, paths=4, seed=3)  # no beams: ``_axis_phases``
@settings(max_examples=100, deadline=None)
def test_one_pass_end_blocks_equal_end_by_end_blocks(shapes, beamed, spacing, batch, paths, seed):
    """All four ends' one exponential pass, at the longest axis, gives each end the bytes of a
    pass at its own shape: ``_axis_powers`` when some end carries beams, else ``_axis_phases``."""
    rng = np.random.default_rng(seed)
    config = replace(default_config()[0], tx_antennas=shapes[2], rx_antennas=shapes[3])
    beams = tuple(tuple(rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
                        for m in shape) if on else None
                  for shape, on, k in zip(shapes, beamed, rng.integers(1, 5, 4).tolist()))
    ends = channel.hop_ends(config, shapes[:2], beams)
    assert ends.shapes == shapes and ends.search == any(beamed)
    u = rng.uniform(-1.0, 1.0, (2, 4, batch, paths))
    blocks = channel._end_blocks(u, ends, spacing)
    for i, (shape, axes) in enumerate(zip(shapes, beams)):
        alone = (channel._axis_powers(u[:, i], *shape, spacing) if any(beamed)
                 else channel._axis_phases(*u[:, i], *shape, spacing))
        want = channel._steering_of(*alone, axes)
        assert blocks[i].shape == want.shape
        assert blocks[i].tobytes() == want.tobytes(), i


@given(
    z=st.integers(1, 16),
    m=st.integers(4, 144),
    k2=st.integers(1, 6),
    k1=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(z=2, m=4, k2=1, k1=1, seed=0)  # a one-row A, whose rows numpy takes as vectors
@example(z=16, m=144, k2=6, k1=1, seed=1)
@settings(max_examples=100, deadline=None)
def test_phase_only_stack_is_one_product_with_the_bytes_of_row_products(z, m, k2, k1, seed):
    """At one position the search forms (A diag(e^{j phi})) C of all Z rows as one product; each
    row has the bytes of its own product, and so of the (Z, K2, M) @ (M, K1) stack. A one-row A
    keeps the stack: numpy takes each (1, M) @ (M, K1) row as a vector's product, whose bytes
    differ from a matrix product's."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k2, m)) + 1j * rng.standard_normal((k2, m))
    c = rng.standard_normal((m, k1)) + 1j * rng.standard_normal((m, k1))
    phases = rng.uniform(0.0, 2 * math.pi, (z, m))
    context = baselines.make_problem_context(_default_pack(3), 0)
    context._cache_key, context._cache = (50.0, 60.0), (None, None, a, c)  # A and C at (50, 60)
    (h,) = context._reduced(optimizer.RisState(50.0, 60.0, phases))  # the one link's stack
    e = np.exp(1j * phases)
    assert h.shape == (z, k2, k1)
    assert h.tobytes() == ((a * e[:, None, :]) @ c).tobytes()
    for row in range(z):
        assert h[row].tobytes() == ((a * e[row]) @ c).tobytes(), row


# --- both hops from one platform-to-node pass ------------------------------------

array_shape = st.tuples(st.integers(2, 5), st.integers(1, 4))  # at least num_streams = 2


@given(
    shapes=st.tuples(array_shape, array_shape, array_shape),
    mode=st.sampled_from(["alpha", "db"]),
    relay=st.booleans(),
    trial_index=st.integers(min_value=0, max_value=30),
    draw_seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=6),
    clamp=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_both_hops_equal_reference_hops(shapes, mode, relay, trial_index, draw_seed, count,
                                        clamp):
    """Unprojected hops are the reference's bytes; projected ones its F2 H F1 within rounding."""
    config, geometry = default_config()
    config = replace(config, tx_antennas=shapes[0], rx_antennas=shapes[1],
                     ris_elements=shapes[2], path_loss_mode=mode)
    pack = build_scenario_pack(config, geometry, 4)
    trial = baselines.trial_channels(pack, trial_index)
    x, y = _positions(pack, draw_seed, count, clamp)
    # the relay's hop-1 receive and hop-2 transmit arrays mirror the Rx and Tx arrays
    platform = (config.rx_antennas, config.tx_antennas) if relay else None
    stages = ((("relay_f2_hop1", "f1"), ("f2", "relay_f1_hop2")) if relay
              else ((None, "f1"), ("f2", None)))  # (receive, transmit) of each hop
    # each end's beams, in (end, hop) order: each hop's receive end, then each transmit end
    beams = [pack.beams[name] if name else None
             for name in (stages[0][0], stages[1][1], stages[0][1], stages[1][0])]
    xy = np.column_stack((x, y))
    unprojected = channel.hops(config, geometry, trial, xy, channel.hop_ends(config, platform))
    projected = channel.hops(config, geometry, trial, xy,
                             channel.hop_ends(config, platform, beams))
    _, scale = channel._path_geometry(config, geometry, trial, xy)
    for hop, link in enumerate(("tx_ris", "ris_rx")):
        rx, tx = (getattr(pack, name) if name else None for name in stages[hop])
        for b in range(count):
            h = _reference_hop(config, geometry, trial, x[b], y[b], link,
                               platform and platform[hop])
            assert unprojected[hop][b].tobytes() == h.tobytes()
            reduced = h if rx is None else rx @ h
            reduced = reduced if tx is None else reduced @ tx
            # |entry| <= sum of the paths' |amplitude x gain| x sqrt(M_rx M_tx)
            bound = FACTORED_RTOL * np.abs(scale[hop, b]).sum() * math.sqrt(h.size)
            np.testing.assert_allclose(projected[hop][b], reduced, rtol=0.0, atol=bound)


# --- memory ---------------------------------------------------------------------

# A (10, 64, 64) complex stack alone is 655 KB, and a batch that formed the
# 64-row steering blocks of the beamformed ends (rather than projecting them
# onto their beams per axis) peaked at 505-656 KB.
BATCH_PEAK_BYTES = 384 << 10

SEARCHES = {  # each searching kind, with its swarm dimension at M_I RIS elements
    "joint": (BaselineKind.MOVABLE_RIS_JOINT, lambda m: m + 2),
    "relay": (BaselineKind.FD_RELAY, lambda m: 2),
    "random_phase": (BaselineKind.MOVABLE_RIS_RANDOM_PHASE, lambda m: 2),
    "phase_only": (BaselineKind.FIXED_RIS_OPT_PHASE, lambda m: m),
}


@pytest.mark.parametrize("kind", list(SEARCHES))
def test_default_scale_batch_peak_allocation(kind):
    pack = _default_pack(3)
    search, dimension = SEARCHES[kind]
    particles = rng_stream(7, 0).random((10, dimension(pack.config.num_ris)))
    with _objective_of(search, pack, 0) as objective:  # the one the swarm is handed
        objective(particles)  # first-call allocations (caches, lazy imports) are not the batch's
        tracemalloc.start()
        try:
            objective(particles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < BATCH_PEAK_BYTES, f"{kind} batch peaked at {peak} bytes"
