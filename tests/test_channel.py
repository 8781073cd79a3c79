import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movable_ris.channel import (
    DegenerateGeometryError,
    PathSet,
    TrialChannels,
    _direction_cosines,
    _translation_phases,
    composite_channel,
    draw_gains,
    draw_trial,
    link_channel,
    platform_angles,
    realize_channels,
    steering_matrix,
    wavelength_m,
)
from movable_ris.scenario import default_config, path_amplitudes, rng_stream


def hop_paths(means: np.ndarray, distance: float, trial: TrialChannels, hop: int) -> PathSet:
    """Hop ``hop`` (0: Tx to platform, 1: platform to UE) of a trial's draw about ``means``.

    ``means`` (2, 2) holds the hop's mean angles indexed by (elevation/azimuth,
    platform/node end), as ``platform_angles`` gives them for one node and point.
    """
    el, az = means[:, :, None] + trial.offsets[:, :, hop, 0]  # (end, L) each
    dep, arr = 1 - hop, hop  # the Tx hop arrives at the platform, the UE hop leaves it
    return PathSet(
        gains=trial.gains[hop, 0],
        dep_elevation=el[dep],
        dep_azimuth=az[dep],
        arr_elevation=el[arr],
        arr_azimuth=az[arr],
        distance_m=distance,
    )


def draw_paths(
    means: np.ndarray,
    distance: float,
    spread_deg: tuple[float, float],
    num_paths: int,
    rng: np.random.Generator,
) -> PathSet:
    """The Tx hop of a trial drawn with (elevation, azimuth) spreads in degrees."""
    config = replace(default_config()[0], num_paths=num_paths, angular_spread_deg=spread_deg)
    return hop_paths(means, distance, draw_trial(config, rng), 0)


# Tx-hop mean angles, (elevation/azimuth, platform/node end): the hop departs
# the node at (1.0, 0.5) and arrives at the platform at (1.2, -0.7).
TX_HOP_MEANS = np.array([[1.2, 1.0], [-0.7, 0.5]])


def steering_vector(elevation, azimuth, m_x, m_y, spacing):
    """Unit-norm URA steering vector, x-major Kronecker ordering.

    Entry (m_x, m_y) carries phase -2*pi*d*(m_x*sin(el)*cos(az) +
    m_y*sin(el)*sin(az)); the per-entry modulus is 1/sqrt(m_x*m_y).
    """
    return steering_matrix([elevation], [azimuth], m_x, m_y, spacing)[:, 0] / math.sqrt(m_x * m_y)


angles = st.floats(min_value=-math.pi, max_value=math.pi)
dims = st.integers(min_value=1, max_value=12)


# --- steering vectors -------------------------------------------------------


def test_steering_zero_elevation_is_uniform():
    v = steering_vector(0.0, 1.234, 8, 8, 0.5)
    np.testing.assert_allclose(v, np.full(64, 1 / 8, dtype=complex), atol=1e-15)


def test_steering_closed_form_two_element():
    # elevation pi/2, azimuth 0, 2x1 array at half wavelength: (1, -1)/sqrt(2)
    v = steering_vector(math.pi / 2, 0.0, 2, 1, 0.5)
    expected = np.array([1.0, -1.0]) / math.sqrt(2)
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_steering_kronecker_ordering_x_major():
    # entry index n = m_x * My + m_y; check against a scalar loop
    el, az, mx, my, d = 0.7, -1.1, 3, 4, 0.5
    v = steering_vector(el, az, mx, my, d)
    ux = math.sin(el) * math.cos(az)
    uy = math.sin(el) * math.sin(az)
    for m_x in range(mx):
        for m_y in range(my):
            phase = -2 * math.pi * d * (m_x * ux + m_y * uy)
            expected = complex(math.cos(phase), math.sin(phase)) / math.sqrt(mx * my)
            assert v[m_x * my + m_y] == pytest.approx(expected, abs=1e-12)


@given(el=angles, az=angles, mx=dims, my=dims)
@settings(max_examples=200, deadline=None)
def test_steering_unit_norm_and_constant_modulus(el, az, mx, my):
    v = steering_vector(el, az, mx, my, 0.5)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(v), 1 / math.sqrt(mx * my), atol=1e-12)


# --- path loss ---------------------------------------------------------------


def path_loss_db_mode(carrier_ghz, distance_m, exponent):
    """The "db" mode's linear power loss, from its per-path amplitude."""
    return path_amplitudes(carrier_ghz, (distance_m,), exponent, "db")[0] ** -2


def test_path_loss_hand_values():
    # 32.4 + 20*log10(28) = 61.34 dB at 1 m
    assert path_loss_db_mode(28.0, 1.0, 3.6) == pytest.approx(10 ** 6.134, rel=1e-3)
    # f_c = 1 GHz, 1 m: both logs vanish
    assert path_loss_db_mode(1.0, 1.0, 2.0) == pytest.approx(10 ** 3.24, rel=1e-12)
    # 10 m adds 10*3.6 dB
    ratio = path_loss_db_mode(28.0, 10.0, 3.6) / path_loss_db_mode(28.0, 1.0, 3.6)
    assert 10 * math.log10(ratio) == pytest.approx(36.0, abs=1e-9)


@given(
    f=st.floats(min_value=1.0, max_value=300.0),
    tau=st.floats(min_value=1.1, max_value=1000.0),
    eta=st.floats(min_value=1.0, max_value=6.0),
    bump=st.floats(min_value=1.01, max_value=3.0),
)
@settings(max_examples=100, deadline=None)
def test_path_loss_monotone(f, tau, eta, bump):
    # eta-monotonicity needs tau > 1 m, where the distance term is positive
    base = path_loss_db_mode(f, tau, eta)
    assert path_loss_db_mode(f * bump, tau, eta) > base
    assert path_loss_db_mode(f, tau * bump, eta) > base
    assert path_loss_db_mode(f, tau, eta * bump) > base


def test_path_amplitude_modes():
    amp_db = path_amplitudes(28.0, (50.0,), 3.6, "db")[0]
    alpha = 32.4 + 20 * math.log10(28.0)
    loss_db = alpha + 10 * 3.6 * math.log10(50.0)
    assert amp_db == pytest.approx(1 / math.sqrt(10 ** (loss_db / 10)), rel=1e-12)
    amp_alpha = path_amplitudes(28.0, (50.0,), 3.6, "alpha")[0]
    assert amp_alpha == pytest.approx(1 / math.sqrt(alpha * 50.0 ** 3.6), rel=1e-12)
    with pytest.raises(ValueError):
        path_amplitudes(28.0, (50.0,), 3.6, "bogus")


# --- link geometry -----------------------------------------------------------


# platform_angles indexes its angles by (elevation/azimuth, platform/node end, Tx/UE node,
# point); these links run from one platform point to the Tx node.


def _tx_link(tx_position, height, xy):
    geometry = replace(default_config()[1], tx_position=tx_position, ris_height_m=height)
    (el, az), tau = platform_angles(geometry, np.array([xy], dtype=float))
    return el[:, 0, 0], az[:, 0, 0], tau[0, 0]


def test_mean_angles_axis_aligned():
    el, az, _ = _tx_link((1.0, 0.0, 5.0), 5.0, (0.0, 0.0))  # level with the platform
    assert az[0] == pytest.approx(0.0)
    assert abs(az[1]) == pytest.approx(math.pi)  # back along -x, on either side of the cut
    assert el[0] == el[1] == pytest.approx(math.pi / 2)


def test_mean_angles_diagonal():
    _, az, _ = _tx_link((1.0, 1.0, 5.0), 5.0, (0.0, 0.0))
    assert az[0] == pytest.approx(math.pi / 4)


def test_mean_angles_table_geometry():
    el, az, tau = _tx_link((0.0, 0.0, 2.0), 5.0, (55.0, 55.0))
    assert az[1] == pytest.approx(math.pi / 4)  # from the node toward the platform
    assert tau == pytest.approx(math.sqrt(55**2 + 55**2 + 9), rel=1e-12)
    # both arrays face the link from their side of it: the node's up, the platform's down
    assert el[0] == el[1] < math.pi / 2


def test_mean_angles_rejects_coincident():
    with pytest.raises(DegenerateGeometryError, match=r"coincident positions \(1\.0, 2\.0, 3\.0\)"):
        _tx_link((1.0, 2.0, 3.0), 3.0, (1.0, 2.0))


# --- path draws --------------------------------------------------------------


def test_draw_paths_zero_spread_collapses_to_mean():
    paths = draw_paths(TX_HOP_MEANS, 30.0, (0.0, 0.0), 10, rng_stream(1, 0))
    np.testing.assert_allclose(paths.dep_elevation, 1.0)
    np.testing.assert_allclose(paths.arr_azimuth, -0.7)


def test_draw_paths_respects_spread_bounds():
    spread = math.radians(10.0)
    for seed in range(20):
        paths = draw_paths(TX_HOP_MEANS, 30.0, (10.0, 10.0), 10, rng_stream(seed, 0))
        assert np.max(np.abs(paths.dep_elevation - 1.0)) <= spread
        assert np.max(np.abs(paths.dep_azimuth - 0.5)) <= spread
        assert np.max(np.abs(paths.arr_elevation - 1.2)) <= spread
        assert np.max(np.abs(paths.arr_azimuth + 0.7)) <= spread


def test_gain_distribution_unit_variance():
    # Monte Carlo check: mean |z|^2 = 1 within 2%
    z = draw_gains(100_000, rng_stream(7, 0))
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, abs=0.02)


def test_draw_trial_stacks_the_documented_order_in_read_only_arrays():
    config, _ = default_config()
    config = replace(config, num_paths=7, angular_spread_deg=(10.0, 25.0))
    trial = draw_trial(config, rng_stream(5, 0, 0))
    rng = rng_stream(5, 0, 0)
    el, az = math.radians(10.0), math.radians(25.0)

    def hop():  # gains, departure (elevation, azimuth), arrival (elevation, azimuth)
        gains = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / math.sqrt(2.0)
        dep = rng.uniform(-el, el, 7), rng.uniform(-az, az, 7)
        return gains, dep, (rng.uniform(-el, el, 7), rng.uniform(-az, az, 7))

    (g_ti, dep_ti, arr_ti), (g_ir, dep_ir, arr_ir) = hop(), hop()
    # (elevation/azimuth, end, hop), platform end first: the Tx hop arrives there
    offsets = np.array([[[arr_ti[k], dep_ir[k]], [dep_ti[k], arr_ir[k]]] for k in range(2)])
    assert trial.gains.shape == (2, 1, 7) and trial.offsets.shape == (2, 2, 2, 1, 7)
    assert trial.gains.tobytes() == np.array([g_ti, g_ir]).tobytes()
    assert trial.offsets.tobytes() == offsets.tobytes()
    for array in (trial.gains, trial.offsets):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.0
    with pytest.raises(FrozenInstanceError):
        trial.gains = np.zeros_like(trial.gains)


# --- channel matrices --------------------------------------------------------


def _single_path_set(distance=1.0):
    means = np.array([[1.1, 0.9], [-0.4, 0.3]])  # departs at (0.9, 0.3), arrives at (1.1, -0.4)
    paths = draw_paths(means, distance, (0.0, 0.0), 1, rng_stream(3, 0))
    paths.gains = np.array([1.0 + 0.0j])
    return paths


def test_link_channel_single_path_rank_one():
    paths = _single_path_set()
    h = link_channel(paths, (2, 2), (3, 3), 28.0, 3.6, 0.5)
    assert np.linalg.matrix_rank(h) == 1


def test_link_channel_frobenius_golden():
    # unit gain, unit attenuation: per-entry modulus 1, so ||H||_F = sqrt(Mr*Mt)
    # with Mr = 3*3 = 9, Mt = 2*2 = 4. The "db" mode at f_c=1 GHz, tau=1 m
    # gives attenuation 10^(-3.24/2); undo it.
    paths = _single_path_set(distance=1.0)
    h = link_channel(paths, (2, 2), (3, 3), 1.0, 3.6, 0.5, "db")
    scale = path_amplitudes(1.0, (1.0,), 3.6, "db")[0]
    assert np.linalg.norm(h / scale) == pytest.approx(6.0, rel=1e-12)


def test_link_channel_finite_nonzero():
    config, geometry = default_config()
    trial = draw_trial(config, rng_stream(5, 0))
    real = realize_channels(config, geometry, trial, geometry.platform_center())
    for h in (real.h_tx_ris, real.h_ris_rx):
        assert np.all(np.isfinite(h))
        assert np.linalg.norm(h) > 0


def test_composite_identity_phases():
    rng = rng_stream(9, 0)
    h_ir = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    h_ti = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    np.testing.assert_allclose(
        composite_channel(h_ir, np.zeros(4), h_ti), h_ir @ h_ti, atol=1e-12
    )


def test_composite_single_element_rank_one():
    rng = rng_stream(10, 0)
    h_ir = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    h_ti = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    h = composite_channel(h_ir, np.array([0.7]), h_ti)
    assert np.linalg.matrix_rank(h) == 1
    np.testing.assert_allclose(h, np.exp(0.7j) * h_ir @ h_ti, atol=1e-12)


def test_composite_matches_scalar_triple_loop():
    # independent oracle: entry-by-entry triple product
    rng = rng_stream(11, 0)
    h_ir = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h_ti = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phases = rng.uniform(0, 2 * math.pi, 2)
    expected = np.zeros((2, 2), dtype=complex)
    for r in range(2):
        for c in range(2):
            for i in range(2):
                expected[r, c] += h_ir[r, i] * np.exp(1j * phases[i]) * h_ti[i, c]
    np.testing.assert_allclose(composite_channel(h_ir, phases, h_ti), expected, atol=1e-12)


def test_composite_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        composite_channel(np.ones((2, 3)), np.zeros(4), np.ones((3, 2)))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_phase_shift_unitarity(seed):
    rng = rng_stream(seed, 0)
    h_ir = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    phases = rng.uniform(0, 2 * math.pi, 6)
    assert np.linalg.norm(h_ir * np.exp(1j * phases)) == pytest.approx(
        np.linalg.norm(h_ir), rel=1e-12
    )


def test_composite_rank_bound():
    config, geometry = default_config()
    config = replace(config, num_paths=3)
    for seed in range(5):
        trial = draw_trial(config, rng_stream(seed, 0))
        real = realize_channels(config, geometry, trial, (50.0, 60.0))
        phases = rng_stream(seed, 1).uniform(0, 2 * math.pi, config.num_ris)
        h = composite_channel(real.h_ris_rx, phases, real.h_tx_ris)
        bound = min(config.num_tx, config.num_rx, config.num_ris, 3, 3)
        assert np.linalg.matrix_rank(h, tol=1e-8 * np.linalg.norm(h)) <= bound


def test_realization_deterministic_bit_identical():
    config, geometry = default_config()
    t1 = draw_trial(config, rng_stream(config.rng_seed, 0, 0))
    t2 = draw_trial(config, rng_stream(config.rng_seed, 0, 0))
    r1 = realize_channels(config, geometry, t1, (52.0, 61.0))
    r2 = realize_channels(config, geometry, t2, (52.0, 61.0))
    assert np.array_equal(r1.h_tx_ris, r2.h_tx_ris)
    assert np.array_equal(r1.h_ris_rx, r2.h_ris_rx)


def test_translation_phase_reference_is_identity_at_center():
    # at the platform center the hop equals the untranslated path set's channel
    config, geometry = default_config()
    trial = draw_trial(config, rng_stream(2, 0))
    center = geometry.platform_center()
    real = realize_channels(config, geometry, trial, center)
    means, distances = platform_angles(geometry, np.array([center]))
    paths = hop_paths(means[:, :, 0, 0], distances[0, 0], trial, 0)
    h = link_channel(
        paths, config.tx_antennas, config.ris_elements, config.carrier_frequency_ghz,
        config.path_loss_exponent, config.element_spacing_wavelengths, config.path_loss_mode,
    )
    np.testing.assert_allclose(real.h_tx_ris, h, rtol=1e-12, atol=0.0)


def test_translation_phases_unit_modulus_and_varying():
    el = np.array([1.2, 1.3, 1.4])
    az = np.array([0.3, 0.4, 0.5])
    lam = wavelength_m(28.0)
    ph = _translation_phases(*_direction_cosines(el, az), (1.0, -2.0), lam)
    np.testing.assert_allclose(np.abs(ph), 1.0, atol=1e-12)
    assert not np.allclose(ph, ph[0])
