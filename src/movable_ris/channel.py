"""Geometric mmWave channel generation for the two RIS hops.

Each link is a sum of L plane-wave paths: per-path complex gains, angles
drawn uniformly around geometry-derived means, and a distance attenuation.
The composite end-to-end matrix chains the two hops through the RIS phase
diagonal. All draws come from caller-supplied generators so realizations
are exactly reproducible and the per-trial randomness (gains + angle
offsets) can be frozen while the RIS moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scenario import DeploymentGeometry, SystemConfig, path_amplitude

__all__ = [
    "UP",
    "DOWN",
    "DegenerateGeometryError",
    "LinkAngles",
    "AngleOffsets",
    "PathSet",
    "TrialChannels",
    "ChannelRealization",
    "steering_matrix",
    "mean_angles_from_geometry",
    "draw_angle_offsets",
    "draw_gains",
    "draw_trial",
    "make_path_set",
    "link_channel",
    "composite_channel",
    "translation_phases",
    "wavelength_m",
    "hop_factors",
    "realize_channels",
]

UP = (0.0, 0.0, 1.0)
DOWN = (0.0, 0.0, -1.0)


class DegenerateGeometryError(ValueError):
    """Raised when two nodes coincide and link angles are undefined."""


class LinkAngles(NamedTuple):
    """Mean departure/arrival angles (radians) and length of one link."""

    dep_elevation: float
    dep_azimuth: float
    arr_elevation: float
    arr_azimuth: float
    distance_m: float


class AngleOffsets(NamedTuple):
    """Per-path deviations from the mean angles, one array per angle kind."""

    dep_elevation: np.ndarray
    dep_azimuth: np.ndarray
    arr_elevation: np.ndarray
    arr_azimuth: np.ndarray


@dataclass
class PathSet:
    """L resolved paths of one link: gains plus absolute angles.

    Built at a stack of platform positions, every field carries the stack's
    leading axes (``distance_m`` with a trailing axis of length 1).
    """

    gains: np.ndarray
    dep_elevation: np.ndarray
    dep_azimuth: np.ndarray
    arr_elevation: np.ndarray
    arr_azimuth: np.ndarray
    distance_m: float


@dataclass
class TrialChannels:
    """Frozen per-trial randomness, reusable at any RIS position."""

    gains_tx_ris: np.ndarray
    offsets_tx_ris: AngleOffsets
    gains_ris_rx: np.ndarray
    offsets_ris_rx: AngleOffsets


@dataclass
class ChannelRealization:
    """Both hop matrices at one RIS position."""

    h_tx_ris: np.ndarray  # (M_I, M_1)
    h_ris_rx: np.ndarray  # (M_2, M_I)


def steering_matrix(
    elevations: np.ndarray, azimuths: np.ndarray, m_x: int, m_y: int, spacing: float,
    beams=None,
) -> np.ndarray:
    """Stack of unnormalized steering vectors, one column per direction.

    Entries have unit modulus; angles of shape (..., L) give shape
    (..., m_x*m_y, L), one matrix per leading index. Each column is the
    x-major Kronecker product of its per-axis phase factors: row n =
    m_x_index * m_y + m_y_index.

    Given the per-axis factors X (K, m_x), Y (K, m_y) of K RF beams as
    ``beams``, the result is instead the (..., K, L) projection onto them:
    column l is kron(Px[:, l], Py[:, l]) and beam k is sqrt(M) kron(X[k], Y[k]), so
    their product is sqrt(M) (X Px)[k, l] (Y Py)[k, l], taken one array axis at a time.
    """
    el = np.asarray(elevations, dtype=float)
    az = np.asarray(azimuths, dtype=float)
    ux = np.sin(el) * np.cos(az)  # directional cosines
    uy = np.sin(el) * np.sin(az)
    px = np.exp(-2j * np.pi * spacing * np.arange(m_x)[:, None] * ux[..., None, :])
    py = np.exp(-2j * np.pi * spacing * np.arange(m_y)[:, None] * uy[..., None, :])
    if beams is not None:
        return (beams[0] @ px) * (beams[1] @ py) * math.sqrt(m_x * m_y)
    kron = px[..., :, None, :] * py[..., None, :, :]
    return kron.reshape(*ux.shape[:-1], m_x * m_y, ux.shape[-1])


def mean_angles_from_geometry(
    pos_a, pos_b, boresight_a=UP, boresight_b=UP
) -> LinkAngles:
    """Mean link angles between two nodes with given array boresights.

    Azimuths are measured in the global xy-plane along the direction away
    from each node; elevations are measured from each array's boresight
    normal, so a broadside link has elevation 0.
    """
    means = _stacked_mean_angles(np.reshape(pos_a, (1, 3)), np.reshape(pos_b, (1, 3)),
                                 boresight_a, boresight_b)
    return LinkAngles(*(float(field[0]) for field in means))


def _stacked_mean_angles(pos_a, pos_b, boresight_a, boresight_b) -> LinkAngles:
    """``mean_angles_from_geometry`` for (B, 3) stacks of node pairs; fields are (B,) arrays.

    Lengths and boresight projections are stacked vector-vector matmuls,
    which take the same dot product as ``np.linalg.norm`` of one 3-vector;
    ``math.acos``/``math.atan2`` run once per pair, since numpy's
    vectorized forms round differently.
    """
    v = np.asarray(pos_b, dtype=float) - np.asarray(pos_a, dtype=float)
    tau = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    if not tau.all():
        where = np.broadcast_to(pos_a, v.shape)[np.argmin(tau)]
        raise DegenerateGeometryError(f"coincident positions {tuple(where.tolist())}")
    u = v / tau[:, None]
    w = -u
    cos_a = (u[:, None, :] @ np.reshape(boresight_a, (3, 1)))[:, 0, 0]
    cos_b = (w[:, None, :] @ np.reshape(boresight_b, (3, 1)))[:, 0, 0]
    # clipped with min/max: np.clip on a scalar costs more than acos itself
    angles = [
        (math.acos(min(max(ca, -1.0), 1.0)), math.atan2(uy, ux),
         math.acos(min(max(cb, -1.0), 1.0)), math.atan2(wy, wx))
        for ca, cb, (ux, uy, _), (wx, wy, _) in zip(cos_a.tolist(), cos_b.tolist(),
                                                    u.tolist(), w.tolist())
    ]
    return LinkAngles(*np.array(angles).reshape(-1, 4).T, tau)


def draw_angle_offsets(
    spread_el: float, spread_az: float, num_paths: int, rng: np.random.Generator
) -> AngleOffsets:
    """Uniform per-path deviations within +-spread (radians)."""
    return AngleOffsets(
        rng.uniform(-spread_el, spread_el, num_paths),
        rng.uniform(-spread_az, spread_az, num_paths),
        rng.uniform(-spread_el, spread_el, num_paths),
        rng.uniform(-spread_az, spread_az, num_paths),
    )


def draw_gains(num_paths: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly symmetric complex normal gains, unit variance."""
    return (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)) / math.sqrt(2.0)


def make_path_set(means: LinkAngles, offsets: AngleOffsets, gains: np.ndarray) -> PathSet:
    """Combine frozen offsets/gains with (possibly new) mean angles."""
    return PathSet(
        gains=gains,
        dep_elevation=means.dep_elevation + offsets.dep_elevation,
        dep_azimuth=means.dep_azimuth + offsets.dep_azimuth,
        arr_elevation=means.arr_elevation + offsets.arr_elevation,
        arr_azimuth=means.arr_azimuth + offsets.arr_azimuth,
        distance_m=means.distance_m,
    )


def draw_trial(config: SystemConfig, rng: np.random.Generator) -> TrialChannels:
    """One Monte Carlo trial's worth of frozen randomness for both links.

    The draw depends only on num_paths and the spreads, never on array or
    RIS sizes, so element-count sweeps reuse identical trials.
    """
    spread_el, spread_az = map(math.radians, config.angular_spread_deg)
    gains_ti = draw_gains(config.num_paths, rng)
    offsets_ti = draw_angle_offsets(spread_el, spread_az, config.num_paths, rng)
    gains_ir = draw_gains(config.num_paths, rng)
    offsets_ir = draw_angle_offsets(spread_el, spread_az, config.num_paths, rng)
    return TrialChannels(gains_ti, offsets_ti, gains_ir, offsets_ir)


def translation_phases(
    elevations: np.ndarray,
    azimuths: np.ndarray,
    delta_xy: tuple[float, float],
    wavelength_m: float,
) -> np.ndarray:
    """Per-path phase rotation from translating an array's phase reference.

    Moving an array by delta (meters, in its plane) shifts each incident or
    departing plane wave's phase at the reference element by
    -2*pi/lambda * (delta . u) with u the path's in-plane direction cosines.
    This deterministic geometric term is what makes rates vary on a
    wavelength scale across the platform; without it a platform translation
    would be phase-transparent. ``delta_xy`` may be a (..., 2) stack of
    translations against angles of shape (..., L).
    """
    delta = np.asarray(delta_xy, dtype=float)
    ux = np.sin(elevations) * np.cos(azimuths)
    uy = np.sin(elevations) * np.sin(azimuths)
    return np.exp(-2j * np.pi * (delta[..., 0:1] * ux + delta[..., 1:2] * uy) / wavelength_m)


def wavelength_m(carrier_ghz: float) -> float:
    return 0.299792458 / carrier_ghz


def _link_factors(
    paths: PathSet,
    tx_shape: tuple[int, int],
    rx_shape: tuple[int, int],
    carrier_ghz: float,
    exponent: float,
    spacing: float,
    mode: str = "alpha",
    beams: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """The sum-of-paths channel of ``link_channel`` as H = left @ right.

    ``left`` (..., num_rx, L) holds the receive steering columns scaled by
    each path's amplitude times gain, ``right`` (..., L, num_tx) the
    transposed transmit steering matrix; both keep the path set's leading
    axes. An end given RF beam axes (``beams``: receive, transmit) is projected onto them.
    """
    distance = np.asarray(paths.distance_m, dtype=float)
    amp = np.reshape(
        [path_amplitude(carrier_ghz, float(d), exponent, mode) for d in distance.flat],
        distance.shape,
    )
    left = steering_matrix(paths.arr_elevation, paths.arr_azimuth, *rx_shape, spacing, beams[0])
    left *= (amp * paths.gains)[..., None, :]
    right = steering_matrix(paths.dep_elevation, paths.dep_azimuth, *tx_shape, spacing, beams[1])
    return left, np.swapaxes(right, -1, -2)


def link_channel(
    paths: PathSet,
    tx_shape: tuple[int, int],
    rx_shape: tuple[int, int],
    carrier_ghz: float,
    exponent: float,
    spacing: float,
    mode: str = "alpha",
) -> np.ndarray:
    """Sum-of-paths channel matrix, shape (num_rx, num_tx).

    Each path contributes amp * z_l * a_r a_t^T with unit-modulus steering
    entries, so a single unit-gain path at unit attenuation has Frobenius
    norm sqrt(num_rx * num_tx). A path set with leading axes gives one
    matrix per leading index.
    """
    left, right = _link_factors(paths, tx_shape, rx_shape, carrier_ghz, exponent, spacing, mode)
    return left @ right


def composite_channel(
    h_ris_rx: np.ndarray, phases: np.ndarray, h_tx_ris: np.ndarray
) -> np.ndarray:
    """End-to-end matrix H_IR diag(e^{j phi}) H_TI, shape (..., M_2, M_1).

    Hops and phases may carry leading stack axes, which broadcast.
    """
    phases = np.asarray(phases, dtype=float)
    if h_ris_rx.shape[-1] != phases.shape[-1] or phases.shape[-1] != h_tx_ris.shape[-2]:
        raise ValueError(
            f"dimension mismatch: {h_ris_rx.shape} x diag({phases.shape[-1]}) x {h_tx_ris.shape}"
        )
    return (h_ris_rx * np.exp(1j * phases)[..., None, :]) @ h_tx_ris


def _link_paths(
    config: SystemConfig,
    geometry: DeploymentGeometry,
    trial: TrialChannels,
    xy: np.ndarray,
    link: str,
) -> PathSet:
    """Paths of one hop at a (B, 2) stack of platform positions.

    ``link`` is "tx_ris" (Tx into the platform) or "ris_rx" (platform out to
    the UE). Mean angles and distances follow the position; the trial's
    gains and angular offsets stay frozen. Each path additionally picks up
    the deterministic translation phase of the moved phase reference
    (relative to the platform center, where the factor is exactly 1),
    evaluated at the platform-side direction of that path. Every field of
    the result has a leading axis of length B.
    """
    platform = np.column_stack((xy, np.full(len(xy), geometry.ris_height_m)))
    into = link == "tx_ris"
    means = (_stacked_mean_angles(geometry.tx_position, platform, UP, DOWN) if into
             else _stacked_mean_angles(platform, geometry.ue_position, DOWN, UP))
    means = LinkAngles(*(field[:, None] for field in means))
    paths = (make_path_set(means, trial.offsets_tx_ris, trial.gains_tx_ris) if into
             else make_path_set(means, trial.offsets_ris_rx, trial.gains_ris_rx))
    side = ((paths.arr_elevation, paths.arr_azimuth) if into
            else (paths.dep_elevation, paths.dep_azimuth))
    delta = xy - geometry.platform_center()
    paths.gains = paths.gains * translation_phases(
        *side, delta, wavelength_m(config.carrier_frequency_ghz))
    return paths


def hop_factors(
    config: SystemConfig,
    geometry: DeploymentGeometry,
    trial: TrialChannels,
    ris_xy: np.ndarray,
    link: str,
    platform_shape: tuple[int, int] | None = None,
    beams: tuple = (None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """One hop at a (B, 2) stack of positions as ``_link_factors``, H_b = left[b] @ right[b].

    A search passes the RF beam axes of the hop's beamformed (receive, transmit)
    ends as ``beams`` and gets the factors of the reduced hop. The platform
    node's array defaults to the RIS element grid; a relay passes its own.
    """
    paths = _link_paths(config, geometry, trial, np.asarray(ris_xy, dtype=float), link)
    platform = config.ris_elements if platform_shape is None else platform_shape
    into = link == "tx_ris"
    return _link_factors(
        paths,
        config.tx_antennas if into else platform,
        platform if into else config.rx_antennas,
        config.carrier_frequency_ghz,
        config.path_loss_exponent,
        config.element_spacing_wavelengths,
        config.path_loss_mode,
        beams,
    )


def realize_channels(
    config: SystemConfig,
    geometry: DeploymentGeometry,
    trial: TrialChannels,
    ris_xy,
) -> ChannelRealization:
    """Both hop matrices of a trial with the RIS at one (x, y) platform position.

    Each is the product of the ``hop_factors`` of a stack of one, so a lone
    position and a stack of them share one code path.
    """
    xy = np.asarray(ris_xy, dtype=float).reshape(1, 2)
    (l_ti,), (r_ti,) = hop_factors(config, geometry, trial, xy, "tx_ris")
    (l_ir,), (r_ir,) = hop_factors(config, geometry, trial, xy, "ris_rx")
    return ChannelRealization(l_ti @ r_ti, l_ir @ r_ir)
