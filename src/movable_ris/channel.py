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

import numpy as np

from .scenario import DeploymentGeometry, SystemConfig, path_amplitudes, wavelength_m

__all__ = [
    "DegenerateGeometryError",
    "PathSet",
    "TrialChannels",
    "ChannelRealization",
    "steering_matrix",
    "platform_angles",
    "draw_gains",
    "draw_trial",
    "link_channel",
    "composite_channel",
    "wavelength_m",
    "HopEnds",
    "hop_ends",
    "hops",
    "realize_channels",
]

class DegenerateGeometryError(ValueError):
    """Raised when two nodes coincide and link angles are undefined."""


@dataclass
class PathSet:
    """L resolved paths of one link, ``link_channel``'s input: gains plus absolute angles.

    Every field may carry leading stack axes, one path set per leading index
    (``distance_m`` then with a trailing axis of length 1).
    """

    gains: np.ndarray
    dep_elevation: np.ndarray
    dep_azimuth: np.ndarray
    arr_elevation: np.ndarray
    arr_azimuth: np.ndarray
    distance_m: float | np.ndarray


@dataclass(frozen=True)
class TrialChannels:
    """Frozen per-trial randomness, reusable at any RIS position.

    Both hops' draws as platform-to-node links, Tx hop first, in read-only
    arrays: ``gains`` (2, 1, L), and ``offsets`` (2, 2, 2, 1, L) indexed by
    (elevation/azimuth, end, hop), the platform end first. The Tx hop runs
    into the platform, so its platform end holds its arrival offsets.
    """

    gains: np.ndarray
    offsets: np.ndarray


@dataclass
class ChannelRealization:
    """Both hop matrices at one RIS position."""

    h_tx_ris: np.ndarray  # (M_I, M_1)
    h_ris_rx: np.ndarray  # (M_2, M_I)


def steering_matrix(
    elevations: np.ndarray, azimuths: np.ndarray, m_x: int, m_y: int, spacing: float
) -> np.ndarray:
    """Stack of unnormalized steering vectors, one column per direction.

    Entries have unit modulus; angles of shape (..., L) give shape
    (..., m_x*m_y, L), one matrix per leading index. Each column is the
    x-major Kronecker product of its per-axis phase factors: row n =
    m_x_index * m_y + m_y_index.
    """
    cosines = _direction_cosines(np.asarray(elevations, dtype=float),
                                 np.asarray(azimuths, dtype=float))
    return _steering_of(*_axis_phases(*cosines, m_x, m_y, spacing))


def _direction_cosines(elevations: np.ndarray, azimuths: np.ndarray):
    """In-plane direction cosines (ux, uy) of each direction."""
    sin_el = np.sin(elevations)
    return sin_el * np.cos(azimuths), sin_el * np.sin(azimuths)


def _axis_phases(ux, uy, m_x: int, m_y: int, spacing: float):
    """Per-axis phase factors Px (..., m_x, L) and Py (..., m_y, L) of ``steering_matrix``."""
    px = np.exp(-2j * np.pi * spacing * np.arange(m_x)[:, None] * ux[..., None, :])
    py = np.exp(-2j * np.pi * spacing * np.arange(m_y)[:, None] * uy[..., None, :])
    return px, py


def _axis_powers(u, m_x: int, m_y: int, spacing: float):
    """``_axis_phases(*u, ...)`` up to rounding: row k is b^k, b one exponential per path and axis.

    Both axes double at once, [1, b] -> [1 .. b^3] -> [1 .. b^7], power-major so
    that no product's operand overlaps its output, which numpy would buffer.
    """
    base = np.exp(-2j * np.pi * spacing * u)
    m = max(m_x, m_y)
    out = np.empty((m, *base.shape), dtype=complex)
    out[0] = 1.0
    k = 1
    while k < m:  # rows 0..k-1 are done and base holds b^k
        n = min(k, m - k)
        np.multiply(out[:n], base, out=out[k:k + n])
        k += n
        if k < m:
            base = base * base
    powers = out.transpose(*range(1, out.ndim - 1), 0, -1)  # the power axis next to last
    return powers[0, ..., :m_x, :], powers[1, ..., :m_y, :]


def _steering_of(px: np.ndarray, py: np.ndarray, beams=None) -> np.ndarray:
    """``steering_matrix`` from its per-axis phase factors.

    Given the per-axis factors X (K, m_x), Y (K, m_y) of K RF beams as
    ``beams``, the result is instead the (..., K, L) projection onto them:
    column l is kron(Px[:, l], Py[:, l]) and beam k is sqrt(M) kron(X[k], Y[k]), so
    their product is sqrt(M) (X Px)[k, l] (Y Py)[k, l], taken one array axis at a time.
    """
    m_x, m_y = px.shape[-2], py.shape[-2]
    if beams is not None:
        return (beams[0] @ px) * (beams[1] @ py) * math.sqrt(m_x * m_y)
    kron = px[..., :, None, :] * py[..., None, :, :]
    return kron.reshape(*px.shape[:-2], m_x * m_y, px.shape[-1])


def draw_gains(num_paths: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly symmetric complex normal gains, unit variance."""
    return (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)) / math.sqrt(2.0)


def draw_trial(config: SystemConfig, rng: np.random.Generator) -> TrialChannels:
    """One Monte Carlo trial's worth of frozen randomness for both links.

    Per hop, Tx hop first: the gains, then the departure elevation and
    azimuth, then the arrival elevation and azimuth offsets, each uniform
    within +-spread. The draw depends only on num_paths and the spreads,
    never on array or RIS sizes, so element-count sweeps reuse identical
    trials.
    """
    spread_el, spread_az = map(math.radians, config.angular_spread_deg)
    num_paths = config.num_paths
    gains = np.empty((2, 1, num_paths), dtype=complex)
    offsets = np.empty((2, 2, 2, 1, num_paths))
    for hop in range(2):
        gains[hop, 0] = draw_gains(num_paths, rng)
        for end in (1 - hop, hop):  # departure, then arrival: the Tx hop arrives at end 0
            offsets[0, end, hop, 0] = rng.uniform(-spread_el, spread_el, num_paths)
            offsets[1, end, hop, 0] = rng.uniform(-spread_az, spread_az, num_paths)
    gains.flags.writeable = offsets.flags.writeable = False  # every later call shares them
    return TrialChannels(gains, offsets)


def _translation_phases(ux, uy, delta_xy, wavelength_m: float) -> np.ndarray:
    """Per-path phase rotation from translating an array's phase reference.

    Moving an array by delta (meters, in its plane) shifts each incident or
    departing plane wave's phase at the reference element by
    -2*pi/lambda * (delta . u) with u = (ux, uy) the path's in-plane
    direction cosines. This deterministic geometric term is what makes rates
    vary on a wavelength scale across the platform; without it a platform
    translation would be phase-transparent. ``delta_xy`` may be a (..., 2)
    stack of translations against cosines of shape (..., L).
    """
    delta = np.asarray(delta_xy, dtype=float)
    return np.exp(-2j * np.pi * (delta[..., 0:1] * ux + delta[..., 1:2] * uy) / wavelength_m)


def _amplitudes(distance_m: np.ndarray, carrier_ghz: float, exponent: float, mode: str):
    """``path_amplitudes`` of an array of distances, in its shape."""
    amp = path_amplitudes(carrier_ghz, np.ravel(distance_m).tolist(), exponent, mode)
    return np.array(amp).reshape(np.shape(distance_m))


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
    amp = _amplitudes(paths.distance_m, carrier_ghz, exponent, mode)
    left = steering_matrix(paths.arr_elevation, paths.arr_azimuth, *rx_shape, spacing)
    left *= (amp * paths.gains)[..., None, :]
    right = steering_matrix(paths.dep_elevation, paths.dep_azimuth, *tx_shape, spacing)
    return left @ np.swapaxes(right, -1, -2)


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


def platform_angles(geometry: DeploymentGeometry, xy: np.ndarray):
    """Mean angles and lengths of the links from a (B, 2) stack of platform points to both nodes.

    Returns the angles (2, 2, 2, B), indexed by (elevation/azimuth,
    platform/node end, Tx/UE node, point), and the lengths (2, B). A link
    run backwards negates its difference vector, so the Tx hop's angles are
    these with departure and arrival swapped. Azimuths are taken in the
    xy-plane along the direction away from each end, and elevations from each
    array's boresight. The platform's arrays face down and the nodes' up, so
    both ends share one elevation, ``acos`` of -u_z for the unit link vector
    u. Lengths are vector-vector matmuls, the dot product of
    ``np.linalg.norm``; ``math.acos`` and ``math.atan2`` map over the links,
    since numpy's vectorized forms round differently.
    """
    b = len(xy)
    v = np.empty((2, b, 3))
    v[0], v[1] = geometry.tx_position, geometry.ue_position
    v[..., :2] -= xy
    v[..., 2] -= geometry.ris_height_m
    v = v.reshape(-1, 3)
    tau = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    if not tau.all():
        where = (*np.asarray(xy, dtype=float)[np.argmin(tau) % b].tolist(),
                 float(geometry.ris_height_m))
        raise DegenerateGeometryError(f"coincident positions {where}")
    u = v / tau[:, None]
    elevations = list(map(math.acos, (-u[:, 2]).clip(-1.0, 1.0).tolist()))
    (x, y), (back_x, back_y) = u[:, :2].T.tolist(), (-u[:, :2]).T.tolist()
    angles = np.array((elevations, elevations, list(map(math.atan2, y, x)),
                       list(map(math.atan2, back_y, back_x))))
    return angles.reshape(2, 2, 2, b), tau.reshape(2, b)


@dataclass(frozen=True)
class HopEnds:
    """The four ends of both hops, as ``hop_ends`` lists them: array shapes, beam axes or None."""

    shapes: tuple
    beams: tuple
    search: bool  # some end carries beams: every end then takes ``_axis_powers``


def hop_ends(config: SystemConfig, platform_shapes: tuple | None = None,
             beams: tuple = (None,) * 4) -> HopEnds:
    """The ends of both hops, in (end, hop) order.

    The ends are the platform's arrays of the Tx hop and of the UE hop (the
    RIS element grid unless a relay passes its own as ``platform_shapes``),
    then the Tx and the UE arrays. ``beams`` gives each end's RF beam axes,
    the X (K, m_x), Y (K, m_y) of ``ScenarioPack.beams``, or None. The four
    ends take one exponential pass, then each end its own steering block:
    numpy buffers both operands of a broadcast product at its size, so one
    product over two ends would double the batch peak.
    """
    shapes = (*(platform_shapes or (config.ris_elements,) * 2),
              config.tx_antennas, config.rx_antennas)
    return HopEnds(tuple(map(tuple, shapes)), tuple(beams), any(b is not None for b in beams))


def _end_blocks(u, ends: HopEnds, spacing: float) -> list[np.ndarray]:
    """The steering blocks of the four ``ends``, in end order, over their cosines u (2, 4, B, L):
    one exponential pass over all four at the longest axis, whose row k does not depend on the
    axis length, then one ``_steering_of`` per end of its leading rows, (B, K or M, L)."""
    m_x, m_y = map(max, zip(*ends.shapes))
    px, py = (_axis_powers(u, m_x, m_y, spacing) if ends.search
              else _axis_phases(*u, m_x, m_y, spacing))
    return [_steering_of(px[i, ..., :sx, :], py[i, ..., :sy, :], beams)
            for i, ((sx, sy), beams) in enumerate(zip(ends.shapes, ends.beams))]


def _path_geometry(config: SystemConfig, geometry: DeploymentGeometry, trial: TrialChannels,
                   xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction cosines (2, 4, B, L) of every end's paths and each hop's path scale (2, B, L).

    The cosines stack (ux, uy) of the ends in (end, hop) order, the platform
    end first; the path angles are ``platform_angles`` plus the trial's
    frozen offsets. A path's scale is its amplitude times its gain, turned
    by the deterministic translation phase of the moved phase reference
    (relative to the platform center, where the factor is exactly 1), taken
    at the platform-side direction of that path.
    """
    means, distance = platform_angles(geometry, xy)
    el, az = means[..., None] + trial.offsets  # (end, hop, B, L) each
    u = np.empty((2, *el.shape))  # _direction_cosines of every end: (ux, uy), end, hop, B, L
    np.cos(az, out=u[0])
    np.sin(az, out=u[1])
    u *= np.sin(el)
    gains = trial.gains * _translation_phases(u[0, 0], u[1, 0], xy - geometry.platform_center(),
                                              wavelength_m(config.carrier_frequency_ghz))
    scale = _amplitudes(distance[..., None], config.carrier_frequency_ghz,
                        config.path_loss_exponent, config.path_loss_mode) * gains
    return u.reshape(2, 4, *el.shape[2:]), scale


def hops(config: SystemConfig, geometry: DeploymentGeometry, trial: TrialChannels,
         xy: np.ndarray, ends: HopEnds | None = None):
    """Both hops at a (B, 2) stack of platform points, H_TI then H_IR, each (B, rows, columns).

    A hop is its receive steering columns, scaled by each path's
    ``_path_geometry`` scale, times its transposed transmit steering matrix.
    Each end that carries beams in ``ends`` (default: the RIS grid, none) is
    reduced onto them, its factors powers of one exponential per path and
    axis; ends without beams keep ``steering_matrix``'s bytes.
    """
    ends = ends or hop_ends(config)
    u, scale = _path_geometry(config, geometry, trial, np.asarray(xy, dtype=float))
    platform_ti, platform_ir, tx_end, ue_end = _end_blocks(u, ends,
                                                           config.element_spacing_wavelengths)
    platform_ti *= scale[0][..., None, :]
    ue_end *= scale[1][..., None, :]
    return platform_ti @ tx_end.swapaxes(-1, -2), ue_end @ platform_ir.swapaxes(-1, -2)


def realize_channels(config: SystemConfig, geometry: DeploymentGeometry, trial: TrialChannels,
                     ris_xy) -> ChannelRealization:
    """Both hop matrices of a trial with the RIS at one (x, y) platform position: the ``hops``
    of a stack of one, so a lone position and a stack of them share one code path."""
    (h_ti,), (h_ir,) = hops(config, geometry, trial, np.asarray(ris_xy, dtype=float).reshape(1, 2))
    return ChannelRealization(h_ti, h_ir)
