"""Angular two-stage beamforming and the achievable-rate objective.

The analog stage is a bank of constant-modulus beams picked from a quantized
directional-cosine grid so that the selected cells cover the link's angular
support. The digital stage diagonalizes the reduced effective channel via its
SVD. Rates are log-det mutual information with the combiner-colored noise.
The rate step's results are float64 or complex128 whatever the input precision.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg  # the LAPACK gufuncs np.linalg wraps

from .channel import platform_angles
from .scenario import DeploymentGeometry, SystemConfig

__all__ = [
    "InvalidBeamError",
    "QuantizedGrid",
    "AngleSupport",
    "BeamformerSet",
    "EffectiveChannel",
    "build_grid",
    "support_points",
    "select_beams",
    "rf_steering_column",
    "rf_stages",
    "platform_footprint",
    "design_rf_stages",
    "design_relay_stages",
    "effective_channel",
    "bb_stages",
    "needs_whitening",
    "achievable_rate",
    "hybrid_link_rate",
]

logger = logging.getLogger(__name__)

# Conditioning threshold of the combiner Gram F2 F2^H above which the rate
# takes the whitened eigenvalue evaluation instead of the direct determinant.
# B2 = U1^H has orthonormal rows, so cond(W) <= cond(F2 F2^H) for every W.
_COND_LIMIT = 1e12

_EPS = float(np.finfo(float).eps)


class InvalidBeamError(ValueError):
    """Raised for cosine pairs outside the unit disk (no physical direction)."""


@dataclass(frozen=True)
class QuantizedGrid:
    """Directional-cosine beam grid: values -1 + (2u-1)/M for u = 1..M."""

    lambda_x: tuple[float, ...]
    lambda_y: tuple[float, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.lambda_x), len(self.lambda_y)


@dataclass(frozen=True)
class AngleSupport:
    """Elevation/azimuth intervals (radians) defining a cosine-space region.

    The region is the image of the rectangle under
    (el, az) -> sin(el) * (cos(az), sin(az)).
    """

    elevation: tuple[float, float]
    azimuth: tuple[float, float]


@dataclass
class EffectiveChannel:
    """Reduced channel seen by the digital stages, with its SVD.

    For a stack of channels every field carries the stack's leading axes
    and ``rank`` is an integer array. ``ranks`` holds the ranks as Python
    ints, one per channel. Both are read from the singular values.
    """

    matrix: np.ndarray       # (..., n_rx_beams, n_tx_beams)
    u: np.ndarray            # left singular vectors
    singular_values: np.ndarray
    vh: np.ndarray           # right singular vectors, conjugate-transposed

    def _floor(self) -> np.ndarray:
        """Each channel's rank floor: max(M_2, M_1) eps times its largest singular value."""
        return max(self.matrix.shape[-2:]) * _EPS * self.singular_values[..., 0]

    @property
    def rank(self) -> int | np.ndarray:
        rank = (self.singular_values > self._floor()[..., None]).sum(axis=-1)
        return rank if rank.ndim else int(rank)

    @property
    def ranks(self) -> list[int]:
        return np.reshape(self.rank, -1).tolist()


@dataclass
class BeamformerSet:
    """Analog + digital stages for one link direction.

    For a stack of channels the digital stages and ``rank_deficient`` carry
    the stack's leading axes.
    """

    f1: np.ndarray | None    # (num_tx, n_tx_beams)
    b1: np.ndarray           # (..., n_tx_beams, streams)
    f2: np.ndarray | None    # (n_rx_beams, num_rx)
    b2: np.ndarray           # (..., streams, n_rx_beams)
    streams: int
    rank_deficient: bool | np.ndarray = False
    whitened: bool = False   # the rate's branch, ``needs_whitening(f2)``


def build_grid(m_x: int, m_y: int) -> QuantizedGrid:
    """Quantized cosine grid matched to the array dimensions."""
    if m_x < 1 or m_y < 1:
        raise ValueError("grid dimensions must be >= 1")
    lx = tuple(-1.0 + (2 * u - 1) / m_x for u in range(1, m_x + 1))
    ly = tuple(-1.0 + (2 * k - 1) / m_y for k in range(1, m_y + 1))
    return QuantizedGrid(lx, ly)


def support_points(support: AngleSupport, per_axis: int = 96) -> np.ndarray:
    """Dense sample of the support region in cosine space, shape (n, 2)."""
    r = np.sin(np.linspace(support.elevation[0], support.elevation[1], per_axis))[:, None]
    az = np.linspace(support.azimuth[0], support.azimuth[1], per_axis)
    return np.column_stack(((r * np.cos(az)).ravel(), (r * np.sin(az)).ravel()))


def select_beams(
    grid: QuantizedGrid,
    support: AngleSupport,
    min_beams: int,
    max_beams: int,
) -> list[tuple[float, float]]:
    """Grid pairs whose cell intersects the support, clamped to [min, max].

    Each pair covers a cell of size 2/M_x x 2/M_y; intersection is detected by
    dense sampling of the support and pairs are ordered by descending overlap
    (sample hits), ties by grid index. Pairs whose grid point falls outside
    the unit disk are never returned since they map to no physical direction.
    If fewer than ``min_beams`` cells intersect, the nearest disk-interior
    pairs (euclidean distance in cosine space to the support) fill the
    deficit.
    """
    m_x, m_y = grid.shape
    pts = support_points(support)
    ix = np.clip(np.floor((pts[:, 0] + 1.0) * m_x / 2.0).astype(int), 0, m_x - 1)
    iy = np.clip(np.floor((pts[:, 1] + 1.0) * m_y / 2.0).astype(int), 0, m_y - 1)
    counts = np.zeros((m_x, m_y), dtype=int)
    np.add.at(counts, (ix, iy), 1)

    lx = np.asarray(grid.lambda_x)
    ly = np.asarray(grid.lambda_y)
    in_disk = (lx[:, None] ** 2 + ly[None, :] ** 2) <= 1.0 + 1e-12

    cells = [(u, k) for u in range(m_x) for k in range(m_y) if in_disk[u, k]]  # grid order
    hits = sorted((c for c in cells if counts[c] > 0), key=lambda c: -counts[c])  # stable
    selected = hits[:max_beams]

    if len(selected) < min_beams:
        rest = sorted((c for c in cells if c not in selected),
                      key=lambda c: np.min(np.hypot(pts[:, 0] - lx[c[0]], pts[:, 1] - ly[c[1]])))
        selected += rest[: min_beams - len(selected)]

    return [(float(lx[u]), float(ly[k])) for u, k in selected]


def rf_steering_column(
    lam_x: float, lam_y: float, m_x: int, m_y: int, spacing: float
) -> np.ndarray:
    """Constant-modulus beam for one cosine pair, per-entry modulus 1/sqrt(M).

    Phases are +2*pi*d*(m_x*lam_x + m_y*lam_y) so the beam coherently matches
    a propagation steering vector at the same direction cosines.
    """
    if lam_x**2 + lam_y**2 > 1.0 + 1e-12:
        raise InvalidBeamError(f"cosine pair ({lam_x}, {lam_y}) outside the unit disk")
    px = np.exp(2j * np.pi * spacing * np.arange(m_x) * lam_x)
    py = np.exp(2j * np.pi * spacing * np.arange(m_y) * lam_y)
    return (px[:, None] * py).ravel() / math.sqrt(m_x * m_y)


def rf_stages(
    beams_tx: list[tuple[float, float]],
    beams_rx: list[tuple[float, float]],
    tx_shape: tuple[int, int],
    rx_shape: tuple[int, int],
    spacing: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Analog precoder F1 (num_tx x n_tx) and combiner F2 (n_rx x num_rx).

    F2 rows are plain transposes (no conjugation) of the receive beams, which
    pairs them coherently with arriving steering vectors.
    """
    if not beams_tx or not beams_rx:
        raise ValueError("beam lists must be nonempty")
    f1 = np.column_stack(
        [rf_steering_column(lx, ly, tx_shape[0], tx_shape[1], spacing) for lx, ly in beams_tx]
    )
    f2 = np.vstack(
        [rf_steering_column(lx, ly, rx_shape[0], rx_shape[1], spacing) for lx, ly in beams_rx]
    )
    return f1, f2


def platform_footprint(geometry: DeploymentGeometry) -> np.ndarray:
    """``platform_angles`` at the platform's center, then its four corners.

    The (2, 2, 2, 5) angles are indexed by (elevation/azimuth, platform/node
    end, Tx/UE node, anchor).
    """
    anchors = [geometry.platform_center()] + [(x, y) for x in geometry.platform_x_range
                                              for y in geometry.platform_y_range]
    return platform_angles(geometry, np.array(anchors))[0]


def _covering_rf_stages(
    config: SystemConfig, support_tx: AngleSupport, support_rx: AngleSupport
) -> tuple[np.ndarray, np.ndarray]:
    """F1 and F2 on the configured Tx and Rx arrays, with beams covering the supports.

    Each side gets at least ``num_streams`` and at most ``max_rf_chains``
    beams (never more than its antenna count).
    """
    shapes = (config.tx_antennas, config.rx_antennas)
    beams_tx, beams_rx = (
        select_beams(build_grid(*shape), support, config.num_streams,
                     min(config.max_rf_chains, shape[0] * shape[1]))
        for shape, support in zip(shapes, (support_tx, support_rx))
    )
    return rf_stages(beams_tx, beams_rx, *shapes, config.element_spacing_wavelengths)


def design_rf_stages(
    config: SystemConfig, geometry: DeploymentGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """RF stages for both link ends, covering the platform's angular footprint.

    The analog beams are built once from slowly varying angular statistics
    and stay fixed while the RIS moves, so each node's support spans the
    min/max of its angles over the platform's center and corners, widened by
    the configured spreads. Azimuths are unwrapped around the center
    direction to keep the interval contiguous.
    """
    spread_el, spread_az = map(math.radians, config.angular_spread_deg)
    (_, node_el), (_, node_az) = platform_footprint(geometry).tolist()
    supports = []
    for els, azs in zip(node_el, node_az):  # the Tx node, then the UE node
        center_az = azs[0]
        azs = [center_az + math.remainder(az - center_az, 2.0 * math.pi) for az in azs]
        supports.append(AngleSupport((min(els) - spread_el, max(els) + spread_el),
                                     (min(azs) - spread_az, max(azs) + spread_az)))
    return _covering_rf_stages(config, *supports)


def design_relay_stages(
    config: SystemConfig, geometry: DeploymentGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """The relay's hop-1 combiner and hop-2 precoder, in that order.

    The relay hangs from the platform (arrays facing down) and its stages stay
    fixed while it moves, so each support is the platform center's angle
    toward the node, widened by the spread plus the largest corner deviation
    from it.
    """
    spread_el, spread_az = map(math.radians, config.angular_spread_deg)
    (platform_el, _), (platform_az, _) = platform_footprint(geometry).tolist()
    supports = []  # the UE node's, then the Tx node's
    for (el, *corner_els), (az, *corner_azs) in zip(platform_el[::-1], platform_az[::-1]):
        half_el = spread_el + max(abs(c - el) for c in corner_els)
        half_az = spread_az + max(abs(math.remainder(c - az, 2.0 * math.pi)) for c in corner_azs)
        supports.append(AngleSupport((el - half_el, el + half_el), (az - half_az, az + half_az)))
    f1_hop2, f2_hop1 = _covering_rf_stages(config, *supports)
    return f2_hop1, f1_hop2


def _hermitian(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def effective_channel(f2: np.ndarray, h: np.ndarray, f1: np.ndarray) -> EffectiveChannel:
    """Reduced channel F2 H F1 of one matrix or a (..., M_2, M_1) stack, with a phased SVD."""
    return _decompose(f2 @ h @ f1)


def _decompose(mat: np.ndarray) -> EffectiveChannel:
    """The EffectiveChannel of an already reduced matrix or stack, its SVD ``_align_phases``-ed."""
    u, s, vh = _lapack(_umath_linalg.svd_s, "D->DdD", mat, failed="SVD did not converge")
    _align_phases(u, vh)
    return EffectiveChannel(mat, u, s, vh)


def _lapack(gufunc, signature: str, *arrays: np.ndarray, failed: str | None = None):
    """np.linalg's call of its LAPACK ``gufunc``, minus its checks and its cast back to single
    precision: the complex ``signature`` if an operand is complex, else its real form (no cast);
    with ``failed``, np.linalg's errstate, where a LAPACK failure raises LinAlgError(failed)."""
    if "c" not in {a.dtype.kind for a in arrays}:
        signature = signature.replace("D", "d")
    if failed is None:  # as np.linalg.slogdet: a NaN warns and gives NaN
        return gufunc(*arrays, signature=signature)

    def raise_(err, flag):
        raise LinAlgError(failed)
    with np.errstate(call=raise_, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gufunc(*arrays, signature=signature)


def _align_phases(u: np.ndarray, vh: np.ndarray) -> None:
    """Rotate, in place, each right singular vector's first non-negligible entry to be real-positive.

    The matching left vector absorbs the conjugate, so repeated
    factorizations of the same matrix are identical. Each vector's rotation
    depends on it alone, so a leading slice of the vectors may be aligned
    without the rest.
    """
    mag = np.abs(vh)
    floor = 1e-12 * mag.max(axis=-1, keepdims=True, initial=1.0)
    # np.hypot matches abs() of one complex scalar bit for bit; np.abs may not
    if (mag[..., :1] > floor).all():  # the usual case: every vector leads with entry 0
        lead = vh[..., 0]
        c = lead / np.hypot(lead.real, lead.imag)
        vh *= np.conj(c)[..., None]
        u *= c[..., None, :]
    else:
        significant = mag > floor
        rotate = significant.any(axis=-1)  # (..., k): vectors with an entry to rotate
        lead = np.take_along_axis(vh, np.argmax(significant, axis=-1)[..., None], axis=-1)[..., 0]
        lead = lead[rotate]
        c = lead / np.hypot(lead.real, lead.imag)
        vh[rotate] *= np.conj(c)[..., None]
        u.swapaxes(-1, -2)[rotate] *= c[..., None]


def _norm_squared(matrices: np.ndarray) -> np.ndarray:
    """||M||_F^2 of each matrix in a C-contiguous stack, rounded as float(np.linalg.norm(M) ** 2).

    Each matrix takes the two strided dot products np.linalg.norm makes over its
    entries in memory order, here its row-major ravel, which matmul of a row
    vector with itself makes too; every other batched form tried sums in another order.
    """
    x = matrices.reshape(-1, 1, math.prod(matrices.shape[-2:]))
    xt = x.swapaxes(-1, -2)
    sums = (x.real @ xt.real + x.imag @ xt.imag).ravel().tolist()
    return np.array([math.sqrt(v) ** 2 for v in sums]).reshape(matrices.shape[:-2])


class _MixedStreamCounts(ValueError):
    """Raised by ``bb_stages`` for a stack whose channels carry different stream counts."""


def bb_stages(
    eff: EffectiveChannel,
    tx_power_w: float,
    num_streams: int,
    f1: np.ndarray | None = None,
) -> BeamformerSet:
    """Digital precoder/combiner from the dominant singular subspace.

    B1 = sqrt(P_T/N_S) * V_1 and B2 = U_1^H. When ``f1`` is supplied, B1 is
    rescaled by a single scalar so that the transmit power ||F1 B1||_F^2
    equals P_T exactly even for non-orthogonal analog beams (the factor is 1
    to machine precision at half-wavelength spacing). Rank-deficient
    channels degrade to rank-many streams (a zero channel to one) and are
    flagged, not resampled. Every channel of a stack must have the same
    stream count; ``hybrid_link_rate`` runs a stack of mixed counts row by
    row. The stages come as a BeamformerSet holding ``f1`` and no F2, which
    ``hybrid_link_rate`` fills in.
    """
    s = eff.singular_values
    streams, deficient = num_streams, np.zeros(s.shape[:-1], dtype=bool)
    # Singular values fall along each channel, so its rank reaches num_streams
    # exactly when its num_streams-th value clears the rank floor.
    if num_streams > s.shape[-1] or not (s[..., num_streams - 1] > eff._floor()).all():
        # Rank bookkeeping in Python ints: integer-array ufuncs would map numpy
        # code that nothing else in a sweep touches, which shows in peak RSS.
        ranks = eff.ranks
        counts = {min(num_streams, max(rank, 1)) for rank in ranks}
        if len(counts) != 1:
            raise _MixedStreamCounts("channels of one stack must share a stream count")
        streams = counts.pop()
        deficient = np.reshape([rank < num_streams for rank in ranks], deficient.shape)
    b1 = _precoder(eff.vh, streams, tx_power_w, f1)
    return BeamformerSet(f1, b1, None, _hermitian(eff.u[..., :streams]), streams,
                         deficient if deficient.ndim else bool(deficient))


def _precoder(vh: np.ndarray, streams: int, tx_power_w: float, f1: np.ndarray | None):
    """B1 = sqrt(P_T/N_S) V_1 from the right singular vectors, power-normalized through ``f1``."""
    b1 = math.sqrt(tx_power_w / streams) * _hermitian(vh[..., :streams, :])
    if f1 is not None:
        actual = _norm_squared(f1 @ b1)
        scaled = actual > 0.0
        if scaled.all():  # every matrix, without boolean-mask copies
            b1 *= np.sqrt(tx_power_w / actual)[..., None, None]
        else:
            b1[scaled] *= np.sqrt(tx_power_w / actual[scaled])[..., None, None]
    return b1


def needs_whitening(f2: np.ndarray) -> bool:
    """Whether rates through ``f2`` take the whitened branch: cond(F2 F2^H) over _COND_LIMIT."""
    return not np.linalg.cond(f2 @ _hermitian(f2)) <= _COND_LIMIT  # a NaN one too


_identity = functools.cache(np.eye)  # shared by every rate call, which only reads it


def _whitened_rate(w: np.ndarray, q: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Rates from whitened eigenvalues after a ridge proportional to the noise scale."""
    n = w.shape[-1]
    ridge = (1e-12 * trace / n)[:, None]
    w = w + ridge[..., None] * np.eye(n)
    evals, evecs = np.linalg.eigh(w)
    evals = np.maximum(evals, ridge)
    w_isqrt = (evecs / np.sqrt(evals)[:, None, :]) @ _hermitian(evecs)
    s = w_isqrt @ q @ _hermitian(w_isqrt)
    lam = np.maximum(np.linalg.eigvalsh(0.5 * (s + _hermitian(s))), 0.0)
    return np.sum(np.log2(1.0 + lam), axis=-1)


def achievable_rate(
    bf: BeamformerSet, eff: EffectiveChannel, noise_power_w: float
) -> float | np.ndarray:
    """Spectral efficiency in bps/Hz of the combined two-stage link.

    R = log2 det(I + W^-1 (B2 Heff B1)(B2 Heff B1)^H) with the noise
    covariance W = sigma^2 B2 F2 F2^H B2^H. One branch serves every channel
    of a call: with ``bf.whitened``, which ``needs_whitening(F2)`` decides
    once per combiner, the rate takes a whitened eigenvalue evaluation
    instead of the direct determinant. A singular W is ridge-regularized at
    1e-12 relative to its trace. A stack gives one rate per channel.
    """
    return _link_rates(bf.b1, bf.b2, bf.f2, eff.matrix, noise_power_w, bf.whitened)


def _link_rates(b1, b2, f2, mat, noise_power_w: float, whitened: bool):
    """``achievable_rate`` of the stages B1, B2 and F2 on the reduced channels ``mat``."""
    b2f2 = b2 @ f2
    w = noise_power_w * (b2f2 @ _hermitian(b2f2))
    g = b2 @ mat @ b1
    q = g @ _hermitian(g)
    batch = w.shape[:-2]
    n = w.shape[-1]
    w = w.reshape(-1, n, n)
    q = q.reshape(-1, n, n)

    trace = w.trace(axis1=-2, axis2=-1).real
    if not all(0.0 < t < math.inf for t in trace.tolist()):  # NaN fails too
        degenerate = (trace <= 0.0) | ~np.isfinite(trace)
        logger.warning("noise covariance degenerate; applying ridge")
        w = np.where(degenerate[:, None, None], w + 1e-12 * np.eye(n), w)
        trace = np.trace(w, axis1=-2, axis2=-1).real

    if whitened:
        rates = _whitened_rate(w, q, trace)
    else:
        m = _lapack(_umath_linalg.solve, "DD->D", w, q, failed="Singular matrix")
        m += _identity(n)  # I + W^-1 Q
        logdet = _lapack(_umath_linalg.slogdet, "D->Dd", m)[1]
        logdet /= math.log(2.0)
        rates = np.where(logdet < 0.0, 0.0, logdet)  # max(logdet, 0.0), NaN kept
    rates = rates.reshape(batch)
    return rates if batch else float(rates)


def hybrid_link_rate(
    f2: np.ndarray,
    h: np.ndarray,
    f1: np.ndarray,
    tx_power_w: float,
    num_streams: int,
    noise_power_w: float,
    whitened: bool,
    reduced: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline for a (B, M_2, M_1) stack of channel matrices.

    ``h`` is reduced by ``effective_channel``, or with ``reduced`` is a
    stack already reduced to F2 H F1 (as a search's factored hops are); one
    matrix goes in as a stack of one. Returns (rates, rank_deficient) as (B,)
    arrays. ``whitened`` is ``needs_whitening(f2)``, which the caller takes
    once per combiner. N links on one branch may be stacked, ``h`` (N, B,
    ...) with stages (N, 1, ...), for (N, B) results. Every stack takes
    ``bb_stages`` and ``achievable_rate`` as one unit, save one whose rows
    carry mixed stream counts (rank-deficient ones carry fewer): its rows,
    across any link axis, run one at a time, each as a reduced stack of one.
    """
    eff = _decompose(h) if reduced else effective_channel(f2, h, f1)
    try:
        bf = bb_stages(eff, tx_power_w, num_streams, f1)
    except _MixedStreamCounts:
        batch = eff.matrix.shape[:-2]
        stacks = (np.broadcast_to(m, batch + m.shape[-2:]).reshape(-1, *m.shape[-2:])
                  for m in (f2, eff.matrix, f1))
        rows = [hybrid_link_rate(rx, m[None], tx, tx_power_w, num_streams, noise_power_w,
                                 whitened, reduced=True) for rx, m, tx in zip(*stacks)]
        return tuple(np.concatenate(parts).reshape(batch) for parts in zip(*rows))
    bf.f2, bf.whitened = f2, whitened
    return achievable_rate(bf, eff, noise_power_w), bf.rank_deficient
