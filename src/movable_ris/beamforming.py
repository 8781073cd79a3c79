"""Angular two-stage beamforming and the achievable-rate objective.

The analog stage is a bank of constant-modulus beams picked from a quantized
directional-cosine grid so that the selected cells cover the link's angular
support. The digital stage diagonalizes the reduced effective channel via its
SVD. Rates are log-det mutual information with the combiner-colored noise.
The rate step's results are float64 or complex128 whatever the input precision.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg  # the LAPACK gufuncs np.linalg wraps

from .channel import platform_angles
from .scenario import DeploymentGeometry, SystemConfig

__all__ = [
    "InvalidBeamError",
    "AngleSupport",
    "BeamformerSet",
    "EffectiveChannel",
    "support_points",
    "select_beams",
    "rf_stage",
    "platform_footprint",
    "design_rf_stages",
    "design_relay_stages",
    "effective_channel",
    "bb_stages",
    "achievable_rate",
    "hybrid_link_rate",
]

logger = logging.getLogger(__name__)

# Largest condition number of the Gram matrix of one RF stage's beams. B2 = U1^H has
# orthonormal rows, so every W through a designed F2 has cond(W) <= cond(F2 F2^H) <= this.
_COND_LIMIT = 1e12

_EPS = float(np.finfo(float).eps)


class InvalidBeamError(ValueError):
    """Raised for cosine pairs outside the unit disk (no physical direction)."""


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

    For a stack of channels every field carries the stack's leading axes.
    ``ranks`` holds the ranks as Python ints, one per channel, read from the
    singular values.
    """

    matrix: np.ndarray       # (..., n_rx_beams, n_tx_beams)
    u: np.ndarray            # left singular vectors
    singular_values: np.ndarray
    vh: np.ndarray           # right singular vectors, conjugate-transposed

    def _floor(self) -> np.ndarray:
        """Each channel's rank floor: max(M_2, M_1) eps times its largest singular value."""
        return max(self.matrix.shape[-2:]) * _EPS * self.singular_values[..., 0]

    @property
    def ranks(self) -> list[int]:
        rank = (self.singular_values > self._floor()[..., None]).sum(axis=-1)
        return np.reshape(rank, -1).tolist()


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


def support_points(support: AngleSupport) -> np.ndarray:
    """Dense sample of the support region in cosine space, shape (96 * 96, 2)."""
    r = np.sin(np.linspace(support.elevation[0], support.elevation[1], 96))[:, None]
    az = np.linspace(support.azimuth[0], support.azimuth[1], 96)
    return np.column_stack(((r * np.cos(az)).ravel(), (r * np.sin(az)).ravel()))


def select_beams(
    shape: tuple[int, int],
    support: AngleSupport,
    min_beams: int,
    max_beams: int,
    spacing: float,
) -> list[tuple[float, float]]:
    """Cell centres whose cell intersects the support, clamped to [min, max].

    An (M_x, M_y) array's quantized cosine grid has the centres -1 + (2u-1)/M,
    u = 1..M, on each axis, each the centre of a cell of size 2/M_x x 2/M_y.
    Intersection is detected by dense sampling of the support and pairs are
    ordered by descending overlap (sample hits), ties by grid index. Pairs
    whose grid point falls outside the unit disk are never returned since
    they map to no physical direction.
    If fewer than ``min_beams`` cells intersect, the nearest disk-interior
    pairs (euclidean distance in cosine space to the support) fill the
    deficit. A cell is skipped, and later cells fill in, if its beam at
    ``spacing`` wavelengths would take the Gram matrix of the beams before it
    past a condition number of _COND_LIMIT, as two cells that alias give one
    beam at a spacing of a wavelength or more.
    """
    m_x, m_y = shape
    pts = support_points(support)
    ix = np.clip(np.floor((pts[:, 0] + 1.0) * m_x / 2.0).astype(int), 0, m_x - 1)
    iy = np.clip(np.floor((pts[:, 1] + 1.0) * m_y / 2.0).astype(int), 0, m_y - 1)
    counts = np.bincount(ix * m_y + iy, minlength=m_x * m_y).reshape(m_x, m_y)

    lx, ly = (-1.0 + (2 * np.arange(1, m + 1) - 1) / m for m in shape)
    in_disk = (lx[:, None] ** 2 + ly[None, :] ** 2) <= 1.0 + 1e-12

    cells = [(u, k) for u in range(m_x) for k in range(m_y) if in_disk[u, k]]  # grid order
    hits = sorted((c for c in cells if counts[c] > 0), key=lambda c: -counts[c])  # stable

    def conditioned(picked) -> bool:
        """Whether the Gram matrix of the beams kron(px, py) / sqrt(M) of the ``picked`` cells,
        the product of the per-axis Grams over M, is within _COND_LIMIT."""
        px, py = (_beam_phases(values[index], m, spacing)
                  for m, values, index in zip(shape, (lx, ly), np.transpose(picked)))
        gram = (px.conj() @ px.T) * (py.conj() @ py.T) / (m_x * m_y)
        s = _lapack(_umath_linalg.svd, "D->d", gram)  # descending
        return s[-1] * _COND_LIMIT >= s[0]

    selected = []  # up to ``max_beams`` hits, then up to ``min_beams`` in all by distance
    for cell in hits:
        if len(selected) < max_beams and conditioned(selected + [cell]):
            selected.append(cell)
    if len(selected) < min_beams:
        for cell in sorted((c for c in cells if c not in selected), key=lambda c: np.min(
                np.hypot(pts[:, 0] - lx[c[0]], pts[:, 1] - ly[c[1]]))):
            if len(selected) < min_beams and conditioned(selected + [cell]):
                selected.append(cell)
    return [(float(lx[u]), float(ly[k])) for u, k in selected]


def _beam_phases(values, m: int, spacing: float) -> np.ndarray:
    """The phase vectors exp(+j 2 pi d n lam), n = 0..m-1, of an m-element axis at the K
    cosines ``values``, shape (K, m)."""
    return np.exp(2j * np.pi * spacing * np.arange(m) * np.asarray(values, dtype=float)[:, None])


def rf_stage(
    pairs: list[tuple[float, float]], shape: tuple[int, int], spacing: float
) -> np.ndarray:
    """The (K, M) constant-modulus beams of K cosine pairs on one array, entry modulus 1/sqrt(M).

    Beam k is kron(px, py) / sqrt(M), its phases +2*pi*d*(m_x*lam_x + m_y*lam_y), so it
    coherently matches a propagation steering vector at the same direction cosines. The rows
    are a combiner F2 as they stand (plain transposes, no conjugation, pair them coherently
    with arriving steering vectors) and, transposed, a precoder F1's columns.
    """
    if not pairs:
        raise ValueError("beam list must be nonempty")
    for lam_x, lam_y in pairs:
        if lam_x**2 + lam_y**2 > 1.0 + 1e-12:
            raise InvalidBeamError(f"cosine pair ({lam_x}, {lam_y}) outside the unit disk")
    px, py = (_beam_phases(values, m, spacing) for values, m in zip(zip(*pairs), shape))
    return (px[:, :, None] * py[:, None, :]).reshape(len(pairs), -1) / math.sqrt(math.prod(shape))


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

    Each side gets at least ``num_streams`` usable beams, where that many are
    left, and at most ``max_rf_chains`` (never more than its antenna count).
    """
    spacing = config.element_spacing_wavelengths
    f1_rows, f2 = (
        rf_stage(select_beams(shape, support, config.num_streams,
                              min(config.max_rf_chains, math.prod(shape)), spacing), shape, spacing)
        for shape, support in ((config.tx_antennas, support_tx), (config.rx_antennas, support_rx))
    )
    return f1_rows.T, f2


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
    factorizations of the same matrix are identical. Every vector has such an
    entry, as a unit-norm singular vector does.
    """
    mag = np.abs(vh)
    significant = mag > 1e-12 * mag.max(axis=-1, keepdims=True, initial=1.0)
    lead = np.take_along_axis(vh, np.argmax(significant, axis=-1)[..., None], axis=-1)
    # np.hypot matches abs() of one complex scalar bit for bit; np.abs may not
    c = lead / np.hypot(lead.real, lead.imag)  # (..., k, 1)
    vh *= np.conj(c)
    u *= c.swapaxes(-1, -2)


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
    b1 = math.sqrt(tx_power_w / streams) * _hermitian(eff.vh[..., :streams, :])
    if f1 is not None:  # a matrix with F1 B1 = 0 stays unscaled
        fb1 = f1 @ b1
        flat = fb1.reshape(-1, fb1.shape[-2] * fb1.shape[-1])
        # np.linalg.norm(m) ** 2 per matrix m, from the two dots that norm takes itself
        actual = np.reshape([np.sqrt(re.dot(re) + im.dot(im)) ** 2
                             for re, im in zip(flat.real, flat.imag)], fb1.shape[:-2])
        scaled = actual > 0.0
        b1[scaled] *= np.sqrt(tx_power_w / actual[scaled])[..., None, None]
    return BeamformerSet(f1, b1, None, _hermitian(eff.u[..., :streams]), streams,
                         deficient if deficient.ndim else bool(deficient))


def achievable_rate(
    bf: BeamformerSet, eff: EffectiveChannel, noise_power_w: float
) -> float | np.ndarray:
    """Spectral efficiency in bps/Hz of the combined two-stage link.

    R = log2 det(I + W^-1 (B2 Heff B1)(B2 Heff B1)^H) with the noise
    covariance W = sigma^2 B2 F2 F2^H B2^H, taken directly for every channel:
    the RF design keeps cond(F2 F2^H), which bounds cond(W), within
    _COND_LIMIT. A W with a zero or non-finite trace, as a zero noise power
    gives, is ridge-regularized at 1e-12. A stack gives one rate per channel.
    """
    b2f2 = bf.b2 @ bf.f2
    w = noise_power_w * (b2f2 @ _hermitian(b2f2))
    g = bf.b2 @ eff.matrix @ bf.b1
    q = g @ _hermitian(g)
    n = w.shape[-1]

    trace = w.trace(axis1=-2, axis2=-1).real
    if not all(0.0 < t < math.inf for t in np.ravel(trace).tolist()):  # NaN fails too
        degenerate = (trace <= 0.0) | ~np.isfinite(trace)
        logger.warning("noise covariance degenerate; applying ridge")
        w = np.where(degenerate[..., None, None], w + 1e-12 * np.eye(n), w)

    m = _lapack(_umath_linalg.solve, "DD->D", w, q, failed="Singular matrix")
    m += np.eye(n)  # I + W^-1 Q
    logdet = _lapack(_umath_linalg.slogdet, "D->Dd", m)[1]
    logdet /= math.log(2.0)
    rates = np.where(logdet < 0.0, 0.0, logdet)  # max(logdet, 0.0), NaN kept
    return rates if rates.ndim else float(rates)


def hybrid_link_rate(
    f2: np.ndarray,
    h: np.ndarray,
    f1: np.ndarray,
    tx_power_w: float,
    num_streams: int,
    noise_power_w: float,
    reduced: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Full pipeline for a (B, M_2, M_1) stack of channel matrices.

    ``h`` is reduced by ``effective_channel``, or with ``reduced`` is a
    stack already reduced to F2 H F1 (as a search's factored hops are); one
    matrix goes in as a stack of one. Returns (rates, rank_deficient) as (B,)
    arrays. N links whose stages share their shapes may be stacked, ``h``
    (N, B, ...) with stages (N, 1, ...), for (N, B) results. Every stack takes
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
                                 reduced=True) for rx, m, tx in zip(*stacks)]
        return tuple(np.concatenate(parts).reshape(batch) for parts in zip(*rows))
    bf.f2 = f2
    return achievable_rate(bf, eff, noise_power_w), bf.rank_deficient


def _gram_rates(f2, h, f1, tx_power_w: float, num_streams: int, noise_power_w: float, grams):
    """``hybrid_link_rate(reduced=True)`` of the stack ``h`` up to rounding, in closed form from
    its SVD U S V^H and the stages' Grams ``grams``, (F1^H F1, F2 F2^H); no stage is applied.

    B1 = sqrt(P/n) V1 with n = tr(V1^H F1^H F1 V1) and B2 = U1^H give Q = (P/n) S1^2 and
    W = sigma^2 Wt, Wt = U1^H F2 F2^H U1, so with d_i = P s_i^2 / (sigma^2 n) the rate is
    log1p((d1 wt22 + d2 wt11 + d1 d2) / det Wt) / ln 2 for two streams and log1p(d1 / wt11) / ln 2
    for one; the phase alignment cancels. More streams or a noise power that is not positive and
    finite send the stack to ``hybrid_link_rate``. A row at or under the rank floor, with
    n <= 0 or det Wt <= 0, or whose closed-form rate is not finite goes there alone, so every
    row's bytes are its own. ``_gram_core`` takes the part that does not depend on the budget
    and ``_gram_tail`` the rest.
    """
    if not _closed_form_fits(h.shape[-2:], num_streams, noise_power_w):
        return hybrid_link_rate(f2, h, f1, tx_power_w, num_streams, noise_power_w, reduced=True)
    rates, rows = _gram_tail(*_gram_core(h, num_streams, grams), tx_power_w, noise_power_w)
    deficient = np.zeros(rates.shape, dtype=bool)
    if rows is not None:
        f2, f1 = (np.broadcast_to(m, h.shape[:-2] + m.shape[-2:])[rows] for m in (f2, f1))
        rates[rows], deficient[rows] = hybrid_link_rate(
            f2, h[rows], f1, tx_power_w, num_streams, noise_power_w, reduced=True)
    return rates, deficient


def _closed_form_fits(shape, num_streams: int, noise_power_w: float) -> bool:
    """Whether ``_gram_rates`` takes the closed form for a stack of (K2, K1) matrices: at most two
    streams, no more than either side's beams, and a noise power that is positive and finite."""
    return num_streams <= min(2, *shape) and 0.0 < noise_power_w < math.inf


def _gram_core(h, num_streams: int, grams):
    """The budget-free part of ``_gram_rates`` of the stack ``h``: (core, rows).

    ``core`` is (S1, n, wt11, wt22, det Wt): the first ``num_streams`` singular values as
    (..., num_streams) and the rest as (...,) arrays. ``rows`` marks the rows the pipeline
    takes whatever the budget, those at or under the rank floor or with n <= 0 or
    det Wt <= 0, and is None when there are none.
    """
    u, s, vh = _lapack(_umath_linalg.svd_s, "D->DdD", h, failed="SVD did not converge")
    u, vh = u[..., :num_streams], vh[..., :num_streams, :]
    n = ((vh @ grams[0]) * vh.conj()).real.sum(axis=(-2, -1))
    w = _hermitian(u) @ grams[1] @ u
    w11, w22, w12 = w[..., 0, 0].real, w[..., -1, -1].real, w[..., 0, -1]
    det = w11 if num_streams == 1 else w11 * w22 - (w12.real ** 2 + w12.imag ** 2)
    floor = max(h.shape[-2:]) * _EPS * s[..., 0]  # as ``EffectiveChannel._floor``
    closed = (s[..., num_streams - 1] > floor) & (n > 0.0) & (det > 0.0)
    return (s[..., :num_streams], n, w11, w22, det), None if closed.all() else ~closed


def _core_array(core) -> np.ndarray:
    """A ``_gram_core`` as one (..., 6) array: s1, s2, n, wt11, wt22 and det Wt per row, with
    s2 = s1, wt22 = wt11 and det Wt = wt11 for one stream."""
    s, *rest = core
    return np.stack((s[..., 0], s[..., -1], *rest), axis=-1)


def _core_of(array: np.ndarray, num_streams: int):
    """The ``_gram_core`` that ``_core_array`` gave ``array``, as views of it."""
    return (array[..., :num_streams], *(array[..., i] for i in range(2, 6)))


# P / sigma^2 from which ``_gram_tail`` runs with overflow ignored. Under it, d1 d2 passes the
# float range only for a row whose gain s^2 / n passes 2**256 as well, far past any physical link
# budget; such a row still takes the pipeline, after numpy's warning.
_GUARDED_SNR = 2.0 ** 256


def _gram_tail(core, rows, tx_power_w: float, noise_power_w: float):
    """The rates of a ``_gram_core`` at the budget, and the rows the pipeline must take: (rates,
    rows), ``rows`` None when every rate is the closed form's.

    Those rows are the core's ``rows`` (their rates are placeholders) and every row whose
    closed-form rate is not finite, as an overflow of d1 d2 from a P / sigma^2 near the float
    range gives.
    """
    s, n, w11, w22, det = core
    if rows is not None:
        n, det = np.where(rows, 1.0, n), np.where(rows, 1.0, det)
    snr = tx_power_w / noise_power_w
    if snr < _GUARDED_SNR:
        rates = _closed_form(s, n, w11, w22, det, snr)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at a zero singular value
            rates = _closed_form(s, n, w11, w22, det, snr)
    if not math.isfinite(rates.sum()):  # finite rates, each at most 1,024, sum to a finite value
        nonfinite = ~np.isfinite(rates)
        rows = nonfinite if rows is None else rows | nonfinite
    return rates, rows


def _closed_form(s, n, w11, w22, det, snr: float) -> np.ndarray:
    """log1p((d1 wt22 + d2 wt11 + d1 d2) / det Wt) / ln 2, or log1p(d1 / wt11) / ln 2 for one
    stream, clamped at 0, with d_i = snr s_i^2 / n."""
    d = snr * s ** 2 / n[..., None]
    d1, d2 = d[..., 0], d[..., -1]
    rates = np.log1p((d1 if s.shape[-1] == 1 else d1 * w22 + d2 * w11 + d1 * d2) / det)
    rates /= math.log(2.0)
    return np.where(rates < 0.0, 0.0, rates)
