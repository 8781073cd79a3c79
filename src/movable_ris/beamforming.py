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
from .scenario import _COND_LIMIT, DeploymentGeometry, SystemConfig

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

    @property
    def ranks(self) -> list[int]:
        s = self.singular_values
        rank = (s > _rank_floor(self.matrix, s)[..., None]).sum(axis=-1)
        return np.reshape(rank, -1).tolist()


def _rank_floor(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rank floor of each (M_2, M_1) matrix of ``h``, whose singular values ``s`` fall:
    max(M_2, M_1) eps times its largest singular value."""
    return max(h.shape[-2:]) * _EPS * s[..., 0]


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
    floor = _rank_floor(eff.matrix, s)
    if num_streams > s.shape[-1] or not (s[..., num_streams - 1] > floor).all():
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
    """Full pipeline for one link's (B, M_2, M_1) stack of channel matrices.

    ``h`` is reduced by ``effective_channel`` through the link's stages F2
    (K2, M_2) and F1 (M_1, K1), or with ``reduced`` is a stack already
    reduced to F2 H F1 (as a search's factored hops are); one matrix goes in
    as a stack of one. Returns (rates, rank_deficient) as (B,) arrays. The
    references take it unreduced and a search, where it falls back from the
    closed form, ``reduced`` (``optimizer._ClosedFormSearch``), each link on
    its own. Every stack takes ``bb_stages`` and ``achievable_rate`` as one
    unit, save one whose rows carry mixed stream counts (rank-deficient ones
    carry fewer): its rows run one at a time, each as a reduced stack of one.
    """
    eff = _decompose(h) if reduced else effective_channel(f2, h, f1)
    try:
        bf = bb_stages(eff, tx_power_w, num_streams, f1)
    except _MixedStreamCounts:
        rows = [hybrid_link_rate(f2, m[None], f1, tx_power_w, num_streams, noise_power_w,
                                 reduced=True) for m in eff.matrix]
        return tuple(np.concatenate(parts) for parts in zip(*rows))
    bf.f2 = f2
    return achievable_rate(bf, eff, noise_power_w), bf.rank_deficient


def _closed_form_fits(shape, num_streams: int, noise_power_w: float) -> bool:
    """Whether the closed form scores a stack of reduced (K2, K1) matrices: at most two streams,
    no more than either side's beams, and a noise power that is positive and finite. Where this
    holds for every link, a search takes ``_gram_core`` then ``_gram_tail``, with the pipeline
    for each row whose rate is not finite, and keeps its cores (``optimizer.SearchTrace``), and
    otherwise the pipeline alone; the links' shapes need not agree."""
    return num_streams <= min(2, *shape) and 0.0 < noise_power_w < math.inf


def _gram_core(h, num_streams: int, grams, out=None):
    """The budget-free part of the closed-form rate of the reduced stack ``h``, its core.

    The closed form is ``hybrid_link_rate(reduced=True)`` of ``h`` up to rounding, from its SVD
    U S V^H and the stages' Grams ``grams``, (F1^H F1, F2 F2^H); no stage is applied. B1 =
    sqrt(P/n) V1 with n = tr(V1^H F1^H F1 V1) and B2 = U1^H give Q = (P/n) S1^2 and W = sigma^2
    Wt, Wt = U1^H F2 F2^H U1, and the phase alignment cancels; ``_closed_form`` has the rate.

    The core is one (6, ...) array, ``out`` if given, of s1, s2, n, wt11, wt22 and det Wt per
    row: s1 and s2 are the first and the ``num_streams``-th singular values, so one stream has
    s2 = s1, wt22 = wt11 and det Wt = wt11. A row the closed form cannot score whatever the
    budget, at or under the rank floor or with n <= 0 or det Wt <= 0, is NaN in all six
    entries, so its rate is NaN and the pipeline takes it.
    """
    u, s, vh = _lapack(_umath_linalg.svd_s, "D->DdD", h, failed="SVD did not converge")
    u, vh = u[..., :num_streams], vh[..., :num_streams, :]
    core = np.empty((6, *h.shape[:-2])) if out is None else out
    core[0], core[1] = s[..., 0], s[..., num_streams - 1]
    n = ((vh @ grams[0]) * vh.conj()).real.sum(axis=(-2, -1), out=core[2])
    w = _hermitian(u) @ grams[1] @ u
    w11, w22, w12 = w[..., 0, 0].real, w[..., -1, -1].real, w[..., 0, -1]
    core[3], core[4] = w11, w22
    det = core[5]
    if num_streams == 1:
        det[...] = w11
    else:
        np.subtract(w11 * w22, w12.real ** 2 + w12.imag ** 2, out=det)
    closed = (core[1] > _rank_floor(h, s)) & (n > 0.0) & (det > 0.0)
    if not closed.all():
        core[:, ~closed] = math.nan
    return core


# P / sigma^2 from which ``_gram_tail`` runs with overflow ignored. Under it, d1 d2 passes the
# float range only for a row whose gain s^2 / n passes 2**256 as well, far past any physical link
# budget; such a row still takes the pipeline, after numpy's warning.
_GUARDED_SNR = 2.0 ** 256


def _gram_tail(core, num_streams: int, tx_power_w: float, noise_power_w: float):
    """The closed-form rates of a ``_gram_core`` at the budget.

    A rate that is not finite is the pipeline's to give: a NaN core row gives NaN, and an
    overflow of d1 d2 from a P / sigma^2 near the float range gives inf or NaN. The caller
    (``optimizer._ClosedFormSearch.core_rates``) sends exactly those rows to the pipeline, each
    link's apart from the rest, so every row keeps the bytes it has alone.
    """
    s, n, w11, w22, det = core[:num_streams], core[2], core[3], core[4], core[5]
    snr = tx_power_w / noise_power_w
    if snr < _GUARDED_SNR:
        return _closed_form(s, n, w11, w22, det, snr)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at a zero singular value
        return _closed_form(s, n, w11, w22, det, snr)


def _closed_form(s, n, w11, w22, det, snr: float) -> np.ndarray:
    """log1p((d1 wt22 + d2 wt11 + d1 d2) / det Wt) / ln 2, or log1p(d1 / wt11) / ln 2 for one
    stream, clamped at 0, with d_i = snr s_i^2 / n = P s_i^2 / (sigma^2 n); ``s`` holds s_i at
    its index i. This is log2 det(I + W^-1 Q) for the ``_gram_core`` quantities."""
    d = snr * s ** 2 / n
    d1, d2 = d[0], d[-1]
    rates = np.log1p((d1 if len(s) == 1 else d1 * w22 + d2 * w11 + d1 * d2) / det)
    rates /= math.log(2.0)
    return np.where(rates < 0.0, 0.0, rates)
