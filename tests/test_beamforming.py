import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movable_ris import baselines, channel, optimizer
from movable_ris.beamforming import (
    _COND_LIMIT,
    AngleSupport,
    BeamformerSet,
    EffectiveChannel,
    InvalidBeamError,
    _align_phases,
    _decompose,
    _gram_core,
    _gram_tail,
    achievable_rate,
    bb_stages,
    design_relay_stages,
    design_rf_stages,
    effective_channel,
    hybrid_link_rate,
    rf_stage,
    select_beams,
    support_points,
)
from movable_ris.scenario import default_config, rng_stream
from test_batch import FACTORED_RTOL, _link_rates, _stack_search

FULL_DISK = AngleSupport((0.0, math.pi / 2), (-math.pi, math.pi))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- beam selection ----------------------------------------------------------


def test_select_beams_full_disk_selects_everything_clamped():
    # on a 3x3 grid every grid point lies inside the unit disk, so the whole
    # disk selects all Mx*My pairs; clamping to max_beams truncates
    beams = select_beams((3, 3), FULL_DISK, 2, 16, 0.5)
    assert len(beams) == 9
    beams8 = select_beams((4, 4), FULL_DISK, 2, 8, 0.5)
    assert len(beams8) == 8
    # 4x4 corners (±0.75, ±0.75) fall outside the disk and are never selected
    beams16 = select_beams((4, 4), FULL_DISK, 2, 16, 0.5)
    assert len(beams16) == 12


@pytest.mark.parametrize("shape, centres", [
    ((8, 8), ([-0.875, -0.625, -0.375, -0.125, 0.125, 0.375, 0.625, 0.875],) * 2),
    ((1, 1), ([0.0], [0.0])),
    ((2, 4), ([-0.5, 0.5], [-0.75, -0.25, 0.25, 0.75])),
], ids=["8x8", "1x1", "2x4"])
def test_select_beams_returns_the_cell_centres_on_the_full_disk(shape, centres):
    # the centres -1 + (2u-1)/M of each axis, every pair inside the unit disk, each once
    beams = select_beams(shape, FULL_DISK, 1, shape[0] * shape[1], 0.5)
    expected = {(x, y) for x in centres[0] for y in centres[1] if x * x + y * y <= 1.0}
    assert len(beams) == len(expected)
    assert set(beams) == expected


def test_select_beams_point_support_fills_to_min():
    # zero-spread support exactly on the grid point (0.125, 0.125):
    el = math.asin(math.hypot(0.125, 0.125))
    az = math.atan2(0.125, 0.125)
    support = AngleSupport((el, el), (az, az))
    beams = select_beams((8, 8), support, 2, 16, 0.5)
    assert len(beams) == 2  # the hit cell plus the nearest fill
    assert beams[0] == (0.125, 0.125)


def test_select_beams_never_returns_points_outside_disk():
    beams = select_beams((8, 8), FULL_DISK, 2, 64, 0.5)
    assert all(lx**2 + ly**2 <= 1 + 1e-12 for lx, ly in beams)


def _fine_hits(beams, pts, m_x, m_y):
    hits = []
    for lx, ly in beams:
        inside = (np.abs(pts[:, 0] - lx) <= 1 / m_x + 1e-12) & (
            np.abs(pts[:, 1] - ly) <= 1 / m_y + 1e-12
        )
        hits.append(bool(inside.any()))
    return hits


def test_select_beams_cells_intersect_support_dense_oracle():
    # independent check at much finer sampling than the implementation uses:
    # every selected beam either covers support samples or is one of the
    # nearest-fill beams allowed only while fewer than min_beams cells hit
    spread = math.radians(10.0)
    for mean_el, mean_az in [(1.2, 0.8), (0.6, -2.0), (1.532, math.pi / 4)]:
        support = AngleSupport((mean_el - spread, mean_el + spread),
                               (mean_az - spread, mean_az + spread))
        beams = select_beams((8, 8), support, 2, 16, 0.5)
        pts = _meshgrid_support_points(support, per_axis=512)
        hits = _fine_hits(beams, pts, 8, 8)
        n_fills = sum(not h for h in hits)
        if n_fills:
            assert sum(hits) < 2  # fills appear only to reach min_beams
            assert len(beams) == 2
        # hit beams are listed before fill beams
        assert hits == sorted(hits, reverse=True)


def test_select_beams_golden_table_geometry():
    # frozen from a verified run: one in-disk cell intersects this rim-hugging
    # support at 512x512 sampling; the second beam is the nearest in-disk fill
    spread = math.radians(10)
    support = AngleSupport((1.532 - spread, 1.532 + spread),
                           (math.pi / 4 - spread, math.pi / 4 + spread))
    beams = select_beams((8, 8), support, 2, 16, 0.5)
    assert beams == [(0.625, 0.625), (0.875, 0.375)]


# --- analog stages -----------------------------------------------------------


def test_rf_column_broadside_uniform():
    (col,) = rf_stage([(0.0, 0.0)], (4, 4), 0.5)
    np.testing.assert_allclose(col, np.full(16, 0.25, dtype=complex), atol=1e-15)


def test_rf_column_rejects_outside_disk():
    with pytest.raises(InvalidBeamError, match=r"cosine pair \(0.875, 0.875\) outside"):
        rf_stage([(0.0, 0.0), (0.875, 0.875)], (8, 8), 0.5)


def test_rf_stages_constant_modulus_exact():
    f1 = rf_stage([(0.125, 0.375), (-0.625, 0.125)], (8, 8), 0.5).T
    f2 = rf_stage([(0.375, -0.125), (0.625, 0.625)], (8, 8), 0.5)
    # machine-precision constant modulus: |exp(j phi)| is within 2 ulp of 1
    np.testing.assert_allclose(np.abs(f1), 1 / 8, rtol=0, atol=5e-16)
    np.testing.assert_allclose(np.abs(f2), 1 / 8, rtol=0, atol=5e-16)
    assert f1.shape == (64, 2)
    assert f2.shape == (2, 64)


def test_rf_stages_rejects_empty():
    with pytest.raises(ValueError, match="beam list must be nonempty"):
        rf_stage([], (2, 2), 0.5)


def test_grid_beams_orthogonal_at_half_wavelength():
    # distinct cell centres of an 8-cell axis, -1 + (2u-1)/8, are exactly orthogonal at d=0.5
    beams = rf_stage([(-0.125, 0.125), (0.125, 0.125), (-0.375, 0.375)], (8, 8), 0.5)
    np.testing.assert_allclose(beams.conj() @ beams.T, np.eye(3), atol=1e-12)


def test_column_correlation_below_one():
    c1, c2 = rf_stage([(0.1, 0.2), (0.15, 0.2)], (8, 8), 0.5)
    assert abs(np.vdot(c1, c2)) < 1.0


# --- the analog design against its earlier forms ------------------------------
# The design's bytes are pinned by RF_STAGE_DIGEST in tests/test_baselines.py.
# These copies are the forms it had before: a tuple of cell centres per axis,
# trig over a meshgrid, a (-count, u, k) tuple sort with a nested fill-in loop,
# and np.kron one beam at a time.


def _cell_centres(m):
    return tuple(-1.0 + (2 * u - 1) / m for u in range(1, m + 1))


def _meshgrid_support_points(support, per_axis=96):
    el = np.linspace(support.elevation[0], support.elevation[1], per_axis)
    az = np.linspace(support.azimuth[0], support.azimuth[1], per_axis)
    ee, aa = np.meshgrid(el, az, indexing="ij")
    r = np.sin(ee.ravel())
    return np.column_stack((r * np.cos(aa.ravel()), r * np.sin(aa.ravel())))


def _tuple_sort_select_beams(shape, support, min_beams, max_beams):
    m_x, m_y = shape
    pts = _meshgrid_support_points(support)
    ix = np.clip(np.floor((pts[:, 0] + 1.0) * m_x / 2.0).astype(int), 0, m_x - 1)
    iy = np.clip(np.floor((pts[:, 1] + 1.0) * m_y / 2.0).astype(int), 0, m_y - 1)
    counts = np.zeros((m_x, m_y), dtype=int)
    np.add.at(counts, (ix, iy), 1)
    lx, ly = np.asarray(_cell_centres(m_x)), np.asarray(_cell_centres(m_y))
    in_disk = (lx[:, None] ** 2 + ly[None, :] ** 2) <= 1.0 + 1e-12
    hits = [(-counts[u, k], u, k) for u in range(m_x) for k in range(m_y)
            if counts[u, k] > 0 and in_disk[u, k]]
    hits.sort()
    selected = [(u, k) for _, u, k in hits[:max_beams]]
    if len(selected) < min_beams:
        chosen = set(selected)
        rest = []
        for u in range(m_x):
            for k in range(m_y):
                if (u, k) in chosen or not in_disk[u, k]:
                    continue
                d = np.min(np.hypot(pts[:, 0] - lx[u], pts[:, 1] - ly[k]))
                rest.append((d, u, k))
        rest.sort()
        selected.extend((u, k) for _, u, k in rest[: min_beams - len(selected)])
    return [(float(lx[u]), float(ly[k])) for u, k in selected]


def _kron_steering_column(lam_x, lam_y, m_x, m_y, spacing):
    px = np.exp(2j * np.pi * spacing * np.arange(m_x) * lam_x)
    py = np.exp(2j * np.pi * spacing * np.arange(m_y) * lam_y)
    return np.kron(px, py) / math.sqrt(m_x * m_y)


_WIDTHS = st.one_of(st.just(0.0), st.floats(0.0, math.pi))  # a zero width collapses an axis


@st.composite
def _supports(draw):
    el, az = draw(st.floats(-0.5, 2.0)), draw(st.floats(-2 * math.pi, 2 * math.pi))
    return AngleSupport((el, el + draw(_WIDTHS)), (az, az + draw(_WIDTHS)))


@settings(max_examples=100, deadline=None)
@given(support=_supports())
def test_support_points_take_the_bytes_of_the_meshgrid_form(support):
    points, old = support_points(support), _meshgrid_support_points(support)
    assert points.shape == old.shape
    assert points.tobytes() == old.tobytes()


RING = AngleSupport((0.5, 0.5), (0.0, 2 * math.pi))  # four cells of a 4 x 4 grid tie


@settings(max_examples=150, deadline=None)
@given(support=_supports(), m_x=st.integers(1, 10), m_y=st.integers(1, 10),
       min_beams=st.integers(1, 6), max_beams=st.integers(1, 10))
@example(support=AngleSupport((0.5, 0.5), (0.3, 0.3)), m_x=4, m_y=4, min_beams=3, max_beams=4)
@example(support=RING, m_x=4, m_y=4, min_beams=2, max_beams=3)  # ties cut by max_beams
@example(support=RING, m_x=4, m_y=4, min_beams=6, max_beams=8)  # ties, then the fill-in
def test_select_beams_takes_the_order_of_the_tuple_sort(support, m_x, m_y, min_beams, max_beams):
    assert (select_beams((m_x, m_y), support, min_beams, max_beams, 0.5)
            == _tuple_sort_select_beams((m_x, m_y), support, min_beams, max_beams))


def _checked_select_beams(shape, support, min_beams, max_beams, spacing):
    """The tuple sort's order with every cell checked on its own: the hits by count up to
    ``max_beams``, then the other cells by distance up to ``min_beams``, each taken if the
    Gram matrix of the beams taken stays within the condition limit."""
    m_x, m_y = shape
    lx, ly = _cell_centres(m_x), _cell_centres(m_y)

    def usable(pairs):
        beams = np.array([_kron_steering_column(*pair, m_x, m_y, spacing) for pair in pairs])
        return np.linalg.cond(beams @ beams.conj().T) <= _COND_LIMIT

    selected = []
    for pair in _tuple_sort_select_beams(shape, support, 0, m_x * m_y):  # every hit
        if len(selected) < max_beams and usable(selected + [pair]):
            selected.append(pair)
    if len(selected) < min_beams:
        pts = _meshgrid_support_points(support)
        rest = sorted((np.min(np.hypot(pts[:, 0] - x, pts[:, 1] - y)), u, k)
                      for u, x in enumerate(lx) for k, y in enumerate(ly)
                      if x * x + y * y <= 1.0 + 1e-12 and (x, y) not in selected)
        for _, u, k in rest:
            if len(selected) < min_beams and usable(selected + [(lx[u], ly[k])]):
                selected.append((lx[u], ly[k]))
    return selected


@settings(max_examples=150, deadline=None)
@given(support=_supports(), m_x=st.integers(1, 8), m_y=st.integers(1, 8),
       min_beams=st.integers(1, 6), max_beams=st.integers(1, 10),
       spacing=st.one_of(st.floats(0.05, 4.0), st.sampled_from([1.0, 1.5, 2.0, 4.0])))
@example(support=AngleSupport((0.2, 1.2), (0.0, 2.0)), m_x=8, m_y=8, min_beams=3, max_beams=6,
         spacing=2.0)  # aliasing hits, skipped
@example(support=AngleSupport((0.5, 0.5), (0.3, 0.3)), m_x=4, m_y=4, min_beams=5, max_beams=5,
         spacing=1.0)  # aliasing fill-in cells, skipped: four distinct beams are all there are
def test_select_beams_checks_one_stage_as_every_cell(support, m_x, m_y, min_beams, max_beams,
                                                     spacing):
    assert (select_beams((m_x, m_y), support, min_beams, max_beams, spacing)
            == _checked_select_beams((m_x, m_y), support, min_beams, max_beams, spacing))


_PAIRS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
    lambda lam: lam[0] ** 2 + lam[1] ** 2 <= 1.0), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(pairs=_PAIRS, m_x=st.integers(1, 16), m_y=st.integers(1, 16),
       spacing=st.floats(0.05, 4.05))
def test_rf_steering_column_takes_the_bytes_of_kron(pairs, m_x, m_y, spacing):
    # every row of a stage, its beams built at once, is the per-beam np.kron column
    stage = rf_stage(pairs, (m_x, m_y), spacing)
    old = np.array([_kron_steering_column(*lam, m_x, m_y, spacing) for lam in pairs])
    assert stage.shape == old.shape
    assert stage.tobytes() == old.tobytes()


# --- effective channel and digital stages ------------------------------------


def test_effective_channel_zero():
    f1 = np.eye(4)
    f2 = np.eye(4)
    eff = effective_channel(f2, np.zeros((4, 4)), f1)
    np.testing.assert_allclose(eff.singular_values, 0.0, atol=1e-15)
    assert eff.ranks == [0]


def test_effective_channel_scalar():
    f1 = np.ones((1, 1))
    f2 = np.ones((1, 1))
    eff = effective_channel(f2, np.array([[3.0 - 4.0j]]), f1)
    assert eff.singular_values[0] == pytest.approx(5.0, rel=1e-12)


def test_effective_channel_reconstruction():
    rng = rng_stream(21, 0)
    f2 = _random_complex(rng, (3, 6))
    h = _random_complex(rng, (6, 5))
    f1 = _random_complex(rng, (5, 4))
    eff = effective_channel(f2, h, f1)
    recon = eff.u @ np.diag(eff.singular_values) @ eff.vh
    np.testing.assert_allclose(recon, eff.matrix, atol=1e-9)


def test_effective_channel_svd_is_deterministic():
    rng = rng_stream(22, 0)
    m = _random_complex(rng, (4, 4))
    e1 = effective_channel(np.eye(4), m, np.eye(4))
    e2 = effective_channel(np.eye(4), m.copy(), np.eye(4))
    np.testing.assert_array_equal(e1.u, e2.u)
    np.testing.assert_array_equal(e1.vh, e2.vh)
    # phase convention: first non-negligible entry of each right vector real-positive
    for k in range(4):
        v = e1.vh[k].conj()
        nz = np.flatnonzero(np.abs(v) > 1e-9)
        assert v[nz[0]].imag == pytest.approx(0.0, abs=1e-12)
        assert v[nz[0]].real > 0


def test_decompose_mixed_lead_entries_match_each_row_alone():
    # usual rows rotate by their first right-vector entry; in a zero matrix and in
    # diag(0, 2, 1) some first entries are negligible, and a later entry leads
    rng = rng_stream(23, 0)
    usual = _random_complex(rng, (3, 3, 3))
    stack = np.stack([usual[0], np.zeros((3, 3)), usual[1], np.diag([0.0, 2.0, 1.0]), usual[2]])
    whole = _decompose(stack.astype(complex))
    assert not np.abs(whole.vh[..., 0]).all() and np.isfinite(whole.vh).all()
    for i, row in enumerate(stack.astype(complex)):
        alone = _decompose(row[None])
        for field in ("u", "singular_values", "vh"):
            assert getattr(whole, field)[i].tobytes() == getattr(alone, field)[0].tobytes(), field
        assert whole.ranks[i] == alone.ranks[0]


def test_bb_stages_identity_channel():
    eff = effective_channel(np.eye(2), np.eye(2), np.eye(2))
    bb = bb_stages(eff, tx_power_w=2.0, num_streams=2, f1=np.eye(2))
    np.testing.assert_allclose(np.abs(bb.b1), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(bb.b2 @ bb.b2.conj().T, np.eye(2), atol=1e-12)
    assert not bb.rank_deficient


def test_bb_stages_diagonalizes():
    rng = rng_stream(23, 0)
    f2 = _random_complex(rng, (4, 8))
    h = _random_complex(rng, (8, 8))
    f1 = _random_complex(rng, (8, 4))
    eff = effective_channel(f2, h, f1)
    bb = bb_stages(eff, tx_power_w=1.0, num_streams=2, f1=f1)
    g = bb.b2 @ eff.matrix @ bb.b1
    off = g - np.diag(np.diag(g))
    assert np.linalg.norm(off) < 1e-8 * np.linalg.norm(np.diag(g))


def test_bb_stages_flags_a_zero_channel_in_a_single_stream_stack():
    # a zero channel (rank 0) carries one stream like a rank-1 one, but only it is deficient
    u = np.array([[1.0], [0.0]])
    eff = effective_channel(np.eye(2), np.stack((np.zeros((2, 2)), u @ u.T)), np.eye(2))
    bb = bb_stages(eff, tx_power_w=1.0, num_streams=1, f1=np.eye(2))
    assert bb.streams == 1
    assert bb.rank_deficient.tolist() == [True, False]
    # through an F1 that drops the second axis, a row whose B1 lies on that axis has
    # ||F1 B1|| = 0: it comes back unscaled, the other rows as each comes alone
    f1 = np.diag([2.0, 0.0]).astype(complex)
    e2 = np.array([[0.0], [1.0]])
    stack = np.stack((u @ u.T, e2 @ e2.T, np.diag([1.0, 0.5]))).astype(complex)
    eff = _decompose(stack)
    bb = bb_stages(eff, tx_power_w=3.0, num_streams=1, f1=f1)
    assert not np.abs(f1 @ bb.b1[1]).any()
    assert bb.b1[1].tobytes() == (math.sqrt(3.0) * eff.vh[1, :1].conj().T).tobytes()
    for i in (0, 2):
        alone = bb_stages(_decompose(stack[i:i + 1]), tx_power_w=3.0, num_streams=1, f1=f1)
        assert bb.b1[i].tobytes() == alone.b1[0].tobytes()
        assert np.linalg.norm(f1 @ bb.b1[i]) ** 2 == pytest.approx(3.0, rel=1e-15)


def test_bb_stages_rank_deficient_degrades_and_flags():
    # rank-1 effective channel with two requested streams
    u = np.array([[1.0], [0.0]])
    eff = effective_channel(np.eye(2), u @ u.T, np.eye(2))
    bb = bb_stages(eff, tx_power_w=1.0, num_streams=2, f1=np.eye(2))
    assert bb.rank_deficient
    assert bb.streams == 1
    # a stack with two leading axes, rank one or full rank, keeps both axes in its flags
    rng = rng_stream(23, 1)
    vectors = _random_complex(rng, (2, 3, 4, 2))
    for stack, streams in ((vectors[..., :1] @ vectors[..., 1:].swapaxes(-1, -2), 1),
                           (_random_complex(rng, (2, 3, 4, 4)), 2)):
        bb = bb_stages(_decompose(stack), tx_power_w=1.0, num_streams=2, f1=np.eye(4))
        assert bb.streams == streams and bb.b1.shape == (2, 3, 4, streams)
        assert bb.rank_deficient.tolist() == [[streams < 2] * 3] * 2


def test_power_constraint_100_random_trials():
    # C2 within 1e-9 relative, with grid-beam analog stages
    config, geometry = default_config()
    f1, f2 = design_rf_stages(config, geometry)
    rng = rng_stream(24, 0)
    for _ in range(100):
        h = _random_complex(rng, (config.num_rx, config.num_tx))
        eff = effective_channel(f2, h, f1)
        bb = bb_stages(eff, tx_power_w=2.0, num_streams=2, f1=f1)
        power = np.linalg.norm(f1 @ bb.b1) ** 2
        assert power == pytest.approx(2.0, rel=1e-9)


# --- achievable rate ----------------------------------------------------------


def _pipeline(rng, n_rf=4, m=16, streams=2, power=1.0, noise=1e-3):
    f2 = _random_complex(rng, (n_rf, m)) / math.sqrt(m)
    f1 = _random_complex(rng, (m, n_rf)) / math.sqrt(m)
    h = _random_complex(rng, (m, m))
    eff = effective_channel(f2, h, f1)
    bb = bb_stages(eff, power, streams, f1)
    bf = BeamformerSet(f1, bb.b1, f2, bb.b2, bb.streams, bb.rank_deficient)
    return bf, eff


def test_rate_zero_channel():
    f1 = np.eye(4)
    f2 = np.eye(4)
    eff = effective_channel(f2, np.zeros((4, 4)), f1)
    bb = bb_stages(eff, 1.0, 2, f1)
    bf = BeamformerSet(f1, bb.b1, f2, bb.b2, bb.streams, bb.rank_deficient)
    assert achievable_rate(bf, eff, 1e-3) == 0.0


def test_rate_scalar_siso_form():
    # N_S = 1, orthonormal combiner: R = log2(1 + P sigma1^2 / noise)
    rng = rng_stream(25, 0)
    f2 = np.eye(3)
    f1 = np.eye(3)
    h = _random_complex(rng, (3, 3))
    eff = effective_channel(f2, h, f1)
    power, noise = 2.0, 1e-2
    bb = bb_stages(eff, power, 1, f1)
    bf = BeamformerSet(f1, bb.b1, f2, bb.b2, 1, False)
    expected = math.log2(1 + power * eff.singular_values[0] ** 2 / noise)
    assert achievable_rate(bf, eff, noise) == pytest.approx(expected, rel=1e-10)


def test_rate_high_snr_slope():
    # doubling power at high SNR adds ~N_S bits
    rng = rng_stream(26, 0)
    f1 = np.eye(6)
    f2 = np.eye(6)
    h = _random_complex(rng, (6, 6))
    eff = effective_channel(f2, h, f1)
    noise = 1e-9
    rates = []
    for power in (1.0, 2.0):
        bb = bb_stages(eff, power, 2, f1)
        bf = BeamformerSet(f1, bb.b1, f2, bb.b2, 2, False)
        rates.append(achievable_rate(bf, eff, noise))
    assert rates[1] - rates[0] == pytest.approx(2.0, abs=0.01)


def test_rate_monotone_in_power():
    rng = rng_stream(27, 0)
    f2 = _random_complex(rng, (4, 16)) / 4
    f1 = _random_complex(rng, (16, 4)) / 4
    h = _random_complex(rng, (16, 16))
    eff = effective_channel(f2, h, f1)
    last = -1.0
    for power in (0.01, 0.1, 1.0, 10.0):
        bb = bb_stages(eff, power, 2, f1)
        bf = BeamformerSet(f1, bb.b1, f2, bb.b2, 2, False)
        rate = achievable_rate(bf, eff, 1e-3)
        assert rate >= last
        last = rate


def test_rate_invariant_to_svd_column_phase():
    # multiplying a column of B1 and the matching row of B2 by conj phases
    # must not change the rate (SVD phase ambiguity)
    rng = rng_stream(28, 0)
    bf, eff = _pipeline(rng)
    base = achievable_rate(bf, eff, 1e-3)
    phase = np.exp(0.73j)
    b1 = bf.b1.copy()
    b2 = bf.b2.copy()
    b1[:, 0] *= phase
    b2[0, :] *= np.conj(phase)
    rotated = BeamformerSet(bf.f1, b1, bf.f2, b2, bf.streams, bf.rank_deficient)
    assert achievable_rate(rotated, eff, 1e-3) == pytest.approx(base, rel=1e-10)


def test_rate_matches_whitened_eigenvalue_formula():
    # independent evaluation: R = sum log2(1 + eig(W^-1/2 Q W^-1/2))
    rng = rng_stream(29, 0)
    for _ in range(20):
        bf, eff = _pipeline(rng)
        noise = 10 ** rng.uniform(-6, -1)
        direct = achievable_rate(bf, eff, noise)
        b2f2 = bf.b2 @ bf.f2
        w = noise * b2f2 @ b2f2.conj().T
        g = bf.b2 @ eff.matrix @ bf.b1
        evals, evecs = np.linalg.eigh(w)
        w_isqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
        s = w_isqrt @ (g @ g.conj().T) @ w_isqrt.conj().T
        lam = np.maximum(np.linalg.eigvalsh(0.5 * (s + s.conj().T)), 0.0)
        oracle = float(np.sum(np.log2(1 + lam)))
        assert direct == pytest.approx(oracle, abs=1e-8)


# --- the rate route's LAPACK calls -----------------------------------------------

# The route's SVD, solve and log-det must give the bytes of np.linalg's, real or complex,
# on a stack of one, a stack and a stack of stacks. Single-precision input is computed in
# double, as np.linalg does, but not cast back: its results are np.linalg's on the widened input.
LAPACK_CASES = [
    pytest.param(stack + shape, dtype, id=f"{dtype.__name__}-{'x'.join(map(str, stack + shape))}")
    for dtype in (complex, float)
    for stack in ((1,), (10,), (2, 10))
    for shape in ((2, 2), (3, 3), (5, 3), (3, 5), (5, 6), (6, 6))
] + [pytest.param((10, 5, 3), dtype, id=f"{dtype.__name__}-10x5x3")
     for dtype in (np.complex64, np.float32)]


def _random_stack(rng, shape, dtype):
    real = np.dtype(dtype).kind == "f"
    return (rng.standard_normal(shape) if real else _random_complex(rng, shape)).astype(dtype)


def _double(a):
    return a.astype(np.promote_types(a.dtype, float))


@pytest.mark.parametrize("shape, dtype", LAPACK_CASES)
def test_decompose_takes_the_bytes_of_np_linalg_svd(shape, dtype):
    mat = _random_stack(rng_stream(30, 0), shape, dtype)
    u, s, vh = np.linalg.svd(_double(mat), full_matrices=False)
    _align_phases(u, vh)
    eff = _decompose(mat)
    for ours, numpys in ((eff.u, u), (eff.singular_values, s), (eff.vh, vh)):
        assert ours.dtype == numpys.dtype and ours.shape == numpys.shape
        assert ours.tobytes() == numpys.tobytes()


def _rate_of(b1, b2, f2, mat, noise_power_w):
    """``achievable_rate`` of the stages B1, B2 and F2 on the reduced channels ``mat``."""
    stages = BeamformerSet(None, b1, f2, b2, b2.shape[-2])
    return achievable_rate(stages, EffectiveChannel(mat, None, None, None), noise_power_w)


@pytest.mark.parametrize("shape, dtype", LAPACK_CASES)
def test_link_rates_take_the_bytes_of_np_linalg_solve_and_slogdet(shape, dtype):
    # the rate: log2 det(I + W^-1 Q), floored at 0, with W and Q formed as the route does
    rng = rng_stream(31, 0)
    *stack, m2, m1 = shape
    n = min(m2, m1)
    mat = _random_stack(rng, shape, dtype)
    b1, b2 = (_random_stack(rng, (*stack, *dims), dtype) for dims in ((m1, n), (n, m2)))
    f2 = _random_stack(rng, (m2, m2 + 1), dtype)
    b2f2, g = b2 @ f2, b2 @ mat @ b1
    w = 1e-2 * (b2f2 @ b2f2.conj().swapaxes(-1, -2))
    x = np.linalg.solve(_double(w), _double(g @ g.conj().swapaxes(-1, -2)))
    expected = np.maximum(np.linalg.slogdet(x + np.eye(n))[1] / math.log(2.0), 0.0)
    rates = _rate_of(b1, b2, f2, mat, 1e-2)
    assert rates.dtype == expected.dtype and rates.tobytes() == expected.tobytes()


def test_rate_route_raises_numpys_svd_error_on_a_nan_entry():
    h = _random_complex(rng_stream(32, 0), (4, 3, 3))
    h[2, 1, 0] = np.nan
    eye = np.eye(3, dtype=complex)
    for reduced in (False, True):
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            hybrid_link_rate(eye, h, eye, 1.0, 2, 1e-2, reduced)


def test_rate_route_raises_numpys_singular_matrix_error():
    # B2 F2 has equal rows, so W = [[1, 1], [1, 1]] is exactly singular with a positive trace
    b = np.eye(2, dtype=complex)[None]
    f2 = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _rate_of(b, b, f2, np.ones((1, 2, 2), dtype=complex), 1.0)


def test_rate_route_log_det_of_a_nan_row_warns_and_gives_nan():
    # as np.linalg.slogdet: a warning and a NaN, never an error, and the other rows unmoved
    b = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
    mat = _random_complex(rng_stream(33, 0), (3, 2, 2))
    alone = np.concatenate([_rate_of(b[:1], b[:1], np.eye(2), mat[[i]], 1.0) for i in (0, 2)])
    mat[1, 0, 0] = np.nan
    with pytest.warns(RuntimeWarning, match="invalid value encountered in slogdet"):
        rates = _rate_of(b, b, np.eye(2), mat, 1.0)
    assert np.isnan(rates[1])
    assert rates[[0, 2]].tobytes() == alone.tobytes()


# sha256 of hybrid_link_rate's rates and flags, unreduced and reduced, and of _decompose's u and
# vh, over _pinned_stacks; then of the four RF stages at a 2-wavelength spacing, where a stage of
# the best-covering cells would carry aliased beams, so cells are skipped as the stage is picked.
PINNED_PATHS_DIGEST = "80ab7520bb8e6429e09de64441d457b2f1e9a699a952c55dd20fb90846a616e9"


def _pinned_stacks():
    """(f2, h, reduced h, f1, streams) per case: full rank; a zero first column of F1 and of
    the reduced h, so every right singular vector of a nonzero singular value leads with a
    negligible entry; with that F1, a zero row, whose B1 = e1 gives F1 B1 = 0; mixed stream
    counts, rank-one rows among full-rank ones."""
    rng = rng_stream(35, 0)
    f2, f1 = _random_complex(rng, (3, 8)), _random_complex(rng, (8, 3))
    f1_lead = f1.copy()
    f1_lead[:, 0] = 0.0
    full = _random_complex(rng, (10, 8, 8)), _random_complex(rng, (10, 3, 3))
    lead = _random_complex(rng, (6, 8, 8)), _random_complex(rng, (6, 3, 3))
    lead[1][..., 0] = 0.0
    zero = _random_complex(rng, (4, 8, 8)), _random_complex(rng, (4, 3, 3))
    zero[0][1], zero[1][1] = 0.0, 0.0
    zero[1][..., 0] = 0.0
    mixed = _random_complex(rng, (5, 8, 8)), _random_complex(rng, (5, 3, 3))
    for stack in mixed:
        stack[1::2] = stack[1::2, :, :1] @ stack[1::2, :1, :]
    return [(f2, *full, f1, 2), (f2, *lead, f1_lead, 2), (f2, *zero, f1_lead, 1),
            (f2, *mixed, f1, 2)]


def test_rate_steps_and_beam_picks_keep_their_bytes():
    digest = hashlib.sha256()
    for f2, h, reduced, f1, streams in _pinned_stacks():
        for stack, is_reduced in ((h, False), (reduced, True)):
            rates, flags = hybrid_link_rate(f2, stack, f1, 1.0, streams, 1e-2, is_reduced)
            eff = _decompose(stack if is_reduced else f2 @ stack @ f1)
            for a in (rates, flags, eff.u, eff.vh):
                digest.update(a.tobytes())
    config, geometry = default_config()
    config = dataclasses.replace(config, element_spacing_wavelengths=2.0)
    for stage in (*design_rf_stages(config, geometry), *design_relay_stages(config, geometry)):
        digest.update(repr(stage.shape).encode())
        digest.update(stage.tobytes())
    assert digest.hexdigest() == PINNED_PATHS_DIGEST


def test_design_rf_stages_shapes_and_modulus():
    config, geometry = default_config()
    f1, f2 = design_rf_stages(config, geometry)
    assert f1.shape[0] == config.num_tx
    assert f2.shape[1] == config.num_rx
    assert config.num_streams <= f1.shape[1] <= config.max_rf_chains
    assert config.num_streams <= f2.shape[0] <= config.max_rf_chains
    np.testing.assert_allclose(np.abs(f1), 1 / math.sqrt(config.num_tx), rtol=0, atol=5e-16)
    np.testing.assert_allclose(np.abs(f2), 1 / math.sqrt(config.num_rx), rtol=0, atol=5e-16)


# --- the searches' closed-form rate ------------------------------------------------
#
# A search scores its links' reduced stacks through ``optimizer._ClosedFormSearch``: the closed
# form of the stages' Grams (``_gram_core``, then ``_gram_tail`` at the budget) where it fits,
# and the pipeline for every row it leaves. These tests score each stack through a search whose
# ``_reduced`` answers it (``test_batch._stack_search``).


def _grams(f2, f1):
    """(F1^H F1, F2 F2^H), as the searches form them once per context."""
    return f1.conj().T @ f1, f2 @ f2.conj().T


def _stages(rng, shape, m=8):
    """Random, not orthogonal, stages F2 (K2, m) and F1 (m, K1) for a (K2, K1) reduced channel."""
    return _random_complex(rng, (shape[0], m)) / m, _random_complex(rng, (m, shape[1])) / m


_SHAPES = st.sampled_from([(3, 3), (5, 3), (6, 3), (5, 6), (6, 6)])


@given(seed=st.integers(0, 10_000), shape=_SHAPES, rows=st.sampled_from([1, 10, 40]),
       links=st.sampled_from([1, 2]), streams=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_gram_rates_match_the_pipeline(seed, shape, rows, links, streams):
    # full-rank stacks of one link, and of two links with stages of their own
    rng = rng_stream(seed, 40)
    h = _random_complex(rng, (links, rows, *shape))
    stages = [_stages(rng, shape) for _ in range(links)]
    budget = (2.0, streams, 1e-3)
    search = _stack_search([(f2, f1, _grams(f2, f1)) for f2, f1 in stages], budget, tuple(h))
    rates = search.search_rates(None)
    per_link = []
    for (f2, f1), hop in zip(stages, h):
        link, deficient = _link_rates(f2, hop, f1, budget)
        expected, flags = hybrid_link_rate(f2, hop, f1, *budget, reduced=True)
        assert link.shape == expected.shape == (rows,)
        np.testing.assert_allclose(link, expected, rtol=FACTORED_RTOL, atol=0.0)
        assert deficient.tolist() == flags.tolist() and not flags.any()
        per_link.append(link)
    assert rates.tobytes() == optimizer._least(per_link).tobytes()
    assert not search.saw_rank_deficiency
    # the budget-free (6, links, rows) core, then the tail that applies the budget, give each
    # link's bytes, and the core alone, as a search trace keeps it, the search's; one _gram_core
    # of the links stacked, with their Grams stacked, gives the same core. No row of it is NaN,
    # and no rate of the tail is left for the pipeline
    core, _ = search.search_core(None)
    tail = _gram_tail(core, streams, budget[0], budget[2])
    assert core.shape == (6, links, rows) and not np.isnan(core).any()
    assert np.isfinite(tail).all() and tail.tobytes() == np.stack(per_link).tobytes()
    stacked = [np.stack(g)[:, None] for g in zip(*(_grams(*s) for s in stages))]
    assert _gram_core(h, streams, stacked, np.empty(core.shape)).tobytes() == core.tobytes()
    assert search.core_rates(None, core).tobytes() == rates.tobytes()


@pytest.mark.parametrize("case", ["zero_row", "rank_one_row", "zero_precoder",
                                  "three_streams", "zero_noise"])
def test_gram_rates_fall_back_to_the_pipeline_bytes_and_flags(case):
    rng = rng_stream(41, 0)
    shape = (5, 6)
    h = _random_complex(rng, (6, *shape))
    f2, f1 = _stages(rng, shape)
    streams, noise = (3 if case == "three_streams" else 2), (0.0 if case == "zero_noise" else 1e-3)
    if case == "zero_row":
        h[2] = 0.0
    elif case == "rank_one_row":
        h[2] = np.outer(h[2][:, 0], h[2][0])
    elif case == "zero_precoder":  # n = 0 on every row
        f1 = np.zeros_like(f1)
    budget = (2.0, streams, noise)
    rates, deficient = _link_rates(f2, h, f1, budget)
    if case in ("zero_row", "rank_one_row"):
        # that row takes the pipeline alone; every row keeps the bytes it has alone
        expected, flags = hybrid_link_rate(f2, h[2:3], f1, *budget, reduced=True)
        assert rates[2:3].tobytes() == expected.tobytes() and flags.tolist() == [True]
        rows = [_link_rates(f2, h[i:i + 1], f1, budget)[0] for i in range(len(h))]
        assert rates.tobytes() == np.concatenate(rows).tobytes()
        assert deficient.tolist() == [i == 2 for i in range(len(h))]
    else:
        expected, flags = hybrid_link_rate(f2, h, f1, *budget, reduced=True)
        assert rates.tobytes() == expected.tobytes()
        assert deficient.tolist() == flags.tolist()


def test_gram_rates_of_a_singular_noise_gram_raise_the_pipelines_error():
    # F2's rows are equal, so Wt = U1^H F2 F2^H U1 has det 0 and the pipeline's solve raises
    f2 = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    h = np.array([[[2.0, 0.0], [0.0, 1.0]]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        hybrid_link_rate(f2, h, eye, 1.0, 2, 1.0, reduced=True)
    search = _stack_search([(f2, eye, _grams(f2, eye))], (1.0, 2, 1.0), (h,))
    assert search.closed_form
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        search.search_rates(None)


@given(seed=st.integers(0, 10_000), shape=st.sampled_from([(3, 3), (5, 6)]),
       rows=st.integers(1, 12), streams=st.sampled_from([1, 2]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_gram_rates_of_stacked_links_equal_link_by_link_and_row_by_row(seed, shape, rows,
                                                                      streams, data):
    # a search of two links is the least of each link's search, and each link's rates and flags
    # are its rows' alone, whatever rows of either link take the pipeline
    rng = rng_stream(seed, 42)
    h = _random_complex(rng, (2, rows, *shape))
    for i in data.draw(st.sets(st.integers(0, rows - 1))):  # rank-one rows in link 1
        h[1, i] = np.outer(h[1, i][:, 0], h[1, i][0])
    if data.draw(st.booleans()):
        h[0, 0] = 0.0
    stages = [_stages(rng, shape) for _ in range(2)]
    budget = (2.0, streams, 1e-3)
    search = _stack_search([(f2, f1, _grams(f2, f1)) for f2, f1 in stages], budget, tuple(h))
    rates = search.search_rates(None)
    links = [_link_rates(f2, hop, f1, budget) for (f2, f1), hop in zip(stages, h)]
    assert rates.tobytes() == optimizer._least([r for r, _ in links]).tobytes()
    assert search.saw_rank_deficiency == any(d.any() for _, d in links)
    for (f2, f1), hop, (link, deficient) in zip(stages, h, links):
        alone = [_link_rates(f2, hop[b:b + 1], f1, budget)[0] for b in range(rows)]
        assert link.tobytes() == np.concatenate(alone).tobytes()
        _, flags = hybrid_link_rate(f2, hop, f1, *budget, reduced=True)
        assert deficient.tolist() == flags.tolist()


@given(seed=st.integers(0, 10_000), shape=_SHAPES, rows=st.integers(1, 12),
       links=st.sampled_from([1, 2]), streams=st.sampled_from([1, 2]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_nan_core_row_never_touches_its_neighbours(seed, shape, rows, links, streams, data):
    # forced NaN rows of a core take the pipeline, each with the bytes of that row alone, on the
    # stacks given or rebuilt; every other row of every link keeps the bytes of the core unforced
    rng = rng_stream(seed, 43)
    h = _random_complex(rng, (links, rows, *shape))
    stages = [_stages(rng, shape) for _ in range(links)]
    budget = (2.0, streams, 1e-3)
    search = _stack_search([(f2, f1, _grams(f2, f1)) for f2, f1 in stages], budget, tuple(h))
    core, _ = search.search_core(None)
    forced = np.zeros((links, rows), dtype=bool)
    for link, row in data.draw(st.sets(st.tuples(st.integers(0, links - 1),
                                                 st.integers(0, rows - 1)), min_size=1)):
        forced[link, row] = True
    nan_core = core.copy()
    nan_core[:, forced] = math.nan
    real_least, per_link = optimizer._least, []
    with pytest.MonkeyPatch.context() as mp:  # each call's link rates, before the least
        mp.setattr(optimizer, "_least", lambda rates: per_link.append(rates.copy()) or
                   real_least(rates))
        unforced = search.core_rates(None, core, tuple(h))
        for given in (tuple(h), None):
            search.saw_rank_deficiency = False
            rates = search.core_rates(None, nan_core, given)
            assert not search.saw_rank_deficiency
    assert np.isfinite(per_link[0]).all()
    for kept in per_link[1:]:
        assert kept[~forced].tobytes() == per_link[0][~forced].tobytes()
        for (link, row), rate in zip(np.argwhere(forced), kept[forced]):
            (f2, f1), alone = stages[link], h[link, row:row + 1]
            expected, flags = hybrid_link_rate(f2, alone, f1, *budget, reduced=True)
            assert np.float64(rate).tobytes() == expected.tobytes() and not flags.any()
    assert rates.tobytes() == real_least(per_link[-1]).tobytes()
    untouched = ~forced.any(axis=0)  # the rows no link forced
    assert rates[untouched].tobytes() == unforced[untouched].tobytes()


# How far the closed form may sit from an exact evaluation of the pipeline's log-det at any
# rate. The rounding of the float SVD and of the Grams sets the floor, not the rate: over 1,200
# rows drawn as below the closed form read up to 13.9 ulp at each of the three rates, and the
# pipeline reads 6-17 ulp at rates near 0.2 and thousands at 2.5e-4.
LOW_RATE_ULPS = 32


def _exact_rate(mpmath, h, f1, f2, power, streams, noise):
    """log2 det(I + W^-1 Q) of the pipeline's stages for one reduced channel, in mpmath."""
    u, _, vh = mpmath.svd_c(mpmath.matrix(h.tolist()))
    f1, f2 = (mpmath.matrix(f.tolist()) for f in (f1, f2))
    b1 = vh[0:streams, :].H * mpmath.sqrt(mpmath.mpf(power) / streams)
    b1 *= mpmath.sqrt(mpmath.mpf(power) / sum(abs(x) ** 2 for x in f1 * b1))
    b2 = u[:, 0:streams].H
    g, b2f2 = b2 * mpmath.matrix(h.tolist()) * b1, b2 * f2
    w = mpmath.mpf(noise) * (b2f2 * b2f2.H)
    return mpmath.log(mpmath.re(mpmath.det(mpmath.eye(streams) + w**-1 * (g * g.H))), 2)


@given(spacing=st.sampled_from([0.5, 0.4]), trial_index=st.integers(0, 20),
       draw_seed=st.integers(0, 10_000), streams=st.sampled_from([1, 2]),
       target=st.sampled_from([0.2, 2.5e-4, 1e-6]))
@settings(max_examples=20, deadline=None)
def test_gram_rates_hold_low_rates_to_an_exact_evaluation(spacing, trial_index, draw_seed,
                                                          streams, target):
    # joint-search stacks at the default pack (Grams I) or spacing 0.4 (Grams not I), with the
    # power scaled so that each row's rate falls near ``target``
    mpmath = pytest.importorskip("mpmath")
    config, geometry = default_config()
    pack = baselines.build_scenario_pack(
        dataclasses.replace(config, element_spacing_wavelengths=spacing), geometry, 0)
    context = baselines.make_problem_context(pack, trial_index)
    state = optimizer.decode(rng_stream(draw_seed, 43).random((3, config.num_ris + 2)), geometry)
    c, a = channel.hops(pack.config, geometry, context.trial, state.xy, context.ends)
    h = (a * np.exp(1j * state.phases)[..., None, :]) @ c
    link = [(pack.f2, pack.f1, _grams(pack.f2, pack.f1))]
    slope = _stack_search(link, (1e-30, streams, 1.0), (h,)).search_rates(None) / 1e-30
    with mpmath.workdps(40):
        for row, power in zip(h, target / slope):
            (rate,) = _stack_search(link, (power, streams, 1.0), (row[None],)).search_rates(None)
            exact = _exact_rate(mpmath, row, pack.f1, pack.f2, power, streams, 1.0)
            assert 0.5 * target < rate < 2.0 * target
            assert abs(rate - exact) <= LOW_RATE_ULPS * np.finfo(float).eps * exact, (rate, exact)
