import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movable_ris.beamforming import (
    _COND_LIMIT,
    AngleSupport,
    BeamformerSet,
    InvalidBeamError,
    _align_phases,
    _decompose,
    _link_rates,
    achievable_rate,
    bb_stages,
    build_grid,
    design_rf_stages,
    effective_channel,
    hybrid_link_rate,
    rf_stages,
    rf_steering_column,
    select_beams,
    support_points,
)
from movable_ris.scenario import default_config, rng_stream

FULL_DISK = AngleSupport((0.0, math.pi / 2), (-math.pi, math.pi))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- quantized grid ----------------------------------------------------------


def test_grid_eight():
    grid = build_grid(8, 8)
    expected = [-0.875, -0.625, -0.375, -0.125, 0.125, 0.375, 0.625, 0.875]
    np.testing.assert_allclose(grid.lambda_x, expected, atol=1e-15)


def test_grid_one_is_centered():
    assert build_grid(1, 1).lambda_x == (0.0,)
    with pytest.raises(ValueError, match="grid dimensions must be >= 1"):
        build_grid(0, 1)


def test_grid_two():
    np.testing.assert_allclose(build_grid(2, 2).lambda_y, [-0.5, 0.5], atol=1e-15)


def test_grid_values_strictly_increasing_in_open_interval():
    grid = build_grid(7, 3)
    for vals in (grid.lambda_x, grid.lambda_y):
        assert all(-1 < v < 1 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))


# --- beam selection ----------------------------------------------------------


def test_select_beams_full_disk_selects_everything_clamped():
    # on a 3x3 grid every grid point lies inside the unit disk, so the whole
    # disk selects all Mx*My pairs; clamping to max_beams truncates
    beams = select_beams(build_grid(3, 3), FULL_DISK, 2, 16, 0.5)
    assert len(beams) == 9
    beams8 = select_beams(build_grid(4, 4), FULL_DISK, 2, 8, 0.5)
    assert len(beams8) == 8
    # 4x4 corners (±0.75, ±0.75) fall outside the disk and are never selected
    beams16 = select_beams(build_grid(4, 4), FULL_DISK, 2, 16, 0.5)
    assert len(beams16) == 12


def test_select_beams_point_support_fills_to_min():
    grid = build_grid(8, 8)
    # zero-spread support exactly on the grid point (0.125, 0.125):
    el = math.asin(math.hypot(0.125, 0.125))
    az = math.atan2(0.125, 0.125)
    support = AngleSupport((el, el), (az, az))
    beams = select_beams(grid, support, 2, 16, 0.5)
    assert len(beams) == 2  # the hit cell plus the nearest fill
    assert beams[0] == (0.125, 0.125)


def test_select_beams_never_returns_points_outside_disk():
    grid = build_grid(8, 8)
    beams = select_beams(grid, FULL_DISK, 2, 64, 0.5)
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
        beams = select_beams(build_grid(8, 8), support, 2, 16, 0.5)
        pts = support_points(support, per_axis=512)
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
    beams = select_beams(build_grid(8, 8), support, 2, 16, 0.5)
    assert beams == [(0.625, 0.625), (0.875, 0.375)]


# --- analog stages -----------------------------------------------------------


def test_rf_column_broadside_uniform():
    col = rf_steering_column(0.0, 0.0, 4, 4, 0.5)
    np.testing.assert_allclose(col, np.full(16, 0.25, dtype=complex), atol=1e-15)


def test_rf_column_rejects_outside_disk():
    with pytest.raises(InvalidBeamError):
        rf_steering_column(0.875, 0.875, 8, 8, 0.5)


def test_rf_stages_constant_modulus_exact():
    f1, f2 = rf_stages(
        [(0.125, 0.375), (-0.625, 0.125)],
        [(0.375, -0.125), (0.625, 0.625)],
        (8, 8),
        (8, 8),
        0.5,
    )
    # machine-precision constant modulus: |exp(j phi)| is within 2 ulp of 1
    np.testing.assert_allclose(np.abs(f1), 1 / 8, rtol=0, atol=5e-16)
    np.testing.assert_allclose(np.abs(f2), 1 / 8, rtol=0, atol=5e-16)
    assert f1.shape == (64, 2)
    assert f2.shape == (2, 64)


def test_rf_stages_rejects_empty():
    with pytest.raises(ValueError):
        rf_stages([], [(0.0, 0.0)], (2, 2), (2, 2), 0.5)


def test_grid_beams_orthogonal_at_half_wavelength():
    # distinct grid pairs on the quantized grid are exactly orthogonal at d=0.5
    grid = build_grid(8, 8)
    pairs = [(grid.lambda_x[i], grid.lambda_y[j]) for i, j in [(3, 4), (4, 4), (2, 5)]]
    cols = [rf_steering_column(lx, ly, 8, 8, 0.5) for lx, ly in pairs]
    for i in range(3):
        for j in range(3):
            ip = np.vdot(cols[i], cols[j])
            if i == j:
                assert abs(ip) == pytest.approx(1.0, abs=1e-12)
            else:
                assert abs(ip) < 1e-12


def test_column_correlation_below_one():
    c1 = rf_steering_column(0.1, 0.2, 8, 8, 0.5)
    c2 = rf_steering_column(0.15, 0.2, 8, 8, 0.5)
    assert abs(np.vdot(c1, c2)) < 1.0


# --- the analog design against its earlier forms ------------------------------
# The design's bytes are pinned by RF_STAGE_DIGEST in tests/test_baselines.py.
# These copies are the forms it had before: trig over a meshgrid, a
# (-count, u, k) tuple sort with a nested fill-in loop, and np.kron.


def _meshgrid_support_points(support, per_axis=96):
    el = np.linspace(support.elevation[0], support.elevation[1], per_axis)
    az = np.linspace(support.azimuth[0], support.azimuth[1], per_axis)
    ee, aa = np.meshgrid(el, az, indexing="ij")
    r = np.sin(ee.ravel())
    return np.column_stack((r * np.cos(aa.ravel()), r * np.sin(aa.ravel())))


def _tuple_sort_select_beams(grid, support, min_beams, max_beams):
    m_x, m_y = grid.shape
    pts = _meshgrid_support_points(support)
    ix = np.clip(np.floor((pts[:, 0] + 1.0) * m_x / 2.0).astype(int), 0, m_x - 1)
    iy = np.clip(np.floor((pts[:, 1] + 1.0) * m_y / 2.0).astype(int), 0, m_y - 1)
    counts = np.zeros((m_x, m_y), dtype=int)
    np.add.at(counts, (ix, iy), 1)
    lx, ly = np.asarray(grid.lambda_x), np.asarray(grid.lambda_y)
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
@given(support=_supports(), per_axis=st.integers(1, 128))
def test_support_points_take_the_bytes_of_the_meshgrid_form(support, per_axis):
    points, old = support_points(support, per_axis), _meshgrid_support_points(support, per_axis)
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
    grid = build_grid(m_x, m_y)
    assert (select_beams(grid, support, min_beams, max_beams, 0.5)
            == _tuple_sort_select_beams(grid, support, min_beams, max_beams))


def _checked_select_beams(grid, support, min_beams, max_beams, spacing):
    """The tuple sort's order with every cell checked on its own: the hits by count up to
    ``max_beams``, then the other cells by distance up to ``min_beams``, each taken if the
    Gram matrix of the beams taken stays within the condition limit."""
    m_x, m_y = grid.shape
    lx, ly = grid.lambda_x, grid.lambda_y

    def usable(pairs):
        beams = np.array([rf_steering_column(*pair, m_x, m_y, spacing) for pair in pairs])
        return np.linalg.cond(beams @ beams.conj().T) <= _COND_LIMIT

    selected = []
    for pair in _tuple_sort_select_beams(grid, support, 0, m_x * m_y):  # every hit
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
    grid = build_grid(m_x, m_y)
    assert (select_beams(grid, support, min_beams, max_beams, spacing)
            == _checked_select_beams(grid, support, min_beams, max_beams, spacing))


@settings(max_examples=200, deadline=None)
@given(lam=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
           lambda lam: lam[0] ** 2 + lam[1] ** 2 <= 1.0),
       m_x=st.integers(1, 16), m_y=st.integers(1, 16), spacing=st.floats(0.05, 2.0))
def test_rf_steering_column_takes_the_bytes_of_kron(lam, m_x, m_y, spacing):
    column, old = rf_steering_column(*lam, m_x, m_y, spacing), _kron_steering_column(
        *lam, m_x, m_y, spacing)
    assert column.shape == old.shape
    assert column.tobytes() == old.tobytes()


# --- effective channel and digital stages ------------------------------------


def test_effective_channel_zero():
    f1 = np.eye(4)
    f2 = np.eye(4)
    eff = effective_channel(f2, np.zeros((4, 4)), f1)
    np.testing.assert_allclose(eff.singular_values, 0.0, atol=1e-15)
    assert eff.rank == 0


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
    # diag(0, 2, 1) some first entries are negligible, so the stack takes the general path
    rng = rng_stream(23, 0)
    usual = _random_complex(rng, (3, 3, 3))
    stack = np.stack([usual[0], np.zeros((3, 3)), usual[1], np.diag([0.0, 2.0, 1.0]), usual[2]])
    whole = _decompose(stack.astype(complex))
    assert not np.abs(whole.vh[..., 0]).all() and np.isfinite(whole.vh).all()
    for i, row in enumerate(stack.astype(complex)):
        alone = _decompose(row[None])
        for field in ("u", "singular_values", "vh", "rank"):
            assert getattr(whole, field)[i].tobytes() == getattr(alone, field)[0].tobytes(), field


def test_bb_stages_identity_channel():
    eff = effective_channel(np.eye(2), np.eye(2), np.eye(2))
    bb = bb_stages(eff, tx_power_w=2.0, num_streams=2)
    np.testing.assert_allclose(np.abs(bb.b1), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(bb.b2 @ bb.b2.conj().T, np.eye(2), atol=1e-12)
    assert not bb.rank_deficient


def test_bb_stages_diagonalizes():
    rng = rng_stream(23, 0)
    f2 = _random_complex(rng, (4, 8))
    h = _random_complex(rng, (8, 8))
    f1 = _random_complex(rng, (8, 4))
    eff = effective_channel(f2, h, f1)
    bb = bb_stages(eff, tx_power_w=1.0, num_streams=2)
    g = bb.b2 @ eff.matrix @ bb.b1
    off = g - np.diag(np.diag(g))
    assert np.linalg.norm(off) < 1e-8 * np.linalg.norm(np.diag(g))


def test_bb_stages_flags_a_zero_channel_in_a_single_stream_stack():
    # a zero channel (rank 0) carries one stream like a rank-1 one, but only it is deficient
    u = np.array([[1.0], [0.0]])
    eff = effective_channel(np.eye(2), np.stack((np.zeros((2, 2)), u @ u.T)), np.eye(2))
    bb = bb_stages(eff, tx_power_w=1.0, num_streams=1)
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
    bb = bb_stages(eff, tx_power_w=1.0, num_streams=2)
    assert bb.rank_deficient
    assert bb.streams == 1
    # a stack with two leading axes, rank one or full rank, keeps both axes in its flags
    rng = rng_stream(23, 1)
    vectors = _random_complex(rng, (2, 3, 4, 2))
    for stack, streams in ((vectors[..., :1] @ vectors[..., 1:].swapaxes(-1, -2), 1),
                           (_random_complex(rng, (2, 3, 4, 4)), 2)):
        bb = bb_stages(_decompose(stack), tx_power_w=1.0, num_streams=2)
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
    bb = bb_stages(eff, 1.0, 2)
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
    rates = _link_rates(b1, b2, f2, mat, 1e-2)
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
        _link_rates(b, b, f2, np.ones((1, 2, 2), dtype=complex), 1.0)


def test_rate_route_log_det_of_a_nan_row_warns_and_gives_nan():
    # as np.linalg.slogdet: a warning and a NaN, never an error, and the other rows unmoved
    b = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2))
    mat = _random_complex(rng_stream(33, 0), (3, 2, 2))
    alone = np.concatenate([_link_rates(b[:1], b[:1], np.eye(2), mat[[i]], 1.0)
                            for i in (0, 2)])
    mat[1, 0, 0] = np.nan
    with pytest.warns(RuntimeWarning, match="invalid value encountered in slogdet"):
        rates = _link_rates(b, b, np.eye(2), mat, 1.0)
    assert np.isnan(rates[1])
    assert rates[[0, 2]].tobytes() == alone.tobytes()


def test_design_rf_stages_shapes_and_modulus():
    config, geometry = default_config()
    f1, f2 = design_rf_stages(config, geometry)
    assert f1.shape[0] == config.num_tx
    assert f2.shape[1] == config.num_rx
    assert config.num_streams <= f1.shape[1] <= config.max_rf_chains
    assert config.num_streams <= f2.shape[0] <= config.max_rf_chains
    np.testing.assert_allclose(np.abs(f1), 1 / math.sqrt(config.num_tx), rtol=0, atol=5e-16)
    np.testing.assert_allclose(np.abs(f2), 1 / math.sqrt(config.num_rx), rtol=0, atol=5e-16)
