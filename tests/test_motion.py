import numpy as np
import pytest

from mirrorspec import motion
from mirrorspec.config import ConfigError, RunConfig
from mirrorspec.galerkin import VelocityField
from mirrorspec.grid import Field, GridSpec
from mirrorspec.motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from mirrorspec.simulate import synthetic_storm_stack


def blobs_frame(grid, seed=0):
    rng = np.random.default_rng(seed)
    x, y = grid.mesh()
    pix = np.zeros(grid.shape)
    for _ in range(6):
        cx, cy = rng.uniform(0.15, 0.85, 2)
        s = rng.uniform(0.04, 0.1)
        pix += rng.uniform(5, 20) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s**2))
    return Field.from_pixels(grid, pix)


def test_known_shift_recovered():
    g = GridSpec(64, 64)
    a = blobs_frame(g)
    b = Field.from_pixels(g, np.roll(a.pixels(), 2, axis=1))  # shift right 2 px
    vel = estimate_velocity(a, b, MotionConfig(block=16, search_radius=6))
    # within half a pixel everywhere
    assert np.abs(vel.vx - 2 / 64).max() <= 0.5 / 64
    assert np.abs(vel.vy).max() <= 0.5 / 64


def test_identical_frames_give_zero():
    g = GridSpec(64, 64)
    a = blobs_frame(g, seed=1)
    vel = estimate_velocity(a, a)
    assert np.abs(vel.vx).max() == 0.0
    assert np.abs(vel.vy).max() == 0.0


def test_constant_frame_warns_and_returns_zero():
    g = GridSpec(32, 32)
    a = Field(g, np.full(g.n, 3.0))
    with pytest.warns(RuntimeWarning):
        vel = estimate_velocity(a, a)
    assert not vel.vx.any()


def test_translation_consistency():
    g = GridSpec(64, 64)
    a = blobs_frame(g, seed=2)
    shift = lambda f, d: Field.from_pixels(g, np.roll(np.roll(f.pixels(), d[0], axis=0), d[1], axis=1))
    cfg = MotionConfig(block=16, search_radius=6)
    v1 = estimate_velocity(shift(a, (1, 2)), shift(a, (1, 5)), cfg)
    v2 = estimate_velocity(a, shift(a, (0, 3)), cfg)
    assert np.abs(v1.vx - v2.vx).max() <= 0.5 / 64
    assert np.abs(v1.vy - v2.vy).max() <= 0.5 / 64


def test_storm_speeds_in_reported_band():
    frames = synthetic_storm_stack(GridSpec(100, 100), steps=4, seed=11)
    vel = estimate_velocity(frames[1], frames[2])
    speed = vel.speed()
    assert speed.min() >= 0.0
    assert speed.max() <= 0.04


def test_diffusivity_constant_velocity_is_zero():
    g = GridSpec(32, 32)
    vel = VelocityField.constant(g, 0.02, -0.01)
    dif = diffusivity_from_velocity(vel, 0.08, 0.08)
    assert np.abs(dif.d).max() <= 1e-15


def test_diffusivity_pure_shear_closed_form():
    g = GridSpec(32, 32)
    gamma = 0.35
    _, y = g.mesh()
    vel = VelocityField(g, (gamma * y).flatten(order="F"), np.zeros(g.n))
    dx = dy = 0.0625
    dif = diffusivity_from_velocity(vel, dx, dy)
    expected = 0.28 * dx * dy * gamma
    assert np.abs(dif.d - expected).max() <= 1e-10


def test_diffusivity_invariant_to_constant_offset():
    g = GridSpec(32, 32)
    rng = np.random.default_rng(9)
    x, y = g.mesh()
    vx = 0.01 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    vy = 0.01 * np.cos(2 * np.pi * (x + y))
    vel_a = VelocityField(g, vx.flatten(order="F"), vy.flatten(order="F"))
    vel_b = VelocityField(g, vel_a.vx + 0.5, vel_a.vy - 0.2)
    da = diffusivity_from_velocity(vel_a, 0.1, 0.1)
    db = diffusivity_from_velocity(vel_b, 0.1, 0.1)
    assert np.allclose(da.d, db.d, atol=1e-14)


def test_diffusivity_nonnegative_on_storm_motion():
    frames = synthetic_storm_stack(GridSpec(64, 64), steps=3, seed=3)
    vel = estimate_velocity(frames[0], frames[1])
    dif = diffusivity_from_velocity(vel, 0.125, 0.125)
    assert dif.d.min() >= 0.0
    assert np.all(np.isfinite(dif.d))


def test_motion_config_validation():
    with pytest.raises(ValueError):
        MotionConfig(block=2)
    with pytest.raises(ValueError):
        MotionConfig(overlap=1.0)
    with pytest.raises(ValueError):
        MotionConfig(search_radius=0)
    with pytest.raises(ValueError, match="smooth_sigma"):
        MotionConfig(smooth_sigma=-1.0)
    with pytest.raises(ValueError, match="min_block_energy"):
        MotionConfig(min_block_energy=-1e-4)
    with pytest.raises(ValueError, match="smooth_sigma must be >= 0 and finite, got inf"):
        MotionConfig(smooth_sigma=float("inf"))
    MotionConfig(smooth_sigma=0.0, min_block_energy=0.0)  # zero still means "off"
    # a sigma with no bound would size the smoothing kernel past any memory; never
    # run a command with one, since that kills the process
    MotionConfig(smooth_sigma=motion.MAX_SMOOTH_SIGMA)
    with pytest.raises(ValueError, match="smooth_sigma must be at most 1000 pixels, got 1000000000.0"):
        MotionConfig(smooth_sigma=1e9)
    with pytest.raises(ConfigError, match="config.motion: smooth_sigma must be at most 1000"):
        RunConfig({"motion": {"smooth_sigma": 1e9}}).motion()


def reference_displacement(a, b, r0, c0, blk, radius):
    """The per-candidate matcher: one periodic gather and one NCC score per
    shift, candidates sorted smallest displacement first, then lexicographic;
    a later candidate wins only by more than 1e-12."""
    n2, n1 = a.shape
    rows = (r0 + np.arange(blk)) % n2
    cols = (c0 + np.arange(blk)) % n1
    patch = a[np.ix_(rows, cols)]
    pa = patch - patch.mean()
    na = np.sqrt((pa * pa).sum())
    if na == 0:
        return None
    best = None
    candidates = sorted(
        ((dy, dx) for dy in range(-radius, radius + 1) for dx in range(-radius, radius + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    for dy, dx in candidates:
        cand = b[np.ix_((rows + dy) % n2, (cols + dx) % n1)]
        pb = cand - cand.mean()
        nb = np.sqrt((pb * pb).sum())
        if nb == 0:
            continue
        score = float((pa * pb).sum() / (na * nb))
        if best is None or score > best[0] + 1e-12:
            best = (score, dy, dx)
    return None if best is None else (best[1], best[2])


def reference_blocks(a, b, cfg):
    """:func:`reference_displacement` over every block, tiled and energy-tested
    as ``estimate_velocity`` does: one displacement or None per block, in
    row-major block order."""
    n2, n1 = a.shape
    offsets = np.arange(cfg.block)
    found = []
    for r0 in range(0, n2, cfg.stride):
        for c0 in range(0, n1, cfg.stride):
            patch = a[np.ix_((r0 + offsets) % n2, (c0 + offsets) % n1)]
            found.append(None if patch.var() < cfg.min_block_energy else
                         reference_displacement(a, b, r0, c0, cfg.block, cfg.search_radius))
    return found


def matcher_blocks(a, b, cfg):
    dy, dx, valid = motion._block_displacements(a, b, cfg)
    return [(y, x) if v else None
            for y, x, v in zip(dy.ravel().tolist(), dx.ravel().tolist(), valid.ravel().tolist())]


def assert_matchers_agree(a, b, blk, radius, overlap=0.5):
    cfg = MotionConfig(block=blk, overlap=overlap, search_radius=radius, min_block_energy=0.0)
    expected = reference_blocks(a, b, cfg)
    assert matcher_blocks(a, b, cfg) == expected
    return expected


def test_candidate_order_is_smallest_shift_then_lexicographic():
    dy, dx = motion._candidate_shifts(2)
    pairs = list(zip(dy.tolist(), dx.tolist()))
    assert pairs[:5] == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)]
    assert pairs == sorted(pairs, key=lambda d: (d[0] ** 2 + d[1] ** 2, d[0], d[1]))
    assert len(set(pairs)) == 25


def test_batched_matcher_matches_reference_on_random_fields():
    rng = np.random.default_rng(41)
    for n2, n1, blk, radius in ((32, 32, 8, 4), (24, 40, 5, 3), (20, 20, 16, 6), (12, 12, 16, 5)):
        a = rng.standard_normal((n2, n1))
        b = np.roll(a, (2, -1), axis=(0, 1)) + 0.3 * rng.standard_normal((n2, n1))
        for overlap in (0.0, 0.5, 0.75):
            assert_matchers_agree(a, b, blk, radius, overlap)
        assert_matchers_agree(a, rng.standard_normal((n2, n1)), blk, radius)


def test_batched_matcher_matches_reference_on_ties():
    rng = np.random.default_rng(42)
    # a 4-periodic second frame: every shift by a multiple of 4 scores the same
    tile = rng.integers(0, 3, size=(4, 4)).astype(float)
    b = np.tile(tile, (8, 8))
    a = np.roll(b, (1, 3), axis=(0, 1))
    found = assert_matchers_agree(a, b, 8, 6)
    assert all(max(abs(d) for d in disp) <= 2 for disp in found)
    # scores within 1e-12 of each other still resolve to the smallest shift
    near = b + 1e-14 * rng.standard_normal(b.shape)
    found = assert_matchers_agree(a, near, 8, 6, overlap=0.75)
    assert all(max(abs(d) for d in disp) <= 2 for disp in found)
    # two-level fields: small blocks produce many equal scores
    a = rng.integers(0, 2, size=(24, 24)).astype(float)
    b = rng.integers(0, 2, size=(24, 24)).astype(float)
    assert_matchers_agree(a, b, 4, 5)
    assert_matchers_agree(a, b, 4, 5, overlap=0.0)


def test_walk_resolves_near_ties_to_the_earliest_candidate():
    # candidate 1 is within 1e-12 of candidate 0, so the walk keeps candidate 0
    # past it: in the first row candidate 2 beats candidate 0 by more and wins,
    # in the second the top score (candidate 1) loses to the earlier candidate 0
    scores = np.array([[0.0, 1e-12, 1.5e-12, -1.0], [0.0, 5e-13, 0.0, -1.0]])
    best, found = motion._winners(scores, np.ones((2, 4), bool))
    assert best.tolist() == [2, 0] and found.tolist() == [True, True]
    # an unscorable candidate never wins, and a row with none has no winner
    best, found = motion._winners(np.array([[0.9, 0.2], [0.1, 0.3]]),
                                  np.array([[False, True], [False, False]]))
    assert best[0] == 1 and found.tolist() == [True, False]
    # on a tile-periodic field every block's top score is shared by several
    # shifts, and the smallest of them wins
    rng = np.random.default_rng(45)
    b = np.tile(rng.standard_normal((4, 4)), (6, 6))
    a = np.roll(b, (1, 1), axis=(0, 1))
    cfg = MotionConfig(block=8, search_radius=5, min_block_energy=0.0)
    found = matcher_blocks(a, b, cfg)
    assert found == reference_blocks(a, b, cfg)
    assert set(found) == {(-1, -1)}


def test_batched_matcher_matches_reference_on_flat_windows():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((32, 32))
    b = np.zeros((32, 32))
    b[14:18, 14:18] = rng.standard_normal((4, 4))  # most candidate windows are flat
    found = assert_matchers_agree(a, b, 6, 4)
    assert None in found and any(d is not None for d in found)
    flat = np.full((32, 32), 2.5)  # a flat block has no match
    assert set(assert_matchers_agree(flat, b, 6, 4)) == {None}


def test_batched_matcher_matches_reference_when_candidates_alias():
    # a radius of at least half the grid makes opposite shifts the same window
    rng = np.random.default_rng(44)
    a = rng.standard_normal((16, 16))
    for b in (np.roll(a, (8, -5), axis=(0, 1)), rng.standard_normal((16, 16)), a):
        assert_matchers_agree(a, b, 4, 8)
        assert_matchers_agree(a, b, 6, 10)


def storm_pairs():
    frames = synthetic_storm_stack(GridSpec(100, 100), steps=10, seed=101, n_blobs=6)
    return list(zip(frames[:-1], frames[1:]))


def test_storm_velocity_matches_reference_driven_run(monkeypatch):
    pairs = storm_pairs()
    fast = [estimate_velocity(a, b) for a, b in pairs]
    calls = []

    def reference_matcher(a, b, cfg):
        found = reference_blocks(a, b, cfg)
        calls.append(len(found))
        shape = (len(range(0, a.shape[0], cfg.stride)), len(range(0, a.shape[1], cfg.stride)))
        valid = np.array([d is not None for d in found]).reshape(shape)
        dy, dx = (np.array([d[i] if d else 0 for d in found]).reshape(shape) for i in (0, 1))
        return dy, dx, valid

    monkeypatch.setattr(motion, "_block_displacements", reference_matcher)
    slow = [estimate_velocity(a, b) for a, b in pairs]
    assert calls == [13 * 13] * 9
    for f, s in zip(fast, slow):
        assert np.array_equal(f.vx, s.vx)
        assert np.array_equal(f.vy, s.vy)
    assert max(np.abs(f.vx).max() for f in fast) > 0


def test_storm_velocity_memory_stays_streamed():
    # one row of centred windows at a time: a table of every window of the
    # second frame alone would take over 20 MB
    import tracemalloc

    a, b = storm_pairs()[1]
    estimate_velocity(a, b)  # SciPy imported before the measurement
    tracemalloc.start()
    try:
        estimate_velocity(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("shape", [(13, 9), (4, 11), (1, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("sigma", [0.25, 1.0, 2.0])
def test_smoothing_matrices_equal_ndimage(shape, sigma):
    import scipy.ndimage

    a = np.random.default_rng(43).standard_normal(shape)
    want = scipy.ndimage.gaussian_filter(a, sigma, mode="nearest")
    assert np.abs(motion._smooth(a, sigma) - want).max() <= 1e-12


@pytest.mark.parametrize("shape", [(13, 9), (4, 11), (1, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_interpolation_matrices_equal_ndimage(shape):
    import scipy.ndimage

    a = np.random.default_rng(44).standard_normal(shape)
    # block-centre coordinates of a 16-pixel block at stride 8, as estimate_velocity uses
    rows, cols = ((np.arange(n) - 7.5) / 8 for n in (shape[0] * 8 + 5, shape[1] * 8 - 3))
    ii, jj = np.meshgrid(np.clip(rows, 0, shape[0] - 1), np.clip(cols, 0, shape[1] - 1),
                         indexing="ij")
    want = scipy.ndimage.map_coordinates(a, np.stack([ii.ravel(), jj.ravel()]), order=1,
                                         mode="nearest").reshape(ii.shape)
    got = motion._linear_matrix(rows, shape[0]) @ a @ motion._linear_matrix(cols, shape[1]).T
    assert np.abs(got - want).max() <= 1e-12
