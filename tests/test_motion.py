import numpy as np
import pytest

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
