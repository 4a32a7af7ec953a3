import numpy as np
import pytest

from mirrorspec.dynamics import matrix_exp, mode_step
from mirrorspec.galerkin import DiffusivityField, VelocityField, assemble_transition
from mirrorspec.grid import GridSpec
from mirrorspec.simulate import (
    SimulationConfig,
    forcing_field,
    simulate_advection,
    synthetic_storm_stack,
)
from mirrorspec.spectral import ModeOrdering


def small_cfg(**kw):
    base = dict(
        grid=GridSpec(32, 32), steps=6, velocity=(0.01, 0.0),
        noise_alpha=0.0, noise_beta=0.0, noise_modes=None, seed=1,
    )
    base.update(kw)
    return SimulationConfig(**base)


def test_forcing_peak_value():
    cfg = SimulationConfig()
    q = forcing_field(cfg).pixels()
    # grid point (j=10, i=0) sits exactly at the source center (0.1, 0)
    assert np.isclose(q[0, 10], 14.736568804805126, atol=1e-12)
    assert q.max() == q[0, 10]


def test_forcing_zero_amplitude():
    cfg = small_cfg(source_amplitude=0.0)
    assert not forcing_field(cfg).values.any()


def test_forcing_even_in_y_about_source_row():
    # the formula depends on y only through (y - cy)^2, so evaluating at
    # mirrored offsets +/- y gives identical values
    cfg = SimulationConfig()
    g = cfg.grid
    q = forcing_field(cfg).pixels()
    x = g.coords_x()
    for i in range(1, 5):
        y = i / g.n2
        expected = 14.736568804805126 * np.exp(
            -((x - 0.1) ** 2 + (-y) ** 2) / (2 * 0.18**2)
        )
        assert np.allclose(q[i, :], expected, atol=1e-12)


def test_zero_velocity_accumulates_forcing():
    cfg = small_cfg(velocity=(0.0, 0.0), steps=3)
    out = simulate_advection(cfg)
    q = forcing_field(cfg)
    for t in range(3):
        assert np.allclose(out.fields[t].values, (t + 1) * q.values, atol=1e-9)


def test_rotation_stepper_equals_matrix_exponential():
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g)
    vel = (0.013, -0.007)
    own, cross = mode_step(ordering, vel, 1.0)
    gen = assemble_transition(
        ordering, VelocityField.constant(g, *vel), DiffusivityField.zero(g)
    )
    phi = matrix_exp(gen)
    rng = np.random.default_rng(3)
    for _ in range(5):
        alpha = rng.normal(size=ordering.k)
        assert np.abs(own * alpha + cross * alpha[ordering.partner] - phi @ alpha).max() <= 1e-12


def test_seed_reproducibility():
    cfg = small_cfg(noise_alpha=0.005, noise_beta=0.001, noise_modes=20, steps=8)
    a = simulate_advection(cfg)
    b = simulate_advection(cfg)
    assert np.array_equal(a.alphas, b.alphas)
    assert np.array_equal(a.betas, b.betas)
    c = simulate_advection(small_cfg(noise_alpha=0.005, noise_beta=0.001,
                                     noise_modes=20, steps=8, seed=2))
    assert not np.array_equal(a.alphas, c.alphas)


def semi_lagrangian_oracle(cfg, steps):
    """Periodic bilinear back-trace advection plus forcing accumulation."""
    g = cfg.grid
    q = forcing_field(cfg).pixels()
    vx, vy = cfg.velocity
    xi = q.copy()
    frames = [xi.copy()]
    jj, ii = np.meshgrid(np.arange(g.n1), np.arange(g.n2))
    xs = jj - vx * cfg.delta * g.n1
    ys = ii - vy * cfg.delta * g.n2
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    for _ in range(steps - 1):
        gather = lambda dy, dx: xi[(y0 + dy) % g.n2, (x0 + dx) % g.n1]
        xi = (
            (1 - fy) * (1 - fx) * gather(0, 0)
            + (1 - fy) * fx * gather(0, 1)
            + fy * (1 - fx) * gather(1, 0)
            + fy * fx * gather(1, 1)
        ) + cfg.delta * q
        frames.append(xi.copy())
    return frames


def test_against_semi_lagrangian_oracle():
    cfg = small_cfg(steps=10)
    out = simulate_advection(cfg)
    oracle = semi_lagrangian_oracle(cfg, 10)
    peak = max(np.abs(f).max() for f in oracle)
    err = np.abs(out.fields[-1].pixels() - oracle[-1]).mean()
    assert err <= 0.02 * peak


def test_signal_mass_drifts_rightward():
    cfg = SimulationConfig(steps=20)
    out = simulate_advection(cfg)

    def center_x(f):
        pix = np.abs(f.pixels())
        return (pix.sum(axis=0) * np.arange(100)).sum() / pix.sum() / 100

    assert center_x(out.fields[19]) > center_x(out.fields[0]) + 0.02
    # strong signal stays along the bottom edge
    pix = out.fields[19].pixels()
    assert pix[:20, :].sum() > pix[80:, :].sum()


def test_noise_support_restricted():
    cfg = small_cfg(noise_alpha=0.005, noise_beta=0.001, noise_modes=10, steps=4)
    out = simulate_advection(cfg)
    clean = simulate_advection(small_cfg(steps=4))
    ordering = ModeOrdering(cfg.grid)
    sub = ModeOrdering(cfg.grid, 10)
    support = np.searchsorted(ordering.indices, sub.indices)
    mask = np.zeros(ordering.k, dtype=bool)
    mask[support] = True
    diff = out.alphas[-1] - clean.alphas[-1]
    assert np.abs(diff[~mask]).max() == 0.0
    assert np.abs(diff[mask]).max() > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(steps=1)
    with pytest.raises(ValueError):
        SimulationConfig(source_scale=0.0)


def test_storm_stack_properties():
    frames = synthetic_storm_stack(GridSpec(64, 64), steps=8, seed=5)
    assert len(frames) == 8
    # signal near the top-left corner, quiet lower-right quadrant
    first = frames[0].pixels()
    assert first[48:, :16].max() > 1.0
    for f in frames:
        pix = f.pixels()
        assert pix[:26, 38:].max() < 1.0
    # deterministic
    again = synthetic_storm_stack(GridSpec(64, 64), steps=8, seed=5)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(frames, again))
