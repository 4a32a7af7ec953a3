import tracemalloc

import numpy as np
import pytest

from mirrorspec.dynamics import matrix_exp
from mirrorspec.galerkin import DiffusivityField, VelocityField, assemble_transition
from mirrorspec.grid import Field, GridSpec
from mirrorspec.motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from mirrorspec.simulate import synthetic_storm_stack
from mirrorspec.spectral import MirrorBand, ModeOrdering, analyze, synthesize
from oracles import quadrature_transition


def full_ordering(n1, n2=None):
    g = GridSpec(n1, n2 if n2 is not None else n1)
    return ModeOrdering(g)


def test_assemble_zero_physics_gives_zero_matrix():
    ordering = full_ordering(6)
    g = ordering.grid
    gen = assemble_transition(ordering, VelocityField.zero(g), DiffusivityField.zero(g))
    assert not gen.any()


def translation_reference(ordering, alpha, shift):
    """Synthesize the expansion on a shifted grid: exact periodic translation
    of the band-limited field, evaluated directly from trig sums."""
    g = ordering.grid
    x, y = g.mesh()
    xs = (x - shift[0]).flatten(order="F")
    ys = (y - shift[1]).flatten(order="F")
    out = np.zeros(g.n)
    for j in range(ordering.k):
        arg = 2 * np.pi * (ordering.kx[j] * xs + ordering.ky[j] * ys)
        base = np.sin(arg) if ordering.is_sin[j] else np.cos(arg)
        out += ordering.weight[j] * alpha[j] * base
    return out


def test_constant_velocity_advection_matches_translation():
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g)
    vel = VelocityField.constant(g, 0.01, 0.0)
    gen = assemble_transition(ordering, vel, DiffusivityField.zero(g))
    phi = matrix_exp(1.0 * gen)

    x, y = g.mesh()
    bump = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2 * 0.15**2))
    alpha = analyze(Field.from_pixels(g, bump), ordering)
    # corner (Nyquist) modes have no sine partner on the grid, so their
    # translation is not representable; a band-limited state excludes them
    alpha[ordering.weight == 1.0] = 0.0
    stepped = synthesize(ordering, phi @ alpha)
    expected = translation_reference(ordering, alpha, (0.01, 0.0))
    assert np.abs(stepped.values - expected).max() <= 1e-6


def test_constant_diffusion_matches_heat_kernel_decay():
    g = GridSpec(8, 8)
    d0 = 3e-3
    ordering = ModeOrdering(g)
    gen = assemble_transition(ordering, VelocityField.zero(g), DiffusivityField.isotropic(g, d0))
    phi = matrix_exp(1.0 * gen)
    norms2 = ordering.kx**2 + ordering.ky**2
    expected = np.diag(np.exp(-((2 * np.pi) ** 2) * d0 * norms2))
    assert np.abs(phi - expected).max() <= 1e-8


def test_mean_mode_row_is_zero():
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g)
    (zero_pos,) = np.where((ordering.kx == 0) & (ordering.ky == 0))
    x, y = g.mesh()

    # constant velocity conserves the mean
    gen = assemble_transition(
        ordering, VelocityField.constant(g, 0.03, -0.02), DiffusivityField.zero(g)
    )
    assert np.abs(gen[zero_pos[0]]).max() <= 1e-14

    # constant diffusivity conserves the mean exactly
    gen = assemble_transition(ordering, VelocityField.zero(g), DiffusivityField.isotropic(g, 0.01))
    assert np.abs(gen[zero_pos[0]]).max() <= 1e-14

    # variable diffusivity: exact with the analytic divergence grad d
    d = 0.01 + 0.004 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    dd_dx = 0.004 * 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    dd_dy = -0.004 * 2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    dif = DiffusivityField(g, d, dd_dx, dd_dy)
    gen = assemble_transition(ordering, VelocityField.zero(g), dif)
    assert np.abs(gen[zero_pos[0]]).max() <= 1e-12


def test_block_consistency_full_vs_truncated():
    g = GridSpec(6, 6)
    x, y = g.mesh()
    vel = VelocityField(
        g,
        (0.01 + 0.02 * np.sin(2 * np.pi * y)).flatten(order="F"),
        (0.01 * np.cos(2 * np.pi * x)).flatten(order="F"),
    )
    dif = DiffusivityField.isotropic(g, 0.001 + 0.0005 * np.cos(2 * np.pi * x), periodic=True)
    full = ModeOrdering(g)
    small = ModeOrdering(g, 11)
    p_full = assemble_transition(full, vel, dif)
    p_small = assemble_transition(small, vel, dif)
    pos = [list(full.indices).index(i) for i in small.indices]
    assert np.allclose(p_small, p_full[np.ix_(pos, pos)], atol=1e-12)


def test_pure_advection_pairs_are_rotation_generators():
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g)
    vel = VelocityField.constant(g, 0.02, -0.01)
    m = assemble_transition(ordering, vel, DiffusivityField.zero(g))
    for kx, ky in [(1, 0), (2, 1), (1, -2)]:
        (ic,) = np.where((ordering.kx == kx) & (ordering.ky == ky) & ~ordering.is_sin)
        (isn,) = np.where((ordering.kx == kx) & (ordering.ky == ky) & ordering.is_sin)
        block = m[np.ix_([ic[0], isn[0]], [ic[0], isn[0]])]
        omega = 2 * np.pi * (0.02 * kx - 0.01 * ky)
        assert np.abs(block - np.array([[0.0, -omega], [omega, 0.0]])).max() <= 1e-10


def test_generator_matches_pointwise_operator_application():
    # Independent oracle: apply -v.grad f + div(D grad f) pointwise using the
    # chain rule (div(D grad f) = (div D).grad f + D : hess f) with exact
    # derivatives of a band-limited field, then project.  At full retention
    # this must equal P @ analyze(f) because both use the same quadrature.
    g = GridSpec(6, 6)
    x, y = g.mesh()
    ordering = ModeOrdering(g)
    vx = 0.02 + 0.01 * np.sin(2 * np.pi * y)
    vy = -0.01 * np.cos(2 * np.pi * x)
    vel = VelocityField(g, vx.flatten(order="F"), vy.flatten(order="F"))
    d = 0.003 + 0.001 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    # analytic divergence of D = d * I: (dd/dx, dd/dy)
    dd_dx = 0.001 * 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    dd_dy = -0.001 * 2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    dif = DiffusivityField(
        g, d.flatten(order="F"), dd_dx.flatten(order="F"), dd_dy.flatten(order="F"),
    )
    gen = assemble_transition(ordering, vel, dif)

    # band-limited test field with exact analytic derivatives
    f = np.cos(2 * np.pi * (x + 2 * y)) + 0.5 * np.sin(2 * np.pi * (2 * x - y))
    fx = -2 * np.pi * np.sin(2 * np.pi * (x + 2 * y)) + 2 * np.pi * np.cos(2 * np.pi * (2 * x - y))
    fy = -4 * np.pi * np.sin(2 * np.pi * (x + 2 * y)) - np.pi * np.cos(2 * np.pi * (2 * x - y))
    fxx = -4 * np.pi**2 * np.cos(2 * np.pi * (x + 2 * y)) - 8 * np.pi**2 * np.sin(2 * np.pi * (2 * x - y))
    fyy = -16 * np.pi**2 * np.cos(2 * np.pi * (x + 2 * y)) - 2 * np.pi**2 * np.sin(2 * np.pi * (2 * x - y))
    fxy = -8 * np.pi**2 * np.cos(2 * np.pi * (x + 2 * y)) + 4 * np.pi**2 * np.sin(2 * np.pi * (2 * x - y))
    af = -(vx * fx + vy * fy) + (dd_dx * fx + dd_dy * fy) + d * (fxx + fyy) + 0.0 * fxy
    field = Field.from_pixels(g, f)
    lhs = gen @ analyze(field, ordering)
    rhs = analyze(Field.from_pixels(g, af), ordering)
    assert np.abs(lhs - rhs).max() <= 1e-10


def assert_matches_quadrature(ordering, vel, dif):
    want = quadrature_transition(ordering, vel, dif)
    got = assemble_transition(ordering, vel, dif)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(6, 8), (8, 6), (4, 10), (2, 2)])
def test_generator_equals_the_quadrature_oracle_on_non_square_grids(shape):
    # full orderings: k_i + k_j runs past Nyquist and wraps, as the grid mean aliases;
    # white-noise fields put weight on every wavenumber the wrap can reach
    rng = np.random.default_rng(23)
    g = GridSpec(*shape)
    vel = VelocityField(g, rng.normal(size=g.n), rng.normal(size=g.n))
    dif = DiffusivityField(g, rng.random(g.n), rng.normal(size=g.n), rng.normal(size=g.n))
    assert_matches_quadrature(ModeOrdering(g), vel, dif)


def storm_physics():
    """The block-matched velocity of a 100x100 storm pair and its shear
    diffusivity, as ``velocity.mode = "estimate"`` builds them."""
    g = GridSpec(100, 100)
    frames = synthetic_storm_stack(g, steps=3, seed=101, n_blobs=6)
    vel = estimate_velocity(frames[0], frames[1])
    stride = MotionConfig().stride
    return g, vel, diffusivity_from_velocity(vel, stride / g.n1, stride / g.n2)


@pytest.mark.parametrize("k", [49, 199])
def test_generator_equals_the_quadrature_oracle_on_a_storm_velocity(k):
    g, vel, dif = storm_physics()
    assert not dif.is_zero()
    assert_matches_quadrature(ModeOrdering(g, k), vel, dif)


def test_model_build_memory_stays_below_one_basis_table():
    # one N x K float table at N = 10^4, K = 199 takes 15.2 MiB
    g, vel, dif = storm_physics()
    ordering = ModeOrdering(g, 199)  # also what a budget of 200 keeps
    band = MirrorBand(g, 800)
    for build in (lambda: assemble_transition(ordering, vel, dif),
                  lambda: band.transfer(ordering)):
        build()  # FFT and BLAS set-up before the measurement
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
