import numpy as np

from mirrorspec.dynamics import matrix_exp
from mirrorspec.galerkin import (
    DiffusivityField,
    VelocityField,
    assemble_transition,
    normalization_c,
    psi_entry,
)
from mirrorspec.grid import Field, GridSpec
from mirrorspec.spectral import ModeOrdering, analyze, synthesize


def full_ordering(n1, n2=None):
    g = GridSpec(n1, n2 if n2 is not None else n1)
    return ModeOrdering(g)


def test_psi_zero_velocity_advection_entries_vanish():
    g = GridSpec(8, 8)
    vel = VelocityField.zero(g)
    dif = DiffusivityField.zero(g)
    for kind in ("A1", "A2", "A3", "A4"):
        assert psi_entry(kind, (1, 0), (2, 1), vel, dif) == 0.0


def test_psi_a1_constant_velocity_diagonal_is_zero():
    # integrand v0 * 2pi * sin * cos integrates to zero over full periods
    g = GridSpec(8, 8)
    vel = VelocityField.constant(g, 0.37, 0.0)
    dif = DiffusivityField.zero(g)
    assert abs(psi_entry("A1", (1, 0), (1, 0), vel, dif)) <= 1e-12


def test_psi_d1_constant_isotropic_matches_normalization():
    g = GridSpec(8, 8)
    d0 = 0.013
    vel = VelocityField.zero(g)
    dif = DiffusivityField.isotropic(g, d0)
    k = (1, 0)
    got = psi_entry("D1", k, k, vel, dif)
    expected = -((2 * np.pi) ** 2) * d0 * normalization_c(k, g)
    assert np.isclose(got, expected, atol=1e-12)


def test_normalization_c_values():
    g = GridSpec(8, 8)
    assert normalization_c((0, 0), g) == 1.0
    assert np.isclose(normalization_c((1, 0), g), 0.5, atol=1e-15)
    assert np.isclose(normalization_c((4, 0), g), 1.0, atol=1e-15)
    # discrete-sum oracle
    x = np.arange(8) / 8
    assert np.isclose(normalization_c((1, 0), g), np.mean(np.cos(2 * np.pi * x) ** 2))


def test_assemble_zero_physics_gives_zero_matrix():
    ordering = full_ordering(6)
    g = ordering.grid
    gen = assemble_transition(ordering, VelocityField.zero(g), DiffusivityField.zero(g))
    assert not gen.any()


def test_assemble_matches_psi_entry_elementwise():
    rng = np.random.default_rng(21)
    g = GridSpec(4, 4)
    ordering = ModeOrdering(g)
    # smooth random velocity and diffusivity
    x, y = g.mesh()
    vel = VelocityField(
        g,
        (0.02 * np.sin(2 * np.pi * x) + 0.01).flatten(order="F"),
        (0.015 * np.cos(2 * np.pi * y)).flatten(order="F"),
    )
    d = 0.002 + 0.001 * np.sin(2 * np.pi * (x + y))
    dif = DiffusivityField.isotropic(g, d, periodic=True)
    gen = assemble_transition(ordering, vel, dif)
    for i in rng.choice(ordering.k, size=8, replace=False):
        for j in rng.choice(ordering.k, size=8, replace=False):
            k_src = (ordering.kx[j], ordering.ky[j])
            k_tst = (ordering.kx[i], ordering.ky[i])
            if ordering.is_sin[j]:
                kinds = ("A2", "D2") if not ordering.is_sin[i] else ("A4", "D4")
            else:
                kinds = ("A1", "D1") if not ordering.is_sin[i] else ("A3", "D3")
            psi = sum(psi_entry(kind, k_src, k_tst, vel, dif) for kind in kinds)
            scale = ordering.weight[j] / (ordering.weight[i] * ordering.cnorm[i])
            assert np.isclose(gen[i, j], scale * psi, atol=1e-12)


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

    # variable diffusivity: exact with a spectrally-consistent divergence
    d = 0.01 + 0.004 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    dif = DiffusivityField.isotropic(g, d, divergence="spectral")
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
