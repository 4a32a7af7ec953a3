import numpy as np
import pytest

from mirrorspec.dynamics import (
    THETA_13,
    build_transition,
    flipped_generator,
    matrix_exp,
)
from mirrorspec.galerkin import (
    DiffusivityField,
    VelocityField,
    assemble_transition,
)
from mirrorspec.grid import Field, GridSpec, flip_field
from mirrorspec.kalman import SUBSPACE_RIDGE, NoiseParams, _predict, direct_model, kf_forecast
from mirrorspec.motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from mirrorspec.simulate import synthetic_storm_stack
from mirrorspec.spectral import (
    ModeOrdering,
    analyze,
    flip_transfer,
    synthesize,
)
from oracles import joined, split


def taylor_expm_oracle(a, terms=60):
    """Scaling-and-squaring with a plain truncated Taylor core."""
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0)
    scaled = a / (2.0**s)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for i in range(1, terms + 1):
        term = term @ scaled / i
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def smooth_random_physics(g, rng, v_scale=0.03, d_scale=1.5e-3):
    x, y = g.mesh()
    vx = np.zeros(g.shape)
    vy = np.zeros(g.shape)
    d = np.full(g.shape, 2 * d_scale)
    for kx, ky in [(1, 0), (0, 1), (1, 1)]:
        ph = rng.uniform(0, 2 * np.pi, size=6)
        vx += v_scale * rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y) + ph[0])
        vy += v_scale * rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y) + ph[1])
        d += d_scale * rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y) + ph[2])
    d = np.abs(d) + d_scale
    vel = VelocityField(g, vx.flatten(order="F"), vy.flatten(order="F"))
    dif = DiffusivityField.isotropic(g, d, periodic=True)
    return vel, dif


def test_matrix_exp_zero():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_rotation_closed_form():
    omega = 0.7
    a = np.array([[0.0, -omega], [omega, 0.0]])
    expected = np.array([[np.cos(omega), -np.sin(omega)], [np.sin(omega), np.cos(omega)]])
    assert np.abs(matrix_exp(a) - expected).max() <= 1e-14


def test_matrix_exp_vs_taylor_oracle():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(8, 8))
    a *= 1.0 / np.linalg.norm(a, 2)
    got = matrix_exp(a)
    ref = taylor_expm_oracle(a)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-10


def test_matrix_exp_semigroup():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(6, 6))
    a *= 2.0 / np.linalg.norm(a, 2)
    lhs = matrix_exp(0.7 * a)
    rhs = matrix_exp(0.3 * a) @ matrix_exp(0.4 * a)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) <= 1e-9


def max_relative_gap(got, want):
    """Largest entry of ``|got - want|`` over the largest entry of ``|want|``."""
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.fixture(scope="module")
def storm_generator():
    """The Galerkin generator of a block-matching velocity and its shear
    diffusivity on a small storm, built as the storm profile builds it:
    dense, ``K = 49``, 1-norm about 1.3."""
    g = GridSpec(48, 48)
    a, b = synthetic_storm_stack(g, steps=2, seed=3, n_blobs=2)
    mcfg = MotionConfig(block=16, search_radius=6)
    vel = estimate_velocity(a, b, mcfg)
    dif = diffusivity_from_velocity(vel, mcfg.stride / g.n1, mcfg.stride / g.n2)
    return assemble_transition(ModeOrdering(g, 49), vel, dif)


@pytest.mark.parametrize("norm", [0.5, 2.0, THETA_13, 6.0, 40.0, 300.0])
def test_matrix_exp_matches_scipy_expm_on_galerkin_generators(storm_generator, norm):
    # 1-norms above THETA_13 run 1, 3 and 6 squarings
    import scipy.linalg

    a = storm_generator * (norm / np.linalg.norm(storm_generator, 1))
    assert max_relative_gap(matrix_exp(a), scipy.linalg.expm(a)) <= 1e-13


@pytest.mark.parametrize("k, scale", [(2, 1.0), (7, 10.0), (20, 50.0), (49, 100.0)])
def test_matrix_exp_of_normal_matrices_is_exact(k, scale):
    # Q diag(d) Q^T exponentiates to Q diag(e^d) Q^T; the spectrum spans
    # [-scale, scale], so the largest case (1-norm about 360) runs 7 squarings
    rng = np.random.default_rng(k)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    d = scale * rng.uniform(-1.0, 1.0, size=k)
    d[[0, -1]] = scale, -scale
    want = (q * np.exp(d)) @ q.T
    assert max_relative_gap(matrix_exp((q * d) @ q.T), want) <= 1e-13


def test_matrix_exp_rejects_nonfinite():
    with pytest.raises(ValueError):
        matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def _transfer(g):
    ordering = ModeOrdering(g)
    ordering_star = ModeOrdering(g.doubled())
    return ordering, ordering_star, flip_transfer(g, ordering, ordering_star)


def test_flipped_generator_zero():
    g = GridSpec(4, 4)
    ordering, ordering_star, transfer = _transfer(g)
    out = flipped_generator(np.zeros((ordering.k, ordering.k)), transfer)
    assert out.shape == (ordering_star.k, ordering_star.k)
    assert not out.any()


def test_flipped_generator_rejects_another_orderings_generator():
    g = GridSpec(4, 4)
    ordering, _, transfer = _transfer(g)
    with pytest.raises(ValueError, match=f"must be {ordering.k} x {ordering.k}"):
        flipped_generator(np.zeros((ordering.k - 2, ordering.k - 2)), transfer)


def test_conjugated_dynamics_evolve_then_flip_commutes():
    rng = np.random.default_rng(35)
    g = GridSpec(4, 4)
    ordering, ordering_star, transfer = _transfer(g)
    vel, dif = smooth_random_physics(g, rng)
    gen = assemble_transition(ordering, vel, dif)
    phi = build_transition(gen, 1.0)
    phi_star = build_transition(flipped_generator(gen, transfer), 1.0)
    h = transfer.matrix
    alpha = rng.normal(size=ordering.k)
    a_direct = alpha.copy()
    a_star = h @ alpha
    for _ in range(10):
        a_direct = phi @ a_direct
        a_star = phi_star @ a_star
        assert np.abs(h @ a_direct - a_star).max() <= 1e-8


def test_flipped_generator_eigenvalues_on_column_space():
    rng = np.random.default_rng(37)
    g = GridSpec(4, 4)
    ordering, _, transfer = _transfer(g)
    vel, dif = smooth_random_physics(g, rng)
    gen = assemble_transition(ordering, vel, dif)
    conj = flipped_generator(gen, transfer)
    ev_p = np.sort_complex(np.linalg.eigvals(gen))
    ev_c = np.linalg.eigvals(conj)
    # conjugated spectrum = spectrum of P plus zeros from the cokernel
    ev_c = np.sort_complex(ev_c[np.argsort(np.abs(ev_c))[-ordering.k:]])
    assert np.abs(np.sort_complex(ev_p) - ev_c).max() <= 1e-8


def test_truncation_containment_discrepancy_shrinks():
    rng = np.random.default_rng(39)
    g = GridSpec(8, 8)
    full = ModeOrdering(g)
    vel, dif = smooth_random_physics(g, rng)
    gen_full = assemble_transition(full, vel, dif)
    phi_full = build_transition(gen_full, 1.0)
    alpha0 = analyze(
        Field.from_pixels(
            g, np.exp(-((g.mesh()[0] - 0.4) ** 2 + (g.mesh()[1] - 0.3) ** 2) / (2 * 0.2**2))
        ),
        full,
    )

    discrepancies = []
    for k in (17, 33, 64):
        ordering = ModeOrdering(g, k)
        ordering_star = ModeOrdering(g.doubled(), 4 * k)
        transfer = flip_transfer(g, ordering, ordering_star)
        gen = assemble_transition(ordering, vel, dif)
        phi_star = build_transition(flipped_generator(gen, transfer), 1.0)

        alpha = alpha0.copy()
        a_star = analyze(flip_field(synthesize(full, alpha0)), ordering_star)
        worst = 0.0
        for _ in range(10):
            alpha = phi_full @ alpha
            a_star = phi_star @ a_star
            truth = analyze(flip_field(synthesize(full, alpha)), ordering_star)
            worst = max(worst, np.abs(truth - a_star).max())
        discrepancies.append(worst)
    assert discrepancies[0] >= discrepancies[1] >= discrepancies[2]
    assert discrepancies[2] <= 1e-8


def augmented(phi):
    """The augmented transition ``G = [[Phi, I], [0, I]]`` over ``(alpha, beta)``."""
    k = len(phi)
    return np.block([[phi, np.eye(k)], [np.zeros((k, k)), np.eye(k)]])


def test_build_transition_zero_generator():
    g = GridSpec(4, 4)
    ordering = ModeOrdering(g)
    k = ordering.k
    phi = build_transition(np.zeros((k, k)), 2.0)
    assert np.array_equal(phi, np.eye(k))
    expected = np.block([[np.eye(k), np.eye(k)], [np.zeros((k, k)), np.eye(k)]])
    assert np.array_equal(augmented(phi), expected)
    # _predict is G theta and G P G' + blockdiag(W_alpha, W_beta); exact on integers
    model = direct_model(phi, NoiseParams(1.0, 0.5))
    rng = np.random.default_rng(40)
    theta = rng.integers(-9, 10, size=2 * k).astype(float)
    root = rng.integers(-3, 4, size=(2 * k, 2 * k)).astype(float)
    cov = root @ root.T
    [block] = model.blocks  # one dense block: a batch of one
    mean, pred = _predict(block, theta[None], cov[None])
    w_alpha, w_beta = joined(model, "w_alpha"), joined(model, "w_beta")
    noise = np.block([[w_alpha, np.zeros((k, k))], [np.zeros((k, k)), w_beta]])
    assert np.array_equal(mean[0], expected @ theta)
    assert np.array_equal(pred[0], expected @ cov @ expected.T + noise)


def test_augmented_step_block_multiplication():
    rng = np.random.default_rng(41)
    phi = rng.normal(size=(5, 5))
    model = direct_model(phi, NoiseParams(1e-3, 1e-3))
    alpha = rng.normal(size=5)
    beta = rng.normal(size=5)
    theta = np.concatenate([alpha, beta])
    [block] = model.blocks
    out, _ = _predict(block, theta[None], np.eye(10)[None])
    out = out[0]
    assert np.allclose(out[:5], phi @ alpha + beta)
    assert np.array_equal(out[5:], beta)
    assert np.allclose(augmented(phi) @ theta, out)


def test_augmented_step_of_leakage_channels():
    # a mirrored model's leakage channels are real channels of the random walk
    # lam = 1: the mean is one (alpha, beta) row and the covariance one 2x2 per
    # channel, with the noise scaled by SUBSPACE_RIDGE
    rng = np.random.default_rng(42)
    model = direct_model(np.eye(3), NoiseParams(1e-3, 1e-3), leakage=6)
    channels = model.blocks[-1]
    assert model.k == 9 and channels.index.ravel().tolist() == list(range(3, 9))
    theta = rng.normal(size=(6, 2))
    cov = np.eye(2) * rng.uniform(1, 2, size=(6, 1, 1))
    _, state = kf_forecast(model, [(np.zeros((1, 6)), np.eye(6)[None]), (theta, cov)], 1)
    out, pred = state[-1]
    assert np.array_equal(out, np.column_stack([theta[:, 0] + theta[:, 1], theta[:, 1]]))
    w = 1e-3 * SUBSPACE_RIDGE
    want = np.array([[[c0 + c1 + w, c1], [c1, c1 + w]] for c0, c1 in cov[:, [0, 1], [0, 1]]])
    assert np.allclose(pred, want, rtol=1e-14, atol=0)


def test_two_steps_with_zero_generator_accumulate_forcing():
    model = direct_model(np.eye(4), NoiseParams(1e-3, 1e-3))
    theta = np.concatenate([np.zeros(4), np.full(4, 0.5)])
    means, _ = kf_forecast(model, split(model, theta, np.zeros((8, 8))), 2)
    assert np.allclose(means[1][:4], 1.0)
