import numpy as np
import pytest
import scipy.linalg

from mirrorspec.dynamics import build_transition, flipped_generator
from mirrorspec.evaluate import ModelSpec, build_pipeline
from mirrorspec.galerkin import DiffusivityField, VelocityField, assemble_transition
from mirrorspec.grid import GridSpec, flip_field, unflip
from mirrorspec.kalman import (
    SUBSPACE_RIDGE,
    FilterError,
    NoiseParams,
    StateSpaceModel,
    default_init,
    direct_model,
    estimate_variances,
    kf_filter,
    kf_forecast,
)
from mirrorspec.simulate import SimulationConfig, simulate_advection
from mirrorspec.spectral import (
    FlipTransfer,
    MirrorBand,
    ModeOrdering,
    analyze,
    flip_transfer,
    synthesize,
)


# The 3x3 start grid of the variance fit before it profiled out the scale.
OLD_GRID = (1e-4, 1e-3, 1e-2)


def full_pass_loglik(factory, obs, params):
    """Log-likelihood of one filter pass from the default initial state."""
    mean0, cov0 = default_init(obs[0], params)
    return kf_filter(factory(params), obs, mean0, cov0).loglik


def identity_model(k, noise):
    ordering = ModeOrdering(GridSpec(4, 4), k)
    return direct_model(np.eye(ordering.k), noise)


def advection_setup(n, k=None, velocity=(0.01, 0.0), delta=1.0):
    g = GridSpec(n, n)
    ordering = ModeOrdering(g, k)
    gen = assemble_transition(
        ordering, VelocityField.constant(g, *velocity), DiffusivityField.zero(g)
    )
    return g, ordering, build_transition(gen, delta)


def test_static_model_converges_to_observation():
    noise = NoiseParams(1e-4, 1e-8)
    model = identity_model(3, noise)
    obs = np.tile([1.0, -2.0, 0.5], (40, 1))
    mean0 = np.zeros(2 * model.k)
    cov0 = np.eye(2 * model.k)
    result = kf_filter(model, obs, mean0, cov0, update_first=True)
    assert np.abs(result.means_array[-1][: model.k] - obs[0]).max() <= 1e-3


def test_noiseless_exact_model_reproduces_simulation():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=12, noise_alpha=0.0, noise_beta=0.0,
        noise_modes=None, seed=4,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(16)
    obs = sim.alphas
    floor = NoiseParams(1e-10, 1e-10)
    model = direct_model(phi, floor)
    mean0 = np.concatenate([sim.alphas[0], sim.betas[0]])
    result = kf_filter(model, obs, mean0, 1e-8 * np.eye(2 * ordering.k))
    for t in range(cfg.steps):
        assert np.abs(result.means_array[t, : ordering.k] - sim.alphas[t]).max() <= 1e-6
    # exact model: innovations vanish after burn-in
    assert np.abs(result.innovations[2:]).max() <= 1e-8


def test_filtered_mae_bounded_by_noise_on_replica():
    cfg = SimulationConfig(
        grid=GridSpec(32, 32), steps=20, noise_alpha=0.005, noise_beta=0.001,
        noise_modes=40, seed=6,
    )
    noisy = simulate_advection(cfg)
    clean = simulate_advection(
        SimulationConfig(grid=GridSpec(32, 32), steps=20, noise_alpha=0.0,
                         noise_beta=0.0, noise_modes=None, seed=6)
    )
    g, ordering, phi = advection_setup(32)
    model = direct_model(phi, NoiseParams(0.005, 0.001))
    mean0, cov0 = default_init(noisy.alphas[0], model.noise)
    result = kf_filter(model, noisy.alphas, mean0, cov0)
    t = cfg.steps - 1
    filtered = synthesize(ordering, result.means_array[t, : ordering.k])
    noise_scale = np.abs(noisy.fields[t].values - clean.fields[t].values).mean()
    mae_filtered = np.abs(filtered.values - clean.fields[t].values).mean()
    # injected noise lives in the state, so the filter tracks it rather than
    # removing it; the filtered error sits at the injected-noise scale
    assert mae_filtered <= 1.05 * noise_scale


def test_forecast_constant_under_identity():
    noise = NoiseParams(1e-6, 1e-12)
    model = identity_model(3, noise)
    k = model.k
    state = np.concatenate([np.array([1.0, 2.0, -1.0][:k]), np.zeros(k)])
    _, cov1 = kf_forecast(model, state, np.zeros((2 * k, 2 * k)), 1)
    means, cov5 = kf_forecast(model, state, np.zeros((2 * k, 2 * k)), 5)
    for m in means:
        assert np.allclose(m[:k], state[:k])
    # covariance grows by W each step
    assert np.allclose(cov1[:k, :k], model.w_alpha)
    assert np.allclose(cov5[:k, :k], 5 * model.w_alpha)


def test_forecast_pure_advection_translates():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=4, noise_alpha=0.0, noise_beta=0.0,
        noise_modes=None, seed=8, source_amplitude=1.0,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(16)
    model = direct_model(phi, NoiseParams(1e-10, 1e-10))
    state = np.concatenate([sim.alphas[2], sim.betas[2]])
    means, _ = kf_forecast(model, state, 1e-10 * np.eye(2 * ordering.k), 1)
    assert np.abs(means[0][: ordering.k] - sim.alphas[3]).max() <= 1e-5


def test_forecast_error_grows_with_horizon():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=16, noise_alpha=0.002, noise_beta=0.0005,
        noise_modes=20, seed=10,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(16)
    model = direct_model(phi, NoiseParams(0.002, 0.0005))
    train = 6
    mean0, cov0 = default_init(sim.alphas[0], model.noise)
    result = kf_filter(model, sim.alphas[:train], mean0, cov0)
    means, _ = kf_forecast(model, result.means_array[-1], result.final_cov, 10)
    errs = [np.abs(means[h][: ordering.k] - sim.alphas[train + h]).mean() for h in range(10)]
    # smooth out single-step wiggles: compare 3-step block averages
    blocks = [np.mean(errs[i : i + 3]) for i in (0, 3, 6)]
    assert blocks[0] < blocks[1] < blocks[2]


def test_covariances_stay_symmetric_psd():
    cfg = SimulationConfig(
        grid=GridSpec(8, 8), steps=10, noise_alpha=0.01, noise_beta=0.002,
        noise_modes=None, seed=12,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(8)
    model = direct_model(phi, NoiseParams(0.01, 0.002))
    mean0, cov0 = default_init(sim.alphas[0], model.noise)
    for t in range(len(sim.alphas)):
        cov = kf_filter(model, sim.alphas[: t + 1], mean0, cov0).final_cov
        assert np.abs(cov - cov.T).max() == 0.0
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_loglik_decomposes_over_innovations():
    cfg = SimulationConfig(
        grid=GridSpec(8, 8), steps=12, noise_alpha=0.004, noise_beta=0.001,
        noise_modes=None, seed=14,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(8)
    model = direct_model(phi, NoiseParams(0.004, 0.001))
    mean0, cov0 = default_init(sim.alphas[0], model.noise)
    result = kf_filter(model, sim.alphas, mean0, cov0)
    assert np.isclose(result.loglik, result.loglik_terms.sum(), atol=1e-9)

    # independent recomputation: the covariance recursion does not depend on
    # the data, so rebuild S_t and score the stored innovations
    k = ordering.k
    cov = cov0.copy()
    total = 0.0
    for t in range(1, cfg.steps):
        p11, p12, p22 = cov[:k, :k], cov[:k, k:], cov[k:, k:]
        x, y = phi @ p11, phi @ p12
        pred = np.block([[x @ phi.T + y + y.T + p22 + model.w_alpha, y + p22],
                         [(y + p22).T, p22 + model.w_beta]])
        s = pred[:k, :k] + model.v
        e = result.innovations[t]
        chol = scipy.linalg.cho_factor(s, lower=True)
        white = scipy.linalg.solve_triangular(chol[0], e, lower=True)
        total += -0.5 * (k * np.log(2 * np.pi)
                         + 2 * np.sum(np.log(np.diag(chol[0]))) + white @ white)
        gain = scipy.linalg.cho_solve(chol, pred[:k, :].copy()).T
        ap = pred - gain @ pred[:k, :]
        cov = ap - ap[:, :k] @ gain.T + gain @ model.v @ gain.T
        cov = 0.5 * (cov + cov.T)
    assert np.isclose(total, result.loglik, atol=1e-9)


def test_variance_mle_recovers_within_factor_three():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=20, noise_alpha=0.005, noise_beta=0.001,
        noise_modes=33, seed=18,
    )
    sim = simulate_advection(cfg)
    g, _, _ = advection_setup(16)
    ordering = ModeOrdering(g, 33)
    gen = assemble_transition(ordering, VelocityField.constant(g, 0.01, 0.0),
                              DiffusivityField.zero(g))
    phi = build_transition(gen, 1.0)
    sub = np.searchsorted(
        ModeOrdering(g).indices, ordering.indices
    )
    obs = sim.alphas[:, sub]
    fit = estimate_variances(
        lambda p: direct_model(phi, p, tie_obs=False),
        obs,
        max_evaluations=150,
    )
    assert 0.005 / 3 <= fit.params.sigma2_alpha <= 0.005 * 3
    assert 0.001 / 3 <= fit.params.sigma2_beta <= 0.001 * 3
    factory = lambda p: direct_model(phi, p, tie_obs=False)
    assert all(fit.loglik >= full_pass_loglik(factory, obs, NoiseParams(sa, sb)) - 1e-9
               for sa in OLD_GRID for sb in OLD_GRID)


def test_variance_mle_noiseless_collapses_to_floor():
    cfg = SimulationConfig(
        grid=GridSpec(8, 8), steps=12, noise_alpha=0.0, noise_beta=0.0,
        noise_modes=None, seed=20,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(8)
    # d(t) = alpha(t+1) - alpha(t) follows d(t+1) = Phi d(t) with no forcing, so
    # the fit's start from default_init (first observation, zero forcing) is exact
    fit = estimate_variances(
        lambda p: direct_model(phi, p, tie_obs=False),
        np.diff(sim.alphas, axis=0),
        max_evaluations=250,
    )
    assert fit.params.sigma2_alpha <= 1e-5
    assert fit.params.sigma2_beta <= 1e-5
    assert fit.params.sigma2_alpha >= 1e-12


def test_likelihood_peaks_near_true_parameters():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=20, noise_alpha=0.005, noise_beta=0.001,
        noise_modes=33, seed=22,
    )
    sim = simulate_advection(cfg)
    g = cfg.grid
    ordering = ModeOrdering(g, 33)
    gen = assemble_transition(ordering, VelocityField.constant(g, 0.01, 0.0),
                              DiffusivityField.zero(g))
    phi = build_transition(gen, 1.0)
    sub = np.searchsorted(ModeOrdering(g).indices, ordering.indices)
    obs = sim.alphas[:, sub]

    def loglik(params):
        model = direct_model(phi, params)
        mean0, cov0 = default_init(obs[0], params)
        return kf_filter(model, obs, mean0, cov0).loglik

    true = loglik(NoiseParams(0.005, 0.001))
    assert true > loglik(NoiseParams(0.05, 0.01))
    assert true > loglik(NoiseParams(0.0005, 0.0001))


def test_filter_breakdown_raises_diagnostic():
    model = identity_model(3, NoiseParams(1e-6, 1e-6))
    k2 = 2 * model.k
    obs = np.zeros((4, model.k))
    with pytest.raises(FilterError, match="not positive definite"):
        kf_filter(model, obs, np.zeros(k2), -np.eye(k2), update_first=True)


def test_model_rejects_a_transition_that_is_not_square():
    with pytest.raises(ValueError, match=r"phi must be 3 x 3, got \(3, 2\)"):
        direct_model(np.zeros((3, 2)), NoiseParams(1e-3, 1e-3))


def test_estimate_variances_needs_three_steps():
    model = identity_model(3, NoiseParams(1e-3, 1e-3))
    with pytest.raises(ValueError):
        estimate_variances(lambda p: model, np.zeros((2, model.k)))


@pytest.fixture(scope="module", params=[ModelSpec("direct16", k=16),
                                        ModelSpec("flip64", k=64, flip=True)],
                ids=lambda spec: spec.label)
def small_fit(request):
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=12, noise_alpha=0.005, noise_beta=0.001,
        noise_modes=33, seed=24,
    )
    pipeline = build_pipeline(cfg.grid, request.param, velocity=cfg.velocity)
    obs = pipeline.observations(simulate_advection(cfg).fields)
    return pipeline.factory, obs, estimate_variances(pipeline.factory, obs, max_evaluations=40)


def test_fit_loglik_is_a_full_pass_at_the_fitted_noise(small_fit):
    factory, obs, fit = small_fit
    assert fit.loglik == full_pass_loglik(factory, obs, fit.params)


def test_fit_beats_nearby_noise_and_the_old_grid(small_fit):
    factory, obs, fit = small_fit
    sa, sb = fit.params.sigma2_alpha, fit.params.sigma2_beta
    nearby = [NoiseParams(sa * fa, sb * fb) for fa in (0.95, 1.05) for fb in (0.95, 1.05)]
    grid = [NoiseParams(a, b) for a in OLD_GRID for b in OLD_GRID]
    for params in nearby + grid:
        assert full_pass_loglik(factory, obs, params) <= fit.loglik, params


def test_fit_counts_the_scalars_it_observes(small_fit):
    # 11 updates of 12 steps of 15 coefficients (direct16), or of the
    # 21-coefficient band (flip64), not of its K* = 63 doubled-grid coefficients
    factory, _, fit = small_fit
    per_step = 21 if factory(fit.params).channels else 15
    assert fit.diagnostics()["n_scalars"] == per_step * 11


def test_fit_converges_within_forty_evaluations(small_fit):
    _, _, fit = small_fit
    assert fit.converged
    assert fit.n_evaluations <= 40
    assert not fit.diagnostics()["ratio_at_bound"]


def variable_diffusivity(g):
    _, y = g.mesh()
    d = 0.002 + 0.001 * np.sin(2 * np.pi * y)
    return DiffusivityField.isotropic(g, d.flatten(order="F"), periodic=True)


def flipped_case(diffusive, k):
    """16x16 advection data, the ordering and generator of the physics, and
    the pipeline of ``flip{k}``."""
    cfg = SimulationConfig(grid=GridSpec(16, 16), steps=8, noise_alpha=0.005, noise_beta=0.001,
                           noise_modes=33, seed=26)
    g = cfg.grid
    vel = VelocityField.constant(g, 0.01, 0.0)
    dif = variable_diffusivity(g) if diffusive else DiffusivityField.zero(g)
    pipeline = build_pipeline(g, ModelSpec(f"flip{k}", k=k, flip=True), velocity=vel,
                              diffusivity=dif)
    ordering = ModeOrdering(g, k // 4)
    return simulate_advection(cfg).fields, ordering, assemble_transition(ordering, vel, dif), pipeline


def dense_model(phi, h, noise):
    """The conjugated model on every coefficient of ``h``'s rows: noise ``H H^T + ridge I``."""
    hht = h @ h.T + SUBSPACE_RIDGE * np.eye(h.shape[0])
    return StateSpaceModel(phi, noise, v=noise.sigma2_obs * np.eye(h.shape[0])
                           + noise.sigma2_alpha * hht,
                           w_alpha=noise.sigma2_alpha * hht, w_beta=noise.sigma2_beta * hht)


def filter_and_forecast(model, obs, noise, update_first):
    result = kf_filter(model, obs, *default_init(obs[0], noise), update_first=update_first)
    forecast, _ = kf_forecast(model, result.means_array[-1], result.final_cov, 3)
    return result, np.vstack([result.means_array, forecast])


UPDATE_FIRST = pytest.mark.parametrize("update_first", [False, True],
                                       ids=["update-from-1", "update-first"])
DIFFUSIVE = pytest.mark.parametrize("diffusive", [False, True],
                                    ids=["constant-velocity", "variable-diffusivity"])


@UPDATE_FIRST
@DIFFUSIVE
def test_flipped_model_blocks_equal_the_dense_conjugated_model(diffusive, update_first):
    frames, ordering, gen, pipeline = flipped_case(diffusive, 64)
    noise = NoiseParams(2e-3, 5e-4, 1e-4)
    model = pipeline.factory(noise)
    obs = pipeline.observations(frames)

    # the dense oracle on all dim S band coordinates: exp of H_S P pinv(H_S), whose
    # flipped-domain coordinates are the band's (it stands in for the flipped ordering)
    band = MirrorBand(GridSpec(16, 16), 64)
    h_s = band.transfer(ordering)
    q, _ = np.linalg.qr(h_s, mode="complete")
    transfer = FlipTransfer(ordering, band, h_s)
    dense = dense_model(build_transition(flipped_generator(gen, transfer), 1.0), h_s, noise)
    assert len(model.phi) == ordering.k == 15 < model.k == band.k == 21

    got, got_means = filter_and_forecast(model, obs, noise, update_first)
    want, want_means = filter_and_forecast(dense, obs @ q.T, noise, update_first)
    assert got.loglik == pytest.approx(want.loglik, rel=1e-9)
    assert got.whitened_ss == pytest.approx(want.whitened_ss, rel=1e-9)
    rotate = np.kron(np.eye(2), q)  # state (Q' y, Q' beta) -> (y, beta)
    assert np.abs(got_means @ rotate.T - want_means).max() <= 1e-9


@UPDATE_FIRST
@DIFFUSIVE
def test_band_model_fields_equal_the_doubled_grid_model(diffusive, update_first):
    # flip65 keeps both (k_x, +-k_y) of every doubled-grid mode it holds, so the
    # band is exactly the paper's truncation: the K*-state model of H P pinv(H)
    # on analyze(flip_field(f), star) must give the same fields
    frames, ordering, gen, pipeline = flipped_case(diffusive, 65)
    noise = NoiseParams(2e-3, 5e-4, 1e-4)
    g = frames[0].grid
    star = ModeOrdering(g.doubled(), 65)
    transfer = flip_transfer(g, ordering, star)
    dense = dense_model(build_transition(flipped_generator(gen, transfer), 1.0),
                        transfer.matrix, noise)
    dense_obs = np.array([analyze(flip_field(f), star) for f in frames])
    assert dense.k == 65 > pipeline.k == 21

    _, got = filter_and_forecast(pipeline.factory(noise), pipeline.observations(frames), noise,
                                 update_first)
    _, want = filter_and_forecast(dense, dense_obs, noise, update_first)
    for g_mean, w_mean in zip(got, want):
        got_field = pipeline.reconstruct(g_mean).values
        want_field = unflip(synthesize(star, w_mean[:65])).values
        assert np.abs(got_field - want_field).max() <= 1e-9 * np.abs(want_field).max()


def test_flipped_filter_rejects_a_covariance_the_blocks_cannot_hold():
    g = GridSpec(16, 16)
    pipeline = build_pipeline(g, ModelSpec("flip64", k=64, flip=True), velocity=(0.01, 0.0))
    model = pipeline.factory(NoiseParams(1e-3, 1e-3))
    k, kr = model.k, len(model.phi)
    obs = np.zeros((3, k))
    mean0, cov0 = default_init(obs[0], model.noise)
    kf_filter(model, obs, mean0, cov0)
    coupled = cov0.copy()
    coupled[0, kr] = coupled[kr, 0] = 1e-3  # range block with a leakage channel
    uneven = cov0.copy()
    uneven[k - 1, k - 1] *= 2  # one leakage channel differs from the others
    for cov in (coupled, uneven):
        with pytest.raises(ValueError, match="leakage channels"):
            kf_filter(model, obs, mean0, cov)
        with pytest.raises(ValueError, match="leakage channels"):
            kf_forecast(model, mean0, cov, 1)
