import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mirrorspec.dynamics import block_transition, build_transition, flipped_generator
from mirrorspec.evaluate import ModelSpec, build_pipeline
from mirrorspec.galerkin import DiffusivityField, VelocityField, assemble_transition
from mirrorspec.grid import Field, GridSpec, flip_field, unflip
import mirrorspec.kalman as kalman
from mirrorspec.kalman import (
    GRID_POINTS,
    LOG_RATIO_BOUNDS,
    MIN_FIT_BUDGET,
    SUBSPACE_RIDGE,
    Block,
    Channels,
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
    MirrorBand,
    ModeOrdering,
    analyze,
    flip_transfer,
    synthesize,
)
from oracles import dense_filter, dense_init, joined, split


# The 3x3 start grid of the variance fit before it profiled out the scale.
OLD_GRID = (1e-4, 1e-3, 1e-2)


def full_pass_loglik(factory, obs, params):
    """Log-likelihood of one filter pass from the default initial state."""
    model = factory(params)
    return kf_filter(model, obs, default_init(model, obs[0], params)).loglik


def untied_model(phi, noise):
    """The dense model of ``phi`` whose observation covariance is
    ``sigma2_obs * I`` alone, without ``direct_model``'s ``sigma2_alpha``."""
    return StateSpaceModel((Block(phi, noise.sigma2_obs, noise.sigma2_alpha,
                                  noise.sigma2_beta),))


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
    result = kf_filter(model, obs, split(model, np.zeros(2 * model.k), np.eye(2 * model.k)))
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
    result = kf_filter(model, obs, split(model, mean0, 1e-8 * np.eye(2 * ordering.k)))
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
    ordering = ModeOrdering(cfg.grid)
    noise = NoiseParams(0.005, 0.001)
    model = direct_model(block_transition(ordering, cfg.velocity, cfg.delta), noise)
    result = kf_filter(model, noisy.alphas, default_init(model, noisy.alphas[0], noise))
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
    start = split(model, state, np.zeros((2 * k, 2 * k)))
    _, state1 = kf_forecast(model, start, 1)
    means, state5 = kf_forecast(model, start, 5)
    for m in means:
        assert np.allclose(m[:k], state[:k])
    # covariance grows by W each step
    w_alpha = joined(model, "w_alpha")
    assert np.allclose(joined(model, state1)[:k, :k], w_alpha)
    assert np.allclose(joined(model, state5)[:k, :k], 5 * w_alpha)


def test_forecast_pure_advection_translates():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=4, noise_alpha=0.0, noise_beta=0.0,
        noise_modes=None, seed=8, source_amplitude=1.0,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(16)
    model = direct_model(phi, NoiseParams(1e-10, 1e-10))
    state = np.concatenate([sim.alphas[2], sim.betas[2]])
    means, _ = kf_forecast(model, split(model, state, 1e-10 * np.eye(2 * ordering.k)), 1)
    assert np.abs(means[0][: ordering.k] - sim.alphas[3]).max() <= 1e-5


def test_forecast_error_grows_with_horizon():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=16, noise_alpha=0.002, noise_beta=0.0005,
        noise_modes=20, seed=10,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(16)
    noise = NoiseParams(0.002, 0.0005)
    model = direct_model(phi, noise)
    train = 6
    result = kf_filter(model, sim.alphas[:train], default_init(model, sim.alphas[0], noise))
    means, _ = kf_forecast(model, result.final_state, 10)
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
    noise = NoiseParams(0.01, 0.002)
    model = direct_model(phi, noise)
    state0 = default_init(model, sim.alphas[0], noise)
    for t in range(len(sim.alphas)):
        cov = joined(model, kf_filter(model, sim.alphas[: t + 1], state0).final_state)
        assert np.abs(cov - cov.T).max() == 0.0
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


# the simulation's own noise, then r = sigma2_beta / sigma2_alpha at both ends
# of the fit's search interval and between them
@pytest.mark.parametrize("noise", [NoiseParams(0.004, 0.001), NoiseParams(1, 1e-8),
                                   NoiseParams(1, 1), NoiseParams(1, 1e8)],
                         ids=["sim", "r=1e-8", "r=1", "r=1e8"])
def test_loglik_decomposes_over_innovations(noise):
    cfg = SimulationConfig(
        grid=GridSpec(8, 8), steps=12, noise_alpha=0.004, noise_beta=0.001,
        noise_modes=None, seed=14,
    )
    sim = simulate_advection(cfg)
    g, ordering, phi = advection_setup(8)
    model = direct_model(phi, noise)
    state0 = default_init(model, sim.alphas[0], noise)
    result = kf_filter(model, sim.alphas, state0)
    assert np.isclose(result.loglik, result.loglik_terms.sum(), atol=1e-9)

    # independent recomputation by the textbook dense filter of the same
    # matrices from the same state, whose update is the Joseph form
    [(mean0, _)] = state0
    want = dense_filter(phi, *(joined(model, name) for name in ("v", "w_alpha", "w_beta")),
                        sim.alphas, mean0, joined(model, state0))
    assert np.isclose(want.loglik, result.loglik, atol=1e-9)
    assert result.loglik == pytest.approx(want.loglik, rel=1e-12)
    assert result.min_pivot == pytest.approx(want.min_pivot, rel=1e-12)
    # the innovations the block reports are the ones its loglik scores
    assert np.abs(result.innovations - want.innovations).max() <= 1e-9
    assert np.abs(result.means_array - want.means).max() <= 1e-12 * np.abs(want.means).max()
    cov = joined(model, result.final_state)
    assert np.abs(cov - want.final_cov).max() <= 1e-12 * np.abs(want.final_cov).max()


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
        lambda p: untied_model(phi, p),
        obs,
        max_evaluations=150,
    )
    assert 0.005 / 3 <= fit.params.sigma2_alpha <= 0.005 * 3
    assert 0.001 / 3 <= fit.params.sigma2_beta <= 0.001 * 3
    factory = lambda p: untied_model(phi, p)
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
        lambda p: untied_model(phi, p),
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
        return kf_filter(model, obs, default_init(model, obs[0], params)).loglik

    true = loglik(NoiseParams(0.005, 0.001))
    assert true > loglik(NoiseParams(0.05, 0.01))
    assert true > loglik(NoiseParams(0.0005, 0.0001))


def test_filter_breakdown_raises_diagnostic():
    model = identity_model(3, NoiseParams(1e-6, 1e-6))
    k2 = 2 * model.k
    obs = np.zeros((4, model.k))
    with pytest.raises(FilterError, match="not positive definite"):
        kf_filter(model, obs, split(model, np.zeros(k2), -np.eye(k2)))


@pytest.mark.parametrize("field", ["sigma2_alpha", "sigma2_beta", "sigma2_obs"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_noise_params_must_be_finite(field, value):
    # a NaN variance would otherwise reach the filter and turn every filtered
    # mean, covariance and log-likelihood into NaN without an error
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        NoiseParams(**{"sigma2_alpha": 1e-3, "sigma2_beta": 1e-3, field: value})


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


@pytest.mark.parametrize("budget,converged", [(MIN_FIT_BUDGET, False), (4, False), (5, True)],
                         ids=["3", "4", "5"])
def test_fit_budget_caps_every_filter_pass(small_fit, budget, converged, monkeypatch):
    # a grid over log r is one pass and the fit makes one more at the fitted
    # noise; both small fits take four grids, so budgets of 3 and 4 stop them
    # and a budget of 2, the first grid alone, is refused
    factory, obs, _ = small_fit
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(kalman, "kf_filter", counted(kf_filter))
    monkeypatch.setattr(kalman, "_grid_pass", counted(kalman._grid_pass))
    with pytest.raises(ValueError, match=f"at least {MIN_FIT_BUDGET} evaluations, got 2"):
        estimate_variances(factory, obs, max_evaluations=2)
    assert not calls
    if converged:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = estimate_variances(factory, obs, max_evaluations=budget)
    else:
        with pytest.warns(RuntimeWarning, match="evaluation budget"):
            fit = estimate_variances(factory, obs, max_evaluations=budget)
    assert fit.converged is converged
    assert len(calls) == fit.n_evaluations == budget


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
    per_step = factory(fit.params).k
    assert per_step in (15, 21)
    assert fit.diagnostics()["n_scalars"] == per_step * 11


def test_fit_converges_within_forty_evaluations(small_fit):
    _, _, fit = small_fit
    assert fit.converged
    assert fit.n_evaluations <= 40
    assert not fit.diagnostics()["ratio_at_bound"]


def test_fit_records_its_first_grid(small_fit):
    # the whole search interval, r = 1 among its points, with the profiled
    # log-likelihood of each, which the refining grids can only raise
    _, _, fit = small_fit
    profile = fit.diagnostics()["profile"]
    x, loglik = np.array(profile["log_ratio"]), np.array(profile["loglik"], dtype=float)
    assert x.size == loglik.size == GRID_POINTS
    assert (x[0], x[GRID_POINTS // 2], x[-1]) == (LOG_RATIO_BOUNDS[0], 0.0, LOG_RATIO_BOUNDS[1])
    assert np.isfinite(loglik).all()
    assert loglik.max() <= fit.loglik + 1e-12 * abs(fit.loglik)


def variable_diffusivity(g):
    _, y = g.mesh()
    d = 0.002 + 0.001 * np.sin(2 * np.pi * y)
    return DiffusivityField(g, d.flatten(order="F"))


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
    """The conjugated model on every coefficient of ``h``'s rows as the dense
    ``(phi, v, w_alpha, w_beta)`` of :func:`oracles.dense_filter`, and
    ``T = [H | Q2]`` with ``Q2`` the orthonormal complement of ``range(H)``:
    noise ``H H^T + ridge (I - H pinv(H))``, observation noise
    ``sigma2_obs T T^T`` plus its alpha part."""
    q, _ = np.linalg.qr(h, mode="complete")
    t = np.column_stack([h, q[:, h.shape[1]:]])
    w = h @ h.T + SUBSPACE_RIDGE * (np.eye(h.shape[0]) - h @ np.linalg.pinv(h))
    return (phi, noise.sigma2_obs * t @ t.T + noise.sigma2_alpha * w,
            noise.sigma2_alpha * w, noise.sigma2_beta * w), t


def mapped_init(t, first_obs, noise):
    """The default initial state at ``T^-1 first_obs``, mapped to the state
    ``(T z, T beta)``."""
    mean, cov = dense_init(np.linalg.solve(t, first_obs), noise)
    tt = np.kron(np.eye(2), t)
    return tt @ mean, tt @ cov @ tt.T


def filter_and_forecast(model, obs, noise):
    result = kf_filter(model, obs, default_init(model, obs[0], noise))
    forecast, _ = kf_forecast(model, result.final_state, 3)
    return result, np.vstack([result.means_array, forecast])


DIFFUSIVE = pytest.mark.parametrize("diffusive", [False, True],
                                    ids=["constant-velocity", "variable-diffusivity"])


@DIFFUSIVE
def test_flipped_model_blocks_equal_the_dense_conjugated_model(diffusive):
    frames, ordering, gen, pipeline = flipped_case(diffusive, 64)
    noise = NoiseParams(2e-3, 5e-4, 1e-4)
    model = pipeline.factory(noise)
    obs = pipeline.observations(frames)

    # the dense oracle on all dim S band coordinates: exp of H_S P pinv(H_S), whose
    # flipped-domain coordinates are the band's
    band = MirrorBand(GridSpec(16, 16), 64)
    h_s = band.transfer(ordering)
    dense, t = dense_model(build_transition(flipped_generator(gen, h_s), 1.0), h_s, noise)
    # a coefficient part (channels for a constant velocity, one block for a
    # variable diffusivity), then the leakage part with its own scalar noise
    k = ordering.k
    coeffs, leak = model.parts
    assert isinstance(coeffs, Block if diffusive else Channels)
    assert isinstance(leak, Channels) and leak.imag.size == 0
    assert leak.index.tolist() == list(range(k, band.k)) and np.all(leak.lam == 1)
    r = SUBSPACE_RIDGE
    assert (leak.v, leak.w_alpha, leak.w_beta) == (
        noise.sigma2_obs + noise.sigma2_alpha * r, noise.sigma2_alpha * r, noise.sigma2_beta * r)
    assert k == 15 < model.k == band.k == 21

    band_obs = obs @ t.T  # the band coordinates y = T (z, Q2' y)
    got, got_means = filter_and_forecast(model, obs, noise)
    want = dense_filter(*dense, band_obs, *mapped_init(t, band_obs[0], noise), h=3)
    # the filter on z = T^-1 y has the density of y times |det T|, once per update
    jacobian = len(got.loglik_terms) * np.linalg.slogdet(t)[1]
    assert got.loglik - jacobian == pytest.approx(want.loglik, rel=1e-9)
    assert got.whitened_ss == pytest.approx(want.whitened_ss, rel=1e-9)
    to_band = np.kron(np.eye(2), t)  # state (z, Q2' y, forcing) -> (y, beta)
    assert np.abs(got_means @ to_band.T - want.means).max() <= 1e-9

    # filtering it is filtering the coefficients and the leakage apart
    phi = (build_transition(gen, 1.0) if diffusive
           else block_transition(ordering, (0.01, 0.0), 1.0, 0.0))
    leak_model = direct_model((np.arange(0), np.arange(0), np.ones(0)), noise,
                              leakage=band.k - k)
    apart = [kf_filter(m, o, default_init(m, o[0], noise))
             for m, o in ((direct_model(phi, noise), obs[:, :k]), (leak_model, obs[:, k:]))]
    assert got.loglik == pytest.approx(apart[0].loglik + apart[1].loglik, rel=1e-12)
    assert got.whitened_ss == pytest.approx(apart[0].whitened_ss + apart[1].whitened_ss,
                                            rel=1e-12)
    halves = [np.split(a.means_array, 2, axis=1) for a in apart]  # (alpha, beta) of each part
    apart_means = np.hstack([halves[0][0], halves[1][0], halves[0][1], halves[1][1]])
    assert np.abs(got.means_array - apart_means).max() <= 1e-12 * np.abs(apart_means).max()


@DIFFUSIVE
def test_band_model_fields_equal_the_doubled_grid_model(diffusive):
    # flip65 keeps both (k_x, +-k_y) of every doubled-grid mode it holds, so the
    # band is exactly the paper's truncation: the K*-state model of H P pinv(H)
    # on analyze(flip_field(f), star) must give the same fields
    frames, ordering, gen, pipeline = flipped_case(diffusive, 65)
    noise = NoiseParams(2e-3, 5e-4, 1e-4)
    g = frames[0].grid
    star = ModeOrdering(g.doubled(), 65)
    h = flip_transfer(g, ordering, star)
    dense, t = dense_model(build_transition(flipped_generator(gen, h), 1.0), h, noise)
    dense_obs = np.array([analyze(flip_field(f), star) for f in frames])
    assert len(dense[0]) == 65 > pipeline.k == 21

    _, got = filter_and_forecast(pipeline.factory(noise), pipeline.observations(frames), noise)
    want = dense_filter(*dense, dense_obs, *mapped_init(t, dense_obs[0], noise), h=3).means
    for g_mean, w_mean in zip(got, want):
        got_field = pipeline.reconstruct(g_mean).values
        want_field = unflip(synthesize(star, w_mean[:65])).values
        assert np.abs(got_field - want_field).max() <= 1e-9 * np.abs(want_field).max()


# --- constant coefficients: the filter on scalar channels ------------------

def joined_transition(channels):
    """The dense ``K x K`` transition of :func:`block_transition`'s channels."""
    return joined(direct_model(channels, NoiseParams(1.0, 1.0)), "phi")


# GridSpec takes even sizes only, so the non-square case is 14 x 18; at full
# retention both hold their Nyquist-edge pairs (k_x = n1/2 or k_y = n2/2)
@pytest.mark.parametrize("shape", [(16, 16), (14, 18)], ids=["16x16", "14x18"])
@pytest.mark.parametrize("d", [0.0, 3e-4], ids=["no-diffusion", "constant-d"])
def test_block_transition_equals_the_matrix_exponential(shape, d):
    g = GridSpec(*shape)
    ordering = ModeOrdering(g)
    velocity, delta = (0.013, -0.007), 1.5
    dif = DiffusivityField(g, np.full(g.n, d)) if d else DiffusivityField.zero(g)
    want = build_transition(
        assemble_transition(ordering, VelocityField.constant(g, *velocity), dif), delta)
    index, imag, lam = block_transition(ordering, velocity, delta, d)
    assert 0 < imag.size < index.size  # cos/sin pairs, then corners
    assert not lam[imag.size:].imag.any()  # a corner only decays
    assert index.size + imag.size == ordering.k == g.n
    got = joined_transition((index, imag, lam))
    assert np.abs(got - want).max() <= 1e-12
    if d:
        assert np.abs(np.diag(want)).min() < 0.5  # the decay is not negligible


def pair_case():
    cfg = SimulationConfig(grid=GridSpec(16, 16), steps=10, noise_alpha=0.005,
                           noise_beta=0.001, noise_modes=33, seed=28)
    ordering = ModeOrdering(cfg.grid, 60)
    channels = block_transition(ordering, cfg.velocity, 1.0, 2e-4)
    sub = np.searchsorted(ModeOrdering(cfg.grid).indices, ordering.indices)
    return channels, ordering, simulate_advection(cfg).alphas[:, sub]


def test_pair_filter_equals_the_dense_filter():
    # direct, windowed and mirrored models of constant velocity and diffusivity,
    # each one part of channels (and a mirrored one its leakage part), against
    # the dense filter of all their coefficients
    cfg = SimulationConfig(grid=GridSpec(16, 16), steps=10, noise_alpha=0.005,
                           noise_beta=0.001, noise_modes=33, seed=28)
    g = cfg.grid
    frames = simulate_advection(cfg).fields
    noise = NoiseParams(2e-3, 5e-4, 1e-4)
    for spec in (ModelSpec("direct60", k=60), ModelSpec("window60", k=60, window=True),
                 ModelSpec("flip240", k=240, flip=True)):
        pipeline = build_pipeline(g, spec, velocity=cfg.velocity,
                                  diffusivity=DiffusivityField(g, np.full(g.n, 2e-4)))
        obs = pipeline.observations(frames)
        channels = pipeline.factory(noise)
        part, *leaks = channels.parts
        assert isinstance(part, Channels) and 0 < part.imag.size < part.index.size, spec
        leaked = sum(leak.index.size for leak in leaks)
        assert (leaked == pipeline.k - 59 > 0) if spec.flip else not leaks, spec
        assert channels.k == pipeline.k

        got, got_means = filter_and_forecast(channels, obs, noise)
        want = dense_filter(*(joined(channels, name) for name in ("phi", "v", "w_alpha", "w_beta")),
                            obs, *dense_init(obs[0], noise), h=3)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-9), spec
        assert got.whitened_ss == pytest.approx(want.whitened_ss, rel=1e-9), spec
        assert got.min_pivot == pytest.approx(want.min_pivot, rel=1e-12), spec
        assert np.abs(got.innovations - want.innovations).max() <= 1e-9, spec
        assert np.abs(got_means - want.means).max() <= 1e-9, spec
        assert np.abs(joined(channels, got.final_state) - want.final_cov).max() <= 1e-9, spec
        _, got_state = kf_forecast(channels, got.final_state, 2)
        assert np.abs(joined(channels, got_state) - want.forecast_covs[1]).max() <= 1e-9, spec


def test_constant_coefficient_pass_makes_no_linalg_call(monkeypatch):
    # the channels' S is a scalar: no factorization and no solve in building
    # a mirrored model, its initial state, a filter pass or a forecast
    g = GridSpec(16, 16)
    pipeline = build_pipeline(g, ModelSpec("flip64", k=64, flip=True), velocity=(0.01, 0.0))
    obs = np.random.default_rng(5).normal(size=(6, pipeline.k))

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("cholesky", "solve", "inv", "eigh", "qr", "svd", "slogdet"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    noise = NoiseParams(1e-3, 2e-3)
    model = pipeline.factory(noise)
    result = kf_filter(model, obs, default_init(model, obs[0], noise))
    means, _ = kf_forecast(model, result.final_state, 3)
    assert np.isfinite(result.loglik) and result.min_pivot > 0 and np.isfinite(means).all()


def test_pair_filter_breakdown_raises_diagnostic():
    batches, ordering, obs = pair_case()
    model = direct_model(batches, NoiseParams(1e-6, 1e-6))
    k2 = 2 * model.k
    with pytest.raises(FilterError, match="not positive definite"):
        kf_filter(model, obs, split(model, np.zeros(k2), -np.eye(k2)))


def huge_observations(physics):
    """The factory and the observations of 6 16x16 frames near 1e160, whose
    squared innovations overflow: channels, a mirrored model or a dense block."""
    g = GridSpec(16, 16)
    spec = ModelSpec("flip64", k=64, flip=True) if physics == "mirrored" else ModelSpec("d", k=16)
    dif = variable_diffusivity(g) if physics == "block" else None
    pipeline = build_pipeline(g, spec, velocity=(0.01, 0.0), diffusivity=dif)
    frames = simulate_advection(SimulationConfig(grid=g, steps=6, seed=3)).fields
    return pipeline.factory, pipeline.observations(
        [Field(g, f.values * 1e160) for f in frames])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("physics", ["channels", "mirrored", "block"])
def test_a_pass_whose_likelihood_overflows_raises_diagnostic(physics):
    # the pivots are fine, but e' S^-1 e overflows: kf_filter names it, and a
    # fit whose first grid holds no finite point says so, without a warning
    factory, obs = huge_observations(physics)
    noise = NoiseParams(1e-3, 1e-3)
    model = factory(noise)
    with pytest.raises(FilterError, match="log-likelihood of the filter pass is not finite"):
        kf_filter(model, obs, default_init(model, obs[0], noise))
    with pytest.raises(FilterError, match="not finite at any of the 33 points of the "
                                          "variance fit's first grid"):
        estimate_variances(factory, obs)


@pytest.mark.parametrize("physics", ["pairs", "flip"])
def test_filter_and_forecast_reject_a_state_of_the_wrong_shape(physics):
    # the state is one (mean, cov) per part: a state with a part missing, or
    # with a part of another size, is rejected by name, and so is a first
    # observation of another length
    if physics == "pairs":
        batches, _, obs = pair_case()
        model = direct_model(batches, NoiseParams(1e-3, 1e-3))
    else:
        pipeline = build_pipeline(GridSpec(16, 16), ModelSpec("flip64", k=64, flip=True),
                                  velocity=(0.01, 0.0))
        model = pipeline.factory(NoiseParams(1e-3, 1e-3))
        obs = np.zeros((3, model.k))
    state = default_init(model, obs[0], NoiseParams(1e-3, 1e-3))
    n = len(model.parts)
    mean, cov = state[-1]
    m = mean.shape[1] // 2
    wrong = {
        f"one (mean, cov) per part: {n}, got {n - 1}": state[:-1],
        f"part {n - 1} of the state must have a mean of shape {mean.shape} and a covariance "
        f"of shape {cov.shape}, got {mean[1:].shape} and {cov.shape}":
            state[:-1] + [(mean[1:], cov)],
        f"part {n - 1} of the state must have a mean of shape {mean.shape} and a covariance "
        f"of shape {cov.shape}, got {mean.shape} and {cov[:, :m, :m].shape}":
            state[:-1] + [(mean, cov[:, :m, :m])],
    }
    for message, bad in wrong.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            kf_filter(model, obs, bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            kf_forecast(model, bad, 1)
    with pytest.raises(ValueError, match=f"first_obs must have length {model.k}"):
        default_init(model, obs[0, 1:], NoiseParams(1e-3, 1e-3))


def test_replica_filter_pass_keeps_no_dense_covariance():
    # one default_init + kf_filter pass on the 1024-coefficient channel model of
    # test_filtered_mae_bounded_by_noise_on_replica: the state is 514 complex
    # 2x2 covariances, where one dense 2048 x 2048 covariance takes 32 MiB
    cfg = SimulationConfig(grid=GridSpec(32, 32), steps=20, noise_alpha=0.005,
                           noise_beta=0.001, noise_modes=40, seed=6)
    obs = simulate_advection(cfg).alphas
    noise = NoiseParams(0.005, 0.001)
    model = direct_model(block_transition(ModeOrdering(cfg.grid), cfg.velocity, cfg.delta), noise)
    assert model.k == 1024
    tracemalloc.start()
    try:
        kf_filter(model, obs, default_init(model, obs[0], noise))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def layout(model):
    """Each part of ``model``: ``("block", m)``, or ``("channels", pairs, reals)``."""
    return [("channels", b.imag.size, b.index.size - b.imag.size) if isinstance(b, Channels)
            else ("block", b.positions.size) for b in model.parts]


@pytest.mark.parametrize("physics,parts", [
    ("constant", [("channels", 10, 1)]),
    ("constant-d", [("channels", 10, 1)]),
    ("variable-d", [("block", 21)]),
    ("flip", [("channels", 7, 1), ("channels", 0, 6)]),
    ("flip-variable-d", [("block", 15), ("channels", 0, 6)]),
], ids=["constant", "constant-d", "variable-d", "flip", "flip-variable-d"])
def test_build_pipeline_picks_the_blocks_from_the_physics(physics, parts):
    # pair and corner channels for constant coefficients, one dense block
    # otherwise; a mirrored model adds a part of one real leakage channel per
    # coordinate
    g = GridSpec(16, 16)
    dif = {"constant-d": DiffusivityField(g, np.full(g.n, 1e-4)),
           "variable-d": variable_diffusivity(g),
           "flip-variable-d": variable_diffusivity(g)}.get(physics)
    spec = (ModelSpec("flip64", k=64, flip=True) if physics.startswith("flip")
            else ModelSpec("d21", k=21))
    model = build_pipeline(g, spec, velocity=(0.01, 0.0), diffusivity=dif).factory(
        NoiseParams(1e-3, 1e-3))
    assert layout(model) == parts


# profiles to minimize on [lo, hi] to xatol; a filter pass that fails scores
# 1e30, as it did in the bounded search of scipy's minimize_scalar
# (function to minimize, interval, xatol, what the search must also end on):
# a flat profile ends on the middle of the interval, and a first grid without
# a finite point ends the search
PROFILE_CASES = {
    "interior": (lambda x: (x - 1.3) ** 2 + 0.5, (-5.0, 5.0), 1e-5, {}),
    "at-lower-bound": (lambda x: np.exp(x), (-2.0, 3.0), 1e-3, {}),
    "at-upper-bound": (lambda x: -x, (-2.0, 3.0), 1e-3, {}),
    "flat": (lambda x: 4.0, (-1.0, 1.0), 1e-3, {"x": 0.0}),
    "failure-plateau": (lambda x: 1e30 if x > 0.5 else (x + 2.0) ** 2, (-18.4, 18.4), 1e-3, {}),
    "all-failures": (lambda x: 1e30, (-18.4, 18.4), 1e-3, {"grids": 1}),
}


@pytest.mark.parametrize("case", list(PROFILE_CASES))
def test_grid_maximum_reaches_scipy_minimize_scalar(case):
    import scipy.optimize

    func, (lo, hi), xatol, expect = PROFILE_CASES[case]

    def profile(xs):
        # the grid maximizes, and scores a failed pass -inf
        return np.array([-func(x) if func(x) < 1e30 else -np.inf for x in xs])

    x, value, grids, converged, (first_x, first_values) = kalman._grid_maximum(
        profile, lo, hi, xatol, 100)
    assert x == pytest.approx(expect.get("x", x), abs=1e-12)
    assert grids == expect.get("grids", grids)
    want = scipy.optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                                          options={"xatol": xatol, "maxiter": 500})
    assert converged and lo <= x <= hi and value == profile([x])[0]
    assert first_x.size == GRID_POINTS and (first_x[0], first_x[-1]) == (lo, hi)
    # to 1e-9 of the larger of the minimum and the profile's spread over the
    # first grid: a profile is known up to a constant, and a minimum of 0
    # would otherwise ask for an exact hit
    finite = first_values[np.isfinite(first_values)]
    scale = max(abs(want.fun), np.ptp(finite) if finite.size else 0.0)
    assert func(x) <= want.fun + 1e-9 * scale


@pytest.mark.parametrize("physics,parts", [
    ("channels", [("channels", 10, 1)]),
    ("mirrored", [("channels", 7, 1), ("channels", 0, 6)]),
    ("block", [("block", 21)]),
], ids=["channels", "mirrored", "block"])
def test_grid_pass_equals_a_filter_pass_at_each_ratio(physics, parts):
    # the fit's first grid: channel parts run it as one pass along a leading
    # axis, a dense block point by point; each point must equal a kf_filter
    # pass from default_init at NoiseParams(1, r)
    cfg = SimulationConfig(grid=GridSpec(16, 16), steps=12, noise_alpha=0.005,
                           noise_beta=0.001, noise_modes=33, seed=24)
    g = cfg.grid
    spec = ModelSpec("flip64", k=64, flip=True) if physics == "mirrored" else ModelSpec("d", k=21)
    dif = variable_diffusivity(g) if physics == "block" else None
    pipeline = build_pipeline(g, spec, velocity=cfg.velocity, diffusivity=dif)
    assert layout(pipeline.factory(NoiseParams(1.0, 1.0))) == parts
    obs = pipeline.observations(simulate_advection(cfg).fields)
    log_ratios = np.linspace(*LOG_RATIO_BOUNDS, GRID_POINTS)
    loglik, white_ss = kalman._grid_pass(pipeline.factory, obs, log_ratios)
    for x, ll, q in zip(log_ratios, loglik, white_ss):
        params = NoiseParams(1.0, float(np.exp(x)))
        model = pipeline.factory(params)
        want = kf_filter(model, obs, default_init(model, obs[0], params))
        assert ll == pytest.approx(want.loglik, rel=1e-12, abs=0), x
        assert q == pytest.approx(want.whitened_ss, rel=1e-12, abs=0), x
