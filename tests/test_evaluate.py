import numpy as np
import pytest

from mirrorspec.evaluate import (
    ModelSpec,
    Region,
    WHOLE_DOMAIN,
    band_coordinates,
    build_pipeline,
    mae,
    run_comparison,
)
from mirrorspec.grid import Field, GridSpec
from mirrorspec.kalman import NoiseParams, default_init, kf_filter
from mirrorspec.simulate import SimulationConfig, simulate_advection
from mirrorspec.spectral import MirrorBand, ModeOrdering, analyze, synthesize
from oracles import joined, split


def test_mae_trivial_cases():
    g = GridSpec(8, 8)
    rng = np.random.default_rng(0)
    truth = Field(g, rng.normal(size=g.n))
    assert mae(truth, truth) == 0.0
    shifted = Field(g, truth.values + 0.75)
    assert np.isclose(mae(truth, shifted), 0.75, atol=1e-14)


def test_mae_matches_loop_oracle():
    g = GridSpec(8, 8)
    rng = np.random.default_rng(1)
    a = Field(g, rng.normal(size=g.n))
    b = Field(g, rng.normal(size=g.n))
    region = Region((0.25, 0.75), (0.0, 0.5))
    total, count = 0.0, 0
    ap, bp = a.pixels(), b.pixels()
    for i in range(g.n2):
        for j in range(g.n1):
            x, y = j / g.n1, i / g.n2
            if 0.25 <= x <= 0.75 and 0.0 <= y <= 0.5:
                total += abs(ap[i, j] - bp[i, j])
                count += 1
    assert np.isclose(mae(a, b, region), total / count, atol=1e-12)
    assert np.isclose(mae(a, b), np.abs(a.values - b.values).mean(), atol=1e-15)


def test_region_validation_and_empty():
    with pytest.raises(ValueError):
        Region((0.5, 0.4), (0.0, 0.9))
    with pytest.raises(ValueError):
        Region((0.0, 1.0), (0.0, 0.5))
    g = GridSpec(4, 4)
    narrow = Region((0.30, 0.40), (0.30, 0.40))  # falls between 4x4 grid points
    a = Field(g, np.zeros(g.n))
    with pytest.raises(ValueError):
        mae(a, a, narrow)


def bottom_edge_bump(grid, rng):
    """Random smooth field hugging the bottom edge: strong values at y=0,
    (near) zero in the top strip, hence a wrap-around discontinuity in y."""
    x, y = grid.mesh()
    pix = np.zeros(grid.shape)
    for _ in range(3):
        cx = rng.uniform(0.1, 0.9)
        s = rng.uniform(0.08, 0.15)
        pix += rng.uniform(5, 15) * np.exp(-((x - cx) ** 2 + y**2) / (2 * s**2))
    return Field.from_pixels(grid, pix)


def test_gibbs_energy_flipped_beats_direct():
    # at matched budgets the direct low-pass reconstruction of K = 25 modes rings
    # into the quiet strip, and the mirror band of 4 K doubled-grid ones does not
    rng = np.random.default_rng(2)
    g = GridSpec(50, 50)
    strip = Region((0.0, 0.99), (0.9, 0.99))
    ordering = ModeOrdering(g, 25)
    band = MirrorBand(g, 100)
    for _ in range(20):
        f = bottom_edge_bump(g, rng)
        direct = mae(f, synthesize(ordering, analyze(f, ordering)), strip)
        flipped = mae(f, band.reconstruct(band.observe(f)), strip)
        assert flipped < direct


def small_dataset():
    cfg = SimulationConfig(
        grid=GridSpec(24, 24), steps=10, noise_alpha=0.002, noise_beta=0.0005,
        noise_modes=21, seed=30,
    )
    return simulate_advection(cfg).fields


def test_run_comparison_zero_noise_exact_model():
    cfg = SimulationConfig(
        grid=GridSpec(16, 16), steps=8, noise_alpha=0.0, noise_beta=0.0,
        noise_modes=None, seed=31,
    )
    frames = simulate_advection(cfg).fields
    pipeline = build_pipeline(
        frames[0].grid, ModelSpec("direct-full", k=16 * 16), velocity=(0.01, 0.0)
    )
    obs = pipeline.observations(frames)
    noise = NoiseParams(1e-9, 1e-9)
    model = pipeline.factory(noise)
    cov0 = joined(model, default_init(model, obs[0], noise))
    # the first observed increment y_1 - Phi y_0 is the exact forcing of noiseless data
    mean0 = np.concatenate([obs[0], obs[1] - joined(model, "phi") @ obs[0]])
    result = kf_filter(model, obs, split(model, mean0, cov0))
    for t in (3, 5, 7):
        recon = pipeline.reconstruct(result.means_array[t, :model.k])
        assert mae(frames[t], recon, WHOLE_DOMAIN) <= 1e-6


def test_run_comparison_pipeline_and_report():
    frames = small_dataset()
    strip = Region((0.0, 0.99), (0.9, 0.99))
    report = run_comparison(
        frames,
        [
            ModelSpec("direct16", k=16),
            ModelSpec("flip64", k=64, flip=True),
            ModelSpec("window16", k=16, window=True),
        ],
        train_steps=8,
        eval_times=[5, 7, 8, 9],
        regions={"whole": WHOLE_DOMAIN, "strip": strip},
        velocity=(0.01, 0.0),
        noise=NoiseParams(0.002, 0.0005),
    )
    # complete grid of rows
    for spec in ("direct16", "flip64", "window16"):
        for t in (5, 7, 8, 9):
            for r in ("whole", "strip"):
                assert np.isfinite(report.value(spec, t, r))
    # mirrored model suppresses boundary ringing in the quiet strip
    for t in (5, 7, 8, 9):
        assert report.value("flip64", t, "strip") < report.value("direct16", t, "strip")
    csv = report.to_csv()
    assert csv.splitlines()[0] == "model,time,region,mae"
    assert len(csv.splitlines()) == 1 + 3 * 4 * 2
    assert "direct16" in report.summary()


def test_report_determinism():
    frames = small_dataset()
    kwargs = dict(
        train_steps=8,
        eval_times=[5, 9],
        regions={"whole": WHOLE_DOMAIN},
        velocity=(0.01, 0.0),
        fit_budget=15,
    )
    specs = [ModelSpec("direct16", k=16)]
    a = run_comparison(frames, specs, **kwargs)
    b = run_comparison(frames, specs, **kwargs)
    assert a.to_csv() == b.to_csv()


def test_metadata_records_the_coefficients_built():
    # the 24x24 grid holds 576 coefficients, so a larger budget is capped;
    # budgets that would split a cos/sin pair are rounded down (2 -> 1), and
    # flip64 observes the 21 coefficients of its band
    frames = small_dataset()
    specs = [ModelSpec("direct1000", k=1000), ModelSpec("direct2", k=2),
             ModelSpec("flip64", k=64, flip=True)]
    report = run_comparison(frames, specs, train_steps=3, eval_times=[2],
                            regions={"whole": WHOLE_DOMAIN}, velocity=(0.01, 0.0),
                            noise=NoiseParams(0.002, 0.0005))
    models = report.metadata["models"]
    assert models["direct1000"]["k"] == 576
    assert models["direct2"]["k"] == 1
    assert models["flip64"]["k"] == 21


def test_leakage_fraction_of_frames_in_range_of_the_transfer():
    # frames made of the K retained original modes lie in range(H_S): no leakage
    g = GridSpec(16, 16)
    ordering = ModeOrdering(g, 16)
    rng = np.random.default_rng(33)
    frames = [synthesize(ordering, rng.normal(size=ordering.k)) for _ in range(4)]
    kwargs = dict(train_steps=3, eval_times=[3], regions={"whole": WHOLE_DOMAIN},
                  velocity=(0.01, 0.0), noise=NoiseParams(0.002, 0.0005))
    specs = [ModelSpec("direct16", k=16), ModelSpec("flip64", k=64, flip=True)]
    models = run_comparison(frames, specs, **kwargs).metadata["models"]
    assert "leakage_fraction" not in models["direct16"]
    assert models["flip64"]["leakage_fraction"] < 1e-12
    models = run_comparison(small_dataset(), specs[1:], **kwargs).metadata["models"]
    assert 0.01 < models["flip64"]["leakage_fraction"] < 1


def test_run_comparison_rejects_a_region_without_grid_points_before_any_model(monkeypatch):
    def no_models(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("mirrorspec.evaluate.build_pipeline", no_models)
    regions = {"whole": WHOLE_DOMAIN, "gap": Region((0.51, 0.52), (0.51, 0.52))}
    with pytest.raises(ValueError, match="region 'gap' holds no point of the 24 x 24 grid"):
        run_comparison(small_dataset(), [ModelSpec("direct16", k=16)], train_steps=3,
                       eval_times=[2], regions=regions, noise=NoiseParams(0.002, 0.0005))


def test_run_comparison_rejects_an_empty_model_list():
    with pytest.raises(ValueError, match="models must list at least one model"):
        run_comparison(small_dataset(), [], train_steps=3, eval_times=[2],
                       regions={"whole": WHOLE_DOMAIN}, noise=NoiseParams(0.002, 0.0005))


@pytest.mark.parametrize("k_star", [100, 200, 400])
def test_band_coordinates_inverse_from_the_qr_factors(k_star):
    # the flip100, flip200 and flip400 transfers on 100x100
    g = GridSpec(100, 100)
    h = MirrorBand(g, k_star).transfer(ModeOrdering(g, k_star // 4))
    t, t_inv = band_coordinates(h)
    assert np.abs(t[:, :h.shape[1]] - h).max() == 0
    assert np.abs(t_inv @ t - np.eye(len(t))).max() <= 1e-12
    assert np.abs(t_inv - np.linalg.inv(t)).max() <= 1e-12
