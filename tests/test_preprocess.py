import numpy as np
import pytest

from mirrorspec.grid import Field, GridSpec
from mirrorspec.preprocess import apply_window, hamming2d, reflectivity_to_rain


def test_marshall_palmer_fixed_point():
    g = GridSpec(2, 2)
    z = Field(g, np.full(4, 10 * np.log10(200)))  # 23.010299956639813 dBZ
    r = reflectivity_to_rain(z)
    assert np.abs(r.values - 1.0).max() <= 1e-12


def test_marshall_palmer_zero_dbz():
    g = GridSpec(2, 2)
    r = reflectivity_to_rain(Field(g, np.zeros(4)))
    assert np.abs(r.values - 0.03646332368608555).max() <= 1e-12


def test_marshall_palmer_decade_above_fixed_point():
    g = GridSpec(2, 2)
    z = Field(g, np.full(4, 33.010299956639813))
    r = reflectivity_to_rain(z)
    assert np.abs(r.values - 4.216965034285822).max() <= 1e-12


def test_marshall_palmer_monotone():
    g = GridSpec(10, 2)
    z = Field(g, np.linspace(-20, 60, 20))
    r = reflectivity_to_rain(z).values
    assert np.all(np.diff(r) > 0)


def test_hamming_corner_weight():
    w = hamming2d(GridSpec(100, 100))
    pix = w.values.reshape((100, 100), order="F")
    assert np.isclose(pix[0, 0], 0.0064, atol=1e-15)
    assert np.isclose(pix[0, 0], (0.54 - 0.46) ** 2)


def test_hamming_peaks_near_middle():
    w = hamming2d(GridSpec(100, 100))
    pix = w.values.reshape((100, 100), order="F")
    assert np.isclose(pix[49, 49], 0.9995368726266919, atol=1e-12)
    assert pix[49, 49] > 0.999
    assert pix[50, 50] > 0.999


def test_hamming_boundary_row_weight():
    g = GridSpec(100, 100)
    pix = hamming2d(g).values.reshape(g.shape, order="F")
    # far edge returns to the 0.08 axis factor: row weight = 0.08 * wx[j]
    wx = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(100) / 99)
    assert np.allclose(pix[99, :], 0.08 * wx, atol=1e-15)


def test_hamming_separable_rank_one():
    g = GridSpec(40, 24)
    pix = hamming2d(g).values.reshape(g.shape, order="F")
    s = np.linalg.svd(pix, compute_uv=False)
    assert s[1] / s[0] <= 1e-12


def test_apply_window_identity_and_constant():
    g = GridSpec(8, 8)
    rng = np.random.default_rng(1)
    f = Field(g, rng.normal(size=g.n))
    ones = Field(g, np.ones(g.n))
    assert np.array_equal(apply_window(f, ones).values, f.values)
    w = hamming2d(g)
    const = Field(g, np.ones(g.n))
    assert np.array_equal(apply_window(const, w).values, w.values)


def test_apply_window_grid_mismatch():
    with pytest.raises(ValueError):
        apply_window(Field(GridSpec(4, 4), np.zeros(16)), hamming2d(GridSpec(6, 6)))


def test_windowing_biases_strong_edge_signal():
    # a frame with strong bottom-edge values, windowed then low-pass
    # reconstructed, stays biased against the unwindowed truth: the window
    # crushes the edge signal and no truncation budget recovers it
    from mirrorspec.evaluate import Region, mae
    from mirrorspec.simulate import SimulationConfig, forcing_field
    from mirrorspec.spectral import ModeOrdering, analyze, synthesize

    cfg = SimulationConfig(grid=GridSpec(50, 50))
    truth = forcing_field(cfg)
    w = hamming2d(truth.grid)
    bottom = Region((0.0, 0.99), (0.0, 0.05))
    errs = {}
    for k in (25, 100, 400):
        ordering = ModeOrdering(truth.grid, k)
        recon_plain = synthesize(ordering, analyze(truth, ordering))
        recon_windowed = synthesize(ordering, analyze(apply_window(truth, w), ordering))
        errs[k] = (mae(truth, recon_windowed, bottom), mae(truth, recon_plain, bottom))
    for windowed_err, plain_err in errs.values():
        assert windowed_err > plain_err
    # plain truncation error shrinks with the budget; the windowed bias floor
    # does not (it is dominated by the taper, not the truncation)
    assert errs[25][1] > errs[100][1] > errs[400][1]
    floors = [we for we, _ in errs.values()]
    assert (max(floors) - min(floors)) / min(floors) < 0.05
