"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The multi-model
benchmark comparison (criteria 6 and 7) runs once as a session fixture and
takes a few minutes; everything else completes in seconds.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from mirrorspec.cli import main as cli_main
from mirrorspec.dynamics import build_transition, flipped_generator, matrix_exp
from mirrorspec.evaluate import (
    ModelSpec,
    Region,
    WHOLE_DOMAIN,
    run_comparison,
)
from mirrorspec.galerkin import DiffusivityField, VelocityField, assemble_transition
from mirrorspec.grid import Field, GridSpec, flip_field
from mirrorspec.kalman import NoiseParams
from mirrorspec.motion import MotionConfig, diffusivity_from_velocity, estimate_velocity
from mirrorspec.preprocess import reflectivity_to_rain
from mirrorspec.simulate import SimulationConfig, forcing_field, simulate_advection, synthetic_storm_stack
from mirrorspec.spectral import (
    ModeOrdering,
    analyze,
    flip_transfer,
    synthesize,
)
from oracles import flip_matrix

TABLE_REFERENCE = {15: 1.681, 16: 1.745, 17: 1.814, 18: 1.861, 19: 1.923, 20: 1.995}


def report_pass(n, text):
    print(f"PASS criterion {n}: {text}")


# --- criterion 1 -----------------------------------------------------------

def test_criterion_1_flip_correctness():
    start = time.time()
    # worked 2x2 example, exact
    f = Field(GridSpec(2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
    expected = np.array([1, 2, 2, 1, 3, 4, 4, 3, 3, 4, 4, 3, 1, 2, 2, 1], dtype=float)
    assert np.array_equal(flip_field(f).values, expected)

    rng = np.random.default_rng(101)
    for _ in range(100):
        g = GridSpec(int(2 * rng.integers(1, 9)), int(2 * rng.integers(1, 9)))
        m = rng.normal(size=g.shape)
        # index-reflection oracle
        n2, n1 = g.shape
        oracle = np.zeros((2 * n2, 2 * n1))
        for i in range(n2):
            for j in range(n1):
                for r in (i, 2 * n2 - 1 - i):
                    for c in (j, 2 * n1 - 1 - j):
                        oracle[r, c] = m[i, j]
        r_mat = flip_matrix(g)
        assert np.array_equal(r_mat @ m.flatten(order="F"), oracle.flatten(order="F"))
    elapsed = time.time() - start
    assert elapsed < 1.0
    report_pass(1, f"2x2 worked example exact; 100 random grids vs index-reflection "
                   f"oracle exact in {elapsed:.2f}s")


# --- criterion 2 -----------------------------------------------------------

def test_criterion_2_spectral_round_trip():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n1, n2 in ((6, 4), (16, 16), (64, 32), (64, 64)):
        g = GridSpec(n1, n2)
        f = Field(g, rng.normal(size=g.n))
        ordering = ModeOrdering(g)
        back = synthesize(ordering, analyze(f, ordering))
        rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
        worst = max(worst, rel)
    assert worst <= 1e-9
    report_pass(2, f"analyze/synthesize identity up to 64x64, max rel err {worst:.2e}")


# --- criterion 3 -----------------------------------------------------------

def shifted_synthesis(ordering, alpha, shift):
    """Trig evaluation of the expansion at shifted coordinates: the exact
    periodic translation of the band-limited field."""
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


def test_criterion_3_physics_oracles():
    g = GridSpec(32, 32)
    ordering = ModeOrdering(g)
    vel = VelocityField.constant(g, 0.01, 0.0)
    gen = assemble_transition(ordering, vel, DiffusivityField.zero(g))
    phi = matrix_exp(gen)
    q = forcing_field(SimulationConfig(grid=g))
    alpha = analyze(q, ordering)
    # corner (Nyquist) modes have no sine partner on the grid, so no grid
    # field can represent their translation; phase rotation is defined on
    # the paired modes only (4 of 1024 coefficients zeroed)
    alpha[ordering.weight == 1.0] = 0.0
    worst = 0.0
    state = alpha.copy()
    for step in (1, 2, 3):
        state = phi @ state
        reference = shifted_synthesis(ordering, alpha, (0.01 * step, 0.0))
        err = np.abs(synthesize(ordering, state).values - reference).max()
        worst = max(worst, err)
    assert worst <= 1e-6

    d0 = 2e-3
    gen_d = assemble_transition(ordering, VelocityField.zero(g), DiffusivityField.isotropic(g, d0))
    phi_d = matrix_exp(gen_d)
    decay = np.exp(-((2 * np.pi) ** 2) * d0 * (ordering.kx**2 + ordering.ky**2))
    err_d = np.abs(phi_d - np.diag(decay)).max()
    assert err_d <= 1e-8
    report_pass(3, f"advection vs translation err {worst:.2e} (<=1e-6/step); "
                   f"diffusion vs heat-kernel decay err {err_d:.2e} (<=1e-8)")


# --- criterion 4 -----------------------------------------------------------

def test_criterion_4_flip_conjugation_equivalence():
    rng = np.random.default_rng(104)
    g = GridSpec(8, 8)
    ordering = ModeOrdering(g)
    ordering_star = ModeOrdering(g.doubled())
    transfer = flip_transfer(g, ordering, ordering_star)
    h = transfer.matrix
    gram_err = np.abs(transfer.pinv() @ h - np.eye(ordering.k)).max()
    assert gram_err <= 1e-10

    x, y = g.mesh()
    vx = 0.02 + 0.015 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    vy = -0.01 + 0.012 * np.cos(2 * np.pi * (x + y))
    vel = VelocityField(g, vx.flatten(order="F"), vy.flatten(order="F"))
    d = 0.002 + 0.001 * np.sin(2 * np.pi * y)
    dif = DiffusivityField.isotropic(g, d, periodic=True)
    gen = assemble_transition(ordering, vel, dif)
    phi = build_transition(gen, 1.0)
    phi_star = build_transition(flipped_generator(gen, transfer), 1.0)

    worst = 0.0
    for _ in range(5):
        a = rng.normal(size=ordering.k)
        a_star = h @ a
        for _ in range(10):
            a = phi @ a
            a_star = phi_star @ a_star
            worst = max(worst, np.abs(h @ a - a_star).max())
    assert worst <= 1e-8
    report_pass(4, f"evolve-then-flip vs flip-then-evolve max diff {worst:.2e} "
                   f"over 10 steps; pinv(H) H = I to {gram_err:.2e}")


# --- criterion 5 -----------------------------------------------------------

def taylor_expm_oracle(a, terms=60):
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


def test_criterion_5_matrix_exponential():
    rng = np.random.default_rng(105)
    worst = 0.0
    for k, norm in ((8, 1.0), (16, 5.0), (32, 20.0), (64, 50.0)):
        for _ in range(3):
            a = rng.normal(size=(k, k))
            a *= norm / np.linalg.norm(a, 2)
            ref = taylor_expm_oracle(a)
            rel = np.linalg.norm(matrix_exp(a) - ref) / np.linalg.norm(ref)
            worst = max(worst, rel)
    assert worst <= 1e-10
    report_pass(5, f"scaling-and-squaring vs Taylor oracle, worst rel err {worst:.2e} "
                   f"for K<=64, norm<=50")


# --- criteria 6 and 7 (shared benchmark run) --------------------------------

@pytest.fixture(scope="session")
def benchmark_report():
    cfg = SimulationConfig()  # 100x100, 30 steps, drift (0.01, 0), fixed seed
    sim = simulate_advection(cfg)
    specs = [
        ModelSpec("direct100", k=100),
        ModelSpec("direct196", k=196),
        ModelSpec("direct400", k=400),
        ModelSpec("window100", k=100, window=True),
        ModelSpec("window196", k=196, window=True),
        ModelSpec("window400", k=400, window=True),
        ModelSpec("flip400", k=400, flip=True),
    ]
    regions = {
        "whole": WHOLE_DOMAIN,
        "top-strip": Region((0.0, 0.99), (0.95, 0.99)),
    }
    started = time.time()
    report = run_comparison(
        sim.fields,
        specs,
        train_steps=20,
        eval_times=list(range(11, 21)),
        regions=regions,
        velocity=cfg.velocity,
        fit_budget=40,
    )
    report.metadata["wall_time_s"] = time.time() - started
    return report


def test_criterion_6_gibbs_suppression_ordering(benchmark_report):
    report = benchmark_report
    for t in range(11, 21):
        f400 = report.value("flip400", t, "top-strip")
        n400 = report.value("direct400", t, "top-strip")
        n196 = report.value("direct196", t, "top-strip")
        n100 = report.value("direct100", t, "top-strip")
        assert f400 < n400 < n196 < n100, f"ordering violated at t={t}"
    assert report.metadata["wall_time_s"] <= 600
    report_pass(6, "top-strip MAE ordering flip400 < direct400 < direct196 < direct100 "
                   f"at every t in 11..20 (run took {report.metadata['wall_time_s']:.0f}s)")


def test_criterion_7_table_reproduction(benchmark_report):
    report = benchmark_report
    for t, ref in TABLE_REFERENCE.items():
        v = report.value("flip400", t, "whole")
        assert 0.5 * ref <= v <= 1.5 * ref, f"flip400 MAE {v:.3f} outside +/-50% of {ref} at t={t}"
        windows = [report.value(f"window{k}", t, "whole") for k in (100, 196, 400)]
        assert v < min(windows), f"flip400 not below windowed models at t={t}"
        spread = (max(windows) - min(windows)) / min(windows)
        assert spread <= 0.02, f"windowed rows spread {spread:.3f} > 2% at t={t}"
    report_pass(7, "whole-domain flip400 MAE within +/-50% of the reference row at "
                   "t=15..20, below all windowed rows; windowed rows within 2%")


# --- criterion 8 -----------------------------------------------------------

def test_criterion_8_motion():
    g = GridSpec(64, 64)
    rng = np.random.default_rng(108)
    x, y = g.mesh()
    pix = np.zeros(g.shape)
    for _ in range(6):
        cx, cy = rng.uniform(0.15, 0.85, 2)
        s = rng.uniform(0.05, 0.1)
        pix += rng.uniform(5, 20) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s**2))
    a = Field.from_pixels(g, pix)
    b = Field.from_pixels(g, np.roll(pix, 2, axis=1))
    vel = estimate_velocity(a, b, MotionConfig(block=16, search_radius=6))
    err_px = max(np.abs(vel.vx - 2 / 64).max(), np.abs(vel.vy).max()) * 64
    assert err_px <= 0.5

    gamma = 0.4
    shear = VelocityField(g, (gamma * y).flatten(order="F"), np.zeros(g.n))
    dif = diffusivity_from_velocity(shear, 0.1, 0.1)
    shear_err = np.abs(dif.d - 0.28 * 0.1 * 0.1 * gamma).max()
    assert shear_err <= 1e-10

    frames = synthetic_storm_stack(GridSpec(100, 100), steps=4, seed=7)
    speeds = estimate_velocity(frames[1], frames[2], MotionConfig()).speed()
    assert speeds.min() >= 0.0 and speeds.max() <= 0.1
    report_pass(8, f"known shift recovered to {err_px:.2f}px; shear diffusivity err "
                   f"{shear_err:.1e}; storm speeds in [0, {speeds.max():.3f}] /step")


# --- criterion 9 -----------------------------------------------------------

def test_criterion_9_marshall_palmer():
    g = GridSpec(2, 2)
    conv = lambda z: reflectivity_to_rain(Field(g, np.full(4, z))).values[0]
    cases = [
        (10 * np.log10(200), 1.0),
        (0.0, 0.03646332368608555),
        (33.010299956639813, 4.216965034285822),
    ]
    worst = max(abs(conv(z) - r) for z, r in cases)
    assert worst <= 1e-12
    report_pass(9, f"three reflectivity-to-rain conversions exact to {worst:.1e}")


# --- criterion 10 ----------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    config = {
        "grid": {"n1": 24, "n2": 24},
        "seed": 5,
        "simulation": {"steps": 8, "noise_alpha": 0.002, "noise_beta": 0.0005,
                        "noise_modes": 21},
        "truncation": {"k": 16},
        "fit": {"enabled": True, "budget": 15},
        "comparison": {
            "models": [{"label": "direct16", "k": 16},
                       {"label": "flip64", "k": 64, "flip": True}],
            "train_steps": 6,
            "eval_times": [4, 5, 6, 7],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        result = CliRunner().invoke(cli_main, [
            "evaluate", "--config", str(cfg_path), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        outputs.append(next(out.glob("report-*.csv")).read_bytes())
    assert outputs[0] == outputs[1]
    report_pass(10, "two evaluate runs with the same config produced byte-identical CSVs")


# --- radar-style property (real case study not reproducible) ----------------

def test_storm_stack_flip_halves_quiet_quadrant_error():
    frames = synthetic_storm_stack(GridSpec(100, 100), steps=10, seed=7)
    vel = estimate_velocity(frames[0], frames[1], MotionConfig())
    dif = diffusivity_from_velocity(vel, 8 / 100, 8 / 100)
    quiet = Region((0.6, 0.99), (0.0, 0.4))
    report = run_comparison(
        frames,
        [ModelSpec("direct50", k=50), ModelSpec("flip200", k=200, flip=True)],
        train_steps=8,
        eval_times=[5, 6, 7, 8, 9],
        regions={"quiet": quiet},
        velocity=vel,
        diffusivity=dif,
        fit_budget=30,
    )
    ratios = []
    for t in (5, 6, 7, 8, 9):
        ratio = report.value("flip200", t, "quiet") / report.value("direct50", t, "quiet")
        ratios.append(ratio)
        assert ratio <= 0.5, f"quiet-quadrant ratio {ratio:.3f} > 0.5 at t={t}"
    report_pass("storm", "flipped pipeline quiet-quadrant MAE at most half of the "
                         f"direct pipeline (ratios {', '.join(f'{r:.2f}' for r in ratios)})")
