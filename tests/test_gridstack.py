import json

import numpy as np
import pytest

from mirrorspec.grid import Field, GridSpec
from mirrorspec.gridstack import GridStack, StackError, load_stack, render_heatmap, save_stack


def random_stack(n1=4, n2=4, steps=3, seed=0):
    g = GridSpec(n1, n2)
    rng = np.random.default_rng(seed)
    frames = [Field(g, rng.normal(size=g.n) * 10.0 ** rng.integers(-8, 8)) for _ in range(steps)]
    return GridStack.from_fields(frames, delta=1.0, units="dimensionless",
                                 created="test", config_hash="abc123")


def test_save_load_roundtrip_exact(tmp_path):
    stack = random_stack()
    save_stack(stack, tmp_path / "s")
    back = load_stack(tmp_path / "s")
    assert back.grid == stack.grid
    assert back.steps == stack.steps
    assert back.units == stack.units
    assert back.config_hash == stack.config_hash
    for a, b in zip(stack.frames, back.frames):
        assert np.array_equal(a.values, b.values)


def test_missing_frame_error_names_index(tmp_path):
    stack = random_stack(steps=5)
    root = save_stack(stack, tmp_path / "s")
    (root / "frame_0003.csv").unlink()
    with pytest.raises(StackError, match="frame_0003.csv.*missing frame 3"):
        load_stack(root)


def test_dimension_mismatch_error(tmp_path):
    stack = random_stack()
    root = save_stack(stack, tmp_path / "s")
    np.savetxt(root / "frame_0001.csv", np.zeros((2, 4)), fmt="%.17g", delimiter=",")
    with pytest.raises(StackError, match="frame_0001.csv.*shape"):
        load_stack(root)


def test_manifest_key_validation(tmp_path):
    stack = random_stack()
    root = save_stack(stack, tmp_path / "s")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest.pop("delta")
    manifest["bogus"] = 1
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StackError, match="manifest keys mismatch"):
        load_stack(root)


def test_empty_stack_rejected(tmp_path):
    root = save_stack(random_stack(), tmp_path / "s")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["steps"] = 0
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StackError, match="at least one frame"):
        load_stack(root)


@pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan"), float("inf"), None, "1.0", True])
def test_manifest_delta_must_be_a_finite_positive_number(tmp_path, delta):
    root = save_stack(random_stack(), tmp_path / "s")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["delta"] = delta
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StackError, match="delta must be finite and positive"):
        load_stack(root)


def test_parse_failure_has_context(tmp_path):
    stack = random_stack()
    root = save_stack(stack, tmp_path / "s")
    (root / "frame_0000.csv").write_text("1,2,3,4\nnot,a,number,row\n1,2,3,4\n1,2,3,4\n")
    with pytest.raises(StackError, match="frame_0000.csv"):
        load_stack(root)


def test_benchmark_size_stack_loads_quickly(tmp_path):
    import time

    stack = random_stack(n1=100, n2=100, steps=30, seed=2)
    root = save_stack(stack, tmp_path / "big")
    start = time.time()
    back = load_stack(root)
    elapsed = time.time() - start
    assert back.steps == 30
    assert elapsed < 2.0


def test_render_constant_field_uniform(tmp_path):
    g = GridSpec(4, 4)
    f = Field(g, np.full(g.n, 2.0))
    out = render_heatmap(f, tmp_path / "c.pgm")
    data = out.read_bytes()
    assert data.startswith(b"P5\n4 4\n255\n")
    assert set(data.split(b"255\n", 1)[1]) == {0}  # degenerate scale maps to 0
    scale = json.loads((tmp_path / "c.pgm.scale.json").read_text())
    assert scale["min"] == scale["max"] == 2.0


def test_render_fixed_scale_deterministic(tmp_path):
    g = GridSpec(6, 4)
    rng = np.random.default_rng(1)
    f = Field(g, rng.uniform(0, 50, g.n))
    a = render_heatmap(f, tmp_path / "a.pgm", scale=(0.0, 50.0)).read_bytes()
    b = render_heatmap(f, tmp_path / "b.pgm", scale=(0.0, 50.0)).read_bytes()
    assert a == b


@pytest.mark.parametrize("scale", [(5.0, 1.0), (2.0, 2.0), (0.0, float("nan"))])
def test_render_rejects_a_scale_without_min_below_max(tmp_path, scale):
    g = GridSpec(4, 4)
    f = Field(g, np.arange(g.n) % 5.0)
    with pytest.raises(ValueError, match="min < max"):
        render_heatmap(f, tmp_path / "r.pgm", scale)
    assert not list(tmp_path.iterdir())


def test_render_orientation_puts_high_y_on_top(tmp_path):
    g = GridSpec(2, 4)
    pix = np.zeros(g.shape)
    pix[3, :] = 1.0  # max-y row
    f = Field.from_pixels(g, pix)
    data = render_heatmap(f, tmp_path / "o.pgm", scale=(0.0, 1.0)).read_bytes()
    body = data.split(b"255\n", 1)[1]
    assert body[:2] == b"\xff\xff"
    assert body[-2:] == b"\x00\x00"
