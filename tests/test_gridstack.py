import json
import re

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
    (root / "frame_0003.npy").unlink()
    with pytest.raises(StackError, match="frame_0003.npy.*missing frame 3"):
        load_stack(root)


def test_dimension_mismatch_error(tmp_path):
    stack = random_stack()
    root = save_stack(stack, tmp_path / "s")
    np.save(root / "frame_0001.npy", np.zeros((2, 4)))
    with pytest.raises(StackError, match="frame_0001.npy.*shape"):
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


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-10])


def _garbage_header(path):
    data = path.read_bytes()
    path.write_bytes(data[:10] + b"{'descr': garbage" + data[27:])


def test_parse_failure_has_context(tmp_path):
    for corrupt in (_truncated, _garbage_header):
        root = save_stack(random_stack(), tmp_path / corrupt.__name__)
        corrupt(root / "frame_0000.npy")
        with pytest.raises(StackError, match="frame_0000.npy: parse failure"):
            load_stack(root)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_frame_is_named(tmp_path, value):
    from click.testing import CliRunner

    from mirrorspec.cli import main

    root = save_stack(random_stack(), tmp_path / "s")
    pixels = np.arange(16.0).reshape(4, 4)
    pixels[1, 1] = float(value)
    np.save(root / "frame_0001.npy", pixels)
    with pytest.raises(StackError, match="frame_0001.npy: frame values must be finite"):
        load_stack(root)
    result = CliRunner().invoke(main, ["render", str(root), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {root / 'frame_0001.npy'}: frame values must be finite" in result.output


@pytest.mark.parametrize("pixels,error", [
    (np.arange(16, dtype=np.float32).reshape(4, 4), "frame dtype float32 is not float64"),
    (np.arange(16, dtype=np.int64).reshape(4, 4), "frame dtype int64 is not float64"),
    (np.full((4, 4), 1.0, dtype=object), "parse failure"),
], ids=["float32", "int", "object"])
def test_a_frame_that_is_not_float64_is_refused(tmp_path, pixels, error):
    root = save_stack(random_stack(), tmp_path / "s")
    np.save(root / "frame_0002.npy", pixels, allow_pickle=True)
    with pytest.raises(StackError, match=f"frame_0002.npy: {error}"):
        load_stack(root)


def test_an_npz_archive_is_not_a_frame(tmp_path):
    root = save_stack(random_stack(), tmp_path / "s")
    with open(root / "frame_0000.npy", "wb") as fh:
        np.savez(fh, pixels=np.zeros((4, 4)))
    with pytest.raises(StackError, match="frame_0000.npy: parse failure"):
        load_stack(root)


def test_frame_files_are_the_pixels_as_np_save_writes_them(tmp_path):
    stack = random_stack(n1=6, n2=4, steps=5, seed=4)
    first = save_stack(stack, tmp_path / "a")
    second = save_stack(stack, tmp_path / "b")
    for i, frame in enumerate(stack.frames):
        name = f"frame_{i:04d}.npy"
        pixels = np.load(first / name)
        assert pixels.dtype == np.float64 and pixels.shape == (4, 6)
        assert pixels.tobytes() == frame.pixels().tobytes()
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in second.iterdir())


def test_render_refuses_a_stack_of_text_frames(tmp_path):
    """A stack written as ``frame_NNNN.csv`` by an earlier version names the
    text file and asks for the stack to be written again."""
    from click.testing import CliRunner

    from mirrorspec.cli import main

    stack = random_stack()
    root = save_stack(stack, tmp_path / "s")
    for i, frame in enumerate(stack.frames):
        (root / f"frame_{i:04d}.npy").unlink()
        np.savetxt(root / f"frame_{i:04d}.csv", frame.pixels(), fmt="%.17g", delimiter=",")
    message = (f"{root / 'frame_0000.csv'}: a text frame, which this version no longer reads; "
               "run the command that wrote the stack again")
    with pytest.raises(StackError, match="frame_0000.csv: a text frame"):
        load_stack(root)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["render", str(root), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output
    assert not list(out.glob("*"))


def test_benchmark_size_stack_loads_quickly(tmp_path):
    import time

    stack = random_stack(n1=100, n2=100, steps=30, seed=2)
    root = save_stack(stack, tmp_path / "big")
    start = time.time()
    back = load_stack(root)
    elapsed = time.time() - start
    assert back.steps == 30
    assert elapsed < 2.0



BAD_INTEGERS = [(key, value) for key in ("n1", "n2", "steps")
                for value in (None, 2.7, "30", True)]


def _with_manifest_value(root, key, value):
    manifest = json.loads((root / "manifest.json").read_text())
    manifest[key] = value
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


@pytest.mark.parametrize("key,value", BAD_INTEGERS)
def test_manifest_sizes_must_be_json_integers(tmp_path, key, value):
    root = _with_manifest_value(save_stack(random_stack(), tmp_path / "s"), key, value)
    with pytest.raises(StackError, match=f"{key} must be a JSON integer"):
        load_stack(root)


@pytest.mark.parametrize("key,value", BAD_INTEGERS)
def test_render_exits_2_on_a_manifest_size_that_is_not_an_integer(tmp_path, key, value):
    from click.testing import CliRunner

    from mirrorspec.cli import main

    root = _with_manifest_value(save_stack(random_stack(), tmp_path / "s"), key, value)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["render", str(root), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"{key} must be a JSON integer, got {value!r}" in result.output
    assert not list(out.glob("*"))


@pytest.mark.parametrize("key,value,message", [("n1", 3, "n1 must be even, got 3"),
                                               ("n2", 0, "n2 must be >= 2, got 0")])
def test_a_manifest_grid_that_is_not_a_grid_is_a_stack_error(tmp_path, key, value, message):
    root = _with_manifest_value(save_stack(random_stack(), tmp_path / "s"), key, value)
    with pytest.raises(StackError, match=re.escape(f"{root / 'manifest.json'}: {message}")):
        load_stack(root)


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
