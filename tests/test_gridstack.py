import io
import json
import os

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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_frame_is_named(tmp_path, value):
    from click.testing import CliRunner

    from mirrorspec.cli import main

    root = save_stack(random_stack(), tmp_path / "s")
    (root / "frame_0001.csv").write_text(f"1,2,3,4\n1,{value},3,4\n1,2,3,4\n1,2,3,4\n")
    with pytest.raises(StackError, match="frame_0001.csv: frame values must be finite"):
        load_stack(root)
    result = CliRunner().invoke(main, ["render", str(root), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {root / 'frame_0001.csv'}: frame values must be finite" in result.output


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the stack I/O sees; returns the list of the pids it
    forks from then on."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()
        return forks

    return set_count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CORRUPTIONS = {
    "parse": lambda path: path.write_text("1,2,3,4\nnot,a,number,row\n1,2,3,4\n1,2,3,4\n"),
    "shape": lambda path: np.savetxt(path, np.zeros((2, 4)), fmt="%.17g", delimiter=","),
}


@pytest.mark.parametrize("name", ["frame_0000.csv", "frame_0001.csv"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_bad_frame_raises_the_serial_error_in_any_share(tmp_path, cpus, name, corruption):
    """frame_0000 is the calling process's share, frame_0001 a child's."""
    root = save_stack(random_stack(steps=5), tmp_path / "s")
    CORRUPTIONS[corruption](root / name)
    cpus(1)
    with pytest.raises(StackError) as serial:
        load_stack(root)
    forks = cpus(2)
    with pytest.raises(StackError) as fanned:
        load_stack(root)
    assert len(forks) == 1
    assert name in str(serial.value)
    assert str(fanned.value) == str(serial.value)
    assert_no_child_left()


def assert_frames_written_as_serial(root, stack):
    for i, frame in enumerate(stack.frames):
        serial = io.BytesIO()
        np.savetxt(serial, frame.pixels(), fmt="%.17g", delimiter=",")
        assert (root / f"frame_{i:04d}.csv").read_bytes() == serial.getvalue()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fanned_out_frames_equal_a_serial_write_and_read(tmp_path, cpus, count):
    forks = cpus(count)
    stack = random_stack(n1=6, n2=4, steps=7, seed=4)
    root = save_stack(stack, tmp_path / "s")
    assert_frames_written_as_serial(root, stack)
    back = load_stack(root)
    assert [f.values.tobytes() for f in back.frames] == [f.values.tobytes() for f in stack.frames]
    assert len(forks) == 2 * (count - 1)
    assert_no_child_left()


@pytest.mark.parametrize("count", [2, 3])
def test_frames_a_child_fails_are_redone_by_the_parent(tmp_path, cpus, monkeypatch, count):
    """Each child delivers its first frame, then fails on every frame from 3 on."""
    forks = cpus(count)
    parent = os.getpid()

    def fails_in_a_child(fn):
        def wrapped(path, *args, **kw):
            if os.getpid() != parent and int(path.stem[-4:]) >= 3:
                raise OSError("injected failure")
            return fn(path, *args, **kw)
        return wrapped

    stack = random_stack(n1=6, n2=4, steps=7, seed=5)
    monkeypatch.setattr(np, "savetxt", fails_in_a_child(np.savetxt))
    monkeypatch.setattr(np, "loadtxt", fails_in_a_child(np.loadtxt))
    root = save_stack(stack, tmp_path / "s")
    back = load_stack(root)
    monkeypatch.undo()  # the reference below calls the real np.savetxt
    assert_frames_written_as_serial(root, stack)
    assert [f.values.tobytes() for f in back.frames] == [f.values.tobytes() for f in stack.frames]
    assert len(forks) == 2 * (count - 1)
    assert_no_child_left()


def test_a_failure_in_the_parents_share_leaves_no_child(tmp_path, cpus, monkeypatch):
    forks = cpus(2)
    savetxt = np.savetxt

    def fails_on_frame_0(path, *args, **kw):
        if path.name == "frame_0000.csv":
            raise OSError("injected failure")
        return savetxt(path, *args, **kw)

    monkeypatch.setattr(np, "savetxt", fails_on_frame_0)
    with pytest.raises(OSError, match="injected failure"):
        save_stack(random_stack(steps=4), tmp_path / "s")
    assert len(forks) == 1
    assert_no_child_left()


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
