"""The README's library sketch runs against the package as it is."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md (library sketch)", "exec"), namespace)
    field, frames = namespace["frame19"], namespace["frames"]
    assert field.grid == frames[19].grid
    assert np.abs(field.values - frames[19].values).mean() < np.abs(frames[19].values).mean()
