"""The README's exactdiag snippet runs as printed."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def snippet(marker):
    """The README's python block that contains `marker`."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if marker in b]
    return block


def test_exactdiag_snippet_runs():
    scope = {}
    exec(compile(snippet("exactdiag as ed"), "README.md", "exec"), scope)
    s_t, s_vn, h1 = scope["s_t"], scope["s_vn"], scope["h1"]
    assert scope["v0"].shape == (h1.dim,) == (3575,)
    assert s_t.values.size == s_vn.size == 101
    assert abs(s_t.values[0] - 1.0) <= 1e-12
    assert np.all(np.abs(s_t.values) <= 1.0 + 1e-12)
    assert s_vn[0] <= 1e-10 < s_vn[-1]
