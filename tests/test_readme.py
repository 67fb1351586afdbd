"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    rng = np.random.default_rng(17)
    common = rng.standard_t(4, size=1100)
    losses = 0.01 * np.column_stack([common + rng.standard_t(4, size=1100),
                                     common + rng.standard_t(4, size=1100)])
    np.savetxt(tmp_path / "losses.csv", losses, delimiter=",")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    point, lo, hi = map(float, capsys.readouterr().out.split())
    assert 0.0 < lo < point < hi
