"""The README's `Library` example runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    mass, mean, l1 = (float(line) for line in capsys.readouterr().out.split())
    assert f"{mass:.4f}" == "0.0835" and abs(mass - 1 / 12) < 1e-3
    assert 0.0 < mean < 3.0**0.5 and 0.0 <= l1 <= 2.0  # a cube path is shorter than its diagonal
