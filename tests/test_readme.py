"""The README's documented usage runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    legs, exact = capsys.readouterr().out.splitlines()
    dp, kr, mc, _, stderr = legs.split()
    assert abs(float(dp) - float(kr)) <= 1e-9 and float(stderr) > 0.0
    # the em scheme's first-order bias at N = 64 is 3% of the cost here
    assert abs(float(mc) - float(exact)) <= 0.05 * float(exact)
