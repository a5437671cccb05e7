"""The README's Python examples run against the package in ``src/``."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, flags=re.M | re.S))
    assert blocks, "README.md has no python block"
    for block in blocks:
        # pad with newlines so that tracebacks point at README lines
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out
