"""The README's Python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
