"""Every ```python block of README.md runs as it stands, so its library
example names only functions the package still has."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
