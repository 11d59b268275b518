"""Every ```python block of README.md runs as it stands, so its library
example names only functions the package still has, and every command of
its CLI tour exits 0."""

import re
import shlex
from pathlib import Path

from cyarith.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_command_of_the_cli_tour_exits_0():
    (tour,) = re.findall(r"^## CLI tour\n\n```sh\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    commands = [shlex.split(line, comments=True) for line in tour.splitlines()]
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "cyarith", argv
        assert main(argv[1:]) == 0, argv
