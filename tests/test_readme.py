"""The README's library examples run against the current API."""

import re
import shlex
from pathlib import Path

from loracell import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order_in_one_namespace(capsys):
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks and len(blocks) == text.count("```python")
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    # Every block prints what it computes.
    assert len(capsys.readouterr().out.splitlines()) >= len(blocks)


def test_cli_commands_parse():
    """Every ``loracell`` command of the ``sh`` blocks parses, and its ``--set``
    overrides make a valid scenario."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("loracell "):
                commands.append(line.strip().replace("$m", "8"))
    assert commands and len(commands) == len(re.findall(r"^\s*loracell ", text, re.M))
    parser = cli.build_parser()
    for command in commands:
        cli._resolve_config(parser.parse_args(shlex.split(command)[1:]))
