"""config and harness read a run input's bytes only through
hashing.read_parsed, which hashes the bytes it parses, so every run.json's
sha256 is that of what its run parsed. Any .read_bytes() call in them would
read an input beside it; here it fails the suite."""

import ast
from pathlib import Path

import sftlab

MODULES = ("config.py", "harness.py")


def read_bytes_lines(source: str) -> list[int]:
    """The line of each call of a .read_bytes attribute in `source`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "read_bytes"
    ]


def test_the_guard_finds_a_read_bytes_call():
    assert read_bytes_lines("def load(path):\n    return Path(path).read_bytes()\n") == [2]


def test_config_and_harness_read_input_bytes_only_through_read_parsed():
    root = Path(sftlab.__file__).parent
    found = {name: read_bytes_lines((root / name).read_text()) for name in MODULES}
    assert found == {name: [] for name in MODULES}
