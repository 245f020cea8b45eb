"""The package's exported names and the README's library example."""
from __future__ import annotations

import re
from pathlib import Path

import deformconv

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in deformconv.__all__ if not hasattr(deformconv, name)]
    assert missing == []


def test_readme_library_example_runs():
    section = _README.read_text(encoding="utf-8").split("## Library use\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S)[1]
    imported = re.search(r"from deformconv import \((.*?)\)", code, re.S)[1]
    assert set(re.findall(r"\w+", imported)) <= set(deformconv.__all__)
    scope: dict = {}
    exec(compile(code, f"{_README}: Library use", "exec"), scope)
    assert scope["out"].shape == (500, 4)
