"""The package's exported names, the README's library example and its
config key list."""
from __future__ import annotations

import re
from pathlib import Path

import deformconv
from deformconv import config

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


def test_readme_config_keys_match_the_key_table():
    """The README's "Config keys" block lists exactly config.KEYS and the
    layer fields, each default as the table gives it."""
    section = _README.read_text(encoding="utf-8").split("## Config keys\n", 1)[1]
    block = re.search(r"\n((?:    .*\n)+)", section)[1]
    entries: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("     "):  # a continuation
            entries[key] += " " + line.strip()
        else:
            key, _, text = line.strip().partition(" ")
            entries[key] = text.strip()
    layer = {k.removeprefix("layer.i.") for k in entries if k.startswith("layer.i.")}
    fixed = {k for k in entries if not k.startswith("layer.i.")}
    assert fixed == set(config.KEYS)
    assert layer == {"type", *config.FIELDS}
    defaults = {k: (m[1] if (m := re.search(r"; default (.*)$", text)) else None)
                for k, text in entries.items()}
    assert {k: defaults[k] for k in config.KEYS} == {k: d for k, (_, d) in config.KEYS.items()}
    assert {name for name in config.FIELDS if defaults[f"layer.i.{name}"]} == \
        set(config.FIELD_DEFAULTS)
    assert defaults["layer.i.skip"] == str(config.FIELD_DEFAULTS["skip"])
