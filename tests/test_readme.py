"""README's Library example runs, and the package exports every name it lists."""

from __future__ import annotations

import re
from pathlib import Path

import rootspiral

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {})


def test_star_import_resolves_every_name_in_all():
    namespace: dict = {}
    exec("from rootspiral import *", namespace)
    assert len(set(rootspiral.__all__)) == len(rootspiral.__all__)
    assert [name for name in rootspiral.__all__ if name not in namespace] == []
