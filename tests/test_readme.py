"""README's Layout table has a row for every module of the package."""

from __future__ import annotations

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_module_has_a_row_in_the_readme_layout_table():
    package = os.path.join(ROOT, "src", "skeltext")
    modules = sorted(
        f"skeltext.{name[:-3]}" for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    )
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        layout = fh.read().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(skeltext\.\w+)` \|", layout, flags=re.MULTILINE))
    assert modules and [m for m in modules if m not in rows] == []
