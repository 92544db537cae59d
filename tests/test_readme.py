"""README's Layout table has a row for every module and no other, and README names only what
the package has."""

from __future__ import annotations

import builtins
import importlib
import inspect
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
    rows = re.findall(r"^\| `(skeltext\.\w+)` \|", layout, flags=re.MULTILINE)
    assert modules and sorted(rows) == modules


def _code_spans(text: str) -> list[str]:
    """README's inline code spans, which may break across lines, fenced blocks left out."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def _package():
    """Every skeltext module by name, and every class the package defines by name."""
    package = os.path.join(ROOT, "src", "skeltext")
    modules = {
        name[:-3]: importlib.import_module(f"skeltext.{name[:-3]}")
        for name in sorted(os.listdir(package)) if name.endswith(".py") and name != "__init__.py"
    }
    classes = {
        name: obj for module in modules.values() for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__.startswith("skeltext.")
    }
    return modules, classes


def _has_attribute(cls: type, attr: str) -> bool:
    """A class attribute, a declared field, or an instance attribute its code assigns."""
    if hasattr(cls, attr):
        return True
    for klass in cls.__mro__:
        if not klass.__module__.startswith("skeltext."):
            continue
        if attr in vars(klass).get("__annotations__", {}):
            return True
        if re.search(rf"\bself\.{attr}\b[^=\n]*=(?!=)", inspect.getsource(klass)):
            return True
    return False


def test_every_package_name_in_a_readme_code_span_exists():
    modules, classes = _package()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        spans = _code_spans(fh.read())
    package = importlib.import_module("skeltext")
    missing = []
    for span in spans:
        span = re.sub(r"[\w/.-]+\.(?:py|json|jsonl|bin|md|txt|toml)\b", "", span)  # file names
        span = re.sub(r'"[^"]*"', "", span)  # string values, as in a corpus line
        for name in re.findall(r"(?<![\w.])skeltext\.(\w+)", span):
            if name not in modules and not hasattr(package, name):
                missing.append(f"skeltext.{name}")
        for owner, attr in re.findall(r"(?<![\w.])(?:skeltext\.)?([A-Za-z_]\w*)\.(\w+)", span):
            if owner in modules:
                if not hasattr(modules[owner], attr):
                    missing.append(f"{owner}.{attr}")
            elif owner in classes and not _has_attribute(classes[owner], attr):
                missing.append(f"{owner}.{attr}")
        for name in re.findall(r"(?<![\w.])([A-Z]\w*[a-z]\w*)", span):
            if name not in classes and not hasattr(builtins, name) and not any(
                hasattr(module, name) for module in modules.values()
            ):
                missing.append(name)
    assert sorted(set(missing)) == []
