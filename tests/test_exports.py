"""Every name that gapscope exports has a caller outside the tests, or the
README's "Library API" section lists it with a reason."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gapscope"


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used_names(path):
    """Names a module reads, bare or as an attribute; an import alone is no use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _library_api_listing():
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("\n## Library API\n")[2].partition("\n## ")[0]
    return set(re.findall(r"^- `(\w+)`", section, re.MULTILINE))


def test_every_export_has_a_caller_or_a_library_api_listing():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += (ROOT / "scripts").glob("*.py")
    callers += (p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    used = set().union(*map(_used_names, callers))
    exported = _exported_names()
    listed = _library_api_listing()
    assert sorted(exported - used - listed) == []
    assert sorted(listed - exported) == []
