"""Every backticked dotted name that starts with a package module resolves.

Docstrings and the README name the private sites where a premise is
stated (`chart._Scan.restrict`, `quiver._keep_relations`), so a rename
or a deletion that leaves such a name behind fails here.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import nestquiv

PACKAGE = Path(nestquiv.__file__).parent
MODULES = {m.name for m in pkgutil.iter_modules([str(PACKAGE)])}
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _texts():
    """(where, text) for every docstring in the package, then the README."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield f"{path.stem}.{getattr(node, 'name', '<module>')}", doc
    yield "README.md", (PACKAGE.parents[1] / "README.md").read_text()


def _resolves(dotted: str) -> bool:
    first, *rest = dotted.split(".")
    obj = importlib.import_module(f"nestquiv.{first}")
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_module_reference_resolves():
    seen, stale = set(), []
    for where, text in _texts():
        for dotted in NAME.findall(text):
            if dotted.split(".")[0] in MODULES:
                seen.add(dotted)
                if not _resolves(dotted):
                    stale.append(f"{where}: {dotted}")
    assert stale == []
    # the shortcut sites whose premises the differential tests rely on
    assert {"chart._commuting", "quiver._keep_relations", "ideals._keep_closed", "stability._read_left",
            "chart._Scan.restrict"} <= seen
