"""Every name the package exports has a user in the library or the benchmark.

A name that only the tests call is surface to maintain with nothing that
runs it.  The sources are parsed with ``ast``, never imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hklab"

# exported names without a user yet, and why they stay
EXEMPT = {
    "fit_decay_params": "goes with ROADMAP item 4's certified bound",
    "nonlocal_bound": "goes with ROADMAP item 4's certified bound",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names():
    """Names loaded or read as attributes anywhere in the library modules and
    the benchmark, except inside the top-level definition of the same name."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_every_export_is_used():
    exported = exported_names()
    unused = exported - referenced_names()
    assert sorted(unused - set(EXEMPT)) == []
    # an exemption ends once its name gains a user or leaves the exports
    assert set(EXEMPT) <= unused
