"""Every name the package exports has a user in the library or the benchmark,
and importing the package stays cheap.

A name that only the tests call is surface to maintain with nothing that
runs it.  The sources are parsed with ``ast``, never imported; the import
itself is checked in a fresh interpreter.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hklab"

# exported names without a user yet, and why they stay
EXEMPT = {}


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


def test_import_loads_no_heavy_module():
    # ``import hklab`` is paid by every process that uses the package: scipy
    # costs 150-200 ms there, numpy.polynomial a few ms (the Gauss-Legendre
    # helper imports it on first use), and the CLI and the acceptance suite
    # pull in every layer's callers
    code = "import sys, hklab; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT).stdout.split()
    heavy = ("scipy", "numpy.polynomial", "hklab.acceptance", "hklab.cli")
    assert [m for m in out if any(m == h or m.startswith(h + ".") for h in heavy)] == []
