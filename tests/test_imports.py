"""The package's imports, read from its source.

The sparse solvers are the package's only scipy dependency, apart from
the DOP853 tableau that ``radial`` takes from ``scipy.integrate``.  The
check parses the source instead of reading ``sys.modules``, because
importing ``scipy.integrate`` loads ``scipy.optimize`` by itself.  No
module imports ``warnings``: a diagnostic is a field of its result.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "steklovw"
ALLOWED = {"scipy.sparse", "scipy.sparse.linalg"}
ALLOWED_IN = {"radial.py": ALLOWED | {"scipy.integrate"}}


def imports(path: Path) -> set[str]:
    """Every absolute module name the file imports, ``from scipy import x``
    counted as ``scipy.x``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.update([f"scipy.{a.name}" for a in node.names]
                         if node.module == "scipy" else [node.module])
    return names


def scipy_imports(path: Path) -> set[str]:
    return {n for n in imports(path) if n == "scipy" or n.startswith("scipy.")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_sparse_scipy_imports(path):
    assert scipy_imports(path) <= ALLOWED_IN.get(path.name, ALLOWED)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_warnings_import(path):
    assert not {n for n in imports(path) if n.split(".")[0] == "warnings"}
