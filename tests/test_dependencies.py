"""The dependency rule: the package imports only the standard library and the
dependencies pyproject.toml declares, and the tests add only the test extras
and their own helper modules."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def _imported(path: Path) -> set:
    """Top-level names of the absolute imports of one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _foreign(files, allowed: set) -> dict:
    found = {}
    for path in files:
        extra = _imported(path) - allowed - set(sys.stdlib_module_names)
        if extra:
            found[path.name] = sorted(extra)
    return found


def test_package_imports_only_its_declared_dependencies():
    allowed = _names(_project()["dependencies"]) | {"kundu_dnls"}
    assert allowed >= {"numpy", "mpmath"}
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert _foreign(files, allowed) == {}


def test_tests_add_only_the_test_extras_and_their_helpers():
    files = sorted((ROOT / "tests").glob("*.py"))
    helpers = {p.stem for p in files}
    project = _project()
    allowed = (_names(project["dependencies"]) | _names(project["optional-dependencies"]["test"])
               | {"kundu_dnls"} | helpers)
    assert _foreign(files, allowed) == {}


@pytest.mark.parametrize("banned", ["scipy", "sympy"])
def test_neither_package_nor_tests_import(banned):
    # installed on some machines, but dependencies of neither
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")]:
        assert banned not in _imported(path), path.name
