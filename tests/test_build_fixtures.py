"""The oracles in scripts/build_fixtures.py gate the library, so they must
not use it: the script may import nothing from revprime."""

import ast
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_fixtures.py"


def _revprime_imports(source: str) -> list[str]:
    """Every import of revprime in the source: import statements, and
    importlib.import_module / __import__ calls with a literal name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            names = [str(node.args[0].value)] if called in ("import_module", "__import__") else []
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "revprime"]
    return found


@pytest.mark.parametrize("source", [
    "import revprime",
    "import numpy, revprime.sieve as s",
    "from revprime import sieve",
    "from revprime.digits import reverse",
    "def f():\n    import revprime.cli",
    "import importlib\nimportlib.import_module('revprime.sieve')",
    "__import__('revprime')",
])
def test_detector_finds_each_form(source):
    assert _revprime_imports(source)


def test_detector_ignores_lookalikes():
    assert _revprime_imports("import revprime_oracle\nfrom . import revprimes\nprint('revprime')") == []


def test_fixture_oracles_do_not_import_revprime():
    assert _revprime_imports(SCRIPT.read_text()) == []
