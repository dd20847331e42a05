import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"


def _imported_modules(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_oracles_import_nothing_from_the_package():
    """The brute-force oracles must stay an independent path to every claim."""
    modules = _imported_modules(ast.parse(ORACLES.read_text()))
    assert modules, "expected the oracles to import at least the stdlib"
    offending = [m for m in modules if m.split(".")[0] == "starperm"]
    assert not offending, offending
