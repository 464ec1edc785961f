import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pgfactor"


def test_no_assert_in_src():
    # python -O strips assert statements, so invariants in src/ must raise explicitly
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
