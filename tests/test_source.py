import ast
import importlib
from pathlib import Path

import pgfactor
from pgfactor.poly import IntPolynomial

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


def _tracer_table(name):
    # bench/tracer.py is parsed, not imported, so tier-1 needs nothing from bench/
    tracer = PACKAGE.parent.parent / "bench" / "tracer.py"
    for node in ast.parse(tracer.read_text(), filename=str(tracer)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {tracer}")


def test_names_the_benchmark_tracer_wraps_exist():
    missing = [
        f"{module}.{name}"
        for module, names in _tracer_table("FUNCTIONS").items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pgfactor.{module}"), name, None))
    ]
    missing += [f"IntPolynomial.{name}" for name in _tracer_table("POLY_METHODS")
                if name not in IntPolynomial.__dict__]
    assert missing == []


def test_public_names_resolve():
    assert [name for name in pgfactor.__all__ if not hasattr(pgfactor, name)] == []


def test_oracle_imports_only_hall_mobius_from_mobius():
    # the routes share as little code as they can: the oracle reads its
    # Frattini images off the HNF rows itself, not through mobius._echelon
    path = PACKAGE / "oracle.py"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "mobius"
        for alias in node.names
    }
    assert imported == {"hall_mobius"}


def test_only_cli_builds_the_verify_row():
    # a verify check travels as a (name, expected, actual) triple; only cli,
    # which prints the JSON row, spells out its status keys and values
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ("status", "pass", "fail")
    ]
    assert found == []


def test_mobius_imports_nothing_from_dataclasses():
    # a canonical basis is its tuple of rows, with no record around it
    path = PACKAGE / "mobius.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
        or (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
    ]
    assert imported == []
