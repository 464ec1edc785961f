import ast
import importlib
import importlib.util
from pathlib import Path

import pgfactor
from pgfactor.poly import IntPolynomial

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pgfactor"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_assert_in_src():
    # python -O strips assert statements, so invariants in src/ must raise explicitly
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _tracer_table(name):
    # bench/tracer.py is parsed, not imported, so tier-1 needs nothing from bench/
    tracer = PACKAGE.parent.parent / "bench" / "tracer.py"
    for node in _parse(tracer).body:
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


def _imported_from(importer, module):
    """Names that pgfactor's ``importer`` module imports from its ``module``."""
    return {
        alias.name
        for node in ast.walk(_parse(PACKAGE / f"{importer}.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
        for alias in node.names
    }


def test_oracle_imports_only_hall_mobius_from_mobius():
    # the routes share as little code as they can: the oracle reads its
    # Frattini images off the HNF rows itself, not through mobius._echelon
    assert _imported_from("oracle", "mobius") == {"hall_mobius"}


def test_cli_holds_no_census_maths():
    # verify's census rows come whole from mobius.verify_census
    assert _imported_from("cli", "mobius") == {"factorization_count_mobius", "verify_census"}
    found = [
        f"cli.py:{node.lineno} {node.value!r}"
        for node in ast.walk(_parse(PACKAGE / "cli.py"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("census_")
    ]
    assert found == []


def test_package_exports_what_its_callers_import():
    # the benchmark, the README's Library example and tests/conftest.py import
    # these from the package; everything else is imported from its module
    assert sorted(pgfactor.__all__) == [
        "DEFAULT_MAX_ORDER", "GroupTooLarge", "GroupType", "InexactDivision", "IntPolynomial",
        "NegativeExponent", "P", "all_subgroups", "build_group", "count_factorizations",
        "factorization_count", "factorization_count_mobius", "oracle_factorizations",
        "parse_type", "subgroup_count",
    ]


def test_package_names_the_benchmark_reads_resolve():
    # bench/ is parsed, not imported: every pgf.<name> it reads (also as
    # self._pgf or self._package) must be a package name or a submodule
    bench = PACKAGE.parent.parent / "bench"
    paths = sorted(bench.glob("*.py")) + sorted(bench.glob("tests/*.py"))
    read = {
        node.attr
        for path in paths
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", getattr(node.value, "attr", None)) in ("pgf", "_pgf", "_package")
    }
    assert {"GroupType", "parse_type", "cli", "mobius"} <= read
    missing = sorted(
        name for name in read
        if not hasattr(pgfactor, name) and importlib.util.find_spec(f"pgfactor.{name}") is None
    )
    assert missing == []


def test_only_cli_builds_the_verify_row():
    # a verify check travels as a (name, expected, actual) triple; only cli,
    # which prints the JSON row, spells out its status keys and values
    found = [
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Constant) and node.value in ("status", "pass", "fail")
    ]
    assert found == []


def _import_time_imports(tree):
    """(line, top-level module) for each import that runs when the module is loaded, not inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_loads_dataclasses_typing_json_or_inspect():
    # every command starts a fresh process: dataclasses alone pulls in
    # inspect, dis, tokenize and ast, and json is read only by the JSON
    # writer, which imports it itself; records are named tuples or plain
    # classes, and a canonical basis is its tuple of rows
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    found = [
        f"{path.name}:{line} {module}"
        for path in modules
        for line, module in _import_time_imports(_parse(path))
        if module in ("dataclasses", "typing", "json", "inspect")
    ]
    assert found == []
