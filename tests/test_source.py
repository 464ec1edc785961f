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


def _spelled(node):
    """The names that each Name, Attribute and import alias under ``node`` spells."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def _unreferenced(sources):
    """(module, name) for each module-level function or class that nothing else spells.

    ``sources`` maps module names to their source text.  A definition is
    referenced where a Name, an Attribute or an import alias spells its name
    outside the definition itself and outside ``__init__``, which only
    re-exports.
    """
    defined, spelled_at = [], {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            owner = getattr(node, "name", None)  # set on def, async def and class statements
            if owner is not None:
                defined.append((module, owner))
            if module != "__init__":
                for name in _spelled(node):
                    spelled_at.setdefault(name, set()).add((module, owner))
    return [(module, name) for module, name in defined if not spelled_at.get(name, set()) - {(module, name)}]


def test_unreferenced_finds_what_only_itself_or_the_package_names():
    sources = {
        "__init__": "from .a import kept_by_init\nfrom . import b\nb.dead()\n",
        "a": ("from .b import used_by_import\nfrom . import b\n\n"
              "def recursive(n):\n    return recursive(n - 1) if n else b.by_attribute()\n\n"
              "def kept_by_init():\n    return used_by_import()\n\n"
              "class Called:\n    def method(self):\n        return Called()\n"),
        "b": "def used_by_import():\n    pass\n\ndef by_attribute():\n    pass\n\ndef dead():\n    pass\n",
    }
    assert _unreferenced(sources) == [("a", "recursive"), ("a", "kept_by_init"), ("a", "Called"), ("b", "dead")]


def test_every_function_and_class_in_src_is_referenced_exported_or_traced():
    # a helper that lost its last caller is deleted, not kept beside the path that runs
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    traced = {(module, name) for module, names in _tracer_table("FUNCTIONS").items() for name in names}
    found = [f"{module}.{name}" for module, name in _unreferenced(sources)
             if name not in pgfactor.__all__ and (module, name) not in traced]
    assert found == []
