"""Every function, method and property of the package is read by package
code, or is named below with the outside caller that keeps it.  A name
that only tests reach is code kept for its own unit tests.

A use is a name (``f``) or an attribute (``obj.f``) anywhere in
``src/fermiqc``; a method also counts as used when any attribute shares its
name, so the scan can miss a dead method but never flags a live one.
Dunder methods are called implicitly and are not scanned.

No module of the package, the tests or the tools imports a name it never
reads.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "fermiqc"

# file that uses the name -> {name: why it stays}
ENTRY_POINTS = {
    "perfbench/spans.py": {
        "commute_and_cancel": "the tracer patches it as an optimizer span",
        "FermionOperator.products": "the tracer counts and hashes the products",
        "TrotterPlan.ordered_terms": "the tracer counts the terms a plan applies",
    },
    "tools/make_fixtures.py": {
        "write_fcidump": "writes the bundled fixtures",
        "IntegralSet.validate": "checks the generated integrals' symmetry",
    },
    "src/fermiqc/cli.py": {  # registered by @main.command, never called by name
        "map_cmd": "`fermiqc map`",
        "compile_cmd": "`fermiqc compile`",
        "optimize_cmd": "`fermiqc optimize`",
        "bench_cmd": "`fermiqc bench`",
        "trotter_error_cmd": "`fermiqc trotter-error`",
    },
    "README.md": {  # documented library API
        "Circuit.from_gates": "builds a circuit from a hand-written Gate list",
        "FermionOperator.from_products": "builds an operator from a product list",
        "H": "gate constructor for hand-written circuits",
        "X": "gate constructor for hand-written circuits",
        "YB": "gate constructor for hand-written circuits",
        "YBD": "gate constructor for hand-written circuits",
        "CNOT": "gate constructor for hand-written circuits",
        "reference_energy": "reads the energy a bundled fixture records",
    },
}
ALLOWED = {name: (source, why) for source, names in ENTRY_POINTS.items()
           for name, why in names.items()}


def unused_names() -> set[str]:
    """Module functions and ``Class.method`` names no package code uses."""
    defs: dict[str, str] = {}  # qualified name -> bare name
    names: set[str] = set()
    attrs: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        defs[f"{node.name}.{sub.name}"] = sub.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return {q for q, name in defs.items()
            if name not in attrs and ("." in q or name not in names)}


def test_no_name_is_reached_only_from_tests():
    assert sorted(unused_names() - set(ALLOWED)) == []


def test_entry_points_are_current():
    # Each listed name is still defined, still unused by the package, and
    # still used where the list says.
    assert sorted(set(ALLOWED) - unused_names()) == []
    for name, (source, _) in ALLOWED.items():
        bare = name.rsplit(".", 1)[-1]
        assert re.search(rf"\b{bare}\b", (REPO / source).read_text()), (name, source)


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; ``__all__`` entries are read."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}  # bound name -> line
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(REPO)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    paths = [p for d in (PACKAGE, REPO / "tests", REPO / "tools") for p in sorted(d.rglob("*.py"))]
    assert [hit for p in paths for hit in unused_imports(p)] == []
