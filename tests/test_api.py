"""Every public name of ``metaring`` has a caller besides its own unit tests.

A name that ``metaring/__init__.py`` imports counts as called when it is
referenced (as a name, an attribute, an import or inside an annotation) by
another ``src/metaring`` module, by the acceptance suite or by a file of
``perfbench/``.  API that only its unit tests reach is deleted instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metaring"


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names(path: Path) -> set:
    names = set()
    trees = [ast.parse(path.read_text())]
    while trees:
        for node in ast.walk(trees.pop()):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
                # a string annotation names its types inside the string
                for annotation in (getattr(node, "annotation", None),
                                   getattr(node, "returns", None)):
                    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                        trees.append(ast.parse(annotation.value, mode="eval"))
    return names


def test_every_export_has_a_caller():
    callers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    referenced = set().union(*(referenced_names(path) for path in callers))
    assert sorted(exported_names() - referenced) == []
