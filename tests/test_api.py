"""Every public name of ``metaring`` has a caller besides its own unit tests.

A name that ``metaring/__init__.py`` imports counts as called when it is
referenced (as a name, an attribute, an import or inside an annotation) by
another ``src/metaring`` module, by the acceptance suite or by a file of
``perfbench/``.  So does every public method or property of a class the
package defines; its own module counts too, outside the method's own
definition.  API that only its unit tests reach is deleted instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metaring"


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names that ``tree`` references, leaving out the subtree ``skip``."""
    names = set()
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if node is skip:
            continue
        nodes.extend(ast.iter_child_nodes(node))
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
                    nodes.append(ast.parse(annotation.value, mode="eval"))
    return names


def parsed(path: Path) -> ast.AST:
    return ast.parse(path.read_text())


MODULES = sorted(PACKAGE.glob("*.py"))
OUTSIDE = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_export_has_a_caller():
    callers = [path for path in MODULES if path.name != "__init__.py"] + OUTSIDE
    referenced = set().union(*(referenced_names(parsed(path)) for path in callers))
    assert sorted(exported_names() - referenced) == []


def test_every_public_method_and_property_has_a_caller():
    trees = {path: parsed(path) for path in MODULES + OUTSIDE}
    names = {path: referenced_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in MODULES:
        elsewhere = set().union(*(found for other, found in names.items() if other != path))
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                        and method.name not in elsewhere
                        and method.name not in referenced_names(trees[path], method)):
                    uncalled.append(f"{cls.name}.{method.name}")
    assert uncalled == []
