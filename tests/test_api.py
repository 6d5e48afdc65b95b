"""Every public name of ``metaring`` has a caller besides its own unit tests.

A name that ``metaring/__init__.py`` imports counts as called when it is
referenced (as a name, an attribute, an import or inside an annotation) by
another ``src/metaring`` module, by the acceptance suite or by a file of
``perfbench/``.  So does every public method or property of a class the
package defines, where one of those files reads it as an attribute
(``x.name``); a parameter or local of the same name does not count.  Its own
module counts too, outside the method's own definition.  API that only its
unit tests reach is deleted instead.  Every module-level constant (an
all-caps name) is read by some package module.  Every option (a defaulted
parameter) of an exported function is set by one of those calls and left at
its default by another.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metaring"


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced_names(tree: ast.AST) -> set:
    """Names that ``tree`` references."""
    names = set()
    nodes = [tree]
    while nodes:
        node = nodes.pop()
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


def attribute_reads(tree: ast.AST, skip: ast.AST = None) -> set:
    """Names that ``tree`` reads as attributes, leaving out the subtree ``skip``."""
    names = set()
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        if node is not skip:
            nodes.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
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
    names = {path: attribute_reads(tree) for path, tree in trees.items()}
    uncalled = []
    for path in MODULES:
        elsewhere = set().union(*(found for other, found in names.items() if other != path))
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                        and method.name not in elsewhere
                        and method.name not in attribute_reads(trees[path], method)):
                    uncalled.append(f"{cls.name}.{method.name}")
    assert uncalled == []


def test_every_module_constant_is_read():
    trees = {path: parsed(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        for statement in tree.body:
            targets = (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
            for target in targets:
                for node in ast.walk(target):
                    if (isinstance(node, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", node.id)
                            and node.id not in read):
                        unread.append(f"{path.name}:{node.id}")
    assert unread == []


def option_calls() -> dict:
    """``function(option)`` for each option of an exported function, mapped to one
    flag per call of the function in a caller: whether that call sets the option.

    A defaulted parameter of an exported function is an option.  A call sets it
    by position or keyword; a ``*`` splat sets every positional parameter and a
    ``**`` splat every option.
    """
    callers = [path for path in MODULES if path.name != "__init__.py"] + OUTSIDE
    calls = [node for path in callers for node in ast.walk(parsed(path))
             if isinstance(node, ast.Call)]
    exported, found = exported_names(), {}
    for path in MODULES:
        for function in parsed(path).body:
            if not (isinstance(function, ast.FunctionDef) and function.name in exported):
                continue
            spec = function.args
            positional = [arg.arg for arg in spec.posonlyargs + spec.args]
            options = positional[len(positional) - len(spec.defaults):] + [
                arg.arg for arg, default in zip(spec.kwonlyargs, spec.kw_defaults) if default]
            sets = []
            for call in calls:
                if function.name not in (getattr(call.func, "id", None),
                                         getattr(call.func, "attr", None)):
                    continue
                passed = set(positional[:len(call.args)])
                if any(isinstance(arg, ast.Starred) for arg in call.args):
                    passed.update(positional)
                for keyword in call.keywords:
                    passed.update(options if keyword.arg is None else [keyword.arg])
                sets.append(passed)
            found.update({f"{function.name}({option})": [option in passed for passed in sets]
                          for option in options})
    return found


def test_every_option_is_set_by_a_caller():
    assert [option for option, set_by in option_calls().items() if not any(set_by)] == []


def test_every_option_default_is_used_by_a_caller():
    # an option that every call sets has a default only unit tests use
    assert [option for option, set_by in option_calls().items() if all(set_by)] == []
