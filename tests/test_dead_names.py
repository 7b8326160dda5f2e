"""Every function, class and module-level name under ``src/repro`` is
named somewhere else.

A function, method or class defined under ``src/repro``, or a name a
module assigns at its top level, must be named beyond its own
definitions: in Python code under ``src/``, ``tests/``,
``benchmarks/``, ``perfbench/`` or ``examples/``, in the README, or in
the CI workflows.  In code, a name counts where it is an identifier, an
attribute, a keyword argument, an imported name, or a word of a string
literal (the perfbench tracer names what it patches in strings).
Docstrings and comments do not count: a dead helper stays dead when a
neighbour's docstring mentions it.

A definition that appears no more often than it is defined has no
reader, and is deleted rather than kept.  Dunder names are read by the
interpreter and ``@register_executor`` functions through their
registry, so neither needs a reader by name.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples")
DOC_PATTERNS = ("README.md", ".github/workflows/*.yml")
WORD = re.compile(r"[A-Za-z_]\w*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> set[ast.AST]:
    """The string constants of *tree* that are docstrings."""
    return {node.body[0].value for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS))
            and ast.get_docstring(node, clean=False) is not None}


def _names(tree: ast.AST) -> collections.Counter:
    """Every identifier token of *tree*, docstrings left out."""
    docstrings = _docstrings(tree)
    names: collections.Counter = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, *FUNCTIONS)):
            names[node.name] += 1
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            names[node.arg] += 1
        elif isinstance(node, ast.alias):
            names.update(WORD.findall(node.name))
            if node.asname:
                names[node.asname] += 1
        elif (isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and node not in docstrings):
            names.update(WORD.findall(node.value))
    return names


def _is_executor(function: ast.AST) -> bool:
    for decorator in function.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        name = (target.attr if isinstance(target, ast.Attribute)
                else getattr(target, "id", None))
        if name == "register_executor":
            return True
    return False


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def functions(tree: ast.Module):
    """The functions and methods *tree* defines, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS) and not _is_executor(node):
            yield node.name


def classes_and_module_names(tree: ast.Module):
    """The classes *tree* defines, at any depth, and the targets of its
    top-level assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id


def dead_names(definitions, root: pathlib.Path = ROOT) -> list[str]:
    """The names *definitions* finds under *root*'s package that
    nothing names beyond their own definitions."""
    defined: collections.Counter = collections.Counter()
    named: collections.Counter = collections.Counter()
    package = root / "src" / "repro"
    for directory in CODE_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            named.update(_names(tree))
            if package in path.parents:
                defined.update(name for name in definitions(tree)
                               if not _is_dunder(name))
    for pattern in DOC_PATTERNS:
        for path in root.glob(pattern):
            named.update(WORD.findall(path.read_text()))
    assert defined, f"nothing defined under {package}"
    return sorted(name for name, count in defined.items()
                  if named[name] <= count)


def test_every_function_is_named_beyond_its_definitions():
    dead = dead_names(functions)
    assert not dead, (f"functions named nowhere but in their own "
                      f"definitions (delete them): {dead}")


def test_every_class_and_module_name_is_named_beyond_its_definitions():
    dead = dead_names(classes_and_module_names)
    assert not dead, (f"classes and module-level names read nowhere but "
                      f"in their own definitions (delete them): {dead}")
