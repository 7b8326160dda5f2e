"""Every function under ``src/repro`` is named somewhere else.

A function or method defined under ``src/repro`` must be named beyond
its own definitions: in Python code under ``src/``, ``tests/``,
``benchmarks/``, ``perfbench/`` or ``examples/``, in the README, or in
the CI workflows.  In code, a name counts where it is an identifier, an
attribute, a keyword argument, an imported name, or a word of a string
literal (the perfbench tracer names what it patches in strings).
Docstrings and comments do not count: a dead helper stays dead when a
neighbour's docstring mentions it.

A function that appears no more often than it is defined has no
caller, and is deleted rather than kept.  Dunder methods are called by
the interpreter and ``@register_executor`` functions through their
registry, so neither needs a caller by name.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
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


def _needs_a_caller(node: ast.AST) -> bool:
    return (isinstance(node, FUNCTIONS)
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))
            and not _is_executor(node))


def test_every_function_is_named_beyond_its_definitions():
    defined: collections.Counter = collections.Counter()
    named: collections.Counter = collections.Counter()
    for directory in CODE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            named.update(_names(tree))
            if PACKAGE in path.parents:
                defined.update(node.name for node in ast.walk(tree)
                               if _needs_a_caller(node))
    for pattern in DOC_PATTERNS:
        for path in ROOT.glob(pattern):
            named.update(WORD.findall(path.read_text()))
    assert defined, f"no functions found under {PACKAGE}"
    dead = sorted(name for name, count in defined.items()
                  if named[name] <= count)
    assert not dead, (f"functions named nowhere but in their own "
                      f"definitions (delete them): {dead}")
