"""The error contract: every exception the library raises is an InputError (exit 2),
a ParseError (an InputError with a line number) or a NumericalError (exit 3).

Any other exception type would reach the command line as a traceback with exit 1.
"""

import ast
import pathlib

import gridmorph
from gridmorph import errors

SRC = pathlib.Path(gridmorph.__file__).parent
BRANCHES = {"InputError", "NumericalError", "ParseError"}
# (module, enclosing function, raised name): the lazy root's AttributeError is Python's own
# protocol, and write_blocks (the SVG and dataset writer) re-raises whatever interrupted it after
# removing its partial file
EXEMPT = {("__init__.py", "__getattr__", "AttributeError"), ("formats.py", "write_blocks", None)}


def raised_names(tree: ast.AST, function: str = ""):
    """(enclosing function, name raised) for every raise statement; None for a bare raise."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from raised_names(node, node.name)
            continue
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield function, None if exc is None else ast.unparse(exc)
        yield from raised_names(node, function)


def test_every_raise_names_an_error_branch():
    strays = set()
    for path in sorted(SRC.glob("*.py")):
        for function, name in raised_names(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in BRANCHES:
                strays.add((path.name, function, name))
    assert strays == EXEMPT


def test_errors_module_defines_only_the_branches():
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"GridmorphError", *BRANCHES}
    assert issubclass(errors.InputError, errors.GridmorphError)
    assert issubclass(errors.NumericalError, errors.GridmorphError)
    assert issubclass(errors.ParseError, errors.InputError)
    assert not issubclass(errors.InputError, errors.NumericalError)
    assert not issubclass(errors.NumericalError, errors.InputError)
