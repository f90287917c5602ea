"""Static checks on the package source that stand in for a linter."""

import ast
import importlib
import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import loracell

SOURCES = sorted(Path(loracell.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def unread_parameters(tree: ast.AST) -> list[str]:
    """``function: parameter`` for every parameter a private function never reads.

    A private function or method is one whose name starts with ``_``.
    ``self`` and ``cls`` are exempt; a read inside a nested function or
    lambda counts.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("_"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *(a for a in (args.vararg, args.kwarg) if a is not None)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}: {p.arg}" for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_functions_read_every_parameter(path):
    assert unread_parameters(ast.parse(path.read_text(), filename=str(path))) == []


def test_unread_parameter_is_reported():
    tree = ast.parse("def _f(a, b, *, c, **kw):\n    return a + (lambda: c)()\n"
                     "def public(unused):\n    pass\n"
                     "class _C:\n    def _m(self, x):\n        pass\n")
    assert unread_parameters(tree) == ["_f: b", "_f: kw", "_m: x"]


def unreferenced_private_functions(trees: dict[str, ast.AST]) -> list[str]:
    """``module: function`` for every private module-level function that no
    code in ``trees`` names outside its own ``def``.

    A name counts as a reference wherever it is read, as a plain name or as
    an attribute (``module._f``); an import alone is not a use.
    """
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    used = _referenced_names(trees)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def _referenced_names(trees: dict[str, ast.AST]) -> set[str]:
    """Every name that code in ``trees`` reads, as a plain name or as an
    attribute, outside the module-level statement that defines that name."""
    used = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            for n in ast.walk(top):
                name = (n.id if isinstance(n, ast.Name)
                        else n.attr if isinstance(n, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert unreferenced_private_functions(trees) == []


def unreferenced_public_functions(trees: dict[str, ast.AST], exported) -> list[str]:
    """``module: function`` for every public module-level function that no code
    in ``trees`` names outside its own ``def`` and that ``exported`` does not list.

    References count as for :func:`unreferenced_private_functions`.
    """
    used = _referenced_names(trees) | set(exported)
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in used]


def test_every_public_function_is_read_or_exported():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert unreferenced_public_functions(trees, loracell.__all__) == []


def test_unread_public_function_is_reported():
    trees = {"a.py": ast.parse("def used():\n    pass\n"
                               "def exported():\n    pass\n"
                               "def recursive():\n    return recursive()\n"
                               "def only_imported():\n    pass\n"
                               "def _private():\n    pass\n"),
             "b.py": ast.parse("from a import only_imported\nimport a\na.used()\n")}
    assert unreferenced_public_functions(trees, ["exported"]) == [
        "a.py: recursive", "a.py: only_imported"]


def test_unreferenced_private_function_is_reported():
    trees = {"a.py": ast.parse("def _used():\n    pass\n"
                               "def _dead():\n    return _dead()\n"
                               "def _only_imported():\n    pass\n"
                               "def public():\n    pass\n"),
             "b.py": ast.parse("from a import _only_imported\nimport a\na._used()\n")}
    assert unreferenced_private_functions(trees) == ["a.py: _dead", "a.py: _only_imported"]


def unreferenced_private_methods(trees: dict[str, ast.AST]) -> list[str]:
    """``module: Class.method`` for every method of a private module-level
    class that no code in ``trees`` reads outside the method's own ``def``.

    A read counts as for :func:`unreferenced_private_functions`, as a plain
    name or as an attribute (``self.m``, ``_C.m``); dunder methods are exempt.
    """
    def reads(root) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(root)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load))

    total = sum((reads(tree) for tree in trees.values()), Counter())
    return [f"{module}: {cls.name}.{node.name}"
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("__")
            and total[node.name] == reads(node)[node.name]]


def test_every_private_class_method_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert unreferenced_private_methods(trees) == []


def test_unreferenced_private_method_is_reported():
    trees = {"a.py": ast.parse("class _C:\n"
                               "    def __init__(self):\n        self.used()\n"
                               "    def used(self):\n        pass\n"
                               "    def dead(self):\n        return self.dead()\n"
                               "    def stored_only(self):\n        self.stored_only = 1\n"
                               "    def from_class(self):\n        pass\n"
                               "class Public:\n    def unread(self):\n        pass\n"),
             "b.py": ast.parse("from a import _C\nhandler = _C.from_class\n")}
    assert unreferenced_private_methods(trees) == ["a.py: _C.dead", "a.py: _C.stored_only"]


def unreferenced_private_constants(trees: dict[str, ast.AST]) -> list[str]:
    """``module: name`` for every private module-level name that is assigned
    but that no code in ``trees`` reads.

    A name counts as read wherever it is loaded, as a plain name or as an
    attribute (``module._X``); an import alone is not a use.
    """
    assigned = dict.fromkeys(
        (module, n.id) for module, tree in trees.items() for top in tree.body
        if isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (top.targets if isinstance(top, ast.Assign) else [top.target])
        for n in ast.walk(target)
        if isinstance(n, ast.Name) and n.id.startswith("_") and not n.id.startswith("__"))
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{module}: {name}" for module, name in assigned if name not in read]


def test_every_private_constant_is_read():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert unreferenced_private_constants(trees) == []


def test_unread_private_constant_is_reported():
    trees = {"a.py": ast.parse("_USED = 1\n_DEAD = 2\n_ONLY_IMPORTED = 3\n_A, _B = 4, 5\n"
                               "PUBLIC = 6\n__all__ = []\n"
                               "def f():\n    _local = 7\n    return _USED + _A\n"),
             "b.py": ast.parse("from a import _ONLY_IMPORTED\nimport a\nprint(a._B)\n"
                               "_ANNOTATED: int = 8\n_COUNT = 0\n_COUNT += 1\n")}
    assert unreferenced_private_constants(trees) == [
        "a.py: _DEAD", "a.py: _ONLY_IMPORTED", "b.py: _ANNOTATED", "b.py: _COUNT"]


def resolve(name: str, namespace: dict | None = None):
    """The object that the dotted ``name`` names, None if there is none.

    The first part is looked up in ``namespace`` when it is there; otherwise
    the longest importable prefix is imported and the rest read as attributes.
    """
    parts = name.split(".")
    if namespace is not None and parts[0] in namespace:
        obj, rest = namespace[parts[0]], parts[1:]
    else:
        for i in range(len(parts), 0, -1):
            try:
                obj, rest = importlib.import_module(".".join(parts[:i])), parts[i:]
                break
            except ImportError:
                pass
        else:
            return None
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


#: A Sphinx cross-reference in a docstring, and what its target must be.
ROLE = re.compile(r":(func|class|mod):`~?([^`]+)`")
ROLE_KINDS = {"func": inspect.isroutine, "class": inspect.isclass, "mod": inspect.ismodule}


def unresolved_docstring_references(source: str, namespace: dict) -> list[str]:
    """Every ``:func:``, ``:class:`` or ``:mod:`` reference in a docstring of
    ``source`` that names no object of its kind; a plain name is looked up in
    ``namespace``, the module's own, and a dotted one is imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for role, name in ROLE.findall(ast.get_docstring(node, clean=False) or ""):
                if not ROLE_KINDS[role](resolve(name, namespace)):
                    found.append(f":{role}:`{name}`")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_references_resolve(path):
    module = loracell if path.stem == "__init__" else importlib.import_module(
        f"loracell.{path.stem}")
    assert unresolved_docstring_references(path.read_text(), vars(module)) == []


def test_unresolved_docstring_reference_is_reported():
    source = ('"""See :mod:`json`, :func:`json.dumps` and :func:`missing`."""\n'
              'def f():\n    """:class:`f` is no class; :func:`f` and :class:`~pathlib.Path`."""\n')
    assert unresolved_docstring_references(source, {"f": len}) == [
        ":func:`missing`", ":class:`f`"]


#: An inline code span that names a dotted object, maybe with call arguments.
DOTTED_SPAN = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`]*\))?`")


def unresolved_readme_references(text: str) -> list[str]:
    """Every inline ``module.name`` span of ``text`` that starts with a loracell
    module (``metrics.delays``, ``loracell.run``) or a standard-library one
    (``pathlib.Path``) and names nothing.  Fenced code blocks are skipped:
    ``tests/test_readme.py`` runs them."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    modules = {"loracell"} | {path.stem for path in SOURCES if path.stem != "__init__"}
    found = []
    for name in DOTTED_SPAN.findall(text):
        head = name.split(".")[0]
        if head in modules:
            target = name if head == "loracell" else f"loracell.{name}"
        elif head in sys.stdlib_module_names:
            target = name
        else:
            continue
        if resolve(target) is None:
            found.append(name)
    return found


def test_readme_references_resolve():
    assert unresolved_readme_references(README.read_text()) == []


def test_unresolved_readme_reference_is_reported():
    text = ("`optimize.gone` and `metrics.delays(state, cfg)`, `pathlib.Path`, "
            "`pathlib.Gone`, `figure.csv`\n```python\nanalytic.gone()\n```\n")
    assert unresolved_readme_references(text) == ["optimize.gone", "pathlib.Gone"]
