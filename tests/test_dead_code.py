"""Every top-level name of ``src/`` is used in ``src/``.

A top-level function, class or constant of a module of the package
(``__init__.py`` aside, whose exports are not uses) must be read somewhere
in the package outside its own definition: as a name, as the attribute
of a module, or imported by another module (``import ... as`` included).
A name that only tests call belongs in ``tests/reference.py``.  A name
kept on purpose without a caller in ``src/`` is listed in EXEMPT with its
reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qubit_reach"
EXEMPT = {
    # the closed-loop replay of acceptance criterion 8 and of the benchmark's
    # replay workload; no subcommand runs it
    "extremals.replay_extremal",
}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def uses(tree: ast.Module):
    """(name, line) of each name, attribute and import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def unused_names(modules: dict) -> list:
    """Module-qualified top-level names of ``modules`` (name -> source) that
    no module reads outside their own definition."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    read = {mod: list(uses(tree)) for mod, tree in trees.items()}
    unused = []
    for mod, tree in trees.items():
        for name, first, last in definitions(tree):
            if not any(
                used == name and (other != mod or not first <= line <= last)
                for other, names in read.items()
                for used, line in names
            ):
                unused.append(f"{mod}.{name}")
    return unused


def test_finder_sees_each_kind_of_use():
    modules = {
        "a": "X = 1\nY, Z = 2, 3\n\ndef f():\n    return f()\n\nclass C:\n    pass\n",
        "b": "from . import a\nfrom .a import C as D\n\ndef g():\n    return a.X + Z(D)\n",
    }
    # f calls only itself, Y and g have no reader
    assert unused_names(modules) == ["a.Y", "a.f", "b.g"]


def test_every_top_level_name_is_used_in_src():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert sorted(set(unused_names(modules)) - EXEMPT) == []
    # an exemption that gained a caller is no longer one
    assert EXEMPT <= set(unused_names(modules))
