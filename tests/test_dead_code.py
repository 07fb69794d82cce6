"""Every top-level name and every class member of ``src/`` is used in ``src/``.

A top-level function, class or constant of a module of the package
(``__init__.py`` aside, whose exports are not uses) must be read somewhere
in the package outside its own definition: as a name, as the attribute
of a module, or imported by another module (``import ... as`` included).
A method, property or annotated field of a top-level class (dunders aside),
and each attribute that its methods assign on ``self``, must be read as an
attribute somewhere in the package outside its own definition and its
assignments; being assigned is not being read.  What only tests call
belongs in ``tests/reference.py``.  A name or member kept on purpose
without a reader in ``src/`` is listed in EXEMPT with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qubit_reach"
EXEMPT = {
    # the closed-loop replay of acceptance criterion 8 and of the benchmark's
    # replay workload; no subcommand runs it
    "extremals.replay_extremal",
    # the benchmark's tracer reads it to size a sweep's output; only a change
    # to the benchmark may drop it
    "extremals.ExtremalSweep.data",
    # the tests read it, and a run report's refinement record will
    "reachset.ReachSweep.refine_rounds",
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


def members(tree: ast.Module):
    """(Class.member, member, lines) of each method, property, annotated
    field and attribute assigned on self of each top-level class, dunders
    excluded: lines are those of its definition and of its assignments."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        found = {}
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            found.setdefault(name, set()).update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for t in ast.walk(target):
                        if (isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                                and isinstance(t.value, ast.Name) and t.value.id == "self"):
                            found.setdefault(t.attr, set()).update(range(node.lineno, node.end_lineno + 1))
        for name, lines in found.items():
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{cls.name}.{name}", name, lines


def attribute_reads(tree: ast.Module):
    """(name, line) of each attribute read, ``x.name`` in a load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unused_members(modules: dict) -> list:
    """Module-qualified class members of ``modules`` (name -> source) that no
    module reads as an attribute outside their own definition."""
    trees = {mod: ast.parse(source) for mod, source in modules.items()}
    read = {mod: list(attribute_reads(tree)) for mod, tree in trees.items()}
    unused = []
    for mod, tree in trees.items():
        for qualname, name, lines in members(tree):
            if not any(
                used == name and (other != mod or line not in lines)
                for other, names in read.items()
                for used, line in names
            ):
                unused.append(f"{mod}.{qualname}")
    return unused


def src_modules() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def test_finder_sees_each_kind_of_use():
    modules = {
        "a": "X = 1\nY, Z = 2, 3\n\ndef f():\n    return f()\n\nclass C:\n    pass\n",
        "b": "from . import a\nfrom .a import C as D\n\ndef g():\n    return a.X + Z(D)\n",
    }
    # f calls only itself, Y and g have no reader
    assert unused_names(modules) == ["a.Y", "a.f", "b.g"]


def test_member_finder_sees_each_kind_of_use():
    modules = {
        "a": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass C:\n    x: int\n    y: int\n\n"
            "    def __post_init__(self):\n        self.y = self.x\n\n"
            "    def f(self):\n        return self.f()\n\n"
            "    @property\n    def p(self):\n        return 1\n\n"
            "    def g(self):\n        self.z = 2\n        self.w = self.w + 1\n"
            "        self.v = 0\n        return self.v\n"
        ),
        "b": "def h(c):\n    return c.p + c.g()\n",
    }
    # x is read in __post_init__, p and g in b, v in g; f reads only itself,
    # y and z are only assigned, w is read only in its own assignment, and
    # __post_init__ is a dunder
    assert unused_members(modules) == ["a.C.y", "a.C.f", "a.C.z", "a.C.w"]


def test_every_top_level_name_is_used_in_src():
    unused = set(unused_names(src_modules()))
    assert sorted(unused - EXEMPT) == []
    # an exemption that gained a caller is no longer one
    assert {name for name in EXEMPT if name.count(".") == 1} <= unused


def test_every_class_member_is_read_in_src():
    unused = set(unused_members(src_modules()))
    assert sorted(unused - EXEMPT) == []
    assert {name for name in EXEMPT if name.count(".") == 2} <= unused
