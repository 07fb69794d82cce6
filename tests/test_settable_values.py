"""The number of settable values in ``src/``.

A settable value is a function parameter with a default or a dataclass
field with a default, other than ``field(init=False)``.  Each one is a
configuration that tests and benchmarks would have to cover, so a value
that no caller sets is a module constant instead.  A change that adds or
removes one updates SETTABLE_VALUES and says why.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qubit_reach"
# 32: AffineField.name and the name of bracket, which no caller read, and
# the defaults of rank_grid's n and SpiralRegion.arcs' n, which every caller
# passes, are gone
# 31: the tol of ode.integrate, which only tests called, left with it for
# tests/reference.py
# 30: ControlSchedule.from_csv needs its params, which every caller passes:
# scaled times and the default |u| cap both read them
# 28: the width of svg._path and the n_angles of revolve_to_3d, which only
# tests left unset: figure passes both stroke widths, and the CLI and the
# benchmark pass the revolution angles
# 14: defaults that every caller outside the tests overrides, and an input
# no src caller gives, are gone: ReachSweep's n_seeds and raster,
# build_table's n_seeds, T_max_scaled and grid_resolution, the scaled, duration
# and u_max of ControlSchedule.from_csv with ControlSchedule.T, the fields of
# rank_certificate, SystemParams' omega, kappa and gamma, and barrier_values' rho
# 9: defaults that every non-test caller overrides are gone: the sample_dt of
# sweep_extremals and of integrate_extremal, the spiral_arcs and title of
# svg.figure and the spiral of svg.reachset_figure
SETTABLE_VALUES = 9


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(st, ast.AnnAssign) and st.value is not None and not _init_false(st.value)
                for st in node.body
            )
    return count


def test_counter_sees_each_kind_of_value():
    source = """
from dataclasses import dataclass, field

@dataclass(frozen=True)
class A:
    x: int
    y: int = 1
    z: list = field(default_factory=list)
    w: int = field(init=False)

def f(a, b=1, *, c, d=2):
    def g(e=3):
        pass
"""
    assert settable_values(source) == 5


def test_settable_value_count():
    total = sum(settable_values(p.read_text()) for p in sorted(SRC.glob("*.py")))
    assert total == SETTABLE_VALUES
