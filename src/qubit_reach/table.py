"""First-passage lookup table (z1, R1) -> (psi0, theta0, T_min).

The sweep of extremals from (z, R) = (0, 1) is recorded on a grid over
the unit half-disc: each cell stores the seed of the earliest extremal
passing through it and the scaled first-passage time.  Optimal controls
to a target are then recovered by replaying the stored seed, no fresh
two-point boundary solve required.

A table of grid n is the R >= 0 half of the n-cell raster of ReachSweep:
its column j is raster column n // 2 + j.  The build bins points at |R| with
reachset.folded_cell, and query with its one-point twin LookupTable.cell_of:
a point on an edge goes to the cell above it.  Like the raster, the build
reads only the samples whose step nodes may enter a cell not yet entered,
and it returns the sweep's freed heap to the system when it is done.

File format: versioned CSV, diffable and language neutral.

    #qubit-reach-table v1 gamma_ratio=<val> grid=<N>
    i,j,psi0,theta0,Tmin

Empty cells are omitted.  Floats are written with repr so a save/load
round trip is lossless and byte identical.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .extremals import seed_grid, sweep_extremals_parallel
from .params import SystemParams
from .reachset import (
    BIN_BLOCK, NO_PASSAGE, READ_COLS, SWEEP_TOL, first_passage, folded_cell, node_boxes,
    sample_spacing, unsettled,
)

MAGIC = "#qubit-reach-table v1"
MAX_GRID = 4096  # largest grid a table may have; its arrays then take about 210 MB
MIN_SEEDS = 256  # fewest seeds of a table sweep
SEARCH_CELLS = 2  # Chebyshev radius of the nearest-cell fallback of query


class UnreachableError(ValueError):
    """No recorded extremal passes near the queried target."""


@dataclass
class LookupTable:
    """Grid over the half-disc [-1,1] x [0,1] with square cells 2/grid_n.

    Arrays are indexed [i, j] with i the z cell and j the R cell.  A cell
    is nonempty when its tmin is finite.  A new table has every cell empty.
    """

    gamma_ratio: float
    grid_n: int
    psi0: np.ndarray = field(init=False)
    theta0: np.ndarray = field(init=False)
    tmin: np.ndarray = field(init=False)

    def __post_init__(self):
        nz, nr = self.grid_n, self.grid_n // 2
        self.psi0 = np.zeros((nz, nr))
        self.theta0 = np.zeros((nz, nr))
        self.tmin = np.full((nz, nr), np.inf)

    @property
    def mask(self) -> np.ndarray:
        """The nonempty cells, read-only: a cell is set through tmin."""
        mask = self.tmin < np.inf
        mask.flags.writeable = False
        return mask

    @property
    def cell(self) -> float:
        return 2.0 / self.grid_n

    def cell_of(self, z: float, R: float) -> tuple[int, int]:
        # reachset.folded_cell on one point with R >= 0, in Python floats
        n, inv = self.grid_n, 1.0 / (2.0 / self.grid_n)
        i = int(min(max((z + 1.0) * inv, 0), n - 1))
        j = int(min(max((R + 1.0) * inv, n // 2), n - 1)) - n // 2
        return i, j

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        return -1.0 + (i + 0.5) * self.cell, (j + 0.5) * self.cell

    def records(self):
        """Iterate nonempty cells as (i, j, psi0, theta0, tmin)."""
        cells = np.nonzero(self.mask)
        yield from zip(
            *(c.tolist() for c in cells),
            self.psi0[cells].tolist(), self.theta0[cells].tolist(), self.tmin[cells].tolist(),
        )


def build_table(
    params: SystemParams,
    n_seeds: int = 4096,
    T_max_scaled: float = 10.0,
    grid_resolution: int = 256,
    n_threads: int = 1,
) -> LookupTable:
    """Sweep extremals and record the first passage through every cell.

    Ties between extremals entering a cell at the same sampled time are
    broken toward the lower seed index, deterministically.  Unreached
    cells stay empty.  Requires n_seeds >= MIN_SEEDS so the angular spacing of
    the sweep stays below the cell size of sensible grids.

    Per READ_COLS sample columns, the binning reads (one sweep block of rows
    at a time) only the (row, BIN_BLOCK window) entries whose node_boxes box
    holds a cell no earlier sample entered (reachset.unsettled).  It then
    drops the sweep and returns the freed heap with glibc's malloc_trim(0).
    """
    if n_seeds < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} seeds, got {n_seeds}")
    if grid_resolution < 2 or grid_resolution % 2 or grid_resolution > MAX_GRID:
        raise ValueError(f"grid resolution must be even, >= 2 and <= {MAX_GRID}")
    table = LookupTable(params.ratio, grid_resolution)
    seeds = seed_grid(n_seeds, params)
    sweep = sweep_extremals_parallel(
        seeds, T_max_scaled, params, n_threads=n_threads, comps=(0, 1), tol=SWEEP_TOL,
        sample_dt=sample_spacing(table.cell, T_max_scaled),
    )
    ns, n, starts = len(seeds), grid_resolution, sweep.starts

    def cells(first):
        # key = sample * ns + seed: the earliest passage, lowest seed on ties
        for w0 in range(0, len(sweep.tau), READ_COLS):
            go = unsettled(first, n)(node_boxes(sweep, w0))  # (window, row)
            for lo, hi in zip(starts, starts[1:]):
                rows = lo + np.flatnonzero(go[:, lo:hi].any(axis=0))
                if not len(rows):
                    continue
                z, r = sweep.samples([0, 1], rows, np.s_[w0 : w0 + READ_COLS])
                for i, j0 in enumerate(range(0, z.shape[1], BIN_BLOCK)):
                    zb, Rb = z[:, j0 : j0 + BIN_BLOCK], r[:, j0 : j0 + BIN_BLOCK]
                    ok = np.isfinite(zb) & go[i, rows, None]
                    col = np.arange(w0 + j0, w0 + j0 + zb.shape[1])
                    yield folded_cell(zb[ok], Rb[ok], n), (col * ns + rows[:, None])[ok]
                del z, r, zb, Rb, ok  # free this read before the next one allocates

    # the result goes into the arrays the table was made with, before the
    # sweep: an array made after it could sit above the sweep's freed memory
    # and keep the allocator from returning that memory
    first = first_passage(n * (n // 2), cells).reshape(n, n // 2)
    reached = first != NO_PASSAGE
    tau_idx, seed_of = np.divmod(first[reached], ns)
    table.tmin[reached] = sweep.tau[tau_idx]
    table.psi0[reached] = np.array([s.psi0 for s in seeds])[seed_of]
    table.theta0[reached] = np.array([s.theta0 for s in seeds])[seed_of]
    del sweep
    with contextlib.suppress(AttributeError, OSError, TypeError):  # no malloc_trim
        ctypes.CDLL(None).malloc_trim(0)
    return table


def query(table: LookupTable, z1: float, R1: float):
    """Seed and first-passage time of the cell containing (z1, R1).

    Falls back to the nearest nonempty cell within SEARCH_CELLS
    (Chebyshev) when the exact cell is empty; beyond that the target is
    reported unreachable.  The target must lie in the closed unit
    half-disc R1 >= 0.
    """
    if not (math.isfinite(z1) and math.isfinite(R1)):
        raise ValueError(f"target ({z1}, {R1}) is not finite")
    if R1 < 0:
        raise ValueError("table targets live in the half-disc R >= 0; fold R negative targets")
    if z1 * z1 + R1 * R1 > 1.0 + 1e-9:
        raise ValueError(f"target ({z1}, {R1}) lies outside the unit disc")
    i0, j0 = table.cell_of(z1, R1)
    tmin = table.tmin[i0, j0]
    if tmin < math.inf:
        return table.psi0[i0, j0], table.theta0[i0, j0], tmin
    best = None
    for i in range(max(0, i0 - SEARCH_CELLS), min(table.grid_n, i0 + SEARCH_CELLS + 1)):
        for j in range(max(0, j0 - SEARCH_CELLS), min(table.grid_n // 2, j0 + SEARCH_CELLS + 1)):
            if not table.tmin[i, j] < math.inf:
                continue
            zc, rc = table.cell_center(i, j)
            cand = ((zc - z1) ** 2 + (rc - R1) ** 2, i, j)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise UnreachableError(
            f"no recorded extremal within {SEARCH_CELLS} cells of ({z1}, {R1})"
        )
    _, i, j = best
    return table.psi0[i, j], table.theta0[i, j], table.tmin[i, j]


def save(table: LookupTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{MAGIC} gamma_ratio={table.gamma_ratio!r} grid={table.grid_n}\n")
        fh.write("i,j,psi0,theta0,Tmin\n")
        for i, j, psi0, theta0, tmin in table.records():
            fh.write(f"{i},{j},{psi0!r},{theta0!r},{tmin!r}\n")


_HEADER_RE = re.compile(
    r"^#qubit-reach-table v(?P<version>\d+) gamma_ratio=(?P<ratio>[^ ]+) grid=(?P<grid>\d+)$"
)


def load(path) -> LookupTable:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty table file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ValueError(f"{path}: bad magic header {lines[0]!r}")
    if m.group("version") != "1":
        raise ValueError(f"{path}: unsupported table version {m.group('version')}")
    if len(lines) < 2 or lines[1] != "i,j,psi0,theta0,Tmin":
        raise ValueError(f"{path}: missing column header")
    ratio, grid = float(m.group("ratio")), int(m.group("grid"))
    if not (np.isfinite(ratio) and ratio >= 0.0) or grid < 2 or grid % 2 or grid > MAX_GRID:
        raise ValueError(
            f"{path}: header needs a finite gamma_ratio >= 0 and an even grid from 2 to {MAX_GRID}"
        )
    table = LookupTable(ratio, grid)
    # memoryviews read and write single cells as Python scalars, without
    # numpy's per-call overhead or a per-row copy of the file's values
    psi0_v, theta0_v, tmin_v = map(memoryview, (table.psi0, table.theta0, table.tmin))
    for ln, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{ln}: truncated row {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            psi0, theta0, tmin = (float(v) for v in parts[2:])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not (0 <= i < grid and 0 <= j < grid // 2):
            raise ValueError(f"{path}:{ln}: cell ({i}, {j}) outside the {grid} x {grid // 2} grid")
        if tmin_v[i, j] < math.inf:  # stored rows have a finite Tmin
            raise ValueError(f"{path}:{ln}: cell ({i}, {j}) given twice")
        if not (math.isfinite(psi0) and math.isfinite(theta0) and math.isfinite(tmin)
                and tmin >= 0.0):
            raise ValueError(f"{path}:{ln}: psi0, theta0 and Tmin must be finite, Tmin >= 0")
        psi0_v[i, j], theta0_v[i, j], tmin_v[i, j] = psi0, theta0, tmin
    return table
