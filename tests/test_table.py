import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import ExtremalSeed, SystemParams, integrate_extremal, seed_grid
from qubit_reach import table as table_mod
from qubit_reach.cli import main
from qubit_reach.extremals import ExtremalSweep, hamiltonian_dtheta
from qubit_reach.reachset import folded_cell
from qubit_reach.table import (
    LookupTable,
    UnreachableError,
    build_table,
    load,
    query,
    save,
)

P = SystemParams.from_ratio(0.1)
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def table():
    return build_table(P, n_seeds=512, T_max_scaled=5.0, grid_resolution=256)


def test_build_validation():
    with pytest.raises(ValueError):
        build_table(P, n_seeds=100)
    with pytest.raises(ValueError):
        build_table(P, n_seeds=256, grid_resolution=33)
    with pytest.raises(ValueError, match=f"<= {table_mod.MAX_GRID}"):
        build_table(P, n_seeds=256, grid_resolution=table_mod.MAX_GRID + 2)
    for T in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            build_table(P, n_seeds=256, T_max_scaled=T)


def test_start_cell_has_zero_time(table):
    i, j = table.cell_of(0.0, 1.0 - 1e-12)
    assert table.mask[i, j]
    assert table.tmin[i, j] == 0.0


def test_attracting_point_recorded(table):
    # (0, -1) folds onto (0, 1) in the half-disc picture with theta
    # shifted by pi; the relaxation path reaches its cell in finite time,
    # so the meridian cell of the south point, (z, R) = (0, 1) folded
    # from R = -1, is exactly the start cell.  The physical south pole of
    # the auxiliary system is (z, R) = (0, -1), which the sweep visits
    # with R < 0; check its folded cell carries a finite first passage.
    i, j = table.cell_of(0.0, 1.0 - 1e-12)
    assert np.isfinite(table.tmin[i, j])


def test_all_records_inside_half_disc(table):
    for i, j, psi0, theta0, tmin in table.records():
        zc, rc = table.cell_center(i, j)
        assert rc >= 0
        # cell centers of touched cells stay within the disc plus a cell
        assert np.hypot(zc, rc) <= 1.0 + 2 * table.cell
        assert tmin >= 0


def test_records_satisfy_seed_equation(table):
    g = P.ratio
    recs = list(table.records())
    rng = np.random.default_rng(0)
    for k in rng.choice(len(recs), 50, replace=False):
        _, _, psi0, theta0, _ = recs[k]
        resid = hamiltonian_dtheta(np.array([0.0, 1.0, np.cos(psi0), np.sin(psi0), theta0]), P)
        assert abs(resid) < 1e-10


def test_query_exact_and_nearest(table):
    psi0, theta0, tmin = query(table, 0.3, 0.5)
    assert np.isfinite(tmin) and tmin > 0
    # mild off-grid target resolves through the neighbourhood search
    psi0b, theta0b, tminb = query(table, 0.301, 0.502)
    assert np.isfinite(tminb)


def test_query_rejects_bad_targets(table):
    with pytest.raises(ValueError):
        query(table, 0.0, -0.5)
    with pytest.raises(ValueError):
        query(table, 1.2, 0.3)
    # NaN passes both disc checks (it compares False), so it is refused first
    for z, R in [(np.nan, 0.5), (0.1, np.nan), (np.inf, 0.5), (0.1, -np.inf)]:
        with pytest.raises(ValueError, match="is not finite"):
            query(table, z, R)


def test_query_unreachable_in_lacuna(table):
    # inside the certified barrier triangle at the (1, 0) pole: the front
    # stops ~0.03 short of the pole, several cells away at this grid
    with pytest.raises(UnreachableError):
        query(table, 0.9999, 0.001)


def test_replay_hits_recorded_cells(table):
    rng = np.random.default_rng(1)
    recs = [r for r in table.records() if r[4] > 0.05]
    worst = 0.0
    for k in rng.choice(len(recs), 16, replace=False):
        i, j, psi0, theta0, tmin = recs[k]
        traj = integrate_extremal(
            ExtremalSeed(psi0, theta0), tmin, P, sample_dt=max(tmin / 256, 1e-4)
        )
        zc, rc = table.cell_center(i, j)
        dist = np.hypot(traj.ys[-1][0] - zc, traj.ys[-1][1] - rc)
        worst = max(worst, dist / table.cell)
    assert worst <= 2.0


def test_monotone_coverage_in_horizon():
    small = build_table(P, n_seeds=256, T_max_scaled=2.0, grid_resolution=64)
    big = build_table(P, n_seeds=256, T_max_scaled=4.0, grid_resolution=64)
    assert not np.any(small.mask & ~big.mask)
    assert big.mask.sum() > small.mask.sum()


def test_save_load_round_trip(tmp_path, table):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save(table, p1)
    back = load(p1)
    save(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    npt.assert_array_equal(back.mask, table.mask)
    npt.assert_array_equal(back.tmin[back.mask], table.tmin[table.mask])
    assert back.gamma_ratio == table.gamma_ratio


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("#not-a-table v1 gamma_ratio=0.1 grid=64\ni,j,psi0,theta0,Tmin\n")
    with pytest.raises(ValueError, match="magic"):
        load(p)


def test_load_rejects_wrong_version(tmp_path):
    p = tmp_path / "v9.csv"
    p.write_text("#qubit-reach-table v9 gamma_ratio=0.1 grid=64\ni,j,psi0,theta0,Tmin\n")
    with pytest.raises(ValueError, match="version"):
        load(p)


def test_load_rejects_truncated_row(tmp_path):
    p = tmp_path / "trunc.csv"
    p.write_text(
        "#qubit-reach-table v1 gamma_ratio=0.1 grid=64\ni,j,psi0,theta0,Tmin\n3,4,0.5\n"
    )
    with pytest.raises(ValueError, match="truncated"):
        load(p)


GOOD_HEADER = "#qubit-reach-table v1 gamma_ratio=0.1 grid=8"


@pytest.mark.parametrize(
    "header, row",
    [
        (GOOD_HEADER, "-1,0,0.5,1.0,0.25"),  # would wrap to the last z row
        (GOOD_HEADER, "0,-1,0.5,1.0,0.25"),
        (GOOD_HEADER, "99,0,0.5,1.0,0.25"),
        (GOOD_HEADER, "0,4,0.5,1.0,0.25"),  # R rows are 0 .. grid/2 - 1
        (GOOD_HEADER, "0,0,nan,1.0,0.25"),
        (GOOD_HEADER, "0,0,0.5,inf,0.25"),
        (GOOD_HEADER, "0,0,0.5,1.0,-inf"),
        (GOOD_HEADER, "0,0,0.5,1.0,-0.25"),
        ("#qubit-reach-table v1 gamma_ratio=nan grid=8", "0,0,0.5,1.0,0.25"),
        ("#qubit-reach-table v1 gamma_ratio=-0.1 grid=8", "0,0,0.5,1.0,0.25"),
        ("#qubit-reach-table v1 gamma_ratio=0.1 grid=0", ""),
        ("#qubit-reach-table v1 gamma_ratio=0.1 grid=1", ""),
        ("#qubit-reach-table v1 gamma_ratio=0.1 grid=7", "0,0,0.5,1.0,0.25"),
        ("#qubit-reach-table v1 gamma_ratio=0.1 grid=4098", ""),
        ("#qubit-reach-table v1 gamma_ratio=0.1 grid=1000000000", ""),
    ],
)
def test_load_rejects_out_of_range_tables(tmp_path, capsys, header, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"{header}\ni,j,psi0,theta0,Tmin\n{row}\n")
    with pytest.raises(ValueError):
        load(p)
    assert main(["table", "query", "--in", str(p), "--z", "0.9", "--R", "0.1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_load_bounds_the_header_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(table_mod, "MAX_GRID", 8)
    p = tmp_path / "bound.csv"
    p.write_text(f"{GOOD_HEADER}\ni,j,psi0,theta0,Tmin\n0,0,0.5,1.0,0.25\n")
    assert load(p).grid_n == 8
    p.write_text("#qubit-reach-table v1 gamma_ratio=0.1 grid=10\ni,j,psi0,theta0,Tmin\n")
    with pytest.raises(ValueError, match="from 2 to 8"):
        load(p)
    assert main(["table", "query", "--in", str(p), "--z", "0.0", "--R", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "from 2 to 8" in err
    assert "Traceback" not in err


def test_empty_table_round_trip(tmp_path):
    p = tmp_path / "empty.csv"
    save(LookupTable(0.1, 64), p)
    back = load(p)
    assert not back.mask.any()
    with pytest.raises(UnreachableError):
        query(back, 0.0, 0.5)


def test_load_rejects_repeated_cell(tmp_path, capsys):
    p = tmp_path / "twice.csv"
    p.write_text(f"{GOOD_HEADER}\ni,j,psi0,theta0,Tmin\n4,3,0.5,1.0,0.25\n4,3,0.7,1.2,0.5\n")
    with pytest.raises(ValueError, match=r"twice.csv:4: cell \(4, 3\) given twice"):
        load(p)
    assert main(["table", "query", "--in", str(p), "--z", "0.1", "--R", "0.9"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "twice.csv:4:" in err and "Traceback" not in err


@pytest.mark.parametrize("row", ["1,x,0.1,0.2,0.3", "1.5,0,0.1,0.2,0.3", "1,0,0.1,y,0.3"])
def test_load_names_file_and_line_of_bad_number(tmp_path, capsys, row):
    p = tmp_path / "word.csv"
    p.write_text(f"{GOOD_HEADER}\ni,j,psi0,theta0,Tmin\n4,3,0.5,1.0,0.25\n{row}\n")
    with pytest.raises(ValueError, match=r"word.csv:4: (invalid literal|could not convert)"):
        load(p)
    assert main(["table", "query", "--in", str(p), "--z", "0.1", "--R", "0.9"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "word.csv:4:" in err and "Traceback" not in err


def node_sweep(tau, seeds, z, R):
    """An ExtremalSweep whose z and R samples are the given (n, m) arrays,
    NaN from each row's first NaN on: one step per sample interval with zero
    derivatives, so each sample j > 0 is the step's end state (at s = 1)."""
    ns, m = z.shape
    n_valid = np.where(np.isnan(z).any(axis=1), np.isnan(z).argmax(axis=1), m)
    # the fail times that make tau[j] > fail_tau exactly where j >= n_valid
    fail_tau = np.concatenate([[-np.inf], tau[:-1], [np.inf]])[n_valid]
    nodes = np.zeros((6, ns, m))  # a (z, R) sweep: z, R and their zero slopes
    nodes[0], nodes[1] = np.nan_to_num(z, nan=0.5), np.nan_to_num(R, nan=0.5)
    block = {"t0": tau[:-1], "h": np.diff(tau), "t1": tau[1:], "nodes": nodes}
    return ExtremalSweep(tau, seeds, [block], fail_tau, [None] * ns, {}, (0, 1))


def test_binning_matches_naive_loop(monkeypatch):
    # a tiny fake family on a 4 x 2 grid: NaN tails, many seeds per cell
    # and many entering at the same sample; the table keeps the earliest
    # sample and, among those, the lowest seed
    seeds = seed_grid(256, P)
    ns, m = len(seeds), 7
    rng = np.random.default_rng(11)
    z = rng.choice([-0.75, -0.25, 0.25, 0.75], (ns, m))
    R = rng.choice([-0.75, -0.25, 0.25, 0.75], (ns, m))
    z[:, 0], R[:, 0] = 0.25, 0.75  # every seed starts in one cell
    for s, tail in enumerate(rng.integers(1, m + 1, ns)):
        z[s, tail:] = R[s, tail:] = np.nan
    tau = np.linspace(0.0, 1.5, m)
    fake = node_sweep(tau, seeds, z, R)
    assert fake.samples([0, 1], np.arange(ns), np.s_[:]).tobytes() == np.stack([z, R]).tobytes()
    monkeypatch.setattr(table_mod, "sweep_extremals_parallel", lambda *a, **k: fake)
    got = build_table(P, n_seeds=ns, T_max_scaled=1.5, grid_resolution=4)

    want = LookupTable(P.ratio, 4)
    for j in range(m):
        for s in range(ns):
            if not np.isfinite(z[s, j]):
                continue
            i = int(np.clip((z[s, j] + 1.0) / 0.5, 0, 3))
            k = int(np.clip(abs(R[s, j]) / 0.5, 0, 1))
            if want.tmin[i, k] == np.inf:
                want.tmin[i, k] = tau[j]
                want.psi0[i, k], want.theta0[i, k] = seeds[s].psi0, seeds[s].theta0
    assert want.mask.sum() == 8 and want.psi0[2, 1] == seeds[0].psi0
    for name in ("mask", "tmin", "psi0", "theta0"):
        npt.assert_array_equal(getattr(got, name), getattr(want, name))


def ref_cell_of(table, z, R):
    """The cell rule of the raster's folded half, with np.clip: row
    int((z + 1) * inv), column int((R + 1) * inv) - n // 2 of the raster
    columns n // 2 to n - 1, inv = 1 / cell; a point on an edge goes to
    the cell above it."""
    n, inv = table.grid_n, 1.0 / table.cell
    i = int(np.clip((z + 1.0) * inv, 0, n - 1))
    j = int(np.clip((R + 1.0) * inv, n // 2, n - 1)) - n // 2
    return i, j


def ref_query(table, z1, R1):
    """query as it was before its cell lookup used Python float clamps."""
    if R1 < 0:
        raise ValueError("table targets live in the half-disc R >= 0; fold R negative targets")
    if z1 * z1 + R1 * R1 > 1.0 + 1e-9:
        raise ValueError(f"target ({z1}, {R1}) lies outside the unit disc")
    i0, j0 = ref_cell_of(table, z1, R1)
    mask = table.mask
    if mask[i0, j0]:
        return table.psi0[i0, j0], table.theta0[i0, j0], table.tmin[i0, j0]
    best = None
    for i in range(max(0, i0 - 2), min(table.grid_n, i0 + 3)):
        for j in range(max(0, j0 - 2), min(table.grid_n // 2, j0 + 3)):
            if not mask[i, j]:
                continue
            zc, rc = table.cell_center(i, j)
            cand = ((zc - z1) ** 2 + (rc - R1) ** 2, i, j)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise UnreachableError(f"no recorded extremal within 2 cells of ({z1}, {R1})")
    _, i, j = best
    return table.psi0[i, j], table.theta0[i, j], table.tmin[i, j]


def answer(fn, tbl, z, R):
    """Types and float bytes of an answer, or the type and text of its error."""
    try:
        got = fn(tbl, z, R)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(map(type, got)), np.array(got).tobytes()


def pinned_targets(tbl):
    rng = np.random.default_rng(14)
    cell, n = tbl.cell, tbl.grid_n
    targets = list(zip(rng.uniform(-1, 1, 20_000), rng.uniform(0, 1, 20_000)))
    edges = [-1.0 + k * cell for k in range(n + 1)]
    targets += [(z, R) for z in edges for R in (0.0, 0.25, 0.5)]
    targets += [(0.5, k * cell) for k in range(n // 2 + 1)]
    # the float neighbours of the R edges, where (R + 1) rounds onto an edge
    targets += [(0.5, np.nextafter(k * cell, side)) for k in range(n // 2 + 1) for side in (0, 1)]
    targets += [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.9999, 0.001)]
    for z in np.linspace(-1, 1, 201):
        rim = np.sqrt(1.0 - z * z)
        targets += [(z, rim), (z, np.nextafter(rim, 0.0)), (z, rim - 1e-12)]
    # the fallback ring: centres and corners of empty cells within 3 cells
    # of a recorded one, so the neighbourhood search and its ties run
    near = np.zeros_like(tbl.mask)
    for di in range(-3, 4):
        for dj in range(-3, 4):
            near |= np.roll(tbl.mask, (di, dj), axis=(0, 1))
    ring = np.argwhere(near & ~tbl.mask)
    for i, j in ring[rng.choice(len(ring), min(len(ring), 3000), replace=False)]:
        zc, rc = tbl.cell_center(i, j)
        targets += [(zc, rc), (zc - 0.5 * cell, rc - 0.5 * cell)]
    return targets


def test_query_answers_match_clip_reference(tmp_path, table):
    save(table, tmp_path / "t.csv")
    for tbl in (table, load(tmp_path / "t.csv")):
        for z, R in pinned_targets(tbl):
            assert answer(query, tbl, z, R) == answer(ref_query, tbl, z, R), (z, R)
            assert tbl.cell_of(z, R) == ref_cell_of(tbl, z, R)
    kinds = {answer(query, table, z, R)[0] for z, R in pinned_targets(table)}
    assert {ValueError, UnreachableError} < kinds  # both error paths are pinned


def test_drawn_tables_round_trip(tmp_path):
    # save -> load -> save keeps the bytes, the loaded mask is the drawn
    # cells, and query answers as the clip reference does
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.floats(allow_nan=False, allow_infinity=False)
    record = st.tuples(finite, finite, st.floats(0.0, 1e6))
    target = st.tuples(st.floats(-1.1, 1.1), st.floats(-0.1, 1.1))

    @st.composite
    def tables(draw):
        n = 2 * draw(st.integers(1, 8))
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n // 2 - 1))
        cells = draw(st.dictionaries(cell, record, max_size=n * n // 2))
        tbl = LookupTable(draw(st.floats(0.0, 10.0)), n)
        for (i, j), (psi0, theta0, tmin) in cells.items():
            tbl.psi0[i, j], tbl.theta0[i, j], tbl.tmin[i, j] = psi0, theta0, tmin
        return tbl, cells

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hypothesis.given(tables(), st.lists(target, max_size=20))
    def check(drawn, targets):
        tbl, cells = drawn
        save(tbl, tmp_path / "a.csv")
        back = load(tmp_path / "a.csv")
        save(back, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        want = np.zeros((tbl.grid_n, tbl.grid_n // 2), dtype=bool)
        for i, j in cells:
            want[i, j] = True
        npt.assert_array_equal(back.mask, want)
        for z, R in targets + [back.cell_center(i, j) for i, j in cells]:
            assert answer(query, back, z, R) == answer(ref_query, back, z, R), (z, R)
        with pytest.raises(ValueError, match="read-only"):
            back.mask[0, 0] = True

    check()


def test_cell_of_is_the_folded_cell_of_the_raster():
    # the scalar lookup of a query and the array binning of the table and of
    # the raster's folded half give every point one cell: on the z and R
    # edges, on their float neighbours and on uniform points
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hypothesis.given(st.integers(1, table_mod.MAX_GRID // 2), st.integers(0, 2**32 - 1))
    @hypothesis.example(93, 0)  # 1 / (2 / 186) rounds below 93: R = 0 is clipped into the half
    def check(half_n, seed):
        n, rng = 2 * half_n, np.random.default_rng(seed)
        tbl = LookupTable(0.0, n)
        zk, rk = rng.integers(0, n + 1, 200), np.append(rng.integers(0, n // 2 + 1, 199), 0)
        z = np.concatenate([-1.0 + zk * tbl.cell, rng.uniform(-1, 1, 200)])
        R = np.concatenate([rk * tbl.cell, rng.uniform(0, 1, 200)])
        z = np.concatenate([z, np.nextafter(z, -2.0), np.nextafter(z, 2.0), z, z])
        R = np.concatenate([R, R, R, np.nextafter(R, -1.0), np.nextafter(R, 2.0)])
        R = np.abs(R)  # the neighbour below R = 0
        flat = folded_cell(z.copy(), R.copy(), n)
        got = [tbl.cell_of(zz, rr) for zz, rr in zip(z.tolist(), R.tolist())]
        assert got == [divmod(c, n - n // 2) for c in flat.tolist()]
        assert got == [ref_cell_of(tbl, zz, rr) for zz, rr in zip(z.tolist(), R.tolist())]

    check()


def test_records_match_per_cell_reference(table):
    want = [
        (int(i), int(j), float(table.psi0[i, j]), float(table.theta0[i, j]),
         float(table.tmin[i, j]))
        for i, j in zip(*np.nonzero(table.mask))
    ]
    got = list(table.records())
    assert [tuple(map(type, r)) for r in got] == [(int, int, float, float, float)] * len(want)
    assert got == want
    assert np.array([r[2:] for r in got]).tobytes() == np.array([r[2:] for r in want]).tobytes()


def test_binning_holds_at_most_one_sample_window(monkeypatch):
    # binning reads one sweep block of rows at a time and drops each read
    # before the next; its peak stays within 2.6 windows of 128 columns of
    # every seed's z and R, the bound of the whole-window reads it replaced
    peaks = []

    def traced(n_cells, blocks):
        tracemalloc.start()
        try:
            return real(n_cells, blocks)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def swept(*args, **kwargs):
        sweeps.append(sweep(*args, **kwargs))
        return sweeps[-1]

    real, sweep, sweeps = table_mod.first_passage, table_mod.sweep_extremals_parallel, []
    monkeypatch.setattr(table_mod, "first_passage", traced)
    monkeypatch.setattr(table_mod, "sweep_extremals_parallel", swept)
    build_table(P, 1024, 10.0, 256)
    window = 2 * 1024 * 128 * 8
    assert peaks[0] <= 2.6 * window, peaks[0] / window
    # the sweep keeps only the z and R node rows
    assert sweeps[0].comps == (0, 1)
    assert {blk["nodes"].shape[0] for blk in sweeps[0].blocks} == {6}


# entries (rows x columns) build_table hands ExtremalSweep.samples on
# build_table(P, 256, 10.0, 64), and entries it hands first_passage
TABLE_SAMPLE_ENTRIES = 202_528
TABLE_BIN_ENTRIES = 160_632


def test_table_reads_are_pinned(monkeypatch):
    # count the entries build_table reads and bins, and check its table
    # against an unskipped np.minimum.at binning of every finite sample
    sweeps, read, handed = [], [], []
    sweep, samples = table_mod.sweep_extremals_parallel, ExtremalSweep.samples
    real = table_mod.first_passage

    def swept(*args, **kwargs):
        sweeps.append(sweep(*args, **kwargs))
        return sweeps[-1]

    def counting(n_cells, blocks):
        def counted(first):
            for cells, keys in blocks(first):
                handed.append(len(cells))
                yield cells, keys

        return real(n_cells, counted)

    def reading(self, comps, rows, cols):
        out = samples(self, comps, rows, cols)
        read.append(out.shape[1] * out.shape[2])
        return out

    monkeypatch.setattr(table_mod, "sweep_extremals_parallel", swept)
    monkeypatch.setattr(table_mod, "first_passage", counting)
    monkeypatch.setattr(ExtremalSweep, "samples", reading)
    n = 64
    got = build_table(P, 256, 10.0, n)
    assert (sum(read), sum(handed)) == (TABLE_SAMPLE_ENTRIES, TABLE_BIN_ENTRIES)

    paths = sweeps[0]
    ns = len(paths.seeds)
    z, R = samples(paths, [0, 1], np.arange(ns), np.s_[:])
    ok = np.isfinite(z)
    inv = 1.0 / (2.0 / n)
    i = np.clip((z[ok] + 1.0) * inv, 0, n - 1).astype(int)
    j = np.clip((np.abs(R[ok]) + 1.0) * inv, n // 2, n - 1).astype(int) - n // 2
    first = np.full(n * (n // 2), np.iinfo(np.int64).max)
    keys = (np.arange(z.shape[1]) * ns + np.arange(ns)[:, None])[ok]
    np.minimum.at(first, i * (n // 2) + j, keys)
    want = LookupTable(P.ratio, n)
    reached = first < np.iinfo(np.int64).max
    sample, seed_of = np.divmod(first[reached], ns)
    want.tmin.reshape(-1)[reached] = paths.tau[sample]
    want.psi0.reshape(-1)[reached] = [paths.seeds[s].psi0 for s in seed_of]
    want.theta0.reshape(-1)[reached] = [paths.seeds[s].theta0 for s in seed_of]
    for name in ("tmin", "psi0", "theta0"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # the share handed over is 0.69 of the finite samples at this size
    assert sum(handed) < 0.8 * ok.sum(), sum(handed) / ok.sum()


class FakeLibc:
    """A C library with or without malloc_trim, which records its calls."""

    def __init__(self, trims):
        self.calls = []
        if trims:
            self.malloc_trim = self.calls.append


@pytest.mark.parametrize("trims", [True, False], ids=["malloc_trim", "no-malloc_trim"])
def test_build_releases_the_heap_where_it_can(monkeypatch, trims):
    # build_table calls malloc_trim(0) once where the C library has it, and
    # builds the same table where it has not
    want = build_table(P, 256, 2.0, 32)
    libc = FakeLibc(trims)
    monkeypatch.setattr(table_mod.ctypes, "CDLL", lambda name: libc)
    got = build_table(P, 256, 2.0, 32)
    assert libc.calls == ([0] if trims else [])
    for name in ("tmin", "psi0", "theta0"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
def test_build_leaves_little_more_resident():
    # in a fresh interpreter, the CLI-default build returns its freed heap:
    # it leaves about 4 MB more resident, and 29 MB without malloc_trim
    code = (
        "import os\n"
        "from qubit_reach import SystemParams, build_table\n"
        "def resident():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "before = resident()\n"
        "table = build_table(SystemParams.from_ratio(0.1), 4096, 10.0, 256)\n"
        "print(resident() - before)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    grown = int(done.stdout)
    assert grown <= 8 * 2**20, grown / 2**20
