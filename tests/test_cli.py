import numpy as np
import pytest

from qubit_reach import SystemParams
from qubit_reach import cli, reachset
from qubit_reach import table as table_mod
from qubit_reach.cli import main
from qubit_reach.schedule import propagate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "qubit-reach" in capsys.readouterr().out


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["reachset"])  # missing --T and params
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["reachset", "--T", "1", "--seeds"], cli.MAX_SEEDS),
        (["reachset", "--T", "1", "--raster"], cli.MAX_RASTER),
        (["reachset", "--T", "1", "--obj-angles"], cli.MAX_OBJ_ANGLES),
        (["movie", "--frames"], cli.MAX_FRAMES),
        (["movie", "--seeds"], cli.MAX_SEEDS),
        (["movie", "--raster"], cli.MAX_RASTER),
        (["table", "build", "--out", "t.csv", "--seeds"], cli.MAX_SEEDS),
        (["simulate", "--schedule", "s.csv", "--T", "1", "--samples"], cli.MAX_SAMPLES),
        (["extremal", "--psi0", "0", "--T", "1", "--samples"], cli.MAX_SAMPLES),
        (["spiral", "--samples"], cli.MAX_SAMPLES),
        (["rank", "--grid"], cli.MAX_RANK_GRID),
        (["reachset", "--T"], cli.MAX_HORIZON),
        (["movie", "--T-max"], cli.MAX_HORIZON),
        (["table", "build", "--out", "t.csv", "--T-max"], cli.MAX_HORIZON),
        (["extremal", "--psi0", "0", "--T"], cli.MAX_HORIZON),
        (["table", "build", "--out", "t.csv", "--grid"], table_mod.MAX_GRID),
    ],
)
def test_count_flags_are_bounded(capsys, argv, bound):
    # only argument parsing runs, so no bound is ever allocated
    args = cli.build_parser().parse_args([*argv, str(bound)])
    assert getattr(args, argv[-1][2:].replace("-", "_")) == bound
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(bound + 1)])
    assert exc.value.code == 2
    assert f"expected at most {bound}, got '{bound + 1}'" in capsys.readouterr().err


@pytest.mark.parametrize("grid, msg", [("7", "expected an even count, got '7'"),
                                       ("5000", "expected at most 4096, got '5000'"),
                                       ("1", "expected at least 2, got '1'")])
def test_table_grid_is_bounded_and_even_at_parse_time(tmp_path, capsys, grid, msg):
    # a usage error before the sweep, as for reachset --raster, and no output
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["table", "build", "--gamma-ratio", "0.1", "--grid", grid, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--grid: {msg}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, low, few",
    [
        (["table", "build", "--out", "{d}/t.csv", "--seeds"], table_mod.MIN_SEEDS, 100),
        (["reachset", "--T", "1", "--out", "{d}/c.csv", "--seeds"], reachset.MIN_SEEDS, 10),
        (["movie", "--out-dir", "{d}/frames", "--seeds"], reachset.MIN_SEEDS, 10),
    ],
    ids=["table-build", "reachset", "movie"],
)
def test_seed_floors_are_usage_errors(tmp_path, capsys, argv, low, few):
    # a usage error at parse time, before the sweep, and no output; the
    # library keeps its own check for its callers
    argv = [a.format(d=tmp_path) for a in argv]
    assert cli.build_parser().parse_args([*argv, str(low)]).seeds == low
    for count in (few, low - 1):
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(count), "--gamma-ratio", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--seeds: expected at least {low}, got '{count}'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_param_flag_conflicts():
    with pytest.raises(SystemExit) as exc:
        main(["lacuna", "--gamma-ratio", "0.1", "--omega", "1.0"])
    assert exc.value.code == 2


def test_simulate_fixed_point(tmp_path, capsys):
    sched = tmp_path / "zero.csv"
    sched.write_text("t,u,n\n0,0,0\n")
    code, out, _ = run(
        capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(sched),
        "--r0", "0,0,1", "--T", "10", "--samples", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,rx,ry,rz"
    for line in lines[1:]:
        t, rx, ry, rz = (float(v) for v in line.split(","))
        assert (rx, ry, rz) == (0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "times, u, r0",
    [([0.0], [0.0], "0.6,0,0.8"), ([0.0, 3.31], [0.0, 2.0], "0,0,1")],
    ids=["zero-off-pole", "switch"],
)
def test_simulate_rows_are_exact(tmp_path, capsys, times, u, r0):
    # every row is the exact propagation to its sample time, including
    # rows inside the segment that holds a control switch
    sched = tmp_path / "sched.csv"
    sched.write_text("t,u,n\n" + "".join(f"{t},{v},0\n" for t, v in zip(times, u)))
    code, out, _ = run(
        capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(sched),
        "--r0", r0, "--T", "10",
    )
    assert code == 0
    rows = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()[1:]])
    start = [float(v) for v in r0.split(",")]
    times, u, params = np.array(times), np.array(u), SystemParams.from_ratio(0.1)
    for t, *state in rows:
        k = int(np.sum(times < t))
        want = propagate(start, np.append(times[:k], t), u[:k], np.zeros(k), params)[-1]
        np.testing.assert_allclose(state, want, rtol=0, atol=1e-12)


def test_lacuna_prints_certificates(capsys):
    code, out, _ = run(
        capsys, "lacuna", "--gamma-ratio", "0.1", "--alpha", "0.4", "--beta", "1e-3"
    )
    assert code == 0
    assert f"guaranteed ball radius = {1 - 0.025 * np.pi!r}" in out
    assert "alpha bound = 0.49751859510499463" in out
    assert "PASS" in out
    code, out, _ = run(
        capsys, "lacuna", "--gamma-ratio", "0.1", "--alpha", "0.6", "--beta", "1e-6"
    )
    assert "FAIL" in out


def test_lacuna_physical_units_delta(capsys):
    code, out, _ = run(
        capsys, "lacuna", "--omega", "4.5e15", "--kappa", "2.4e-29", "--gamma", "2.2e8"
    )
    assert code == 0
    delta = float(out.split("delta = ")[1].splitlines()[0])
    assert abs(delta - np.pi * 2.2e8 / (4 * 4.5e15)) < 1e-12 * delta


def test_lacuna_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "lacuna", "--gamma-ratio", "1.5")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spiral", "--gamma-ratio", "2"],
        ["spiral", "--gamma-ratio", "2", "--out", "{d}/arcs.csv", "--svg", "{d}/arcs.svg"],
        ["lacuna", "--gamma-ratio", "0.1", "--alpha", "0.4", "--beta", "-1"],
        ["reachset", "--gamma-ratio=-0.1", "--T", "0.5", "--seeds", "64", "--raster", "16",
         "--out", "{d}/cells.csv", "--svg", "{d}/set.svg", "--obj", "{d}/mesh.obj"],
        ["reachset", "--gamma-ratio", "0.1", "--T", "0.5", "--seeds", "64", "--raster", "16",
         "--out", "{d}/cells.csv", "--svg", "{d}/set.svg", "--obj", "{d}/missing/mesh.obj"],
        ["spiral", "--gamma-ratio", "0.1", "--out", "{d}/arcs.csv", "--svg", "{d}/missing/s.svg"],
    ],
    ids=["spiral-stdout", "spiral-files", "lacuna", "reachset-files", "reachset-unwritable-obj",
         "spiral-unwritable-svg"],
)
def test_domain_error_leaves_no_output(tmp_path, capsys, argv):
    # everything is computed, and every output path opened, before anything is written
    code, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_path_keeps_existing_output(tmp_path, capsys):
    # an existing output file is emptied only once every path is open
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("kept\n")
    code, out, err = run(capsys, "spiral", "--gamma-ratio", "0.1", "--out", str(arcs),
                         "--svg", str(tmp_path / "missing" / "s.svg"))
    assert code == 1 and out == "" and err.startswith("error: ")
    assert arcs.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == [arcs]
    code, _, _ = run(capsys, "spiral", "--gamma-ratio", "0.1", "--out", str(arcs))
    assert code == 0 and arcs.read_text().startswith("arc,z,R\n0,0.0,1.0\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["reachset", "--gamma-ratio", "0.1", "--T", "7", "--out", "{d}/missing/c.csv"], "c.csv"),
        (["reachset", "--gamma-ratio", "0.1", "--T", "7", "--svg", "{d}/missing/s.svg"], "s.svg"),
        (["reachset", "--gamma-ratio", "0.1", "--T", "7", "--obj", "{d}/missing/m.obj"], "m.obj"),
        (["movie", "--gamma-ratio", "0.1", "--out-dir", "{d}/file/frames"], "frames"),
        (["table", "build", "--gamma-ratio", "0.1", "--out", "{d}/missing/t.csv"], "t.csv"),
        (["extremal", "--gamma-ratio", "0.1", "--psi0", "1", "--T", "7", "--out", "{d}/missing/e.csv"],
         "e.csv"),
        (["simulate", "--gamma-ratio", "0.1", "--schedule", "{d}/file", "--T", "1", "--out",
          "{d}/missing/r.csv"], "r.csv"),
    ],
    ids=["reachset", "reachset-svg", "reachset-obj", "movie", "table-build", "extremal", "simulate"],
)
def test_missing_output_directory_fails_before_the_work(monkeypatch, tmp_path, capsys, argv, out):
    # an output that cannot be opened is reported at once, not after a sweep
    def no_work(*args, **kwargs):
        raise AssertionError("the subcommand started its work")

    for name in ("ReachSweep", "integrate_extremal", "simulate"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(table_mod, "build_table", no_work)
    (tmp_path / "file").write_text("t,u,n\n0,0,0\n")
    code, stdout, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 1 and stdout == "" and "Traceback" not in err
    reason = "Not a directory" if argv[0] == "movie" else "No such file or directory"
    assert err.startswith("error: [Errno") and reason in err and err.rstrip().endswith(f"{out}'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("angles", ["1", "2"])
def test_obj_angles_below_three_is_a_usage_error_before_the_sweep(
    monkeypatch, tmp_path, capsys, angles
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a ReachSweep was built")

    monkeypatch.setattr(cli, "ReachSweep", no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["reachset", "--gamma-ratio", "0.1", "--T", "0.5", "--out", str(tmp_path / "c.csv"),
              "--obj", str(tmp_path / "m.obj"), "--obj-angles", angles])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"expected at least 3, got '{angles}'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--gamma-ratio", "0.1", "--schedule", "{d}/s.csv", "--T", "10"],
     ["spiral", "--gamma-ratio", "0.1"]],
    ids=["simulate", "spiral"],
)
def test_samples_below_two_is_a_usage_error(tmp_path, capsys, argv):
    # one sample cannot reach T (simulate) or leave the pole (spiral)
    (tmp_path / "s.csv").write_text("t,u,n\n0,0.5,0\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(d=tmp_path) for a in argv] + ["--samples", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected at least 2, got '1'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags", [["--beta", "1e-3"], ["--phi0", "0.5"], ["--phi0", "0", "--beta", "1e-3"]]
)
def test_lacuna_barrier_flags_need_alpha(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["lacuna", "--gamma-ratio", "0.1", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--phi0 and --beta need --alpha" in captured.err


def test_extremal_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "extremal", "--gamma-ratio", "0.1", "--psi0", "1.0", "--T", "2",
        "--samples", "9", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "tau,z,R,p,q,theta,H"
    assert len(lines) == 10
    h_vals = [float(l.split(",")[6]) for l in lines[1:]]
    assert max(h_vals) - min(h_vals) < 1e-7


@pytest.mark.parametrize("T", ["3", "7.3", "13.7"])
@pytest.mark.parametrize("samples", [1, 2, 3, 201, 401])
def test_extremal_prints_exactly_samples_rows(capsys, T, samples):
    argv = ["extremal", "--gamma-ratio", "0.1", "--psi0", "1.0", "--T", T,
            "--samples", str(samples)]
    if samples == 1:  # a grid of one sample cannot reach T
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected at least 2, got '1'" in capsys.readouterr().err
        return
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "tau,z,R,p,q,theta,H"
    assert len(lines) == samples + 1
    taus = [float(line.split(",")[0]) for line in lines[1:]]
    assert taus == np.linspace(0.0, float(T), samples).tolist()


def test_rank_table(capsys):
    code, out, _ = run(capsys, "rank", "--gamma-ratio", "0.1", "--grid", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rx,ry,rz,rank,witness,det"
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[3] == "3"


def test_spiral_outputs(tmp_path, capsys):
    svg_path = tmp_path / "spiral.svg"
    code, out, _ = run(
        capsys, "spiral", "--gamma-ratio", "0.1", "--samples", "16",
        "--out", str(tmp_path / "arcs.csv"), "--svg", str(svg_path),
    )
    assert code == 0
    assert "guaranteed ball radius" in out
    assert svg_path.read_text().startswith("<svg")


def test_reachset_deterministic(tmp_path, capsys):
    args = [
        "reachset", "--gamma-ratio", "0.1", "--T", "0.5", "--seeds", "64",
        "--raster", "64",
    ]
    outs = []
    for k in (1, 2):
        csv_path = tmp_path / f"cells{k}.csv"
        svg_path = tmp_path / f"set{k}.svg"
        code, _, _ = run(capsys, *args, "--out", str(csv_path), "--svg", str(svg_path),
                         "--overlay-spiral")
        assert code == 0
        outs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outs[0] == outs[1]
    assert outs[0][1].startswith(b"<svg")


def test_reachset_obj_export(tmp_path, capsys):
    obj_path = tmp_path / "mesh.obj"
    code, _, _ = run(
        capsys, "reachset", "--gamma-ratio", "0.1", "--T", "1", "--seeds", "64",
        "--raster", "64", "--out", str(tmp_path / "c.csv"), "--obj", str(obj_path),
        "--obj-angles", "16",
    )
    assert code == 0
    text = obj_path.read_text()
    assert text.startswith("v ") and "\nf " in text


def test_movie_frames(tmp_path, capsys):
    code, out, _ = run(
        capsys, "movie", "--gamma-ratio", "0.1", "--T-max", "0.6", "--frames", "3",
        "--seeds", "64", "--raster", "64", "--out-dir", str(tmp_path / "frames"),
    )
    assert code == 0
    frames = sorted((tmp_path / "frames").glob("frame_*.svg"))
    assert len(frames) == 3


def test_table_build_and_query(tmp_path, capsys):
    table_path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "table", "build", "--gamma-ratio", "0.1", "--seeds", "256",
        "--T-max", "2", "--grid", "256", "--out", str(table_path),
    )
    assert code == 0
    assert "nonempty cells" in out
    code, out, _ = run(capsys, "table", "query", "--in", str(table_path),
                       "--z", "0.0", "--R", "0.9")
    assert code == 0
    assert out.startswith("psi0=")
    # unreachable target exits 1
    code, _, err = run(capsys, "table", "query", "--in", str(table_path),
                       "--z", "0.999", "--R", "0.001")
    assert code == 1 and "error:" in err


def test_every_subcommand_has_help(capsys):
    for cmd in ("simulate", "extremal", "reachset", "movie", "spiral", "lacuna", "rank"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_simulate_schedule_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,u,n\n0,0,0\n")
    code, _, err = run(
        capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(bad), "--T", "1"
    )
    assert code == 1
    assert "header" in err
    good = tmp_path / "zero.csv"
    good.write_text("t,u,n\n0,0,0\n")
    for r0, msg in (("nan,0,1", "finite"), ("2,0,0", "|r| <= 1"), ("a,b,c", "invalid")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--gamma-ratio", "0.1", "--schedule", str(good), "--T", "1",
                  "--r0", r0])
        assert exc.value.code == 2
        assert msg in capsys.readouterr().err
    # every row holds exactly three numbers; a bad row names its file and line
    for name, body, msg in (
        ("short.csv", "t,u,n\n0,1\n", "short.csv:2: expected 3 fields t,u,n, got 2"),
        ("mixed.csv", "t,u,n\n0,0,0\n1,2\n", "mixed.csv:3: expected 3 fields t,u,n, got 2"),
        ("long.csv", "t,u,n\n0,0,0,0\n", "long.csv:2: expected 3 fields t,u,n, got 4"),
        ("word.csv", "t,u,n\n0,0,0\n1,x,0\n", "word.csv:3: could not convert string to float: 'x'"),
    ):
        sched = tmp_path / name
        sched.write_text(body)
        code, out, err = run(
            capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(sched), "--T", "1"
        )
        assert code == 1 and out == ""
        assert msg in err and "Traceback" not in err
    # --T 0 is refused, not read as "run to the last breakpoint"
    two = tmp_path / "two.csv"
    two.write_text("t,u,n\n0,0,0\n5,1,0\n")
    code, out, err = run(
        capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(two), "--T", "0"
    )
    assert code == 1
    assert "final time must be positive" in err and out == ""


def test_simulate_rejects_non_finite_schedule(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("t,u,n\n0,0,0\n0.5,nan,0\n")
    code, _, err = run(
        capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(bad), "--T", "1"
    )
    assert code == 1
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, body, msg",
    [
        ("simulate", "t,u,n\n", "schedule has no rows"),
        ("table", "", "empty table file"),
        ("table", "#qubit-reach-table v1 gamma_ratio=0.1 grid=8\n", "missing column header"),
    ],
    ids=["schedule-without-rows", "table-empty", "table-without-column-header"],
)
def test_input_file_without_data_exits_1(tmp_path, capsys, command, body, msg):
    path = tmp_path / "in.csv"
    path.write_text(body)
    argv = {
        "simulate": ["simulate", "--gamma-ratio", "0.1", "--schedule", str(path), "--T", "1"],
        "table": ["table", "query", "--in", str(path), "--z", "0", "--R", "0.5"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {path}: {msg}\n"


def test_blank_lines_inside_csv_inputs_are_skipped(tmp_path, capsys):
    outputs = []
    for name, body in (("plain.csv", "t,u,n\n0,0.5,0\n1,-0.5,0.2\n"),
                       ("blank.csv", "t,u,n\n0,0.5,0\n\n1,-0.5,0.2\n")):
        (tmp_path / name).write_text(body)
        code, out, err = run(
            capsys, "simulate", "--gamma-ratio", "0.1", "--schedule", str(tmp_path / name),
            "--T", "2", "--samples", "5",
        )
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # the row after the blank line is read: its cell answers exactly
    table_path = tmp_path / "table.csv"
    table_path.write_text("#qubit-reach-table v1 gamma_ratio=0.1 grid=8\ni,j,psi0,theta0,Tmin\n"
                          "4,1,0.5,1.0,0.25\n\n3,2,0.7,1.1,0.5\n")
    code, out, err = run(capsys, "table", "query", "--in", str(table_path),
                         "--z", "-0.2", "--R", "0.6")
    assert code == 0 and err == ""
    assert out == "psi0=0.7 theta0=1.1 Tmin=0.5\n"


def test_incomplete_physical_params_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spiral", "--omega", "1"])
    assert exc.value.code == 2
    assert "give either --gamma-ratio or all of --omega --kappa --gamma" in capsys.readouterr().err


def test_non_finite_params_exit_1(capsys):
    for flags in (("--gamma-ratio", "nan"), ("--gamma-ratio", "inf"),
                  ("--omega", "inf", "--kappa", "0.5", "--gamma", "0.1"),
                  ("--omega", "1", "--kappa", "nan", "--gamma", "0.1")):
        code, _, err = run(capsys, "lacuna", *flags)
        assert code == 1
        assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["reachset", "--T", "1e15", "--seeds", "64", "--raster", "1"],
        ["movie", "--T-max", "1e15", "--seeds", "64", "--raster", "1"],
        ["table", "build", "--T-max", "1e15", "--seeds", "256", "--grid", "2"],
    ],
    ids=["reachset", "movie", "table-build"],
)
def test_unallocatable_horizon_is_a_one_line_error(tmp_path, capsys, monkeypatch, argv):
    # the sample grid of a 1e15 horizon would take 10 PiB (20 PiB for the
    # table), which no host grants: numpy refuses it at once.  MAX_HORIZON
    # refuses such a horizon first; it is lifted so the allocation is tried
    monkeypatch.setattr(cli, "MAX_HORIZON", 1e16)
    out_flag = ["--out", str(tmp_path / "t.csv")] if argv[0] == "table" else []
    if argv[0] == "movie":
        out_flag = ["--out-dir", str(tmp_path / "frames")]
    code, out, err = run(capsys, *argv, "--gamma-ratio", "0.1", *out_flag)
    assert code == 1 and out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["reachset", "movie"])
def test_sweep_notes_report_an_exhausted_budget(tmp_path, capsys, command):
    def notes(T):
        argv = {
            "reachset": ["reachset", "--T", T, "--out", str(tmp_path / "c.csv")],
            "movie": ["movie", "--T-max", T, "--frames", "1", "--out-dir", str(tmp_path / "f")],
        }[command]
        code, _, err = run(capsys, *argv, "--gamma-ratio", "0.1", "--seeds", "64",
                           "--raster", "64")
        assert code == 0 and all(line.startswith("note: ") for line in err.splitlines())
        return err

    # as ReachSweep(P, 7.0, n_seeds=64, raster=64): the 4 x 64 refinement
    # seeds run out with wide pairs left, some of them unfilled
    err = notes("7")
    assert "note: the refinement budget ran out after 256 seeds" in err
    unfilled = [line for line in err.splitlines() if line.endswith("were left unfilled")]
    assert len(unfilled) == 1 and int(unfilled[0].split()[1]) > 0
    # a short sweep's refinement finishes: its one note is the seed frozen at tau = 0
    assert notes("0.5") == "note: 1 seed(s) ended early and were truncated\n"


# each numeric flag, with a valid command line of its subcommand
FLAG_COMMANDS = {
    "simulate": ["simulate", "--gamma-ratio", "0.1", "--schedule", "s.csv", "--T", "1"],
    "extremal": ["extremal", "--gamma-ratio", "0.1", "--psi0", "1", "--T", "1"],
    "reachset": ["reachset", "--gamma-ratio", "0.1", "--T", "1"],
    "movie": ["movie", "--gamma-ratio", "0.1"],
    "spiral": ["spiral", "--gamma-ratio", "0.1"],
    "lacuna": ["lacuna", "--gamma-ratio", "0.1"],
    "rank": ["rank", "--gamma-ratio", "0.1"],
    "build": ["table", "build", "--gamma-ratio", "0.1", "--out", "t.csv"],
    "query": ["table", "query", "--in", "t.csv", "--z", "0", "--R", "0.5"],
}
POSITIVE_INT_FLAGS = [
    ("simulate", "--samples"), ("extremal", "--samples"), ("spiral", "--samples"),
    ("reachset", "--seeds"), ("reachset", "--raster"), ("reachset", "--obj-angles"),
    ("movie", "--seeds"), ("movie", "--raster"), ("movie", "--frames"),
    ("rank", "--grid"), ("build", "--seeds"), ("build", "--grid"),
]
FINITE_FLOAT_FLAGS = [
    ("simulate", "--T"), ("extremal", "--T"), ("extremal", "--psi0"), ("reachset", "--T"),
    ("movie", "--T-max"), ("build", "--T-max"), ("lacuna", "--phi0"), ("lacuna", "--alpha"),
    ("lacuna", "--beta"), ("query", "--z"), ("query", "--R"),
]


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for c, f in POSITIVE_INT_FLAGS for v in ("0", "-2", "1.5")]
    + [(c, f, v) for c, f in FINITE_FLOAT_FLAGS for v in ("nan", "inf", "-inf")],
)
def test_bad_numeric_flag_is_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(FLAG_COMMANDS[command] + [f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
