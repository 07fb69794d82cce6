"""Command-line surface: simulation, extremals, reachable sets, certificates.

Exit codes: 0 success, 1 domain error (bad physics, unreachable target,
integration failure, an array too large to allocate), 2 usage error.
All numeric output is deterministic for a fixed invocation: seed grids
and float formatting are fixed.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, svg, table as table_mod
from .bloch import SingularityError
from .extremals import hamiltonian, integrate_extremal, seed as seed_fn
from .liealg import rank_grid
from .ode import IntegrationError
from .params import SystemParams
from .reachset import (
    MIN_SEEDS,
    ReachSweep,
    barrier_certificate,
    guaranteed_ball_radius,
    lacuna_alpha_bound,
    revolve_to_3d,
    spiral_region,
    write_obj,
)
from .schedule import ControlSchedule, simulate
from .table import UnreachableError


# upper bounds of the count flags: each scales the memory a run asks for,
# so a larger value is refused as a usage error before anything is allocated
MAX_SEEDS = 16384
MAX_RASTER = table_mod.MAX_GRID
MAX_FRAMES = 10000
MAX_OBJ_ANGLES = 4096
MAX_SAMPLES = 100_000
MAX_RANK_GRID = 101  # 523,305 certificates in the ball, one output row each
MAX_HORIZON = 1000  # sweep and extremal horizons, in units of 1/omega: samples scale with it


def count_in(low: int, high: float, text: str) -> int:
    """argparse type of a count flag, given its bounds by functools.partial:
    below low a run cannot make its output (one sample cannot reach T, a
    mesh needs three angles, a sweep its MIN_SEEDS)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    value = int(text)
    if not low <= value <= high:
        side = f"at least {low}" if value < low else f"at most {high}"
        raise argparse.ArgumentTypeError(f"expected {side}, got {text!r}")
    return value


def table_grid(text: str) -> int:
    """argparse type of table build --grid: an even count from 2 to
    table.MAX_GRID, since the table's cells split R >= 0 in half of it."""
    value = count_in(2, table_mod.MAX_GRID, text)
    if value % 2:
        raise argparse.ArgumentTypeError(f"expected an even count, got {text!r}")
    return value


def finite_float(text: str) -> float:
    """argparse type of times, angles and coordinates."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def horizon(text: str) -> float:
    """argparse type of a sweep or extremal horizon in units of 1/omega."""
    value = finite_float(text)
    if value > MAX_HORIZON:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_HORIZON}, got {text!r}")
    return value


def bloch_vector(text: str) -> np.ndarray:
    """argparse type of --r0: 'rx,ry,rz', finite and in the Bloch ball."""
    r = np.array([finite_float(v) for v in text.split(",")])
    if r.shape != (3,) or np.linalg.norm(r) > 1.0 + 1e-12:
        raise argparse.ArgumentTypeError(f"expected 'rx,ry,rz' with |r| <= 1, got {text!r}")
    return r


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-ratio", type=float, default=None,
                   help="scaled units: omega=1, 2*kappa=1, gamma=RATIO")
    p.add_argument("--omega", type=float, default=None, help="transition frequency (rad/s)")
    p.add_argument("--kappa", type=float, default=None, help="control coupling")
    p.add_argument("--gamma", type=float, default=None, help="decoherence rate (1/s)")


def _params(args, parser: argparse.ArgumentParser) -> SystemParams:
    physical = [args.omega, args.kappa, args.gamma]
    if args.gamma_ratio is not None:
        if any(v is not None for v in physical):
            parser.error("--gamma-ratio conflicts with --omega/--kappa/--gamma")
        return SystemParams.from_ratio(args.gamma_ratio)
    if all(v is not None for v in physical):
        return SystemParams(omega=args.omega, kappa=args.kappa, gamma=args.gamma)
    parser.error("give either --gamma-ratio or all of --omega --kappa --gamma")


@contextlib.contextmanager
def _outputs(*paths):
    """Files for the output paths ('-' is stdout, None none), all opened
    before anything is written, so a path that cannot be opened leaves no
    output: files made here are removed again, and an existing file is
    emptied only once every path is open.  Subcommands write once
    everything is computed, so a domain error leaves no output either."""
    files, made = [], []
    with contextlib.ExitStack() as stack:
        try:
            for path in paths:
                if path in (None, "-"):
                    files.append(sys.stdout if path else None)
                    continue
                fresh = not os.path.exists(path)
                files.append(stack.enter_context(open(path, "a")))
                if fresh:
                    made.append(path)
        except OSError:
            stack.close()
            for path in made:
                os.remove(path)
            raise
        for f in files:
            if f not in (None, sys.stdout):
                f.truncate(0)
        yield files


def _check_dirs(*paths):
    """Raise, before any work, the OSError that opening an output path would
    raise because its directory is missing or not a directory ('-' and None
    are not paths); the subcommands open their outputs only after the work."""
    for path in paths:
        if path in (None, "-"):
            continue
        try:
            is_dir = stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        if not is_dir:
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _write_rows(out, header, rows):
    """CSV rows to the open file out."""
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


# --- subcommands -----------------------------------------------------------


def _cmd_simulate(args, parser):
    params = _params(args, parser)
    sched = ControlSchedule.from_csv(
        args.schedule, params=params, scaled=args.scaled, duration=args.T,
        u_max=args.u_max,
    )
    ts = np.linspace(0.0, sched.T, args.samples)
    states = simulate(args.r0, sched, params).sample(ts)
    rows = [(float(t), float(s[0]), float(s[1]), float(s[2])) for t, s in zip(ts, states)]
    with _outputs(args.out) as (out,):
        _write_rows(out, ["t", "rx", "ry", "rz"], rows)
    return 0


def _cmd_extremal(args, parser):
    params = _params(args, parser)
    sd = seed_fn(args.psi0, params, branch=args.branch)
    # ceil(T / sample_dt) + 1 samples: T / (N - 1.5) is half a step from the
    # rounding edge, so the grid is linspace(0, T, N) whatever the float noise
    sample_dt = args.T / (args.samples - 1.5)
    traj = integrate_extremal(sd, args.T, params, sample_dt=sample_dt)
    hs = hamiltonian(traj.ys, params)
    rows = [
        (float(t), float(y[0]), float(y[1]), float(y[2]), float(y[3]), float(y[4]), float(h))
        for t, y, h in zip(traj.ts, traj.ys, hs)
    ]
    with _outputs(args.out) as (out,):
        _write_rows(out, ["tau", "z", "R", "p", "q", "theta", "H"], rows)
    return 0


def _sweep(args, params, T_max: float) -> ReachSweep:
    """The first-passage sweep of reachset and movie, with stderr notes on
    what it left undone; stdout and files stay as they are."""
    sweep = ReachSweep(params, T_max, n_seeds=args.seeds, raster=args.raster)
    notes = []
    if sweep.n_failed:
        notes.append(f"{sweep.n_failed} seed(s) ended early and were truncated")
    if sweep.budget_exhausted:
        notes.append(f"the refinement budget ran out after {sweep.seeds_added} seeds "
                     "with wide gaps left")
    if sweep.unfilled_pairs:
        notes.append(f"{len(sweep.unfilled_pairs)} adjacent seed pair(s) too wide for "
                     "strips were left unfilled")
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return sweep


def _spiral_overlay(args, params):
    return spiral_region(params) if getattr(args, "overlay_spiral", False) else None


def _cmd_reachset(args, parser):
    params = _params(args, parser)
    rset = _sweep(args, params, args.T).reachable_set(args.T)
    rows = [(float(z), float(r)) for z, r in rset.occupied_centers()]
    figure = svg.reachset_figure(rset, _spiral_overlay(args, params)) if args.svg else None
    mesh = revolve_to_3d(rset, n_angles=args.obj_angles) if args.obj else None
    with _outputs(args.out, args.svg, args.obj) as (out, svg_out, obj_out):
        _write_rows(out, ["z", "R"], rows)
        if svg_out:
            svg_out.write(figure)
        if obj_out:
            write_obj(obj_out, *mesh)
    return 0


def _cmd_movie(args, parser):
    params = _params(args, parser)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)  # before the sweep, so a bad path fails first
    sweep = _sweep(args, params, args.T_max)
    overlay = _spiral_overlay(args, params)
    for k in range(1, args.frames + 1):
        T = args.T_max * k / args.frames
        rset = sweep.reachable_set(T)
        frame = svg.reachset_figure(rset, overlay, label=f"wT = {T:.4f}")
        (outdir / f"frame_{k - 1:04d}.svg").write_text(frame)
    print(f"wrote {args.frames} frames to {outdir}")
    return 0


def _cmd_spiral(args, parser):
    params = _params(args, parser)
    radius = guaranteed_ball_radius(params)
    arcs = spiral_region(params).arcs(args.samples)
    rows = [(aid, float(z), float(r)) for aid, arc in enumerate(arcs) for z, r in arc]
    figure = svg.figure(spiral_arcs=arcs, title="spiral region") if args.svg else None
    with _outputs(args.out, args.svg) as (out, svg_out):
        _write_rows(out, ["arc", "z", "R"], rows)
        print(f"guaranteed ball radius = {radius!r}")
        if svg_out:
            svg_out.write(figure)
    return 0


def _cmd_lacuna(args, parser):
    params = _params(args, parser)
    if args.alpha is None and (args.phi0 is not None or args.beta is not None):
        parser.error("--phi0 and --beta need --alpha")
    lines = [
        f"guaranteed ball radius = {float(guaranteed_ball_radius(params))!r}",
        f"alpha bound = {float(lacuna_alpha_bound(params))!r}",
        f"delta = {float(0.25 * np.pi * params.gamma / params.omega)!r}",
    ]
    if args.alpha is not None:
        phi0 = args.phi0 if args.phi0 is not None else 0.0
        beta = args.beta if args.beta is not None else 1e-3
        ok = barrier_certificate(phi0, args.alpha, beta, params)
        lines.append(f"barrier certificate (phi0={phi0!r}, alpha={args.alpha!r}, "
                     f"beta={beta!r}): {'PASS' if ok else 'FAIL'}")
    print("\n".join(lines))
    return 0


def _cmd_rank(args, parser):
    params = _params(args, parser)
    rows = [
        (*(float(v) for v in cert.point), cert.rank, "|".join(cert.witness), float(cert.determinant))
        for cert in rank_grid(params, n=args.grid)
    ]
    with _outputs(args.out) as (out,):
        _write_rows(out, ["rx", "ry", "rz", "rank", "witness", "det"], rows)
    return 0


def _cmd_table_build(args, parser):
    params = _params(args, parser)
    tbl = table_mod.build_table(
        params, n_seeds=args.seeds, T_max_scaled=args.T_max, grid_resolution=args.grid
    )
    table_mod.save(tbl, args.out)
    print(f"wrote {int(np.sum(tbl.mask))} nonempty cells to {args.out}")
    return 0


def _cmd_table_query(args, parser):
    tbl = table_mod.load(getattr(args, "in"))
    psi0, theta0, tmin = table_mod.query(tbl, args.z, args.R)
    print(f"psi0={float(psi0)!r} theta0={float(theta0)!r} Tmin={float(tmin)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubit-reach",
        description="Dynamics, time-optimal controls and reachable sets of a "
                    "dissipative two-level system in the Bloch ball.",
    )
    parser.add_argument("--version", action="version", version=f"qubit-reach {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate the Bloch equation under a u,n schedule")
    _add_param_flags(p)
    p.add_argument("--schedule", required=True, help="CSV with header t,u,n")
    p.add_argument("--r0", type=bloch_vector, default="0,0,1", help="initial Bloch vector 'rx,ry,rz'")
    p.add_argument("--T", type=finite_float, required=True, help="final time (physical units)")
    p.add_argument("--scaled", action="store_true", help="schedule times are in units of 1/omega")
    p.add_argument("--u-max", type=float, default=None, help="ingestion cap on |u|")
    p.add_argument("--samples", type=partial(count_in, 2, MAX_SAMPLES), default=401)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extremal", help="integrate one time-optimal extremal")
    _add_param_flags(p)
    p.add_argument("--psi0", type=finite_float, required=True, help="costate angle (rad)")
    p.add_argument("--T", type=horizon, required=True, help="duration in units of 1/omega")
    p.add_argument("--branch", choices=("max", "min"), default="max")
    p.add_argument("--samples", type=partial(count_in, 2, MAX_SAMPLES), default=2001,
                   help="rows of the output, at least 2")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("reachset", help="reachable set raster at scaled time T")
    _add_param_flags(p)
    p.add_argument("--T", type=horizon, required=True)
    p.add_argument("--seeds", type=partial(count_in, MIN_SEEDS, MAX_SEEDS), default=1024)
    p.add_argument("--raster", type=partial(count_in, 1, MAX_RASTER), default=512)
    p.add_argument("--out", default="-", help="CSV of occupied cell centers")
    p.add_argument("--svg", default=None)
    p.add_argument("--obj", default=None, help="revolved 3D mesh (OBJ)")
    p.add_argument("--obj-angles", type=partial(count_in, 3, MAX_OBJ_ANGLES), default=64)
    p.add_argument("--overlay-spiral", action="store_true")
    p.set_defaults(func=_cmd_reachset)

    p = sub.add_parser("movie", help="SVG frames of the growing reachable set")
    _add_param_flags(p)
    p.add_argument("--T-max", type=horizon, default=7.0)
    p.add_argument("--frames", type=partial(count_in, 1, MAX_FRAMES), default=140)
    p.add_argument("--seeds", type=partial(count_in, MIN_SEEDS, MAX_SEEDS), default=1024)
    p.add_argument("--raster", type=partial(count_in, 1, MAX_RASTER), default=512)
    p.add_argument("--out-dir", default="frames")
    p.add_argument("--overlay-spiral", action="store_true")
    p.set_defaults(func=_cmd_movie)

    p = sub.add_parser("spiral", help="spiral-bounded exactly-reachable region")
    _add_param_flags(p)
    p.add_argument("--samples", type=partial(count_in, 2, MAX_SAMPLES), default=256)
    p.add_argument("--out", default="-")
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_spiral)

    p = sub.add_parser("lacuna", help="guaranteed-ball radius, alpha bound, delta, certificates")
    _add_param_flags(p)
    p.add_argument("--phi0", type=finite_float, default=None,
                   help="barrier apex angle (rad), with --alpha; default 0")
    p.add_argument("--alpha", type=finite_float, default=None,
                   help="barrier triangle slope: prints its certificate")
    p.add_argument("--beta", type=finite_float, default=None,
                   help="barrier half-width (rad), with --alpha; default 1e-3")
    p.set_defaults(func=_cmd_lacuna)

    p = sub.add_parser("rank", help="bracket rank certificates on a Bloch-ball grid")
    _add_param_flags(p)
    p.add_argument("--grid", type=partial(count_in, 1, MAX_RANK_GRID), default=5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("table", help="first-passage lookup table")
    tsub = p.add_subparsers(dest="table_command", required=True)
    pb = tsub.add_parser("build")
    _add_param_flags(pb)
    pb.add_argument("--seeds", type=partial(count_in, table_mod.MIN_SEEDS, MAX_SEEDS), default=4096)
    pb.add_argument("--T-max", type=horizon, default=10.0)
    pb.add_argument("--grid", type=table_grid, default=256)
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_table_build)
    pq = tsub.add_parser("query")
    pq.add_argument("--in", required=True)
    pq.add_argument("--z", type=finite_float, required=True)
    pq.add_argument("--R", type=finite_float, required=True)
    pq.set_defaults(func=_cmd_table_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_dirs(*(getattr(args, name, None) for name in ("out", "svg", "obj")))
        return args.func(args, parser)
    except (ValueError, SingularityError, IntegrationError, UnreachableError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
