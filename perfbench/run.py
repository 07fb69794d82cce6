"""Benchmark of qubit-reach: time to raster, table round trip and control replay.

One workload per process:

    python3 perfbench/run.py --workload reach_movie --seed 1 --seconds 40 --trace 0

prints one line per metric and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json (setup_s, wall_s,
total_s, peak_rss_mb); with ``--trace 1`` the run installs span wrappers on
the package (see tracing.py) and reports the per-layer ones.  The line
before the result is a JSON ``detail`` record: a stamp (commit, Python and
numpy versions, nproc, threads, seed, load average at start and end), the
checks, the metrics reported but not gated (readout_s, query_p50_us,
query_p99_us, fail_frac, output_mismatch_cells, replay_err_max) and, with
tracing, each span's total and self time.

All three workloads, untraced and traced, with one report:

    python3 perfbench/run.py --workload all --seed 1

Each workload does a fixed amount of work, so its counts repeat exactly;
``--seconds`` is part of the benchmark's command line and is recorded in
the stamp; the declared ``run_seconds`` is about the longest workload's
measuring time.
``--size smoke`` runs every path at toy sizes, without reference outputs.
"""

from __future__ import annotations

import os

# one compute thread (workloads.THREADS) and no idle BLAS thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("reach_movie", "table_roundtrip", "replay")
SETUP_RUNS = 5

# a fresh interpreter that sets up one run and prints when its inputs are ready
_SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5])\n"
    "print(repr(time.time()))\n"
)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "qubit_reach" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qubit_reach

    if Path(qubit_reach.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported qubit_reach from {qubit_reach.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int, size: str) -> float:
    """Median time from starting a fresh interpreter until its inputs are ready."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), workload, str(seed), size],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _stamp(args, workloads, load_start) -> dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": workloads.THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def _percentile(values, q) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if len(values) else 0.0


def run_one(args) -> int:
    load_start = list(os.getloadavg())
    _import_package()
    import tracing
    import workloads

    spec = _spec()
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed, args.size)
    inputs = workloads.prepare(args.workload, args.seed, args.size)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracing.install(tracer)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            res = workloads.RUNNERS[args.workload](inputs, tracer, Path(tmp))
    finally:
        if args.trace:
            tracer.restore()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss * 1024 / 1e6

    if args.trace:
        values = tracing.layer_metrics(tracer, res.facts, res.wall_s)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": res.wall_s,
            "total_s": res.wall_s + res.readout_s,
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}

    # printed and recorded in every run, not gated: on a shared 2-core host
    # their run-to-run spread is too wide for a bound (see CHANGES.md)
    reported = {
        "readout_s": (res.readout_s, "s"),
        "query_p50_us": (_percentile(res.query_us, 50), "us"),
        "query_p99_us": (_percentile(res.query_us, 99), "us"),
        "query_samples": (len(res.query_us), "count"),
        "fail_frac": (res.failed / max(1, res.attempted), "1"),
        "output_mismatch_cells": (res.mismatch, "cells"),
        **{name: (value, "1") for name, value in res.notes.items() if name.endswith("_err_max")},
    }
    correct = res.failed == 0 and res.mismatch in (None, 0) and all(res.checks.values())
    detail = {
        "stamp": _stamp(args, workloads, load_start),
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "checks": res.checks,
        "facts": res.facts,
        "notes": res.notes,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
    }
    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in reported.items():
        print(f"  {name} = {'n/a' if value is None else f'{value:.6g}'} {unit}")
    print(f"  operations = {res.failed} failed of {res.attempted}")
    for name, passed in res.checks.items():
        print(f"  {name} = {'pass' if passed else 'FAIL'}")
    if "error" in res.notes:
        print(f"  first error = {res.notes['error']}")
    if args.trace:
        detail["spans"] = tracer.table()
        print(f"  {'span':<38}{'calls':>8}{'s':>11}{'self s':>11}")
        for name, row in detail["spans"].items():
            print(f"  {name:<38}{row['calls']:>8}{row['s']:>11.4f}{row['self_s']:>11.4f}")
        spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        (OUT / f"spans-{args.workload}.json").write_text(json.dumps(spans))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct), "attempted": res.attempted, "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


def _child(args, workload, trace) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode:
        sys.exit(f"perfbench: {workload} trace={trace} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload untraced then traced, followed by a report."""
    from tracing import LAYER_MOVES

    spec = _spec()
    runs = {w: [_child(args, w, t) for t in (0, 1)] for w in WORKLOADS}

    def row(name, unit, cells):
        print(f"{name:<46}{unit:>6}" + "".join(f"{c:>18}" for c in cells))

    def fmt(m):
        return "n/a" if m is None or m["value"] is None else f"{m['value']:.6g}"

    print("\n== end-to-end metrics, tracing off ==")
    row("gated (bound)", "unit", WORKLOADS)
    for m in spec["end_to_end"]:
        row(f"{m['name']} ({m['bound']})", m["unit"], [fmt(runs[w][0][1]["metrics"][m["name"]]) for w in WORKLOADS])
    print("reported, not gated")
    for name in dict.fromkeys(n for w in WORKLOADS for n in runs[w][0][0]["reported"]):
        unit = next(runs[w][0][0]["reported"][name]["unit"] for w in WORKLOADS if name in runs[w][0][0]["reported"])
        row(name, unit, [fmt(runs[w][0][0]["reported"].get(name)) for w in WORKLOADS])
    row("operations failed/attempted", "", [
        f"{runs[w][0][1]['failed']}/{runs[w][0][1]['attempted']}" for w in WORKLOADS
    ])

    print("\n== per-layer metrics, tracing on ==")
    row("metric", "unit", WORKLOADS)
    for m in spec["per_layer"]:
        row(m["name"], m["unit"], [fmt(runs[w][1][1]["metrics"][m["name"]]) for w in WORKLOADS])
    print("\nwhich end-to-end metric each per-layer metric should move:")
    for name, moves in LAYER_MOVES.items():
        print(f"  {name}: {moves}")

    print("\n== tracing overhead: traced minus untraced wall_s ==")
    for w in WORKLOADS:
        off = runs[w][0][1]["metrics"]["wall_s"]["value"]
        on = runs[w][1][1]["metrics"]["trace.wall_s"]["value"]
        print(f"{w:<18}{on - off:+.4f} s ({100 * (on - off) / off:+.2f} %)")
    cover = runs["reach_movie"][1][1]["metrics"]["reachset.child_cover"]["value"]
    verdict = "ok" if cover >= 85.0 else "LOW: ReachSweep time has moved out of the named spans"
    print(f"\nreach_movie: seed + sweep + pair_gaps + rasterize cover {cover:.1f} % of ReachSweep (>= 85 %: {verdict})")

    results = [r for w in WORKLOADS for _, r in runs[w]]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{w}.{name}": m for w in WORKLOADS for name, m in runs[w][0][1]["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)
    if args.workload == "all":
        _import_package()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
