"""Spans taken from outside the library, and the per-layer metrics built on them.

Nothing here edits the package: the tracer swaps module attributes (and
two private ``ReachSweep`` methods) for timing wrappers and puts the
originals back afterwards.  Spans have a name, a start, an end and a
parent; they are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# per-layer metric -> the end-to-end metric it should move, and on which
# workload.  "none" names a workload that bypasses the layer: there the
# prediction is no change.  readout_s, the query percentiles and
# output_mismatch_cells are reported by every run but not gated.  Units
# live with the names in BENCHMARK.json.
LAYER_MOVES = {
    "extremals.seed.calls": "wall_s, total_s on reach_movie and table_roundtrip; none on replay",
    "extremals.seed.s": "wall_s, total_s on reach_movie and table_roundtrip; none on replay",
    "extremals.sweep.calls": "wall_s, total_s on reach_movie and table_roundtrip; none on replay",
    "extremals.sweep.s": "wall_s, total_s on reach_movie and table_roundtrip; none on replay",
    "extremals.sweep.seeds": "wall_s, total_s on reach_movie and table_roundtrip; none on replay",
    "extremals.sweep.samples": "wall_s, total_s on reach_movie and table_roundtrip; none on replay",
    "extremals.sweep.out_mb": "peak_rss_mb on reach_movie and table_roundtrip; none on replay",
    "extremals.sweep.failed.degenerate_start": "correct (failed operations, output_mismatch_cells) on all",
    "extremals.sweep.failed.non_finite_step": "correct (failed operations, output_mismatch_cells) on all",
    "extremals.sweep.failed.denominator_degeneracy": "correct (failed operations, output_mismatch_cells) on all",
    "extremals.sweep.failed.branch_jump": "correct (failed operations, output_mismatch_cells) on all",
    "extremals.sweep.failed.step_collapse": "correct (failed operations, output_mismatch_cells) on all",
    "extremals.sweep.failed.other": "correct (failed operations, output_mismatch_cells) on all",
    "reachset.pair_gaps.calls": "wall_s, total_s on reach_movie; none on the others",
    "reachset.pair_gaps.s": "wall_s, total_s on reach_movie; none on the others",
    "reachset.rasterize.s": "wall_s, total_s on reach_movie; none on the others",
    "reachset.self.s": "wall_s, total_s on reach_movie; none on the others",
    "reachset.child_cover": "none: share of ReachSweep time inside its child spans, checked >= 85 %",
    "reachset.refine.rounds": "wall_s, total_s, output_mismatch_cells on reach_movie; none on the others",
    "reachset.refine.seeds_added": "wall_s, total_s, output_mismatch_cells on reach_movie; none on the others",
    "reachset.seeds_live": "wall_s, total_s, output_mismatch_cells on reach_movie; none on the others",
    "reachset.unfilled_pairs": "wall_s, total_s, output_mismatch_cells on reach_movie; none on the others",
    "reachset.n_failed": "wall_s, total_s, output_mismatch_cells on reach_movie; none on the others",
    "reachset.marching_squares.calls": "total_s, readout_s, query_p50_us on reach_movie; none on the others",
    "reachset.marching_squares.s": "total_s, readout_s, query_p50_us on reach_movie; none on the others",
    "svg.reachset_figure.s": "total_s, readout_s, query_p50_us on reach_movie; none on the others",
    "reachset.revolve.s": "total_s, readout_s on reach_movie; none on the others",
    "table.bin.s": "wall_s, total_s on table_roundtrip; none on reach_movie and replay",
    "table.save.s": "wall_s, total_s on table_roundtrip; none on the others",
    "table.load.s": "total_s, readout_s on table_roundtrip; none on the others",
    "table.query.s": "total_s, readout_s, query_p50_us, query_p99_us on table_roundtrip; none on the others",
    "extremals.integrate_extremal.calls": "wall_s, total_s on replay; none on the others",
    "extremals.integrate_extremal.s": "wall_s, total_s on replay; none on the others",
    "extremals.simulate_piecewise_batch.s": "wall_s, total_s on replay; none on the others",
    "extremals.simulate_piecewise_batch.segments": "wall_s, total_s on replay; none on the others",
    "extremals.recover_control.s": "wall_s, total_s on replay; none on the others",
    "schedule.simulate.s": "total_s, readout_s on replay; none on the others",
    "ode.integrate.calls": "total_s, readout_s on replay; none on the others",
    "trace.wall_s": "none: wall_s with tracing on; minus untraced wall_s it is the tracing overhead",
}

# fail_reason strings of ExtremalSweep -> metric suffix
FAIL_REASONS = {
    "degenerate start (stationary extremal)": "degenerate_start",
    "non-finite step": "non_finite_step",
    "denominator degeneracy": "denominator_degeneracy",
    "argmax branch jump": "branch_jump",
    "step collapse": "step_collapse",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict | None = None  # set by a wrapper's ``note``

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            idx = len(self.spans)
            sp = Span(name, 0.0, parent=stack[-1] if stack else -1)
            self.spans.append(sp)
        stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``.

        ``note(args, kwargs, result)`` returns attributes stored on the span.
        An attribute the package no longer has is left alone: its layer then
        reports zero and its time shows in the caller's self time.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = func(*args, **kwargs)
                if note is not None:
                    sp.attrs = note(args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._patches.append((owner, attr, original))

    def count_failures(self, owner, attr):
        """Count the fail reasons of every ExtremalSweep ``owner.attr`` returns.

        No span: with ``n_threads > 1`` the wrapped function runs on worker threads.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            return

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            reasons = Counter(
                FAIL_REASONS.get(r, "other")
                for r in getattr(result, "fail_reason", ()) if r is not None
            )
            with self._lock:
                self.counts.update(reasons)
            return result

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summaries ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def table(self) -> dict:
        """name -> {calls, s, self_s}, in order of first appearance."""
        own = self.self_times()
        out: dict = {}
        for s, self_s in zip(self.spans, own):
            row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += s.seconds
            row["self_s"] += self_s
        return out


def _sweep_note(args, kwargs, result):
    arrays = [*result.data.values()]
    arrays += [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return {
        "seeds": len(result.seeds),
        "samples": arrays[0].size,
        "out_bytes": sum(a.nbytes for a in arrays),
    }


def _segments_note(args, kwargs, result):
    return {"segments": int(result.shape[1] - 1)}


def install(tracer: Tracer) -> None:
    """Put the span wrappers on the package's module attributes."""
    from qubit_reach import extremals, reachset, schedule, svg, table

    tracer.wrap(extremals, "seed", "extremals.seed")
    tracer.count_failures(extremals, "sweep_extremals")
    tracer.wrap(reachset, "sweep_extremals_parallel", "extremals.sweep", _sweep_note)
    tracer.wrap(table, "sweep_extremals_parallel", "extremals.sweep", _sweep_note)
    tracer.wrap(table, "seed_grid", "table.seed_grid")
    # the two ReachSweep stages without a public entry point; if they are
    # renamed, their time shows up in reachset.self.s instead
    tracer.wrap(reachset.ReachSweep, "_pair_gaps", "reachset.pair_gaps")
    tracer.wrap(reachset.ReachSweep, "_rasterize", "reachset.rasterize")
    tracer.wrap(reachset, "marching_squares", "reachset.marching_squares")
    tracer.wrap(svg, "reachset_figure", "svg.reachset_figure")
    tracer.wrap(reachset, "revolve_to_3d", "reachset.revolve")
    tracer.wrap(reachset, "write_obj", "reachset.write_obj")
    tracer.wrap(table, "build_table", "table.build_table")
    tracer.wrap(table, "save", "table.save")
    tracer.wrap(table, "load", "table.load")
    tracer.wrap(table, "query", "table.query")
    tracer.wrap(extremals, "integrate_extremal", "extremals.integrate_extremal")
    tracer.wrap(extremals, "replay_extremal", "extremals.replay_extremal")
    tracer.wrap(extremals, "recover_control", "extremals.recover_control")
    tracer.wrap(extremals, "simulate_piecewise_batch", "extremals.simulate_piecewise_batch", _segments_note)
    tracer.wrap(schedule, "simulate", "schedule.simulate")
    tracer.wrap(schedule, "integrate", "ode.integrate")


def layer_metrics(tracer: Tracer, facts: dict, wall_s: float) -> dict:
    """Every LAYER_MOVES value of one traced run.

    ``facts`` holds what the workload read off the objects it built
    (``reachset.seeds_live`` and the like); layers a workload bypasses
    report zero.
    """
    rows = tracer.table()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def calls(name):
        return rows.get(name, empty)["calls"]

    def secs(name):
        return rows.get(name, empty)["s"]

    def attr_sum(name, key, parent=None):
        return sum(
            s.attrs[key] for s in tracer.spans
            if s.name == name and (parent is None or s.parent == parent)
        )

    v = {
        "extremals.seed.calls": calls("extremals.seed"),
        "extremals.seed.s": secs("extremals.seed"),
        "extremals.sweep.calls": calls("extremals.sweep"),
        "extremals.sweep.s": secs("extremals.sweep"),
        "extremals.sweep.seeds": attr_sum("extremals.sweep", "seeds"),
        "extremals.sweep.samples": attr_sum("extremals.sweep", "samples"),
        "extremals.sweep.out_mb": attr_sum("extremals.sweep", "out_bytes") / 1e6,
    }
    for reason in [*FAIL_REASONS.values(), "other"]:
        v[f"extremals.sweep.failed.{reason}"] = tracer.counts[reason]

    # every sweep after the first inside a ReachSweep is a refinement round
    rounds = added = 0
    for i, span in enumerate(tracer.spans):
        if span.name == "reachset.ReachSweep":
            own = [s.attrs["seeds"] for s in tracer.spans if s.name == "extremals.sweep" and s.parent == i]
            rounds += max(0, len(own) - 1)
            added += sum(own[1:])
    reach = rows.get("reachset.ReachSweep", empty)
    v.update({
        "reachset.pair_gaps.calls": calls("reachset.pair_gaps"),
        "reachset.pair_gaps.s": secs("reachset.pair_gaps"),
        "reachset.rasterize.s": secs("reachset.rasterize"),
        "reachset.self.s": reach["self_s"],
        "reachset.child_cover": 100.0 * (1.0 - reach["self_s"] / reach["s"]) if reach["s"] else 0.0,
        "reachset.refine.rounds": rounds,
        "reachset.refine.seeds_added": added,
        "reachset.seeds_live": facts.get("reachset.seeds_live", 0),
        "reachset.unfilled_pairs": facts.get("reachset.unfilled_pairs", 0),
        "reachset.n_failed": facts.get("reachset.n_failed", 0),
        "reachset.marching_squares.calls": calls("reachset.marching_squares"),
        "reachset.marching_squares.s": secs("reachset.marching_squares"),
        "svg.reachset_figure.s": secs("svg.reachset_figure"),
        "reachset.revolve.s": secs("reachset.revolve"),
        "table.bin.s": rows.get("table.build_table", empty)["self_s"],
        "table.save.s": secs("table.save"),
        "table.load.s": secs("table.load"),
        "table.query.s": secs("table.query"),
        "extremals.integrate_extremal.calls": calls("extremals.integrate_extremal"),
        "extremals.integrate_extremal.s": secs("extremals.integrate_extremal"),
        "extremals.simulate_piecewise_batch.s": secs("extremals.simulate_piecewise_batch"),
        "extremals.simulate_piecewise_batch.segments": attr_sum(
            "extremals.simulate_piecewise_batch", "segments"
        ),
        "extremals.recover_control.s": secs("extremals.recover_control"),
        "schedule.simulate.s": secs("schedule.simulate"),
        "ode.integrate.calls": calls("ode.integrate"),
        "trace.wall_s": wall_s,
    })
    return v
