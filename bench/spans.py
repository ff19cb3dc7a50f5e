"""Span tracing around the calls one fracmix layer makes into another.

The tracer replaces module attributes (the names through which a layer
calls the next one) with timing wrappers.  Each call becomes a span with a
name, start, end and parent; spans stay in memory and are aggregated per
(name, parent) when the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans, so the self times of
all spans, including the root, add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

ROOT = "cli"

# (module, attribute path, span name).  Each entry is a name one layer
# looks up at call time to reach another layer.
PATCHES = (
    ("fracmix.cli", "project", "basis.project"),
    ("fracmix.cli", "solve_inverse", "solver.solve"),
    ("fracmix.cli", "forward_state", "solver.solve"),
    ("fracmix.solver", "SolutionField.mode_values", "solver.mode_values"),
    ("fracmix.solver", "ml", "specfun.ml"),
    ("fracmix.solver", "e1", "specfun.e1"),
    ("fracmix.solver", "synthesize", "basis.synthesize"),
    ("fracmix.solver", "synthesize_second_deriv", "basis.synthesize"),
    ("fracmix.verify", "synthesize", "basis.synthesize"),
    ("fracmix.verify", "pde_residual", "verify.pde"),
    ("fracmix.verify", "transmit_residual", "verify.transmit"),
    ("fracmix.verify", "boundary_residual", "verify.boundary"),
    ("fracmix.verify", "continuity_residual", "verify.continuity"),
    ("fracmix.verify", "tail_report", "verify.tails"),
    ("fracmix.verify", "caputo_left_factored", "fraccalc.caputo"),
    ("fracmix.verify", "caputo_right_factored", "fraccalc.caputo"),
    ("fracmix.verify", "caputo_right", "fraccalc.caputo"),
    # returns (value, d1, d2) closures; the closures become the spans
    ("fracmix.verify", "mode_profile", "solver.profile"),
)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # (span id, name, parent id, start, end); parent -1 for the root
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.missing: list[str] = []
        # distinct specfun.ml argument tuples, to count repeated calls
        self.ml_keys: set = set()
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, \
            time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end))

        return traced

    def _wrap_ml(self, fn):
        """specfun.ml span that also counts repeated arguments."""
        keys = self.ml_keys
        inner = self.wrap("specfun.ml", fn)

        def traced(*args, **kwargs):
            keys.add((args, tuple(sorted(kwargs.items()))))
            return inner(*args, **kwargs)

        return traced

    def _wrap_profile(self, fn):
        wrap = self.wrap

        def traced(*args, **kwargs):
            return tuple(wrap("solver.profile", g) for g in fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        """Patch every PATCHES entry; names that no longer exist are
        recorded as missing and left alone."""
        for module, path, name in PATCHES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            if name == "specfun.ml":
                traced = self._wrap_ml(fn)
            elif name == "solver.profile":
                traced = self._wrap_profile(fn)
            else:
                traced = self.wrap(name, fn)
            setattr(owner, attr, traced)

    def aggregate(self) -> list[dict]:
        """Per (name, parent, stage) rows of count, total and self seconds.

        The stage is the span's ancestor directly under the root, so a
        leaf's time can be read per verifier stage."""
        info = {sid: (name, parent, end - start)
                for sid, name, parent, start, end in self.spans}
        child = defaultdict(float)
        for _, parent, dur in info.values():
            child[parent] += dur
        stage_of: dict[int, str] = {}

        def stage(sid: int) -> str:
            path = []
            while sid not in stage_of:
                name, parent, _ = info[sid]
                if parent == -1 or info[parent][1] == -1:
                    stage_of[sid] = name
                    break
                path.append(sid)
                sid = parent
            for s in path:
                stage_of[s] = stage_of[sid]
            return stage_of[sid]

        rows: dict[tuple, list] = {}
        for sid, (name, parent, dur) in info.items():
            key = (name, info[parent][0] if parent != -1 else "",
                   stage(sid))
            row = rows.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return [{"name": n, "parent": p, "stage": s, "count": c,
                 "total_s": tot, "self_s": slf}
                for (n, p, s), (c, tot, slf) in sorted(rows.items())]


def layer_totals(rows: list[dict]) -> dict[str, dict]:
    """Self seconds and call counts per span name, summed over parents."""
    out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "count": 0})
    for r in rows:
        out[r["name"]]["self_s"] += r["self_s"]
        out[r["name"]]["count"] += r["count"]
    return out
