"""Per-layer spans and counters, taken by wrapping codescent's public
functions from outside the program.

Every wrapped function records its calls, its total seconds (outermost
calls only, so a function that recurses through another wrapped one is
not counted twice) and its self seconds: its own duration minus that of
the wrapped functions it called.  Hooks add counters read from the
arguments and results at the same boundary, and each call is also
counted under its caller, so the trace holds a call tree in aggregate.
Spans are kept in memory as these aggregates; the benchmark writes them
out when it ends.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

from codescent import convex, mgcd, mhd, minnorm, oracle, pa, problems


def _expr_rows(counters, args, out):
    if out is not None:
        counters["pa.expr_to_dc.rows"] += out.plus.shape[0] + out.minus.shape[0]


def _hull_rows(counters, args, out):
    counters["minnorm.hull_rows"] += len(args[0])


def _global_run(counters, args, out):
    if out is not None:
        counters["mgcd.iterations"] += len(out.records)
        counters["mgcd.projections"] += sum(len(r.projections) for r in out.records)
        counters["mgcd.discards"] += len(out.discard_log)


def _mhd_run(counters, args, out):
    if out is not None:
        counters["mhd.iterations"] += len(out.steps) - 1
        counters["mhd.armijo_backtracks"] += sum(s.k for s in out.steps if s.k is not None)


def _lp_rows(counters, args, out):
    counters["oracle.lp_rows"] += len(args[0])


#: (module, function, hook) for every module-level function the trace wraps.
TARGETS = (
    (problems, "generate_pa", None),
    (pa, "expr_to_dc", _expr_rows),
    (pa, "global_codiff", None),
    (pa, "translate", None),
    (pa, "evaluate", None),
    (minnorm, "min_norm_point", _hull_rows),
    (mgcd, "mgcd_run", _global_run),
    (mgcd, "mcd_run", _global_run),
    (mgcd, "line_search_pa", None),
    (mhd, "mhd_run", _mhd_run),
    (mhd, "armijo_step", None),
    (oracle, "pa_global_min", None),
    (oracle, "min_max_affine", None),
    (oracle, "solve_lp", _lp_rows),
)

#: Convex-layer classes whose ``value`` and ``hypodiff`` are wrapped.
CONVEX_CLASSES = (convex.SmoothConvex, convex.ConvexCombination, convex.MaxOf, convex.ConvexPAView)


class Tracer:
    def __init__(self):
        self._spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._counters: Counter = Counter()
        self._callers: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, seconds spent in wrapped callees]
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook):
        stat = self._spans.setdefault(name, [0, 0.0, 0.0])
        counters, callers, stack, depth = self._counters, self._callers, self._stack, self._depth

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            callers[(stack[-1][0] if stack else "", name)] += 1
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                depth[name] -= 1
                stack.pop()
                stat[0] += 1
                stat[2] += dt - frame[1]
                if outer:
                    stat[1] += dt
                if stack:
                    stack[-1][1] += dt
                if hook is not None:
                    hook(counters, args, out)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target under each name any codescent module binds it to."""
        modules = [m for n, m in list(sys.modules.items()) if n == "codescent" or n.startswith("codescent.")]
        for module, attr, hook in TARGETS:
            orig = getattr(module, attr)
            wrapped = self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)
        for cls in CONVEX_CLASSES:
            for meth in ("value", "hypodiff"):
                self._patch(cls, meth, self._wrap(f"convex.{meth}", cls.__dict__[meth], None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def wrap_callbacks(self, fns) -> None:
        """Count calls into the ``fn`` callbacks of smooth atoms under max-functions."""
        for fn in fns:
            if isinstance(fn, convex.MaxOf):
                for child in fn.children:
                    if isinstance(child, convex.SmoothConvex):
                        child.fn = self._wrap("convex.callback", child.fn, None)

    def take(self) -> dict:
        """Return what was recorded since the last call, and start afresh."""
        snap = {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in sorted(self._spans.items())},
            "counters": dict(sorted(self._counters.items())),
            "callers": {f"{a or '<bench>'} > {b}": n for (a, b), n in sorted(self._callers.items())},
        }
        for stat in self._spans.values():
            stat[:] = [0, 0.0, 0.0]
        self._counters.clear()
        self._callers.clear()
        return snap


def layer_metrics(setups: list[dict], rounds: list[dict]) -> dict:
    """Per-layer metrics: counts from the first snapshot, times as medians.

    ``setups`` and ``rounds`` are the snapshots of the traced set-up
    passes and rounds; values are ``(value, unit)``.
    """
    S, R = setups[0], rounds[0]
    c = R["counters"]

    def calls(snap, name):
        return snap["spans"].get(name, {}).get("calls", 0)

    def med(snaps, name, field="total_s"):
        return statistics.median(s["spans"].get(name, {}).get(field, 0.0) for s in snaps)

    def ratio(num, den):
        return num / den if den else 0.0

    mnp, lps, iters = calls(R, "minnorm.min_norm_point"), calls(R, "oracle.solve_lp"), c.get("mgcd.iterations", 0)
    return {
        "problems.generate_pa.calls": (calls(S, "problems.generate_pa"), "count"),
        "problems.generate_pa.self_s": (med(setups, "problems.generate_pa", "self_s"), "s"),
        "oracle.pa_global_min.setup_s": (med(setups, "oracle.pa_global_min"), "s"),
        "pa.expr_to_dc.calls": (calls(S, "pa.expr_to_dc"), "count"),
        "pa.expr_to_dc.rows": (S["counters"].get("pa.expr_to_dc.rows", 0), "count"),
        "pa.expr_to_dc.s": (med(setups, "pa.expr_to_dc"), "s"),
        "pa.global_codiff.calls": (calls(R, "pa.global_codiff"), "count"),
        "pa.global_codiff.s": (med(rounds, "pa.global_codiff"), "s"),
        "pa.translate.calls": (calls(R, "pa.translate"), "count"),
        "pa.translate.s": (med(rounds, "pa.translate"), "s"),
        "pa.evaluate.calls": (calls(R, "pa.evaluate"), "count"),
        "pa.evaluate.s": (med(rounds, "pa.evaluate"), "s"),
        "minnorm.min_norm_point.calls": (mnp, "count"),
        "minnorm.min_norm_point.us_per_call": (1e6 * ratio(med(rounds, "minnorm.min_norm_point"), mnp), "us"),
        "minnorm.hull_rows_mean": (ratio(c.get("minnorm.hull_rows", 0), mnp), "rows"),
        "minnorm.no_convergence": (c.get("minnorm.min_norm_point.raised.NoConvergence", 0), "count"),
        "mgcd.iterations": (iters, "count"),
        "mgcd.projections": (c.get("mgcd.projections", 0), "count"),
        "mgcd.projections_per_iter": (ratio(c.get("mgcd.projections", 0), iters), "proj/iter"),
        "mgcd.discards": (c.get("mgcd.discards", 0), "count"),
        "mgcd.line_search_pa.calls": (calls(R, "mgcd.line_search_pa"), "count"),
        "mgcd.line_search_pa.s": (med(rounds, "mgcd.line_search_pa"), "s"),
        "convex.hypodiff.calls": (calls(R, "convex.hypodiff"), "count"),
        "convex.value.calls": (calls(R, "convex.value"), "count"),
        "convex.callbacks": (calls(R, "convex.callback"), "count"),
        "mhd.iterations": (c.get("mhd.iterations", 0), "count"),
        "mhd.armijo_backtracks": (c.get("mhd.armijo_backtracks", 0), "count"),
        "mhd.armijo_step.calls": (calls(R, "mhd.armijo_step"), "count"),
        "oracle.pa_global_min.calls": (calls(R, "oracle.pa_global_min"), "count"),
        "oracle.pa_global_min.s": (med(rounds, "oracle.pa_global_min"), "s"),
        "oracle.solve_lp.calls": (lps, "count"),
        "oracle.solve_lp.us_per_call": (1e6 * ratio(med(rounds, "oracle.solve_lp"), lps), "us"),
        "oracle.lp_rows_mean": (ratio(c.get("oracle.lp_rows", 0), lps), "rows"),
    }


def counts(snap: dict) -> dict:
    """The parts of a snapshot that must repeat exactly between passes."""
    return {
        "calls": {n: s["calls"] for n, s in snap["spans"].items()},
        "counters": snap["counters"],
        "callers": snap["callers"],
    }
