"""Benchmark of codescent: the cost of certified and verified answers.

Run from the repository root, with single-threaded BLAS as in
BENCHMARK.json::

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload ladder --seed 1 --seconds 8 --trace 0

A run warms up, times set-up several times, then runs whole rounds of
the workload's operations (every method and oracle call on every
instance, in an order drawn from the seed) until ``--seconds`` have
passed.  Only the calls into codescent are timed.  Every outcome is then
checked against computations made apart from the program
(``reference.py``).  With ``--trace 1`` the run instead times one
untraced set-up and round, then traces two or more of each
(``spans.py``), checks that every counter repeats, and writes the trace
to ``perfbench/out/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
report on standard error names the cause of every failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Traced passes of set-up and the least number of traced rounds.
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ladder", "mhd", "grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Bench:
    def __init__(self, name: str, seed: int):
        import numpy as np
        import workloads

        self.wl = workloads
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.instances = self.spec.instances()
        self.ops = [(i, m) for i, inst in enumerate(self.instances) for m in inst.methods]
        self.rng = np.random.default_rng(seed)

    def warm_up(self) -> None:
        """Build the first instance of each group and run its operations once."""
        seen = set()
        for inst in self.instances:
            if inst.group not in seen:
                seen.add(inst.group)
                p = inst.build()
                for m in inst.methods:
                    try:
                        self.wl.run_method(m, p)
                    except Exception:  # warm-up only; every op is checked later
                        pass

    def set_up(self):
        """One timed set-up pass: (seconds, problems)."""
        t0 = perf_counter()
        problems = [inst.build() for inst in self.instances]
        return perf_counter() - t0, problems

    def run_round(self, problems, setup_passes: int = 0):
        """Run every operation once, and ``setup_passes`` set-up passes spread
        among them, in an order drawn from the seed.  With ``problems`` None
        the round starts with a set-up pass and solves what it made.

        Returns (seconds per operation, outcomes, [(set-up seconds, key)], problems).
        """
        run_method, summarize = self.wl.run_method, self.wl.summarize
        times = [0.0] * len(self.ops)
        outcomes = [None] * len(self.ops)
        passes = []
        order = list(self.rng.permutation(len(self.ops) + setup_passes))
        if problems is None:
            order.remove(len(self.ops))
            order.insert(0, len(self.ops))
        with no_gc():
            for k in order:
                if k >= len(self.ops):
                    t, made = self.set_up()
                    passes.append((t, problem_keys(made)))
                    if problems is None:
                        problems = made
                    del made
                    continue
                i, method = self.ops[k]
                t0 = perf_counter()
                try:
                    out = run_method(method, problems[i])
                except Exception as exc:  # a failed operation, reported with its cause
                    out = exc
                times[k] = perf_counter() - t0
                outcomes[k] = summarize(out)
                del out
        return times, outcomes, passes, problems


@contextmanager
def no_gc():
    """Collect garbage, then keep the collector off for a timed section."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def problem_keys(problems) -> tuple:
    """Exact fingerprint of the output of a set-up pass."""
    parts = []
    for p in problems:
        parts.append(p.x0.tobytes())
        if p.f is not None:
            parts += [p.f.plus.tobytes(), p.f.minus.tobytes()]
        for child in getattr(p.fn, "children", ()):
            parts += [child.H.tobytes(), child.b.tobytes(), repr(child.c)]
    return tuple(parts)


def check_rounds(bench: Bench, problems, rounds) -> tuple[list, list[str]]:
    """Check every outcome of every round; returns (causes per round, consistency errors)."""
    import reference

    errors = []
    for k in range(len(bench.ops)):
        if len({r[1][k].key() for r in rounds}) > 1:
            i, method = bench.ops[k]
            errors.append(f"{bench.instances[i].name} {method}: outcome differs between rounds")
    refs = {}
    causes = []
    for _, outcomes in rounds:
        round_causes = []
        for (i, method), o in zip(bench.ops, outcomes):
            inst, p = bench.instances[i], problems[i]
            if i not in refs:
                refs[i] = reference.maxq_reference(p.fn, p.x0) if p.f is None else reference.pa_reference(p.f, inst.scale)
            if p.f is None:
                round_causes.append(reference.check_mhd(refs[i], o, bench.wl.MAXQ_CFG.stop_tol))
            else:
                round_causes.append(reference.check_pa(method, refs[i], o, inst.scale))
        causes.append(round_causes)
    return causes, errors


def fastest(rounds) -> list[float]:
    """Each operation's time in its fastest round.

    Operations are deterministic, and other tenants of a shared host only
    ever slow one down, so the fastest round is the least disturbed
    measurement of its cost (README.md, "Why the fastest round").
    """
    return [min(times[k] for times, _ in rounds) for k in range(len(rounds[0][0]))]


def rates(bench: Bench, rounds, causes) -> dict:
    """certified_per_s and verified_per_s, from each operation's fastest round."""
    methods = bench.wl.METHODS
    best = fastest(rounds)
    first = causes[0]
    method_s = sum(t for t, (_, m) in zip(best, bench.ops) if m in methods)
    oracle_s = sum(t for t, (_, m) in zip(best, bench.ops) if m not in methods)
    certified = sum(1 for c, (_, m) in zip(first, bench.ops) if m in methods and c is None)
    verified = sum(1 for c, (_, m) in zip(first, bench.ops) if m not in methods and c is None)
    return {"certified_per_s": certified / method_s, "verified_per_s": verified / oracle_s,
            "method_s": method_s, "oracle_s": oracle_s}


def report(bench: Bench, causes) -> None:
    failed = [(bench.instances[i].name, m, c) for (i, m), c in zip(bench.ops, causes[0]) if c is not None]
    log(f"{bench.name}: {len(causes)} round(s) of {len(bench.ops)} operations, {len(failed)} failed per round")
    for name, method, cause in failed:
        log(f"  FAILED {name} {method}: {cause}")


def untraced(bench: Bench, seconds: float):
    problems, rounds, setups = None, [], []
    t0 = perf_counter()
    while len(rounds) < bench.wl.MIN_ROUNDS or perf_counter() - t0 < seconds:
        times, outcomes, passes, problems = bench.run_round(problems, bench.spec.passes_in_round(len(rounds)))
        rounds.append((times, outcomes))
        setups += passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    causes, errors = check_rounds(bench, problems, rounds)
    if len({key for _, key in setups}) > 1:
        errors.append("set-up outputs differ between passes")
    r = rates(bench, rounds, causes)
    setup_s = statistics.median(t for t, _ in setups)
    log(f"set-up {setup_s:.4f} s (median of {len(setups)}); methods {r['method_s']:.3f} s and "
        f"oracle {r['oracle_s']:.3f} s per round (fastest round per operation)")
    report(bench, causes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "certified_per_s": (r["certified_per_s"], "1/s"),
        "verified_per_s": (r["verified_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return rounds, causes, errors, metrics


def traced(bench: Bench, seconds: float, seed: int):
    import spans

    times, outcomes, passes, plain = bench.run_round(None, 1)
    base_setup = passes[0][0]
    untraced_rounds = [(times, outcomes)]

    tracer = spans.Tracer()
    tracer.install()
    try:
        setup_snaps, keys = [], {passes[0][1]}
        for _ in range(TRACED_PASSES):
            with no_gc():
                t, problems = bench.set_up()
            keys.add(problem_keys(problems))
            setup_snaps.append((t, tracer.take()))
        tracer.wrap_callbacks(p.fn for p in problems)
        traced_rounds, round_snaps = [], []
        t0 = perf_counter()
        while len(traced_rounds) < TRACED_PASSES or perf_counter() - t0 < seconds:
            times, outcomes, _, _ = bench.run_round(problems)
            traced_rounds.append((times, outcomes))
            round_snaps.append(tracer.take())
            # an untraced round after each traced one, for the overhead
            tracer.uninstall()
            untraced_rounds.append(bench.run_round(plain)[:2])
            tracer.install()
    finally:
        tracer.uninstall()
    rounds = untraced_rounds + traced_rounds

    causes, errors = check_rounds(bench, problems, rounds)
    if len(keys) > 1:
        errors.append("set-up outputs differ between passes")
    setup_snaps, setup_times = [s for _, s in setup_snaps], [t for t, _ in setup_snaps]
    for what, snaps in (("set-up", setup_snaps), ("round", round_snaps)):
        if any(spans.counts(s) != spans.counts(snaps[0]) for s in snaps):
            errors.append(f"trace counters differ between traced {what} passes")
    report(bench, causes)

    traced_round, base_round = sum(fastest(traced_rounds)), sum(fastest(untraced_rounds))
    traced_setup = statistics.median(setup_times)
    overhead_pct = 100.0 * (traced_round / base_round - 1.0)
    metrics = spans.layer_metrics(setup_snaps, round_snaps)
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    log(f"tracing overhead: round {traced_round:.3f} s traced vs {base_round:.3f} s untraced "
        f"({overhead_pct:+.1f}%); set-up {traced_setup:.4f} s vs {base_setup:.4f} s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{bench.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": bench.name,
        "seed": seed,
        "untraced": {"setup_s": base_setup, "round_s": base_round},
        "traced": {"setup_s": traced_setup, "round_s": traced_round, "overhead_pct": overhead_pct},
        "setup_passes": setup_snaps,
        "rounds": round_snaps,
    }, indent=1))
    log(f"trace written to {path.relative_to(ROOT)}")
    return rounds, causes, errors, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codescent" / "__init__.py").is_file():
        log(f"perfbench: no codescent sources under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(args.workload, args.seed)
    bench.warm_up()
    if args.trace:
        rounds, causes, errors, metrics = traced(bench, args.seconds, args.seed)
    else:
        rounds, causes, errors, metrics = untraced(bench, args.seconds)
    for e in errors:
        log(f"INCONSISTENT: {e}")
    result = {
        "correct": not errors,
        "attempted": len(rounds) * len(bench.ops),
        "failed": sum(c is not None for rc in causes for c in rc),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
