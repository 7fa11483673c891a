"""The benchmark's workloads: which instances each one builds and which
program calls it makes on them every round.

An instance's ``build`` makes only program calls (``generate_pa``,
``random_start``, ``expr_to_dc``, ``max_quadratics``, ``ConvexPAView``,
``worked_example``); everything the benchmark itself draws, such as the
expression trees, is drawn before set-up is timed.

The instance sets are fixed.  The known failures (see README.md) must
fail the same way on every run, and a set that changed with the seed
would change the work in a round; the seed orders the operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import codescent as cs
from codescent.mhd import MHDConfig

#: Armijo MHD on the max-of-quadratics rate set.  Every one of the 20 runs
#: reaches a certificate norm of 1e-2 (in 55 to 303 iterations); 1e-8 is
#: never reached.
MAXQ_CFG = MHDConfig(sigma=0.1, gamma=0.5, stop_tol=1e-2, max_iter=20_000)

#: The CLI's ``--method mhd`` settings for convex piecewise-affine problems.
EXACT_CFG = MHDConfig(stop_tol=1e-8, max_iter=1000)

PA_METHODS = ("mgcd", "mcd", "oracle")

#: Operations whose certified outcomes ``certified_per_s`` counts; the
#: other operation is the oracle, which ``verified_per_s`` counts.
METHODS = ("mgcd", "mcd", "mhd", "mhd_exact")


@dataclass
class Problem:
    """Solver inputs made by set-up.  ``f`` is a DCForm for the
    piecewise-affine kinds; ``fn`` is the convex function MHD runs on."""

    x0: np.ndarray
    f: cs.DCForm | None = None
    fn: cs.ConvexFn | None = None


@dataclass
class Instance:
    name: str
    group: str
    build: Callable[[], Problem]
    methods: tuple[str, ...]
    scale: float = 1.0


class Unbounded(Exception):
    """The exact line search met a ray along which f is unbounded."""


def _pa(name, group, d, l, s, seed, scale=1.0, x0=None):
    def build():
        f = cs.generate_pa(seed, d, l, s, scale=scale)
        start = cs.random_start(seed, d) if x0 is None else np.array(x0, dtype=float)
        return Problem(x0=start, f=f)

    return Instance(name, group, build, PA_METHODS, scale)


def _convex_pa(d, l, seed):
    def build():
        f = cs.generate_pa(seed, d, l, 1)
        return Problem(x0=cs.random_start(seed, d), f=f, fn=cs.ConvexPAView(f))

    return Instance(f"convex-d{d}-l{l}-seed{seed}", "convex", build, ("mhd_exact", "oracle"))


def _maxq(seed):
    def build():
        fn, _, x0 = cs.max_quadratics(seed, d=10, k=5)
        return Problem(x0=x0, fn=fn)

    return Instance(f"maxq-seed{seed}", "maxq", build, ("mhd",))


def _example():
    def build():
        return Problem(x0=np.array([2.0, 2.0]), f=cs.worked_example())

    return Instance("worked-example", "example", build, PA_METHODS)


def _tree(k, expr, d):
    def build():
        return Problem(x0=np.zeros(d), f=cs.expr_to_dc(expr, d=d))

    return Instance(f"tree-{k}-d{d}", "tree", build, PA_METHODS)


def random_expr(rng, depth, d, leaf_scale=2.0):
    """Random expression tree over R^d, the acceptance criterion-6 family."""
    if depth == 0:
        if rng.random() < 0.85:
            return cs.Affine(leaf_scale * rng.normal(), leaf_scale * rng.normal(size=d))
        return cs.Const(leaf_scale * rng.normal())
    kind = rng.choice(["scale", "sum", "max", "min"])
    if kind == "scale":
        return cs.Scale(float(rng.normal()), random_expr(rng, depth - 1, d, leaf_scale))
    n = int(rng.integers(2, 4))
    children = [random_expr(rng, int(rng.integers(0, depth)), d, leaf_scale) for _ in range(n)]
    return {"sum": cs.Sum, "max": cs.Max, "min": cs.Min}[kind](*children)


def acceptance_grid():
    """The 200 (d, l, s, seed) of acceptance criteria 2 and 3."""
    for d in (2, 3, 4, 5):
        lo = 2 * d
        for l, s in ((lo, 1), (lo, 2), (min(lo + 2, 10), 3), (min(lo + 3, 10), 4), (10, 6)):
            for seed in range(10):
                yield d, l, s, (seed * 100003 + d * 1009 + l * 101 + s) % 2**31


def ladder():
    # (10, 80, 20) seed 7 makes min_norm_point cycle in both methods.
    rungs = ((6, 40, 8, 0), (8, 60, 10, 0), (10, 80, 20, 0), (10, 80, 20, 7), (12, 120, 24, 0))
    out = [_pa(f"ladder-d{d}-l{l}-s{s}-seed{seed}", "rung", d, l, s, seed) for d, l, s, seed in rungs]
    return out + [_example()]


def mhd():
    out = [_maxq(seed) for seed in range(20)]
    out += [_convex_pa(d, l, seed) for d, l, seed in ((3, 8, 1), (4, 10, 2), (5, 12, 3), (6, 16, 4), (8, 24, 5), (10, 40, 6))]
    return out + [_example()]


def grid():
    out = [
        _pa(f"grid-d{d}-l{l}-s{s}-seed{seed}", "grid", d, l, s, seed)
        for d, l, s, seed in acceptance_grid()
    ]
    for k in range(-6, 7):
        out.append(_pa(f"scale-1e{k}", "scale", 3, 8, 4, 42, scale=10.0**k, x0=(1.0, 2.0, -1.0)))
    rng = np.random.default_rng(606)
    for k in range(100):
        d = int(rng.integers(1, 4))
        out.append(_tree(k, random_expr(rng, int(rng.integers(1, 5)), d), d))
    return out + [_example()]


#: Rounds a run makes at least, so that each operation has that many times
#: to choose the fastest from.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """``setup_passes`` set-up passes are shared out among a run's first
    rounds and spread among their operations, so that the median set-up
    time samples the whole run; ``ladder`` makes two, as each takes 8 to
    14 s."""

    instances: Callable[[], list[Instance]]
    setup_passes: int

    def passes_in_round(self, r: int) -> int:
        if r >= MIN_ROUNDS:
            return 0
        return self.setup_passes // MIN_ROUNDS + (r < self.setup_passes % MIN_ROUNDS)


WORKLOADS = {
    "ladder": Workload(ladder, setup_passes=2),
    "mhd": Workload(mhd, setup_passes=24),
    "grid": Workload(grid, setup_passes=6),
}


def run_method(method: str, p: Problem):
    """The one timed program call of an operation."""
    if method == "mgcd":
        return cs.mgcd_run(p.f, p.x0, max_iter=100_000)
    if method == "mcd":
        return cs.mcd_run(p.f, p.x0, mu=math.inf, max_iter=100_000)
    if method == "oracle":
        return cs.pa_global_min(p.f)
    if method == "mhd":
        return cs.mhd_run(p.fn, p.x0, MAXQ_CFG)
    if method == "mhd_exact":
        f = p.f

        def exact(x, v):
            res = cs.line_search_pa(f, x, v)
            if res.unbounded:
                raise Unbounded("exact line search found an unbounded ray")
            return res.alpha

        return cs.mhd_run(p.fn, p.x0, EXACT_CFG, exact_line_search=exact)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class Outcome:
    """What an operation returned, reduced to what the checks need."""

    status: str
    x: np.ndarray | None = None
    value: float | None = None
    ray: np.ndarray | None = None
    norm: float | None = None
    monotone: bool | None = None
    cause: str | None = None

    def key(self):
        """Exact fingerprint: equal outcomes in two rounds have equal keys."""

        def raw(a):
            return None if a is None else np.asarray(a, dtype=float).tobytes()

        return (self.status, raw(self.x), self.value, raw(self.ray), self.norm, self.monotone, self.cause)


def summarize(out) -> Outcome:
    """Reduce a program result, or the exception it raised, to an Outcome."""
    if isinstance(out, Exception):
        return Outcome("error", cause=f"{type(out).__name__}: {out}")
    if isinstance(out, cs.GlobalRun):
        return Outcome(out.status, out.final_x, out.final_f, out.ray)
    if isinstance(out, cs.MHDTrace):
        values = np.array([s.f for s in out.steps])
        return Outcome(out.status, out.final_x, out.final_f, norm=out.steps[-1].norm,
                       monotone=bool(np.all(np.diff(values) <= 0.0)))
    return Outcome(out.status, out.argmin, out.value, out.ray)
