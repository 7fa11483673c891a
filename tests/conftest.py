"""Shared test oracles and generators.

The oracles here are deliberately independent of the library paths they
check: the small-hull projection enumerates faces in closed form, and
the convex minimizer delegates to SciPy's SLSQP on the epigraph.
"""

import numpy as np
import pytest

from codescent import pa, project_piece


# ---------------------------------------------------------------------------
# closed-form projection of the origin onto a point/segment/triangle


def _closest_on_segment(a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return a
    t = np.clip(-float(a @ ab) / denom, 0.0, 1.0)
    return a + t * ab


def project_origin_small_hull(P):
    """Closest point to the origin in conv(P) for at most 3 vertices."""
    P = np.asarray(P, dtype=float)
    m = P.shape[0]
    if m == 1:
        return P[0]
    if m == 2:
        return _closest_on_segment(P[0], P[1])
    A, B, C = P
    M = np.stack([B - A, C - A])
    G = M @ M.T
    det = G[0, 0] * G[1, 1] - G[0, 1] ** 2
    if det > 1e-12 * max(G[0, 0] * G[1, 1], 1e-300):
        uv = np.linalg.solve(G, -M @ A)
        if uv[0] >= 0.0 and uv[1] >= 0.0 and uv.sum() <= 1.0:
            return A + uv @ M
    edges = [
        _closest_on_segment(A, B),
        _closest_on_segment(B, C),
        _closest_on_segment(A, C),
    ]
    return min(edges, key=lambda p: float(p @ p))


# ---------------------------------------------------------------------------
# independent convex minimizer (SciPy SLSQP on the epigraph)


def slsqp_min_of_max(children, d, starts):
    """Minimize max_i q_i(x) over R^d; returns (value, argmin).

    ``children`` are SmoothConvex atoms.  The epigraph program
    ``min t  s.t.  t >= q_i(x)`` has smooth constraints, so SLSQP finds
    the global optimum of this convex problem from any start.
    """
    from scipy.optimize import minimize

    cons = [
        {
            "type": "ineq",
            "fun": (lambda z, q=q: z[-1] - q.value(z[:-1])),
            "jac": (lambda z, q=q: np.concatenate([-q.fn(z[:-1])[1], [1.0]])),
        }
        for q in children
    ]
    best = None
    for x_init in starts:
        z0 = np.concatenate([x_init, [max(q.value(x_init) for q in children)]])
        res = minimize(
            lambda z: z[-1],
            z0,
            jac=lambda z: np.concatenate([np.zeros(d), [1.0]]),
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x[:-1])
    return best


# ---------------------------------------------------------------------------
# discard persistence, recomputed from a finished MGCD run


def discard_violations(f, run):
    """``(m, j, a_j)`` for each piece ``j`` discarded at iteration ``n``
    whose offset ``a_j(x_m)`` at a later iterate ``m > n`` is below
    ``-10 tol``.  MGCD's finite termination rests on there being none:
    a discarded piece never becomes useful again."""
    bound = -10.0 * run.certificate.tol
    out = []
    for n, j in run.discard_log:
        for m in range(n + 1, len(run.iterates)):
            a = float(project_piece(f, run.iterates[m], j)[0])
            if a < bound:
                out.append((m, j, a))
    return out


def explicit_step_value(f, rec, tol):
    """Best explicit-step value ``min_j f(x + v_j / a_j)`` at a run record,
    over its projections with ``a_j < -tol``, or None if none descends:
    what MGCD's step would reach from the same point."""
    return min((pa.evaluate(f, rec.x + p[1:] / p[0]) for p in rec.projections.values() if p[0] < -tol),
               default=None)


def instance_grid(n_seeds=10):
    """The acceptance grid: d in 2..5, l <= 10, s <= 6, ``n_seeds`` seeds
    each (200 bounded-below instances at the default 10)."""
    for d in (2, 3, 4, 5):
        lo = 2 * d
        for (l, s) in ((lo, 1), (lo, 2), (min(lo + 2, 10), 3), (min(lo + 3, 10), 4), (10, 6)):
            for seed in range(n_seeds):
                yield d, l, s, (seed * 100003 + d * 1009 + l * 101 + s) % 2**31


# ---------------------------------------------------------------------------
# random expression trees


def random_expr(rng, depth, d, leaf_scale=2.0):
    """Random PAExpr of the given depth over R^d."""
    if depth == 0:
        if rng.random() < 0.85:
            return pa.Affine(leaf_scale * rng.normal(), leaf_scale * rng.normal(size=d))
        return pa.Const(leaf_scale * rng.normal())
    kind = rng.choice(["scale", "sum", "max", "min"])
    if kind == "scale":
        return pa.Scale(float(rng.normal()), random_expr(rng, depth - 1, d, leaf_scale))
    n = int(rng.integers(2, 4))
    children = [random_expr(rng, int(rng.integers(0, depth)), d, leaf_scale) for _ in range(n)]
    return {"sum": pa.Sum, "max": pa.Max, "min": pa.Min}[kind](*children)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
