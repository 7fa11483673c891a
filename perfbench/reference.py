"""Checks made apart from the program, after every timed section.

Piecewise-affine answers are checked against SciPy's HiGHS solver, one
epigraph LP per min-part piece, on the instance divided by its scale.
Max-of-quadratics end points are checked against an SLSQP solve of the
epigraph program, built from the quadratics' data.  Values at reported
points are evaluated here with numpy, not with the program's
``evaluate``.  Each check returns ``None`` when the outcome passes and
the cause of the failure otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from workloads import Outcome

#: Relative tolerance on values, after dividing by the instance scale.
VALUE_TOL = 1e-6

#: Relative tolerance between a reported value and f at the reported point.
EVAL_TOL = 1e-9

# ---------------------------------------------------------------------------
# piecewise-affine instances


def dc_value(plus: np.ndarray, minus: np.ndarray, x) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.max(plus[:, 0] + plus[:, 1:] @ x) + np.min(minus[:, 0] + minus[:, 1:] @ x))


@dataclass(frozen=True)
class PARef:
    """HiGHS verdict on f / scale: bounded below, and its minimum if so."""

    plus: np.ndarray
    minus: np.ndarray
    bounded: bool
    value: float | None


def pa_reference(f, scale: float) -> PARef:
    plus, minus = f.plus / scale, f.minus / scale
    d = f.d
    cost = np.zeros(d + 1)
    cost[-1] = 1.0
    best = np.inf
    for row in minus:
        P = plus + row
        A = np.column_stack([P[:, 1:], -np.ones(P.shape[0])])
        res = linprog(cost, A_ub=A, b_ub=-P[:, 0], bounds=[(None, None)] * (d + 1), method="highs")
        if res.status == 2:
            # the epigraph LP is always feasible; presolve may report
            # "infeasible or unbounded", so settle it without presolve
            res = linprog(cost, A_ub=A, b_ub=-P[:, 0], bounds=[(None, None)] * (d + 1),
                          method="highs", options={"presolve": False})
        if res.status == 3:
            return PARef(plus, minus, False, None)
        if res.status != 0:
            raise RuntimeError(f"HiGHS could not solve a reference LP: {res.message}")
        best = min(best, float(res.fun))
    return PARef(plus, minus, True, best)


def _check_ray(ref: PARef, x, ray) -> str | None:
    r = np.asarray(ray, dtype=float)
    r = r / np.linalg.norm(r)
    slope = float(np.max(ref.plus[:, 1:] @ r) + np.min(ref.minus[:, 1:] @ r))
    if not slope < -1e-9:
        return f"ray has recession slope {slope:.3g}, f does not go to -inf along it"
    x = np.zeros(r.size) if x is None else np.asarray(x, dtype=float)
    t = 1e3 * (1.0 + float(np.linalg.norm(x)))
    vals = [dc_value(ref.plus, ref.minus, x + t * 2.0**k * r) for k in range(4)]
    if not all(b < a for a, b in zip(vals, vals[1:])):
        return "f does not strictly decrease along the ray"
    return None


def _check_value(ref: PARef, value: float, x, scale: float, what: str) -> str | None:
    v = value / scale
    if abs(v - ref.value) > VALUE_TOL * max(1.0, abs(ref.value)):
        return f"false {what}: value {v:.9g}, HiGHS minimum {ref.value:.9g} (in units of the scale)"
    fx = dc_value(ref.plus, ref.minus, x)
    if abs(fx - v) > EVAL_TOL * max(1.0, abs(fx)):
        return f"reported value {v:.12g} differs from f at the reported point {fx:.12g}"
    return None


def check_pa(method: str, ref: PARef, o: Outcome, scale: float) -> str | None:
    if o.status == "error":
        return o.cause
    if method == "oracle":
        if o.status == "bounded":
            if not ref.bounded:
                return "oracle says bounded, HiGHS says unbounded below"
            return _check_value(ref, o.value, o.x, scale, "oracle minimum")
        if ref.bounded:
            return f"oracle says unbounded, HiGHS minimum {ref.value:.9g}"
        return _check_ray(ref, None, o.ray)
    if o.status in ("global_min", "stationary"):
        if not ref.bounded:
            return f"false {o.status}: HiGHS says f is unbounded below"
        return _check_value(ref, o.value, o.x, scale, o.status)
    if o.status == "unbounded_below":
        if ref.bounded:
            return f"false unbounded_below: HiGHS minimum {ref.value:.9g}"
        if o.ray is None:
            return "unbounded_below without a ray"
        return _check_ray(ref, o.x, o.ray)
    return f"no certificate: status {o.status}"


# ---------------------------------------------------------------------------
# max of quadratics


@dataclass(frozen=True)
class MaxQRef:
    quads: tuple
    value: float
    x: np.ndarray

    def f(self, x) -> float:
        return max(0.5 * x @ H @ x + b @ x + c for H, b, c in self.quads)


def maxq_reference(fn, x0) -> MaxQRef:
    """Minimize max_i q_i by SLSQP on ``min t  s.t.  t >= q_i(x)``."""
    quads = tuple((q.H, q.b, q.c) for q in fn.children)
    d = x0.size
    cons = [
        {
            "type": "ineq",
            "fun": lambda z, H=H, b=b, c=c: z[-1] - (0.5 * z[:-1] @ H @ z[:-1] + b @ z[:-1] + c),
            "jac": lambda z, H=H, b=b: np.concatenate([-(H @ z[:-1] + b), [1.0]]),
        }
        for H, b, c in quads
    ]
    ref = MaxQRef(quads, np.inf, x0)
    for start in (np.zeros(d), x0):
        z0 = np.concatenate([start, [ref.f(start)]])
        res = minimize(lambda z: z[-1], z0, jac=lambda z: np.concatenate([np.zeros(d), [1.0]]),
                       constraints=cons, method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
        x = res.x[:-1]
        if ref.f(x) < ref.value:
            ref = MaxQRef(quads, ref.f(x), x)
    return ref


def check_mhd(ref: MaxQRef, o: Outcome, stop_tol: float) -> str | None:
    """A certificate norm ``n`` at ``x`` bounds ``f(x) - f*`` by
    ``n (1 + |x - x*|)``: every hypodifferential vertex is a lower model
    of f, so their convex combination is one too."""
    if o.status == "error":
        return o.cause
    if o.status != "stationary":
        return f"no certificate: status {o.status}"
    if not o.monotone:
        return "MHD values increased along the run"
    if not o.norm <= stop_tol:
        return f"certificate norm {o.norm:.3g} above the stop tolerance"
    fx = ref.f(o.x)
    if abs(fx - o.value) > EVAL_TOL * max(1.0, abs(fx)):
        return f"reported value {o.value:.12g} differs from f at the reported point {fx:.12g}"
    gap = o.value - ref.value
    bound = o.norm * (1.0 + float(np.linalg.norm(o.x - ref.x)))
    if gap > bound + 1e-9 * (1.0 + abs(ref.value)):
        return f"gap to the SLSQP minimum {gap:.3g} exceeds the certified bound {bound:.3g}"
    if gap < -1e-7 * (1.0 + abs(ref.value)):
        return f"end value lies {-gap:.3g} below the SLSQP minimum"
    return None
