"""Minimum-norm point in the convex hull of a finite vertex set.

Vertex sets are dense float arrays of shape ``(m, k)``; throughout the
library ``k = d + 1`` and column 0 carries the scalar offset of an
augmented vector ``(a, v)``, but the solver itself works for any ``k >= 1``.

The solver is Wolfe's method, which may start from any weighted corral
(Wolfe 1976): alternate a linear-minimization ("major") step that adds
the most violating vertex to the working corral with "minor" steps that
restore the current point to a positive convex combination of the
corral.  A corral's affine subproblem is solved by least squares on the
differences of its vertices, not on their Gram matrix.  The solver has
no tolerance to set: it stops at the float resolution of its scores,
which is relative to the hull.  A hull of entries all below 1/2 in
magnitude is solved scaled up by an exact power of two, so no square
underflows and ``2**k * P`` projects to ``2**k`` times the projection of ``P``.

Given a stack ``(B, m, k)`` of hulls, ``min_norm_point`` projects each,
as MGCD and MCD do with the s translates ``H(x) + z_j(x)`` at every
iterate.  From ``STACK_MIN`` hulls on, one lockstep loop makes each
pass's minor cycles as one batched solve (normal equations of the
differences and one step of residual refinement) and its major cycles as
one batched product on the rows, so numpy's per-call overhead is paid per
pass, not per hull.  A hull whose norm stops decreasing there, and every
hull of a stack whose Gram matrix is singular or overflows, is projected
by the hull-by-hull loop, which smaller stacks always take.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NoConvergence

#: Weights at or below this threshold are dropped from the corral.
WEIGHT_DROP = 1e-14

#: Safety cap on major plus minor cycles per hull vertex.
MAX_CYCLES_PER_VERTEX = 1000

#: Stacks of fewer translates are projected hull by hull, which is the
#: faster way below this size (see CHANGES.md for the measurement).
STACK_MIN = 8

_RESOLUTION = 64 * np.finfo(float).eps


def min_norm_point(vertices: np.ndarray, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``min ||p||^2`` over ``p`` in the convex hull of ``vertices``.

    The first corral is the support of ``start`` with renormalised
    weights, or else the smallest-norm vertex (first one on ties).
    Minor cycles make it a positive combination minimal on its affine
    hull; each drops a vertex or ends them without raising ``||p||^2``,
    so a one-vertex corral needs none.  Major cycles then go on until
    every vertex ``q`` satisfies
    ``<p, q> >= ||p||^2 - 64 * eps * max_q ||q||^2``, the float resolution
    of the scores ``<p, q>``, which scales with the hull.  A major cycle
    that fails to strictly decrease the float value of ``||p||^2`` does
    not end the solve, as the true decrease may lie below its resolution:
    up to k such cycles in a row go on, and the next one returns the
    point with the smallest gap ``||p||^2 - min_q <p, q>`` since
    ``||p||^2`` last decreased.  So ``||p||^2`` strictly decreases at
    least once every k + 1 major cycles and the solver terminates from
    any start.  A hull whose largest |entry| is below 1/2 is solved
    scaled up exactly into [1/2, 1) by a power of two (``_exponent``),
    and its point is scaled back; its weights do not change.

    Parameters
    ----------
    vertices : array, shape (m, k) or (B, m, k)
        Rows are the hull vertices.  Redundant (interior or duplicate)
        rows are tolerated.  A stack of B hulls projects each
        ``vertices[b]`` by the rules above, with its own floor, stall
        rule and cycle cap; the point and weights then gain a leading
        axis of length B.
    start : array, shape (m,), optional
        Nonnegative weights with a finite positive sum, such as the
        ``weights`` of a projection onto a nearby hull (else ValueError).
        Not taken with a stack.

    Returns
    -------
    point : array, shape (k,)
        The minimum-norm point.
    weights : array, shape (m,)
        Convex weights with ``weights @ vertices == point``; nonnegative
        and summing to one.  Given identical input, the output is
        bit-identical (ties in the linear-minimization step are broken
        by lowest vertex index).

    Raises
    ------
    NonFinite
        If a squared vertex norm is NaN or inf (entries above ~1e154 overflow).
    NoConvergence
        After ``MAX_CYCLES_PER_VERTEX * m`` cycles.
    """
    P = np.asarray(vertices, dtype=float)
    if P.ndim not in (2, 3) or P.shape[-2] == 0 or (P.ndim == 3 and start is not None):
        raise ValueError("vertices must be a nonempty (m, k) hull or a (B, m, k) stack without start")
    if (e := _exponent(P)) is not None:
        points, weights = min_norm_point(np.ldexp(P, -e[..., None, None]), start)
        return np.ldexp(points, e[..., None]), weights
    if P.ndim == 3:
        B, m, k = P.shape
        points, weights, alone = np.empty((B, k)), np.empty((B, m)), range(B)
        if B >= STACK_MIN:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    points, weights, stalled = _lockstep(P)
                alone = np.flatnonzero(stalled)
            except (np.linalg.LinAlgError, FloatingPointError):
                pass  # a singular or overflowing Gram matrix: lstsq copes with it
        for b in alone:
            points[b], weights[b] = _wolfe(P[b])
        return points, weights
    return _wolfe(P, start)


def _wolfe(P: np.ndarray, start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The hull-by-hull loop: ``min_norm_point`` of one checked ``(m, k)`` hull, as given."""
    sq = np.einsum("ij,ij->i", P, P)
    if not np.isfinite(sq).all():
        raise NonFinite("vertex set has non-finite entries or squared norms")
    m, max_iter = len(P), MAX_CYCLES_PER_VERTEX * len(P)
    floor = _RESOLUTION * float(sq.max())
    if start is None:
        corral, lam = sq.argmin(keepdims=True), np.ones(1)
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (m,) or not (start.min() >= 0 and 0 < start.sum() < np.inf):
            raise ValueError("start must be (m,) nonnegative weights with a finite positive sum")
        corral = np.flatnonzero(start)
        lam = start[corral] / start.sum()
    Q = P[corral]
    x = lam @ Q if lam.size > 1 else Q[0]

    iters, before, stalls = 0, None, 0
    while True:
        # minor cycles: restore a positive affine-minimal combination; each
        # drops a vertex or ends them, so the cap is checked in major cycles
        while lam.size > 1:
            iters += 1
            # min ||mu @ Q|| over sum(mu) = 1 as min ||Q[0] + t @ (Q[1:] - Q[0])||,
            # which does not square the condition number as Q Q^T would
            t = np.linalg.lstsq((Q[1:] - Q[0]).T, -Q[0], rcond=None)[0]
            mu = np.concatenate(([1.0 - t.sum()], t))
            if mu.min() > WEIGHT_DROP:
                lam, x = mu, mu @ Q
                break
            # move toward mu @ Q until the first weight hits zero; entries
            # with lam <= mu impose no constraint (and would divide by zero)
            blocking = (mu <= WEIGHT_DROP) & (lam - mu > 0)
            theta = float((lam[blocking] / (lam - mu)[blocking]).min()) if blocking.any() else 1.0
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > WEIGHT_DROP
            keep[lam.argmax()] = True  # a no-op unless every weight dropped
            corral, Q, lam = corral[keep], Q[keep], lam[keep]
            lam = lam / lam.sum()
            x = lam @ Q

        scores, xn = P @ x, float(x @ x)
        if before is not None and xn >= xx:
            # float cannot show the decrease (it may be below the resolution of
            # ||p||^2): go on for at most k cycles, keeping the point with the
            # smallest Wolfe gap, which bounds the squared distance to p*
            stalls += 1
            if xn - scores.min() < gap_before:
                before, gap_before = (corral, lam, x), xn - scores.min()
            if stalls > P.shape[1]:
                corral, lam, x = before
                break
        else:
            xx, stalls = xn, 0

        # major cycle: most violating vertex (argmin takes the lowest index)
        iters += 1
        if iters > max_iter:
            raise NoConvergence(f"min_norm_point: no convergence in {max_iter} cycles")
        j = scores.argmin()
        if scores[j] >= xn - floor:
            break
        if not stalls:
            before, gap_before = (corral, lam, x), xn - scores[j]
        corral, lam = np.concatenate((corral, [j])), np.concatenate((lam, [0.0]))
        Q = P[corral]

    return x, np.bincount(corral, lam, minlength=m)


def _exponent(P: np.ndarray) -> np.ndarray | None:
    """Per hull of ``P``, the ``e <= 0`` with which ``2**-e`` puts a largest |entry| below
    1/2 exactly into [1/2, 1), else 0, so no hull is scaled down; None if all are 0."""
    top = np.abs(P).max(axis=(-2, -1), initial=0.0)
    if top.min(initial=0.5) < 0.5 and (e := np.minimum(np.frexp(top)[1], 0)).any():
        return e
    return None


def _lockstep(P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``min_norm_point(P[b])`` for every hull b of the stack, in one loop.

    Each pass makes one minor cycle on every hull whose corral needs one
    and one major cycle on every other unfinished hull, by the rules of
    ``min_norm_point``, except that a hull whose major cycle fails to
    strictly decrease ``||p||^2`` leaves the loop, flagged in the third
    array returned; every other hull ends on its stop floor.  Hull b's
    corral is ``C[b, :n[b]]`` with weights ``L[b, :n[b]]``; later slots
    weigh zero.  A singular Gram matrix raises ``LinAlgError``.
    """
    sq = np.einsum("bij,bij->bi", P, P)
    if not np.isfinite(sq).all():
        raise NonFinite("vertex set has non-finite entries or squared norms")
    B, m, k = P.shape
    rows, cols = np.arange(B), np.arange(m + 1)
    max_iter, floor = MAX_CYCLES_PER_VERTEX * m, _RESOLUTION * sq.max(axis=1)
    C, L, n = np.zeros((B, m + 1), np.intp), np.zeros((B, m + 1)), np.ones((B, 1), np.intp)
    C[:, 0], L[:, 0] = sq.argmin(axis=1), 1.0
    X = P[rows, C[:, 0]]
    xx, iters = np.full(B, np.inf), np.zeros(B, np.intp)
    minor, live, stalled = np.zeros(B, bool), np.ones(B, bool), np.zeros(B, bool)
    while live.any():
        M = np.flatnonzero(minor)
        if M.size:
            iters[M] += 1
            p = int(n[M].max())
            lam, valid = L[M, :p], cols[:p] < n[M]
            # padded slots repeat vertex 0, so their differences vanish, and
            # an identity block gives them t = 0
            Q = P[M[:, None], np.where(valid, C[M, :p], C[M, :1])]
            D = Q[:, 1:] - Q[:, :1]
            G = D @ D.transpose(0, 2, 1)
            G.reshape(M.size, -1)[:, ::p] += ~valid[:, 1:]  # its diagonal
            q = Q[:, 0, :, None]
            t = np.linalg.solve(G, -(D @ q))
            t += np.linalg.solve(G, -(D @ (q + D.transpose(0, 2, 1) @ t)))
            mu = np.concatenate((1.0 - t.sum(axis=1), t[:, :, 0]), axis=1)
            accept = ((mu > WEIGHT_DROP) | ~valid).all(axis=1)
            # an accepted mu blocks nothing (theta = 1); else move toward mu
            # until the first weight hits zero
            blocking = (mu <= WEIGHT_DROP) & (lam - mu > 0)
            theta = np.where(blocking, lam, np.inf) / np.where(blocking, lam - mu, 1.0)
            theta = np.clip(theta.min(axis=1, keepdims=True), 0.0, 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > WEIGHT_DROP
            keep[np.arange(M.size), lam.argmax(axis=1)] = True
            lam = np.where(keep, lam, 0.0)
            lam = np.where(accept[:, None], lam, lam / lam.sum(axis=1, keepdims=True))
            X[M] = (lam[:, None] @ Q)[:, 0]
            kept = np.arange(M.size)[:, None], np.argsort(~keep, axis=1, kind="stable")
            C[M, :p], L[M, :p] = C[M, :p][kept], lam[kept]
            n[M, 0] = keep.sum(axis=1)
            minor[M] = ~accept & (n[M, 0] > 1)

        J = live & ~minor
        xn = np.einsum("bk,bk->b", X, X)
        scores = (P @ X[:, :, None])[:, :, 0]
        j = scores.argmin(axis=1)
        stalled |= J & (xn >= xx)
        go = J & ~stalled
        xx[go] = xn[go]
        iters += go
        if (go & (iters > max_iter)).any():
            raise NoConvergence(f"min_norm_point: no convergence in {max_iter} cycles")
        go &= scores[rows, j] < xx - floor
        live &= minor | go
        g = np.flatnonzero(go)
        C[g, n[g, 0]] = j[g]
        n[g] += 1
        minor[g] = True

    weights = np.bincount((rows[:, None] * m + C).ravel(), L.ravel(), minlength=B * m)
    return X, weights.reshape(B, m), stalled


def wolfe_residual(vertices: np.ndarray, point: np.ndarray) -> float:
    """Optimality residual ``max(0, ||p||^2 - min_q <p, q>)``.

    Zero (up to tolerance) certifies that ``point`` is the minimum-norm
    point of the hull of ``vertices``.
    """
    return max(0.0, float(point @ point - (np.asarray(vertices, dtype=float) @ point).min()))
