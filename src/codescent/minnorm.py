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
which is relative to the hull.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NoConvergence

#: Weights at or below this threshold are dropped from the corral.
WEIGHT_DROP = 1e-14

#: Safety cap on major plus minor cycles per hull vertex.
MAX_CYCLES_PER_VERTEX = 1000

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
    of the scores ``<p, q>``, which scales with the hull.  It also stops
    once a major cycle fails to strictly decrease ``||p||^2``, returning
    the point before or after it, whichever has the smaller gap
    ``||p||^2 - min_q <p, q>``; a cycle that leaves the float value of
    ``||p||^2`` equal but shrinks the gap goes on, as float may not
    resolve a true decrease at that norm.  So every major cycle decreases
    ``(||p||^2, gap)`` lexicographically, no point repeats and the
    solver terminates from any start.

    Parameters
    ----------
    vertices : array, shape (m, k)
        Rows are the hull vertices.  Redundant (interior or duplicate)
        rows are tolerated.
    start : array, shape (m,), optional
        Nonnegative weights with a finite positive sum, such as the
        ``weights`` of a projection onto a nearby hull (else ValueError).

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
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("vertices must be a nonempty (m, k) array")
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

    iters, before = 0, None
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
            # float cannot order the two points by norm; the Wolfe gap bounds
            # the squared distance to p*, so keep the point with the smaller
            # gap, and go on only from an equal norm with a smaller gap:
            # (norm, gap) then decreases lexicographically and no x repeats
            if xn - scores.min() >= gap_before:
                corral, lam, x = before
                break
            if xn > xx:
                break
        xx = xn

        # major cycle: most violating vertex (argmin takes the lowest index)
        iters += 1
        if iters > max_iter:
            raise NoConvergence(f"min_norm_point: no convergence in {max_iter} cycles")
        j = scores.argmin()
        if scores[j] >= xx - floor:
            break
        before, gap_before = (corral, lam, x), xx - scores[j]
        corral, lam = np.concatenate((corral, [j])), np.concatenate((lam, [0.0]))
        Q = P[corral]

    return x, np.bincount(corral, lam, minlength=m)


def wolfe_residual(vertices: np.ndarray, point: np.ndarray) -> float:
    """Optimality residual ``max(0, ||p||^2 - min_q <p, q>)``.

    Zero (up to tolerance) certifies that ``point`` is the minimum-norm
    point of the hull of ``vertices``.
    """
    return max(0.0, float(point @ point - (np.asarray(vertices, dtype=float) @ point).min()))
