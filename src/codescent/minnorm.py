"""Minimum-norm point in the convex hull of a finite vertex set.

Vertex sets are dense float arrays of shape ``(m, k)``; throughout the
library ``k = d + 1`` and column 0 carries the scalar offset of an
augmented vector ``(a, v)``, but the solver itself works for any ``k >= 1``.

The solver is Wolfe's method: alternate a linear-minimization ("major")
step that adds the most violating vertex to a working corral with
"minor" steps that restore the current point to a positive convex
combination of the corral.  A corral's affine subproblem is solved by
least squares on the differences of its vertices, not on their Gram matrix.
The solver has no tolerance to set: it stops at the float resolution of
its scores, which is relative to the hull.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, NoConvergence

#: Weights at or below this threshold are dropped from the corral.
WEIGHT_DROP = 1e-14

#: Safety cap on major plus minor cycles per hull vertex.
MAX_CYCLES_PER_VERTEX = 1000


def _affine_min_norm(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-norm point of the affine hull of the rows of ``Q``.

    Solves min ||mu @ Q|| subject to sum(mu) = 1 with mu unrestricted in
    sign as min ||Q[0] + t @ (Q[1:] - Q[0])||, which does not square the
    condition number as the Gram matrix ``Q Q^T`` would, and whose
    ``mu = (1 - sum(t), t)`` sums to one by construction.  Returns the
    point and the affine weights.
    """
    t = np.linalg.lstsq((Q[1:] - Q[0]).T, -Q[0], rcond=None)[0]
    mu = np.concatenate(([1.0 - t.sum()], t))
    return mu @ Q, mu


def min_norm_point(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``min ||p||^2`` over ``p`` in the convex hull of ``vertices``.

    The solver stops once every vertex ``q`` satisfies
    ``<p, q> >= ||p||^2 - 64 * eps * max_q ||q||^2``, the float resolution
    of the scores ``<p, q>``, which scales with the hull.  It also stops
    once a major cycle fails to strictly decrease ``||p||^2``, returning
    the point before or after it, whichever has the smaller gap
    ``||p||^2 - min_q <p, q>``; a cycle that leaves the float value of
    ``||p||^2`` equal but shrinks the gap goes on, as float may not
    resolve a true decrease at that norm.  So every cycle decreases
    ``(||p||^2, gap)`` lexicographically, no point repeats and the
    solver terminates.

    Parameters
    ----------
    vertices : array, shape (m, k)
        Rows are the hull vertices.  Redundant (interior or duplicate)
        rows are tolerated.

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
        If any vertex contains NaN or infinity.
    NoConvergence
        After ``MAX_CYCLES_PER_VERTEX * m`` cycles.
    """
    P = np.asarray(vertices, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("vertices must be a nonempty (m, k) array")
    if not np.isfinite(P).all():
        raise NonFinite("vertex set contains non-finite entries")
    m = P.shape[0]
    max_iter = MAX_CYCLES_PER_VERTEX * m

    # start from the smallest-norm vertex (first one on ties)
    sq = np.einsum("ij,ij->i", P, P)
    j0 = int(np.argmin(sq))
    floor = 64 * np.finfo(float).eps * float(sq.max())
    corral = [j0]
    lam = np.array([1.0])
    x = P[j0].copy()

    iters = 0
    scores = P @ x
    while True:
        iters += 1
        if iters > max_iter:
            raise NoConvergence(f"min_norm_point: no convergence in {max_iter} cycles")
        # major cycle: most violating vertex (np.argmin takes the lowest index)
        j = int(np.argmin(scores))
        xx = float(x @ x)
        if scores[j] >= xx - floor:
            break
        before = corral, lam, x
        corral = [*corral, j]

        # minor cycles: restore a positive convex combination
        lam = np.concatenate((lam, [0.0]))
        while True:
            iters += 1
            if iters > max_iter:
                raise NoConvergence(
                    f"min_norm_point: no convergence in {max_iter} cycles"
                )
            y, mu = _affine_min_norm(P[corral])
            if mu.min() > WEIGHT_DROP:
                x = y
                lam = mu
                break
            # move toward y until the first weight hits zero; entries with
            # lam <= mu impose no constraint (and would divide by zero)
            blocking = (mu <= WEIGHT_DROP) & (lam - mu > 0)
            if blocking.any():
                theta = float(np.min(lam[blocking] / (lam - mu)[blocking]))
            else:
                theta = 1.0
            theta = min(max(theta, 0.0), 1.0)
            lam = (1.0 - theta) * lam + theta * mu
            keep = lam > WEIGHT_DROP
            if not keep.any():
                keep[int(np.argmax(lam))] = True
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = lam @ P[corral]

        gap_before = xx - scores[j]
        scores = P @ x  # the next major cycle's scores too
        if float(x @ x) >= xx:
            # float cannot order the two points by norm; the Wolfe gap bounds
            # the squared distance to p*, so keep the point with the smaller
            # gap, and go on only from an equal norm with a smaller gap:
            # (norm, gap) then decreases lexicographically and no x repeats
            if float(x @ x - np.min(scores)) >= gap_before:
                corral, lam, x = before
                break
            if float(x @ x) > xx:
                break

    weights = np.zeros(m)
    for c, l in zip(corral, lam):
        weights[c] += l
    return x, weights


def wolfe_residual(vertices: np.ndarray, point: np.ndarray) -> float:
    """Optimality residual ``max(0, ||p||^2 - min_q <p, q>)``.

    Zero (up to tolerance) certifies that ``point`` is the minimum-norm
    point of the hull of ``vertices``.
    """
    P = np.asarray(vertices, dtype=float)
    return max(0.0, float(point @ point) - float(np.min(P @ point)))
