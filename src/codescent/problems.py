"""Reproducible problem instances.

``generate_pa`` draws nonconvex piecewise-affine instances that are
bounded below *by construction* (the tests confirm it with the LP
oracle): every min-part gradient is short enough that shifting the max
part's cross-polytope gradients keeps the origin strictly inside each
per-piece gradient hull, making every piece coercive.  All data live on
an integer lattice (times ``scale``), which yields an explicit positive
lower bound ``theta_lower_bound`` on the squared norms that drive the
finite-termination argument of the global descent method.

``max_quadratics`` builds max-of-quadratics test objectives with a
known gradient-Lipschitz constant for the convex-case instrumentation.

The RNG is PCG64 (``numpy.random.Generator``), so identical seeds give
bit-identical instances on every platform.  Min-part gradients are drawn
in int64 batches with the stream of one draw per row (int8 and int16
draws buffer bits differently, which would change every instance).
"""

from __future__ import annotations

import math

import numpy as np

from .convex import MaxOf, Quadratic
from .pa import Affine, Const, DCForm, Max, Min, Scale, Sum, expr_to_dc

#: integer radius of min-part gradients in generated instances
GEN_RHO = 2

#: integer offsets are drawn from [-GEN_OFFSET, GEN_OFFSET]
GEN_OFFSET = 5

#: ``max_quadratics`` draws Hessian eigenvalues uniformly in MAXQ_EIG_RANGE,
#: and piece centers, value offsets and the start up to the bounds below
MAXQ_EIG_RANGE = (2.0, 8.0)
MAXQ_CENTER_RADIUS = 0.3
MAXQ_OFFSET_MAX = 0.3
MAXQ_START_RADIUS = 0.4
START_RADIUS = 3.0  # ``random_start`` draws coordinates in [-START_RADIUS, START_RADIUS]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _cross_scale(d: int) -> int:
    # smallest integer c with c > GEN_RHO * sqrt(d), so that the shifted
    # cross polytope of radius c still surrounds the origin
    return int(math.ceil(GEN_RHO * math.sqrt(d))) + 1


def _short_gradient(rng: np.random.Generator, d: int) -> np.ndarray:
    # the first w ~ U{-GEN_RHO..GEN_RHO}^d with ||w||^2 <= GEN_RHO^2, drawn 4 to
    # 4096 rows at a time; a batch with a hit is redrawn from its start to that row
    n = 4
    while True:
        state = rng.bit_generator.state
        rows = rng.integers(-GEN_RHO, GEN_RHO + 1, size=(n, d))
        hits = np.flatnonzero((rows * rows).sum(axis=1) <= GEN_RHO * GEN_RHO)
        if hits.size:
            rng.bit_generator.state = state
            return rng.integers(-GEN_RHO, GEN_RHO + 1, size=(hits[0] + 1, d))[-1]
        n = min(2 * n, 4096)


def generate_pa(seed: int, d: int, l: int, s: int, scale: float = 1.0) -> DCForm:
    """Draw a bounded-below piecewise-affine instance.

    Parameters
    ----------
    seed : int
        PCG64 seed; identical seeds give bit-identical instances.
    d, l, s : int
        Dimension, number of max-part pieces (``l >= 2 d``: the first
        ``2 d`` are the cross-polytope pieces that force coercivity)
        and number of min-part pieces.
    scale : float
        Uniform scaling applied to all offsets and gradients; finite
        and positive.

    Min-part gradients are drawn by rejection from {-2..2}^d in batches
    whose int64 stream, and so the instance, is that of one row per draw.
    The construction alone makes the instance bounded below.
    """
    if d < 1 or s < 1:
        raise ValueError("need d >= 1 and s >= 1")
    if l < 2 * d:
        raise ValueError(f"need l >= 2 d = {2 * d} for the coercive core")
    if not 0 < scale < math.inf:
        raise ValueError(f"need a finite scale > 0, got {scale}")
    rng = _rng(seed)
    c = _cross_scale(d)

    plus = np.zeros((l, d + 1))
    for k in range(d):
        plus[2 * k, 0] = rng.integers(-GEN_OFFSET, GEN_OFFSET + 1)
        plus[2 * k, 1 + k] = c
        plus[2 * k + 1, 0] = rng.integers(-GEN_OFFSET, GEN_OFFSET + 1)
        plus[2 * k + 1, 1 + k] = -c
    for i in range(2 * d, l):
        plus[i, 0] = rng.integers(-GEN_OFFSET, GEN_OFFSET + 1)
        plus[i, 1:] = rng.integers(-c, c + 1, size=d)

    minus = np.zeros((s, d + 1))
    for j in range(s):
        minus[j, 1:] = _short_gradient(rng, d)
        minus[j, 0] = rng.integers(-GEN_OFFSET, GEN_OFFSET + 1)

    return DCForm(d, scale * plus, scale * minus)


def theta_lower_bound(d: int, scale: float = 1.0) -> float:
    """Lower bound on ``min ||v||^2`` over all gradient sub-hulls that
    miss the origin, for instances from :func:`generate_pa`.

    Every candidate hull has integer vertices with coordinates bounded
    by ``B = cross scale + GEN_RHO``; the distance from the origin to
    the affine hull of any subset of such lattice points, when nonzero,
    is at least ``(2 B sqrt(d))**(-d)`` by a simplex-volume ratio, and
    the minimum-norm point of a hull realizes one of those distances.
    """
    if not (d >= 1 and 0 < scale < math.inf):
        raise ValueError(f"need d >= 1 and a finite scale > 0, got d={d}, scale={scale}")
    B = _cross_scale(d) + GEN_RHO
    dist = (2.0 * B * math.sqrt(d)) ** (-d)
    return (scale * dist) ** 2


def random_start(seed: int, d: int) -> np.ndarray:
    """Deterministic starting point, decoupled from the instance stream."""
    rng = _rng((seed + 1) * 2_654_435_761 % 2**63)
    return rng.uniform(-START_RADIUS, START_RADIUS, size=d)


def worked_example() -> DCForm:
    """The two-valley showcase instance on R^2.

    ``f(x) = min( max(|x1|, |x2|), 1 + max(2 |x1 - 2|, |x2 - 2|) )``
    has a local minimum at (2, 2) with value 1 and its global minimum
    at (0, 0) with value 0.  The atom order below is part of the
    contract: it pins the min-part indexing (piece 0 is the one whose
    projection at (2, 2) certifies non-optimality), which demos and
    tests rely on.
    """

    def absval(v, shift, flip):
        lo = Affine(-shift, v)
        hi = Affine(shift, tuple(-c for c in v))
        return Max(hi, lo) if flip else Max(lo, hi)

    g1 = Max(absval((1.0, 0.0), 0.0, flip=False), absval((0.0, 1.0), 0.0, flip=False))
    g2 = Sum(
        Const(1.0),
        Max(
            Scale(2.0, absval((1.0, 0.0), 2.0, flip=True)),
            absval((0.0, 1.0), 2.0, flip=True),
        ),
    )
    return expr_to_dc(Min(g1, g2))


#: ``worked_example()``'s hypodifferential and hyperdifferential at
#: (2, 2), as integer ``(offset, gradient)`` rows: 16 and 8 vertices.
WORKED_EXAMPLE_HYPO = frozenset({
    (0, 3, 0), (-4, 1, 0), (0, 2, 1), (-4, 2, -1),
    (0, -1, 0), (-4, -3, 0), (0, -2, 1), (-4, -2, -1),
    (0, 1, 1), (-4, -1, 1), (0, 0, 2), (-4, 0, 0),
    (0, 1, -1), (-4, -1, -1), (0, 0, 0), (-4, 0, -2),
})
WORKED_EXAMPLE_HYPER = frozenset({
    (1, 2, 0), (1, -2, 0), (1, 0, 1), (1, 0, -1),
    (0, -1, 0), (4, 1, 0), (0, 0, -1), (4, 0, 1),
})


def max_quadratics(seed: int, d: int = 10, k: int = 5) -> tuple[MaxOf, float, np.ndarray]:
    """Max of ``k`` positive-definite quadratics with known curvature.

    Returns ``(objective, L, x0)`` where ``L`` is the exact largest
    Hessian eigenvalue across the pieces (the gradient-Lipschitz
    constant of the max model).  Centers, value offsets and the start
    are kept close together so the hypodifferential offsets stay small
    relative to ``L`` along any descent trajectory, which the step-size
    floor instrumentation relies on.
    """
    if not (d >= 1 and k >= 1):
        raise ValueError(f"max_quadratics needs d >= 1 and k >= 1, got d={d}, k={k}")
    rng = _rng(seed)
    children = []
    L = 0.0
    for _ in range(k):
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = rng.uniform(MAXQ_EIG_RANGE[0], MAXQ_EIG_RANGE[1], size=d)
        H = (Q * eigs) @ Q.T
        H = 0.5 * (H + H.T)
        center = rng.normal(size=d)
        center *= rng.uniform(0, MAXQ_CENTER_RADIUS) / np.linalg.norm(center)
        b = rng.uniform(0, MAXQ_OFFSET_MAX)
        children.append(Quadratic(H, -H @ center, 0.5 * center @ H @ center + b))
        L = max(L, children[-1].lipschitz_grad)
    x0 = rng.normal(size=d)
    x0 *= rng.uniform(0, MAXQ_START_RADIUS) / np.linalg.norm(x0)
    return MaxOf(children), L, x0
