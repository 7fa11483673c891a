"""Hypodifferential calculus for convex functions.

A convex function is represented by a :class:`ConvexFn` that can report
its value and a *hypodifferential* at any point: a finite vertex set
whose convex hull gives a one-sided model

    f(y) - f(x) >= a + <v, y - x>   for every vertex (a, v) at x,

with the offsets normalized so that ``max_a = 0``.  Smooth atoms carry
the singleton ``{(0, grad f(x))}``; nonnegative combinations take the
Minkowski sum of the scaled child sets and pointwise maxima their shifted
union, which preserve both the one-sided (amenability) property and the
quadratic remainder bound used by the descent rate analysis.  Each class
applies its rule in its one primitive, ``value_and_hypodiff``.

The two ``check_*`` functions are sampling-based falsifiers for those
properties; the definitions quantify over whole convex regions, so the
sample sets are caller-supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .pa import _common_dim, _default_tol, _minkowski, evaluate, global_codiff


class ConvexFn:
    """Base class: a convex function with a hypodifferential oracle.

    ``value_and_hypodiff(x)`` is the one primitive: the value and a vertex
    set ``(m, d + 1)`` of the hypodifferential at ``x``, in one pass with
    one callback per smooth atom, except that a :class:`MaxOf` whose
    children are all :class:`Quadratic` evaluates them together from
    their stacked data and calls none of them.  ``value`` alone serves
    the Armijo trials.  Each class body repeats ``hypodiff(x)`` as
    ``value_and_hypodiff(x)[1]`` because the benchmark's trace
    (``perfbench/spans.py``) wraps the ``value`` and ``hypodiff`` found
    in each class's own namespace.
    """

    d: int

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def value_and_hypodiff(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError


class SmoothConvex(ConvexFn):
    """Differentiable convex atom given by a value-and-gradient callback.

    ``fn(x)`` must return ``(value, gradient)``.
    """

    def __init__(self, d: int, fn: Callable):
        self.d = d
        self.fn = fn

    def value(self, x):
        return float(self.fn(x)[0])

    def hypodiff(self, x):
        return self.value_and_hypodiff(x)[1]

    def value_and_hypodiff(self, x):
        fx, g = self.fn(np.asarray(x, dtype=float))
        g = np.asarray(g, dtype=float)
        if not np.isfinite(g).all():
            raise NonFinite("gradient is not finite")
        return float(fx), np.concatenate(([0.0], g))[None, :]


def _quadratic(H, b, c, x):
    """Value and gradient at ``x`` of ``0.5 x'Hx + b'x + c``: of one quadratic for
    a ``(d, d)`` ``H``, of each of k at once for ``(k, d, d)``, ``(k, d)`` and ``(k,)``."""
    Hx = H @ x
    return 0.5 * (Hx @ x) + b @ x + c, Hx + b


class Quadratic(SmoothConvex):
    """Convex quadratic ``0.5 x'Hx + b'x + c`` with its exact gradient.

    Keeps read-only ``b``, ``c`` and the symmetric part of ``H`` (the same
    function); ``lipschitz_grad``, the Lipschitz constant of its gradient,
    is its largest eigenvalue.  Raises
    ``DimensionMismatch`` unless ``H`` is d x d for the d entries of ``b``,
    ``NonFinite`` for a non-finite entry of ``H``, ``b`` or ``c``, and
    ``ValueError`` if ``H`` is not convex beyond rounding (an eigenvalue
    below ``-d * eps * max |eigenvalue|``).
    """

    def __init__(self, H, b, c: float = 0.0):
        H, self.b, self.c = np.asarray(H, dtype=float), np.array(b, dtype=float), float(c)
        self.d = self.b.size
        if H.shape != (self.d, self.d):
            raise DimensionMismatch(f"H must be ({self.d}, {self.d}) like b, got {H.shape}")
        self.H = 0.5 * (H + H.T)  # the same f; bit-identical for a symmetric H
        self.H.flags.writeable = self.b.flags.writeable = False
        if not (np.isfinite(self.H).all() and np.isfinite(self.b).all() and np.isfinite(self.c)):
            raise NonFinite("quadratic has non-finite data")
        eig = np.linalg.eigvalsh(self.H)
        if eig[0] < -self.d * np.finfo(float).eps * max(-eig[0], eig[-1]):  # eig ascends
            raise ValueError(f"H is not positive semidefinite: eigenvalue {eig[0]:.3g}")
        self.lipschitz_grad = float(eig[-1])

    def fn(self, x):
        return _quadratic(self.H, self.b, self.c, x)


class ConvexCombination(ConvexFn):
    """Nonnegative weighted sum of convex functions; raises ``NonFinite`` for
    a NaN or infinite weight and ``ValueError`` for a negative one."""

    def __init__(self, terms: Sequence[tuple[float, ConvexFn]]):
        if not terms:
            raise ValueError("need at least one term")
        self.terms = [(float(w), f) for w, f in terms]
        if not all(np.isfinite(w) for w, _ in self.terms):
            raise NonFinite("weights must be finite")
        if any(w < 0 for w, _ in self.terms):
            raise ValueError("weights must be nonnegative")
        self.d = _common_dim([f for _, f in self.terms])

    def value(self, x):
        return float(sum(w * f.value(x) for w, f in self.terms))

    def hypodiff(self, x):
        return self.value_and_hypodiff(x)[1]

    def value_and_hypodiff(self, x):
        # codiff_sum's Minkowski fold from the zero row; fx sums in the order value sums
        vals, Hs = zip(*(f.value_and_hypodiff(x) for _, f in self.terms))
        fx = sum(w * fi for (w, _), fi in zip(self.terms, vals))
        return float(fx), _minkowski(np.zeros((1, self.d + 1)), *(w * Hi for (w, _), Hi in zip(self.terms, Hs)))


class MaxOf(ConvexFn):
    """Pointwise maximum of convex functions.

    When every child is a :class:`Quadratic`, their ``H``, ``b`` and ``c``
    are stacked once, into ``(k, d, d)``, ``(k, d)`` and ``(k,)`` arrays,
    and ``value`` and ``value_and_hypodiff`` evaluate all k pieces with
    three array products on the stacks, calling no child's ``fn``.  Any
    other mix of children is evaluated child by child.
    """

    def __init__(self, children: Sequence[ConvexFn]):
        if not children:
            raise ValueError("need at least one child")
        self.children = list(children)
        self.d = _common_dim(self.children)
        self._stack = None
        if all(isinstance(f, Quadratic) for f in self.children):
            self._stack = tuple(np.stack([getattr(f, a) for f in self.children]) for a in "Hbc")

    def value(self, x):
        if self._stack is not None:
            return float(_quadratic(*self._stack, x)[0].max())
        return float(max(f.value(x) for f in self.children))

    def hypodiff(self, x):
        return self.value_and_hypodiff(x)[1]

    def value_and_hypodiff(self, x):
        # child i's vertices shift by (f_i(x) - u(x), 0), u(x) the max value, so
        # the offsets record how far each piece sits below the active one;
        # coincident vertices are kept, as min_norm_point accepts them
        if self._stack is not None:
            vals, G = _quadratic(*self._stack, x)
            if not np.isfinite(G).all():
                raise NonFinite("gradient is not finite")
            u = vals.max()
            return float(u), np.column_stack((vals - u, G))
        vals, blocks = zip(*(f.value_and_hypodiff(x) for f in self.children))
        u = max(vals)
        H = np.concatenate(blocks)
        H[:, 0] += np.repeat(np.subtract(vals, u), [b.shape[0] for b in blocks])
        return float(u), H


# ---------------------------------------------------------------------------
# property checkers


@dataclass(frozen=True)
class AmenabilityReport:
    ok: bool
    worst_violation: float
    worst_x: np.ndarray | None
    worst_y: np.ndarray | None


@dataclass(frozen=True)
class LipschitzReport:
    ok: bool
    worst_excess: float
    worst_ratio: float
    worst_x: np.ndarray | None
    worst_y: np.ndarray | None


def _sample_tol(at_x, fys: list, tol: float | None) -> float:
    """``pa._default_tol`` of ``tol`` over ``(f(x), hypodiff)`` pairs ``at_x`` and ``fys``."""
    fxs = [fx for fx, _ in at_x]
    return _default_tol(max(map(abs, fxs + fys), default=0.0), *(H for _, H in at_x), tol=tol)


def check_amenable(f: ConvexFn, samples_x, samples_y, tol: float | None = None) -> AmenabilityReport:
    """Test the one-sided inequality on all sampled pairs.

    For every ``x`` in ``samples_x``, every ``y`` in ``samples_y`` and
    every vertex ``(a, v)`` of the hypodifferential at ``x``, the
    violation ``a + <v, y - x> - (f(y) - f(x))`` must stay below
    ``tol`` (``pa._default_tol``: by default ``1e-9`` times the data scale
    of the samples); the report carries the worst one found.
    """
    worst, wx, wy = -np.inf, None, None
    xs = [np.atleast_1d(np.asarray(p, dtype=float)) for p in samples_x]
    ys = [np.atleast_1d(np.asarray(p, dtype=float)) for p in samples_y]
    at_x = [f.value_and_hypodiff(x) for x in xs]
    fys = [f.value(y) for y in ys]
    for x, (fx, H) in zip(xs, at_x):
        for y, fy in zip(ys, fys):
            gap = float(np.max(H[:, 0] + H[:, 1:] @ (y - x)) - (fy - fx))
            if gap > worst:
                worst, wx, wy = gap, x, y
    tol = _sample_tol(at_x, fys, tol)
    return AmenabilityReport(ok=worst <= tol, worst_violation=worst, worst_x=wx, worst_y=wy)


def check_lipschitz_approx(f: ConvexFn, L: float, pairs, tol: float | None = None) -> LipschitzReport:
    """Test the quadratic remainder bound on sampled pairs.

    Verifies ``|f(y) - f(x) - max_(a,v) (a + <v, y - x>)|
    <= (L/2) ||y - x||^2 + tol`` for each pair and reports the worst
    excess over the bound and the worst remainder-to-bound ratio.
    ``L`` must be positive and finite; ``tol`` is read as in :func:`check_amenable`.
    """
    if not 0 < L < np.inf:
        raise ValueError(f"L must be positive and finite, got {L}")
    worst_excess, worst_ratio, wx, wy = -np.inf, 0.0, None, None
    pairs = [[np.atleast_1d(np.asarray(p, dtype=float)) for p in pair] for pair in pairs]
    at_x = [f.value_and_hypodiff(x) for x, _ in pairs]
    fys = [f.value(y) for _, y in pairs]
    for (x, y), (fx, H), fy in zip(pairs, at_x, fys):
        remainder = abs(fy - fx - np.max(H[:, 0] + H[:, 1:] @ (y - x)))
        bound = 0.5 * L * float((y - x) @ (y - x))
        excess = remainder - bound
        if excess > worst_excess:
            worst_excess, wx, wy = excess, x, y
        if bound > 0:
            worst_ratio = max(worst_ratio, remainder / bound)
    tol = _sample_tol(at_x, fys, tol)
    return LipschitzReport(
        ok=worst_excess <= tol,
        worst_excess=float(worst_excess),
        worst_ratio=float(worst_ratio),
        worst_x=wx,
        worst_y=wy,
    )


class ConvexPAView(ConvexFn):
    """A convex DCForm (single min-part piece) exposed as a ConvexFn.

    The min part then contributes a fixed affine term, so the
    hypodifferential at ``x`` is the hypodifferential of the max part
    shifted by ``(0, w_1)``; its minimum-norm element vanishing still
    certifies a global minimum.
    """

    def __init__(self, f):
        if f.minus.shape[0] != 1:
            raise ValueError("ConvexPAView requires a single min-part piece")
        self._f = f
        self.d = f.d

    def value(self, x):
        return float(evaluate(self._f, x))

    def hypodiff(self, x):
        return self.value_and_hypodiff(x)[1]

    def value_and_hypodiff(self, x):
        gc = global_codiff(self._f, x)
        return gc.value, gc.hypo + gc.hyper[0]


def linear(v: np.ndarray, a: float = 0.0) -> SmoothConvex:
    """Affine atom ``a + <v, x>`` (gradient Lipschitz constant zero)."""
    v = np.asarray(v, dtype=float)

    def fn(x):
        return a + v @ x, v

    return SmoothConvex(v.size, fn)
