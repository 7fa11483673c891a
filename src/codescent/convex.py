"""Hypodifferential calculus for convex functions.

A convex function is represented by a :class:`ConvexFn` that can report
its value and a *hypodifferential* at any point: a finite vertex set
whose convex hull gives a one-sided model

    f(y) - f(x) >= a + <v, y - x>   for every vertex (a, v) at x,

with the offsets normalized so that ``max_a = 0``.  Smooth atoms carry
the singleton ``{(0, grad f(x))}``; nonnegative combinations and
pointwise maxima compose via :func:`hypo_sum` and :func:`hypo_max`,
which preserve both the one-sided (amenability) property and the
quadratic remainder bound used by the descent rate analysis.

The two ``check_*`` functions are sampling-based falsifiers for those
properties; the definitions quantify over whole convex regions, so the
sample sets are caller-supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .pa import _merge_duplicates, evaluate, global_codiff


class ConvexFn:
    """Base class: a convex function with a hypodifferential oracle."""

    d: int

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def hypodiff(self, x: np.ndarray) -> np.ndarray:
        """Vertex set ``(m, d + 1)`` of the hypodifferential at ``x``."""
        raise NotImplementedError

    def value_and_hypodiff(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``(value(x), hypodiff(x))``; subclasses override it to share work."""
        return self.value(x), self.hypodiff(x)

    def __call__(self, x) -> float:
        return self.value(np.asarray(x, dtype=float))


class SmoothConvex(ConvexFn):
    """Differentiable convex atom given by a value-and-gradient callback.

    ``fn(x)`` must return ``(value, gradient)``; ``lipschitz_grad`` is
    the Lipschitz constant of the gradient (used only by checkers and
    rate instrumentation, not by the calculus itself).
    """

    def __init__(self, d: int, fn: Callable, lipschitz_grad: float = 0.0):
        self.d = d
        self.fn = fn
        self.lipschitz_grad = float(lipschitz_grad)

    def value(self, x):
        return float(self.fn(x)[0])

    def gradient(self, x):
        return np.asarray(self.fn(x)[1], dtype=float)

    def hypodiff(self, x):
        return hypo_smooth(self, x)

    def value_and_hypodiff(self, x):
        fx, g = self.fn(np.asarray(x, dtype=float))
        return float(fx), _gradient_vertex(g)


class ConvexCombination(ConvexFn):
    """Nonnegative weighted sum of convex functions."""

    def __init__(self, terms: Sequence[tuple[float, ConvexFn]]):
        if not terms:
            raise ValueError("need at least one term")
        self.terms = [(float(w), f) for w, f in terms]
        if any(w < 0 for w, _ in self.terms):
            raise ValueError("weights must be nonnegative")
        self.d = self.terms[0][1].d
        if any(f.d != self.d for _, f in self.terms):
            raise DimensionMismatch("terms have mixed dimensions")

    def value(self, x):
        return float(sum(w * f.value(x) for w, f in self.terms))

    def hypodiff(self, x):
        return hypo_sum(self.terms, x)


class MaxOf(ConvexFn):
    """Pointwise maximum of convex functions."""

    def __init__(self, children: Sequence[ConvexFn]):
        if not children:
            raise ValueError("need at least one child")
        self.children = list(children)
        self.d = self.children[0].d
        if any(f.d != self.d for f in self.children):
            raise DimensionMismatch("children have mixed dimensions")

    def value(self, x):
        return float(max(f.value(x) for f in self.children))

    def hypodiff(self, x):
        return hypo_max(self.children, x)

    def value_and_hypodiff(self, x):
        return _max_value_and_hypo(self.children, x)


# ---------------------------------------------------------------------------
# calculus at a point


def hypo_smooth(fn: SmoothConvex, x) -> np.ndarray:
    """Hypodifferential of a smooth convex atom: ``{(0, grad f(x))}``."""
    return _gradient_vertex(fn.gradient(np.asarray(x, dtype=float)))


def _gradient_vertex(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NonFinite("gradient is not finite")
    return np.concatenate(([0.0], g))[None, :]


def hypo_sum(terms: Sequence[tuple[float, ConvexFn]], x) -> np.ndarray:
    """Minkowski sum of scaled child hypodifferentials at ``x``."""
    x = np.asarray(x, dtype=float)
    out = None
    for w, f in terms:
        if w < 0:
            raise ValueError("weights must be nonnegative")
        part = w * f.hypodiff(x)
        if out is None:
            out = part
        else:
            if part.shape[1] != out.shape[1]:
                raise DimensionMismatch("terms have mixed dimensions")
            out = (out[:, None, :] + part[None, :, :]).reshape(-1, out.shape[1])
    return _merge_duplicates(out)


def hypo_max(children: Sequence[ConvexFn], x) -> np.ndarray:
    """Hypodifferential of ``max_i f_i`` at ``x``.

    Every vertex of every child hypodifferential is shifted by
    ``(f_i(x) - u(x), 0)`` where ``u(x)`` is the max value, so the
    offsets record how far each piece sits below the active one.
    Coincident vertices are kept: ``min_norm_point`` accepts them.
    """
    return _max_value_and_hypo(children, x)[1]


def _max_value_and_hypo(children: Sequence[ConvexFn], x) -> tuple[float, np.ndarray]:
    # one value_and_hypodiff call per child; the blocks are stacked once
    x = np.asarray(x, dtype=float)
    vals, blocks = zip(*(f.value_and_hypodiff(x) for f in children))
    if len({b.shape[1] for b in blocks}) > 1:
        raise DimensionMismatch("children have mixed dimensions")
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


def check_amenable(f: ConvexFn, samples_x, samples_y, tol: float = 1e-9) -> AmenabilityReport:
    """Test the one-sided inequality on all sampled pairs.

    For every ``x`` in ``samples_x``, every ``y`` in ``samples_y`` and
    every vertex ``(a, v)`` of the hypodifferential at ``x``, the
    violation ``a + <v, y - x> - (f(y) - f(x))`` must stay below
    ``tol``; the report carries the worst one found.
    """
    worst = -np.inf
    wx = wy = None
    xs = [np.atleast_1d(np.asarray(p, dtype=float)) for p in samples_x]
    ys = [np.atleast_1d(np.asarray(p, dtype=float)) for p in samples_y]
    for x in xs:
        H = f.hypodiff(x)
        fx = f.value(x)
        for y in ys:
            model = np.max(H[:, 0] + H[:, 1:] @ (y - x))
            gap = float(model - (f.value(y) - fx))
            if gap > worst:
                worst, wx, wy = gap, x, y
    return AmenabilityReport(ok=worst <= tol, worst_violation=worst, worst_x=wx, worst_y=wy)


def check_lipschitz_approx(f: ConvexFn, L: float, pairs, tol: float = 1e-9) -> LipschitzReport:
    """Test the quadratic remainder bound on sampled pairs.

    Verifies ``|f(y) - f(x) - max_(a,v) (a + <v, y - x>)|
    <= (L/2) ||y - x||^2 + tol`` for each pair and reports the worst
    excess over the bound and the worst remainder-to-bound ratio.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    worst_excess = -np.inf
    worst_ratio = 0.0
    wx = wy = None
    for x, y in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        H = f.hypodiff(x)
        model = np.max(H[:, 0] + H[:, 1:] @ (y - x))
        remainder = abs(f.value(y) - f.value(x) - model)
        bound = 0.5 * L * float((y - x) @ (y - x))
        excess = remainder - bound
        if excess > worst_excess:
            worst_excess, wx, wy = excess, x, y
        if bound > 0:
            worst_ratio = max(worst_ratio, remainder / bound)
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
        gc = global_codiff(self._f, np.asarray(x, dtype=float))
        return gc.hypo + gc.hyper[0]


def quadratic(H: np.ndarray, b: np.ndarray, c: float = 0.0) -> SmoothConvex:
    """Convex quadratic ``0.5 x'Hx + b'x + c`` with its exact gradient.

    The returned atom keeps ``H``, ``b``, ``c`` as attributes so rate
    instrumentation can compute exact per-piece minima.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    L = float(np.linalg.eigvalsh(H).max())

    def fn(x):
        Hx = H @ x
        return 0.5 * (x @ Hx) + b @ x + c, Hx + b

    atom = SmoothConvex(b.size, fn, lipschitz_grad=L)
    atom.H, atom.b, atom.c = H, b, float(c)
    return atom


def linear(v: np.ndarray, a: float = 0.0) -> SmoothConvex:
    """Affine atom ``a + <v, x>`` (gradient Lipschitz constant zero)."""
    v = np.asarray(v, dtype=float)

    def fn(x):
        return a + v @ x, v

    return SmoothConvex(v.size, fn, lipschitz_grad=0.0)
