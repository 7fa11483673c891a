"""Hypodifferential descent for convex functions.

Each iteration projects the origin onto the hypodifferential at the
current point, starting Wolfe's method from the previous projection's
weights when the vertex count is unchanged, as successive hulls differ
by one step; the gradient component of the minimum-norm element is
the search direction, its full norm drives both the step acceptance
test and the stopping rule.  A vanishing minimum-norm element means
``0`` lies in the hypodifferential, which for a convex function
certifies a global minimum, so ``stop_tol`` bounds the certificate
residual rather than a mere gradient norm.

Steps use Armijo backtracking by default; an exact minimizing line
search may be substituted (useful for piecewise-affine objectives,
where backtracking contracts only sublinearly near kinks while the
exact search terminates finitely).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .convex import ConvexFn
from .errors import ArmijoFailure, NonFinite
from .minnorm import min_norm_point
from .pa import _check_point, _csv_text, _default_tol, _record_dict

#: Cap on the Armijo backtracking exponent ``k``.  At the default
#: ``gamma = 1/2``, ``gamma**60`` is below float64's relative precision
#: (``2**-52``), so no later trial could show a decrease; with ``gamma``
#: nearer 1 the cap comes while trial steps are still measurable.
ARMIJO_MAX_K = 60


@dataclass(frozen=True)
class MHDConfig:
    """Run parameters.

    ``sigma`` and ``gamma`` are the Armijo acceptance fraction and
    backtracking ratio, both in (0, 1); backtracking stops at
    ``gamma**ARMIJO_MAX_K``.  ``stop_tol`` bounds the norm of the
    minimum-norm hypodifferential element at termination, and
    ``max_iter`` the number of steps.  An explicit ``stop_tol`` must be
    finite and positive; ``None`` has ``mhd_run`` derive it at ``x0``:
    ``1e-9`` times ``max(|f(x0)|, max |entry of its hypodifferential|)``
    (``pa._default_tol``), so ``c * f`` stops where ``f`` does.
    """

    sigma: float = 0.1
    gamma: float = 0.5
    stop_tol: float | None = None
    max_iter: int = 1000

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0 and 0.0 < self.gamma < 1.0):
            raise ValueError("sigma and gamma must lie in (0, 1)")
        if self.stop_tol is not None and not 0 < self.stop_tol < np.inf:
            raise ValueError(f"stop_tol must be finite and positive, got {self.stop_tol}")
        object.__setattr__(self, "max_iter", operator.index(self.max_iter))
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass
class MHDStep:
    n: int
    x: np.ndarray
    f: float
    a: float
    v: np.ndarray
    norm: float
    alpha: float | None
    k: int | None


@dataclass
class MHDTrace:
    """Iterate history.

    ``status`` is ``"stationary"`` (certificate norm at most the
    ``stop_tol`` the run used), ``"iter_limit"``, or ``"float_floor"``:
    the certificate norm is still above the tolerance but the descent the
    Armijo test would have to measure is smaller than the float64
    resolution of the objective, so no further progress is observable.
    """

    steps: list[MHDStep] = field(default_factory=list)
    status: str = "iter_limit"
    stop_tol: float | None = None

    @property
    def final_x(self) -> np.ndarray:
        return self.steps[-1].x

    @property
    def final_f(self) -> float:
        return self.steps[-1].f

    def to_dict(self) -> dict:
        return _record_dict(self)

    def to_csv(self) -> str:
        rows = ([s.n, s.f, s.norm, s.alpha, s.k] for s in self.steps)
        return _csv_text(["n", "f", "norm", "alpha", "k"], rows)


def armijo_step(
    f: ConvexFn,
    x: np.ndarray,
    fx: float,
    v: np.ndarray,
    norm2: float,
    cfg: MHDConfig,
) -> tuple[float, int]:
    """Largest ``gamma**k`` with
    ``f(x - gamma**k v) - f(x) <= -gamma**k * sigma * norm2``.

    ``fx`` must be ``f(x)``, which the caller has already computed.
    ``norm2`` must be the squared norm of the full minimum-norm element
    ``(a, v)``, not just of ``v``.  Raises :class:`ArmijoFailure` when
    ``k`` exceeds ``ARMIJO_MAX_K``, which signals a non-descent
    direction and hence a broken hypodifferential oracle.
    """
    if norm2 <= 0:
        raise ValueError("norm2 must be positive")
    alpha = 1.0
    for k in range(ARMIJO_MAX_K + 1):
        if f.value(x - alpha * v) - fx <= -alpha * cfg.sigma * norm2:
            return alpha, k
        alpha *= cfg.gamma
    raise ArmijoFailure(f"no acceptable step within {ARMIJO_MAX_K} backtracks")


def mhd_run(
    f: ConvexFn,
    x0,
    cfg: MHDConfig | None = None,
    exact_line_search: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> MHDTrace:
    """Minimize a convex hypodifferentiable function.

    Parameters
    ----------
    f : ConvexFn
        Objective with a hypodifferential oracle.
    x0 : array
        Starting point.
    cfg : MHDConfig, optional
    exact_line_search : callable, optional
        ``(x, v) -> alpha`` returning a minimizer of
        ``alpha -> f(x - alpha v)`` over ``alpha >= 0``; replaces the
        Armijo rule when given (trace rows then carry ``k = None``).

    Returns
    -------
    MHDTrace
        One row per visited iterate, including the final one, whose row
        has no step; status ``"stationary"`` once the minimum-norm
        element has norm at most ``trace.stop_tol`` (a global-minimum
        certificate), else ``"iter_limit"`` or ``"float_floor"`` (see
        :class:`MHDTrace`).  Raises ``DimensionMismatch`` unless ``x0`` is
        a point of R^d for ``d = f.d``, before calling ``f``, and
        ``NonFinite`` for a non-finite ``x0`` or at an iterate where ``f``
        is not finite.
    """
    cfg = cfg or MHDConfig()
    x = _check_point(f.d, np.array(x0, dtype=float))
    trace = MHDTrace(stop_tol=cfg.stop_tol)
    w = np.empty(0)
    for n in range(cfg.max_iter + 1):
        fx, H = f.value_and_hypodiff(x)
        if not np.isfinite(fx):
            raise NonFinite(f"f is not finite at iterate {n}")
        trace.stop_tol = _default_tol(fx, H, tol=trace.stop_tol)  # derived at x0, then explicit
        point, w = min_norm_point(H, start=w if w.size == len(H) else None)
        a, v = float(point[0]), point[1:]
        nrm = float(np.linalg.norm(point))
        alpha = k = status = None
        if nrm <= trace.stop_tol:
            status = "stationary"
        elif n == cfg.max_iter:
            status = "iter_limit"
        elif exact_line_search is not None:
            alpha = float(exact_line_search(x, v))
        else:
            try:
                alpha, k = armijo_step(f, x, fx, v, nrm * nrm, cfg)
            except ArmijoFailure:
                # the full-step decrease the test demands is below the
                # float64 resolution of f: numerically stationary, not a
                # broken oracle
                if cfg.sigma * nrm * nrm > 64.0 * np.finfo(float).eps * max(1.0, abs(fx)):
                    raise
                status = "float_floor"
        trace.steps.append(MHDStep(n, x, fx, a, v, nrm, alpha, k))
        if status is not None:
            trace.status = status
            return trace
        x = x - alpha * v
