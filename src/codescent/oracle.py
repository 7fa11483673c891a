"""Independent ground truth for piecewise-affine minimization.

Every LP here is the dual of the epigraph LP of one piece ``j`` of
``f = min_j max_i (a_i + b_j + <v_i + w_j, x>)``:

    max  sum_i lam_i a_i   s.t.  sum_i lam_i (1, v_i) = (1, -w_j),  lam >= 0,

convex weights on the max part's gradients that cancel ``w_j``; its
optimum plus ``b_j`` is ``min f_j``.  Only the right-hand side depends
on ``j``, so one dual simplex on ``d + 1`` rows serves all pieces of a
function: ``lam_top = 1`` at the largest ``a_i`` (primal ``x = 0,
tau = max_i a_i``) is dual feasible for every piece, so there is no
phase 1, and each piece starts from the previous one's optimal basis.
The basis inverse is explicit, ``(d + 1)``-square, and takes a rank-1
eta update per pivot (see :func:`solve_lp`).

Two entry points share one loop over the pieces, :func:`_global_min`:

* :func:`min_max_affine` — exact minimum of a max of affine pieces (one
  piece with a zero min part), with an explicit certificate ray when
  unbounded;
* :func:`pa_global_min` — exact global minimum of a DCForm, the
  smallest of its per-piece LP optima.

Nothing here shares code with the descent methods it is used to check:
neither their min-norm solver nor their tolerance rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NonFinite
from .pa import DCForm

_PIVOT_TOL = 1e-9
_TIE_TOL = 1e-12
_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class LPOutcome:
    """Result of a polyhedral minimization.

    ``status`` is ``"bounded"`` or ``"unbounded_below"``.  For bounded
    problems ``argmin``/``value`` hold the optimum; for unbounded ones
    ``ray`` is a direction along which the objective decreases without
    bound.
    """

    status: str
    argmin: np.ndarray | None = None
    value: float | None = None
    ray: np.ndarray | None = None

    @property
    def bounded(self) -> bool:
        return self.status == "bounded"


# ---------------------------------------------------------------------------
# dual simplex from a dual-feasible basis


def solve_lp(A, c, beta, basis, Binv, dd):
    """Maximize ``c @ lam`` over ``A @ lam = beta, lam >= 0`` by dual simplex.

    ``basis[r]`` is the column basic in row ``r`` of ``Binv``; ``-k`` is
    the unit column ``e_k``, an artificial fixed at 0 that may leave but
    never enters.  ``dd = c - c_B Binv A <= 0`` are the reduced costs.
    All three are updated in place, so the next call starts from this
    call's final basis.  A row is infeasible when its ``lam`` is below
    ``-_PIVOT_TOL`` or its artificial is off 0 by more than that.

    The most infeasible row leaves (Dantzig) for the column of least
    ratio ``dd_q / rho_q``, the smallest index among ties.  If that ratio
    is at most ``_TIE_TOL``, Bland's row (smallest basic index,
    artificials first) leaves instead.  So every degenerate pivot is a
    Bland pivot and every other pivot strictly lowers the objective: a
    cycle, which keeps the objective constant, would hold only Bland
    pivots, and Bland's theorem rules that out.

    Returns ``("optimal", c_B Binv)``, or ``("infeasible", u)`` with
    ``u @ A >= 0 > u @ beta`` (Farkas) from an infeasible row with no
    entering column.  Raises ``Degenerate`` after ``_MAX_PIVOTS`` pivots.
    """
    nonbasic = np.ones(A.shape[1], dtype=bool)
    nonbasic[basis[basis >= 0]] = False
    for _ in range(_MAX_PIVOTS):
        xB = Binv @ beta
        art = basis < 0
        infeas = np.where(art, np.abs(xB), -xB)
        r = np.argmax(infeas)
        if infeas[r] <= _PIVOT_TOL:
            return "optimal", np.where(art, 0.0, c[np.maximum(basis, 0)]) @ Binv
        for bland in (False, True):
            u = Binv[r] if xB[r] < 0 else -Binv[r]
            rho = u @ A
            cand = (nonbasic & (rho < -_PIVOT_TOL)).nonzero()[0]
            if cand.size == 0:
                return "infeasible", u
            ratio = dd[cand] / rho[cand]
            least = ratio.min()
            if bland or least > _TIE_TOL:
                break
            rows = (infeas > _PIVOT_TOL).nonzero()[0]
            r = rows[np.argmin(basis[rows])]
        q = cand[np.argmax(ratio <= least + _TIE_TOL)]
        col = Binv @ A[:, q]
        dd -= (dd[q] / rho[q]) * rho
        dd[q] = 0.0
        eta = Binv[r] / col[r]
        Binv -= col[:, None] * eta
        Binv[r] = eta
        if basis[r] >= 0:
            nonbasic[basis[r]] = True
        nonbasic[q] = False
        basis[r] = q
    raise Degenerate("simplex iteration cap exceeded")


# ---------------------------------------------------------------------------
# polyhedral entry points


def _global_min(plus: np.ndarray, minus: np.ndarray) -> LPOutcome:
    """``min_j min_x max_i (a_i + b_j + <v_i + w_j, x>)``, the pieces ``j``
    solved in order from one dual basis: the first unbounded piece gives
    its Farkas ray, otherwise the least value wins, the first on ties.

    ``A = [1; unit V^T]``, costs ``unit a`` and right-hand sides
    ``(1, -unit w_j)``, with ``unit`` the power of two just above the
    data's largest |entry|: an exact scaling that makes the pivot
    tolerances relative to the data.  The multipliers are
    ``(unit tau, -x)``; a Farkas vector ``u`` gives the ray ``-u[1:]``.
    """
    a, V = plus[:, 0], plus[:, 1:]
    d = V.shape[1]
    e = math.frexp(max(np.abs(plus).max(), np.abs(minus).max()))[1]
    unit = math.ldexp(1.0, -e)
    A = np.vstack([np.ones(len(a)), unit * V.T])
    c = unit * a
    # lam_top = 1 with artificials in rows 1..d: x = 0, tau = max_i a_i
    top = int(np.argmax(a))
    basis = -np.arange(d + 1)
    basis[0] = top
    Binv = np.eye(d + 1)
    Binv[1:, 0] = -A[1:, top]
    dd = c - c[top]
    betas = np.column_stack([np.ones(len(minus)), -unit * minus[:, 1:]])
    best = None
    for b, w, beta in zip(minus[:, 0], minus[:, 1:], betas):
        status, y = solve_lp(A, c, beta, basis, Binv, dd)
        if status != "optimal":
            return LPOutcome("unbounded_below", ray=-y[1:] / np.linalg.norm(y[1:]))
        x = -y[1:]
        value = float(np.max(a + V @ x) + b + w @ x)
        if best is None or value < best.value:
            best = LPOutcome("bounded", argmin=x, value=value)
    return best


def min_max_affine(pieces: np.ndarray) -> LPOutcome:
    """Minimize ``max_i (a_i + <v_i, x>)`` over all of R^d.

    ``pieces`` is an ``(m, d + 1)`` array of rows ``(a_i, v_i)``: the
    epigraph LP of a single piece with a zero min part.  Raises
    ``NonFinite`` for a non-finite entry.
    """
    pieces = np.atleast_2d(np.asarray(pieces, dtype=float))
    if not np.isfinite(pieces).all():
        raise NonFinite("pieces contain non-finite entries")
    return _global_min(pieces, np.zeros((1, pieces.shape[1])))


def pa_global_min(f: DCForm) -> LPOutcome:
    """Exact global minimum of a DCForm by per-piece linear programming.

    ``f`` equals ``min_j [ max_i (a_i + b_j + <v_i + w_j, x>) ]``, so
    the global minimum is the smallest of the per-``j`` epigraph LP
    optima; any unbounded piece makes ``f`` unbounded below.  All
    pieces share one dual basis (see the module docstring).
    """
    return _global_min(f.plus, f.minus)
