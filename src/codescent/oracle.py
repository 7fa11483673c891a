"""Independent ground truth for piecewise-affine minimization.

Every LP here is the epigraph LP of one piece ``j`` of
``f = min_j max_i (a_i + b_j + <v_i + w_j, x>)``.  Substituting
``tau = t - b_j - <w_j, x>`` turns it into

    min  tau + <w_j, x>   s.t.  a_i + <v_i, x> <= tau  for every i,

whose constraints are the max part alone, the same for every ``j``.  So
one dense simplex tableau serves all pieces of a function:

* **feasible start** — ``x = 0, tau = max_i a_i`` is feasible, and one
  pivot on ``tau`` at the row of the largest ``a_i`` makes the slack
  basis a feasible basis, so there is no phase 1;
* **per-piece re-pricing** — each piece sets its cost row, prices out
  the basic columns and continues primal simplex from the previous
  piece's optimal basis;
* **rank-1 pivots** — with Bland's rule (smallest entering index;
  smallest ratio, ties by smallest basic index), which terminates from
  any feasible basis.

Three entry points use it:

* :func:`min_max_affine` — exact minimum of a max of affine pieces (one
  piece with a zero min part), with an explicit certificate ray when
  unbounded;
* :func:`classify_nonnegative` — decide whether such a function is
  nonnegative everywhere, attains negative values, or is unbounded
  below, certified via the minimum-norm point of its piece hull;
* :func:`pa_global_min` — exact global minimum of a DCForm, the
  smallest of its per-piece LP optima.

Everything here is deliberately independent of the descent methods it
is used to check, except that ``classify_nonnegative`` consults the
min-norm solver for its sign certificate, as its contract requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate
from .minnorm import min_norm_point
from .pa import DCForm, _default_tol, global_codiff

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


@dataclass(frozen=True)
class NonnegativityVerdict:
    """Outcome of :func:`classify_nonnegative`.

    ``kind`` is ``"nonnegative"``, ``"attains_negative"`` (with a
    ``witness`` point of negative value) or ``"unbounded_below"`` (with
    a descent ``direction``).  ``a0``/``v0`` carry the minimum-norm
    point of the piece hull that certifies the verdict.
    """

    kind: str
    a0: float
    v0: np.ndarray
    witness: np.ndarray | None = None
    direction: np.ndarray | None = None


# ---------------------------------------------------------------------------
# dense primal simplex from a feasible basis


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def solve_lp(T: np.ndarray, basis: np.ndarray, c: np.ndarray):
    """Minimize ``c @ z`` over ``z >= 0`` from a feasible basis.

    ``T`` is a canonical tableau ``[B^-1 A | B^-1 b]``, one row per
    constraint, with a nonnegative last column; ``basis[i]`` is the
    column basic in row ``i``.  Bland-rule primal simplex pivots ``T``
    and ``basis`` in place, so the next call starts from this call's
    final basis.  Returns ``("optimal", z, None)`` or
    ``("unbounded", z, ray)`` where ``z`` is the basic feasible point at
    which the unbounded ray starts.  Raises ``Degenerate`` after
    ``_MAX_PIVOTS`` pivots.
    """
    n = T.shape[1] - 1
    cost = np.append(c, 0.0)
    cost -= cost[basis] @ T
    ray = None
    for _ in range(_MAX_PIVOTS):
        entering = np.flatnonzero(cost[:n] < -_PIVOT_TOL)
        if entering.size == 0:
            break
        enter = entering[0]
        col = T[:, enter]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            # push the entering column; the basic variables compensate
            ray = np.zeros(n)
            ray[basis] = -col
            ray[enter] = 1.0
            break
        ratio = T[rows, -1] / col[rows]
        ties = rows[ratio <= ratio.min() + _TIE_TOL]
        leave = ties[np.argmin(basis[ties])]
        _pivot(T, leave, enter)
        cost -= cost[enter] * T[leave]
        basis[leave] = enter
    else:
        raise Degenerate("simplex iteration cap exceeded")
    z = np.zeros(n)
    z[basis] = T[:, -1]
    return ("optimal" if ray is None else "unbounded"), z, ray


# ---------------------------------------------------------------------------
# polyhedral entry points


def _piece_minima(plus: np.ndarray, minus: np.ndarray):
    """Yield the :class:`LPOutcome` of each piece ``j``,
    ``min_x max_i (a_i + b_j + <v_i + w_j, x>)``, from one shared tableau.

    Columns: ``x+`` (d), ``x-`` (d), ``tau+``, ``tau-``, slacks (m), rhs.
    The tableau holds the data divided by the power of two just above its
    largest |entry|, an exact division, so the pivot tolerances are
    relative to the data.
    """
    a, V = plus[:, 0], plus[:, 1:]
    m, d = V.shape
    e = math.frexp(max(np.abs(plus).max(), np.abs(minus).max()))[1]
    unit = math.ldexp(1.0, -e)
    T = np.zeros((m, 2 * d + 3 + m))
    T[:, :d] = unit * V
    T[:, d : 2 * d] = -T[:, :d]
    T[:, 2 * d] = -1.0
    T[:, 2 * d + 1] = 1.0
    T[:, 2 * d + 2 : -1] = np.eye(m)
    T[:, -1] = -unit * a
    basis = np.arange(2 * d + 2, 2 * d + 2 + m)
    # tau = max_i a_i enters as tau+ or tau-, whichever is then nonnegative
    top = int(np.argmax(a))
    tau = 2 * d if a[top] >= 0 else 2 * d + 1
    _pivot(T, top, tau)
    basis[top] = tau

    c = np.zeros(T.shape[1] - 1)
    c[2 * d], c[2 * d + 1] = 1.0, -1.0
    for b, w, cost in zip(minus[:, 0], minus[:, 1:], unit * minus[:, 1:]):
        c[:d], c[d : 2 * d] = cost, -cost
        status, z, ray = solve_lp(T, basis, c)
        if status == "optimal":
            x = z[:d] - z[d : 2 * d]
            yield LPOutcome("bounded", argmin=x, value=float(np.max(a + V @ x) + b + w @ x))
        else:
            r = ray[:d] - ray[d : 2 * d]
            nrm = np.linalg.norm(r)
            yield LPOutcome("unbounded_below", ray=r / nrm if nrm > 0 else r)


def min_max_affine(pieces: np.ndarray) -> LPOutcome:
    """Minimize ``max_i (a_i + <v_i, x>)`` over all of R^d.

    ``pieces`` is an ``(m, d + 1)`` array of rows ``(a_i, v_i)``: the
    epigraph LP of a single piece with a zero min part.
    """
    pieces = np.atleast_2d(np.asarray(pieces, dtype=float))
    return next(_piece_minima(pieces, np.zeros((1, pieces.shape[1]))))


def classify_nonnegative(pieces: np.ndarray, tol: float | None = None) -> NonnegativityVerdict:
    """Classify ``f(x) = max_i (a_i + <v_i, x>)`` by its sign behaviour.

    For a bounded-below ``f`` the verdict reduces to the sign of the
    offset ``a0`` of the minimum-norm point ``(a0, v0)`` of the piece
    hull: nonnegative iff ``a0 >= -tol``, otherwise ``v0 / a0``
    witnesses a negative value.  An unbounded ``f`` is reported with a
    descent direction (``-v0`` when the hull pinches the ``a = 0``
    hyperplane away from the origin, else the LP ray), which is why the
    boundedness precondition of the sign test never needs to be trusted.
    ``tol`` defaults to ``1e-9`` times the data scale at the origin.
    """
    pieces = np.atleast_2d(np.asarray(pieces, dtype=float))
    if tol is None:
        f = DCForm(pieces.shape[1] - 1, pieces, np.zeros((1, pieces.shape[1])))
        tol = _default_tol(float(pieces[:, 0].max()), global_codiff(f, np.zeros(f.d)).hypo)
    point, _ = min_norm_point(pieces)
    a0, v0 = float(point[0]), point[1:]
    lp = min_max_affine(pieces)
    if not lp.bounded:
        if abs(a0) <= tol and np.linalg.norm(v0) > 0:
            direction = -v0 / np.linalg.norm(v0)
        else:
            direction = lp.ray
        return NonnegativityVerdict("unbounded_below", a0, v0, direction=direction)
    if a0 >= -tol:
        return NonnegativityVerdict("nonnegative", a0, v0)
    return NonnegativityVerdict("attains_negative", a0, v0, witness=v0 / a0)


def pa_global_min(f: DCForm) -> LPOutcome:
    """Exact global minimum of a DCForm by per-piece linear programming.

    ``f`` equals ``min_j [ max_i (a_i + b_j + <v_i + w_j, x>) ]``, so
    the global minimum is the smallest of the per-``j`` epigraph LP
    optima; any unbounded piece makes ``f`` unbounded below.  All
    pieces share one tableau (see the module docstring).
    """
    best: LPOutcome | None = None
    for lp in _piece_minima(f.plus, f.minus):
        if not lp.bounded:
            return lp
        if best is None or lp.value < best.value:
            best = lp
    return best
