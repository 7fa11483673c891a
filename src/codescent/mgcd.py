"""Global codifferential descent for piecewise-affine functions.

For a DCForm ``f`` anchored at ``x``, each min-part index ``j`` owns a
shifted hypodifferential ``H(x) + z_j(x)`` whose minimum-norm element
``(a_j(x), v_j(x))`` encodes everything the method needs:

* ``a_j >= 0``            — the piece can never certify descent again
  anywhere below the current level set, so it is discarded for good;
* ``a_j < 0``             — the step ``x + v_j / a_j`` decreases ``f``
  by at least ``|a_j| + ||v_j||^2 / |a_j|``.

Both readings assume ``f`` bounded below.  ``f`` is unbounded below
exactly when some piece's gradient hull ``conv{v_i + w_j}`` misses the
origin; that hull does not depend on ``x``, so ``_unbounded_ray`` checks
it once per run (and once per ``check_global_opt``) before any
projection is read.

``mgcd_run`` iterates exactly this, maintaining the active index set;
once every index is discarded a per-index certificate is attached, and
the run claims a *global* minimum only if that certificate holds.
``mcd_run`` is the classic variant: it keeps all indices with hyper
offset at most ``mu`` and moves to the best exact line search along
their directions; ``line_search_pa`` finds the breakpoints of its two
envelopes in O((l + s) log(l + s)) time and O(l + s) memory.

Both are one loop, ``_descend``, with two step rules.  It anchors each
iterate with ``global_codiff``, every projection goes through
``_project``, and the final certificate reuses the projections already
made at the last iterate.  Both runs serialize to JSON and CSV.

No threshold is absolute: every "is this zero?" reads against one
``tol``, by default ``1e-9`` times the data scale (``pa._default_tol``),
or against float rounding, so a run on ``c * f`` is the run on ``f``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite
from .minnorm import min_norm_point
from .pa import DCForm, GlobalCodiff, _csv_text, _default_tol, _record_dict, evaluate, global_codiff


@dataclass(frozen=True)
class Certificate:
    """Per-index optimality record at a point.

    ``a_values[j]`` is the offset of the minimum-norm element of
    ``H(x) + z_j(x)``; the point is a global minimum iff all of them
    are at least ``-tol`` and ``f`` is bounded below, i.e. no ``ray``
    of unboundedness was found.
    """

    point: np.ndarray
    a_values: np.ndarray
    tol: float
    ray: np.ndarray | None = None

    @property
    def is_global(self) -> bool:
        return self.ray is None and bool(np.min(self.a_values) >= -self.tol)

    def to_dict(self) -> dict:
        return _record_dict(self, is_global=self.is_global)


@dataclass
class IterationRecord:
    n: int
    x: np.ndarray
    f: float
    projections: dict[int, np.ndarray] = field(default_factory=dict)
    discarded: list[int] = field(default_factory=list)
    chosen_j: int | None = None
    alpha: float | None = None
    step_trial_value: float | None = None


@dataclass
class GlobalRun:
    """Outcome of an MGCD or MCD run.

    ``status`` is one of ``"global_min"``, ``"unbounded_below"``,
    ``"inf_stationary"`` (MCD stalled at a non-global stationary point,
    possible only with a finite ``mu``), ``"undecided"`` (MGCD discarded
    every piece, yet its own certificate at the final point does not
    hold) or ``"iter_limit"``.  ``to_dict`` carries every field and the
    ``discard_log``; ``to_csv`` has one row per iterate.
    """

    method: str
    iterates: list[np.ndarray] = field(default_factory=list)
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "iter_limit"
    certificate: Certificate | None = None
    ray: np.ndarray | None = None

    @property
    def discard_log(self) -> list[tuple[int, int]]:
        """``(iteration, j)`` for every discarded index, in discard order."""
        return [(rec.n, j) for rec in self.records for j in rec.discarded]

    @property
    def final_x(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_f(self) -> float:
        return self.records[-1].f

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    def to_dict(self) -> dict:
        return _record_dict(self, discard_log=self.discard_log)

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def to_csv(self) -> str:
        rows = (
            [r.n, r.f, r.chosen_j, r.alpha, len(r.projections), ";".join(map(str, r.discarded))]
            for r in self.records
        )
        return _csv_text(["n", "f", "chosen_j", "alpha", "n_projections", "discarded"], rows)


# ---------------------------------------------------------------------------
# pointwise primitives


def hyper_grad(f: DCForm, x, j: int) -> np.ndarray:
    """Hyperdifferential vertex ``z_j(x) = (b_j - min_part(x) + <w_j, x>, w_j)``.

    Its offset is nonnegative and vanishes exactly on the active
    min-part indices.
    """
    _check_index(f, j)
    return global_codiff(f, x).hyper[j].copy()


def _check_index(f: DCForm, j: int) -> None:
    # explicit, so that a negative j cannot wrap around
    if not 0 <= j < f.minus.shape[0]:
        raise IndexError(f"min-part index {j} out of range")


def project_piece(f: DCForm, x, j: int) -> np.ndarray:
    """Minimum-norm element ``(a_j(x), v_j(x))`` of ``H(x) + z_j(x)``."""
    _check_index(f, j)
    return _project(global_codiff(f, x), [j])[j]


def _project(gc: GlobalCodiff, indices) -> dict[int, np.ndarray]:
    """``{j: (a_j, v_j)}``, the minimum-norm element of ``H(x) + z_j(x)``
    for each ``j`` in ``indices``: the one place that projects them."""
    return {j: min_norm_point(gc.hypo + gc.hyper[j])[0] for j in indices}


def _certificate(
    gc: GlobalCodiff, tol: float, done: dict[int, np.ndarray], ray: np.ndarray | None = None
) -> Certificate:
    """Certificate at ``gc.at``, reusing the projections ``done`` there."""
    s = gc.hyper.shape[0]
    points = {**_project(gc, [j for j in range(s) if j not in done]), **done}
    a_values = np.array([points[j][0] for j in range(s)])
    return Certificate(point=gc.at, a_values=a_values, tol=tol, ray=ray)


def _unbounded_ray(f: DCForm) -> np.ndarray | None:
    """Unit ray along which ``f`` is unbounded below, or None.

    ``f = min_j max_i (a_i + b_j + <v_i + w_j, x>)`` is unbounded below
    iff the gradient hull ``conv{v_i + w_j}`` of some piece ``j``, which
    does not depend on ``x``, misses the origin.  If the hull's
    minimum-norm point ``u`` has ``<g, u>`` above its rounding bound at
    every vertex ``g``, then ``f(x - t u)`` decreases at least linearly
    in ``t``; the first such piece gives ``-u / ||u||``.
    """
    for j in range(f.minus.shape[0]):
        G = f.plus[:, 1:] + f.minus[j, 1:]
        u, _ = min_norm_point(G)
        # rounding of the sums in G and of the products G @ u
        bound = (G.shape[1] + 2) * np.finfo(float).eps * (np.abs(G) @ np.abs(u))
        if np.all(G @ u > bound):
            return -u / np.linalg.norm(u)
    return None


def _check_tol(tol: float | None) -> None:
    # a NaN or infinite tol would accept every offset, a negative one none
    if tol is not None and not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def check_global_opt(f: DCForm, x, tol: float | None = None) -> tuple[bool, Certificate]:
    """Global-minimality test at ``x``.

    Projects every shifted hypodifferential and accepts iff all offsets
    ``a_j(x)`` are at least ``-tol`` and ``f`` is bounded below; when it
    is not, the certificate carries the ray along which ``f`` decreases
    without bound.  ``tol`` defaults to ``1e-9`` times the data scale at
    ``x`` (``pa._default_tol``), so ``c * f`` gets the verdict of ``f``.
    """
    _check_tol(tol)
    gc = global_codiff(f, x)
    tol = _default_tol(evaluate(f, x), gc.hypo, gc.hyper) if tol is None else tol
    cert = _certificate(gc, tol, {}, _unbounded_ray(f))
    return cert.is_global, cert


def check_inf_stationary(f: DCForm, x, tol: float | None = None) -> bool:
    """Directional-derivative stationarity test at ``x``.

    True iff for every active min-part index (hyper offset at most
    ``tol``) the shifted hypodifferential contains the origin, i.e. its
    minimum-norm element has norm at most ``tol``, by default ``1e-9``
    times the data scale at ``x``.
    """
    _check_tol(tol)
    gc = global_codiff(f, x)
    tol = _default_tol(evaluate(f, x), gc.hypo, gc.hyper) if tol is None else tol
    active = [j for j in range(gc.hyper.shape[0]) if gc.hyper[j, 0] <= tol]
    return all(np.linalg.norm(p) <= tol for p in _project(gc, active).values())


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    value: float
    unbounded: bool = False


def _envelope_breakpoints(offsets: np.ndarray, slopes: np.ndarray, gap: float) -> np.ndarray:
    """The ``alpha > 0`` breakpoints of ``max_i (offsets_i + alpha * slopes_i)``
    between lines whose slopes differ by more than ``gap``, found by one
    sort by slope and one stack pass (the convex hull trick)."""
    b, m = offsets.tolist(), slopes.tolist()
    stack = []  # (offset, slope, alpha from which the line is on top)
    for k in np.lexsort((offsets, slopes)).tolist():
        if stack and stack[-1][1] == m[k]:  # the highest of equal slopes comes last
            stack.pop()
        a = -math.inf
        while stack and (a := (stack[-1][0] - b[k]) / (m[k] - stack[-1][1])) <= stack[-1][2]:
            stack.pop()
        stack.append((b[k], m[k], a))
    pairs = zip(stack, stack[1:])
    return np.array([a for (_, m0, _), (_, m1, a) in pairs if a > 0 and m1 - m0 > gap])


def line_search_pa(f: DCForm, x, direction) -> LineSearchResult:
    """Exact minimization of ``phi(alpha) = f(x - alpha * direction)``
    over ``alpha >= 0``.

    ``phi`` is one-dimensional piecewise affine; its minimizer lies at
    ``alpha = 0`` or at one of the at most ``l + s - 2`` breakpoints of
    the max lines' upper envelope and the min lines' lower envelope,
    found in O((l + s) log(l + s)) time and O(l + s) memory, unless the
    recession slope is negative, in which case the ray is a certificate
    of unboundedness.  Ties are resolved toward the smallest ``alpha``.
    Slope thresholds are relative to the largest slope along ``direction``.
    """
    x, direction = np.asarray(x, dtype=float), np.asarray(direction, dtype=float)
    if not np.isfinite(direction).all():
        raise NonFinite("direction is not finite")
    if not direction.any():
        raise ValueError("direction must be nonzero")

    p, q = f.plus[:, 0] + f.plus[:, 1:] @ x, f.plus[:, 1:] @ direction
    r, t = f.minus[:, 0] + f.minus[:, 1:] @ x, f.minus[:, 1:] @ direction

    scale = max(float(np.abs(q).max()), float(np.abs(t).max()))
    recession = -float(q.min()) - float(t.max())
    if recession < -1e-12 * scale:
        return LineSearchResult(alpha=math.inf, value=-math.inf, unbounded=True)

    gap = 1e-15 * scale  # closer slopes are parallel up to rounding
    breaks = (_envelope_breakpoints(p, -q, gap), _envelope_breakpoints(-r, t, gap))
    cand = np.sort(np.concatenate([[0.0], *breaks]))
    vals = np.max(p - np.outer(cand, q), axis=1) + np.min(r - np.outer(cand, t), axis=1)
    best = int(np.argmin(vals))
    return LineSearchResult(alpha=float(cand[best]), value=float(vals[best]))


# ---------------------------------------------------------------------------
# descent runs


def _descend(method: str, f: DCForm, x0, tol: float | None, max_iter: int, step) -> GlobalRun:
    """The descent loop shared by both methods.

    ``tol`` defaults to ``pa._default_tol`` at ``x0``, ``1e-9`` times the
    data scale there, so the run on ``c * f`` is the run on ``f``.  A
    function that ``_unbounded_ray`` shows unbounded below ends the run
    at ``x0``.
    Otherwise each iterate gets a record and ``step(gc, rec, run, tol)``
    sees it anchored in ``gc``; the step fills the record and returns the
    next point, or None once it has set the run's status.  After
    ``max_iter`` steps the run ends with a bare record of the last point
    and status ``iter_limit``.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    _check_tol(tol)
    x = np.array(x0, dtype=float, ndmin=1)
    run = GlobalRun(method=method, iterates=[x], ray=_unbounded_ray(f))
    if run.ray is not None:
        run.status = "unbounded_below"
    for n in range(max_iter + 1):
        rec = IterationRecord(n=n, x=x, f=evaluate(f, x))
        run.records.append(rec)
        if run.ray is not None or n == max_iter:
            return run
        gc = global_codiff(f, x)
        tol = _default_tol(rec.f, gc.hypo, gc.hyper) if tol is None else tol
        x = step(gc, rec, run, tol)
        if x is None:
            return run
        run.iterates.append(x)


def mgcd_run(
    f: DCForm,
    x0,
    tol: float | None = None,
    max_iter: int = 1000,
) -> GlobalRun:
    """Minimize a piecewise-affine function globally, without line search.

    A function unbounded below returns its ray before the first step.
    Per iteration, every still-active min-part index is projected;
    indices with ``a_j >= -tol`` are discarded permanently, and the step
    ``x + v_j / a_j`` of the best remaining index is taken (ties to the
    lowest index).  Once the active set is empty the run ends with
    status ``global_min`` if the certificate at the final point holds,
    and ``undecided`` otherwise.  A discarded index never becomes useful
    again, which is what bounds the number of steps; ``run.discard_log``
    records when each index went, so callers can check that property.
    """
    active = list(range(f.minus.shape[0]))

    def step(gc: GlobalCodiff, rec: IterationRecord, run: GlobalRun, tol: float):
        rec.projections.update(_project(gc, active))
        rec.discarded += [j for j in active if rec.projections[j][0] >= -tol]
        active[:] = [j for j in active if j not in rec.discarded]
        if not active:
            run.certificate = _certificate(gc, tol, rec.projections)
            run.status = "global_min" if run.certificate.is_global else "undecided"
            return None
        trials = {j: rec.x + rec.projections[j][1:] / rec.projections[j][0] for j in active}
        values = {j: evaluate(f, y) for j, y in trials.items()}
        rec.chosen_j = min(values, key=values.get)
        rec.step_trial_value = values[rec.chosen_j]
        return trials[rec.chosen_j]

    return _descend("mgcd", f, x0, tol, max_iter, step)


def mcd_run(
    f: DCForm,
    x0,
    mu: float = math.inf,
    tol: float | None = None,
    max_iter: int = 1000,
) -> GlobalRun:
    """Codifferential descent with exact line searches.

    Candidate indices are those with hyper offset at most ``mu``
    (``mu >= 0``; ``mu = inf`` keeps all of them, the variant with finite
    global convergence).  Every candidate direction ``-v_j`` is line
    searched exactly and the best endpoint is taken; the run stops when
    no candidate yields descent.  With ``mu = inf`` the stall point is a
    certified global minimum; with a finite ``mu`` it may be merely
    inf-stationary, and the attached certificate distinguishes the two.
    As in ``mgcd_run``, a function unbounded below returns its ray before
    the first step; the line search reports any other unbounded ray.

    Each record's ``step_trial_value`` is the best explicit-step value
    ``min_j f(x + v_j / a_j)`` over descent candidates, so traces can
    be checked for per-step dominance over the explicit-step method.
    """
    if not mu >= 0:
        raise ValueError(f"mu must be >= 0 or inf, got {mu}")
    s = f.minus.shape[0]

    def step(gc: GlobalCodiff, rec: IterationRecord, run: GlobalRun, tol: float):
        cand = [j for j in range(s) if gc.hyper[j, 0] <= mu + tol]
        rec.projections.update(_project(gc, cand))
        descent = [p for p in rec.projections.values() if p[0] < -tol]
        if descent:
            rec.step_trial_value = min(evaluate(f, rec.x + p[1:] / p[0]) for p in descent)

        # every piece a candidate and none descending certifies x as it stands
        searches = {}
        for j in cand if descent or len(cand) < s else []:
            vj = rec.projections[j][1:]
            if np.linalg.norm(vj) > tol:  # a shorter v_j is rounding, not a direction
                searches[j] = line_search_pa(f, rec.x, vj)
                if searches[j].unbounded:
                    run.status = "unbounded_below"
                    run.ray = -vj / np.linalg.norm(vj)
                    return None

        best = min(searches, key=lambda j: searches[j].value, default=None)
        if best is None or searches[best].value >= rec.f - tol:
            run.certificate = _certificate(gc, tol, rec.projections)
            run.status = "global_min" if run.certificate.is_global else "inf_stationary"
            return None
        rec.chosen_j, rec.alpha = best, searches[best].alpha
        return rec.x - rec.alpha * rec.projections[best][1:]

    return _descend("mcd", f, x0, tol, max_iter, step)
