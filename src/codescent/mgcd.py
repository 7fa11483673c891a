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
origin; that hull does not depend on ``x``, so ``_unbounded_ray`` checks it
once per run, ``check_global_opt`` and ``classify_nonnegative`` (the sign
of a max of affine pieces) before any projection is read.

``mgcd_run`` iterates exactly this, maintaining the active index set;
once every index is discarded a per-index certificate is attached, and
the run claims a *global* minimum only if that certificate holds.
``mcd_run`` is the classic variant: it keeps all indices with hyper
offset at most ``mu`` and moves to the best exact line search along
their directions; ``line_search_pa`` reads ``f`` off its two envelopes
in O((l + s) log(l + s)) time and O(l + s) memory.

Both are one loop, ``_descend``, with two step rules.  It anchors each
iterate, value included, with ``global_codiff`` and projects all s
pieces there in one ``min_norm_point`` call on the stack of translates
``H(x) + z_j(x)``; a step reads the pieces it needs from that array and
only steps, and ``_descend`` alone reads the final certificate off it, as
``check_global_opt`` does, and sets the run's status.  ``_unbounded_ray``
projects the s gradient hulls ``conv{v_i + w_j}`` the same way, in one
call.  Both runs serialize to JSON and CSV.

No threshold is absolute: every "is this zero?" reads against one
``tol``, checked or by default set to ``1e-9`` times the data scale by
``pa._default_tol``, or against float rounding, so ``c * f`` runs as ``f``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite
from .minnorm import _exponent, min_norm_point
from .pa import DCForm, GlobalCodiff, _check_point, _csv_text, _default_tol, _record_dict, evaluate, global_codiff


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


@dataclass
class IterationRecord:
    n: int
    x: np.ndarray
    f: float
    projections: dict[int, np.ndarray] = field(default_factory=dict)
    discarded: list[int] = field(default_factory=list)
    chosen_j: int | None = None
    alpha: float | None = None


@dataclass
class GlobalRun:
    """Outcome of an MGCD or MCD run.

    ``status`` is one of ``"global_min"``, ``"unbounded_below"``,
    ``"inf_stationary"`` (MCD stalled at a point its certificate does not
    accept: with a finite ``mu``, or with ``mu = inf`` at ``tol = 0``,
    where rounding reads as descent), ``"undecided"`` (MGCD discarded
    every piece, yet its own certificate at the final point does not
    hold) or ``"iter_limit"``.  Each iterate is its record's ``x``, and
    ``iterates`` reads them.  ``to_dict`` carries every field, the
    ``iterates`` and the ``discard_log``; ``to_csv`` has one row per iterate.
    """

    method: str
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "iter_limit"
    certificate: Certificate | None = None
    ray: np.ndarray | None = None

    @property
    def iterates(self) -> list[np.ndarray]:
        return [rec.x for rec in self.records]

    @property
    def discard_log(self) -> list[tuple[int, int]]:
        """``(iteration, j)`` for every discarded index, in discard order."""
        return [(rec.n, j) for rec in self.records for j in rec.discarded]

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def final_f(self) -> float:
        return self.records[-1].f

    @property
    def n_steps(self) -> int:
        return len(self.records) - 1

    def to_dict(self) -> dict:
        return _record_dict(self, iterates=self.iterates, discard_log=self.discard_log)

    def to_csv(self) -> str:
        rows = (
            [r.n, r.f, r.chosen_j, r.alpha, len(r.projections), ";".join(map(str, r.discarded))]
            for r in self.records
        )
        return _csv_text(["n", "f", "chosen_j", "alpha", "n_projections", "discarded"], rows)


# ---------------------------------------------------------------------------
# pointwise primitives


def _check_index(f: DCForm, j: int) -> int:
    # read as a list reads an index (True is 1, a float raises TypeError), and
    # range-checked so that a negative j cannot wrap around
    j = operator.index(j)
    if not 0 <= j < f.minus.shape[0]:
        raise IndexError(f"min-part index {j} out of range")
    return j


def project_piece(f: DCForm, x, j: int) -> np.ndarray:
    """Minimum-norm element ``(a_j(x), v_j(x))`` of ``H(x) + z_j(x)``, row j
    of the one stacked projection that runs and ``check_global_opt`` make."""
    j = _check_index(f, j)
    gc = global_codiff(f, x)
    return min_norm_point(gc.hypo + gc.hyper[:, None])[0][j]


def _unbounded_ray(f: DCForm) -> np.ndarray | None:
    """Unit ray along which ``f`` is unbounded below, or None.

    ``f = min_j max_i (a_i + b_j + <v_i + w_j, x>)`` is unbounded below
    iff the gradient hull ``conv{v_i + w_j}`` of some piece ``j``, which
    does not depend on ``x``, misses the origin.  If the hull's
    minimum-norm point ``u`` has ``<g, u>`` above its rounding bound at
    every vertex ``g``, then ``f(x - t u)`` decreases at least linearly
    in ``t``; the first such piece gives ``-u / ||u||``.  Each hull is read
    scaled up as ``min_norm_point`` scales it, so ``g @ u`` cannot underflow.
    """
    G = f.plus[:, 1:] + f.minus[:, None, 1:]  # piece j's gradient hull is G[j]
    if (e := _exponent(G)) is not None:
        G = np.ldexp(G, -e[:, None, None])
    for g, u in zip(G, min_norm_point(G)[0]):
        # rounding of the sums in g and of the products g @ u
        bound = (g.shape[1] + 2) * np.finfo(float).eps * (np.abs(g) @ np.abs(u))
        if np.all(g @ u > bound):
            return -u / np.linalg.norm(u)
    return None


def check_global_opt(f: DCForm, x, tol: float | None = None) -> tuple[bool, Certificate]:
    """Global-minimality test at ``x``.

    Projects every shifted hypodifferential and accepts iff all offsets
    ``a_j(x)`` are at least ``-tol`` and ``f`` is bounded below; when it
    is not, the certificate carries the ray along which ``f`` decreases
    without bound.  ``tol`` is read through ``pa._default_tol`` at ``x``,
    so ``c * f`` gets the verdict of ``f``.
    """
    gc = global_codiff(f, x)
    tol = _default_tol(gc.value, gc.hypo, gc.hyper, tol=tol)
    a_values = min_norm_point(gc.hypo + gc.hyper[:, None])[0][:, 0]
    cert = Certificate(point=gc.at, a_values=a_values, tol=tol, ray=_unbounded_ray(f))
    return cert.is_global, cert


def classify_nonnegative(pieces: np.ndarray, tol: float | None = None) -> NonnegativityVerdict:
    """Classify ``f(x) = max_i (a_i + <v_i, x>)`` by its sign behaviour,
    the one-piece case of ``check_global_opt``, at the origin.

    A bounded-below ``f`` is nonnegative iff the offset ``a0`` of the
    minimum-norm point ``(a0, v0)`` of the piece hull is at least ``-tol``,
    and otherwise ``v0 / a0`` witnesses a negative value; ``_unbounded_ray``
    decides boundedness, and its ray is the descent ``direction``.
    ``tol`` is read through ``pa._default_tol`` at the origin.
    """
    pieces = np.atleast_2d(np.asarray(pieces, dtype=float))
    point, _ = min_norm_point(pieces)
    a0, v0 = float(point[0]), point[1:]
    top = pieces[:, 0].max()  # f(0)
    tol = _default_tol(top, pieces[:, 0] - top, pieces[:, 1:], tol=tol)
    ray = _unbounded_ray(DCForm(pieces.shape[1] - 1, pieces, np.zeros((1, pieces.shape[1]))))
    if ray is not None:
        return NonnegativityVerdict("unbounded_below", a0, v0, direction=ray)
    if a0 >= -tol:
        return NonnegativityVerdict("nonnegative", a0, v0)
    return NonnegativityVerdict("attains_negative", a0, v0, witness=v0 / a0)


def check_inf_stationary(f: DCForm, x, tol: float | None = None) -> bool:
    """Directional-derivative stationarity test at ``x``.

    True iff for every active min-part index (hyper offset at most
    ``tol``) the shifted hypodifferential contains the origin, i.e. its
    minimum-norm element has norm at most ``tol``, read through
    ``pa._default_tol`` at ``x``; the norm is ``math.hypot``'s, which does not underflow.
    """
    gc = global_codiff(f, x)
    tol = _default_tol(gc.value, gc.hypo, gc.hyper, tol=tol)
    points = min_norm_point(gc.hypo + gc.hyper[:, None])[0]
    return all(math.hypot(*p) <= tol for p, z in zip(points, gc.hyper) if z[0] <= tol)


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    value: float
    unbounded: bool = False


def _envelope(offsets: np.ndarray, slopes: np.ndarray, gap: float) -> tuple[list, list]:
    """Lines ``(offset, slope, alpha from which it is on top)`` of the upper envelope
    of ``offsets_i + alpha * slopes_i`` by increasing slope, and its ``alpha > 0``
    breakpoints between slopes more than ``gap`` apart (the convex hull trick)."""
    b, m = offsets.tolist(), slopes.tolist()
    stack = []
    for k in np.lexsort((offsets, slopes)).tolist():
        if stack and stack[-1][1] == m[k]:  # the highest of equal slopes comes last
            stack.pop()
        a = -math.inf
        while stack and (a := (stack[-1][0] - b[k]) / (m[k] - stack[-1][1])) <= stack[-1][2]:
            stack.pop()
        stack.append((b[k], m[k], a))
    pairs = zip(stack, stack[1:])
    return stack, [a for (_, m0, _), (_, m1, a) in pairs if a > 0 and m1 - m0 > gap]


def _on_envelope(lines: list, alphas: list) -> list:
    """``lines`` at each of the increasing ``alphas``: the larger of the lines on
    top from and just before it, as a breakpoint lies on both and rounding may favour either."""
    out, k = [], 0
    for al in alphas:
        while k + 1 < len(lines) and lines[k + 1][2] <= al:
            k += 1
        (b0, m0, _), (b1, m1, _) = lines[max(k - 1, 0)], lines[k]
        out.append(max(b0 + al * m0, b1 + al * m1))
    return out


def line_search_pa(f: DCForm, x, direction) -> LineSearchResult:
    """Exact minimization of ``phi(alpha) = f(x - alpha * direction)``
    over ``alpha >= 0``.

    ``phi`` is one-dimensional piecewise affine; its minimizer lies at
    ``alpha = 0`` or at one of the at most ``l + s - 2`` breakpoints of
    the max lines' upper envelope and the min lines' lower envelope, read
    off both in O((l + s) log(l + s)) time and O(l + s) memory, unless the
    recession slope is negative, in which case the ray is a certificate
    of unboundedness.  Ties are resolved toward the smallest ``alpha``.
    The search runs along ``direction`` scaled exactly by the power of two
    that puts its largest |entry| in [0.5, 1), so ``direction * 2**k`` gives
    ``alpha * 2**-k``, and raises ``NonFinite`` when the step overflows.
    Slope thresholds are relative to the largest slope along ``direction``.
    ``x`` and ``direction`` are each read by ``pa._check_point``, which raises
    ``DimensionMismatch`` unless the shape is ``(d,)`` and ``NonFinite`` for
    a non-finite entry; a non-finite ``f(x)`` also raises ``NonFinite``.
    """
    x, direction = _check_point(f.d, x), _check_point(f.d, direction)
    if not direction.any():
        raise ValueError("direction must be nonzero")
    e = math.frexp(float(np.abs(direction).max()))[1]
    direction = np.ldexp(direction, -e)  # exact: its largest |entry| in [0.5, 1)

    p, q = f.plus[:, 0] + f.plus[:, 1:] @ x, f.plus[:, 1:] @ direction
    r, t = f.minus[:, 0] + f.minus[:, 1:] @ x, f.minus[:, 1:] @ direction

    scale = max(float(np.abs(q).max()), float(np.abs(t).max()))
    recession = -float(q.min()) - float(t.max())
    if recession < -1e-12 * scale:
        return LineSearchResult(alpha=math.inf, value=-math.inf, unbounded=True)

    gap = 1e-15 * scale  # closer slopes are parallel up to rounding
    (upper, up_breaks), (lower, low_breaks) = _envelope(p, -q, gap), _envelope(-r, t, gap)
    cand = sorted([0.0, *up_breaks, *low_breaks])
    vals = np.subtract(_on_envelope(upper, cand), _on_envelope(lower, cand))
    if not np.isfinite(vals[0]):
        raise NonFinite("f is not finite at this point")
    best = int(np.argmin(vals))
    try:
        alpha = math.ldexp(cand[best], -e)
    except OverflowError:
        raise NonFinite("the step along direction overflows") from None
    return LineSearchResult(alpha=alpha, value=float(vals[best]))


# ---------------------------------------------------------------------------
# descent runs


def _descend(method: str, f: DCForm, x0, tol: float | None, max_iter: int, step, stall: str) -> GlobalRun:
    """The descent loop shared by both methods, and the only place that sets
    a run's certificate and status.

    Each iterate, ``x0`` included, is anchored first (a point where ``f``
    overflows raises ``NonFinite``); its record's ``f`` is ``gc.value``,
    and ``tol`` is read through ``pa._default_tol`` there (checked or derived
    at ``x0``, then fixed), so the run on ``c * f`` is the run on ``f``.  A
    function that ``_unbounded_ray`` shows unbounded below ends it at ``x0``.
    Otherwise each iterate gets a record, all s pieces are projected in
    one call, and ``step(gc, points, rec, run, tol)`` sees it anchored in
    ``gc``, with row j of ``points`` the minimum-norm element
    ``(a_j, v_j)`` of ``H(x) + z_j(x)``; the step fills the record and
    returns the next point, or None to stop, having set ``run.ray`` if its
    line search found one; a stop without a ray reads the certificate off
    ``points``.  The status is ``unbounded_below`` with a ray, ``iter_limit``
    with no certificate (after ``max_iter`` steps), ``global_min`` when the
    certificate holds and ``stall`` otherwise.
    """
    if (max_iter := operator.index(max_iter)) < 0:
        raise ValueError("max_iter must be >= 0")
    x = np.array(x0, dtype=float)
    run = GlobalRun(method=method, ray=_unbounded_ray(f))
    for n in range(max_iter + 1):
        gc = global_codiff(f, x)
        tol = _default_tol(gc.value, gc.hypo, gc.hyper, tol=tol)
        rec = IterationRecord(n=n, x=x, f=gc.value)
        run.records.append(rec)
        if run.ray is not None or n == max_iter:
            break
        points = min_norm_point(gc.hypo + gc.hyper[:, None])[0]
        if (x := step(gc, points, rec, run, tol)) is None:
            if run.ray is None:
                run.certificate = Certificate(point=gc.at, a_values=points[:, 0], tol=tol)
            break
    run.status = ("unbounded_below" if run.ray is not None else "iter_limit" if run.certificate is None
                  else "global_min" if run.certificate.is_global else stall)
    return run


def mgcd_run(
    f: DCForm,
    x0,
    tol: float | None = None,
    max_iter: int = 1000,
) -> GlobalRun:
    """Minimize a piecewise-affine function globally, without line search.

    A function unbounded below returns its ray before the first step.
    Per iteration, every piece is projected in one stacked call; the
    still-active ones are read: indices with ``a_j >= -tol`` are discarded
    permanently, and the step ``x + v_j / a_j`` of the best remaining index
    is taken (ties to the lowest index).  Once the active set is empty
    the run ends with status ``global_min`` if the certificate at the
    final point holds, and ``undecided`` otherwise.  A discarded index
    never becomes useful again, which is what bounds the number of steps;
    ``run.discard_log`` records when each index went, so callers can check
    that property.
    """
    active = list(range(f.minus.shape[0]))

    def step(gc: GlobalCodiff, points: np.ndarray, rec: IterationRecord, run: GlobalRun, tol: float):
        rec.projections = {j: points[j] for j in active}
        rec.discarded += [j for j in active if points[j, 0] >= -tol]
        active[:] = [j for j in active if j not in rec.discarded]
        if not active:
            return None
        trials = {j: rec.x + points[j, 1:] / points[j, 0] for j in active}
        values = {j: evaluate(f, y) for j, y in trials.items()}
        rec.chosen_j = min(values, key=values.get)
        return trials[rec.chosen_j]

    return _descend("mgcd", f, x0, tol, max_iter, step, "undecided")


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
    certified global minimum, unless ``tol = 0`` lets an ``a_j`` a few ulps
    below zero fail the certificate there (the worked example from (2, 2)
    ends ``inf_stationary`` at its minimum); with a finite ``mu`` it may be
    merely inf-stationary, and the attached certificate distinguishes the two.
    As in ``mgcd_run``, a function unbounded below returns its ray before
    the first step; the line search reports any other unbounded ray.
    """
    if not mu >= 0:
        raise ValueError(f"mu must be >= 0 or inf, got {mu}")
    s = f.minus.shape[0]

    def step(gc: GlobalCodiff, points: np.ndarray, rec: IterationRecord, run: GlobalRun, tol: float):
        cand = [j for j in range(s) if gc.hyper[j, 0] <= mu + tol]
        rec.projections = {j: points[j] for j in cand}
        descent = any(points[j, 0] < -tol for j in cand)
        # every piece a candidate and none descending certifies x as it stands
        searches = {}
        for j in cand if descent or len(cand) < s else []:
            vj = points[j, 1:]
            if (norm := math.hypot(*vj)) > tol:  # a shorter v_j is rounding, not a direction
                searches[j] = line_search_pa(f, rec.x, vj)
                if searches[j].unbounded:
                    run.ray = -vj / norm
                    return None

        best = min(searches, key=lambda j: searches[j].value, default=None)
        if best is None or searches[best].value >= rec.f - tol:
            return None
        rec.chosen_j, rec.alpha = best, searches[best].alpha
        return rec.x - rec.alpha * points[best, 1:]

    return _descend("mcd", f, x0, tol, max_iter, step, "inf_stationary")
