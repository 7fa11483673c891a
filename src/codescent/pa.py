"""Piecewise-affine functions in max-plus-min form and their calculus.

A piecewise-affine function is stored as a :class:`DCForm`:

    f(x) = max_i (a_i + <v_i, x>)  +  min_j (b_j + <w_j, x>),

with the max part in ``plus`` and the min part in ``minus`` (rows
``(offset, gradient...)``).  At any point the function owns an exact
two-polytope local model (:class:`GlobalCodiff`): a hypodifferential
(from the max part) and a hyperdifferential (from the min part) whose
expansion reproduces increments of ``f`` exactly for *all*
displacements, not just infinitesimally.

The calculus operations (`codiff_affine`, `codiff_scale`, `codiff_sum`,
`codiff_max`) combine DCForms so that the evaluation identity holds
pointwise; a minimum is the maximum under negation, ``-max(-f_i)``
(`codiff_min`), as negating a DCForm swaps and negates its parts.
:func:`expr_to_dc` applies them to an expression tree of affine atoms.
A DCForm is fixed only up to a linear term moved between its parts: a
shift ``+(0, u)`` of the max part and ``-(0, u)`` of the min part cancels
in every translate ``H(x) + z_j(x)``, so an affine atom needs one form.
Sums and unions merge only rows that are exactly equal (``_merge_duplicates``)
and scaling merges none, so ``codiff_scale(2**k, f)`` is ``2**k * f``.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, SizeOverflow

#: Cap on piece counts produced by the combinatorial operations.
MAX_PIECES = 10**6


# ---------------------------------------------------------------------------
# vertex-array helpers


def _merge_duplicates(rows: np.ndarray) -> np.ndarray:
    """Drop rows exactly equal to an earlier row.

    Keeps the first occurrence and preserves the original row order;
    returns ``rows`` itself when no two rows are equal.
    """
    if rows.shape[0] <= 1:
        return rows
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = (srt[1:] != srt[:-1]).any(axis=1)
    if new.all():
        return rows
    # lexsort is stable: each run of equal sorted rows starts with its first occurrence
    first = order[np.concatenate(([True], new))]
    first.sort()
    return rows[first]


def _minkowski(A: np.ndarray, *Bs: np.ndarray) -> np.ndarray:
    """Minkowski sum of the row sets ``A, *Bs``, folded left: all sums of one
    row from each, the first factor slowest, with each step's piece count
    checked against ``MAX_PIECES`` and its exact duplicates merged."""
    for B in Bs:
        n = A.shape[0] * B.shape[0]
        if n > MAX_PIECES:
            raise SizeOverflow(f"piece count {n} exceeds cap {MAX_PIECES}")
        A = _merge_duplicates((A[:, None, :] + B[None, :, :]).reshape(n, A.shape[1]))
    return A


def _freeze(a: np.ndarray) -> np.ndarray:
    # always copy: marking a view read-only would freeze the caller's array
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# run-record serialization


def _record_dict(record, **extra) -> dict:
    """JSON-ready dict of the dataclass ``record``: its fields in order,
    then the derived values in ``extra``.

    Arrays become lists, numpy scalars Python numbers, tuples lists and
    dict keys strings; a nested record is encoded by its own ``to_dict``
    when it has one, else in the same way.
    """

    def plain(v):
        if hasattr(v, "to_dict"):
            return v.to_dict()
        if is_dataclass(v):
            return _record_dict(v)
        if isinstance(v, (np.ndarray, np.generic)):
            return v.tolist()
        if isinstance(v, dict):
            return {str(k): plain(u) for k, u in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(u) for u in v]
        return v

    items = {f.name: getattr(record, f.name) for f in fields(record)}
    return {k: plain(v) for k, v in {**items, **extra}.items()}


def _csv_text(header, rows) -> str:
    """``header`` and then ``rows`` as CSV text; None is an empty cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class DCForm:
    """A piecewise-affine function ``max part + min part``.

    Parameters
    ----------
    d : int
        Ambient dimension.
    plus : array, shape (l, d + 1)
        Rows ``(a_i, v_i)`` of the max part.
    minus : array, shape (s, d + 1)
        Rows ``(b_j, w_j)`` of the min part.
    """

    d: int
    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        plus = np.atleast_2d(np.asarray(self.plus, dtype=float))
        minus = np.atleast_2d(np.asarray(self.minus, dtype=float))
        for name, part in (("plus", plus), ("minus", minus)):
            if part.shape[0] == 0:
                raise ValueError(f"{name} part must be nonempty")
            if part.shape[1] != self.d + 1:
                raise DimensionMismatch(
                    f"{name} part has width {part.shape[1]}, expected {self.d + 1}"
                )
            if not np.isfinite(part).all():
                raise NonFinite(f"{name} part contains non-finite entries")
        object.__setattr__(self, "plus", _freeze(plus))
        object.__setattr__(self, "minus", _freeze(minus))

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "plus": [{"a": float(r[0]), "v": list(map(float, r[1:]))} for r in self.plus],
            "minus": [{"b": float(r[0]), "w": list(map(float, r[1:]))} for r in self.minus],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @staticmethod
    def from_dict(data: dict) -> "DCForm":
        d = data["d"]
        # int() would take 2.9 as 2 and true as 1; 2.0 is still the integer 2
        if isinstance(d, bool) or not (isinstance(d, numbers.Integral) or isinstance(d, float) and d.is_integer()):
            raise TypeError(f"d must be an integer, got {d!r}")
        plus = np.array([[p["a"], *p["v"]] for p in data["plus"]], dtype=float)
        minus = np.array([[q["b"], *q["w"]] for q in data["minus"]], dtype=float)
        return DCForm(int(d), plus, minus)

    @staticmethod
    def from_json(text: str) -> "DCForm":
        return DCForm.from_dict(json.loads(text))


@dataclass(frozen=True)
class GlobalCodiff:
    """Exact two-polytope model of a :class:`DCForm` anchored at a point,
    built only by :func:`global_codiff`, with read-only arrays.

    ``hypo`` rows are ``(a_i - max_part(x) + <v_i, x>, v_i)`` and
    ``hyper`` rows are ``(b_j - min_part(x) + <w_j, x>, w_j)``; row order
    matches the source DCForm.  The offsets satisfy ``max_i a_i = 0``
    and ``min_j b_j = 0`` exactly, so ``f(at + dx) = value + expansion(dx)``.
    """

    at: np.ndarray
    value: float
    hypo: np.ndarray
    hyper: np.ndarray

    def expansion(self, dx: np.ndarray) -> float:
        """Exact increment ``f(at + dx) - f(at)`` predicted by the model;
        ``DimensionMismatch`` or ``NonFinite`` for a ``dx`` that is not a finite point of R^d."""
        dx = _check_point(self.at.size, dx)
        lo = np.max(self.hypo[:, 0] + self.hypo[:, 1:] @ dx)
        hi = np.min(self.hyper[:, 0] + self.hyper[:, 1:] @ dx)
        return float(lo + hi)


def _check_point(d: int, x) -> np.ndarray:
    """``x`` as one finite point of R^d: ``DimensionMismatch`` for any shape
    but ``(d,)``, ``NonFinite("point is not finite")`` for NaN or inf."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise DimensionMismatch(f"point has shape {x.shape}, expected ({d},)")
    if not np.isfinite(x).all():
        raise NonFinite("point is not finite")
    return x


# ---------------------------------------------------------------------------
# evaluation and the global codifferential


def evaluate(f: DCForm, x):
    """Evaluate ``f`` at one point (shape ``(d,)``) or a batch ``(n, d)``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (f.d,):
        raise DimensionMismatch(f"points have shape {x.shape}, expected (..., {f.d})")
    lo = np.max(f.plus[:, 0] + x @ f.plus[:, 1:].T, axis=-1)
    hi = np.min(f.minus[:, 0] + x @ f.minus[:, 1:].T, axis=-1)
    out = lo + hi
    return float(out) if out.ndim == 0 else out


def global_codiff(f: DCForm, x) -> GlobalCodiff:
    """Anchor the exact codifferential model of ``f`` at the point ``x``; its
    offsets are formed as ``evaluate`` forms them, so ``value == evaluate(f, x)``.
    Raises ``DimensionMismatch`` unless ``x`` has shape ``(d,)``, and
    ``NonFinite`` for a non-finite ``x`` or where that value overflows."""
    x = _check_point(f.d, x)
    lo = f.plus[:, 0] + x @ f.plus[:, 1:].T
    hi = f.minus[:, 0] + x @ f.minus[:, 1:].T
    top, bottom = lo.max(), hi.min()
    if not np.isfinite(top + bottom):
        raise NonFinite("codifferential is not finite at this point")
    hypo, hyper = f.plus.copy(), f.minus.copy()
    hypo[:, 0], hyper[:, 0] = lo - top, hi - bottom
    hypo.flags.writeable = hyper.flags.writeable = False
    return GlobalCodiff(at=_freeze(x), value=float(top + bottom), hypo=hypo, hyper=hyper)


def translate(f: DCForm, gc: GlobalCodiff, y) -> GlobalCodiff:
    """Re-anchor a codifferential of ``f`` from ``gc.at`` to ``y``: the
    rebuild ``global_codiff(f, y)``, which shifting the rows of ``gc``
    would match row for row at three times the matrix-vector products."""
    return global_codiff(f, y)


def _default_tol(value: float, *rows: np.ndarray, tol: float | None = None) -> float:
    """The one rule for "numerically zero" in a certificate: an explicit ``tol``
    must be finite and ``>= 0`` (a NaN or infinite one accepts every offset, a
    negative one none); ``None`` gives ``1e-9`` times the largest of ``|value|``
    and every ``|entry|`` of ``rows``, the value and (co)differential rows of a
    function at a point: ``c`` times larger for ``c * f`` and fixed when ``f``
    and the point are translated together, so no verdict depends on units."""
    if tol is None:
        return 1e-9 * max([abs(value)] + [float(np.abs(r).max(initial=0.0)) for r in rows])
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# calculus


def codiff_affine(a: float, v: np.ndarray) -> DCForm:
    """DCForm of the affine function ``a + <v, x>``: the row ``(a, v)`` over a zero min part."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    d = v.shape[0]
    return DCForm(d, np.array([[a, *v]]), np.zeros((1, d + 1)))


def codiff_scale(lam: float, f: DCForm) -> DCForm:
    """DCForm of ``lam * f``; a negative ``lam`` swaps the two parts."""
    if lam >= 0:
        return DCForm(f.d, lam * f.plus, lam * f.minus)
    return DCForm(f.d, lam * f.minus, lam * f.plus)


def _common_dim(fs) -> int:
    if not fs:
        raise ValueError("need at least one operand")
    d = fs[0].d
    for g in fs[1:]:
        if g.d != d:
            raise DimensionMismatch("operands have mixed dimensions")
    return d


def codiff_sum(fs) -> DCForm:
    """DCForm of ``sum(fs)``: Minkowski sums of both parts."""
    d = _common_dim(fs)
    return DCForm(d, _minkowski(*(g.plus for g in fs)), _minkowski(*(g.minus for g in fs)))


def codiff_max(fs) -> DCForm:
    """DCForm of the pointwise maximum of ``fs``: for each m, f_m's max part
    plus one negated min piece of every other operand, merged once, over
    the Minkowski sum of all min parts."""
    d = _common_dim(fs)
    plus = [_minkowski(fm.plus, *(-fk.minus for k, fk in enumerate(fs) if k != m)) for m, fm in enumerate(fs)]
    return DCForm(d, _merge_duplicates(np.vstack(plus)), _minkowski(*(g.minus for g in fs)))


def codiff_min(fs) -> DCForm:
    """DCForm of the pointwise minimum of ``fs``: ``-max(-f_i)``."""
    g = codiff_max([codiff_scale(-1.0, f) for f in fs])
    # 0.0 - z keeps +0.0 entries positive, where unary minus would print -0.
    return DCForm(g.d, 0.0 - g.minus, 0.0 - g.plus)


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Affine:
    a: float
    v: tuple

    def __init__(self, a, v):
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "v", tuple(float(c) for c in np.atleast_1d(v)))


@dataclass(frozen=True)
class Const:
    c: float


@dataclass(frozen=True)
class Scale:
    coef: float
    child: "PAExpr"


@dataclass(frozen=True)
class Sum:
    children: tuple = field(default_factory=tuple)

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))


class Max(Sum):
    pass


class Min(Sum):
    pass


PAExpr = Affine | Const | Scale | Sum


def expr_dim(e: PAExpr) -> int | None:
    """Dimension of the expression's affine leaves (None if all-constant)."""
    if isinstance(e, Affine):
        return len(e.v)
    if isinstance(e, Const):
        return None
    if isinstance(e, Scale):
        return expr_dim(e.child)
    dims = {expr_dim(c) for c in e.children} - {None}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed leaf dimensions {sorted(dims)}")
    return dims.pop() if dims else None


def expr_eval(e: PAExpr, x) -> float:
    """Evaluate the expression tree directly at ``x``."""
    x = np.asarray(x, dtype=float)
    if isinstance(e, Affine):
        return float(e.a + np.dot(e.v, x))
    if isinstance(e, Const):
        return float(e.c)
    if isinstance(e, Scale):
        return e.coef * expr_eval(e.child, x)
    vals = [expr_eval(c, x) for c in e.children]
    if isinstance(e, Max):
        return max(vals)
    if isinstance(e, Min):
        return min(vals)
    return float(sum(vals))


def expr_to_dc(e: PAExpr, d: int | None = None) -> DCForm:
    """Compile an expression tree into a DCForm via the calculus rules."""
    if d is None:
        d = expr_dim(e)
        if d is None:
            raise ValueError("cannot infer dimension from an all-constant tree; pass d")

    def build(node: PAExpr) -> DCForm:
        if isinstance(node, Affine):
            if len(node.v) != d:
                raise DimensionMismatch(f"leaf has dimension {len(node.v)}, expected {d}")
            return codiff_affine(node.a, np.array(node.v))
        if isinstance(node, Const):
            return codiff_affine(node.c, np.zeros(d))
        if isinstance(node, Scale):
            return codiff_scale(node.coef, build(node.child))
        if isinstance(node, Max):
            return codiff_max([build(c) for c in node.children])
        if isinstance(node, Min):
            return codiff_min([build(c) for c in node.children])
        if isinstance(node, Sum):
            return codiff_sum([build(c) for c in node.children])
        raise TypeError(f"not a PAExpr node: {node!r}")

    return build(e)
