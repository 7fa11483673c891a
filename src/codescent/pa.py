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
`codiff_max`, `codiff_min`) combine DCForms so that the evaluation
identity holds pointwise, and :func:`expr_to_dc` applies them
recursively to an expression tree of affine atoms.  Sums and unions
merge only rows that are exactly equal (``_merge_duplicates``) and
scaling merges none, so ``codiff_scale(2**k, f)`` is ``2**k * f``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, SizeOverflow

#: Default cap on piece counts produced by the combinatorial operations.
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


def _minkowski(A: np.ndarray, B: np.ndarray, cap: int) -> np.ndarray:
    """All pairwise sums of rows, first factor slowest."""
    n = A.shape[0] * B.shape[0]
    if n > cap:
        raise SizeOverflow(f"piece count {n} exceeds cap {cap}")
    out = (A[:, None, :] + B[None, :, :]).reshape(n, A.shape[1])
    return _merge_duplicates(out)


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

    def __call__(self, x):
        return evaluate(self, x)

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
        d = int(data["d"])
        plus = np.array([[p["a"], *p["v"]] for p in data["plus"]], dtype=float)
        minus = np.array([[q["b"], *q["w"]] for q in data["minus"]], dtype=float)
        return DCForm(d, plus, minus)

    @staticmethod
    def from_json(text: str) -> "DCForm":
        return DCForm.from_dict(json.loads(text))


@dataclass(frozen=True)
class GlobalCodiff:
    """Exact two-polytope model of a :class:`DCForm` anchored at a point.

    ``hypo`` rows are ``(a_i - max_part(x) + <v_i, x>, v_i)`` and
    ``hyper`` rows are ``(b_j - min_part(x) + <w_j, x>, w_j)``; row order
    matches the source DCForm.  The offsets satisfy ``max_i a_i = 0``
    and ``min_j b_j = 0`` exactly.
    """

    at: np.ndarray
    hypo: np.ndarray
    hyper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "at", _freeze(np.atleast_1d(self.at)))
        object.__setattr__(self, "hypo", _freeze(np.atleast_2d(self.hypo)))
        object.__setattr__(self, "hyper", _freeze(np.atleast_2d(self.hyper)))
        if not self.hypo[:, 0].max() == 0 == self.hyper[:, 0].min():
            if not (np.isfinite(self.hypo).all() and np.isfinite(self.hyper).all()):
                raise NonFinite("codifferential is not finite at this point")
            raise ValueError("codifferential offsets are not normalized")

    def expansion(self, dx: np.ndarray) -> float:
        """Exact increment ``f(at + dx) - f(at)`` predicted by the model."""
        dx = np.asarray(dx, dtype=float)
        lo = np.max(self.hypo[:, 0] + self.hypo[:, 1:] @ dx)
        hi = np.min(self.hyper[:, 0] + self.hyper[:, 1:] @ dx)
        return float(lo + hi)


def _check_point(d: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise DimensionMismatch(f"point has dimension {x.shape[-1]}, expected {d}")
    return x


# ---------------------------------------------------------------------------
# evaluation and the global codifferential


def evaluate(f: DCForm, x):
    """Evaluate ``f`` at one point (shape ``(d,)``) or a batch ``(n, d)``."""
    x = _check_point(f.d, x)
    lo = np.max(f.plus[:, 0] + x @ f.plus[:, 1:].T, axis=-1)
    hi = np.min(f.minus[:, 0] + x @ f.minus[:, 1:].T, axis=-1)
    out = lo + hi
    return float(out) if out.ndim == 0 else out


def global_codiff(f: DCForm, x) -> GlobalCodiff:
    """Anchor the exact codifferential model of ``f`` at ``x``."""
    x = _check_point(f.d, x)
    hypo = f.plus.copy()
    hypo[:, 0] += f.plus[:, 1:] @ x
    hypo[:, 0] -= hypo[:, 0].max()
    hyper = f.minus.copy()
    hyper[:, 0] += f.minus[:, 1:] @ x
    hyper[:, 0] -= hyper[:, 0].min()
    return GlobalCodiff(at=x, hypo=hypo, hyper=hyper)


def translate(f: DCForm, gc: GlobalCodiff, y) -> GlobalCodiff:
    """Re-anchor a codifferential of ``f`` from ``gc.at`` to ``y``: the
    rebuild ``global_codiff(f, y)``, which shifting the rows of ``gc``
    would match row for row at three times the matrix-vector products."""
    return global_codiff(f, y)


def _default_tol(value: float, *rows: np.ndarray) -> float:
    """The one default for "numerically zero" in a certificate: ``1e-9``
    times the largest of ``|value|`` and every ``|entry|`` of ``rows``, for
    a function with value ``value`` and (co)differential rows ``rows`` at a
    point.  The scale is ``c`` times larger for ``c * f`` and fixed when
    ``f`` and the point are translated together, so no verdict read
    against it depends on units."""
    return 1e-9 * max([abs(value)] + [float(np.abs(r).max()) for r in rows])


# ---------------------------------------------------------------------------
# calculus


def codiff_affine(a: float, v: np.ndarray, flavor: str = "hypo") -> DCForm:
    """DCForm of the affine function ``a + <v, x>``.

    ``flavor="hypo"`` puts the gradient in the max part, ``"hyper"``
    puts it in the min part (the constant stays in the max part so both
    offset normalizations hold).  Both represent the same function;
    the hypo flavor keeps piece counts down inside maxima, the hyper
    flavor inside minima.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    d = v.shape[0]
    zero = np.zeros(d)
    if flavor == "hypo":
        return DCForm(d, np.array([[a, *v]]), np.array([[0.0, *zero]]))
    if flavor == "hyper":
        return DCForm(d, np.array([[a, *zero]]), np.array([[0.0, *v]]))
    raise ValueError(f"unknown flavor {flavor!r}")


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


def codiff_sum(fs, max_pieces: int = MAX_PIECES) -> DCForm:
    """DCForm of ``sum(fs)``: Minkowski sums of both parts."""
    d = _common_dim(fs)
    plus = fs[0].plus
    minus = fs[0].minus
    for g in fs[1:]:
        plus = _minkowski(plus, g.plus, max_pieces)
        minus = _minkowski(minus, g.minus, max_pieces)
    return DCForm(d, plus, minus)


def _max_like(fs, lead: str, max_pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared construction for max (lead='plus') and min (lead='minus').

    For the max of functions f_m, the combined max part enumerates, for
    each m, the pieces of f_m's max part minus one min piece of every
    other operand; the combined min part is the Minkowski sum of all min
    parts.  The min construction mirrors it with the roles swapped.
    """
    trail = "minus" if lead == "plus" else "plus"
    lead_rows = []
    for m, fm in enumerate(fs):
        acc = getattr(fm, lead)
        for k, fk in enumerate(fs):
            if k != m:
                acc = _minkowski(acc, -getattr(fk, trail), max_pieces)
        lead_rows.append(acc)
    lead_part = _merge_duplicates(np.vstack(lead_rows))
    trail_part = getattr(fs[0], trail)
    for g in fs[1:]:
        trail_part = _minkowski(trail_part, getattr(g, trail), max_pieces)
    return lead_part, trail_part


def codiff_max(fs, max_pieces: int = MAX_PIECES) -> DCForm:
    """DCForm of the pointwise maximum of ``fs``."""
    d = _common_dim(fs)
    plus, minus = _max_like(fs, "plus", max_pieces)
    return DCForm(d, plus, minus)


def codiff_min(fs, max_pieces: int = MAX_PIECES) -> DCForm:
    """DCForm of the pointwise minimum of ``fs``."""
    d = _common_dim(fs)
    minus, plus = _max_like(fs, "minus", max_pieces)
    return DCForm(d, plus, minus)


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
        if len(children) == 1 and isinstance(children[0], (list, tuple)):
            children = tuple(children[0])
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


def expr_to_dc(e: PAExpr, d: int | None = None, max_pieces: int = MAX_PIECES) -> DCForm:
    """Compile an expression tree into a DCForm via the calculus rules.

    Affine atoms take the hypo flavor under a Max and the hyper flavor
    under a Min (flipped again under negative scaling), which keeps the
    piece counts of the nested constructions minimal.
    """
    if d is None:
        d = expr_dim(e)
        if d is None:
            raise ValueError("cannot infer dimension from an all-constant tree; pass d")

    def build(node: PAExpr, flavor: str) -> DCForm:
        if isinstance(node, Affine):
            if len(node.v) != d:
                raise DimensionMismatch(f"leaf has dimension {len(node.v)}, expected {d}")
            return codiff_affine(node.a, np.array(node.v), flavor)
        if isinstance(node, Const):
            return codiff_affine(node.c, np.zeros(d), flavor)
        if isinstance(node, Scale):
            child_flavor = flavor
            if node.coef < 0:
                child_flavor = "hyper" if flavor == "hypo" else "hypo"
            return codiff_scale(node.coef, build(node.child, child_flavor))
        if isinstance(node, Max):
            return codiff_max([build(c, "hypo") for c in node.children], max_pieces)
        if isinstance(node, Min):
            return codiff_min([build(c, "hyper") for c in node.children], max_pieces)
        if isinstance(node, Sum):
            return codiff_sum([build(c, flavor) for c in node.children], max_pieces)
        raise TypeError(f"not a PAExpr node: {node!r}")

    return build(e, "hypo")


# -- expression JSON --------------------------------------------------------

_KINDS = {"affine": Affine, "const": Const, "scale": Scale, "sum": Sum, "max": Max, "min": Min}


def expr_to_dict(e: PAExpr) -> dict:
    if isinstance(e, Affine):
        return {"kind": "affine", "a": e.a, "v": list(e.v)}
    if isinstance(e, Const):
        return {"kind": "const", "c": e.c}
    if isinstance(e, Scale):
        return {"kind": "scale", "coef": e.coef, "child": expr_to_dict(e.child)}
    kind = {Max: "max", Min: "min", Sum: "sum"}[type(e)]
    return {"kind": kind, "children": [expr_to_dict(c) for c in e.children]}


def expr_from_dict(data: dict) -> PAExpr:
    kind = data["kind"]
    if kind == "affine":
        return Affine(data["a"], data["v"])
    if kind == "const":
        return Const(float(data["c"]))
    if kind == "scale":
        return Scale(float(data["coef"]), expr_from_dict(data["child"]))
    if kind in ("sum", "max", "min"):
        return _KINDS[kind](*[expr_from_dict(c) for c in data["children"]])
    raise ValueError(f"unknown node kind {kind!r}")


def expr_to_json(e: PAExpr, **kwargs) -> str:
    return json.dumps(expr_to_dict(e), **kwargs)


def expr_from_json(text: str) -> PAExpr:
    return expr_from_dict(json.loads(text))
