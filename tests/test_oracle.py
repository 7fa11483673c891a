import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codescent import (
    DCForm,
    Degenerate,
    NonFinite,
    classify_nonnegative,
    evaluate,
    min_max_affine,
    min_norm_point,
    pa_global_min,
    worked_example,
)
from codescent import oracle
from codescent.problems import GEN_OFFSET, _cross_scale


def bounded_below_pieces(rng, d, extra):
    """Random max-affine piece set that is bounded below by construction."""
    c = int(np.ceil(2 * np.sqrt(d))) + 1
    m = 2 * d + extra
    pieces = np.zeros((m, d + 1))
    pieces[:, 0] = rng.uniform(-3, 3, m)
    for k in range(d):
        pieces[2 * k, 1 + k] = c
        pieces[2 * k + 1, 1 + k] = -c
    pieces[2 * d :, 1:] = rng.uniform(-c, c, (extra, d))
    return pieces


# ---------------------------------------------------------------------------
# min_max_affine


def test_abs_value_lp():
    out = min_max_affine(np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert out.bounded
    assert out.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(out.argmin, [0.0], atol=1e-9)


def test_single_tilted_piece_unbounded():
    out = min_max_affine(np.array([[1.0, 1.0]]))
    assert not out.bounded
    assert out.ray is not None
    # objective strictly decreases along the certificate ray
    assert 1.0 + out.ray[0] * 100 < 1.0 - 50


def test_cross_polytope_minimum():
    pieces = np.array([[-4.0, 1, 0], [-4.0, -1, 0], [-4.0, 0, 1], [-4.0, 0, -1]])
    out = min_max_affine(pieces)
    assert out.bounded
    assert out.value == pytest.approx(-4.0, abs=1e-9)
    assert np.allclose(out.argmin, [0.0, 0.0], atol=1e-9)


def test_optimality_structure_random(rng):
    """At a bounded optimum the active gradients admit a zero convex combination."""
    for _ in range(50):
        d = int(rng.integers(1, 5))
        pieces = bounded_below_pieces(rng, d, int(rng.integers(0, 4)))
        out = min_max_affine(pieces)
        assert out.bounded
        vals = pieces[:, 0] + pieces[:, 1:] @ out.argmin
        assert out.value == pytest.approx(float(vals.max()), abs=1e-8)
        active = pieces[vals >= out.value - 1e-7, 1:]
        point, _ = min_norm_point(active)
        assert np.linalg.norm(point) <= 1e-8


def test_against_scipy_linprog(rng):
    from scipy.optimize import linprog

    n_bounded = n_unbounded = 0
    for _ in range(150):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        pieces = rng.normal(size=(m, d + 1))
        out = min_max_affine(pieces)
        res = linprog(
            c=np.concatenate([np.zeros(d), [1.0]]),
            A_ub=np.hstack([pieces[:, 1:], -np.ones((m, 1))]),
            b_ub=-pieces[:, 0],
            bounds=[(None, None)] * (d + 1),
            method="highs",
        )
        if out.bounded:
            n_bounded += 1
            assert res.status == 0
            assert out.value == pytest.approx(res.fun, abs=1e-7)
        else:
            n_unbounded += 1
            assert res.status == 3
            slopes = pieces[:, 1:] @ out.ray
            assert slopes.max() < 0  # genuine recession direction
    assert n_bounded > 10 and n_unbounded > 10


# ---------------------------------------------------------------------------
# classify_nonnegative


def test_classify_abs():
    v = classify_nonnegative(np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert v.kind == "nonnegative"
    assert v.a0 == pytest.approx(0.0, abs=1e-9)


def test_classify_negative_constant():
    v = classify_nonnegative(np.array([[-1.0, 0.0]]))
    assert v.kind == "attains_negative"
    assert -1.0 == pytest.approx(float(np.max(-1.0 + 0.0 * v.witness)), abs=1e-12)


def test_classify_shifted_segment():
    v = classify_nonnegative(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert v.kind == "nonnegative"
    assert v.a0 == pytest.approx(1.0, abs=1e-9)


def test_classify_counterexample_positive_offset_unbounded():
    # a single tilted piece: its hull's min-norm offset is positive, yet the
    # function is unbounded below, so the sign test alone would lie
    v = classify_nonnegative(np.array([[1.0, 1.0]]))
    assert v.kind == "unbounded_below"
    assert v.a0 == pytest.approx(1.0)
    vals = 1.0 + v.direction[0] * np.array([1.0, 10.0, 100.0])
    assert (np.diff(vals) < 0).all()


def test_classify_matches_lp_verdict(rng):
    for _ in range(200):
        d = int(rng.integers(1, 5))
        pieces = bounded_below_pieces(rng, d, int(rng.integers(0, 5)))
        v = classify_nonnegative(pieces)
        lp = min_max_affine(pieces)
        assert lp.bounded
        assert (v.kind == "nonnegative") == (lp.value >= -1e-9)
        if v.kind == "attains_negative":
            val = np.max(pieces[:, 0] + pieces[:, 1:] @ v.witness)
            assert val < 0


@st.composite
def small_integer_pieces(draw):
    """1 to 8 rows over R^d, d <= 4, of integers in [-3, 3]: unbounded sets,
    hulls through the origin and repeated rows all come up."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    row = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    return np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=float)


@settings(max_examples=400, deadline=None)
@given(pieces=small_integer_pieces())
def test_classify_boundedness_matches_lp(pieces):
    # two independent computations: the codifferential ray test and the dual simplex
    v = classify_nonnegative(pieces)
    lp = min_max_affine(pieces)
    assert (v.kind == "unbounded_below") == (not lp.bounded)
    if v.kind == "unbounded_below":
        assert np.max(pieces[:, 1:] @ v.direction) < 0
    else:
        assert (v.kind == "nonnegative") == (lp.value >= -1e-9)


def test_oracle_imports_nothing_it_checks():
    sources, names = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
            sources.add((node.module or "").rsplit(".", 1)[-1])
            if node.module in (None, "codescent"):
                sources.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            sources.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert not sources & {"minnorm", "mgcd", "mhd", "convex"}
    assert "_default_tol" not in names


# ---------------------------------------------------------------------------
# pa_global_min


def test_global_min_showcase():
    out = pa_global_min(worked_example())
    assert out.bounded
    assert out.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(out.argmin, [0.0, 0.0], atol=1e-9)


def test_pivot_cap_raises_degenerate(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_PIVOTS", 0)
    with pytest.raises(Degenerate, match="simplex iteration cap exceeded"):
        pa_global_min(worked_example())


def test_global_min_abs():
    f = DCForm(1, np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([[0.0, 0.0]]))
    out = pa_global_min(f)
    assert out.bounded and out.value == pytest.approx(0.0, abs=1e-12)


def test_global_min_cancellation():
    f = DCForm(1, np.array([[0.0, 1.0]]), np.array([[0.0, -1.0]]))
    out = pa_global_min(f)
    assert out.bounded and out.value == pytest.approx(0.0, abs=1e-12)


def test_global_min_lower_bounds_samples(rng):
    from codescent import generate_pa

    for seed in range(5):
        d = int(rng.integers(2, 5))
        f = generate_pa(seed, d, 2 * d + 2, 3)
        out = pa_global_min(f)
        X = rng.uniform(-5, 5, size=(1000, d))
        assert out.value <= float(evaluate(f, X).min()) + 1e-8


@st.composite
def integer_dcforms(draw):
    """Small integer DCForms; the narrow range gives tied offsets, and
    some rows are drawn again as duplicates, so Bland's tie-break runs."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1)
    plus = draw(st.lists(row, min_size=1, max_size=6))
    plus += [plus[i] for i in draw(st.lists(st.integers(0, len(plus) - 1), max_size=3))]
    minus = draw(st.lists(row, min_size=1, max_size=4))
    return DCForm(d, np.array(plus, dtype=float), np.array(minus, dtype=float))


def _highs_piece_minima(f):
    from scipy.optimize import linprog

    cost = np.zeros(f.d + 1)
    cost[-1] = 1.0
    for row in f.minus:
        P = f.plus + row
        A = np.column_stack([P[:, 1:], -np.ones(len(P))])
        res = linprog(cost, A_ub=A, b_ub=-P[:, 0], bounds=[(None, None)] * (f.d + 1),
                      method="highs", options={"presolve": False})
        if res.status == 4:
            # without presolve HiGHS can end an unbounded LP with model status
            # "unknown" (the third @example below); its presolve settles it
            res = linprog(cost, A_ub=A, b_ub=-P[:, 0], bounds=[(None, None)] * (f.d + 1),
                          method="highs")
        assert res.status in (0, 3)
        yield res.fun if res.status == 0 else -np.inf


@settings(max_examples=300, deadline=None)
@given(f=integer_dcforms())
# f = max(x, 2x): unbounded below
@example(f=DCForm(1, np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([[0.0, 0.0]])))
# |x| with a duplicated row and tied offsets, minus a tied pair of pieces
@example(
    f=DCForm(1, np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0]]), np.array([[0.0, 0.0], [0.0, 0.0]]))
)
# unbounded; HiGHS without presolve reports its LP's status as unknown
@example(
    f=DCForm(
        3,
        np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, -1], [-1, 1, 1, 2], [-1, 1, 1, -2], [-2, 2, 2, 0]]),
        np.array([[0, 0, 0, 1]]),
    )
)
def test_pa_global_min_matches_highs(f):
    out = pa_global_min(f)
    ref = min(_highs_piece_minima(f))
    if ref == -np.inf:
        assert not out.bounded
        slope = np.max(f.plus[:, 1:] @ out.ray) + np.min(f.minus[:, 1:] @ out.ray)
        assert slope < 0
    else:
        assert out.bounded
        assert out.value == pytest.approx(ref, abs=1e-7)
        assert abs(float(evaluate(f, out.argmin)) - out.value) <= 1e-9 * max(1.0, abs(out.value))


@st.composite
def scaled_dcforms(draw):
    """Integer DCForms with d <= 4, returned with a scale 2**k, |k| <= 30.
    About half the draws add the coercive cross-polytope rows (any piece
    with ||w_j||_1 < c is then bounded below), and about half repeat a
    coordinate column, which lowers the rank of both gradient sets."""
    d = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    plus = np.array(draw(st.lists(row, min_size=1, max_size=8)), dtype=float)
    minus = np.array(draw(st.lists(row, min_size=1, max_size=4)), dtype=float)
    if draw(st.booleans()):
        c = 3 * d + 1
        cross = np.zeros((2 * d, d + 1))
        cross[:, 0] = draw(st.lists(st.integers(-3, 3), min_size=2 * d, max_size=2 * d))
        cross[:, 1:] = np.vstack([c * np.eye(d), -c * np.eye(d)])
        plus = np.vstack([plus, cross])
    if d > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(1, d + 1)))[:2]
        plus[:, dst], minus[:, dst] = plus[:, src], minus[:, src]
    return DCForm(d, plus, minus), 2.0 ** draw(st.integers(-30, 30))


def _assert_matches_highs(out, f, scale):
    """``out`` solved ``f`` scaled by ``scale``; HiGHS solves ``f`` itself."""
    ref = min(_highs_piece_minima(f))
    if ref == -np.inf:
        assert not out.bounded
        slope = np.max(f.plus[:, 1:] @ out.ray) + np.min(f.minus[:, 1:] @ out.ray)
        assert slope < 0
    else:
        assert out.bounded
        assert out.value / scale == pytest.approx(ref, abs=1e-7)
        assert float(evaluate(f, out.argmin)) == pytest.approx(out.value / scale, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(case=scaled_dcforms())
def test_oracle_matches_highs_at_scale(case):
    # both entry points, on rank-deficient and coercive gradient sets, far
    # from unit scale; the max part alone checks min_max_affine and its rays
    f, scale = case
    _assert_matches_highs(pa_global_min(DCForm(f.d, scale * f.plus, scale * f.minus)), f, scale)
    max_part = DCForm(f.d, f.plus, np.zeros((1, f.d + 1)))
    _assert_matches_highs(min_max_affine(scale * f.plus), max_part, scale)


def top_rung(seed, d=20, l=400, s=40):
    """``generate_pa``'s row layout at a size it cannot draw: the min-part
    gradients are uniform on {w in Z^d : ||w||^2 <= 4}, drawn by shell
    (w = 0, k entries +-1 for k <= 4, one entry +-2) with probability
    proportional to the shell's size."""
    rng = np.random.default_rng(seed)
    c = _cross_scale(d)
    plus = np.zeros((l, d + 1))
    plus[:, 0] = rng.integers(-GEN_OFFSET, GEN_OFFSET + 1, l)
    plus[: 2 * d, 1:] = np.kron(np.eye(d), [[c], [-c]])
    plus[2 * d :, 1:] = rng.integers(-c, c + 1, (l - 2 * d, d))
    minus = np.zeros((s, d + 1))
    minus[:, 0] = rng.integers(-GEN_OFFSET, GEN_OFFSET + 1, s)
    sizes = np.array([1] + [math.comb(d, k) * 2**k for k in range(1, 5)] + [2 * d])
    for row, shell in zip(minus, rng.choice(6, size=s, p=sizes / sizes.sum())):
        k, entry = (1, 2) if shell == 5 else (shell, 1)
        row[1 + rng.choice(d, k, replace=False)] = entry * rng.choice([-1, 1], k)
    return DCForm(d, plus, minus)


def test_top_rung_matches_highs():
    # (d, l, s) = (20, 400, 40): 40 LPs of 400 rows, one basis warm-started
    # across all of them
    f = top_rung(0)
    out = pa_global_min(f)
    assert out.bounded
    assert out.value == pytest.approx(min(_highs_piece_minima(f)), abs=1e-7)
    assert float(evaluate(f, out.argmin)) == pytest.approx(out.value, abs=1e-9)


def test_min_max_affine_rejects_nonfinite():
    # a NaN offset gave LPOutcome("bounded", value=nan) after RuntimeWarnings
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFinite):
            min_max_affine([[bad, 1.0], [0.0, -1.0]])
