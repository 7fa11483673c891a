import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codescent import (
    Affine,
    Const,
    DCForm,
    DimensionMismatch,
    Max,
    Min,
    NonFinite,
    Scale,
    SizeOverflow,
    Sum,
    codiff_affine,
    codiff_max,
    codiff_min,
    codiff_scale,
    codiff_sum,
    evaluate,
    expr_eval,
    expr_to_dc,
    global_codiff,
    mcd_run,
    mgcd_run,
    pa_global_min,
    translate,
    worked_example,
)
from codescent.pa import _default_tol, _merge_duplicates
from codescent.problems import WORKED_EXAMPLE_HYPER, WORKED_EXAMPLE_HYPO
from conftest import assert_certificate_is_check_global_opts, random_expr

ABS_X = DCForm(1, np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([[0.0, 0.0]]))


def as_int_set(rows):
    assert np.allclose(rows, np.round(rows), atol=1e-12)
    return {tuple(int(round(c)) for c in row) for row in rows}


def g1_dc():
    """max(|x1|, |x2|) on R^2."""
    return expr_to_dc(
        Max(
            Max(Affine(0.0, (1.0, 0.0)), Affine(0.0, (-1.0, 0.0))),
            Max(Affine(0.0, (0.0, 1.0)), Affine(0.0, (0.0, -1.0))),
        )
    )


def g2_dc():
    """1 + max(2|x1 - 2|, |x2 - 2|) on R^2."""
    return expr_to_dc(
        Sum(
            Const(1.0),
            Max(
                Scale(2.0, Max(Affine(-2.0, (1.0, 0.0)), Affine(2.0, (-1.0, 0.0)))),
                Max(Affine(-2.0, (0.0, 1.0)), Affine(2.0, (0.0, -1.0))),
            ),
        )
    )


# ---------------------------------------------------------------------------
# evaluation


def test_eval_showcase_points():
    f = worked_example()
    assert evaluate(f, [2.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(f, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_eval_single_affine_piece():
    f = DCForm(1, np.array([[0.0, 1.0]]), np.array([[0.0, 0.0]]))
    assert evaluate(f, [5.0]) == pytest.approx(5.0)


def test_eval_batch_and_dimension_check():
    f = worked_example()
    X = np.array([[2.0, 2.0], [0.0, 0.0]])
    assert np.allclose(evaluate(f, X), [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        evaluate(f, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# global codifferential and translation


def test_global_codiff_showcase_vertex_sets():
    gc = global_codiff(worked_example(), [2.0, 2.0])
    assert as_int_set(gc.hypo) == WORKED_EXAMPLE_HYPO
    assert as_int_set(gc.hyper) == WORKED_EXAMPLE_HYPER


def test_global_codiff_record():
    # the anchor's arrays are read-only, and its point is its own copy
    f = worked_example()
    x = np.array([2.0, 2.0])
    gc = global_codiff(f, x)
    for a in (gc.at, gc.hypo, gc.hyper):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    x[0] = 5.0
    assert np.array_equal(gc.at, [2.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite, match="not finite"):
        global_codiff(f, [1e308, 1e308])


def test_expansion_checks_dx():
    f = worked_example()
    gc = global_codiff(f, [2.0, 2.0])
    assert gc.expansion([-2.0, -2.0]) == evaluate(f, [0.0, 0.0]) - gc.value
    with pytest.raises(DimensionMismatch, match=r"point has shape \(1,\)"):
        gc.expansion([1.0])
    with pytest.raises(NonFinite, match="point is not finite"):
        gc.expansion([np.nan, 0.0])


def test_global_codiff_single_affine():
    f = codiff_affine(3.0, np.array([2.0]))
    for x in ([0.0], [7.0], [-4.0]):
        gc = global_codiff(f, x)
        assert np.allclose(gc.hypo, [[0.0, 2.0]])
        assert np.allclose(gc.hyper, [[0.0, 0.0]])


def test_normalization_at_random_points(rng):
    f = worked_example()
    for _ in range(50):
        gc = global_codiff(f, rng.normal(size=2) * 3)
        assert gc.hypo[:, 0].max() == 0 == gc.hyper[:, 0].min()


def global_codiff_reference(f, x):
    """Reference rows of ``global_codiff(f, x)``: each part's offsets
    shifted in place by ``P @ x``, then normalized."""
    x = np.asarray(x, dtype=float)
    hypo = f.plus.copy()
    hypo[:, 0] += f.plus[:, 1:] @ x
    hypo[:, 0] -= hypo[:, 0].max()
    hyper = f.minus.copy()
    hyper[:, 0] += f.minus[:, 1:] @ x
    hyper[:, 0] -= hyper[:, 0].min()
    return hypo, hyper


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    l=st.integers(1, 12),
    s=st.integers(1, 6),
    k=st.integers(-60, 60),
    kx=st.integers(-60, 60),
)
def test_global_codiff_carries_value_and_tol(seed, d, l, s, k, kx):
    # the anchor carries f(x) and the rows the default tol there reads: its
    # value is evaluate's, its rows the reference's, and the tol 1e-9 times
    # the largest of them in absolute value
    r = np.random.default_rng(seed)
    f = DCForm(d, r.normal(size=(l, d + 1)) * 2.0**k, r.normal(size=(s, d + 1)) * 2.0**k)
    x = r.normal(size=d) * 2.0**kx
    gc = global_codiff(f, x)
    fx = evaluate(f, x)
    assert gc.value == fx
    scale = max(abs(fx), np.abs(gc.hypo).max(), np.abs(gc.hyper).max())
    assert _default_tol(gc.value, gc.hypo, gc.hyper) == 1e-9 * scale
    hypo, hyper = global_codiff_reference(f, x)
    assert gc.hypo.tobytes() == hypo.tobytes() and gc.hyper.tobytes() == hyper.tobytes()


def test_translate_identity_and_consistency(rng):
    f = worked_example()
    gc = global_codiff(f, [2.0, 2.0])
    same = translate(f, gc, [2.0, 2.0])
    assert np.array_equal(same.hypo, gc.hypo) and np.array_equal(same.hyper, gc.hyper)

    direct = global_codiff(f, [0.0, 0.0])
    moved = translate(f, gc, [0.0, 0.0])
    assert np.abs(moved.hypo - direct.hypo).max() <= 1e-12
    assert np.abs(moved.hyper - direct.hyper).max() <= 1e-12

    for _ in range(20):
        y = rng.normal(size=2) * 3
        moved = translate(f, gc, y)
        direct = global_codiff(f, y)
        assert np.abs(moved.hypo - direct.hypo).max() <= 1e-9
        assert np.abs(moved.hyper - direct.hyper).max() <= 1e-9


def test_translate_abs_hand_computed():
    gc = global_codiff(ABS_X, [1.0])
    assert np.allclose(gc.hypo, [[0.0, 1.0], [-2.0, -1.0]])
    moved = translate(ABS_X, gc, [-1.0])
    assert np.allclose(moved.hypo, [[-2.0, 1.0], [0.0, -1.0]])


# ---------------------------------------------------------------------------
# calculus operations


def distinct_rows(rows):
    """Indices of the first occurrence of each row tuple, in order."""
    seen = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        seen.setdefault(row, i)
    return list(seen.values())


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 12),
    k=st.integers(1, 4),
    copies=st.integers(0, 6),
    ulps=st.sampled_from([0, 1, 2, 2**14, 2**40]),
)
def test_merge_duplicates_matches_reference(seed, m, k, copies, ulps):
    # rows on a coarse grid, then copies of some of them moved by ``ulps``
    # units in the last place of one coordinate: only exact copies merge
    r = np.random.default_rng(seed)
    base = r.integers(-2, 3, size=(m, k)) / 4.0
    dup = base[r.integers(0, m, size=copies if m else 0)]
    i, j = np.arange(len(dup)), r.integers(0, k, size=len(dup))
    dup[i, j] += ulps * np.spacing(dup[i, j]) * r.choice([-1, 1], size=len(dup))
    rows = r.permutation(np.vstack([base, dup]))
    out = _merge_duplicates(rows)
    assert out.dtype == rows.dtype and np.array_equal(out, rows[distinct_rows(rows)])
    if ulps:  # every moved copy survives
        assert len(out) == len(distinct_rows(base)) + len(distinct_rows(dup))


def test_codiff_affine():
    f = codiff_affine(2.0, np.array([3.0]))
    assert np.array_equal(f.plus, [[2.0, 3.0]]) and np.array_equal(f.minus, [[0.0, 0.0]])
    assert evaluate(f, [1.0]) == 5.0


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), l=st.integers(1, 5), s=st.integers(1, 5))
def test_linear_shift_between_parts_changes_no_translate(data, d, l, s):
    # a DCForm is fixed only up to a linear term moved between its parts: the
    # shift +(0, u) of the max part and -(0, u) of the min part cancels in every
    # translate H(x) + z_j(x), so no choice of form for an atom can change one
    def ints(*shape):
        return data.draw(arrays(np.int64, shape, elements=st.integers(-9, 9))).astype(float)

    f = DCForm(d, ints(l, d + 1), ints(s, d + 1))
    u, x = np.concatenate(([0.0], ints(d))), ints(d)
    g = DCForm(d, f.plus + u, f.minus - u)
    gf, gg = global_codiff(f, x), global_codiff(g, x)
    assert (gg.hypo + gg.hyper[:, None]).tobytes() == (gf.hypo + gf.hyper[:, None]).tobytes()
    assert evaluate(g, x) == evaluate(f, x) == gg.value == gf.value


def test_codiff_scale(rng):
    f = expr_to_dc(Max(Affine(0.0, (1.0,)), Affine(0.0, (-1.0,))))
    assert np.array_equal(codiff_scale(1.0, f).plus, f.plus)
    neg = codiff_scale(-1.0, f)
    zero = codiff_scale(0.0, f)
    for _ in range(100):
        x = rng.normal(size=1) * 4
        assert evaluate(neg, x) == pytest.approx(-evaluate(f, x), abs=1e-12)
        assert evaluate(zero, x) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(-1000, 500), tree=st.none() | st.integers(0, 2**32 - 1))
@example(k=-40, tree=None)  # distinct rows closer than 1e-12 must not merge
@example(k=-41, tree=None)
# below about 2**-537 squared entries underflow to 0, and MGCD and MCD took
# (2, 2) for a global minimum; projections are made scaled up
@example(k=-600, tree=None)
@example(k=-1000, tree=None)
@example(k=-1000, tree=3)
@example(k=500, tree=None)
def test_power_of_two_scaling_is_exact(k, tree):
    # c = 2**k scales every float exactly, so the calculus, both runs and the
    # oracle on c * f must give the answers for f, scaled bit for bit
    if tree is None:
        f, x0 = worked_example(), np.array([2.0, 2.0])
    else:
        r = np.random.default_rng(tree)
        d = int(r.integers(1, 4))
        f, x0 = expr_to_dc(random_expr(r, int(r.integers(1, 5)), d), d=d), np.zeros(d)
    c = 2.0**k
    g = codiff_scale(c, f)
    assert np.array_equal(g.plus, c * f.plus) and np.array_equal(g.minus, c * f.minus)
    for method in (mgcd_run, mcd_run):
        run, scaled = method(f, x0), method(g, x0)
        assert scaled.status == run.status
        assert scaled.final_x.tobytes() == run.final_x.tobytes()
        assert scaled.final_f == c * run.final_f
        for h, r in ((f, run), (g, scaled)):
            if r.certificate is not None:
                assert_certificate_is_check_global_opts(h, r)
    lp, scaled_lp = pa_global_min(f), pa_global_min(g)
    assert scaled_lp.status == lp.status
    if lp.bounded:
        assert scaled_lp.value == c * lp.value


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 3))
def test_codiff_sum_folds_left(data, d):
    # an n-ary sum is the pairwise sums folded left, row order and merges included
    def form():
        l, s = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        return DCForm(d, *(data.draw(arrays(np.int64, (n, d + 1), elements=st.integers(-2, 2))) for n in (l, s)))

    f, g, h = form(), form(), form()
    three, nested = codiff_sum([f, g, h]), codiff_sum([codiff_sum([f, g]), h])
    for part in ("plus", "minus"):
        a, b = getattr(three, part), getattr(nested, part)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_codiff_sum_identity_and_pointwise(rng):
    f = g1_dc()
    assert np.array_equal(codiff_sum([f]).plus, f.plus)
    g = g2_dc()
    h = codiff_sum([f, g])
    for _ in range(100):
        x = rng.normal(size=2) * 3
        assert evaluate(h, x) == pytest.approx(evaluate(f, x) + evaluate(g, x), abs=1e-9)


def test_codiff_sum_matches_showcase_minkowski():
    # the showcase hypodifferential is the Minkowski sum of the two branches'
    h = codiff_sum([g1_dc(), g2_dc()])
    gc = global_codiff(h, [2.0, 2.0])
    assert as_int_set(gc.hypo) == WORKED_EXAMPLE_HYPO


def test_codiff_max_branch_vertex_sets():
    g1 = g1_dc()
    gc = global_codiff(g1, [2.0, 2.0])
    assert as_int_set(gc.hypo) == {(0, 1, 0), (-4, -1, 0), (0, 0, 1), (-4, 0, -1)}
    assert as_int_set(gc.hyper) == {(0, 0, 0)}


def test_codiff_min_showcase_hyper():
    f = codiff_min([g1_dc(), g2_dc()])
    gc = global_codiff(f, [2.0, 2.0])
    assert as_int_set(gc.hyper) == WORKED_EXAMPLE_HYPER


def test_codiff_max_min_single_operand():
    f = g1_dc()
    assert np.array_equal(codiff_max([f]).plus, f.plus)
    assert np.array_equal(codiff_min([f]).minus, f.minus)


def test_codiff_max_min_pointwise(rng):
    f, g = g1_dc(), g2_dc()
    fmax, fmin = codiff_max([f, g]), codiff_min([f, g])
    for _ in range(100):
        x = rng.normal(size=2) * 3
        assert evaluate(fmax, x) == pytest.approx(max(evaluate(f, x), evaluate(g, x)), abs=1e-9)
        assert evaluate(fmin, x) == pytest.approx(min(evaluate(f, x), evaluate(g, x)), abs=1e-9)


def test_size_overflow(rng, monkeypatch):
    from codescent import pa
    from codescent.pa import MAX_PIECES

    assert MAX_PIECES == 10**6
    # distinct two-piece min parts multiply under max: 2**k pieces
    forms = [
        expr_to_dc(Min(Affine(0.0, (rng.normal(),)), Affine(0.0, (rng.normal(),))))
        for _ in range(16)
    ]
    monkeypatch.setattr(pa, "MAX_PIECES", 10**4)
    with pytest.raises(SizeOverflow):
        codiff_max(forms)


def test_dimension_mismatch_in_calculus():
    with pytest.raises(DimensionMismatch):
        codiff_sum([ABS_X, g1_dc()])
    with pytest.raises(ValueError, match="need at least one operand"):
        codiff_sum([])


# ---------------------------------------------------------------------------
# expression trees


def test_expr_to_dc_affine_leaf():
    f = expr_to_dc(Affine(0.0, (1.0, 0.0)))
    assert np.allclose(f.plus, [[0.0, 1.0, 0.0]])
    assert np.allclose(f.minus, [[0.0, 0.0, 0.0]])


def test_expr_to_dc_rejects_malformed_trees():
    with pytest.raises(DimensionMismatch, match="mixed leaf dimensions"):
        expr_to_dc(Sum(Affine(0.0, (1.0,)), Affine(0.0, (1.0, 2.0))))
    with pytest.raises(ValueError, match="pass d"):
        expr_to_dc(Const(1.0))
    assert evaluate(expr_to_dc(Const(1.0), d=2), [3.0, 4.0]) == 1.0
    with pytest.raises(DimensionMismatch, match="leaf has dimension 1, expected 2"):
        expr_to_dc(Affine(0.0, (1.0,)), d=2)
    with pytest.raises(TypeError, match="not a PAExpr node"):
        expr_to_dc(Max(Affine(0.0, (1.0,)), 2.0), d=1)


def test_expr_to_dc_min_of_affines():
    f = expr_to_dc(Min(Affine(1.0, (1.0,)), Affine(0.0, (-1.0,))))
    assert evaluate(f, [0.0]) == pytest.approx(0.0)
    assert evaluate(f, [2.0]) == pytest.approx(-2.0)


def test_showcase_expr_matches_tree_eval(rng):
    f = worked_example()

    def direct(x):
        return min(max(abs(x[0]), abs(x[1])), 1 + max(2 * abs(x[0] - 2), abs(x[1] - 2)))

    X = rng.uniform(-5, 5, size=(1000, 2))
    vals = evaluate(f, X)
    for x, v in zip(X, vals):
        assert abs(v - direct(x)) <= 1e-9


def test_random_trees_eval_and_exactness(rng):
    done = 0
    while done < 20:
        d = int(rng.integers(1, 4))
        e = random_expr(rng, int(rng.integers(1, 5)), d)
        try:
            f = expr_to_dc(e, d=d)
        except SizeOverflow:
            continue
        done += 1
        X = rng.normal(size=(100, d)) * 2
        DX = rng.normal(size=(100, d)) * 2
        for x, dx in zip(X, DX):
            fx = evaluate(f, x)
            tol = 1e-9 * (1 + abs(fx))
            assert abs(fx - expr_eval(e, x)) <= tol
            gc = global_codiff(f, x)
            assert abs(gc.expansion(dx) - (evaluate(f, x + dx) - fx)) <= tol


def test_dcform_json_roundtrip_lossless(rng):
    f = worked_example()
    g = DCForm.from_json(f.to_json())
    assert g.plus.tobytes() == f.plus.tobytes()
    assert g.minus.tobytes() == f.minus.tobytes()
    # irrational entries survive the decimal round trip exactly
    h = DCForm(2, rng.normal(size=(3, 3)) / 3.0, rng.normal(size=(2, 3)) * np.pi)
    h2 = DCForm.from_json(h.to_json())
    assert h2.plus.tobytes() == h.plus.tobytes()
    assert h2.minus.tobytes() == h.minus.tobytes()


def test_dcform_validation():
    with pytest.raises(ValueError):
        DCForm(2, np.zeros((0, 3)), np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        DCForm(2, np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        DCForm(0, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(NonFinite, match="plus part"):
        DCForm(1, [[0.0, np.nan]], [[0.0, 0.0]])
