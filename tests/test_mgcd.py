import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codescent import (
    DCForm,
    DimensionMismatch,
    NonFinite,
    Quadratic,
    check_amenable,
    check_global_opt,
    check_inf_stationary,
    check_lipschitz_approx,
    classify_nonnegative,
    evaluate,
    generate_pa,
    global_codiff,
    line_search_pa,
    mcd_run,
    mgcd_run,
    mhd_run,
    pa_global_min,
    project_piece,
    random_start,
    theta_lower_bound,
    worked_example,
)
from codescent import mgcd, minnorm
from codescent.mgcd import LineSearchResult
from conftest import assert_certificate_is_check_global_opts, discard_violations, explicit_step_value, instance_grid

X0 = np.array([2.0, 2.0])
EXACT_PROJ = np.array([-1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0])

ABS_X = DCForm(1, np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([[0.0, 0.0]]))
LINE = DCForm(1, np.array([[0.0, 1.0]]), np.array([[0.0, 0.0]]))  # f(x) = x


# ---------------------------------------------------------------------------
# pointwise primitives


def test_hyper_grad_showcase():
    f = worked_example()
    gc = global_codiff(f, X0)
    assert np.allclose(gc.hyper[0], [1.0, 2.0, 0.0], atol=1e-12)
    # an index attaining the min part has offset zero
    j_active = int(np.argmin(f.minus[:, 0] + f.minus[:, 1:] @ X0))
    assert gc.hyper[j_active, 0] == pytest.approx(0.0, abs=1e-12)
    assert (gc.hyper[:, 0] >= -1e-12).all()


def test_hyper_grad_trivial_min_part(rng):
    for _ in range(5):
        x = rng.normal(size=1) * 3
        assert np.allclose(global_codiff(ABS_X, x).hyper[0], [0.0, 0.0])


def test_project_piece_showcase():
    f = worked_example()
    proj = project_piece(f, X0, 0)
    assert np.allclose(proj, [-0.1111, 0.2222, 0.2222], atol=1e-4)
    assert np.allclose(proj, EXACT_PROJ, atol=1e-9)
    # at the global minimizer every piece projects to a nonnegative offset
    for j in range(8):
        assert project_piece(f, np.zeros(2), j)[0] >= -1e-9
    # a negative index must not wrap around to the last piece
    for j in (-1, 8):
        with pytest.raises(IndexError):
            project_piece(f, X0, j)


def test_project_piece_reads_index_as_int():
    # True is piece 1, as in a list; a float is no index
    f = worked_example()
    assert np.array_equal(project_piece(f, X0, True), project_piece(f, X0, 1))
    assert np.array_equal(project_piece(f, X0, np.int64(1)), project_piece(f, X0, 1))
    with pytest.raises(TypeError):
        project_piece(f, X0, 1.5)


def test_project_piece_abs_at_kink():
    proj = project_piece(ABS_X, [0.0], 0)
    assert np.allclose(proj, [0.0, 0.0], atol=1e-12)


def test_check_global_opt_examples():
    f = worked_example()
    ok, cert = check_global_opt(f, [0.0, 0.0])
    assert ok and cert.is_global
    ok, cert = check_global_opt(f, X0)
    assert not ok
    assert cert.a_values[0] < 0  # witness piece 1
    ok, _ = check_global_opt(ABS_X, [1.0])
    assert not ok


def test_check_inf_stationary_examples():
    f = worked_example()
    assert check_inf_stationary(f, X0)  # local minimum
    assert check_inf_stationary(f, [0.0, 0.0])  # global minimum
    assert not check_inf_stationary(ABS_X, [1.0])


# ---------------------------------------------------------------------------
# exact line search


def test_line_search_abs():
    res = line_search_pa(ABS_X, [5.0], [1.0])
    assert (res.alpha, res.value) == (5.0, 0.0)
    res = line_search_pa(ABS_X, [5.0], [-1.0])
    assert (res.alpha, res.value) == (0.0, 5.0)
    with pytest.raises(ValueError):
        line_search_pa(ABS_X, [5.0], [0.0])


def test_line_search_showcase_ray_through_origin():
    f = worked_example()
    v1 = project_piece(f, X0, 0)[1:]
    res = line_search_pa(f, X0, v1)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(X0 - res.alpha * v1, [0.0, 0.0], atol=1e-9)


def test_line_search_unbounded():
    res = line_search_pa(LINE, [0.0], [1.0])
    assert res.unbounded


def test_line_search_matches_dense_scan(rng):
    f = generate_pa(3, 2, 6, 3)
    for _ in range(20):
        x = rng.normal(size=2) * 3
        direction = rng.normal(size=2)
        res = line_search_pa(f, x, direction)
        alphas = np.linspace(0, 10, 4001)
        dense = min(evaluate(f, x - a * direction) for a in alphas)
        assert res.value <= dense + 1e-9


def all_crossings_scan(f, x, direction):
    """The reference exact line search: ``phi`` evaluated at ``alpha = 0``
    and at every positive crossing of two max lines or of two min lines,
    about (l^2 + s^2) / 2 candidates, through a (candidates x l) matrix."""
    x, direction = np.asarray(x, dtype=float), np.asarray(direction, dtype=float)
    p, q = f.plus[:, 0] + f.plus[:, 1:] @ x, f.plus[:, 1:] @ direction
    r, t = f.minus[:, 0] + f.minus[:, 1:] @ x, f.minus[:, 1:] @ direction
    scale = max(float(np.abs(q).max()), float(np.abs(t).max()))

    def crossings(offsets, slopes):
        i, j = np.triu_indices(offsets.size, 1)
        dq = slopes[i] - slopes[j]
        ok = np.abs(dq) > 1e-15 * scale
        alpha = (offsets[i][ok] - offsets[j][ok]) / dq[ok]
        return alpha[alpha > 0]

    if -float(q.min()) - float(t.max()) < -1e-12 * scale:
        return LineSearchResult(alpha=math.inf, value=-math.inf, unbounded=True)
    cand = np.sort(np.concatenate(([0.0], crossings(p, q), crossings(r, t))))
    vals = np.max(p - np.outer(cand, q), axis=1) + np.min(r - np.outer(cand, t), axis=1)
    best = int(np.argmin(vals))
    return LineSearchResult(alpha=float(cand[best]), value=float(vals[best]))


@st.composite
def line_search_cases(draw):
    """A DCForm with d <= 4, l <= 12, s <= 6, a start and a nonzero
    direction.  Half the cases are integer families whose rows come from
    a few gradients and offsets, so that slopes repeat, rows coincide and
    crossings tie exactly."""
    d, l, s = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        num = st.floats(-10, 10, allow_subnormal=False)
        plus = draw(st.lists(st.lists(num, min_size=d + 1, max_size=d + 1), min_size=l, max_size=l))
        minus = draw(st.lists(st.lists(num, min_size=d + 1, max_size=d + 1), min_size=s, max_size=s))
    else:
        num = st.integers(-3, 3)
        grads = draw(st.lists(st.lists(num, min_size=d, max_size=d), min_size=1, max_size=3))

        def rows(k):
            return [[draw(num), *draw(st.sampled_from(grads))] for _ in range(k)]

        plus, minus = rows(l), rows(s)
    x = draw(st.lists(num, min_size=d, max_size=d))
    # no direction whose norm underflows: its breakpoints can pass the float
    # range; test_line_search_direction_scaling covers such directions
    direction = draw(st.lists(num, min_size=d, max_size=d).filter(lambda v: np.linalg.norm(v) > 0))
    return DCForm(d, plus, minus), np.array(x, dtype=float), np.array(direction, dtype=float)


@settings(max_examples=400, deadline=None)
@given(case=line_search_cases())
def test_line_search_matches_all_crossings_scan(case):
    f, x, direction = case
    res, ref = line_search_pa(f, x, direction), all_crossings_scan(f, x, direction)
    assert res.unbounded == ref.unbounded
    if res.unbounded:
        return
    reach = 1 + np.abs(x).sum() + max(res.alpha, ref.alpha) * np.abs(direction).sum()
    bound = 1e-12 * (np.abs(f.plus).max() + np.abs(f.minus).max()) * reach
    assert res.value == pytest.approx(ref.value, abs=bound)
    assert evaluate(f, x - res.alpha * direction) == pytest.approx(res.value, abs=bound)


def test_line_search_plateau_takes_left_end():
    # f = max(1 - x, 0, x - 3) is 0 on [1, 3]
    f = DCForm(1, [[1, -1], [0, 0], [-3, 1]], [[0, 0]])
    res = line_search_pa(f, [0.0], [-1.0])
    assert (res.alpha, res.value) == (1.0, 0.0)


@pytest.mark.parametrize("k", [-600, -100, 100, 600])
def test_line_search_direction_scaling(k):
    # phi along 2**k * d is phi along d at alpha * 2**k, with every product exact,
    # so the search returns alpha / 2**k bit for bit; at k = -600 the norm of the
    # direction underflows to 0, though the direction is not 0
    plateau = DCForm(1, [[1, -1], [0, 0], [-3, 1]], [[0, 0]])
    forms = [(plateau, [0.0], [-1.0]), (DCForm(1, [[0, 0]], [[0, 0]]), [0.0], [1.0])]
    rng = np.random.default_rng(0)
    for _ in range(30):
        d, l, s = rng.integers(1, 5), rng.integers(1, 13), rng.integers(1, 7)
        rows = [rng.integers(-3, 4, size=(n, d + 1)) for n in (l, s)]
        forms.append((DCForm(d, *rows), rng.integers(-3, 4, size=d), rng.integers(-3, 4, size=d)))
    for f, x, direction in forms:
        direction = np.asarray(direction, dtype=float)
        if not direction.any():
            continue
        ref = line_search_pa(f, x, direction)
        res = line_search_pa(f, x, 2.0**k * direction)
        assert (res.alpha, res.value, res.unbounded) == (ref.alpha / 2.0**k, ref.value, ref.unbounded)


@settings(max_examples=300, deadline=None)
@given(case=line_search_cases(), k=st.integers(-60, 60))
def test_line_search_power_of_two_direction(case, k):
    # the search runs along the direction scaled to a largest |entry| in
    # [0.5, 1), so wherever scaling it by 2**k is exact, alpha scales by 2**-k
    f, x, direction = case
    scaled = np.ldexp(direction, k)
    assume(np.array_equal(np.ldexp(scaled, -k), direction))
    ref, res = line_search_pa(f, x, direction), line_search_pa(f, x, scaled)
    assert (res.alpha, res.value, res.unbounded) == (math.ldexp(ref.alpha, -k), ref.value, ref.unbounded)


def test_line_search_tiny_direction_breakpoints():
    # along (1e-320, 0) the slope gap underflowed and a NaN breakpoint value
    # won the argmin; phi's minimum is at alpha = 0
    f = worked_example()
    assert line_search_pa(f, X0, [1e-320, 0.0]) == LineSearchResult(alpha=0.0, value=1.0)
    # the true step along (1, 0.5) * 2**-1070 lies beyond the float range
    with pytest.raises(NonFinite, match="overflows"):
        line_search_pa(f, X0, np.ldexp([1.0, 0.5], -1070))


def test_line_search_direction_checks():
    # a nonzero direction is accepted however small its norm
    tiny = line_search_pa(DCForm(1, [[0, 0]], [[0, 0]]), [0.0], [6.3e-177])
    assert tiny == LineSearchResult(alpha=0.0, value=0.0)
    with pytest.raises(ValueError, match="nonzero"):
        line_search_pa(LINE, [0.0], [0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFinite):
            line_search_pa(LINE, [0.0], [bad])


def test_line_search_point_checks():
    f = worked_example()
    with pytest.raises(DimensionMismatch):
        line_search_pa(f, [2.0, 2.0, 2.0], [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        line_search_pa(f, [2.0, 2.0], [1.0, 0.0, 0.0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(NonFinite, match="point is not finite"):
            line_search_pa(f, bad, [1.0, 0.0])
    # a finite x where f(x) = phi(0) overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite, match="not finite"):
        line_search_pa(f, [1e308, 1e308], [1.0, 0.0])


ONE_POINT = {
    "global_codiff": global_codiff,
    "project_piece": lambda f, x: project_piece(f, x, 0),
    "check_global_opt": check_global_opt,
    "check_inf_stationary": check_inf_stationary,
    "mgcd_run": mgcd_run,
    "mcd_run": mcd_run,
    "line_search_pa": lambda f, x: line_search_pa(f, x, [1.0, 0.0]),
}


@pytest.mark.parametrize("call", ONE_POINT.values(), ids=ONE_POINT.keys())
def test_one_point_functions_reject_batches(call):
    # evaluate takes a batch of points; a function of one point does not
    f = worked_example()
    for x in ([[2.0, 2.0]], [[2.0, 2.0], [0.0, 0.0]]):
        with pytest.raises(DimensionMismatch, match=r"point has shape \("):
            call(f, x)


def test_runs_reject_scalar_start():
    # a start in R^1 is a (1,) point, as for global_codiff; a scalar is not one
    with pytest.raises(DimensionMismatch, match=r"point has shape \(\)"):
        mgcd_run(ABS_X, 3.0)
    with pytest.raises(DimensionMismatch, match=r"point has shape \(\)"):
        mcd_run(ABS_X, 3.0)
    with pytest.raises(DimensionMismatch, match=r"point has shape \(\)"):
        mhd_run(Quadratic(np.array([[2.0]]), np.zeros(1)), 3.0)


def test_line_search_single_rows():
    # no breakpoints: phi is affine, so alpha = 0 or a ray
    f = DCForm(1, [[2, 2]], [[-1, -1]])  # f = 1 + x
    assert line_search_pa(f, [3.0], [-1.0]) == LineSearchResult(alpha=0.0, value=4.0)
    assert line_search_pa(f, [3.0], [1.0]).unbounded
    flat = DCForm(1, [[2, 1]], [[-1, -1]])  # f = 1
    assert line_search_pa(flat, [3.0], [1.0]) == LineSearchResult(alpha=0.0, value=1.0)


def test_line_search_direction_orthogonal_to_min_part():
    # f = |x_1| + min(x_2 - 1, 1 - x_2); along (1, 0) every t_j = 0
    f = DCForm(2, [[0, 1, 0], [0, -1, 0]], [[-1, 0, 1], [1, 0, -1]])
    res = line_search_pa(f, [3.0, 0.0], [1.0, 0.0])
    assert (res.alpha, res.value) == (3.0, -1.0)


def test_line_search_lines_cross_at_zero():
    # f = max(2x, -2x) + min(x, -x) = |x|; both families cross at alpha = 0
    f = DCForm(1, [[0, 2], [0, -2]], [[0, 1], [0, -1]])
    for direction in (-1.0, 1.0):
        assert line_search_pa(f, [0.0], [direction]) == LineSearchResult(alpha=0.0, value=0.0)


def test_line_search_near_parallel_slopes_no_far_step():
    # max-part slopes g and g (1 + eps) are parallel up to rounding; they
    # cross at alpha ~ 1e16, where phi's rounding error is about 1
    g, x = 0.213643, [-0.37760500712699807]
    f = DCForm(1, [[0.21732193, g], [2.11783876, g * (1 + np.finfo(float).eps)]], [[-1.11202076, -g]])
    res = line_search_pa(f, x, [1.0])
    assert (res.alpha, res.value) == (0.0, evaluate(f, x))


def test_line_search_memory_top_rung():
    # the (20, 400, 40) top rung, drawn directly: generate_pa cannot draw d = 20
    rng = np.random.default_rng(0)
    top_rung = DCForm(20, rng.normal(size=(400, 21)), rng.normal(size=(40, 21)))
    # 4,000 tangents of t^2 at t in (0, 1]: every line is on the envelope,
    # so there are 3,999 breakpoints
    t = np.arange(1, 4001) / 4000
    tangents = DCForm(1, np.column_stack([-t * t, 2 * t]), [[0.0, 0.0]])
    cases = ((top_rung, rng.normal(size=20), rng.normal(size=20)), (tangents, [0.0], [-1.0]))
    for f, x, direction in cases:
        tracemalloc.start()
        try:
            line_search_pa(f, x, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


# ---------------------------------------------------------------------------
# MGCD


def test_mgcd_showcase_single_step():
    run = mgcd_run(worked_example(), X0)
    assert run.status == "global_min"
    assert run.n_steps == 1
    assert np.allclose(run.final_x, [0.0, 0.0], atol=1e-9)
    assert run.certificate.is_global
    assert run.records[0].chosen_j == 0


def test_mgcd_zero_steps_at_optimum():
    run = mgcd_run(worked_example(), [0.0, 0.0])
    assert run.status == "global_min"
    assert run.n_steps == 0
    # every index is discarded in the first pass
    assert sorted(j for _, j in run.discard_log) == list(range(8))
    assert all(it == 0 for it, _ in run.discard_log)


def test_mgcd_unbounded_line():
    run = mgcd_run(LINE, [0.0])
    assert run.status == "unbounded_below"
    assert np.allclose(run.ray, [-1.0])
    assert not pa_global_min(LINE).bounded
    vals = [evaluate(LINE, run.final_x + a * run.ray) for a in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2]


def test_mgcd_unbounded_tilted_2d():
    # max part slopes all point one way: unbounded along the common descent ray
    f = DCForm(
        2,
        np.array([[0.0, 1.0, 0.5], [1.0, 1.0, -0.5]]),
        np.array([[0.0, 0.5, 0.0], [2.0, 0.0, 0.0]]),
    )
    run = mgcd_run(f, [0.0, 0.0])
    assert run.status == "unbounded_below"
    assert not pa_global_min(f).bounded
    vals = [evaluate(f, run.final_x + a * run.ray) for a in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2]


# f = min(0, 1 + x) is unbounded below along -1, yet at x0 = 0 the piece
# 1 + x projects to (a_j, v_j) = (1, 1), which the discard test accepts
MIN_ZERO_SHIFTED_LINE = DCForm(1, [[0, 0]], [[0, 0], [1, 1]])


@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_unbounded_despite_positive_offset(method):
    run = method(MIN_ZERO_SHIFTED_LINE, [0.0])
    assert run.status == "unbounded_below"
    assert np.allclose(run.ray, [-1.0])
    assert not pa_global_min(MIN_ZERO_SHIFTED_LINE).bounded


def test_check_global_opt_unbounded():
    ok, cert = check_global_opt(MIN_ZERO_SHIFTED_LINE, [0.0])
    assert not ok and not cert.is_global
    assert min(cert.a_values) >= 0.0  # every offset alone would pass
    assert np.allclose(cert.ray, [-1.0])


def test_unbounded_ray_of_a_later_piece_in_a_stack():
    # s pieces, one stacked projection, on either side of the cut-over: only
    # the gradient hull of the piece before the last, the square [-1, 1]^2
    # shifted by (3, 0.5), misses the origin; without it every hull holds it
    from codescent import minnorm
    from codescent.mgcd import _unbounded_ray

    rng = np.random.default_rng(12)
    square = [[0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0], [0.0, -1.0, -1.0]]
    inner = np.column_stack((rng.normal(size=6), rng.uniform(-0.9, 0.9, (6, 2))))
    plus = np.vstack([square, inner])
    for s in (minnorm.STACK_MIN - 1, minnorm.STACK_MIN):
        minus = np.column_stack((rng.normal(size=s), rng.uniform(-0.5, 0.5, (s, 2))))
        assert _unbounded_ray(DCForm(2, plus, minus)) is None
        minus[s - 2, 1:] = [3.0, 0.5]
        f = DCForm(2, plus, minus)
        G = f.plus[:, 1:] + f.minus[s - 2, 1:]
        u, _ = minnorm.min_norm_point(G)  # the per-hull loop's projection
        bound = (G.shape[1] + 2) * np.finfo(float).eps * (np.abs(G) @ np.abs(u))
        assert np.all(G @ u > bound)
        ray = _unbounded_ray(f)
        assert np.allclose(ray, -u / np.linalg.norm(u), rtol=0, atol=1e-12)
        assert np.allclose(ray, -np.array([2.0, 0.0]) / 2.0, rtol=0, atol=1e-12)
        ok, cert = check_global_opt(f, [0.0, 0.0])
        assert not ok and np.array_equal(cert.ray, ray)


@pytest.fixture(scope="module")
def cycling_instance():
    # both methods meet a corral here whose entering vertex a Gram-matrix
    # solve weights at 0, on which Wolfe's method cycled
    f = generate_pa(7, 10, 80, 20)
    return f, pa_global_min(f).value


@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_cycling_hull_instance_reaches_global(method, cycling_instance):
    f, fstar = cycling_instance
    run = method(f, random_start(7, 10), max_iter=100_000)
    assert run.status == "global_min"
    assert run.final_f == pytest.approx(fstar, abs=1e-6)


@pytest.mark.parametrize("k", [-6, *range(2, 7)])
@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_scaled_instance_certified(method, k):
    c = 10.0**k
    f = generate_pa(42, 3, 8, 4, scale=c)
    run = method(f, [1.0, 2.0, -1.0], max_iter=100_000)
    assert run.status == "global_min"
    assert run.final_f / c == pytest.approx(-4.2, abs=1e-6)
    assert_certificate_is_check_global_opts(f, run)


@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_no_false_certificate_far_from_data(method):
    # the default tol is 1e-9 times the offsets where it is read: 8e-3 at
    # (1e6, 1e6), and 8e-3 and 1.6e-3 at the final points where MGCD
    # certified f = 4,999,995 and MCD f = 1,000,006 while a_j >= -tol was the
    # settled rule; there a_0 is -2.5e-6 and -1.25e-5 with ||v_0|| = 3.5, a
    # guaranteed decrease ||p_0||^2 / |a_0| of 5e6 and 1e6, so the piece is
    # not settled now, and both runs reach the minimum
    f = generate_pa(0, 2, 4, 1)
    fstar = pa_global_min(f).value  # 6.5
    run = method(f, [1e6, 1e6])
    assert not (run.status == "global_min" and run.final_f > fstar + 1)


@pytest.mark.xfail(strict=True, reason="a piece 1e-4 below zero guarantees a decrease of 1e-4 < tol, so it is settled (ROADMAP item 1)")
@pytest.mark.parametrize("certify", [mgcd_run, mcd_run, check_global_opt])
def test_no_false_certificate_near_data(certify):
    # f(x) = max(x, -1e-4 + 1e-8 x, -1e6) is -1e6 from about x = -1e14 down;
    # at x = 0 the default tol is 1e-9 times the far row's offset, 1e-3, and
    # the minimum-norm point is about (-1e-4, 1e-8), so all three certify
    # f = 0.  pa_global_min reports -999,999.9939 (ROADMAP item 7), so the
    # reference is the analytic minimum
    f = DCForm(1, [[0, 1], [-1e-4, 1e-8], [-1e6, 0]], [[0, 0]])
    if certify is check_global_opt:
        certified, value = certify(f, [0.0])[0], evaluate(f, [0.0])
    else:
        run = certify(f, [0.0])
        certified, value = run.status == "global_min", run.final_f
    assert not (certified and value > -1e6 + 1)


@pytest.mark.xfail(strict=True, reason="tol = 0 reads rounding as descent (ROADMAP item 2)")
@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_zero_tol_certifies_worked_example(method):
    # a valid tol of 0: MGCD's step lands at (8.9e-16, 8.9e-16), where some
    # a_j is a few ulps below 0 and its best step does not lower f, so it
    # stops undecided after 1 step; MCD with mu = inf stops at the minimum
    # with inf_stationary, a status meant for a finite mu
    run = method(worked_example(), [2.0, 2.0], tol=0.0)
    assert run.status == "global_min"


# ---------------------------------------------------------------------------
# whole runs do not depend on units, piece order or the origin of x

GRID = list(instance_grid())


def _same_run(run, ref, f, c=1.0):
    """``run`` on ``f`` reaches ``ref``'s status and value times ``c``, at a
    point that attains the oracle's minimum.  The argmin itself may differ
    where the minimum is attained at more than one point."""
    assert run.status == ref.status == "global_min"
    assert run.final_f / c == pytest.approx(ref.final_f, rel=1e-6, abs=1e-9)
    assert run.final_f / c == pytest.approx(pa_global_min(f).value / c, rel=1e-6, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(GRID), e=st.floats(-6, 6), method=st.sampled_from([mgcd_run, mcd_run]))
def test_run_scale_invariance(case, e, method):
    d, l, s, seed = case
    f, c = generate_pa(seed, d, l, s), 10.0**e
    scaled = DCForm(d, c * f.plus, c * f.minus)
    x0 = random_start(seed, d)
    _same_run(method(scaled, x0, max_iter=100_000), method(f, x0, max_iter=100_000), scaled, c)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(GRID), data=st.data(), method=st.sampled_from([mgcd_run, mcd_run]))
def test_run_permutation_invariance(case, data, method):
    d, l, s, seed = case
    f = generate_pa(seed, d, l, s)
    plus = f.plus[data.draw(st.permutations(range(l)))]
    minus = f.minus[data.draw(st.permutations(range(s)))]
    permuted = DCForm(d, plus, minus)
    x0 = random_start(seed, d)
    _same_run(method(permuted, x0, max_iter=100_000), method(f, x0, max_iter=100_000), permuted)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(GRID), data=st.data(), method=st.sampled_from([mgcd_run, mcd_run]))
def test_run_translation_invariance(case, data, method):
    d, l, s, seed = case
    f = generate_pa(seed, d, l, s)
    t = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=d, max_size=d)))
    # g(x) = f(x - t), run from x0 + t
    plus, minus = f.plus.copy(), f.minus.copy()
    plus[:, 0] -= f.plus[:, 1:] @ t
    minus[:, 0] -= f.minus[:, 1:] @ t
    moved = DCForm(d, plus, minus)
    x0 = random_start(seed, d)
    _same_run(method(moved, x0 + t, max_iter=100_000), method(f, x0, max_iter=100_000), moved)


@pytest.fixture(scope="module")
def rung_minimum():
    return pa_global_min(generate_pa(0, 10, 80, 20)).value


@pytest.mark.parametrize("c", [1e-6, 1e3, 1e6])
def test_ladder_rung_certified_at_any_scale(c, rung_minimum):
    # the oracle pivots with fixed tolerances and the runs read offsets
    # against tol; neither may depend on c (at c = 1e6 an oracle that did
    # not scale its data gave -0.128 c against a minimum of -0.727 c)
    f = generate_pa(0, 10, 80, 20, scale=c)
    assert pa_global_min(f).value / c == pytest.approx(rung_minimum, rel=1e-9)
    for method in (mgcd_run, mcd_run):
        run = method(f, np.zeros(10), max_iter=100_000)
        assert run.status == "global_min"
        assert run.final_f / c == pytest.approx(rung_minimum, rel=1e-9)


def _far_start(seed, d, k):
    """``random_start(seed, d)`` moved ``10**k`` further out along itself."""
    x0 = random_start(seed, d)
    return x0 + 10.0**k * x0 / np.linalg.norm(x0)


def test_mgcd_status_follows_its_certificate():
    # from 1e4 out, MGCD steps 4 times on its one piece to f = -4.3999997
    # (the minimum is -4.4); there a_0 = -3.4e-7 and ||p_0||^2 / |a_0| is
    # above tol = 5e-9, so the piece is not settled and its own certificate
    # does not hold, but its step, whose v_0 is rounding, does not lower f
    f = generate_pa(4845, 4, 8, 1)
    run = mgcd_run(f, _far_start(4845, 4, 4))
    assert run.n_steps == 4 and run.final_f > pa_global_min(f).value + 3e-7
    assert not run.certificate.is_global
    assert run.status == "undecided"


def test_mgcd_strict_decay_inequality():
    for d, l, s, seed in instance_grid(3):
        f = generate_pa(seed, d, l, s)
        x0 = random_start(seed, d)
        run = mgcd_run(f, x0)
        assert run.status == "global_min"
        tol = 1e-9 * max(1.0, abs(evaluate(f, x0)))
        for rec, nxt in zip(run.records, run.records[1:]):
            if rec.chosen_j is None:
                continue
            a, v = rec.projections[rec.chosen_j][0], rec.projections[rec.chosen_j][1:]
            decay = abs(a) + float(v @ v) / abs(a)
            assert nxt.f <= rec.f - decay + 10 * tol


def test_mgcd_discard_persistence_and_termination_bound():
    for d, l, s, seed in instance_grid(3):
        f = generate_pa(seed, d, l, s)
        x0 = random_start(seed, d)
        run = mgcd_run(f, x0, max_iter=100000)
        assert run.status == "global_min"
        assert discard_violations(f, run) == []
        js = [j for _, j in run.discard_log]
        assert sorted(js) == list(range(s))  # each index discarded exactly once
        fstar = pa_global_min(f).value
        theta = theta_lower_bound(d)
        bound = 10 * s * (math.ceil((evaluate(f, x0) - fstar) / min(theta, 1.0)) + 1)
        assert run.n_steps < bound


def test_mgcd_certificate_oracle_soundness():
    for d, l, s, seed in list(instance_grid(3))[::5]:
        f = generate_pa(seed, d, l, s)
        run = mgcd_run(f, random_start(seed, d))
        assert run.status == "global_min"
        assert abs(run.final_f - pa_global_min(f).value) <= 1e-6


def test_mgcd_iter_limit_status():
    f = worked_example()
    run = mgcd_run(f, X0, max_iter=0)
    assert run.status == "iter_limit"


STATUS_RUNS = {
    "global_min": [(mgcd_run, worked_example(), X0, {}), (mcd_run, worked_example(), X0, {})],
    "undecided": [(mgcd_run, generate_pa(4845, 4, 8, 1), _far_start(4845, 4, 4), {})],
    "inf_stationary": [(mcd_run, worked_example(), X0, {"tol": 0.0})],
    "unbounded_below": [(m, MIN_ZERO_SHIFTED_LINE, [0.0], {}) for m in (mgcd_run, mcd_run)],
    "iter_limit": [(m, worked_example(), X0, {"max_iter": 0}) for m in (mgcd_run, mcd_run)],
}


@pytest.mark.parametrize("status", STATUS_RUNS)
def test_status_contract(status):
    # each status comes with exactly the certificate and ray its row promises
    for method, f, x0, kwargs in STATUS_RUNS[status]:
        run = method(f, x0, **kwargs)
        assert run.status == status
        cert = run.certificate
        if status == "unbounded_below":
            assert cert is None and np.linalg.norm(run.ray) == pytest.approx(1.0)
        elif status == "iter_limit":
            assert cert is None and run.ray is None and run.n_steps == kwargs["max_iter"]
        else:
            assert run.ray is None and cert.ray is None
            assert cert.is_global == (status == "global_min")
            assert np.array_equal(cert.point, run.final_x)


# ---------------------------------------------------------------------------
# MCD


def test_mcd_showcase_reaches_global():
    run = mcd_run(worked_example(), X0)
    assert run.status == "global_min"
    assert np.allclose(run.final_x, [0.0, 0.0], atol=1e-9)
    assert run.final_f == pytest.approx(0.0, abs=1e-12)


def test_mcd_mu_zero_stalls_at_local_min():
    f = worked_example()
    run = mcd_run(f, X0, mu=0.0)
    assert run.status == "inf_stationary"
    assert np.allclose(run.final_x, X0)
    assert check_inf_stationary(f, run.final_x)
    assert not run.certificate.is_global


def test_mcd_convex_reduces_to_hypodifferential_descent(rng):
    f = generate_pa(31, 3, 7, 1)
    convex = DCForm(f.d, f.plus, np.array([[0.0, 0.0, 0.0, 0.0]]))
    run = mcd_run(convex, rng.normal(size=3) * 3)
    assert run.status == "global_min"
    assert abs(run.final_f - pa_global_min(convex).value) <= 1e-8


def test_mcd_unbounded_line():
    run = mcd_run(LINE, [0.0])
    assert run.status == "unbounded_below"
    assert np.allclose(run.ray, [-1.0])


def test_mcd_line_search_unbounded_exit(monkeypatch):
    # _unbounded_ray ends every unbounded run before its first step, so the line
    # search's own unbounded exit is reached only with the check stubbed out.
    # The stub also shows that check to be the one real guard: without it MCD
    # claims global_min on about two in three small unbounded integer DCForms,
    # where no candidate descends, so the step certifies x with no line search.
    f = DCForm(1, [[0, -3], [-1, 0], [-1, -1]], [[-3, -3]])
    assert np.array_equal(mgcd._unbounded_ray(f), [1.0])
    monkeypatch.setattr(mgcd, "_unbounded_ray", lambda f: None)
    run = mcd_run(f, [-3.0])
    assert run.status == "unbounded_below"
    assert np.array_equal(run.ray, [1.0])
    assert run.n_steps == 0 and run.certificate is None


def test_mcd_dominates_explicit_step():
    for d, l, s, seed in instance_grid(3):
        f = generate_pa(seed, d, l, s)
        x0 = random_start(seed, d)
        run = mcd_run(f, x0, max_iter=10000)
        assert run.status == "global_min"
        ok, _ = check_global_opt(f, run.final_x)
        assert ok
        assert abs(run.final_f - pa_global_min(f).value) <= 1e-6
        for rec, nxt in zip(run.records, run.records[1:]):
            trial = explicit_step_value(f, rec, run.certificate.tol)
            if trial is not None:
                assert nxt.f <= trial + 1e-9 * max(1.0, abs(rec.f))


# ---------------------------------------------------------------------------
# certificates reuse the run's last projections


def test_mgcd_certificate_matches_check_global_opt():
    for d, l, s, seed in instance_grid(3):
        f = generate_pa(seed, d, l, s)
        run = mgcd_run(f, random_start(seed, d))
        _, cert = check_global_opt(f, run.final_x)
        assert np.allclose(run.certificate.a_values, cert.a_values, rtol=0.0, atol=1e-12)
        assert_certificate_is_check_global_opts(f, run)


@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
@pytest.mark.parametrize("d, l, s", [(6, 40, 8), (10, 80, 20)])
def test_run_certificate_is_check_global_opts(d, l, s, method):
    # from STACK_MIN pieces on the lockstep loop projects them; the run's
    # last anchor and check_global_opt project the same stack in one call
    assert s >= minnorm.STACK_MIN
    f = generate_pa(0, d, l, s)
    run = method(f, random_start(0, d))
    assert run.status == "global_min"
    assert np.array_equal(run.certificate.a_values, check_global_opt(f, run.final_x)[1].a_values)
    assert_certificate_is_check_global_opts(f, run)


@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_worked_example_certificate_is_check_global_opts(method):
    # a tol derived at (2, 2), 4e-9, was carried to the minimum, where
    # check_global_opt derives 8e-9
    assert_certificate_is_check_global_opts(worked_example(), method(worked_example(), X0))


@pytest.fixture(scope="module")
def grid_minima():
    return {(d, l, s, seed): pa_global_min(generate_pa(seed, d, l, s)).value for d, l, s, seed in GRID}


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_far_start_certificate_is_check_global_opts(k, grid_minima):
    # started 10**k from x0 along x0, runs that carried x0's tol to every
    # anchor claimed global_min above the minimum (8 MGCD runs at k = 3, 13
    # MGCD and 1 MCD at k = 4) at points where check_global_opt, reading the
    # same projections at its own tol, rejects them; with a_j >= -tol as the
    # settled rule, 200 MGCD and 169 MCD runs claimed it at k = 5, and 200
    # and 199 at k = 6, most of them at x0 after 0 steps
    for (d, l, s, seed), fstar in grid_minima.items():
        f = generate_pa(seed, d, l, s)
        for method in (mgcd_run, mcd_run):
            run = method(f, _far_start(seed, d, k))
            assert run.status != "iter_limit"
            assert not (run.status == "global_min" and run.final_f > fstar + 1e-6 * max(1.0, abs(fstar)))
            assert_certificate_is_check_global_opts(f, run)


ITEM_1 = pytest.mark.xfail(strict=True, reason="a decrease guarantee of at most tol is not a proof (ROADMAP item 1)")


@pytest.mark.parametrize("tol", [0.1, pytest.param(0.5, marks=ITEM_1), 1.0, pytest.param(2.5, marks=ITEM_1)])
def test_no_false_certificate_at_explicit_tol(tol, grid_minima):
    # with a_j >= -tol as the settled rule, MGCD and MCD claimed global_min
    # above f* + tol on 3 and 3 of these runs at tol 0.1, 55 and 49 at 0.5,
    # 97 and 66 at 1.0, and 193 and 186 at 2.5; 1 and 1 remain at 0.5, and
    # 5 and 5 at 2.5
    for (d, l, s, seed), fstar in grid_minima.items():
        f, x0 = generate_pa(seed, d, l, s), random_start(seed, d)
        for method in (mgcd_run, mcd_run):
            run = method(f, x0, tol=tol)
            assert not (run.status == "global_min" and run.final_f > fstar + tol)


def test_settled_rule():
    # decreases ||p||^2 / |a| of 1e5, 1 and 4; a_j >= -tol read the first as
    # settled at tol 1
    rows = np.array([[-1e-5, 1.0, 0.0], [-0.5, 0.5, 0.0], [0.0, 3.0, 1.0], [-4.0, 0.0, 0.0]])
    for k in (0, -537, -1000, 500):  # squares of the rows underflow at 2**-1000
        c = 2.0**k
        assert mgcd._settled(c * rows, c).tolist() == [False, True, True, False]
        assert mgcd._settled(c * rows, 0.0).tolist() == [False, False, True, False]
    assert not mgcd._settled(np.array([[-5e-324, 0.0]]), 0.0)[0]
    # rounding: ||p|| is 5e-8 tol, though its "step" guarantees 4.6e5 tol
    assert mgcd._settled(np.array([[-4.47e-29, 0.0, 0.0, 0.0, 4.44e-16]]), 9.5e-9)[0]


def test_rounding_row_does_not_block_the_certificate():
    # at the minimum of this permuted grid instance MCD's projection of one
    # piece is (-4.5e-29, 0, 0, 0, 4.4e-16), rounding of a hull that holds the
    # origin; read as a step of length 1e13 that lowers f by 4.4e-3, it left
    # the run inf_stationary at the minimum
    f = generate_pa(605067, 4, 10, 3)
    permuted = DCForm(4, f.plus[[0, 1, 7, 3, 4, 5, 6, 2, 8, 9]], f.minus)
    run = mcd_run(permuted, random_start(605067, 4))
    assert run.status == "global_min"
    assert run.final_f == pytest.approx(pa_global_min(permuted).value, abs=1e-9)


@pytest.mark.parametrize("method", [mgcd_run, mcd_run])
def test_project_piece_is_the_runs_projection(method):
    # from STACK_MIN pieces on the lockstep loop projects the stack, and
    # project_piece reads its row, not a hull-by-hull projection
    d, l, s = 6, 40, minnorm.STACK_MIN
    f = generate_pa(0, d, l, s)
    run = method(f, random_start(0, d))
    assert run.status == "global_min"
    for rec in run.records:
        for j, p in rec.projections.items():
            assert project_piece(f, rec.x, j).tobytes() == p.tobytes()


def test_one_projection_call_per_anchor(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return minnorm.min_norm_point(*args, **kwargs)

    monkeypatch.setattr(mgcd, "min_norm_point", counted)
    f = worked_example()
    for method in (mgcd_run, mcd_run):
        calls.clear()
        run = method(f, X0)
        # the ray check, then one call at (2, 2) and one at the minimum
        assert run.status == "global_min" and run.n_steps == 1
        assert len(calls) == 3
    calls.clear()
    check_global_opt(f, X0)
    assert len(calls) == 2
    for method in (mgcd_run, mcd_run):
        calls.clear()
        assert method(LINE, [0.0]).status == "unbounded_below"
        assert len(calls) == 1


def test_mcd_inf_stationary_certificate_matches_check_global_opt():
    f = worked_example()
    run = mcd_run(f, X0, mu=0.0)
    assert run.status == "inf_stationary"
    _, cert = check_global_opt(f, run.final_x)
    assert np.allclose(run.certificate.a_values, cert.a_values, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_global_run_json_roundtrip():
    f = worked_example()
    run = mgcd_run(f, X0)
    data = json.loads(json.dumps(run.to_dict()))
    assert data["status"] == "global_min"
    for rec in data["records"]:
        assert evaluate(f, np.array(rec["x"])) == pytest.approx(rec["f"], abs=1e-12)
    assert data["certificate"]["is_global"]
    assert [tuple(t) for t in data["discard_log"]] == run.discard_log


RUN_KEYS = {"method", "status", "iterates", "records", "discard_log", "certificate", "ray"}
RECORD_KEYS = {"n", "x", "f", "projections", "discarded", "chosen_j", "alpha"}
CERT_KEYS = {"point", "points", "a_values", "tol", "is_global", "ray"}


@pytest.mark.parametrize(
    "method, discard_log, discarded, alpha, a_values, tol",
    [
        (
            mgcd_run,
            [[0, 1], [0, 3], [0, 4], [0, 5], [0, 6], [0, 7], [1, 0], [1, 2]],
            [[1, 3, 4, 5, 6, 7], [0, 2]],
            None,
            [0, 0, 0, 0, 0, 1 / 9, 0, 1 / 9],
            7.999999999999999e-09,
        ),
        (mcd_run, [], [[], []], 9.0, [0, 0, 0, 0, 0, 1 / 9, 0, 1 / 9], 8e-09),
    ],
    ids=["mgcd", "mcd"],
)
def test_global_run_json_pinned(method, discard_log, discarded, alpha, a_values, tol):
    data = json.loads(json.dumps(method(worked_example(), X0).to_dict()))
    assert set(data) == RUN_KEYS
    assert (data["method"], data["status"], data["ray"]) == (method.__name__[:-4], "global_min", None)
    assert np.allclose(data["iterates"], [[2.0, 2.0], [0.0, 0.0]], rtol=0.0, atol=1e-12)
    assert data["discard_log"] == discard_log

    first, last = data["records"]
    assert set(first) == set(last) == RECORD_KEYS
    assert [first["n"], last["n"]] == [0, 1]
    assert [first["discarded"], last["discarded"]] == discarded
    assert (first["chosen_j"], last["chosen_j"], last["alpha"]) == (0, None, None)
    assert first["alpha"] == (None if alpha is None else pytest.approx(alpha, abs=1e-12))
    assert first["f"] == 1.0 and last["f"] == pytest.approx(0.0, abs=1e-12)
    assert sorted(first["projections"]) == [str(j) for j in range(8)]
    assert np.allclose(first["projections"]["0"], EXACT_PROJ, rtol=0.0, atol=1e-12)

    cert = data["certificate"]
    assert set(cert) == CERT_KEYS
    # 1e-9 times the data scale at the final point, the largest |offset| of
    # its codifferential (8, less a rounding ulp on MGCD's explicit step)
    assert (cert["tol"], cert["is_global"], cert["ray"]) == (tol, True, None)
    assert np.allclose(cert["point"], [0.0, 0.0], rtol=0.0, atol=1e-12)
    assert np.allclose(cert["a_values"], a_values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("runner", [mgcd_run, mcd_run])
def test_negative_max_iter_rejected(runner):
    # range(max_iter + 1) would be empty and the run would return None
    with pytest.raises(ValueError, match="max_iter must be >= 0"):
        runner(worked_example(), X0, max_iter=-1)
    assert runner(worked_example(), X0, max_iter=0).status == "iter_limit"


@pytest.mark.parametrize("runner", [mgcd_run, mcd_run])
def test_non_integer_max_iter_rejected_before_any_projection(runner, monkeypatch):
    def no_projection(*args, **kwargs):
        raise AssertionError("projected before max_iter was read")

    monkeypatch.setattr(mgcd, "min_norm_point", no_projection)
    with pytest.raises(TypeError):
        runner(worked_example(), X0, max_iter=2.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_invalid_tol_rejected(tol):
    # an infinite or NaN tol accepts every offset, a negative one none
    f = worked_example()
    q = Quadratic(np.array([[2.0]]), np.zeros(1))
    for check in (
        mgcd_run,
        mcd_run,
        check_global_opt,
        check_inf_stationary,
        lambda f, x, tol: classify_nonnegative(f.plus, tol=tol),
        lambda f, x, tol: check_amenable(q, x, x, tol=tol),
        lambda f, x, tol: check_lipschitz_approx(q, 2.0, [x], tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check(f, X0, tol=tol)
    assert check_global_opt(f, [0.0, 0.0], tol=1e-12)[0]
    assert not check_global_opt(f, X0, tol=0.0)[0]  # 0 is valid


def test_invalid_mu_rejected():
    for mu in (math.nan, -1.0):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            mcd_run(worked_example(), X0, mu=mu)
    assert mcd_run(worked_example(), X0, mu=math.inf).status == "global_min"
