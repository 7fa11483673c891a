import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codescent import (
    ConvexCombination,
    ConvexPAView,
    DCForm,
    DimensionMismatch,
    MaxOf,
    NonFinite,
    Quadratic,
    SizeOverflow,
    SmoothConvex,
    check_amenable,
    codiff_sum,
    check_lipschitz_approx,
    evaluate,
    global_codiff,
    linear,
    worked_example,
)
from codescent.pa import _merge_duplicates


def fd_gradient(fn, x, step=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn(x + e) - fn(x - e)) / (2 * step)
    return g


def sq_half():  # ||x||^2 / 2 on R^2
    return Quadratic(np.eye(2), np.zeros(2))


def x_squared():  # x^2 on R
    return Quadratic(np.array([[2.0]]), np.zeros(1))


# ---------------------------------------------------------------------------
# calculus at a point


def test_hypo_smooth_examples():
    assert np.allclose(sq_half().hypodiff([1.0, 2.0]), [[0.0, 1.0, 2.0]])
    c = np.array([3.0, -1.0])
    assert np.allclose(linear(c).hypodiff([9.0, 9.0]), [[0.0, 3.0, -1.0]])
    assert np.allclose(x_squared().hypodiff([3.0]), [[0.0, 6.0]])


def test_hypo_sum_examples():
    f = x_squared()
    one = ConvexCombination([(1.0, f)]).hypodiff([2.0])
    assert np.allclose(one, f.hypodiff([2.0]))
    both = ConvexCombination([(1.0, x_squared()), (1.0, linear(np.array([1.0])))]).hypodiff([2.0])
    assert np.allclose(both, [[0.0, 5.0]])
    scaled = ConvexCombination([(2.0, f), (0.0, linear(np.array([7.0])))]).hypodiff([2.0])
    assert np.allclose(scaled, [[0.0, 8.0]])
    with pytest.raises(ValueError):
        ConvexCombination([(-1.0, f)])
    with pytest.raises(ValueError, match="need at least one term"):
        ConvexCombination([])
    with pytest.raises(DimensionMismatch):
        ConvexCombination([(1.0, f), (1.0, sq_half())])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(2, 4))
def test_combination_is_codiff_sums_fold(data, d, n):
    # one Minkowski fold for both calculi: a combination's hypodifferential is
    # codiff_sum's max part of the weighted hypodifferentials, from the zero row
    ints = st.integers(-3, 3)

    def quadratic():
        A = np.array(data.draw(st.lists(ints, min_size=d * d, max_size=d * d)), float).reshape(d, d)
        return Quadratic(A @ A.T, data.draw(st.lists(ints, min_size=d, max_size=d)))

    def term():
        if data.draw(st.booleans()):
            return quadratic()
        qs = [quadratic() for _ in range(data.draw(st.integers(1, 2)))]
        return MaxOf(qs + qs[: data.draw(st.integers(0, len(qs)))])  # repeats give coincident vertices

    terms = [(data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])), term()) for _ in range(n)]
    x = np.array(data.draw(st.lists(ints, min_size=d, max_size=d)), float)
    fx, H = ConvexCombination(terms).value_and_hypodiff(x)
    zero = np.zeros((1, d + 1))
    forms = [DCForm(d, w * f.value_and_hypodiff(x)[1], zero) for w, f in terms]
    plus = codiff_sum([DCForm(d, zero, zero), *forms]).plus
    assert H.shape == plus.shape and H.tobytes() == plus.tobytes()
    assert fx == ConvexCombination(terms).value(x)


def test_hypo_max_affine_pair():
    out = MaxOf([linear(np.array([1.0])), linear(np.array([-1.0]))]).hypodiff([1.0])
    assert np.allclose(out, [[0.0, 1.0], [-2.0, -1.0]])


def test_hypo_max_single_child_unchanged():
    f = x_squared()
    assert np.allclose(MaxOf([f]).hypodiff([3.0]), f.hypodiff([3.0]))
    with pytest.raises(ValueError, match="need at least one child"):
        MaxOf([])
    with pytest.raises(DimensionMismatch):
        MaxOf([f, sq_half()])


def two_pass_hypo_max(children, x):
    """Reference: every child's value, then every child's hypodiff, shifted."""
    x = np.asarray(x, dtype=float)
    vals = [f.value(x) for f in children]
    u = max(vals)
    blocks = []
    for f, fi in zip(children, vals):
        part = f.hypodiff(x).copy()
        part[:, 0] += fi - u
        blocks.append(part)
    return np.vstack(blocks)


def hypo_sum_reference(terms, x):
    """Reference: the Minkowski sum of the scaled child hypodiffs, merged once."""
    x = np.asarray(x, dtype=float)
    out = None
    for w, f in terms:
        part = w * f.hypodiff(x)
        out = part if out is None else (out[:, None, :] + part[None, :, :]).reshape(-1, out.shape[1])
    return _merge_duplicates(out)


def fused_reference(f, x):
    """``(value, hypodiff)`` of ``f`` at ``x`` from a reference computation
    apart from ``f.value_and_hypodiff``."""
    if isinstance(f, MaxOf):
        return f.value(x), two_pass_hypo_max(f.children, x)
    if isinstance(f, ConvexCombination):
        return f.value(x), hypo_sum_reference(f.terms, x)
    if isinstance(f, ConvexPAView):
        gc = global_codiff(f._f, x)
        return evaluate(f._f, x), gc.hypo + gc.hyper[0]
    return f.value(x), np.concatenate(([0.0], f.fn(x)[1]))[None, :]


def convex_zoo(seed, d):
    """One of each ConvexFn class, with nested maxima, multi-row children
    and a repeated child (so the stacked blocks hold exact duplicates)."""
    r = np.random.default_rng(seed)

    def quad():
        A = r.normal(size=(d, d))
        return Quadratic(A @ A.T, r.normal(size=d), r.normal())

    lin = linear(r.integers(-2, 3, size=d).astype(float), float(r.integers(-2, 3)))
    view = ConvexPAView(DCForm(d, r.integers(-3, 4, size=(4, d + 1)), r.integers(-3, 4, size=(1, d + 1))))
    inner = MaxOf([quad(), lin, lin, view])
    comb = ConvexCombination([(0.5, quad()), (2.0, inner), (1.0, view)])
    return [quad(), lin, view, comb, inner, MaxOf([inner, comb, MaxOf([lin, quad()]), view])]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), scale=st.sampled_from([1e-6, 1.0, 1e3]))
def test_value_and_hypodiff_is_bitwise_the_two_calls(seed, d, scale):
    x = scale * np.random.default_rng(seed + 1).integers(-3, 4, size=d).astype(float)
    for f in convex_zoo(seed, d):
        fx, H = f.value_and_hypodiff(x)
        assert type(fx) is float and fx == f.value(x)
        ref = f.hypodiff(x)
        assert H.dtype == ref.dtype and np.array_equal(H, ref)
        ref_fx, ref_H = fused_reference(f, x)
        assert fx == ref_fx and H.dtype == ref_H.dtype and np.array_equal(H, ref_H)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    d=st.integers(1, 10),
    data_exp=st.integers(-30, 30),
    x_exp=st.integers(-30, 30),
)
def test_stacked_quadratics_match_per_child(seed, k, d, data_exp, x_exp):
    # an all-Quadratic MaxOf evaluates its stacks in another summation order
    # than the per-child fn calls, so the two agree to rounding, not bitwise
    r, s = np.random.default_rng(seed), 2.0**data_exp
    quads = [Quadratic(s * (A @ A.T + 0.1 * np.eye(d)), s * r.normal(size=d), s * r.normal())
             for A in r.normal(size=(k, d, d))]
    stacked = MaxOf(quads)
    # one non-Quadratic child keeps the whole max on the per-child path
    last = quads[-1]
    mixed = MaxOf(quads[:-1] + [SmoothConvex(d, last.fn)])
    x = 2.0**x_exp * r.normal(size=d)

    fx, H = stacked.value_and_hypodiff(x)
    assert fx == stacked.value(x) and np.array_equal(H, stacked.hypodiff(x))
    ref_fx, ref_H = mixed.value_and_hypodiff(x)
    assert ref_fx == max(q.value(x) for q in quads) and np.array_equal(ref_H, two_pass_hypo_max(mixed.children, x))

    # a value or gradient entry computed in either order is off by at most
    # about (d + 2) eps times the sum of the |terms| it adds; two of them
    # differ by at most twice that, an offset (two values) by four times
    ax = np.abs(x)
    gscale = np.array([np.abs(q.H) @ ax + np.abs(q.b) for q in quads])
    vscale = 0.5 * gscale @ ax + np.array([np.abs(q.b) @ ax + abs(q.c) for q in quads])
    eps = 2 * (d + 2) * np.finfo(float).eps
    assert abs(fx - ref_fx) <= eps * vscale.max()
    assert np.all(np.abs(H[:, 1:] - ref_H[:, 1:]) <= eps * gscale)
    assert np.all(np.abs(H[:, 0] - ref_H[:, 0]) <= 2 * eps * vscale.max())

    with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
        stacked.value_and_hypodiff(np.full(d, np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
        mixed.value_and_hypodiff(np.full(d, np.inf))


@pytest.mark.parametrize("d", [1, 3, 10])
def test_quadratic_formula_pinned(rng, d):
    # an atom's fn and an all-Quadratic max evaluate the same formula, bit for bit
    quads = [Quadratic(A @ A.T, rng.normal(size=d), rng.normal()) for A in rng.normal(size=(4, d, d))]
    x = rng.normal(size=d)
    for q in quads:
        fx, g = q.fn(x)
        assert fx == 0.5 * (x @ (q.H @ x)) + q.b @ x + q.c
        assert np.array_equal(g, q.H @ x + q.b)
    H, b, c = (np.stack([getattr(q, a) for q in quads]) for a in "Hbc")
    vals, G = 0.5 * ((H @ x) @ x) + b @ x + c, H @ x + b
    fx, V = MaxOf(quads).value_and_hypodiff(x)
    assert fx == vals.max()
    assert np.array_equal(V, np.column_stack((vals - vals.max(), G)))


def test_combination_one_callback_per_smooth_child():
    calls = []

    def counted(atom):
        fn = atom.fn
        atom.fn = lambda x: (calls.append(atom), fn(x))[1]
        return atom

    atoms = [counted(sq_half()), counted(linear(np.array([1.0, -2.0]))), counted(sq_half())]
    f = ConvexCombination([(0.5, atoms[0]), (2.0, MaxOf([atoms[1], atoms[2]]))])
    f.value_and_hypodiff(np.array([1.0, 2.0]))
    assert calls == atoms


def test_combination_piece_cap():
    # the sum of two maxima of 1,001 affine atoms would have 1,002,001 > MAX_PIECES
    # vertices; the cap is checked before any of them is built
    rng = np.random.default_rng(0)
    f = ConvexCombination([(1.0, MaxOf([linear(v) for v in rng.normal(size=(1001, 2))])) for _ in range(2)])
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow):
            f.value_and_hypodiff(np.zeros(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_hypo_max_exact_for_affine_children(rng):
    # affine pieces have zero remainder: the model reproduces increments exactly
    atoms = [linear(rng.normal(size=2), float(rng.normal())) for _ in range(4)]
    f = MaxOf(atoms)
    for _ in range(50):
        x, dx = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        H = f.hypodiff(x)
        model = float(np.max(H[:, 0] + H[:, 1:] @ dx))
        assert model == pytest.approx(f.value(x + dx) - f.value(x), abs=1e-12)


def test_offsets_normalized_after_every_operation(rng):
    f = MaxOf(
        [
            ConvexCombination([(2.0, x_squared()), (1.0, linear(np.array([3.0])))]),
            linear(np.array([-1.0]), 0.5),
        ]
    )
    for _ in range(20):
        x = rng.normal(size=1) * 3
        H = f.hypodiff(x)
        assert H[:, 0].max() == pytest.approx(0.0, abs=1e-12)
        assert (H[:, 0] <= 1e-12).all()


def test_smooth_gradients_match_finite_differences(rng):
    for fn in (sq_half(), Quadratic(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, -2.0]), 0.7)):
        for _ in range(10):
            x = rng.normal(size=2)
            g = fn.fn(x)[1]
            g_fd = fd_gradient(fn.value, x)
            assert np.abs(g - g_fd).max() <= 1e-4 * (1 + np.abs(g).max())


# ---------------------------------------------------------------------------
# amenability


def grid(lo, hi, n, d):
    if d == 1:
        return [np.array([t]) for t in np.linspace(lo, hi, n)]
    side = np.linspace(lo, hi, n)
    return [np.array([a, b]) for a in side for b in side]


def test_amenable_smooth_square():
    pts = grid(-2, 2, 50, 1)
    rep = check_amenable(x_squared(), pts, pts, tol=1e-9)
    assert rep.ok
    assert rep.worst_violation <= 1e-9


def test_amenable_max_of_affines():
    f = MaxOf([linear(np.array([1.0])), linear(np.array([-1.0]))])
    pts = grid(-2, 2, 40, 1)
    rep = check_amenable(f, pts, pts, tol=1e-12)
    assert rep.ok


def test_amenable_negative_control():
    class Corrupted(MaxOf):
        def value_and_hypodiff(self, x):
            fx, H = super().value_and_hypodiff(x)
            H[:, 0] += 1.0
            return fx, H

    f = Corrupted([linear(np.array([1.0])), linear(np.array([-1.0]))])
    pts = grid(-2, 2, 20, 1)
    rep = check_amenable(f, pts, pts, tol=1e-9)
    assert not rep.ok
    assert rep.worst_violation == pytest.approx(1.0, abs=1e-9)


def test_amenability_preserved_by_composition(rng):
    atoms = [
        Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), rng.normal(size=2)),
        Quadratic(np.array([[1.0, 0.0], [0.0, 3.0]]), rng.normal(size=2), 0.5),
        linear(rng.normal(size=2), 0.3),
    ]
    comp = MaxOf([ConvexCombination([(1.5, atoms[0]), (0.5, atoms[2])]), atoms[1]])
    pts = [rng.normal(size=2) * 2 for _ in range(25)]
    assert check_amenable(comp, pts, pts, tol=1e-9).ok


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_checkers_scale_free(k):
    # the default tol follows the data: scaling f by 2**k keeps both verdicts,
    # for a correct quadratic and for one whose gradient is off by 1
    broken = SmoothConvex(1, lambda x: (x @ x, 2 * x + 1))
    pts = grid(-2, 2, 21, 1)
    pairs = [(x, y) for x in pts for y in pts]
    for f, ok in ((x_squared(), True), (broken, False)):
        scaled = ConvexCombination([(2.0**k, f)])
        assert check_amenable(scaled, pts, pts).ok == ok
        assert check_lipschitz_approx(scaled, 2.0 ** (k + 1), pairs).ok == ok


# ---------------------------------------------------------------------------
# quadratic remainder bound


@pytest.mark.parametrize("L", [0.0, -1.0, np.inf, np.nan])
def test_lipschitz_constant_must_be_positive_and_finite(L):
    # an infinite L makes every bound infinite, so any f would pass
    pts = grid(-2, 2, 5, 1)
    with pytest.raises(ValueError, match="L must be positive"):
        check_lipschitz_approx(x_squared(), L, [(x, y) for x in pts for y in pts])


def test_lipschitz_exact_for_quadratic(rng):
    f = x_squared()
    pairs = [(rng.normal(size=1) * 2, rng.normal(size=1) * 2) for _ in range(200)]
    rep = check_lipschitz_approx(f, L=2.0, pairs=pairs, tol=1e-9)
    assert rep.ok
    # quadratic remainder is exactly (L/2)||y-x||^2, so the worst ratio is 1
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-6)


def test_lipschitz_max_rule(rng):
    q1 = Quadratic(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]))
    q2 = Quadratic(np.array([[4.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]), 0.3)
    u = MaxOf([q1, q2])
    L = max(q1.lipschitz_grad, q2.lipschitz_grad)
    pairs = [(rng.normal(size=2) * 2, rng.normal(size=2) * 2) for _ in range(200)]
    assert check_lipschitz_approx(u, L=L, pairs=pairs, tol=1e-9).ok


def test_lipschitz_sum_rule(rng):
    q1 = Quadratic(np.array([[2.0]]), np.zeros(1))
    q2 = Quadratic(np.array([[5.0]]), np.array([1.0]))
    g = ConvexCombination([(2.0, q1), (3.0, q2)])
    L = 2.0 * q1.lipschitz_grad + 3.0 * q2.lipschitz_grad
    pairs = [(rng.normal(size=1) * 3, rng.normal(size=1) * 3) for _ in range(200)]
    assert check_lipschitz_approx(g, L=L, pairs=pairs, tol=1e-9).ok
    for bad in (0.0, np.nan):  # a NaN L would pass every pair
        with pytest.raises(ValueError):
            check_lipschitz_approx(g, L=bad, pairs=pairs)


def test_quadratic_keeps_symmetric_part():
    # 0.5 x'Hx depends only on (H + H')/2, whose gradient at (1, 2) is
    # (2, 2.5); H x = (3, 2) is not the gradient of this f
    q = Quadratic(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2))
    fx, g = q.fn(np.array([1.0, 2.0]))
    assert fx == 3.5 and np.array_equal(g, [2.0, 2.5])
    assert q.lipschitz_grad == pytest.approx(1.5)
    assert check_amenable(q, [np.array([1.0, 2.0])], np.random.default_rng(0).normal(size=(20, 2))).ok
    H = np.array([[4.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(Quadratic(H, np.ones(2)).H, H)  # bit-identical if symmetric


def test_quadratic_rejects_nonfinite_data():
    # a NaN eigenvalue passed the convexity comparison, giving lipschitz_grad nan
    with pytest.raises(NonFinite):
        Quadratic([[np.nan]], [0.0])
    with pytest.raises(NonFinite):
        Quadratic(np.eye(2), [np.inf, 0.0])
    with pytest.raises(NonFinite):
        Quadratic(np.eye(2), np.zeros(2), np.nan)


def test_convex_combination_rejects_nonfinite_weights():
    # w < 0 is False for NaN, so a NaN weight gave the value NaN
    for w in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFinite):
            ConvexCombination([(w, linear([1.0]))])


def test_quadratic_rejects_nonconvex_and_misshapen():
    with pytest.raises(ValueError):
        Quadratic(-np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):  # symmetric part [[0, .5], [.5, 0]] is indefinite
        Quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        Quadratic(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        Quadratic(np.eye(3), np.zeros(2))
    # a PSD H that rounding leaves with a tiny negative eigenvalue is convex
    A = np.random.default_rng(1).normal(size=(6, 3))
    Quadratic(A @ A.T, np.zeros(6))


# ---------------------------------------------------------------------------
# PA view


def test_convex_pa_view_requires_single_min_piece():
    with pytest.raises(ValueError):
        ConvexPAView(worked_example())


def test_convex_pa_view_exact_expansion(rng):
    from codescent import generate_pa

    f = generate_pa(5, 2, 5, 1)
    view = ConvexPAView(f)
    for _ in range(30):
        x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        H = view.hypodiff(x)
        model = np.max(H[:, 0] + H[:, 1:] @ (y - x))
        assert model == pytest.approx(view.value(y) - view.value(x), abs=1e-9)
