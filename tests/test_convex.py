import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codescent import (
    ConvexCombination,
    ConvexPAView,
    DCForm,
    MaxOf,
    check_amenable,
    check_lipschitz_approx,
    hypo_max,
    hypo_smooth,
    hypo_sum,
    linear,
    quadratic,
    worked_example,
)


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
    return quadratic(np.eye(2), np.zeros(2))


def x_squared():  # x^2 on R
    return quadratic(np.array([[2.0]]), np.zeros(1))


# ---------------------------------------------------------------------------
# calculus at a point


def test_hypo_smooth_examples():
    assert np.allclose(hypo_smooth(sq_half(), [1.0, 2.0]), [[0.0, 1.0, 2.0]])
    c = np.array([3.0, -1.0])
    assert np.allclose(hypo_smooth(linear(c), [9.0, 9.0]), [[0.0, 3.0, -1.0]])
    assert np.allclose(hypo_smooth(x_squared(), [3.0]), [[0.0, 6.0]])


def test_hypo_sum_examples():
    f = x_squared()
    one = hypo_sum([(1.0, f)], [2.0])
    assert np.allclose(one, f.hypodiff([2.0]))
    both = hypo_sum([(1.0, x_squared()), (1.0, linear(np.array([1.0])))], [2.0])
    assert np.allclose(both, [[0.0, 5.0]])
    scaled = hypo_sum([(2.0, f), (0.0, linear(np.array([7.0])))], [2.0])
    assert np.allclose(scaled, [[0.0, 8.0]])
    with pytest.raises(ValueError):
        hypo_sum([(-1.0, f)], [0.0])


def test_hypo_max_affine_pair():
    out = hypo_max([linear(np.array([1.0])), linear(np.array([-1.0]))], [1.0])
    assert np.allclose(out, [[0.0, 1.0], [-2.0, -1.0]])


def test_hypo_max_single_child_unchanged():
    f = x_squared()
    assert np.allclose(hypo_max([f], [3.0]), f.hypodiff([3.0]))


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


def convex_zoo(seed, d):
    """One of each ConvexFn class, with nested maxima, multi-row children
    and a repeated child (so the stacked blocks hold exact duplicates)."""
    r = np.random.default_rng(seed)

    def quad():
        A = r.normal(size=(d, d))
        return quadratic(A @ A.T, r.normal(size=d), r.normal())

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
        if isinstance(f, MaxOf):
            assert np.array_equal(hypo_max(f.children, x), two_pass_hypo_max(f.children, x))


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
    for fn in (sq_half(), quadratic(np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, -2.0]), 0.7)):
        for _ in range(10):
            x = rng.normal(size=2)
            g = fn.gradient(x)
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
        def hypodiff(self, x):
            H = super().hypodiff(x).copy()
            H[:, 0] += 1.0
            return H

    f = Corrupted([linear(np.array([1.0])), linear(np.array([-1.0]))])
    pts = grid(-2, 2, 20, 1)
    rep = check_amenable(f, pts, pts, tol=1e-9)
    assert not rep.ok
    assert rep.worst_violation == pytest.approx(1.0, abs=1e-9)


def test_amenability_preserved_by_composition(rng):
    atoms = [
        quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), rng.normal(size=2)),
        quadratic(np.array([[1.0, 0.0], [0.0, 3.0]]), rng.normal(size=2), 0.5),
        linear(rng.normal(size=2), 0.3),
    ]
    comp = MaxOf([ConvexCombination([(1.5, atoms[0]), (0.5, atoms[2])]), atoms[1]])
    pts = [rng.normal(size=2) * 2 for _ in range(25)]
    assert check_amenable(comp, pts, pts, tol=1e-9).ok


# ---------------------------------------------------------------------------
# quadratic remainder bound


def test_lipschitz_exact_for_quadratic(rng):
    f = x_squared()
    pairs = [(rng.normal(size=1) * 2, rng.normal(size=1) * 2) for _ in range(200)]
    rep = check_lipschitz_approx(f, L=2.0, pairs=pairs, tol=1e-9)
    assert rep.ok
    # quadratic remainder is exactly (L/2)||y-x||^2, so the worst ratio is 1
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-6)


def test_lipschitz_max_rule(rng):
    q1 = quadratic(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0]))
    q2 = quadratic(np.array([[4.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]), 0.3)
    u = MaxOf([q1, q2])
    L = max(q1.lipschitz_grad, q2.lipschitz_grad)
    pairs = [(rng.normal(size=2) * 2, rng.normal(size=2) * 2) for _ in range(200)]
    assert check_lipschitz_approx(u, L=L, pairs=pairs, tol=1e-9).ok


def test_lipschitz_sum_rule(rng):
    q1 = quadratic(np.array([[2.0]]), np.zeros(1))
    q2 = quadratic(np.array([[5.0]]), np.array([1.0]))
    g = ConvexCombination([(2.0, q1), (3.0, q2)])
    L = 2.0 * q1.lipschitz_grad + 3.0 * q2.lipschitz_grad
    pairs = [(rng.normal(size=1) * 3, rng.normal(size=1) * 3) for _ in range(200)]
    assert check_lipschitz_approx(g, L=L, pairs=pairs, tol=1e-9).ok
    with pytest.raises(ValueError):
        check_lipschitz_approx(g, L=0.0, pairs=pairs)


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
