import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codescent import (
    NonFinite,
    global_codiff,
    min_norm_point,
    minnorm,
    wolfe_residual,
    worked_example,
)
from conftest import project_origin_small_hull


def test_single_vertex_hull():
    point, w = min_norm_point(np.array([[3.0, 4.0]]))
    assert np.allclose(point, [3.0, 4.0])
    assert np.allclose(w, [1.0])


def test_symmetric_segment_through_origin():
    point, w = min_norm_point(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(point, [0.0, 0.0], atol=1e-12)
    assert np.allclose(w.sum(), 1.0)


def test_showcase_piece_projection():
    f = worked_example()
    x0 = np.array([2.0, 2.0])
    gc = global_codiff(f, x0)
    S = gc.hypo + gc.hyper[0]
    point, w = min_norm_point(S)
    assert np.allclose(point, [-0.1111, 0.2222, 0.2222], atol=1e-4)
    assert np.allclose(point, [-1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0], atol=1e-9)
    assert wolfe_residual(S, point) <= 1e-10
    assert w.min() >= 0 and abs(w.sum() - 1) < 1e-10


def test_feasibility_and_optimality_random(rng):
    for _ in range(200):
        m = int(rng.integers(1, 40))
        k = int(rng.integers(1, 12))
        P = rng.normal(size=(m, k)) * float(rng.choice([0.3, 1.0, 4.0]))
        point, w = min_norm_point(P)
        assert w.min() >= -1e-13
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.linalg.norm(w @ P - point) <= 1e-9
        assert wolfe_residual(P, point) <= 1e-8


def test_redundant_and_duplicate_vertices(rng):
    base = rng.normal(size=(5, 3))
    # duplicates plus interior points of the hull
    interior = np.array([w @ base for w in rng.dirichlet(np.ones(5), size=6)])
    P = np.vstack([base, base[:2], interior])
    point, w = min_norm_point(P)
    assert wolfe_residual(P, point) <= 1e-9
    q, _ = min_norm_point(base)
    assert np.allclose(point, q, atol=1e-8)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_matches_closed_form_small_hulls(rng, m):
    for _ in range(300):
        k = int(rng.integers(2, 4))
        P = rng.normal(size=(m, k)) * float(rng.choice([0.5, 2.0]))
        point, _ = min_norm_point(P)
        expected = project_origin_small_hull(P)
        assert np.linalg.norm(point - expected) <= 1e-8


hulls = st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(float, shape, elements=st.floats(-10, 10))
)


@settings(max_examples=300, deadline=None)
@given(P=hulls, e=st.floats(-6, 6))
# float cannot tell the norms of vertex 0 and of (0, -5) apart
@example(P=np.array([[6.17501698e-08, -5.0], [-5.0, -5.0]]), e=1.0)
# nor the norms before and after the first cycle, though the gap halves
@example(
    P=np.array([[-6.0] * 6, [0.0, 1.1920929e-07] + [-6.0] * 4, [0.0] + [-6.0] * 5]), e=1.0
)
def test_scale_equivariance(P, e):
    """min_norm_point(c P) = c min_norm_point(P): the solver's stop rule is
    relative to the hull."""
    c = 10.0**e
    point, _ = min_norm_point(P)
    scaled, _ = min_norm_point(c * P)
    hull_scale = c * max(1.0, float(np.abs(P).max()))
    assert np.linalg.norm(scaled - c * point) <= 1e-9 * hull_scale


#: hulls on the grid 2**-8 up to 16, so 2**k * P is exact and normal down to k = -1000
grid_hulls = st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(float, shape, elements=st.integers(-2**12, 2**12).map(lambda i: i / 2**8))
)


@settings(max_examples=200, deadline=None)
@given(P=grid_hulls, k=st.integers(-1000, 500), stack=st.booleans())
# below about 2**-537 the squares underflow to 0 and the first vertex came back
@example(P=np.array([[1.0, 2.0], [-1.0, 0.5]]), k=-1000, stack=False)
@example(P=np.array([[1.0, 2.0], [-1.0, 0.5]]), k=-1000, stack=True)
def test_power_of_two_scaling_is_exact(P, k, stack):
    """min_norm_point(2**k P) = 2**k min_norm_point(P), bit for bit, and the
    weights are the same: tiny hulls are solved scaled up."""
    c = 2.0**k
    if stack:  # the lockstep loop's stacks
        P = np.stack([P + i for i in range(minnorm.STACK_MIN)])
    point, w = min_norm_point(P)
    scaled, scaled_w = min_norm_point(c * P)
    assert scaled.tobytes() == (c * point).tobytes()
    assert scaled_w.tobytes() == w.tobytes()


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_scale_equivariance_default_tol(c):
    f = worked_example()
    x0 = np.array([2.0, 2.0])
    gc = global_codiff(f, x0)
    S = gc.hypo + gc.hyper[0]
    point, _ = min_norm_point(S)
    scaled, _ = min_norm_point(c * S)
    assert np.linalg.norm(scaled - c * point) <= 1e-9 * c * float(np.abs(S).max())


def test_deterministic_bitwise(rng):
    P = rng.normal(size=(17, 5))
    p1, w1 = min_norm_point(P)
    p2, w2 = min_norm_point(P.copy())
    assert p1.tobytes() == p2.tobytes()
    assert w1.tobytes() == w2.tobytes()


def test_rejects_nonfinite_and_empty():
    with pytest.raises(NonFinite):
        min_norm_point(np.array([[np.nan, 0.0]]))
    with pytest.raises(NonFinite):
        min_norm_point(np.array([[np.inf, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        min_norm_point(np.zeros((0, 3)))


def test_rejects_overflowing_squared_norms():
    # the origin is in this hull, but its squared norms overflow to inf, so
    # the stop floor would be inf and the first vertex would come back
    P = 1e155 * np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(NonFinite):
        min_norm_point(P)
    point, _ = min_norm_point(P / 1e10)  # finite squares: the origin
    assert np.linalg.norm(point) <= 1e-9 * 1e145


#: start weights for up to 16 vertices, zeros included
weights = hnp.arrays(float, 16, elements=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))


@settings(max_examples=300, deadline=None)
@given(
    P=hulls,
    dup=st.integers(0, 4),
    e=st.floats(-6, 6),
    kind=st.sampled_from(["one", "all", "random"]),
    pick=st.integers(0, 15),
    w=weights,
)
# the stop rule accepts vertex 0 alone: its residual 3.6e-15 is below the
# floor, so the warm point is sqrt(3.6e-15) from the cold one
@example(P=np.array([[5.96046448e-08], [0.0], [1.0]]), dup=0, e=0.0, kind="one", pick=0, w=np.ones(16))
def test_warm_start_matches_cold_start(P, dup, e, kind, pick, w):
    """Any start reaches the cold start's point, with a residual within the
    solver's own stop floor."""
    hull_scale = 10.0**e * max(1.0, float(np.abs(P).max()))
    P = 10.0**e * np.vstack([P, P[:dup]])  # duplicate rows
    m = P.shape[0]
    start = {"one": np.eye(m)[pick % m], "all": np.ones(m), "random": w[:m]}[kind]
    assume(start.sum() > 0)
    cold, _ = min_norm_point(P)
    warm, weights = min_norm_point(P, start)
    floor = 64 * np.finfo(float).eps * float(np.einsum("ij,ij->i", P, P).max())
    res = wolfe_residual(P, warm)
    assert res <= floor
    # a residual r bounds the squared distance to the minimum-norm point
    gap = np.sqrt(res) + np.sqrt(wolfe_residual(P, cold))
    assert np.linalg.norm(warm - cold) <= 1e-9 * hull_scale + gap
    assert weights.min() >= 0 and abs(weights.sum() - 1.0) <= 1e-12
    assert np.linalg.norm(weights @ P - warm) <= 1e-9 * hull_scale


@pytest.mark.parametrize(
    "start",
    [np.ones(2), np.ones((3, 1)), np.array([1.0, -0.5, 1.0]), np.array([1.0, np.nan, 1.0]),
     np.zeros(3), np.array([1.0, np.inf, 0.0])],
    ids=["short", "column", "negative", "nan", "zero-sum", "inf"],
)
def test_malformed_start_rejected(start):
    P = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(ValueError):
        min_norm_point(P, start)


def test_iteration_cap_raises(monkeypatch):
    from codescent import NoConvergence, minnorm

    P = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    # a cap of 0 cycles per vertex lets 0 cycles run on this hull
    monkeypatch.setattr(minnorm, "MAX_CYCLES_PER_VERTEX", 0)
    with pytest.raises(NoConvergence):
        min_norm_point(P)


# ---------------------------------------------------------------------------
# stacked projections: min_norm_point of a (B, m, k) stack, such as V + Z[:, None]


def _floor(P):
    return 64 * np.finfo(float).eps * float(np.einsum("ij,ij->i", P, P).max())


#: up to 12 shifts for hulls of up to 6 columns
shift_stacks = hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(6)), elements=st.floats(-10, 10))

#: the stall rule's two hulls from test_scale_equivariance, in stacks
STALLING = [np.array([[6.17501698e-08, -5.0], [-5.0, -5.0]]),
            np.array([[-6.0] * 6, [0.0, 1.1920929e-07] + [-6.0] * 4, [0.0] + [-6.0] * 5])]


@settings(max_examples=300, deadline=None)
@given(V=hulls, Z=shift_stacks, kinds=st.lists(st.integers(-1, 11), min_size=12, max_size=12), e=st.floats(-6, 6))
@example(V=STALLING[0], Z=np.zeros((3, 6)), kinds=[-1, 0, 0] + [2] * 9, e=1.0)
@example(V=STALLING[1], Z=np.zeros((2, 6)), kinds=[-1] * 12, e=1.0)
# the Gram solve is too coarse on shift 1's corral: its loop stalls at
# residual 1.2e-8 (floor 1.2e-12), so that translate is projected alone
@example(
    V=np.array([[-2.0, 0.0, 2.99999994], [-3.0, -1.0, 6.0], [2.0, -2.0, -1.00000003], [6.0, -4.0, -4.0], [4.0, -3.0, -3.0]]),
    Z=np.array([[0.0, -1.0, -2.0], [1.0, 0.0, 0.0]]), kinds=[11] * 12, e=0.0,
)
# the loop stalls on the translate [[1, -1], [-1, -1], [0, -1 - 1e-12]]; stopping
# there, it returned vertex 2 at 35 times the floor
@example(V=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1e-12]]), Z=np.array([[0.0, -1.0, -1.0, -1.0, -1.0, -1.0]]),
         kinds=[0] * 12, e=0.0)
# a corral with a singular Gram matrix: the stack is projected hull by hull
@example(
    V=np.array([[0.0, -2.0], [5.0, -2.0], [6.0, 2.0], [5.0, -5.0], [-2.0, -6.0], [-2.99999994, -4.0]]),
    Z=np.array([[-3.0, -2.0]]), kinds=[11] * 12, e=0.0,
)
def test_stacked_matches_per_hull(V, Z, kinds, e):
    """Every translate of a stack, projected in the lockstep loop, is
    projected as the per-hull loop projects it alone."""
    from codescent import minnorm

    (m, k), B = V.shape, len(Z)
    Z = Z[:, :k].copy()
    # -1: a zero shift; j < b: a duplicate of shift j; else its own
    for b, j in enumerate(kinds[:B]):
        Z[b] = 0.0 if j < 0 else Z[j] if j < b else Z[b]
    V, Z = 10.0**e * V, 10.0**e * Z
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minnorm, "STACK_MIN", 1)  # the lockstep loop from B = 1
        points, weights = min_norm_point(V + Z[:, None])
    assert points.shape == (B, k) and weights.shape == (B, m)
    for b in range(B):
        P = V + Z[b]
        hull_scale = max(10.0**e, float(np.abs(P).max()))
        res = wolfe_residual(P, points[b])
        assert res <= _floor(P)
        assert weights[b].min() >= 0 and abs(weights[b].sum() - 1.0) <= 1e-12
        assert np.linalg.norm(weights[b] @ P - points[b]) <= 1e-9 * hull_scale
        alone, _ = min_norm_point(P)
        # a residual r bounds the squared distance to the minimum-norm point
        gap = np.sqrt(res) + np.sqrt(wolfe_residual(P, alone))
        assert np.linalg.norm(points[b] - alone) <= 1e-9 * hull_scale + gap


#: hulls on which a major cycle from vertex 0 fails to decrease ||p||^2 in
#: float: on the first the norm ties and the gap widens, on the second the
#: norm rises and the gap narrows
STALLS = {
    "tie": np.array([[-1.2192515379581520e-12, -1.0, 1.0, -1.0],
                     [0.99999999999878075, -2.0, 0.0, -1.0],
                     [0.99999999999878075, 1.0, 2.0, -2.0],
                     [-1.0000000000012192, -2.0, 2.0, 1.0]]),
    "rise": np.array([[-1.0, -3.0, 3.00000001, 1.0], [3.0, -2.0, -2.0, -2.0], [1.00000001, -1.0, 1e-8, 1.0]]),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "stacked"])
@pytest.mark.parametrize("hull", STALLS)
def test_stall_goes_on_to_the_floor(hull, stacked):
    """A stall does not end the solve: the loop goes on to the stop floor
    (stopping there, the residual was 8.6 and 14,893 times the floor)."""
    from codescent import minnorm

    P = STALLS[hull]
    alone = min_norm_point(P)
    if stacked:
        # every zero-shifted translate stalls in the lockstep loop and is
        # handed to the per-hull loop
        Z = np.zeros((minnorm.STACK_MIN, P.shape[1]))
        assert minnorm._lockstep(P + Z[:, None])[2].all()
        points, weights = min_norm_point(P + Z[:, None])
    else:
        points, weights = (a[None] for a in alone)
    for p, w in zip(points, weights):
        assert p.tobytes() == alone[0].tobytes() and w.tobytes() == alone[1].tobytes()
        assert wolfe_residual(P, p) <= _floor(P)


def test_stacked_below_cut_over_is_the_per_hull_loop(rng):
    from codescent import minnorm

    V, Z = rng.normal(size=(9, 4)), rng.normal(size=(minnorm.STACK_MIN - 1, 4))
    points, weights = min_norm_point(V + Z[:, None])
    for b, z in enumerate(Z):
        p, w = min_norm_point(V + z)
        assert points[b].tobytes() == p.tobytes() and weights[b].tobytes() == w.tobytes()
    empty = min_norm_point(V + np.zeros((0, 4))[:, None])
    assert empty[0].shape == (0, 4) and empty[1].shape == (0, 9)


@pytest.mark.parametrize(
    "stack, start",
    [(np.ones((8, 3, 3)), np.ones(3)), (np.ones((8, 0, 3)), None), (np.ones((2, 8, 3, 3)), None)],
    ids=["with-start", "no-vertices", "four-dimensional"],
)
def test_malformed_stacks_rejected(stack, start):
    with pytest.raises(ValueError):
        min_norm_point(stack, start)


def test_stacked_overflowing_shift_raises():
    from codescent import minnorm

    V = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    Z = np.zeros((minnorm.STACK_MIN, 2))
    Z[5] = [1e155, 0.0]  # one translate whose squared norms overflow
    with pytest.raises(NonFinite):
        min_norm_point(V + Z[:, None])


def test_stacked_gram_overflow_projects_hull_by_hull():
    # squared norms are finite, but corral differences as long as 2.2e154
    # overflow the Gram matrix; lstsq on the differences does not square them
    from codescent import minnorm

    a = 8e153
    V = a * np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    Z = np.zeros((minnorm.STACK_MIN, 2))
    Z[:, 1] = a * np.linspace(-0.1, 0.1, minnorm.STACK_MIN)
    points, weights = min_norm_point(V + Z[:, None])
    for b, z in enumerate(Z):
        p, w = min_norm_point(V + z)
        assert points[b].tobytes() == p.tobytes() and weights[b].tobytes() == w.tobytes()
    assert np.abs(points).max() <= 1e-9 * a


def test_stacked_iteration_cap_raises(monkeypatch):
    from codescent import NoConvergence, minnorm

    V = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    Z = np.linspace(-1.0, 1.0, 2 * minnorm.STACK_MIN).reshape(-1, 2)
    monkeypatch.setattr(minnorm, "MAX_CYCLES_PER_VERTEX", 0)
    with pytest.raises(NoConvergence):
        min_norm_point(V + Z[:, None])


def test_stacked_random_stacks():
    """Criterion 8 for stacked projections: about 500 random stacks of
    ``STACK_MIN`` or more translates, each translate ending on its own stop
    floor with Wolfe residual at most 1e-8, and bitwise repeatable; then
    stacks of unrelated hulls on both sides of ``STACK_MIN``, each point
    within its hull's stop floor of that hull's own projection."""
    from codescent import minnorm

    rng = np.random.default_rng(808)
    worst = 0.0
    for i in range(500):
        m = int(rng.integers(1, 4)) if i % 4 == 0 else int(rng.integers(1, 65))
        k = int(rng.integers(2, 12))
        B = int(rng.integers(minnorm.STACK_MIN, 3 * minnorm.STACK_MIN))
        c = float(rng.choice([0.3, 1.0, 4.0]))
        V, Z = rng.normal(size=(m, k)) * c, rng.normal(size=(B, k)) * c
        points, weights = min_norm_point(V + Z[:, None])
        for b in range(B):
            res = wolfe_residual(V + Z[b], points[b])
            assert res <= min(1e-8, _floor(V + Z[b]))
            worst = max(worst, res)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12 and weights.min() >= 0
        assert np.abs(np.einsum("bm,bmk->bk", weights, V + Z[:, None]) - points).max() <= 1e-9 * c
        if i % 100 == 0:
            again = min_norm_point(V + Z[:, None])
            assert again[0].tobytes() == points.tobytes() and again[1].tobytes() == weights.tobytes()
    assert worst <= 1e-8

    for i in range(200):
        m = int(rng.integers(1, 4)) if i % 4 == 0 else int(rng.integers(1, 65))
        k, B = int(rng.integers(2, 12)), int(rng.integers(1, 3 * minnorm.STACK_MIN))
        P = rng.normal(size=(B, m, k)) * rng.choice([0.3, 1.0, 4.0], size=(B, 1, 1))
        points, weights = min_norm_point(P)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12 and weights.min() >= 0
        assert np.abs(np.einsum("bm,bmk->bk", weights, P) - points).max() <= 1e-9 * np.abs(P).max()
        for b in range(B):
            alone, _ = min_norm_point(P[b])
            assert wolfe_residual(P[b], points[b]) <= _floor(P[b])
            # both residuals are at most the floor, and a residual r bounds
            # the squared distance to the minimum-norm point
            assert np.linalg.norm(points[b] - alone) <= 2 * np.sqrt(_floor(P[b]))
