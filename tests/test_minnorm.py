import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codescent import (
    NonFinite,
    global_codiff,
    hyper_grad,
    min_norm_point,
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
    S = gc.hypo + hyper_grad(f, x0, 0)
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


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_scale_equivariance_default_tol(c):
    f = worked_example()
    x0 = np.array([2.0, 2.0])
    S = global_codiff(f, x0).hypo + hyper_grad(f, x0, 0)
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
