import json

import numpy as np
import pytest

from codescent import (
    ArmijoFailure,
    ConvexCombination,
    ConvexPAView,
    DimensionMismatch,
    MaxOf,
    MHDConfig,
    NonFinite,
    Quadratic,
    SmoothConvex,
    armijo_step,
    codiff_scale,
    line_search_pa,
    generate_pa,
    linear,
    max_quadratics,
    mhd_run,
    pa_global_min,
)
from codescent.problems import random_start
from conftest import slsqp_min_of_max


def x_squared():
    return Quadratic(np.array([[2.0]]), np.zeros(1))


# ---------------------------------------------------------------------------
# Armijo rule


def test_armijo_hand_computed_sigma_half():
    # k=0: f(-1)-f(1) = 0 > -2; k=1: f(0)-f(1) = -1 <= -1
    alpha, k = armijo_step(x_squared(), np.array([1.0]), 1.0, np.array([2.0]), 4.0, MHDConfig(sigma=0.5, gamma=0.5))
    assert (alpha, k) == (0.5, 1)


def test_armijo_hand_computed_sigma_tenth():
    # k=0: 0 <= -0.4 is false; k=1: -1 <= -0.2 holds
    alpha, k = armijo_step(x_squared(), np.array([1.0]), 1.0, np.array([2.0]), 4.0, MHDConfig(sigma=0.1, gamma=0.5))
    assert (alpha, k) == (0.5, 1)


def test_armijo_accepts_full_step():
    # f(0)-f(1) = -1 <= -0.1: already true at k=0
    alpha, k = armijo_step(x_squared(), np.array([1.0]), 1.0, np.array([1.0]), 1.0, MHDConfig(sigma=0.1, gamma=0.5))
    assert (alpha, k) == (1.0, 0)


def test_armijo_failure_on_ascent_direction():
    with pytest.raises(ArmijoFailure):
        armijo_step(x_squared(), np.array([1.0]), 1.0, np.array([-2.0]), 4.0, MHDConfig())
    with pytest.raises(ValueError):
        armijo_step(x_squared(), np.array([1.0]), 1.0, np.array([2.0]), 0.0, MHDConfig())


# ---------------------------------------------------------------------------
# runs


def test_run_on_parabola():
    trace = mhd_run(x_squared(), [10.0], MHDConfig(sigma=0.5, gamma=0.5, max_iter=500))
    assert trace.status == "stationary"
    assert trace.steps[-1].norm <= 1e-8
    assert abs(trace.final_x[0]) <= 1e-4
    assert np.all(np.diff([s.f for s in trace.steps]) <= 0)


def test_run_reraises_armijo_failure_on_a_broken_oracle():
    # a gradient of the wrong sign makes -v an ascent direction; the decrease
    # the Armijo test asks for is far above f's float resolution, so the
    # failure is a broken oracle and not the float floor
    wrong_sign = SmoothConvex(1, lambda x: (x @ x, -2 * x))
    with pytest.raises(ArmijoFailure):
        mhd_run(wrong_sign, [3.0])


def test_start_of_wrong_dimension_raises_before_callback():
    calls = []

    def fn(x):
        calls.append(x)
        return x @ x, 2 * x

    with pytest.raises(DimensionMismatch):
        mhd_run(SmoothConvex(1, fn), np.ones(3))
    assert calls == []
    maxq, _, x0 = max_quadratics(0)
    with pytest.raises(DimensionMismatch):
        mhd_run(maxq, x0[:-1])


def test_run_starts_at_stationary_point():
    trace = mhd_run(x_squared(), [0.0], MHDConfig())
    assert trace.status == "stationary"
    assert len(trace.steps) == 1 and trace.steps[0].n == 0


def test_max_of_quadratics_matches_independent_oracle(rng):
    # one strongly dominant piece keeps the model smooth near the optimum,
    # so backtracking descent reaches oracle accuracy quickly
    d = 4
    top = Quadratic(np.eye(d), np.zeros(d), 1.0)
    others = [
        Quadratic(0.25 * np.eye(d), -0.25 * c, 0.125 * float(c @ c))
        for c in rng.normal(size=(4, d))
    ]
    fn = MaxOf([top, *others])
    x0 = rng.normal(size=d)
    trace = mhd_run(fn, x0, MHDConfig(max_iter=3000, stop_tol=1e-9))
    assert trace.status in ("stationary", "float_floor")
    fstar, _ = slsqp_min_of_max(fn.children, d, [np.zeros(d), x0])
    assert abs(trace.final_f - fstar) <= 1e-6


def test_sufficient_descent_and_step_floor(rng):
    from codescent import max_quadratics

    fn, L, x0 = max_quadratics(11, d=6, k=4)
    cfg = MHDConfig(max_iter=400)
    trace = mhd_run(fn, x0, cfg)
    floor = cfg.gamma * min(1.0, 2.0 * (1.0 - cfg.sigma) / L)
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        # accepted Armijo inequality
        assert nxt.f - prev.f <= -prev.alpha * cfg.sigma * prev.norm**2 + 1e-12
        assert prev.alpha >= floor - 1e-12


def test_warm_started_projections_match_cold(monkeypatch):
    """Each iterate's projection starts from the last one's weights: the run
    takes the same steps as with cold starts, in fewer least-squares solves."""
    from codescent import max_quadratics, minnorm
    import codescent.mhd as mhd

    fn, _, x0 = max_quadratics(0)
    cfg = MHDConfig(sigma=0.1, gamma=0.5, stop_tol=1e-2, max_iter=20_000)
    solves = [0]
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        solves[0] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    warm = mhd_run(fn, x0, cfg)
    warm_solves, solves[0] = solves[0], 0
    monkeypatch.setattr(mhd, "min_norm_point", lambda H, start=None: minnorm.min_norm_point(H))
    cold = mhd_run(fn, x0, cfg)
    assert warm.status == cold.status == "stationary"
    assert [s.k for s in warm.steps] == [s.k for s in cold.steps]
    for w, c in zip(warm.steps, cold.steps):
        assert abs(w.f - c.f) <= 1e-12 * max(1.0, abs(c.f))
    assert warm_solves <= 0.6 * solves[0]


def test_exact_line_search_on_convex_pa():
    f = generate_pa(23, 2, 5, 1)
    view = ConvexPAView(f)

    def exact(x, v):
        return line_search_pa(f, x, v).alpha

    trace = mhd_run(view, [4.0, -3.0], MHDConfig(max_iter=200), exact_line_search=exact)
    assert trace.status == "stationary"
    lp = pa_global_min(f)
    assert abs(trace.final_f - lp.value) <= 1e-8


def exact_run_scaled(k):
    f = codiff_scale(2.0**k, generate_pa(6, 10, 40, 1))

    def exact(x, v):
        return line_search_pa(f, x, v).alpha

    return mhd_run(ConvexPAView(f), random_start(6, 10), exact_line_search=exact)


@pytest.mark.parametrize("k", [-40, 0, 40])
def test_default_stop_tol_scale_free(k):
    # the default stop_tol is derived from the data at x0, so 2**k * f stops
    # where f does; an absolute 1e-8 stopped at x0 for k = -40, with f 23
    # times the minimum, and never stopped for k = 40
    run, ref = exact_run_scaled(k), exact_run_scaled(0)
    assert run.status == ref.status == "stationary"
    assert len(run.steps) == len(ref.steps)
    assert run.final_f / 2.0**k == pytest.approx(ref.final_f, rel=1e-12)
    assert run.stop_tol == 2.0**k * ref.stop_tol


def test_default_stop_tol_is_recorded():
    # under a weight 2**-40 every projection is far below an absolute 1e-8,
    # which certified x0; the derived stop_tol does not
    fn, _, x0 = max_quadratics(0, d=4, k=3)
    trace = mhd_run(ConvexCombination([(2**-40, fn)]), x0, MHDConfig(max_iter=0))
    assert trace.status == "iter_limit"
    assert 0 < trace.stop_tol < trace.steps[0].norm
    assert mhd_run(fn, x0, MHDConfig(stop_tol=1e-3, max_iter=0)).stop_tol == 1e-3


def test_overflowing_value_raises():
    # each child value is finite, their weighted sum is not; a value of inf
    # was certified as stationary, with a derived stop_tol of inf
    fn = ConvexCombination([(2.0, MaxOf([linear([1.0], 1e308), linear([-1.0], 1e308)]))])
    with pytest.raises(NonFinite):
        mhd_run(fn, [3.0])
    with pytest.raises(NonFinite):
        mhd_run(fn, [3.0], MHDConfig(stop_tol=1e-8))


def test_trace_serialization_roundtrip():
    trace = mhd_run(x_squared(), [7.0], MHDConfig(sigma=0.3, max_iter=100))
    data = json.loads(json.dumps(trace.to_dict()))
    assert data["status"] == "stationary"
    fn = x_squared()
    for row in data["steps"]:
        assert fn.value(np.array(row["x"])) == pytest.approx(row["f"], abs=1e-12)
    csv_text = trace.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,f,norm,alpha,k"
    assert len(lines) == len(trace.steps) + 1
    # full-precision round trip of the value column
    assert float(lines[1].split(",")[1]) == trace.steps[0].f


def test_negative_max_iter_rejected():
    # an empty trace has no final point
    with pytest.raises(ValueError, match="max_iter must be >= 0"):
        mhd_run(x_squared(), [1.0], MHDConfig(max_iter=-1))
    trace = mhd_run(x_squared(), [1.0], MHDConfig(max_iter=0))
    assert trace.status == "iter_limit" and len(trace.steps) == 1


def test_non_integer_max_iter_rejected_by_config():
    with pytest.raises(TypeError):
        MHDConfig(max_iter=2.5)
    assert type(MHDConfig(max_iter=np.int64(3)).max_iter) is int


@pytest.mark.parametrize("sigma, gamma", [(1.0, 0.5), (0.1, 0.0)])
def test_armijo_parameters_outside_unit_interval_rejected(sigma, gamma):
    with pytest.raises(ValueError, match="sigma and gamma must lie in"):
        MHDConfig(sigma=sigma, gamma=gamma)


@pytest.mark.parametrize("stop_tol", [0.0, -1.0, np.nan, np.inf])
def test_invalid_stop_tol_rejected(stop_tol):
    with pytest.raises(ValueError, match="stop_tol must be finite and positive"):
        MHDConfig(stop_tol=stop_tol)


def test_one_callback_per_child_per_iterate():
    # on the per-child path each iterate costs one fused value-and-gradient
    # call per child; every Armijo trial, accepted or not, one value call per
    # child. The same atoms as Quadratic children are stacked and never called.
    fn, _, x0 = max_quadratics(0)
    calls = []

    def counting(inner):
        return lambda x: calls.append(1) or inner(x)

    generic = MaxOf([SmoothConvex(q.d, counting(q.fn)) for q in fn.children])
    trace = mhd_run(generic, x0, MHDConfig(max_iter=40))
    k = len(fn.children)
    trials = sum(s.k + 1 for s in trace.steps if s.k is not None)
    assert trace.status == "iter_limit" and trials > len(trace.steps)
    assert len(calls) == k * len(trace.steps) + k * trials

    calls.clear()
    for child in fn.children:
        child.fn = counting(child.fn)
    stacked = mhd_run(fn, x0, MHDConfig(max_iter=40))
    assert calls == [] and len(stacked.steps) == len(trace.steps)
