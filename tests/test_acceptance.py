"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (run with ``pytest -s`` to see them
on success); any assertion failure is the corresponding FAIL.
"""

import math
import time

import numpy as np
import pytest

from codescent import (
    SizeOverflow,
    check_global_opt,
    classify_nonnegative,
    evaluate,
    expr_to_dc,
    generate_pa,
    global_codiff,
    max_quadratics,
    mcd_run,
    mgcd_run,
    mhd_run,
    min_max_affine,
    min_norm_point,
    pa_global_min,
    project_piece,
    random_start,
    wolfe_residual,
    worked_example,
)
from codescent.mhd import MHDConfig
from codescent.problems import WORKED_EXAMPLE_HYPER, WORKED_EXAMPLE_HYPO
from conftest import (
    discard_violations,
    explicit_step_value,
    instance_grid,
    project_origin_small_hull,
    random_expr,
    slsqp_min_of_max,
)


def report(n, detail):
    print(f"PASS  criterion {n}: {detail}")


def exact_int_set(rows):
    assert np.allclose(rows, np.round(rows), atol=1e-12)
    return {tuple(int(round(c)) for c in row) for row in rows}


@pytest.fixture(scope="module")
def mgcd_batch():
    """Criterion-2 runs: (f, x0, run, oracle outcome) per grid instance."""
    t0 = time.perf_counter()
    batch = []
    for d, l, s, seed in instance_grid():
        f = generate_pa(seed, d, l, s)
        x0 = random_start(seed, d)
        run = mgcd_run(f, x0, max_iter=100_000)
        oracle = pa_global_min(f)
        batch.append((f, x0, run, oracle))
    elapsed = time.perf_counter() - t0
    return batch, elapsed


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    f = worked_example()
    x0 = np.array([2.0, 2.0])

    gc = global_codiff(f, x0)
    assert exact_int_set(gc.hypo) == WORKED_EXAMPLE_HYPO         # (i) 16-vertex set
    assert exact_int_set(gc.hyper) == WORKED_EXAMPLE_HYPER       # (i) 8-vertex set

    z1 = gc.hyper[0]                                     # (ii)
    assert np.array_equal(z1, np.array([1.0, 2.0, 0.0]))

    proj = project_piece(f, x0, 0)                       # (iii)
    assert np.abs(proj - np.array([-0.1111, 0.2222, 0.2222])).max() <= 1e-3
    assert np.abs(proj - np.array([-1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0])).max() <= 1e-9

    run = mgcd_run(f, x0)                                # (iv)
    assert run.status == "global_min"
    assert run.n_steps == 1
    assert np.allclose(run.final_x, [0.0, 0.0], atol=1e-9)
    assert run.certificate.is_global

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"vertex sets, z1, projection, 1-step global minimum in {elapsed:.3f}s")


def test_criterion_2_finite_termination_and_global_optimality(mgcd_batch):
    batch, elapsed = mgcd_batch
    assert len(batch) == 200
    for f, x0, run, oracle in batch:
        assert run.status == "global_min"
        assert oracle.bounded
        assert abs(run.final_f - oracle.value) <= 1e-6
    assert elapsed < 60.0
    report(2, f"200/200 instances certified global, max oracle gap "
              f"{max(abs(r.final_f - o.value) for _, _, r, o in batch):.2e}, {elapsed:.1f}s")


def test_criterion_3_mcd_finite_convergence():
    worst_gap = 0.0
    for d, l, s, seed in instance_grid():
        f = generate_pa(seed, d, l, s)
        x0 = random_start(seed, d)
        run = mcd_run(f, x0, mu=math.inf, max_iter=100_000)
        assert run.status == "global_min"
        ok, _ = check_global_opt(f, run.final_x)
        assert ok
        gap = abs(run.final_f - pa_global_min(f).value)
        assert gap <= 1e-6
        worst_gap = max(worst_gap, gap)
        # per-step dominance over the explicit-step trial from the same point
        for rec, nxt in zip(run.records, run.records[1:]):
            trial = explicit_step_value(f, rec, run.certificate.tol)
            if trial is not None:
                assert nxt.f <= trial + 1e-9 * max(1.0, abs(rec.f))
    report(3, f"200/200 MCD runs certified global (max gap {worst_gap:.2e}), "
              "per-step decrease dominates the explicit step throughout")


def test_criterion_4_mhd_rate():
    cfg = MHDConfig(sigma=0.1, gamma=0.5, stop_tol=1e-8, max_iter=10_000)
    worst_ratio = 0.0
    for seed in range(20):
        fn, L, x0 = max_quadratics(seed, d=10, k=5)
        trace = mhd_run(fn, x0, cfg)

        # (i) monotone descent with the accepted Armijo inequality
        for prev, nxt in zip(trace.steps, trace.steps[1:]):
            assert nxt.f - prev.f <= -prev.alpha * cfg.sigma * prev.norm**2 + 1e-12

        # (ii) step-size floor
        floor = cfg.gamma * min(1.0, 2.0 * (1.0 - cfg.sigma) / L)
        alphas = [s.alpha for s in trace.steps if s.alpha is not None]
        assert min(alphas) >= floor - 1e-12

        # (iii) bounded n * (f(x_n) - f*) against the rate constant
        fstar, xstar = slsqp_min_of_max(fn.children, 10, [np.zeros(10), x0])
        piece_mins = [
            q.c - 0.5 * float(q.b @ np.linalg.solve(q.H, q.b)) for q in fn.children
        ]
        K_a = trace.steps[0].f - min(piece_mins)  # bounds every hypodiff offset on S0
        alpha_hat = min(1.0, 1.0 / K_a, 2.0 * (1.0 - cfg.sigma) / L)
        R = 1.0 + max(np.linalg.norm(s.x - xstar) for s in trace.steps)
        sup_ngap = max(n * (s.f - fstar) for n, s in enumerate(trace.steps))
        bound = R * R / (alpha_hat * cfg.sigma)
        assert sup_ngap <= 1.05 * bound
        worst_ratio = max(worst_ratio, sup_ngap / bound)
    report(4, f"20/20 runs: Armijo descent, step floor, sup n*(f-f*) within "
              f"{worst_ratio:.2f}x of the rate constant (<= 1.05 allowed)")


def test_criterion_5_certificate_agreement():
    rng = np.random.default_rng(505)
    for i in range(50):
        d = int(rng.integers(2, 5))
        l = 2 * d + int(rng.integers(0, 3))
        s = int(rng.integers(1, 5))
        f = generate_pa(int(rng.integers(2**31)), d, l, s)
        oracle = pa_global_min(f)
        ok, _ = check_global_opt(f, oracle.argmin)
        assert ok, f"certificate rejected the oracle argmin on instance {i}"
        found = 0
        while found < 20:
            x = rng.uniform(-4.0, 4.0, d)
            if evaluate(f, x) > oracle.value + 1e-4:
                found += 1
                ok, _ = check_global_opt(f, x)
                assert not ok, f"certificate accepted a non-optimal point on instance {i}"
    report(5, "50 instances: certificate true at the oracle argmin, "
              "false at 20 non-optimal points each (1000/1000)")


def test_criterion_6_exactness_identity():
    rng = np.random.default_rng(606)
    trees = 0
    worst = 0.0
    while trees < 50:
        d = int(rng.integers(1, 4))
        expr = random_expr(rng, int(rng.integers(1, 5)), d)
        try:
            f = expr_to_dc(expr, d=d)
        except SizeOverflow:
            continue
        trees += 1
        X = rng.normal(size=(1000, d)) * 2.0
        DX = rng.normal(size=(1000, d)) * 2.0
        plus_vals = X @ f.plus[:, 1:].T + f.plus[:, 0]
        minus_vals = X @ f.minus[:, 1:].T + f.minus[:, 0]
        hypo_off = plus_vals - plus_vals.max(axis=1, keepdims=True)
        hyper_off = minus_vals - minus_vals.min(axis=1, keepdims=True)
        expansion = (hypo_off + DX @ f.plus[:, 1:].T).max(axis=1) + (
            hyper_off + DX @ f.minus[:, 1:].T
        ).min(axis=1)
        fx = plus_vals.max(axis=1) + minus_vals.min(axis=1)
        increment = evaluate(f, X + DX) - fx
        err = np.abs(expansion - increment) - 1e-9 * (1.0 + np.abs(fx))
        assert (err <= 0).all()
        worst = max(worst, float((np.abs(expansion - increment) / (1 + np.abs(fx))).max()))
    report(6, f"50 trees x 1000 displacement pairs, worst scaled error {worst:.2e} (<= 1e-9)")


def test_criterion_7_discard_persistence(mgcd_batch):
    batch, _ = mgcd_batch
    violations = sum(len(discard_violations(f, run)) for f, _, run, _ in batch)
    assert violations == 0
    total = sum(len(run.discard_log) for _, _, run, _ in batch)
    report(7, f"zero violations re-projecting {total} discarded indices "
              "at every later iterate across all 200 runs")


def test_criterion_8_min_norm_solver():
    rng = np.random.default_rng(808)
    worst = 0.0
    worst_small = 0.0
    n_small = 0
    for i in range(10_000):
        m = int(rng.integers(1, 4)) if i % 4 == 0 else int(rng.integers(1, 65))
        k = int(rng.integers(2, 12))
        P = rng.normal(size=(m, k)) * float(rng.choice([0.3, 1.0, 4.0]))
        point, w = min_norm_point(P)
        res = wolfe_residual(P, point)
        assert res <= 1e-8
        worst = max(worst, res)
        if m <= 3:
            n_small += 1
            gap = float(np.linalg.norm(point - project_origin_small_hull(P)))
            assert gap <= 1e-8
            worst_small = max(worst_small, gap)
    report(8, f"10000 hulls: worst optimality residual {worst:.2e}; "
              f"{n_small} small hulls match the closed form to {worst_small:.2e}")


def test_criterion_9_nonnegativity_classifier():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        c = int(np.ceil(2 * np.sqrt(d))) + 1
        extra = int(rng.integers(0, 5))
        pieces = np.zeros((2 * d + extra, d + 1))
        pieces[:, 0] = rng.uniform(-3.0, 3.0, 2 * d + extra)
        for k in range(d):
            pieces[2 * k, 1 + k] = c
            pieces[2 * k + 1, 1 + k] = -c
        pieces[2 * d :, 1:] = rng.uniform(-c, c, (extra, d))
        verdict = classify_nonnegative(pieces)
        lp = min_max_affine(pieces)
        assert lp.bounded
        assert (verdict.kind == "nonnegative") == (lp.value >= -1e-9)

    # the sign test alone would accept this, but boundedness fails and is detected
    v = classify_nonnegative(np.array([[1.0, 1.0]]))
    assert v.kind == "unbounded_below" and v.a0 > 0
    report(9, "1000/1000 classifier verdicts match the brute LP verdict; "
              "positive-offset unbounded counterexample detected")
