import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codescent import (
    ConvexPAView,
    MHDConfig,
    evaluate,
    generate_pa,
    line_search_pa,
    max_quadratics,
    mgcd_run,
    mhd_run,
    pa_global_min,
    random_start,
    theta_lower_bound,
    worked_example,
)
from codescent.problems import GEN_OFFSET, GEN_RHO, _rng, _short_gradient
from conftest import instance_grid


def test_generate_deterministic_bitwise():
    a = generate_pa(1, 2, 6, 3)
    b = generate_pa(1, 2, 6, 3)
    assert a.plus.tobytes() == b.plus.tobytes()
    assert a.minus.tobytes() == b.minus.tobytes()
    c = generate_pa(2, 2, 6, 3)
    assert a.plus.tobytes() != c.plus.tobytes() or a.minus.tobytes() != c.minus.tobytes()


def test_generated_instances_bounded():
    # generate_pa relies on its construction alone; the LP oracle confirms it
    # here and on the benchmark's pinned ladder rungs, convex instances and
    # scale sweep (acceptance criterion 2 does so on the grid)
    instances = [generate_pa(seed, 3, 7, 4) for seed in range(8)]
    instances += [generate_pa(seed, d, l, s) for d, l, s, seed in PINNED_LADDER]
    instances += [generate_pa(seed, d, l, 1) for d, l, seed in PINNED_CONVEX]
    instances += [generate_pa(42, 3, 8, 4, scale=10.0**k) for k in PINNED_SCALE]
    for f in instances:
        assert pa_global_min(f).bounded


def test_generate_scale_scales_values(rng):
    f1 = generate_pa(4, 2, 5, 2, scale=1.0)
    f2 = generate_pa(4, 2, 5, 2, scale=2.5)
    x = rng.normal(size=2)
    assert evaluate(f2, x) == pytest.approx(2.5 * evaluate(f1, x), rel=1e-12)


def test_generate_validates_arguments():
    with pytest.raises(ValueError):
        generate_pa(0, 2, 3, 1)  # l < 2 d
    with pytest.raises(ValueError):
        generate_pa(0, 2, 4, 0)
    # 0 would give the zero function, a negative scale not -f (max(-a) != -max(a))
    for scale in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="scale"):
            generate_pa(0, 2, 4, 1, scale=scale)


# sha256 of plus.tobytes() + minus.tobytes() with the gradients drawn one row
# per draw (rejection_loop below): the benchmark's ladder rungs (d, l, s, seed),
# its convex MHD instances (d, l, seed; s = 1), and the scale sweep
# generate_pa(42, 3, 8, 4, scale=10**k)
PINNED_LADDER = {
    (6, 40, 8, 0): "09595a83f8990ff118f35aac4606a58b170018ec97ad7ce3f56efdde919a13f3",
    (8, 60, 10, 0): "4790ef3be8fcd4cde941d6fb33624a06feb63466dfaf01cd9a72a1d763b11b2a",
    (10, 80, 20, 0): "52ac2e4600c740727f1895ae5a74d8ea1b9f4e6af14f36a34d555805ff1bb0ed",
    (10, 80, 20, 7): "1d74afeb2227b6a3c59afe676ddf3cebba4504a09de9422324760db044716071",
    (12, 120, 24, 0): "4ae1f03126004d47ec7da79545c3478e76a0e3a2cbeadac8c8c9674f83e2b43d",
}
PINNED_CONVEX = {
    (3, 8, 1): "2842c955bf085b4f22b9cff3e9725088d65d1e319b4d8eccb48a91619de73669",
    (4, 10, 2): "d72fdd38792f03341eae36351450ebb073824314c046384bf488991d24511d7e",
    (5, 12, 3): "f75bc55c2d3ef103233242c161f4e00814269385b526ac86fe50371ce91ba6a2",
    (6, 16, 4): "c1613b0f149e8b2dc8d93d9c0fb245eeaf6a6f84c57c4bb197f387ff17776e5b",
    (8, 24, 5): "d3e1e72faba0034fe2c14283d1263de63a40270d71b44df5ce853d270ce41e9b",
    (10, 40, 6): "fd9dc83ac00a587851d63ed5680a2a79d51f103fda87d67a8a9bd7e3ed371b0c",
}
PINNED_SCALE = {
    -6: "32230bb45a8a9a77f6350e5d7ef9c1bcf1bad22cd8bb591dd8132fdd906acc61",
    -5: "85a9fd968ca2549c8565ddfcebf37b3c5750082230ca48b8ca16f23cfb10cd85",
    -4: "329982e44ed94c105dea513d4342f17604046ef5728a831ab285d8f54ba49659",
    -3: "f612b7eb87359d9402596c1a66f03942ef59beb774e8d652faa89a64557cb5ad",
    -2: "876af3f41e8ef3d80f59b8658b5c2d953b875db06fc6bfe9343d068de6fc007e",
    -1: "8f15748e3074279b89c578970d814e786e5e271bd7ba36e479c2bbe4cbd320eb",
    0: "628cf923c50fd05f7cf9a652fc4375e5e8254922d7cad1eec821ac397e117c6c",
    1: "ba09c1e47d9483f2e66fbf3f7dcfa08b5efd4ec8eb0cb328a6e92dd57e4471c6",
    2: "430d053365f7aa58dfea8c849f73a85fa59378e67f62cfa1053c9accaa477b0c",
    3: "b284d84e4eeba854e4944bc82927dd93c6aa668ef2604549483beda2917f23e3",
    4: "5833bd73a2a52cc24d97b2db908e14bdf6e80dc2a0b5a649960db9018dc6972f",
    5: "bc7ec37812a0e33d7f4679642eab38515a416c2b4525fc6165c1d21d55d6c11c",
    6: "b434c65e8c9732d35447ce392a81bced5238cd6eda03b6a8c8b48d0d4683c09d",
}
# one sha256 over the 200 acceptance-grid instances in grid order
PINNED_GRID = "31206f0d2259d12da7165894b674c163e1531e73178b2502bdccd30d6cfdc881"


def instance_bytes(f):
    return f.plus.tobytes() + f.minus.tobytes()


def test_generated_instances_pinned():
    for (d, l, s, seed), digest in PINNED_LADDER.items():
        assert hashlib.sha256(instance_bytes(generate_pa(seed, d, l, s))).hexdigest() == digest
    for (d, l, seed), digest in PINNED_CONVEX.items():
        assert hashlib.sha256(instance_bytes(generate_pa(seed, d, l, 1))).hexdigest() == digest
    for k, digest in PINNED_SCALE.items():
        f = generate_pa(42, 3, 8, 4, scale=10.0**k)
        assert hashlib.sha256(instance_bytes(f)).hexdigest() == digest
    h = hashlib.sha256()
    for d, l, s, seed in instance_grid():
        h.update(instance_bytes(generate_pa(seed, d, l, s)))
    assert h.hexdigest() == PINNED_GRID


def rejection_loop(rng, d):
    """The reference sampler: one candidate row per draw."""
    while True:
        w = rng.integers(-GEN_RHO, GEN_RHO + 1, size=d)
        if w @ w <= GEN_RHO * GEN_RHO:
            return w


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), d=st.integers(1, 8), s=st.integers(1, 6))
def test_short_gradient_matches_rejection_loop(seed, d, s):
    # the same rows and the same generator state after each gradient and
    # after the offset drawn between gradients, as in generate_pa
    streams = []
    for sampler in (_short_gradient, rejection_loop):
        rng = _rng(seed)
        out = []
        for _ in range(s):
            w = sampler(rng, d)
            out.append((w.dtype, w.tolist(), rng.bit_generator.state))
            out.append(int(rng.integers(-GEN_OFFSET, GEN_OFFSET + 1)))
        streams.append((out, rng.bit_generator.state))
    assert streams[0] == streams[1]


def test_convex_instance_mgcd_agrees_with_exact_descent():
    # s = 1 makes the instance convex; the explicit-step method and
    # hypodifferential descent with exact line search must agree
    for seed in (0, 1, 2):
        f = generate_pa(seed, 2, 5, 1)
        x0 = random_start(seed, 2)
        run = mgcd_run(f, x0)
        assert run.status == "global_min"

        view = ConvexPAView(f)
        trace = mhd_run(
            view,
            x0,
            MHDConfig(max_iter=500),
            exact_line_search=lambda x, v: line_search_pa(f, x, v).alpha,
        )
        assert trace.status == "stationary"
        assert abs(trace.final_f - run.final_f) <= 1e-8
        assert abs(run.final_f - pa_global_min(f).value) <= 1e-8


def test_theta_lower_bound_positive_and_modest():
    for d in (1, 2, 5):
        t = theta_lower_bound(d)
        assert 0 < t < 1
    assert theta_lower_bound(2, scale=2.0) == pytest.approx(4.0 * theta_lower_bound(2))


def test_theta_lower_bound_validates_arguments():
    # the inputs generate_pa rejects have no instances to bound
    for d, scale in ((0, 1.0), (2, 0.0), (2, -1.0), (2, math.nan), (2, math.inf)):
        with pytest.raises(ValueError, match="scale"):
            theta_lower_bound(d, scale)


def test_random_start_deterministic():
    assert np.array_equal(random_start(7, 3), random_start(7, 3))
    assert not np.array_equal(random_start(7, 3), random_start(8, 3))


def test_worked_example_values():
    f = worked_example()
    assert f.d == 2
    assert f.plus.shape == (16, 3) and f.minus.shape == (8, 3)
    assert evaluate(f, [2.0, 2.0]) == 1.0
    assert evaluate(f, [0.0, 0.0]) == 0.0
    assert evaluate(f, [0.5, 0.25]) == 0.5


@pytest.mark.parametrize("d, k", [(0, 5), (3, 0), (-1, 2)])
def test_max_quadratics_rejects_empty_sizes(d, k):
    with pytest.raises(ValueError, match="d >= 1 and k >= 1"):
        max_quadratics(0, d=d, k=k)


def test_max_quadratics_metadata():
    fn, L, x0 = max_quadratics(5, d=6, k=3)
    fn2, L2, x02 = max_quadratics(5, d=6, k=3)
    assert L == L2 and np.array_equal(x0, x02)
    assert len(fn.children) == 3 and x0.size == 6
    assert all(q.lipschitz_grad <= L + 1e-12 for q in fn.children)
    assert L <= 8.0 + 1e-9
