"""Tour of the piecewise-affine calculus.

Any expression built from affine atoms with +, scalar *, max and min is
piecewise affine, and the library compiles it into the canonical
max-part + min-part form while tracking an *exact* two-polytope model:
expansions around any anchor reproduce increments exactly for all
displacements, not just infinitesimally.
"""

import numpy as np

from codescent import (
    Affine,
    Const,
    Max,
    Min,
    Scale,
    Sum,
    DCForm,
    evaluate,
    expr_eval,
    expr_to_dc,
    global_codiff,
    translate,
)

rng = np.random.default_rng(0)

# --- build f(x) = min( |x1| + |x2|, 1 + max(x1, -2 x2) ) ------------------
absx1 = Max(Affine(0, (1, 0)), Affine(0, (-1, 0)))
absx2 = Max(Affine(0, (0, 1)), Affine(0, (0, -1)))
expr = Min(Sum(absx1, absx2), Sum(Const(1.0), Max(Affine(0, (1, 0)), Scale(2.0, Affine(0, (0, -1))))))

f = expr_to_dc(expr)
print(f"compiled: {f.plus.shape[0]} max pieces + {f.minus.shape[0]} min pieces")

# compilation preserves values everywhere
X = rng.normal(size=(5, 2)) * 3
for x in X:
    assert abs(evaluate(f, x) - expr_eval(expr, x)) < 1e-12
print("pointwise agreement with direct tree evaluation: ok")

# --- the exact expansion ---------------------------------------------------
x = np.array([0.7, -1.3])
gc = global_codiff(f, x)
print("\nanchor x =", x)
for dx in rng.normal(size=(4, 2)) * 2:
    lhs = gc.expansion(dx)
    rhs = evaluate(f, x + dx) - evaluate(f, x)
    print(f"  dx = {np.round(dx, 3)}:  model {lhs:+.6f}  true {rhs:+.6f}")

# --- re-anchoring with translate matches a rebuild at the new point --------
y = np.array([-2.0, 1.0])
moved = translate(f, gc, y)
direct = global_codiff(f, y)
print("\nre-anchored model equals the directly built one:",
      np.abs(moved.hypo - direct.hypo).max() < 1e-12,
      np.abs(moved.hyper - direct.hyper).max() < 1e-12)

# --- JSON round trip --------------------------------------------------------
clone = DCForm.from_json(f.to_json())
print("JSON round trip bit-exact:",
      clone.plus.tobytes() == f.plus.tobytes() and clone.minus.tobytes() == f.minus.tobytes())
