"""Walk through the two-valley showcase function step by step.

f(x) = min( max(|x1|, |x2|),  1 + max(2|x1 - 2|, |x2 - 2|) )

has two "valleys": a local minimum at (2, 2) with value 1 and the
global minimum at (0, 0) with value 0.  A method driven by ordinary
(sub)gradient information stalls at (2, 2): the point is inf-stationary,
so no local test can reject it.  The global codifferential can: one of
its concave pieces projects to a *negative* offset there, which both
certifies non-optimality and hands us a step that jumps straight into
the other valley.
"""

import numpy as np

from codescent import (
    check_global_opt,
    check_inf_stationary,
    evaluate,
    global_codiff,
    mgcd_run,
    pa_global_min,
    project_piece,
    worked_example,
)

f = worked_example()
x0 = np.array([2.0, 2.0])

print("f(2,2) =", evaluate(f, x0), "   f(0,0) =", evaluate(f, [0.0, 0.0]))

# The exact two-polytope model at x0: 16 hypodifferential vertices
# (from the max part) and 8 hyperdifferential vertices (from the min part).
gc = global_codiff(f, x0)
print("\nhypodifferential vertices at (2,2):")
print(gc.hypo)
print("\nhyperdifferential vertices at (2,2):")
print(gc.hyper)

# (2,2) passes every local test ...
print("\ninf-stationary at (2,2)?", check_inf_stationary(f, x0))

# ... but not the global one.  Shift the hypodifferential by each
# hyperdifferential vertex z_j and project the origin onto it: a negative
# offset a_j exposes a piece that can still certify descent.
print("\nper-piece projections at (2,2):")
for j in range(8):
    a, *v = project_piece(f, x0, j)
    print(f"  piece {j}: z = {gc.hyper[j]},  a_j = {a: .4f}, v_j = {np.array(v)}")

is_global, cert = check_global_opt(f, x0)
print("\nglobally optimal at (2,2)?", is_global)

# Piece 0 has a_0 = -1/9 < 0 and v_0 = (2/9, 2/9).  The prescribed step
# x + v_0 / a_0 jumps exactly to the origin:
proj = project_piece(f, x0, 0)
step = x0 + proj[1:] / proj[0]
print("single prescribed step lands at", step)

# The full method does exactly this, then certifies global optimality.
run = mgcd_run(f, x0)
print(f"\nmgcd: status={run.status} after {run.n_steps} step(s), "
      f"final x = {run.final_x}, f = {run.final_f:.2e}")
print("certificate offsets a_j at the end:", np.round(run.certificate.a_values, 6))

# Independent LP verification of the claimed minimum:
lp = pa_global_min(f)
print("LP oracle:", lp.status, "value", lp.value, "at", lp.argmin)
