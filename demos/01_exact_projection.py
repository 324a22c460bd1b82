"""Project a vector onto the capped simplex and inspect the solution.

The feasible set is {x : sum(x) = s, 0 <= x <= 1}.  The minimizer has a
three-block structure once coordinates are sorted: some pinned at 0, a shifted
middle, some pinned at 1.  This script walks through one small instance and
cross-checks the result against brute-force enumeration.
"""

import numpy as np

from cappedproj import ProjectionInput, enumerate_oracle, project_capped_simplex

y = np.array([0.3, -0.2, 1.5])
s = 2.0

inp = ProjectionInput(y, s)
res = project_capped_simplex(inp)

print("y           :", y)
print("sum target  :", s)
print("projection  :", res.x)
print("shift gamma :", res.gamma)

# The partition is reported against the sorted order: 'a' coordinates pinned
# at 0, then the interior, then ones.  Here nothing is pinned low, the two
# smallest entries move by gamma, and the largest hits the cap.  The masks
# at_zero and at_cap mark the same blocks in the input order.
a, b = res.partition.a, res.partition.b
print(f"partition   : {a} zeros | {b - a} interior | {y.size - b} ones")
print("at_cap mask :", res.at_cap)

# Enumeration over all 3^D pin/interior labelings gives an independent answer.
ref = enumerate_oracle(y, s)
print("enumeration :", ref)
print("agreement   :", np.max(np.abs(res.x - ref)))

# A tie instance: the gap between 0 and 5 exceeds the cap, so with s = 1 both
# coordinates pin and nothing stays interior.
tie = project_capped_simplex(ProjectionInput(np.array([0.0, 5.0]), 1.0))
print()
print("tie instance y=[0, 5], s=1 ->", tie.x, "   pinned split a = b =", tie.partition.a)
