"""Certify optimality of a projection, then watch the certificate catch a bug.

A candidate x is the projection exactly when multipliers (alpha, beta, gamma)
satisfy the first-order system: stationarity, feasibility, nonnegative
multipliers, complementary slackness.  The certificate is cheap to build and
to check, so every solve can be verified after the fact.
"""

import numpy as np

from cappedproj import certify, certify_result, project_capped_simplex, random_instance

inp = random_instance(1000, 42)
res = project_capped_simplex(inp)
cert, report = certify_result(inp, res)

print(f"instance           : D={inp.y.size}, s={inp.s}")
print(f"stationarity       : {report.stationarity_residual:.3e}")
print(f"bounds (low, high) : {report.primal_lower:.3e}, {report.primal_upper:.3e}")
print(f"sum constraint     : {report.sum_residual:.3e}")
print(f"dual feasibility   : {report.dual_residual:.3e}")
print(f"compl. slackness   : {report.cs_residual:.3e}")
print(f"passed at 1e-8     : {report.passed}")

# Multipliers are zero off their active bound, so most entries vanish.
active_low = int(np.count_nonzero(cert.alpha))
active_high = int(np.count_nonzero(cert.beta))
print(f"active multipliers : {active_low} at the floor, {active_high} at the cap")

# Now nudge one interior coordinate.  The vector still looks plausible, but
# the certificate pins down exactly which condition broke.
bad = res.x.copy()
interior = np.flatnonzero((bad > 0.01) & (bad < 0.99))
bad[interior[0]] += 1e-4
_, bad_report = certify(inp, bad)
print()
print("after a 1e-4 nudge on one interior coordinate:")
print(f"  sum residual  : {bad_report.sum_residual:.3e}")
print(f"  stationarity  : {bad_report.stationarity_residual:.3e}")
print(f"  passed        : {bad_report.passed}")
