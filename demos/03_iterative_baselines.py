"""Compare the direct solver against two iterative splitting methods.

Dykstra's alternating projections and an ADMM splitting both solve the same
problem by trading between the plain simplex and the box.  They are useful
baselines: simple to reason about, but they pay per-iteration sorting costs
and only reach the answer in the limit, while the direct method lands on the
exact partition in one pass.
"""

import time

import numpy as np

from cappedproj import (
    ProjectionInput,
    SolverConfig,
    admm_project,
    dykstra_project,
    project_capped_simplex,
)

# A spread-out instance: with values this wide both bounds end up active,
# so the iterative methods really have to alternate between the two sets.
rng = np.random.default_rng(7)
inp = ProjectionInput(3.0 * rng.standard_normal(2000), 900.0)
cfg = SolverConfig(tol=1e-8, max_iters=100_000)

project_capped_simplex(ProjectionInput(np.zeros(4), 1.0))  # warm-up: imports and first-call costs

t0 = time.perf_counter()
exact = project_capped_simplex(inp)
t_exact = time.perf_counter() - t0

print(f"instance: D={inp.y.size}, s={inp.s}")
print(f"{'method':<10} {'iterations':>10} {'seconds':>10} {'max error vs exact':>20}")
print(f"{'exact':<10} {'-':>10} {t_exact:>10.4f} {0.0:>20.1e}")

for name, solver in (("dykstra", dykstra_project), ("admm", admm_project)):
    t0 = time.perf_counter()
    out = solver(inp, cfg)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(out.x - exact.x)))
    print(f"{name:<10} {out.iterations:>10} {elapsed:>10.4f} {err:>20.1e}")
