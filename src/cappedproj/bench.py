"""Timing harness comparing the exact solver against the baselines.

Each (size, repetition) pair maps to one random instance whose seed is
base_seed + repetition, so every method sees identical inputs and a plan is
reproducible from its fields alone.  Wall times cover only the solve call;
certification runs outside the clock and its worst residual is recorded next
to the time.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .baselines import admm_project, dykstra_project
from .errors import CapacityError, InvalidInputError
from .kkt import certify, certify_result
from .oracle import GENERATOR_ID, ORACLE_MAX_DIM, enumerate_oracle, random_instance
from .projection import _whole, project_capped_box


def _exact(inp, config):
    res = project_capped_box(inp)
    return res.x, 1, True, lambda: certify_result(inp, res)[1]


def _iterative(solver):
    def solve(inp, config):
        out = solver(inp, config)
        return out.x, out.iterations, out.converged, lambda: certify(inp, out.x)[1]

    return solve


def _oracle(inp, config):
    # the oracle solves the unit cap only, so it alone rescales by t
    t = inp.t
    x = t * enumerate_oracle(inp.y / t, min(inp.s / t, float(inp.y.size)))
    return x, 1, True, lambda: certify(inp, x)[1]


# Every method the bench and the CLI can run.  An entry maps (inp, config) to
# (x, iterations, converged, certify_step); callers time the entry and run
# certify_step, which returns the KktReport of x, outside their clock.
METHODS = {
    "exact": _exact,
    "dykstra": _iterative(dykstra_project),
    "admm": _iterative(admm_project),
    "oracle": _oracle,
}

DEFAULT_SIZES = (50, 100, 500, 1000, 2000, 5000, 10000, 20000, 100000)

CSV_COLUMNS = ("method", "D", "s", "seed", "wall_time_seconds", "max_kkt_residual", "converged")


@dataclass
class BenchRecord:
    """One timed solve: who ran, on what, how long, how accurate."""

    method: str
    D: int
    s: float
    seed: int
    wall_time_seconds: float
    max_kkt_residual: float
    converged: bool


@dataclass
class BenchPlan:
    """Sizes, repetitions per size, methods to run, and the seed base."""

    sizes: tuple = DEFAULT_SIZES
    repetitions: int = 20
    methods: tuple = ("exact",)
    base_seed: int = 0

    def __post_init__(self):
        self.sizes = tuple(_whole(d, "size", 1) for d in self.sizes)
        self.methods = tuple(self.methods)
        self.repetitions = _whole(self.repetitions, "repetitions", 1)
        self.base_seed = _whole(self.base_seed, "base_seed", 0)
        if not self.sizes:
            raise InvalidInputError("sizes must be a nonempty list of positive dimensions")
        if not self.methods:
            raise InvalidInputError("methods must name at least one solver")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise InvalidInputError(f"unknown methods {unknown}; choose from {list(METHODS)}")
        if "oracle" in self.methods and max(self.sizes) > ORACLE_MAX_DIM:
            raise CapacityError(
                f"oracle cannot run beyond D={ORACLE_MAX_DIM}, plan asks for D={max(self.sizes)}"
            )


def _solve_timed(method, inp, config):
    """(x, iterations, converged, seconds, max_residual); the certificate runs off the clock."""
    t0 = time.perf_counter()
    x, iters, converged, certify_step = METHODS[method](inp, config)
    elapsed = time.perf_counter() - t0
    return x, iters, converged, elapsed, certify_step().max_residual


def run_benchmark(plan: BenchPlan) -> list[BenchRecord]:
    """Records for every (size, repetition, method) triple in the plan.

    Before any timing, each requested method is run once on a small throwaway
    instance so one-time costs (imports, allocator warm-up) do not land
    in the first measurement.
    """
    warmup = random_instance(4, plan.base_seed)
    for method in plan.methods:
        _solve_timed(method, warmup, None)

    records = []
    for d in plan.sizes:
        for rep in range(plan.repetitions):
            seed = plan.base_seed + rep
            inp = random_instance(d, seed)
            for method in plan.methods:
                _, _, converged, elapsed, residual = _solve_timed(method, inp, None)
                records.append(
                    BenchRecord(
                        method=method,
                        D=d,
                        s=inp.s,
                        seed=seed,
                        wall_time_seconds=elapsed,
                        max_kkt_residual=residual,
                        converged=converged,
                    )
                )
    return records


def summarize(records) -> dict:
    """Mean wall time and worst residual per (method, D), keyed by that pair."""
    groups = {}
    for r in records:
        groups.setdefault((r.method, r.D), []).append(r)
    out = {}
    for key in sorted(groups):
        rs = groups[key]
        out[key] = {
            "mean_time": float(np.mean([r.wall_time_seconds for r in rs])),
            "max_residual": max(r.max_kkt_residual for r in rs),
            "runs": len(rs),
            "all_converged": all(r.converged for r in rs),
        }
    return out


def write_records(path, records) -> None:
    """CSV with a fixed header after one '#' line naming the generator and the seed base.

    The seed base is the smallest seed among the records; floats are written
    with repr so that parsing them back gives the same doubles.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# generator={GENERATOR_ID} base_seed={min(r.seed for r in records)}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.method,
                    r.D,
                    repr(float(r.s)),
                    r.seed,
                    repr(float(r.wall_time_seconds)),
                    repr(float(r.max_kkt_residual)),
                    "true" if r.converged else "false",
                ]
            )
