"""Instance generators for the benchmark workloads, and the library import.

Every instance is a pure function of ``(seed, stream, index)``: a Philox
generator keyed by the seed, with the stream and the index in its counter.
Instances are made one at a time, outside any timed region, so the process
never holds more than the instance being solved.

The fraction ``u`` that sets the sum target is taken from a golden-ratio
sequence with a random start drawn from the seed.  Each ``u`` is still
uniform on its range, but the first ``n`` of them cover the range evenly for
every ``n``, so a time-bounded run sees the same mix of easy and hard
targets whatever its length.  The solver's cost on ``topk_sparse`` depends
strongly on the target, so this keeps the percentiles steady from seed to
seed without changing the distribution.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# counter word that separates the independent draws of one seed
STREAM_MAIN = 1
STREAM_ORACLE = 2
STREAM_BASELINE = 3
STREAM_LATTICE = 4
STREAM_WARMUP = 5

# sum-target fraction of the warm-up instance: fixed, so that the warm-up
# solve, and with it setup_s, does the same amount of work for every seed
WARMUP_U = 0.5

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ROW_FAMILIES = ("uniform", "ties", "cap", "outlier")


def import_library():
    """Import ``cappedproj`` from the checkout's ``src`` and nowhere else.

    Exits with a nonzero status when the sources are missing, so that a
    directory holding only the benchmark fails instead of measuring an
    installed copy.
    """
    if not (SRC / "cappedproj" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import cappedproj

    if Path(cappedproj.__file__).resolve().parent != SRC / "cappedproj":
        sys.exit(f"perfbench: imported cappedproj from {cappedproj.__file__}, not {SRC}")
    return cappedproj


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    counter = np.array([0, 0, index, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@dataclass
class Instance:
    """Inputs handed to the library, plus the label the checks need."""

    y: np.ndarray
    s: float
    t: float
    family: str


class Lattice:
    """Golden-ratio sequence on [0, 1) with one random start per (seed, key)."""

    def __init__(self, seed: int, key: int):
        self.start = float(rng_for(seed, STREAM_LATTICE, key).random())

    def __call__(self, i: int) -> float:
        return (self.start + i * GOLDEN) % 1.0


def _uniform_y(rng, d):
    return rng.random(d) - 0.5


def row_instance(family: str, d: int, u: float, rng) -> Instance:
    """One row of ``rows_minibatch`` (also used at D <= 8 for the oracle)."""
    if family == "uniform":
        return Instance(_uniform_y(rng, d), u * d, 1.0, family)
    if family == "ties":
        y = np.round(_uniform_y(rng, d) * 8.0) / 8.0
        return Instance(y, float(round(u * d)), 1.0, family)
    if family == "cap":
        t = 10.0 ** rng.uniform(-1.0, 1.0)
        return Instance(_uniform_y(rng, d) * 2.0 * t, u * t * d, t, family)
    if family == "outlier":
        y = _uniform_y(rng, d)
        k = int(rng.integers(d))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        y[k] = sign * 10.0 ** rng.uniform(0.0, 12.0)
        return Instance(y, u * d, 1.0, family)
    raise ValueError(f"unknown row family {family!r}")


class Workload:
    """A named stream of instances; ``instance(i)`` is the i-th of the run.

    Subclasses give ``make(rng, u)``: one instance from a generator and a
    fraction ``u`` in [0, 1) that sets the sum target.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.lattice = Lattice(seed, 0)

    def make(self, rng, u: float) -> Instance:
        raise NotImplementedError

    def instance(self, i: int) -> Instance:
        return self.make(rng_for(self.seed, STREAM_MAIN, i), self.lattice(i))

    def warmup(self) -> Instance:
        return self.make(rng_for(self.seed, STREAM_WARMUP, 0), WARMUP_U)


class TopkSparse(Workload):
    """Soft top-s selection: most coordinates end at zero."""

    name = "topk_sparse"
    D = 4096

    def make(self, rng, u):
        s = math.floor((0.02 + 0.18 * u) * self.D)
        return Instance(_uniform_y(rng, self.D), float(s), 1.0, "topk")


class DenseCap(Workload):
    """Constrained weight update of a large, nearly feasible vector."""

    name = "dense_cap"
    D = 262144

    def make(self, rng, u):
        return Instance(_uniform_y(rng, self.D), (0.5 + 0.45 * u) * self.D, 1.0, "dense")


class RowsMinibatch(Workload):
    """Small rows, one call each, in four families rotating in equal shares.

    Each family draws its ``u`` from its own sequence, so every family covers
    its range evenly; the warm-up row is a ``uniform`` one.
    """

    name = "rows_minibatch"
    D = 64

    def __init__(self, seed):
        super().__init__(seed)
        self.lattices = [self.lattice] + [Lattice(seed, k) for k in range(1, len(ROW_FAMILIES))]

    def make(self, rng, u, family="uniform"):
        return row_instance(family, self.D, 0.05 + 0.9 * u, rng)

    def instance(self, i):
        k, j = i % len(ROW_FAMILIES), i // len(ROW_FAMILIES)
        return self.make(rng_for(self.seed, STREAM_MAIN, i), self.lattices[k](j), ROW_FAMILIES[k])


WORKLOADS = {w.name: w for w in (TopkSparse, DenseCap, RowsMinibatch)}


def warm_up(lib, wl: Workload) -> None:
    """One certified solve on the workload's warm-up instance."""
    inst = wl.warmup()
    inp = lib.ProjectionInput(inst.y, inst.s, inst.t)
    lib.certify_result(inp, lib.project_capped_box(inp))


# Rows checked against the enumeration oracle in every run: ORACLE_PER_CELL
# rows for each D in 1..8 and each family below.  Outlier rows are left out:
# with outliers of 1e5 and more the oracle's own answer is off by more than
# 1e-9 on a few percent of rows, so a gap there would not say which side is
# wrong.  certify_result still checks every outlier row of the timed loop.
ORACLE_FAMILIES = ("uniform", "ties", "cap")
ORACLE_DIMS = range(1, 9)
ORACLE_PER_CELL = 4


def oracle_rows(seed: int):
    i = 0
    for d in ORACLE_DIMS:
        for family in ORACLE_FAMILIES:
            for _ in range(ORACLE_PER_CELL):
                rng = rng_for(seed, STREAM_ORACLE, i)
                yield row_instance(family, d, 0.05 + 0.9 * rng.random(), rng)
                i += 1


# Uniform rows of rows_minibatch run through the iterative baselines in the
# traced run.  Outlier rows are left out: Dykstra reaches its iteration cap
# on them, at seconds per row.
BASELINE_ROWS = 32


def baseline_rows(seed: int):
    for i in range(BASELINE_ROWS):
        rng = rng_for(seed, STREAM_BASELINE, i)
        yield row_instance("uniform", RowsMinibatch.D, 0.05 + 0.9 * rng.random(), rng)
