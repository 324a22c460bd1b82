"""Tests for the benchmark harness and its CSV format."""

import csv

import numpy as np
import pytest

from cappedproj import (
    CSV_COLUMNS,
    CapacityError,
    BenchPlan,
    BenchRecord,
    InvalidInputError,
    SolverConfig,
    random_instance,
    run_benchmark,
    summarize,
    write_records,
)


def _strip_times(records):
    return [
        (r.method, r.D, r.s, r.seed, r.max_kkt_residual, r.converged) for r in records
    ]


class TestBenchPlan:
    def test_defaults_cover_the_size_grid(self):
        plan = BenchPlan()
        assert plan.sizes == (50, 100, 500, 1000, 2000, 5000, 10000, 20000, 100000)
        assert plan.repetitions == 20

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            BenchPlan(sizes=())
        with pytest.raises(InvalidInputError):
            BenchPlan(sizes=(10,), methods=())
        with pytest.raises(InvalidInputError):
            BenchPlan(sizes=(10,), methods=("simplex-annealing",))

    def test_oracle_capacity_checked_before_any_run(self):
        with pytest.raises(CapacityError):
            BenchPlan(sizes=(50,), methods=("exact", "oracle"))


# int() would truncate each count (D=2, one repetition, D=3, one iteration),
# cannot convert NaN, inf, None or a complex number, and reads a bool as 0 or 1
@pytest.mark.parametrize(
    "make",
    [
        lambda: BenchPlan(sizes=(2.7,)),
        lambda: BenchPlan(sizes=(10,), repetitions=1.9),
        lambda: random_instance(3.9, 0),
        lambda: SolverConfig(max_iters=1.5),
        lambda: random_instance(float("nan"), 1),
        lambda: BenchPlan(sizes=(10,), repetitions=float("inf")),
        lambda: SolverConfig(max_iters=float("inf")),
        lambda: random_instance(4 + 0j, 0),
        lambda: random_instance(None, 0),
        lambda: random_instance(True, 0),
        lambda: BenchPlan(sizes=(True,)),
        lambda: SolverConfig(max_iters=np.True_),
    ],
    ids=[
        "sizes", "repetitions", "random_instance", "max_iters", "nan", "inf repetitions",
        "inf max_iters", "complex", "None", "bool", "bool size", "numpy bool",
    ],
)
def test_a_count_that_is_not_whole_is_refused(make):
    with pytest.raises(InvalidInputError, match="whole number"):
        make()


def test_whole_floats_and_numpy_integers_are_counts():
    plan = BenchPlan(sizes=(5.0, np.int64(7)), repetitions=np.int32(2), base_seed=3.0)
    assert plan.sizes == (5, 7) and plan.repetitions == 2 and plan.base_seed == 3
    assert random_instance(np.int64(4), 1.0).y.size == 4
    assert SolverConfig(max_iters=5.0).max_iters == 5


class TestRunBenchmark:
    def test_record_count_and_labels(self):
        plan = BenchPlan(sizes=(50,), repetitions=2, methods=("exact",))
        records = run_benchmark(plan)
        assert len(records) == 2
        assert all(r.method == "exact" and r.D == 50 for r in records)
        assert [r.seed for r in records] == [0, 1]

    def test_methods_share_instances(self):
        plan = BenchPlan(sizes=(12,), repetitions=3, methods=("exact", "dykstra", "admm"))
        records = run_benchmark(plan)
        by_seed = {}
        for r in records:
            by_seed.setdefault(r.seed, set()).add(r.s)
        for seed, sums in by_seed.items():
            assert len(sums) == 1, f"methods saw different instances at seed {seed}"

    def test_oracle_and_exact_agree_on_small_instances(self):
        plan = BenchPlan(sizes=(8,), repetitions=3, methods=("exact", "oracle"))
        records = run_benchmark(plan)
        for r in records:
            assert r.max_kkt_residual <= 1e-8
            assert r.converged

    def test_exact_method_always_converges_with_tiny_residual(self):
        plan = BenchPlan(sizes=(30, 70), repetitions=4, methods=("exact",))
        for r in run_benchmark(plan):
            assert r.converged
            assert r.max_kkt_residual <= 1e-8

    def test_wall_times_nonnegative(self):
        plan = BenchPlan(sizes=(20,), repetitions=2, methods=("exact", "admm"))
        for r in run_benchmark(plan):
            assert r.wall_time_seconds >= 0.0

    def test_deterministic_apart_from_times(self):
        plan = BenchPlan(sizes=(25, 40), repetitions=3, methods=("exact", "dykstra"))
        first = run_benchmark(plan)
        second = run_benchmark(plan)
        assert _strip_times(first) == _strip_times(second)

    def test_base_seed_shifts_instances(self):
        a = run_benchmark(BenchPlan(sizes=(15,), repetitions=2, methods=("exact",), base_seed=0))
        b = run_benchmark(BenchPlan(sizes=(15,), repetitions=2, methods=("exact",), base_seed=50))
        assert [r.seed for r in b] == [50, 51]
        assert {r.s for r in a} != {r.s for r in b} or a[0].s != b[0].s


class TestSummarize:
    def test_groups_by_method_and_size(self):
        plan = BenchPlan(sizes=(10, 20), repetitions=3, methods=("exact", "admm"))
        stats = summarize(run_benchmark(plan))
        assert set(stats) == {("exact", 10), ("exact", 20), ("admm", 10), ("admm", 20)}
        for st in stats.values():
            assert st["runs"] == 3
            assert st["mean_time"] >= 0.0


def _rows(path):
    # the CSV's rows after its '#' line, header first
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


class TestCsvRoundTrip:
    def test_everything_survives(self, tmp_path):
        plan = BenchPlan(sizes=(10,), repetitions=2, methods=("exact", "dykstra"))
        records = run_benchmark(plan)
        path = tmp_path / "bench.csv"
        write_records(path, records)
        header, *rows = _rows(path)
        assert tuple(header) == CSV_COLUMNS
        assert len(rows) == len(records)
        for a, b in zip(records, rows):
            assert (a.method, a.D, a.seed) == (b[0], int(b[1]), int(b[3]))
            assert a.s == float(b[2])
            assert a.wall_time_seconds == float(b[4])
            assert a.max_kkt_residual == float(b[5])
            assert b[6] == ("true" if a.converged else "false")

    def test_header_and_comment_layout(self, tmp_path):
        path = tmp_path / "bench.csv"
        recs = [BenchRecord("exact", 5, 2.0, seed, 1e-5, 1e-12, True) for seed in (4, 3)]
        write_records(path, recs)
        lines = path.read_text().splitlines()
        assert lines[0] == "# generator=philox4x64-10 base_seed=3"
        assert lines[1] == ",".join(CSV_COLUMNS)

    def test_float_fields_exact_after_round_trip(self, tmp_path):
        rec = BenchRecord("admm", 3, 1.0, 9, 0.1 + 0.2, 3.0e-17, False)
        path = tmp_path / "one.csv"
        write_records(path, [rec])
        row = _rows(path)[1]
        assert float(row[4]) == rec.wall_time_seconds
        assert float(row[5]) == rec.max_kkt_residual
        assert row[6] == "false"
