"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line straight to the terminal (past
pytest's capture) and asserts the criterion's stated tolerances.
"""

import csv
import time

import numpy as np

from cappedproj import (
    CSV_COLUMNS,
    DEFAULT_SIZES,
    BenchPlan,
    ProjectionInput,
    SolverConfig,
    admm_project,
    certify_result,
    dykstra_project,
    enumerate_oracle,
    project_capped_box,
    project_capped_simplex,
    project_simplex,
    random_instance,
    run_benchmark,
)
from cappedproj.cli import cli_dispatch


def _verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence(capsys):
    """D in 1..8, 1000 instances per D, exact vs enumeration within 1e-9."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(1, 9):
        for seed in range(500):
            inp = random_instance(d, seed)
            res = project_capped_simplex(inp)
            ref = enumerate_oracle(inp.y, inp.s)
            worst = max(worst, float(np.max(np.abs(res.x - ref))))
        rng = np.random.default_rng(d)
        for _ in range(500):
            y = rng.random(d) - 0.5
            s = float(rng.uniform(0.0, d))
            res = project_capped_simplex(ProjectionInput(y, s))
            ref = enumerate_oracle(y, s)
            worst = max(worst, float(np.max(np.abs(res.x - ref))))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict(
            1,
            worst <= 1e-9 and elapsed < 60.0,
            f"8000 instances, worst max-norm gap {worst:.2e} (tol 1e-09), {elapsed:.1f}s (< 60s)",
        )


def test_criterion_2_kkt_certification_at_scale(capsys):
    """D in {1e3, 1e4, 1e5}, 20 instances each, residuals <= 1e-8, < 120 s each."""
    worst_resid = 0.0
    worst_time = 0.0
    for d in (1_000, 10_000, 100_000):
        for seed in range(20):
            inp = random_instance(d, seed)
            t0 = time.perf_counter()
            res = project_capped_simplex(inp)
            worst_time = max(worst_time, time.perf_counter() - t0)
            _, report = certify_result(inp, res)
            assert report.passed, (d, seed, report)
            worst_resid = max(worst_resid, report.max_residual)
    with capsys.disabled():
        _verdict(
            2,
            worst_resid <= 1e-8 and worst_time < 120.0,
            f"60 instances, worst residual {worst_resid:.2e} (tol 1e-08), "
            f"slowest solve {worst_time:.2f}s (< 120s)",
        )


def test_criterion_3_scaling_over_the_size_grid(capsys):
    """Mean wall time monotone nondecreasing over the grid, no errors.

    Sizes are visited round-robin (one repetition per sweep, 20 sweeps) so
    slow drift in machine speed hits every size equally; the comparison
    allows three standard errors because sub-millisecond means on shared
    hardware carry that much measurement noise.
    """
    records = []
    for rep in range(20):
        plan = BenchPlan(sizes=DEFAULT_SIZES, repetitions=1, methods=("exact",), base_seed=rep)
        records.extend(run_benchmark(plan))
    assert all(r.converged for r in records)
    assert max(r.max_kkt_residual for r in records) <= 1e-8

    means, sems = [], []
    for d in DEFAULT_SIZES:
        ts = np.array([r.wall_time_seconds for r in records if r.D == d])
        assert ts.size == 20
        means.append(float(ts.mean()))
        sems.append(float(ts.std(ddof=1) / np.sqrt(ts.size)))
    ok = True
    for i in range(len(DEFAULT_SIZES) - 1):
        slack = 3.0 * float(np.hypot(sems[i], sems[i + 1]))
        if means[i + 1] < means[i] - slack:
            ok = False
    summary = ", ".join(f"D={d}:{m * 1e3:.3f}ms" for d, m in zip(DEFAULT_SIZES, means))
    with capsys.disabled():
        _verdict(3, ok, f"means nondecreasing within noise across grid ({summary})")


def test_criterion_4_special_cases(capsys):
    rng = np.random.default_rng(400)
    ok = True

    for _ in range(50):
        d = int(rng.integers(1, 40))
        y = rng.normal(size=d) * 2.0
        zeros = project_capped_simplex(ProjectionInput(y, 0.0)).x
        ones = project_capped_simplex(ProjectionInput(y, float(d))).x
        ok &= bool(np.array_equal(zeros, np.zeros(d)))
        ok &= bool(np.array_equal(ones, np.ones(d)))

    worst_small = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 40))
        y = rng.normal(size=d)
        s = float(rng.uniform(0.0, 1.0))
        capped = project_capped_simplex(ProjectionInput(y, s)).x
        worst_small = max(worst_small, float(np.max(np.abs(capped - project_simplex(y, s)))))
    ok &= worst_small <= 1e-10

    pinned_cases = [
        (np.array([0.0, 5.0]), 1.0),
        (np.array([5.0, 0.0]), 1.0),
        (np.array([1.2, 0.1, 5.5, 6.5]), 2.0),
        (np.array([-4.0, -2.9, 7.0]), 2.0),
    ]
    triggered = 0
    worst_pinned = 0.0
    for y, s in pinned_cases:
        res = project_capped_simplex(ProjectionInput(y, s))
        if res.partition.a == res.partition.b:
            triggered += 1
        worst_pinned = max(worst_pinned, float(np.max(np.abs(res.x - enumerate_oracle(y, s)))))
    ok &= triggered == len(pinned_cases) and worst_pinned <= 1e-9

    with capsys.disabled():
        _verdict(
            4,
            ok,
            f"s=0/s=D exact, s<=1 gap {worst_small:.2e} (tol 1e-10), "
            f"pinned branch on {triggered}/{len(pinned_cases)} cases, gap {worst_pinned:.2e}",
        )


def test_criterion_5_property_suite_ten_thousand_trials(capsys):
    rng = np.random.default_rng(500)
    worst_idem = worst_perm = worst_shift = 0.0
    expansive = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 51))
        y = rng.normal(size=d) * float(rng.choice([0.3, 1.0, 4.0]))
        s = float(rng.uniform(0.0, d))
        x = project_capped_simplex(ProjectionInput(y, s)).x

        again = project_capped_simplex(ProjectionInput(x, s)).x
        worst_idem = max(worst_idem, float(np.max(np.abs(again - x))))

        y2 = y + rng.normal(size=d)
        x2 = project_capped_simplex(ProjectionInput(y2, s)).x
        if np.linalg.norm(x - x2) > np.linalg.norm(y - y2) + 1e-12:
            expansive += 1

        perm = rng.permutation(d)
        xp = project_capped_simplex(ProjectionInput(y[perm], s)).x
        worst_perm = max(worst_perm, float(np.max(np.abs(xp - x[perm]))))

        c = float(rng.uniform(-10.0, 10.0))
        xc = project_capped_simplex(ProjectionInput(y + c, s)).x
        worst_shift = max(worst_shift, float(np.max(np.abs(xc - x))))

    ok = (
        worst_idem <= 1e-12
        and expansive == 0
        and worst_perm <= 1e-12
        and worst_shift <= 1e-9
    )
    with capsys.disabled():
        _verdict(
            5,
            ok,
            f"10000 trials: idempotency {worst_idem:.2e} (tol 1e-12), expansive pairs {expansive}, "
            f"permutation gap {worst_perm:.2e} (tol 1e-12), shift gap {worst_shift:.2e} (tol 1e-09)",
        )


def test_criterion_6_cap_generalization(capsys):
    rng = np.random.default_rng(600)
    worst = 0.0
    for t in (0.5, 2.0, 7.3):
        for _ in range(500):
            d = int(rng.integers(1, 9))
            y = rng.normal(size=d) * 2.0
            s = float(rng.uniform(0.0, t * d))
            res = project_capped_box(ProjectionInput(y, s, t=t))
            ref = t * enumerate_oracle(y / t, min(max(s / t, 0.0), float(d)))
            worst = max(worst, float(np.max(np.abs(res.x - ref))))
    with capsys.disabled():
        _verdict(6, worst <= 1e-9, f"1500 trials over caps 0.5/2/7.3, worst gap {worst:.2e} (tol 1e-09)")


def test_criterion_7_baseline_convergence(capsys):
    rng = np.random.default_rng(700)
    cfg = SolverConfig(tol=1e-8, max_iters=100_000)
    worst = {"dykstra": 0.0, "admm": 0.0}
    failures = 0
    for k in range(100):
        d = int(rng.integers(2, 1001))
        inp = random_instance(d, 700 + k)
        exact = project_capped_simplex(inp).x
        for name, solver in (("dykstra", dykstra_project), ("admm", admm_project)):
            out = solver(inp, cfg)
            if not out.converged:
                failures += 1
            worst[name] = max(worst[name], float(np.max(np.abs(out.x - exact))))
    ok = failures == 0 and max(worst.values()) <= 1e-6
    with capsys.disabled():
        _verdict(
            7,
            ok,
            f"100 instances: dykstra gap {worst['dykstra']:.2e}, admm gap {worst['admm']:.2e} "
            f"(tol 1e-06), non-convergence count {failures}",
        )


def _rows_without_times(path):
    # a bench CSV's rows, header first, each as written but without its wall time
    column = CSV_COLUMNS.index("wall_time_seconds")
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        return [row[:column] + row[column + 1:] for row in rows]


def test_criterion_8_cli_contract(tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    vec.write_text("0.3 −0.2 1.5\n")

    ok = cli_dispatch(["project", "--s", "2", "--input", str(vec)]) == 0
    ok &= capsys.readouterr().out == "0.75 0.25 1\n"

    out = tmp_path / "x.txt"
    cli_dispatch(["project", "--s", "2", "--input", str(vec), "--output", str(out)])
    code = cli_dispatch(["verify", "--s", "2", "--input", str(out), "--against", str(vec)])
    captured = capsys.readouterr().out
    ok &= code == 0 and "passed true" in captured and "stationarity_residual" in captured

    code = cli_dispatch(["project", "--s", "-1", "--input", str(vec)])
    err = capsys.readouterr().err
    ok &= code == 3 and "infeasible" in err

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--sizes", "10,25", "--reps", "3", "--seed", "5"]
    ok &= cli_dispatch(args + ["--csv", str(csv_a)]) == 0
    ok &= cli_dispatch(args + ["--csv", str(csv_b)]) == 0
    capsys.readouterr()
    ok &= _rows_without_times(csv_a) == _rows_without_times(csv_b)

    with capsys.disabled():
        _verdict(8, ok, "golden project/verify/infeasible outputs and deterministic bench CSV")
