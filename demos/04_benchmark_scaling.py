"""Time the solvers over a grid of sizes and write the records to CSV.

Every method sees identical instances (seeds are shared per repetition), the
clock covers only the solve call, and each record carries the worst
optimality residual of the returned vector, so accuracy and speed land in
the same table.
"""

from cappedproj import BenchPlan, run_benchmark, summarize, write_records

plan = BenchPlan(
    sizes=(50, 100, 500, 1000, 5000),
    repetitions=10,
    methods=("exact", "dykstra", "admm"),
    base_seed=0,
)
records = run_benchmark(plan)

print(f"{'method':<10} {'D':>6} {'mean seconds':>14} {'worst residual':>16} {'all converged':>14}")
for (method, d), st in summarize(records).items():
    print(
        f"{method:<10} {d:>6} {st['mean_time']:>14.6f} "
        f"{st['max_residual']:>16.2e} {str(st['all_converged']):>14}"
    )

out = "bench_demo.csv"
write_records(out, records)
print()
print(f"wrote {len(records)} records to {out}")
print("the same table is available from the command line:")
print("  capped-proj bench --sizes 50,100,500,1000,5000 --reps 10 \\")
print("      --methods exact,dykstra,admm --csv bench.csv")
