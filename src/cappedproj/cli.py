"""Command-line front end: generate, project, verify, compare, benchmark.

Exit codes: 0 success, 1 a verification that ran but did not pass, 2 usage
errors, 3 domain errors (infeasible target, bad dimensions, capacity), 4
unreadable or unwritable files.  Diagnostics are one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .baselines import SolverConfig
from .bench import METHODS, BenchPlan, _solve_timed, run_benchmark, summarize, write_records
from .errors import CappedProjError
from .kkt import DEFAULT_TOL, KktReport, certify
from .oracle import GENERATOR_ID, random_instance
from .projection import ProjectionInput, project_capped_box

DEFAULT_DIGITS = 17


class FileFormatError(Exception):
    """Input file exists but its contents cannot be parsed as numbers."""


def read_vector(path) -> np.ndarray:
    """Vector from a UTF-8 text file: numbers split on whitespace/newlines.

    A '#' starts a comment that runs to the end of its line; the typographic
    minus sign is accepted alongside the ASCII one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    tokens = []
    for line in lines:
        tokens.extend(line.split("#", 1)[0].replace("−", "-").split())
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise FileFormatError(f"cannot parse {tok!r} in {path} as a number") from None
    return np.asarray(values, dtype=np.float64)


def write_vector(path, x, digits: int = DEFAULT_DIGITS, comment: str | None = None) -> None:
    """One number per line, optional leading '#' comment."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if comment:
                fh.write(f"# {comment}\n")
            for v in x:
                fh.write(f"{v:.{digits}g}\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def format_vector(x, digits: int = DEFAULT_DIGITS) -> str:
    return " ".join(f"{v:.{digits}g}" for v in x)


def _int_list(text: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _digits(text: str):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"digits must be an integer >= 0, got {text!r}")
    return int(text)


def _method_list(text: str):
    methods = tuple(tok for tok in text.split(",") if tok)
    if not methods:
        raise argparse.ArgumentTypeError("expected a comma-separated list of methods")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown methods {unknown}; choose from {', '.join(METHODS)}"
        )
    return methods


def _cmd_project(args) -> int:
    y = read_vector(args.input)
    inp = ProjectionInput(y=y, s=args.s, t=args.cap)
    res = project_capped_box(inp)
    if args.output:
        write_vector(args.output, res.x, args.digits)
    else:
        print(format_vector(res.x, args.digits))
    return 0


def _cmd_verify(args) -> int:
    x = read_vector(args.input)
    y = read_vector(args.against)
    inp = ProjectionInput(y=y, s=args.s, t=args.cap)
    _, report = certify(inp, x, tol=args.tol)
    residuals = [f.name for f in dataclasses.fields(KktReport) if f.name != "passed"]
    for name in residuals + ["max_residual"]:
        print(f"{name} {getattr(report, name):.17g}")
    print(f"passed {'true' if report.passed else 'false'}")
    return 0 if report.passed else 1


def _cmd_compare(args) -> int:
    y = read_vector(args.input)
    inp = ProjectionInput(y=y, s=args.s, t=args.cap)
    config = SolverConfig(tol=args.tol, max_iters=args.max_iters)

    reference = project_capped_box(inp).x

    rows = []
    for method in args.methods:
        x, iters, converged, elapsed, residual = _solve_timed(method, inp, config)
        diff = float(np.max(np.abs(x - reference)))
        rows.append((method, iters, converged, elapsed, residual, diff))

    print(f"{'method':<8} {'iters':>8} {'converged':>9} {'seconds':>12} "
          f"{'max_kkt_residual':>17} {'max_diff_vs_exact':>18}")
    for method, iters, conv, secs, resid, diff in rows:
        print(f"{method:<8} {iters:>8} {str(conv).lower():>9} {secs:>12.6f} "
              f"{resid:>17.3e} {diff:>18.3e}")
    return 0


def _cmd_bench(args) -> int:
    plan = BenchPlan(
        sizes=args.sizes,
        repetitions=args.reps,
        methods=args.methods,
        base_seed=args.seed,
    )
    try:
        # fail on a bad path before the grid runs; mode "a" leaves a file as it is
        open(args.csv, "a").close()
        records = run_benchmark(plan)
        write_records(args.csv, records)
    except OSError as exc:
        raise FileFormatError(f"cannot write {args.csv}: {exc}") from exc
    print(f"{'method':<8} {'D':>8} {'runs':>5} {'mean_seconds':>13} {'max_kkt_residual':>17}")
    for (method, d), stats in summarize(records).items():
        print(f"{method:<8} {d:>8} {stats['runs']:>5} {stats['mean_time']:>13.6f} "
              f"{stats['max_residual']:>17.3e}")
    print(f"wrote {len(records)} records to {args.csv}")
    return 0


def _cmd_gen(args) -> int:
    inp = random_instance(args.d, args.seed)
    comment = f"D={args.d} seed={args.seed} s={inp.s:.17g} generator={GENERATOR_ID}"
    write_vector(args.output, inp.y, comment=comment)
    print(f"wrote D={args.d} seed={args.seed} s={inp.s:.17g} to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capped-proj",
        description="Exact Euclidean projection onto {x : sum(x) = s, 0 <= x <= cap}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the instance options of project, verify and compare
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--s", type=float, required=True, help="sum target")
    instance.add_argument("--cap", type=float, default=1.0, help="upper bound per coordinate")

    p = sub.add_parser(
        "project", parents=[instance], help="project a vector and print or save the result"
    )
    p.add_argument("--input", required=True, help="file with the vector to project")
    p.add_argument("--output", help="write the projection here instead of stdout")
    p.add_argument("--digits", type=_digits, default=DEFAULT_DIGITS,
                   help="significant digits to print")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser(
        "verify", parents=[instance], help="check a candidate solution's optimality residuals"
    )
    p.add_argument("--input", required=True, help="file with the candidate solution x")
    p.add_argument("--against", required=True, help="file with the original vector y")
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="residual tolerance, relative to the scale of the data (README, Numerics)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", parents=[instance], help="run several methods on one instance")
    p.add_argument("--input", required=True, help="file with the vector to project")
    p.add_argument("--methods", type=_method_list, default="exact,dykstra,admm")
    p.add_argument("--tol", type=float, default=SolverConfig.tol,
                   help="iterative stopping tolerance")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="time methods over a grid of sizes, write CSV")
    p.add_argument("--sizes", type=_int_list, default=BenchPlan.sizes,
                   help="comma-separated dimensions (default: built-in grid)")
    p.add_argument("--reps", type=int, default=BenchPlan.repetitions)
    p.add_argument("--methods", type=_method_list, default=BenchPlan.methods)
    p.add_argument("--seed", type=int, default=BenchPlan.base_seed)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen", help="write a reproducible random instance to a file")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CappedProjError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
