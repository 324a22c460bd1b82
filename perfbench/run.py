"""Benchmark of cappedproj: certified-solve latency on three workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs a closed loop: it makes the next instance
(outside the clock), solves it through the library's public API, certifies
the answer, checks it, and only then moves on.  The loop runs for ``S``
seconds and for at least ``MIN_INSTANCES`` instances, so every p90 has at
least ten samples beyond it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop with a span around every call into a library layer and prints the
per-layer metrics; it also times an untraced certified solve of each
instance, alternating which goes first, to measure the tracing overhead.
Spans are kept in memory and written to ``perfbench/out`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See WORKLOADS.md for
what each workload loads and why.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as W

MIN_INSTANCES = 100
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60

# Families whose failures are a known solver defect: rows with one outlier of
# 1e5 or more get a wrong answer that certify_result catches.  Such failures
# still count in `failed`; they do not make the run incorrect.
KNOWN_DEFECT_FAMILIES = frozenset({"outlier"})

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

ns = time.perf_counter_ns


class Loop:
    """Outcome counts and per-instance timings of one timed loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_by_family = Counter()
        self.unexpected = 0
        self.busy_ns = 0
        # int64 arrays, so that bookkeeping barely moves peak_rss_mb
        self.solve_ns = array("q")
        self.certified_ns = array("q")
        self.fallback = 0
        self.raised = Counter()
        self.not_passed = 0
        self.max_residual = 0.0
        self.partitions = []  # (zeros, interior, pinned) per traced instance

    def record(self, inst, res, rep, raised_in, busy_ns):
        """Check one attempt's output and count it."""
        self.attempted += 1
        self.busy_ns += busy_ns
        ok = raised_in is None
        if raised_in is not None:
            self.raised[raised_in] += 1
        else:
            self.max_residual = max(self.max_residual, rep.max_residual)
            if res.fallback:
                self.fallback += 1
                ok = False
            if not rep.passed:
                self.not_passed += 1
                ok = False
        if not ok:
            self.failed += 1
            self.failed_by_family[inst.family] += 1
            if inst.family not in KNOWN_DEFECT_FAMILIES:
                self.unexpected += 1


def certified_attempt(lib, inst, loop: Loop) -> None:
    """ProjectionInput, project_capped_box and certify_result under one clock.

    Any raise is a failed attempt, counted by ``loop.record``.
    """
    res = rep = raised_in = None
    t0 = ns()
    try:
        inp = lib.ProjectionInput(inst.y, inst.s, inst.t)
        res = lib.project_capped_box(inp)
    except Exception:
        raised_in = "projection"
    else:
        loop.solve_ns.append(ns() - t0)
        try:
            _, rep = lib.certify_result(inp, res)
        except Exception:
            raised_in = "kkt"
    t2 = ns()
    if raised_in is None:
        loop.certified_ns.append(t2 - t0)
    loop.record(inst, res, rep, raised_in, t2 - t0)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, instance id."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.instance = array("q")

    def open(self, name, parent, inst_id):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(self.ids[name])
        self.start.append(ns())
        self.end.append(0)
        self.parent.append(parent)
        self.instance.append(inst_id)
        return len(self.end) - 1

    def close(self, idx):
        self.end[idx] = ns()

    def call(self, name, parent, inst_id, fn, *args):
        idx = self.open(name, parent, inst_id)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def durations(self, name):
        """Durations in ns of the spans called ``name``, in instance order."""
        if name not in self.ids:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        sel = names == self.ids[name]
        start = np.frombuffer(self.start, dtype=np.int64)[sel]
        end = np.frombuffer(self.end, dtype=np.int64)[sel]
        return (end - start).astype(np.float64), np.frombuffer(self.instance, dtype=np.int64)[sel]

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            instance=np.frombuffer(self.instance, dtype=np.int64),
        )


def traced_attempt(lib, inst, i, loop: Loop, tr: Tracer) -> None:
    """The certified solve with a span per layer call, then the extra calls.

    The extra calls sit outside the certified-solve span: one more
    ``sort_with_permutation`` on the same input, and ``certify`` on the
    returned point (the classification path).
    """
    res = rep = raised_in = None
    root = tr.open("certified_solve", -1, i)
    t0 = tr.start[root]
    try:
        inp = tr.call("projection.input", root, i, lib.ProjectionInput, inst.y, inst.s, inst.t)
        res = tr.call("projection.solve", root, i, lib.project_capped_box, inp)
    except Exception:
        raised_in = "projection"
    else:
        try:
            _, rep = tr.call("kkt.certify", root, i, lib.certify_result, inp, res)
        except Exception:
            raised_in = "kkt"
    tr.close(root)
    if raised_in is None:
        loop.certified_ns.append(tr.end[root] - t0)
    loop.record(inst, res, rep, raised_in, tr.end[root] - t0)
    if res is not None:
        tr.call("projection.sort", -1, i, lib.sort_with_permutation, inp.y)
        tr.call("kkt.certify_candidate", -1, i, lib.certify, inp, res.x)
        p = res.partition
        loop.partitions.append((p.a, p.b - p.a, inst.y.size - p.b))


class SetupProbes:
    """Set-up times of fresh processes, taken at even steps through a run.

    Each probe starts ``setup_probe.py``, which times its imports, its
    generator set-up and one warm-up certified solve.  Spreading the probes
    over the run makes their median see the same host as the timed loop.
    """

    def __init__(self, workload, seed, count, seconds):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.count = count
        self.step_ns = seconds * 1e9 / count
        self.samples = []

    def due(self, elapsed_ns):
        return len(self.samples) < self.count and elapsed_ns >= len(self.samples) * self.step_ns

    def take(self):
        done = subprocess.run(
            self.argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def finish(self):
        while len(self.samples) < self.count:
            self.take()
        return float(np.median(self.samples)), len(self.samples)


def run_loop(lib, wl, seconds, trace, probes=None):
    """Run the closed loop for ``seconds``, not counting time spent in probes."""
    loop, untraced = Loop(), Loop()
    tr = Tracer() if trace else None
    budget = int(seconds * 1e9)
    start = ns()
    paused = 0
    i = 0
    while i < MIN_INSTANCES or ns() - start - paused < budget:
        if probes is not None and probes.due(ns() - start - paused):
            t0 = ns()
            probes.take()
            paused += ns() - t0
        inst = wl.instance(i)
        if not trace:
            certified_attempt(lib, inst, loop)
        elif i % 2 == 0:
            traced_attempt(lib, inst, i, loop, tr)
            certified_attempt(lib, inst, untraced)
        else:
            certified_attempt(lib, inst, untraced)
            traced_attempt(lib, inst, i, loop, tr)
        i += 1
    return loop, untraced, tr


def oracle_check(lib, seed):
    """Solve the oracle rows and compare each with the enumeration oracle."""
    checked = disagreements = 0
    max_gap = 0.0
    enum_ns = []
    for inst in W.oracle_rows(seed):
        checked += 1
        try:
            x = lib.project_capped_box(lib.ProjectionInput(inst.y, inst.s, inst.t)).x
        except Exception:  # a raise on a valid row is a disagreement
            disagreements += 1
            continue
        t0 = ns()
        xo = inst.t * lib.enumerate_oracle(inst.y / inst.t, inst.s / inst.t)
        enum_ns.append(ns() - t0)
        gap = float(np.max(np.abs(x - xo)))
        max_gap = max(max_gap, gap)
        if gap > 1e-9 * max(1.0, float(np.max(np.abs(inst.y)))):
            disagreements += 1
    return {
        "checked": checked,
        "disagreements": disagreements,
        "max_gap": max_gap,
        "enumerate_ns": enum_ns,
    }


def run_baselines(lib, seed):
    iters = {"dykstra": [], "admm": []}
    times = {"dykstra": [], "admm": []}
    nonconverged = 0
    for inst in W.baseline_rows(seed):
        inp = lib.ProjectionInput(inst.y, inst.s, inst.t)
        for name, solver in (("dykstra", lib.dykstra_project), ("admm", lib.admm_project)):
            t0 = ns()
            out = solver(inp, lib.SolverConfig())
            times[name].append(ns() - t0)
            iters[name].append(out.iterations)
            nonconverged += not out.converged
    return iters, times, nonconverged


def environment(args):
    def l3_bytes():
        try:
            out = subprocess.run(
                ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
            ).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    def git_rev():
        if not (W.ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(
                ["git", "-C", str(W.ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted((W.SRC / "cappedproj").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pct_ms(samples_ns, q):
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q)) / 1e6


def end_to_end(loop, attempted, failed, setup_s, setup_n):
    n_cert, n_solve = len(loop.certified_ns), len(loop.solve_ns)
    return [
        ("certified_solve_ms_p50", pct_ms(loop.certified_ns, 50), "ms", n_cert),
        ("certified_solve_ms_p90", pct_ms(loop.certified_ns, 90), "ms", n_cert),
        ("solve_ms_p50", pct_ms(loop.solve_ns, 50), "ms", n_solve),
        ("solve_ms_p90", pct_ms(loop.solve_ns, 90), "ms", n_solve),
        ("solves_per_s", loop.attempted / (loop.busy_ns / 1e9), "1/s", loop.attempted),
        ("certified_frac", 1.0 - failed / attempted, "ratio", attempted),
        ("setup_s", setup_s, "s", setup_n),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB", 1),
    ]


def per_layer(loop, untraced, tr, oracle, baselines):
    inp_ns, _ = tr.durations("projection.input")
    solve_ns, solve_inst = tr.durations("projection.solve")
    sort_ns, sort_inst = tr.durations("projection.sort")
    cert_ns, _ = tr.durations("kkt.certify")
    cand_ns, _ = tr.durations("kkt.certify_candidate")
    root_ns, _ = tr.durations("certified_solve")
    # derived: the extra sort of an instance subtracted from its solve
    sort_of = dict(zip(sort_inst.tolist(), sort_ns.tolist()))
    after_ns = np.array([d - sort_of[k] for d, k in zip(solve_ns, solve_inst) if k in sort_of])
    certified_total = float(np.sum(root_ns))
    parts = np.asarray(loop.partitions[:MIN_INSTANCES], dtype=np.float64)
    coords = parts.sum()
    iters, btimes, nonconverged = baselines
    n = len(root_ns)
    nb = len(iters["dykstra"])
    return [
        ("projection.input_ms_p50", pct_ms(inp_ns, 50), "ms", len(inp_ns)),
        ("projection.sort_ms_p50", pct_ms(sort_ns, 50), "ms", len(sort_ns)),
        ("projection.solve_ms_p50", pct_ms(solve_ns, 50), "ms", len(solve_ns)),
        ("projection.after_sort_ms_p50", pct_ms(after_ns, 50), "ms", len(after_ns)),
        ("projection.after_sort_ms_p90", pct_ms(after_ns, 90), "ms", len(after_ns)),
        ("projection.zeros_frac", parts[:, 0].sum() / coords, "ratio", len(parts)),
        ("projection.interior_frac", parts[:, 1].sum() / coords, "ratio", len(parts)),
        ("projection.pinned_frac", parts[:, 2].sum() / coords, "ratio", len(parts)),
        ("projection.fallback_count", loop.fallback, "count", loop.attempted),
        ("projection.raised_count", loop.raised["projection"], "count", loop.attempted),
        ("kkt.certify_ms_p50", pct_ms(cert_ns, 50), "ms", len(cert_ns)),
        ("kkt.certify_candidate_ms_p50", pct_ms(cand_ns, 50), "ms", len(cand_ns)),
        ("kkt.raised_count", loop.raised["kkt"], "count", loop.attempted),
        ("kkt.not_passed_count", loop.not_passed, "count", loop.attempted),
        ("kkt.max_residual", loop.max_residual, "1", loop.attempted),
        ("projection.input_share", inp_ns.sum() / certified_total, "ratio", n),
        ("projection.sort_share", sort_ns.sum() / certified_total, "ratio", n),
        ("projection.after_sort_share", after_ns.sum() / certified_total, "ratio", n),
        ("kkt.certify_share", cert_ns.sum() / certified_total, "ratio", n),
        (
            "trace.overhead_frac",
            pct_ms(loop.certified_ns, 50) / pct_ms(untraced.certified_ns, 50) - 1.0,
            "ratio",
            n,
        ),
        ("oracle.checked", oracle["checked"], "count", oracle["checked"]),
        ("oracle.disagreements", oracle["disagreements"], "count", oracle["checked"]),
        ("oracle.max_gap", oracle["max_gap"], "1", oracle["checked"]),
        (
            "oracle.enumerate_ms_p50",
            pct_ms(oracle["enumerate_ns"], 50),
            "ms",
            len(oracle["enumerate_ns"]),
        ),
        ("baselines.dykstra_iters_p50", float(np.median(iters["dykstra"])), "count", nb),
        ("baselines.admm_iters_p50", float(np.median(iters["admm"])), "count", nb),
        ("baselines.dykstra_ms_p50", pct_ms(btimes["dykstra"], 50), "ms", nb),
        ("baselines.admm_ms_p50", pct_ms(btimes["admm"], 50), "ms", nb),
        ("baselines.nonconverged_count", nonconverged, "count", 2 * nb),
    ]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    lib = W.import_library()
    env = environment(args)
    wl = W.WORKLOADS[args.workload](args.seed)

    probes = None
    if not args.trace:
        probes = SetupProbes(args.workload, args.seed, SETUP_PROBES, args.seconds)
    W.warm_up(lib, wl)
    oracle = oracle_check(lib, args.seed)
    loop, untraced, tr = run_loop(lib, wl, args.seconds, args.trace, probes)

    attempted = loop.attempted + oracle["checked"]
    failed = loop.failed + oracle["disagreements"]
    if args.trace:
        rows = per_layer(loop, untraced, tr, oracle, run_baselines(lib, args.seed))
    else:
        rows = end_to_end(loop, attempted, failed, *probes.finish())
    # the untraced solves of a traced run are checked too, though only the
    # traced ones are counted in `attempted` and `failed`
    correct = loop.unexpected == 0 and untraced.unexpected == 0 and oracle["disagreements"] == 0

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {loop.attempted} timed"
        f" instances, {oracle['checked']} oracle rows; failed {failed}/{attempted}"
        f" (fail_frac {failed / attempted:.6g}) by family {dict(loop.failed_by_family)}"
    )
    for name, value, unit, n in rows:
        print(f"{name:32s} {value:>16.6g} {unit:6s} n={n}")

    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tr.save(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, v, u, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
