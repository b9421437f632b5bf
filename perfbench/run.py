"""Solver benchmark: time to a certified optimum, end to end and per layer.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 55 --trace 0

Runs the workload's solves (``preprocess`` + ``bcp.solve``) one at a time in
this process, in the order ``--seed`` gives: one untimed warm-up solve, then
pass after pass until ``--seconds`` would be exceeded. Every answer is checked
against the stored reference. The last stdout line is the result JSON: end-to-end metrics with
``--trace 0``; with ``--trace 1``, per-layer metrics from passes that wrap the
solver's layer entry points, alternated with untraced passes so the tracing
overhead is measured. Earlier lines carry run metadata, the count fingerprint
of every pass and, when traced, each layer's share of the solve time.
``--held-out`` swaps in the workload's held-out instances (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
from spans import Tracer

# One solve at a time on one core: numpy's BLAS runs single-threaded. main()
# sets these before the solver (and so numpy) is imported; setup subprocesses
# inherit them.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 7        # setup_s is the median of this many set-ups
SOLVE_GUARD_S = 60.0  # per-solve time limit; a TimeLimit answer counts as failed
RUN_GUARD_S = 140.0   # no solve starts after this, so a run ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "solve_p50_s": "s",
    "solve_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_rdarp() -> None:
    """Import the solver from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rdarp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no solver source at {SRC / 'rdarp'}")
    sys.path.insert(0, str(SRC))
    import rdarp

    if Path(rdarp.__file__).resolve().parent != (SRC / "rdarp").resolve():
        sys.exit(f"perfbench: rdarp imported from {rdarp.__file__}, not from {SRC}")


def setup(name: str, held_out: bool) -> tuple[list[workloads.Solve], dict]:
    """What ``setup_s`` times: import the solver and generate the workload."""
    load_rdarp()
    import rdarp.bcp  # noqa: F401  (the solve path: bcp, master, lp, pricing, cuts)

    refs = workloads.load_refs()
    return workloads.build(name, held_out, refs), refs


@dataclass
class Pass:
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    fingerprint: dict = field(default_factory=dict)


def run_pass(solves, refs, deadline: float, tracer: Tracer | None = None) -> Pass:
    """Solve each item once; the gate runs outside the timed region."""
    from rdarp import bcp, instance

    out = Pass()
    nodes = columns = cuts = 0
    for s in solves:
        if time.perf_counter() > deadline:
            out.failed += 1
            print(f"{s.key}: not run, run guard of {RUN_GUARD_S:g} s reached", file=sys.stderr)
            continue
        opts = bcp.SolveOptions(time_limit=SOLVE_GUARD_S, **s.options)
        span = tracer.open(layers.ROOT_SPAN) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            inst = instance.preprocess(s.base)
            rep = bcp.solve(inst, s.mode, opts)
            error = None
        except Exception as exc:  # a solver error fails this solve, not the run
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        out.latencies.append(dt)
        out.wall += dt
        if error is None:
            error = workloads.check(s, inst, rep, refs[s.key])
            nodes, columns, cuts = nodes + rep.nodes_explored, columns + rep.columns, cuts + rep.cuts
        if error is not None:
            out.failed += 1
            print(f"{s.key}: {error}", file=sys.stderr)
    out.fingerprint = {"bcp.nodes": nodes, "bcp.columns": columns, "cuts.added": cuts}
    if tracer is not None:
        out.fingerprint["lp.calls"] = tracer.counts["lp.calls"]
    return out


def traced_pass(solves, refs, deadline: float) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    with tracer:
        layers.install(tracer)
        p = run_pass(solves, refs, deadline, tracer)
    return p, tracer


def measure(solves, refs, seconds: float, deadline: float, trace: bool):
    """Passes (untraced, or untraced/traced pairs) while another fits in ``seconds``."""
    plain: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(solves, refs, deadline))
        if trace:
            traced.append(traced_pass(solves, refs, deadline))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds or now > deadline:
            return plain, traced


def p95(values: list[float]) -> float:
    """The 95th percentile when at least 10 samples lie beyond it, else the
    median: a one-solve workload has no measurable tail."""
    if len(values) * 0.05 < 10:
        return statistics.median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the solver's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rdarp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args, solves) -> dict:
    import numpy

    from rdarp import pricing

    return {
        "workload": args.workload,
        "held_out": args.held_out,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": sorted({int(s.key.split("/")[1]) for s in solves}),
        "solves_per_pass": len(solves),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "engine": pricing.ENGINE_NAME,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "solve_guard_s": SOLVE_GUARD_S,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int, help="orders the solves of a pass")
    ap.add_argument("--seconds", required=True, type=int, help="measured time per run")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--held-out", action="store_true", help="use the held-out instances")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    os.environ.update({var: BLAS_THREADS for var in BLAS_ENV})
    if args.setup_probe:
        setup(args.workload, args.held_out)
        print(repr(time.perf_counter() - t_start))
        return 0

    solves, refs = setup(args.workload, args.held_out)
    setup_samples = [time.perf_counter() - t_start]
    probe = [sys.executable, str(Path(__file__).resolve()), *(argv or sys.argv[1:]), "--setup-probe"]
    for _ in range(0 if args.trace else SETUP_RUNS - 1):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        setup_samples.append(float(done.stdout.split()[-1]))

    solves = workloads.ordered(solves, args.seed)
    deadline = t_start + RUN_GUARD_S
    # untimed warm-up: the first call of each path (the pricing engine's lazy
    # import, allocator growth) stays out of the first timed pass
    run_pass(solves[:1], refs, deadline)
    plain, traced = measure(solves, refs, args.seconds, deadline, bool(args.trace))

    passes = plain + [p for p, _ in traced]
    attempted = len(solves) * len(passes)
    failed = sum(p.failed for p in passes)
    first = plain[0].fingerprint
    steady = all({k: p.fingerprint[k] for k in first} == first for p in passes) and all(
        p.fingerprint == traced[0][0].fingerprint for p, _ in traced)
    if not steady:
        print("count fingerprint changed between passes", file=sys.stderr)

    print(json.dumps({"meta": metadata(args, solves)}))
    print(json.dumps({"fingerprints": [p.fingerprint for p in passes]}))
    latencies = [x for p in plain for x in p.latencies]
    print(json.dumps({"summary": {"passes": len(plain), "traced_passes": len(traced),
                                  "solves_timed": len(latencies),
                                  "failed_frac": failed / attempted}}))
    if traced:
        print(json.dumps({"layers": layers.shares(traced[-1][1])}))
        per_pass = [layers.per_layer_metrics(t) for _, t in traced]
        # median_low keeps a count a whole number and a time one that was measured
        values = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall for p, _ in traced)
                                      - statistics.median(p.wall for p in plain))
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in plain),
            "solve_p50_s": statistics.median(latencies),
            "solve_p95_s": p95(latencies),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0 and steady, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
