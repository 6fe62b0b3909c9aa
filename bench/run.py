"""Audit benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload audit-lp --seed 7 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it list every metric with its unit and the environment.
Everything the run writes goes under ``.bench_out/`` in the repository.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads for every timed run; never more than the cores we have.
BLAS_THREADS = 1
SETUP_SAMPLES = 5
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
# the acceptance seed; README.md names the held-out seed for gain claims
DEFAULT_SEED = 7


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long the timed repetitions run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: child processes this script starts itself
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--once", type=Path, default=None, help=argparse.SUPPRESS)
    p.add_argument("--blas-threads", type=int, default=BLAS_THREADS, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas(threads: int) -> None:
    """Must run before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(threads)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": source_sha256(ROOT / "src" / "graphmia"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "machine": platform.machine(),
    }


def source_sha256(path: Path) -> str:
    """sha256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample(args: argparse.Namespace) -> float:
    """Wall time of a fresh process that does this run's set-up and exits."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


class Repetitions:
    """Timed repetitions of one workload, with their output checks."""

    def __init__(self, workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.count = 0

    def one(self, tracer=None) -> float:
        from workloads import report_bytes

        out = self.work / f"rep{self.count}"
        out.mkdir()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        outcome = self.workload.run(out)
        seconds = time.perf_counter() - t0
        ops = self.workload.check(outcome, out)
        reports = report_bytes(out)
        if self.reference is None:
            self.reference = reports
        for op in ops:
            error = op.error
            if error is None and op.name in self.reference and reports.get(op.name) != self.reference[op.name]:
                error = "report bytes differ from the first repetition"
            self.attempted += 1
            if error is not None:
                self.failures.append(f"rep {self.count} {op.name}: {error}")
        shutil.rmtree(out)
        self.count += 1
        return seconds

    def for_seconds(self, seconds: float, step, min_steps: int, between=None) -> None:
        """Call ``step`` (one or more repetitions) until the next call would
        take the steps past ``seconds``, but at least ``min_steps`` times.
        ``between`` runs after each step, outside the time budget."""
        times: list[float] = []
        while True:
            t0 = time.perf_counter()
            step()
            times.append(time.perf_counter() - t0)
            if between is not None:
                between()
            if len(times) >= min_steps and sum(times) + statistics.median(times) > seconds:
                return


def determinism_check(args: argparse.Namespace, work: Path) -> dict:
    """Report sha of one audit-lp repetition under 1 and 2 BLAS threads."""
    from workloads import report_bytes, reports_sha256

    shas = {}
    for threads in (1, 2):
        out = work / f"blas{threads}"
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", "audit-lp",
             "--seed", str(args.seed), "--once", str(out), "--blas-threads", str(threads)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        shas[threads] = reports_sha256(report_bytes(out))
    return {"sha_blas1": shas[1], "sha_blas2": shas[2], "equal": shas[1] == shas[2]}


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "graphmia" / "__init__.py").is_file():
        print(f"error: no graphmia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas(args.blas_threads)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    from workloads import WORKLOADS, report_name, reports_sha256

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.once is not None:
        args.once.mkdir(parents=True)
        workload.setup(args.seed, args.once)
        workload.run(args.once)
        return 0

    import numpy  # noqa: F401  (set-up includes the numerics imports)
    import tracing

    OUT_ROOT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_ROOT / f"{tag}-{os.getpid()}"
    work.mkdir()
    try:
        workload.setup(args.seed, work)
        if args.setup_only:
            return 0
        declared = declared_metrics(args.trace)
        # set-up samples are spread over the run, one after each step, so
        # that they do not all fall into one phase of the host's load
        setup_s: list[float] = []

        def sample_setup() -> None:
            setup_s.append(setup_sample(args))

        reps = Repetitions(workload, work)
        untraced: list[float] = []
        record = {
            "workload": args.workload,
            "why": workload.why,
            "env": environment(args.seed),
            "untraced_audit_s": untraced,
            "setup_s_samples": setup_s,
        }
        if args.trace == 0:
            reps.for_seconds(args.seconds, lambda: untraced.append(reps.one()), MIN_REPS,
                            sample_setup)
            while len(setup_s) < SETUP_SAMPLES:
                sample_setup()
            measured = {
                "audit_s": statistics.median(untraced),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": peak_rss_mb(),
            }
        else:
            # untraced and traced repetitions alternate, so that both see
            # the same host conditions and their difference is the overhead
            tracer = tracing.Tracer()
            traced: list[float] = []
            summaries: list[dict] = []

            def pair() -> None:
                untraced.append(reps.one())
                restore = tracer.install()
                try:
                    traced.append(reps.one(tracer))
                finally:
                    restore()
                summaries.append(tracer.summary())

            reps.for_seconds(args.seconds, pair, MIN_TRACED_PAIRS)
            tracer.dump(OUT_ROOT / f"{tag}.spans.txt")
            measured = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
            base = statistics.median(untraced)
            measured["trace_overhead_frac"] = (statistics.median(traced) - base) / base
            record["traced_audit_s"] = traced
            if args.workload == "audit-lp":
                record["determinism"] = determinism_check(args, work)
            full = reps.reference.get(report_name("similarity", "full", args.seed))
            measured["quality.similarity_full_acc"] = json.loads(full)["acc"] if full else 0.0
        measured["failed_frac"] = len(reps.failures) / reps.attempted
        record["report_sha256"] = reports_sha256(reps.reference or {})
        record["repetitions"] = reps.count
        record["attempted"] = reps.attempted
        record["failures"] = reps.failures
        record["measured"] = measured
        correct = not reps.failures and record.get("determinism", {}).get("equal", True)
        (OUT_ROOT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

        missing = sorted(set(declared) - set(measured))
        if missing:
            print(f"error: declared metrics not measured: {missing}", file=sys.stderr)
            return 3
        print(f"env {json.dumps(record['env'], sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed}: {reps.count} repetitions, "
              f"report sha256 {record['report_sha256']}")
        for failure in reps.failures:
            print(f"FAILED {failure}")
        for name, unit in declared.items():
            print(f"{name} {measured[name]!r} {unit}")
        print(json.dumps({
            "correct": bool(correct),
            "attempted": reps.attempted,
            "failed": len(reps.failures),
            "metrics": {name: {"value": measured[name], "unit": unit}
                        for name, unit in declared.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
