"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads audit-lp,audit-cl --seeds 1-10 \
        --trace 0 --out .bench_out/spread.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  Each run is a
separate ``bench/run.py`` process, started one after the other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, default=None, help="write the summary here as JSON")
    args = p.parse_args()

    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarise(values)}
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
