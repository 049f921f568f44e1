"""Run every workload over seeds 1..10 and report each metric's median and quartiles.

Usage:
    python3 perfbench/steady.py [--trace]

Runs ``run.py`` once per seed for each workload of BENCHMARK.json, with
its run length, and prints for each end-to-end metric the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread, (Q3 - Q1) / median, next to the metric's bound. It also prints
the share of failed operations, which must be the same in every run.
With ``--trace`` each seed also gets a traced run, before the untraced
one on odd seeds and after it on even seeds, so that neither order is
favoured; the tracing overhead is the median over seeds of traced minus
untraced wall_s. Every run's result line is appended to
``.perfbench_work/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def traced_wall(workload: str, seed: int, seconds: int) -> float:
    _, header = run(workload, seed, seconds, 1)
    return float(header.split("traced wall_s ")[1].split()[0])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--trace", action="store_true", help="also measure the tracing overhead")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log = ROOT / ".perfbench_work" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        results, overheads = [], []
        for seed in SEEDS:
            traced_first = args.trace and seed % 2 == 1
            if traced_first:
                traced = traced_wall(workload, seed, seconds)
            res, _ = run(workload, seed, seconds, 0)
            if args.trace and not traced_first:
                traced = traced_wall(workload, seed, seconds)
            results.append(res)
            if args.trace:
                overheads.append(traced - res["metrics"]["wall_s"]["value"])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **res,
                                     "traced_wall_s": traced if args.trace else None}) + "\n")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {shares}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:12s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bound}")
        if overheads:
            untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in results)
            over = statistics.median(overheads)
            print(f"  tracing overhead (traced - untraced wall_s, same seed): median "
                  f"{over:+.4f} s ({over / untraced:+.1%}), range "
                  f"{min(overheads):+.4f} to {max(overheads):+.4f} s")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
