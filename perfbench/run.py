"""Run one coarsegeom benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload cli_table --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (read from
spans the benchmark records around each layer's public functions) with
``--trace 1``. The traced run also writes its spans to
``.perfbench_work/trace-<workload>-seed<seed>.json``.

Each run starts fresh worker processes with BLAS/OpenMP threads pinned
to 1. ``setup_s`` is the median over SETUP_SAMPLES fresh-process
set-ups. Exits non-zero, printing no result, if anything fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_table", "cloud_pipeline", "skeleton_batch")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; return its last-line JSON."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def per_layer_units() -> dict:
    sys.path.insert(0, str(HERE))
    from tracing import PER_LAYER
    return {m: ("MB" if m.endswith("_mb") else "s") for m in PER_LAYER}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: small inputs, for the benchmark's own tests")
    args = p.parse_args()
    # a terminated run still stops its worker (see run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "coarsegeom" / "__init__.py").is_file():
        print(f"run.py: no coarsegeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    work = ROOT / ".perfbench_work"
    rundir = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--trace", str(args.trace)]
    try:
        samples = []
        for k in range(SETUP_SAMPLES - 1):
            res = run_worker([*common, "--seconds", "0", "--setup-only",
                              "--workdir", str(rundir / f"setup{k}")], deadline)
            samples.append(res["setup_s"])
        res = run_worker([*common, "--seconds", str(args.seconds),
                          "--workdir", str(rundir / "run")], deadline)
        samples.append(res["setup_s"])
    except RunFailed as err:
        print(f"run.py: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
        values = res["per_layer"]
        missing = sorted(set(units) - set(values))
        if missing:
            print(f"run.py: traced run yielded no {missing}", file=sys.stderr)
            return 1
        print(f"# traced wall_s {res['wall_s']!r} s; spans in {res['trace_file']}")
    else:
        units = END_TO_END_UNITS
        values = {**res, "setup_s": statistics.median(samples)}
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    print(f"# {args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed")
    print(f"# round wall times {[round(w, 4) for w in res['round_walls']]} s")
    print(f"# worker peak RSS at the end of the run, checks included: "
          f"{res['worker_peak_end_mb']:.1f} MB")
    for known in res["known_faults"]:
        print(f"# known fault, counted failed: {known}")
    for problem in res["problems"]:
        print(f"# PROBLEM {problem}")
    for m, v in metrics.items():
        print(f"# {m} {v['value']!r} {v['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
