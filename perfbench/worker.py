"""One benchmark run in a fresh process: set up, run rounds, check, report.

Started by run.py; prints one JSON object as its last line. ``--t0`` is
the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide), so ``setup_s`` includes interpreter
start. With ``--setup-only`` the process stops after set-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import ROOT, WORKLOADS


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def fingerprint(obj, h=None) -> str:
    """Digest of an operation's output; arrays over 2**20 entries are
    digested on every 997th entry."""
    top = h is None
    h = hashlib.sha1() if top else h
    if isinstance(obj, np.ndarray):
        flat = np.ascontiguousarray(obj).ravel()
        if flat.size > 2**20:
            flat = flat[::997].copy()
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(flat.tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            h.update(repr(k).encode())
            fingerprint(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for v in obj:
            fingerprint(v, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


def run_round(wl, index: int, tracer, round_id):
    """Run one round; returns (outputs, wall seconds, CPU seconds, error)."""
    out = {}

    def op(name, fn, *args, **kwargs):
        if tracer is not None:
            tracer.op, tracer.round = f"{round_id}.{name}", round_id
        out[name] = fn(*args, **kwargs)
        return out[name]

    cpu0, t0 = cpu_seconds(), time.perf_counter()
    error = None
    try:
        wl.round(index, op)
    except Exception:  # reported as a failed run, never swallowed
        error = traceback.format_exc(limit=4)
    return out, time.perf_counter() - t0, cpu_seconds() - cpu0, error


class Tally:
    """Operations attempted and failed, and what went wrong unexpectedly."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.known: list[str] = []
        self.ops_per_round = None
        self.reference = None

    def add(self, index: int, out: dict, error: str | None, repeat_of_round0: bool):
        wl = self.wl
        if error is not None:
            width = max(self.ops_per_round or 0, len(out) + 1)
            self.attempted += width
            self.failed += width - len(out)
            self.problems.append(f"round {index}: {error}")
            return
        self.ops_per_round = len(out)
        if repeat_of_round0:
            bad = {k: "output differs from round 0, which was checked"
                   for k, v in out.items() if fingerprint(v) != self.reference.get(k)}
        else:
            try:
                bad = wl.check(index, out)
            except Exception:  # outputs too malformed to check: all fail
                bad = {k: traceback.format_exc(limit=2) for k in out}
            if not wl.check_every_round:
                self.reference = {k: fingerprint(v) for k, v in out.items()}
        self.attempted += len(out)
        self.failed += len(bad)
        for k, v in bad.items():
            if k in wl.known_faults:
                self.known.append(f"{k}: {v}")
            else:
                self.problems.append(f"round {index} {k}: {v}")


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seconds: float, tracer):
    """Run rounds for ``seconds``; returns the tally, the rounds' wall and
    CPU times, and this process's peak RSS at the end of round 0, read
    before any check has run."""
    tally = Tally(wl)
    walls, cpus = [], []
    start = time.perf_counter()
    index = 0
    while True:
        out, wall, cpu, error = run_round(wl, index, tracer, index)
        walls.append(wall)
        cpus.append(cpu)
        if index == 0:
            peak_before_checks = peak_rss_mb(resource.RUSAGE_SELF)
        repeat = index > 0 and not wl.check_every_round and tally.reference is not None
        tally.add(index, out, error, repeat)
        del out
        if error is not None or time.perf_counter() - start >= seconds:
            return tally, walls, cpus, peak_before_checks
        index += 1


def fill_missing_layers(name: str, seed: int, workdir: Path, tracer, layer: dict, tally: Tally):
    """Give every per-layer metric a value: a layer this workload never
    calls is timed on one toy-size round of a workload that does."""
    for other, cls in WORKLOADS.items():
        if other == name or all(m in layer for m in tracing.PER_LAYER):
            continue
        toy = cls(seed, "toy", workdir / f"fill-{other}", tracer)
        toy.setup()
        round_id = f"fill:{other}"
        out, _, _, error = run_round(toy, 0, tracer, round_id)
        if error is not None:
            tally.problems.append(f"{round_id}: {error}")
            continue
        bad = {k: v for k, v in toy.check(0, out).items() if k not in toy.known_faults}
        tally.problems.extend(f"{round_id} {k}: {v}" for k, v in bad.items())
        for metric, value in tracing.per_layer_metrics(tracer.spans, {round_id}).items():
            layer.setdefault(metric, value)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed, args.size, workdir, tracer)
    wl.setup()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally, walls, cpus, peak_before_checks = measure(wl, args.seconds, tracer)
    # in-process: the worker up to the end of round 0, so the checks'
    # memory is not counted; CLI: the largest coarsegeom child of the run
    peak = peak_before_checks if wl.in_process else peak_rss_mb(resource.RUSAGE_CHILDREN)
    result = {
        "setup_s": setup_s,
        "rounds": len(walls),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": not tally.problems,
        "problems": tally.problems[:5],
        "known_faults": tally.known[:1],
        "round_walls": walls,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
        "worker_peak_end_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }
    if tracer is not None:
        layer = tracing.per_layer_metrics(tracer.spans, set(range(len(walls))))
        fill_missing_layers(args.workload, args.seed, workdir, tracer, layer, tally)
        result["correct"] = not tally.problems
        result["problems"] = tally.problems[:5]
        result["per_layer"] = layer
        trace_path = ROOT / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "wall_s": result["wall_s"], "per_layer": layer,
                       "spans": tracer.spans}, fh)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
