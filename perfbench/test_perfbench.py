"""Self-tests of the benchmark: every workload runs at toy size, and a
corrupted output counts as a failed operation.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
from worker import Tally, run_round
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_toy(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_toy_run_is_correct(workload):
    result, text = run_toy(workload, 0)
    assert result["correct"], text
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "cli_table":
        # decay on pextend's CSV, once per round of 8 operations
        assert result["failed"] * 8 == result["attempted"], text
    else:
        assert result["failed"] == 0, text


def test_traced_toy_run_names_every_layer():
    result, text = run_toy("cloud_pipeline", 1)
    assert result["correct"], text
    assert set(result["metrics"]) == set(tracing.PER_LAYER)


@pytest.fixture(scope="module")
def cloud_round(tmp_path_factory):
    wl = WORKLOADS["cloud_pipeline"](7, "toy", tmp_path_factory.mktemp("cloud"))
    wl.setup()
    out, _, _, error = run_round(wl, 0, None, 0)
    assert error is None, error
    return wl, out


def tally_of(wl, out) -> Tally:
    tally = Tally(wl)
    tally.add(0, out, None, repeat_of_round0=False)
    return tally


def test_clean_round_passes(cloud_round):
    wl, out = cloud_round
    tally = tally_of(wl, out)
    assert tally.failed == 0 and not tally.problems
    assert tally.attempted == len(out) == 11


def test_net_missing_a_member_counts_failed(cloud_round):
    wl, out = cloud_round
    net = out["greedy_separated_net"]
    short = dataclasses.replace(net, members=net.members[1:])
    tally = tally_of(wl, {**out, "greedy_separated_net": short})
    assert tally.failed >= 1
    assert any("greedy_separated_net" in p for p in tally.problems)


def test_overlapping_partition_counts_failed(cloud_round):
    wl, out = cloud_round
    part = out["borel_partition"]
    (x, cell_x), (y, cell_y) = list(part.cells.items())[:2]
    cells = {**part.cells, x: np.concatenate([cell_x, cell_y[:1]])}
    tally = tally_of(wl, {**out, "borel_partition": dataclasses.replace(part, cells=cells)})
    assert tally.failed >= 1
    assert any("borel_partition" in p and "cells of" in p for p in tally.problems)


def test_later_round_must_repeat_round0(cloud_round):
    wl, out = cloud_round
    tally = tally_of(wl, out)
    f = out["partition_extend"]
    changed = dataclasses.replace(f, values=f.values + 1.0)
    tally.add(1, {**out, "partition_extend": changed}, None, repeat_of_round0=True)
    assert tally.failed == 1 and tally.attempted == 22


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    wl = WORKLOADS["cli_table"](7, "toy", tmp_path_factory.mktemp("cli"))
    wl.setup()
    out, _, _, error = run_round(wl, 0, None, 0)
    assert error is None, error
    return wl, out


def test_decay_exit_code_does_not_hide_other_checks(cli_round):
    """decay is the known fault; its exiting non-zero must not skip the
    checks of the other subcommands."""
    wl, out = cli_round
    net_json = wl.workdir / "net.json"
    intact = net_json.read_text()
    net = json.loads(intact)
    net["members"] = net["members"][1:]
    crashed = subprocess.CompletedProcess(out["decay"].args, 1, "", "Traceback ...")
    try:
        net_json.write_text(json.dumps(net))
        tally = tally_of(wl, {**out, "decay": crashed})
    finally:
        net_json.write_text(intact)
    assert any(p.startswith("round 0 net:") for p in tally.problems), tally.problems
    assert any(k.startswith("decay: exit 1") for k in tally.known), tally.known
    assert tally.attempted == 8


def test_planted_witness_is_checked():
    gen = np.random.default_rng(0)
    Z = gen.uniform(0, 10, size=(12, 2))
    D = checks.dist(Z, Z)
    D[0, 5] = D[5, 0] = (D[0, :] + D[:, 5])[1:5].min() + 3.0
    j = int(np.argmin(np.where(np.isin(np.arange(12), [0, 5]), np.inf, D[0, :] + D[:, 5])))
    worst = float((D[0, 5] - (D[0, :] + D[:, 5])).max())
    good = {"error": "TriangleError", "triple": [0, j, 5], "defect": worst}
    assert checks.planted_violation(D, (0, 5), good) is None
    assert checks.planted_violation(D, (0, 5), {**good, "defect": worst / 2})
    assert checks.planted_violation(D, (0, 5), {**good, "triple": [0, j, 6]})
