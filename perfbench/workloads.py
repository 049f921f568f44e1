"""The three benchmark workloads: inputs, one round of operations, checks.

A round is a fixed list of operations run one at a time (a closed loop
with one client). ``round`` runs them through ``op``, which records each
output; ``check`` then compares the outputs with computations from
checks.py and returns a violation per operation that is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# second space of every pair: SCALE * X + uniform noise in [-NOISE, NOISE]^2
SCALE = 1.5


def uniform_cloud(gen, n: int, side: float = 100.0) -> np.ndarray:
    return gen.uniform(0.0, side, size=(n, 2))


def perturbed_copy(gen, X: np.ndarray, noise: float) -> np.ndarray:
    return SCALE * X + gen.uniform(-noise, noise, size=X.shape)


def joint_K(K: float, noise: float) -> float:
    """A cover bound for the same members in both spaces: moving every
    point by at most noise*sqrt(2) changes a distance by at most twice
    that."""
    return max(K, SCALE * K + 2.0 * math.sqrt(2.0) * noise)


def jittered_grid(gen, n: int) -> np.ndarray:
    """One uniform point in each of n unit cells of a 3:1 strip, filled row
    by row: points in adjacent cells are < sqrt(5) apart, so the threshold
    graph at any step bound c >= sqrt(5) is connected for every seed."""
    height = max(1, int(math.sqrt(n / 3.0)))
    width = math.ceil(n / height)
    cells = np.array([(i % width, i // width) for i in range(n)], dtype=float)
    return cells + gen.uniform(0.0, 1.0, size=cells.shape)


def write_table(path: Path, D: np.ndarray):
    """Distance table CSV; repr keeps every digit, so it reads back exactly."""
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in D.tolist()))
        fh.write("\n")


def fmt(x: float) -> str:
    return repr(float(x))


class Workload:
    name = ""
    known_faults: frozenset = frozenset()
    check_every_round = False  # else round 0 is checked, later rounds must repeat it
    in_process = True

    def __init__(self, seed: int, size: str, workdir: Path, tracer=None):
        seed %= 2**32  # numpy takes no negative seed; seeds 0 .. 2**32-1 are unchanged
        self.seed, self.size, self.workdir, self.tracer = seed, size, workdir, tracer
        self.gen = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)

    def import_library(self):
        sys.path.insert(0, str(ROOT / "src"))
        import coarsegeom
        if Path(coarsegeom.__file__).resolve().parent != (ROOT / "src" / "coarsegeom").resolve():
            raise RuntimeError(f"imported coarsegeom from {coarsegeom.__file__}, not this checkout")
        if self.tracer is not None:
            self.tracer.install()
        return coarsegeom


# --- cli_table -------------------------------------------------------------

class CliTable(Workload):
    """Distance-table CSVs through ``python -m coarsegeom.cli`` subprocesses:
    validate -> net -> partition -> pextend -> extend -> restrict -> decay on
    a valid pair of tables, then validate on a table with one planted
    triangle violation (one of PLANTED, in turn)."""

    name = "cli_table"
    known_faults = frozenset({"decay"})
    check_every_round = True
    in_process = False
    SIZES = {"full": 240, "toy": 40}
    PLANTED = 3
    K = 12.0
    NOISE = 0.5
    EPSILON = 5.0
    # With n >= 37 points in the 100 x 100 square, two share a cell of a
    # 6 x 6 grid and so lie within 100*sqrt(2)/6 < 25 of each other; the
    # decay fault below then shows on every seed.
    DECAY_R = 25.0

    def setup(self):
        n = self.SIZES[self.size]
        gen = self.gen
        self.X = uniform_cloud(gen, n)
        self.Y = perturbed_copy(gen, self.X, self.NOISE)
        self.Kj = joint_K(self.K, self.NOISE)
        w = self.workdir
        write_table(w / "dom.csv", checks.dist(self.X, self.X))
        write_table(w / "rng.csv", checks.dist(self.Y, self.Y))
        self.planted = []
        for p in range(self.PLANTED):
            Z = uniform_cloud(gen, n)
            D = checks.dist(Z, Z)
            i, k = (int(v) for v in gen.choice(n, size=2, replace=False))
            through = D[i, :] + D[:, k]
            through[[i, k]] = np.inf
            D[i, k] = D[k, i] = through.min() + gen.uniform(1.0, 10.0)
            write_table(w / f"planted{p}.csv", D)
            self.planted.append((D, (i, k)))
        # one real value per net member, in [0, 0.5]; rows beyond the net's
        # size are never read
        self.member_values = gen.uniform(0.0, 0.5, size=n)
        self.base = int(gen.integers(n))
        ecc = float(checks.dist(self.X[self.base:self.base + 1], self.X).max())
        self.rhos = [ecc * t for t in (0.0, 0.25, 0.5, 0.75)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def cli(self, name: str, *argv: str):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "coarsegeom.cli", *argv]
            return subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        spans = self.workdir / "spans.json"
        cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(spans), *argv]
        with self.tracer.span(f"cli.{name}"):
            index = len(self.tracer.spans) - 1
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        if spans.exists():
            with open(spans) as fh:
                self.tracer.adopt(json.load(fh), index)
            spans.unlink()
        return proc

    # files a round writes; removed before each round, so no check can
    # read an earlier round's output
    OUTPUTS = ("net.json", "part.json", "values.csv", "pext.csv", "bij.json",
               "ext.json", "pair.json", "res.json", "decay.json")

    def round(self, index: int, op):
        for name in self.OUTPUTS:
            (self.workdir / name).unlink(missing_ok=True)
        w = lambda name: str(self.workdir / name)  # noqa: E731
        dom, rng = w("dom.csv"), w("rng.csv")
        K = fmt(self.K)
        op("validate_pass", self.cli, "validate_pass", "validate", "--input", dom)
        op("net", self.cli, "net", "net", "--input", dom, "--K", K, "--output", w("net.json"))
        op("partition", self.cli, "partition", "partition", "--input", dom,
           "--net", w("net.json"), "--K", K, "--output", w("part.json"))
        members = self._json("net.json")["members"]
        with open(w("values.csv"), "w") as fh:
            fh.write("value\n" + "".join(f"{fmt(v)}\n" for v in self.member_values[:len(members)]))
        op("pextend", self.cli, "pextend", "pextend", "--input", dom,
           "--partition", w("part.json"), "--values", w("values.csv"),
           "--format", "csv", "--output", w("pext.csv"))
        self._write_json("bij.json", {
            "domain_net": {"members": members, "K": self.Kj},
            "range_net": {"members": members, "K": self.Kj},
            "image": members,
            "K": self.Kj,
        })
        op("extend", self.cli, "extend", "extend", "--input", dom, "--input2", rng,
           "--bijection", w("bij.json"), "--output", w("ext.json"))
        # restrict cannot read extend's own output (the pair is nested
        # under "pair"), so it is handed the inner object
        self._write_json("pair.json", self._json("ext.json")["pair"])
        op("restrict", self.cli, "restrict", "restrict", "--input", dom, "--input2", rng,
           "--pair", w("pair.json"), "--epsilon", fmt(self.EPSILON), "--output", w("res.json"))
        # the known fault: decay reads pextend's "point,re,im" CSV as (re, im)
        op("decay", self.cli, "decay", "decay", "--input", dom, "--fn", w("pext.csv"),
           "--r", fmt(self.DECAY_R), "--base", str(self.base),
           "--grid", ",".join(map(fmt, self.rhos)), "--output", w("decay.json"))
        planted = w(f"planted{index % self.PLANTED}.csv")
        op("validate_fail", self.cli, "validate_fail", "validate", "--input", planted)

    def _json(self, name: str):
        with open(self.workdir / name) as fh:
            return json.load(fh)

    def _write_json(self, name: str, blob):
        with open(self.workdir / name, "w") as fh:
            json.dump(blob, fh)

    def check(self, index: int, out: dict) -> dict:
        """Each subcommand is judged on its own: a wrong exit code or a
        wrong output fails that one operation. A check that needs another
        subcommand's output (the net's members, the partition's cells, the
        extension's pair) and cannot read it fails too, and no other."""
        bad = {}
        for name, proc in out.items():
            want = 2 if name == "validate_fail" else 0
            if proc.returncode != want:
                bad[name] = f"exit {proc.returncode}, expected {want}: {proc.stderr.strip()[-300:]}"
        for name, check in (
                ("validate_pass", self._check_validate_pass), ("net", self._check_net),
                ("partition", self._check_partition), ("pextend", self._check_pextend),
                ("extend", self._check_extend), ("restrict", self._check_restrict),
                ("decay", self._check_decay), ("validate_fail", self._check_validate_fail)):
            if name in bad:
                continue
            try:
                v = check(index, out)
            except Exception as err:  # an output it reads is missing or malformed
                v = f"cannot be checked: {type(err).__name__}: {err}"
            if v:
                bad[name] = v
        return bad

    def _members(self) -> np.ndarray:
        return np.asarray(self._json("net.json")["members"], dtype=np.intp)

    def _owner(self) -> np.ndarray:
        cells = {int(k): c for k, c in self._json("part.json")["cells"].items()}
        owner = checks.owner_of(len(self.X), cells)
        if isinstance(owner, str):
            raise ValueError(f"the partition is not one: {owner}")
        return owner

    def _check_validate_pass(self, index, out):
        report = json.loads(out["validate_pass"].stdout)
        if report["n"] != len(self.X) or report["report"]["verdict"] != "pass":
            return f"valid table reported as {report}"
        return None

    def _check_net(self, index, out):
        return checks.net_violation(self.X, self._members(), self.K)

    def _check_partition(self, index, out):
        part = self._json("part.json")
        cells = {int(k): np.asarray(c, dtype=np.intp) for k, c in part["cells"].items()}
        v = checks.partition_violation(self.X, cells, self.K)
        if not v and part["enumeration_order"] != self._members().tolist():
            v = "enumeration order is not the net's member order"
        return v

    def _check_pextend(self, index, out):
        members = self._members()
        with open(self.workdir / "pext.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if [int(r[0]) for r in rows] != list(range(len(self.X))):
            return "rows are not one per point, in point order"
        got = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        return checks.extended_values_violation(
            self._owner(), members, self.member_values[:len(members)], got)

    def _check_extend(self, index, out):
        ext = self._json("ext.json")
        return checks.extension_violation(self.X, self.Y, self._members(), self.Kj, ext["pair"],
                                          ext["certificate"], None, self.seed)

    def _check_restrict(self, index, out):
        pair = self._json("ext.json")["pair"]
        res = self._json("res.json")
        bij = res["bijection"]
        return checks.restriction_violation(self.X, self.Y, pair, self.EPSILON,
                                            bij["domain_net"]["members"], bij["image"],
                                            res["certificate"])

    def _check_decay(self, index, out):
        members = self._members()
        lookup = dict(zip(members.tolist(), self.member_values[:len(members)]))
        truth = np.array([lookup[int(x)] for x in self._owner()])
        field = checks.expansion_field(self.X, truth, self.DECAY_R)
        expected = checks.tail_suprema(self.X, field, self.base, self.rhos)
        got = [s for _, s in self._json("decay.json")["samples"]]
        return checks.samples_violation(expected, got, "decay tail suprema")

    def _check_validate_fail(self, index, out):
        D, pair = self.planted[index % self.PLANTED]
        err = json.loads(out["validate_fail"].stderr.strip().splitlines()[-1])
        return checks.planted_violation(D, pair, err)


# --- cloud_pipeline --------------------------------------------------------

class CloudPipeline(Workload):
    """One large planar cloud and a perturbed, scaled copy, in-process:
    dense tables, a net and its partition, a Higson-style function and its
    expansion, then the extension / restriction / certification of the
    identity pairing of the net."""

    name = "cloud_pipeline"
    SIZES = {"full": 5000, "toy": 300}
    K = 5.0
    NOISE = 0.5
    EPSILON = 5.0
    R = 10.0
    SAMPLED_PAIRS = 20000

    def setup(self):
        self.cg = self.import_library()
        n = self.SIZES[self.size]
        gen = self.gen
        self.X = uniform_cloud(gen, n)
        self.Y = perturbed_copy(gen, self.X, self.NOISE)
        self.Kj = joint_K(self.K, self.NOISE)
        self.member_values = gen.uniform(-0.5, 0.5, n) + 1j * gen.uniform(-0.5, 0.5, n)
        self.base = int(gen.integers(n))
        ecc = float(checks.dist(self.X[self.base:self.base + 1], self.X).max())
        self.rhos = [ecc * t for t in (0.0, 0.25, 0.5, 0.75)]
        self.entries = checks.pair_indices(n, 1000, self.seed + 1)

    def round(self, index: int, op):
        cg = self.cg
        dom = op("from_point_cloud_dom", cg.from_point_cloud, self.X)
        rng = op("from_point_cloud_rng", cg.from_point_cloud, self.Y)
        net = op("greedy_separated_net", cg.greedy_separated_net, dom, self.K)
        part = op("borel_partition", cg.borel_partition, dom, net, self.K)
        values = self.member_values[:len(net)]
        f = op("partition_extend", cg.partition_extend, dom, part, values)
        field = op("expansion", cg.expansion, dom, f, self.R)
        op("decay_profile", cg.decay_profile, dom, f, self.R, self.base, self.rhos,
           field_cache=field)

        def bijection():
            members = net.members
            return cg.make_net_bijection(
                dom, rng, cg.net_from_members(dom, members, self.Kj),
                cg.net_from_members(rng, members, self.Kj), members, K=self.Kj)

        bij = op("make_net_bijection", bijection)
        pair, _ = op("extend_net_map", cg.extend_net_map, dom, rng, bij)
        op("restrict_equivalence", cg.restrict_equivalence, dom, rng, pair, self.EPSILON)
        op("certify_equivalence", cg.certify_equivalence, dom, rng, pair)

    def check(self, index: int, out: dict) -> dict:
        X, Y = self.X, self.Y
        bad = {}
        i, j = self.entries
        for name, P in (("from_point_cloud_dom", X), ("from_point_cloud_rng", Y)):
            space = out[name]
            v = checks.samples_violation(np.sqrt(((P[i] - P[j]) ** 2).sum(axis=1)),
                                         space.dist[i, j], "distance table")
            if v or space.n != len(P):
                bad[name] = v or f"{space.n} points, expected {len(P)}"
        net = out["greedy_separated_net"]
        bad["greedy_separated_net"] = checks.net_violation(X, net.members, self.K)
        part = out["borel_partition"]
        bad["borel_partition"] = checks.partition_violation(X, part.cells, self.K)
        owner = checks.owner_of(len(X), part.cells)
        if isinstance(owner, str):
            return {k: v for k, v in bad.items() if v}
        values = self.member_values[:len(part.enumeration_order)]
        f = out["partition_extend"].values
        bad["partition_extend"] = checks.extended_values_violation(
            owner, part.enumeration_order, values, f)
        field = checks.expansion_field(X, f, self.R)
        bad["expansion"] = checks.samples_violation(field, out["expansion"].values, "expansion")
        expected = checks.tail_suprema(X, field, self.base, self.rhos)
        bad["decay_profile"] = checks.samples_violation(
            expected, [s for _, s in out["decay_profile"].samples], "decay tail suprema")
        bij = out["make_net_bijection"]
        C = checks.bilipschitz(X[net.members], Y[net.members])
        if abs(bij.measured_C - C) > checks.TOL * C:
            bad["make_net_bijection"] = f"measured C={bij.measured_C!r}, recomputed {C!r}"
        pair, cert = out["extend_net_map"]
        bad["extend_net_map"] = checks.extension_violation(
            X, Y, net.members, self.Kj, pair.to_dict(), cert, self.SAMPLED_PAIRS, self.seed + 2)
        res, res_cert = out["restrict_equivalence"]
        bad["restrict_equivalence"] = checks.restriction_violation(
            X, Y, pair.to_dict(), self.EPSILON, res.domain_net.members, res.image, res_cert)
        report = out["certify_equivalence"]
        claimed, measured = report["claimed"], report["measured"]
        if (measured["forward_slack"] > claimed["c"] + checks.TOL
                or measured["backward_slack"] > claimed["c"] + checks.TOL
                or abs(measured["R"] - cert["measured"]["R"]) > checks.TOL):
            bad["certify_equivalence"] = f"certificate {report} disagrees with the extension's"
        return {k: v for k, v in bad.items() if v}


# --- skeleton_batch --------------------------------------------------------

class SkeletonBatch(Workload):
    """A batch of jittered-grid clouds of various sizes, each taken at a small
    step bound (sparse threshold graph, long chains) and a large one (dense
    graph): chain metric, convexity constants and geodesic skeleton; plus
    net -> bijection -> extension -> restriction at the cloud's own size."""

    name = "skeleton_batch"
    # many small clouds, where per-call overhead sets the time, and three
    # large ones, where the chain metric's dense work does
    SIZES = {
        "full": (30, 40, 50, 60, 80, 100, 130, 160) * 2 + (400, 700, 1000),
        "toy": (30, 60, 120),
    }
    STEPS = (2.5, 6.0)
    K = 3.0
    NOISE = 0.1
    EPSILON = 1.0
    SOURCES = 2
    CHAINS = 5

    def setup(self):
        self.cg = self.import_library()
        gen = self.gen
        self.clouds = []
        for n in self.SIZES[self.size]:
            X = jittered_grid(gen, n)
            self.clouds.append((X, perturbed_copy(gen, X, self.NOISE)))
        self.Kj = joint_K(self.K, self.NOISE)

    def round(self, index: int, op):
        cg = self.cg
        for k, (X, Y) in enumerate(self.clouds):
            dom = op(f"{k}.from_point_cloud_dom", cg.from_point_cloud, X)
            for c in self.STEPS:
                cm = op(f"{k}.{c}.chain_metric", cg.chain_metric, dom, c)
                op(f"{k}.{c}.convexity_constants", cg.convexity_constants, dom, c, chains=cm)
                op(f"{k}.{c}.build_geodesic_graph", cg.build_geodesic_graph, dom, c)
            rng = op(f"{k}.from_point_cloud_rng", cg.from_point_cloud, Y)
            net = op(f"{k}.greedy_separated_net", cg.greedy_separated_net, dom, self.K)

            def bijection(net=net, dom=dom, rng=rng):
                return cg.make_net_bijection(
                    dom, rng, cg.net_from_members(dom, net.members, self.Kj),
                    cg.net_from_members(rng, net.members, self.Kj), net.members, K=self.Kj)

            bij = op(f"{k}.make_net_bijection", bijection)
            pair, _ = op(f"{k}.extend_net_map", cg.extend_net_map, dom, rng, bij)
            op(f"{k}.restrict_equivalence", cg.restrict_equivalence, dom, rng, pair, self.EPSILON)

    def check(self, index: int, out: dict) -> dict:
        bad = {}
        gen = np.random.default_rng(self.seed + 3)
        for k, (X, Y) in enumerate(self.clouds):
            n = len(X)
            for side, P in (("dom", X), ("rng", Y)):
                name = f"{k}.from_point_cloud_{side}"
                bad[name] = checks.samples_violation(checks.dist(P, P), out[name].dist,
                                                     "distance table")
            for c in self.STEPS:
                cm = out[f"{k}.{c}.chain_metric"]
                sources = gen.choice(n, size=min(self.SOURCES, n), replace=False)
                pairs = gen.integers(0, n, size=(self.CHAINS, 2))
                bad[f"{k}.{c}.chain_metric"] = checks.chain_violation(
                    X, c, cm.table, cm.chain_between, sources, pairs)
                frontier = [f.to_dict() for f in out[f"{k}.{c}.convexity_constants"]]
                bad[f"{k}.{c}.convexity_constants"] = (
                    checks.convexity_violation(X, cm.table, frontier)
                    or (None if frontier else "empty frontier"))
                graph, report = out[f"{k}.{c}.build_geodesic_graph"]
                a, b = report["constants"]["a"], report["constants"]["b"]
                slope = (a * c + b) / (c * c)
                bad[f"{k}.{c}.build_geodesic_graph"] = (
                    checks.convexity_violation(X, cm.table, [report["constants"]])
                    or (None if abs(slope - report["claimed_slope"]) <= checks.TOL * slope
                        else f"claimed slope {report['claimed_slope']!r}, recomputed {slope!r}")
                    or checks.skeleton_violation(X, c, graph.vertices.members, graph.edges,
                                                 graph.hop, slope))
            net = out[f"{k}.greedy_separated_net"]
            bad[f"{k}.greedy_separated_net"] = checks.net_violation(X, net.members, self.K)
            bij = out[f"{k}.make_net_bijection"]
            C = checks.bilipschitz(X[net.members], Y[net.members])
            if abs(bij.measured_C - C) > checks.TOL * C:
                bad[f"{k}.make_net_bijection"] = f"measured C={bij.measured_C!r}, recomputed {C!r}"
            pair, cert = out[f"{k}.extend_net_map"]
            bad[f"{k}.extend_net_map"] = checks.extension_violation(
                X, Y, net.members, self.Kj, pair.to_dict(), cert, None, self.seed)
            res, res_cert = out[f"{k}.restrict_equivalence"]
            bad[f"{k}.restrict_equivalence"] = checks.restriction_violation(
                X, Y, pair.to_dict(), self.EPSILON, res.domain_net.members, res.image, res_cert)
        return {k: v for k, v in bad.items() if v}


WORKLOADS = {w.name: w for w in (CliTable, CloudPipeline, SkeletonBatch)}
