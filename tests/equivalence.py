"""Differential check: the library's outputs on this tree against another revision's.

Each case below is a named, seeded list of calls to one public entry point. For each
revision and for each ``BLOCK_ROWS`` in 1, 3, 7 and 256, a fresh process runs every case
and turns each call's result into one digest: a record, or a tuple of them, by its
``space.plain`` JSON; an array by its dtype, shape and bytes; a refusal by its class,
message and ``plain`` payload; a CLI run, made in process through ``cli.main``, by its exit
code, stdout and stderr. Every run is compared with the reference revision's run at 256,
so a result that moves with the block size differs too. Per case it prints "equal", or
the first differing call with both results. Run from anywhere in a git checkout, with
numpy, scipy and pytest installed:

    python tests/equivalence.py --ref REV              # REV's src against this tree's
    python tests/equivalence.py                        # this tree against itself
    python tests/equivalence.py --ref REV --allow CASE # CASE's difference is a listed change
    python tests/equivalence.py --ref REV --mutant NAME  # this tree with a mutant applied
    python tests/equivalence.py --ref REV CASE ...     # the named cases only

``--ref`` exports REV's ``src`` with ``git archive``; ``--mutant`` applies an edit of
``tests/mutants.py`` to a copy of this tree's ``src``. The script exits 1 if a case that
no ``--allow`` names differs, 2 on an unknown case or mutant, and 0 otherwise. Like
``tests/mutants.py``, tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = (256, 1, 3, 7)  # the first is the reference run's
SHOWN = 300  # characters of a differing result that are printed


# --- inputs, the same on every tree: numpy only ---

def _line(n):
    import numpy as np
    idx = np.arange(float(n))
    return np.abs(idx[:, None] - idx[None, :])


def _euclidean(pts):
    import numpy as np
    # (a - b)**2 == (b - a)**2 in floats, so the table is exactly symmetric
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def base_tables(rng):
    """(name, table): lines, clouds, integer tables with ties and planted tables of 0 to 20
    points."""
    from conftest import planted_table
    out = []
    for n in (0, 1, 2, 3, 5, 8, 13, 20):
        out += [(f"line{n}", _line(n)),
                (f"cloud{n}", _euclidean(rng.uniform(0.0, 10.0, size=(n, 2)))),
                (f"ties{n}", _euclidean(rng.integers(0, 3, size=(n, 2)).astype(float))),
                (f"planted{n}", planted_table(rng, n))]
    return out


def tables(rng):
    """Each base table, and for two points or more a copy with one planted entry: nan,
    +inf, -inf, a negative, a diagonal, an asymmetric or a raised symmetric entry."""
    out = []
    for name, base in base_tables(rng):
        out.append((name, base))
        n = len(base)
        if n < 2:
            continue
        i, k = (int(v) for v in rng.choice(n, size=2, replace=False))
        for what, value, mirror in (("nan", float("nan"), False), ("+inf", float("inf"), True),
                                    ("-inf", -float("inf"), True), ("-1e-10", -1e-10, True),
                                    ("-1", -1.0, True), ("asym+1e-10", 1e-10, False),
                                    ("asym+1e-7", 1e-7, False), ("raise+1e-10", 1e-10, True),
                                    ("raise+1e-7", 1e-7, True), ("raise+1", 1.0, True)):
            table = base.copy()
            if what.startswith(("asym", "raise")):
                value += table[i, k]
            table[i, k] = value
            if mirror:
                table[k, i] = value
            out.append((f"{name}{what}@({i},{k})", table))
        for value in (1e-10, 0.5):
            table = base.copy()
            table[i, i] = value
            out.append((f"{name}diag{value}@{i}", table))
    return out


def clouds(rng):
    """(name, points) in 1 to 3 dimensions, some with duplicate points."""
    out = []
    for n in (0, 1, 2, 5, 13, 20):
        for dim in (1, 2, 3):
            pts = rng.uniform(0.0, 10.0, size=(n, dim))
            out.append((f"{n}x{dim}", pts))
            if n >= 2:
                dup = pts.copy()
                dup[rng.choice(n, size=n // 2, replace=False)] = pts[0]
                out.append((f"{n}x{dim}dup", dup))
    return out


def write_csv(name, table, header=None):
    """``table`` as CSV rows of exact float reprs, under ``header`` if given; returns name."""
    with open(name, "w", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in table)
    return name


def run_cli(*argv, env=None):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process, with
    ``$COARSEGEOM_TOLERANCE`` set to ``env`` for the call if given."""
    from coarsegeom import cli
    out, err = io.StringIO(), io.StringIO()
    if env is not None:
        os.environ["COARSEGEOM_TOLERANCE"] = env
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("COARSEGEOM_TOLERANCE", None)
    return code, out.getvalue(), err.getvalue()


# --- cases: name -> function of a seeded generator, yielding (label, call) ---

def case_constructor(rng):
    import coarsegeom as cg
    for name, table in tables(rng):
        yield f"FiniteMetricSpace({name})", lambda t=table: cg.FiniteMetricSpace(t)
    yield "FiniteMetricSpace(line3, 2 labels)", lambda: cg.FiniteMetricSpace(_line(3), ("a", "b"))
    yield "FiniteMetricSpace(ragged)", lambda: cg.FiniteMetricSpace(_line(3)[:2])
    for name, pts in clouds(rng)[-4:]:  # views of a point-cloud table are checked again
        table = cg.from_point_cloud(pts).dist
        for view, part in (("[:, ::-1]", table[:, ::-1]), ("[1:, 1:]", table[1:, 1:]),
                           (".T", table.T), ("[:, :-1]", table[:, :-1])):
            yield f"FiniteMetricSpace(cloud{name}{view})", lambda t=part: (
                cg.FiniteMetricSpace(t).validation)


def case_from_distance_matrix(rng):
    import coarsegeom as cg
    for name, table in tables(rng):
        for tolerance in (0.0, 1e-9, 1e-6):
            yield (f"from_distance_matrix({name}, {tolerance})",
                   lambda t=table, tol=tolerance: cg.from_distance_matrix(t, tol))
    labels = [f"p{i}" for i in range(5)]
    yield "from_distance_matrix(line5, labels)", lambda: cg.from_distance_matrix(
        _line(5), labels=labels)
    for tolerance in (-1.0, float("nan"), float("inf"), "x"):
        yield (f"from_distance_matrix(line3, {tolerance!r})",
               lambda tol=tolerance: cg.from_distance_matrix(_line(3), tol))


def case_from_point_cloud(rng):
    import coarsegeom as cg
    for name, pts in clouds(rng):
        for kind in ("euclidean", "manhattan", "chebyshev"):
            yield f"from_point_cloud({name}, {kind})", lambda p=pts, k=kind: (
                cg.from_point_cloud(p, k).dist)
            yield f"from_point_cloud({name}, {kind}).validation", lambda p=pts, k=kind: (
                cg.from_point_cloud(p, k).validation)
    bad = rng.uniform(0.0, 1.0, size=(4, 2))
    bad[2, 1] = float("nan")
    yield "from_point_cloud(nan)", lambda: cg.from_point_cloud(bad)
    yield "from_point_cloud(1-d)", lambda: cg.from_point_cloud([1.0, 2.0])
    for kind in ("euclidean", "manhattan", "chebyshev"):  # finite coordinates, inf distances
        yield f"from_point_cloud(overflow, {kind})", lambda k=kind: cg.from_point_cloud(
            [[0.0, 0.0], [1.0, 1.0], [-1e308, 1e308], [1e308, -1e308]], k)
    yield "from_point_cloud(minkowski)", lambda: cg.from_point_cloud([[1.0]], "minkowski")


def case_line_space(rng):
    import coarsegeom as cg
    for n in range(-1, 21):
        yield f"line_space({n})", lambda n=n: cg.line_space(n)


def case_build_geodesic_graph(rng):
    import coarsegeom as cg
    spaces = [("line21", cg.line_space(21))]
    for n in (8, 20):
        centers = rng.uniform(0.0, 10.0, size=(3, 2))
        pts = centers[rng.integers(0, 3, size=n)] + rng.uniform(-1.0, 1.0, size=(n, 2))
        spaces.append((f"cloud{n}", cg.from_point_cloud(pts)))
        spaces.append((f"grid{n}", cg.from_point_cloud(rng.integers(0, 5, size=(n, 2)))))
    for name, space in spaces:
        for c in (1.0, 2.5, 6.0):
            order = rng.permutation(space.n)
            yield f"build_geodesic_graph({name}, {c})", lambda s=space, c=c: (
                cg.build_geodesic_graph(s, c))
            yield f"build_geodesic_graph({name}, {c}, order)", lambda s=space, c=c, o=order: (
                cg.build_geodesic_graph(s, c, o))
            for a, b in ((2.0, 5.0), (1.0, 0.0), (0.0, 0.5)):
                yield (f"build_geodesic_graph({name}, {c}, a={a}, b={b})",
                       lambda s=space, c=c, k=cg.ConvexityConstants(a, b, c): (
                           cg.build_geodesic_graph(s, c, None, k)))


def _validate_inputs(rng):
    """(name, path) of the tables ``validate`` reads: valid, labelled, planted, slightly
    asymmetric or negative, ragged, empty and holding a word."""
    cloud = _euclidean(rng.uniform(0.0, 10.0, size=(20, 2)))
    planted, asym = cloud.copy(), cloud.copy()
    planted[2, 11] = planted[11, 2] = cloud[2, 11] + 3.0
    asym[4, 9] += 1e-10
    negative = _euclidean(rng.integers(0, 2, size=(8, 1)).astype(float))  # duplicate points
    zero = next((i, k) for i in range(8) for k in range(i + 1, 8) if negative[i, k] == 0.0)
    negative[zero] = negative[zero[::-1]] = -1e-10
    diagonal = cloud.copy()
    diagonal[3, 3] = 1e-10
    with open("ragged.csv", "w") as fh:
        fh.write("0,1\n1,0,2\n")
    with open("empty.csv", "w") as fh:
        fh.write("\n")
    with open("word.csv", "w") as fh:
        fh.write("0,1\n1,x\n")
    return [("valid", write_csv("valid.csv", cloud)),
            ("labelled", write_csv("labelled.csv", _line(4), "a,b,c,d")),
            ("planted", write_csv("planted.csv", planted)),
            ("asym", write_csv("asym.csv", asym)),
            ("negative", write_csv("negative.csv", negative)),
            ("diagonal", write_csv("diagonal.csv", diagonal)),
            ("ragged", "ragged.csv"), ("empty", "empty.csv"), ("word", "word.csv"),
            ("missing", "missing.csv")]


def case_cli_validate(rng):
    for name, path in _validate_inputs(rng):
        yield f"validate {name}", lambda p=path: run_cli("validate", "--input", p)
        for tolerance in ("0", "1e-6"):
            yield f"validate {name} --tolerance {tolerance}", lambda p=path, t=tolerance: (
                run_cli("validate", "--input", p, "--tolerance", t))
        for env in ("1e-6", "abc"):
            yield f"validate {name} $tolerance={env}", lambda p=path, e=env: run_cli(
                "validate", "--input", p, env=e)


def case_cli_validate_points(rng):
    """``validate --points``, and the usage errors whose usage line lists its options."""
    path = write_csv("points.csv", rng.uniform(0.0, 10.0, size=(12, 2)), "x,y")
    for metric in ("euclidean", "manhattan", "chebyshev"):
        yield f"validate --points {metric}", lambda m=metric: run_cli(
            "validate", "--input", path, "--points", "--metric", m)
    yield "validate", lambda: run_cli("validate")
    yield "validate --tolerance -1", lambda: run_cli(
        "validate", "--input", path, "--tolerance", "-1")


def case_cli_net(rng):
    table = write_csv("net.csv", _euclidean(rng.uniform(0.0, 10.0, size=(20, 2))))
    points = write_csv("net-points.csv", rng.uniform(0.0, 10.0, size=(15, 3)))
    labelled = write_csv("net-labelled.csv", _line(5), "a,b,c,d,e")
    for K in ("0", "1.5", "4", "100", "-1", "nan"):
        yield f"net table K={K}", lambda K=K: run_cli("net", "--input", table, "--K", K)
        yield f"net table K={K} seed 7", lambda K=K: run_cli(
            "net", "--input", table, "--K", K, "--order-seed", 7)
        yield f"net points K={K}", lambda K=K: run_cli(
            "net", "--input", points, "--points", "--metric", "manhattan", "--K", K)
        yield f"net labelled K={K}", lambda K=K: run_cli("net", "--input", labelled, "--K", K)


def case_cli_graph(rng):
    pts = rng.uniform(0.0, 6.0, size=(16, 2))
    table = write_csv("graph.csv", _euclidean(pts))
    points = write_csv("graph-points.csv", pts)
    labelled = write_csv("graph-labelled.csv", _line(7), ",".join("abcdefg"))
    for fmt in ("json", "dot"):
        for c in ("1", "2.5"):
            yield f"graph table c={c} {fmt}", lambda c=c, f=fmt: run_cli(
                "graph", "--input", table, "--c", c, "--format", f)
            yield f"graph points c={c} {fmt}", lambda c=c, f=fmt: run_cli(
                "graph", "--input", points, "--points", "--c", c, "--format", f)
            yield f"graph labelled c={c} {fmt}", lambda c=c, f=fmt: run_cli(
                "graph", "--input", labelled, "--c", c, "--format", f)
            yield f"graph table c={c} a=2 b=5 {fmt}", lambda c=c, f=fmt: run_cli(
                "graph", "--input", table, "--c", c, "--a", 2, "--b", 5, "--format", f)
            yield f"graph table c={c} a=1 {fmt}", lambda c=c, f=fmt: run_cli(
                "graph", "--input", table, "--c", c, "--a", 1, "--format", f)


def case_cli_graph_dot_labels(rng):
    quoted = write_csv("quoted.csv", _line(3), '"a""1",x,"b\\"')
    for fmt in ("json", "dot"):
        yield f"graph quoted labels {fmt}", lambda f=fmt: run_cli(
            "graph", "--input", quoted, "--c", 1, "--format", f)


def _higson_inputs(rng):
    """(name, space, radii) for the higson cases: the empty and one-point spaces, lines,
    clouds with duplicate points in every metric and planted tables with ties, some past
    256 points. The radii are 0, one holding about a tenth of the entries (a sparse block),
    one holding about three quarters (a dense one), the diameter and one past it."""
    import numpy as np
    import coarsegeom as cg
    spaces = [(f"line{n}", cg.line_space(n)) for n in (0, 1, 2, 9)]
    kinds = sorted(cg.space.METRICS)
    spaces += [(f"cloud{name}", cg.from_point_cloud(pts, kinds[k % 3]))
               for k, (name, pts) in enumerate(clouds(rng))]
    spaces += [("cloud300x2dup", cg.from_point_cloud(
        np.repeat(rng.uniform(0.0, 10.0, size=(150, 2)), 2, axis=0)))]
    from conftest import planted_table
    spaces += [(f"planted{n}", cg.FiniteMetricSpace(planted_table(rng, n)))
               for n in (0, 1, 5, 20, 257)]
    out = []
    for name, space in spaces:
        q = space.diameter()
        low, high = (np.quantile(space.dist, (0.1, 0.75)).tolist() if space.n else (0.5, 1.0))
        out.append((name, space, [0.0, low, high, q, 2.0 * q + 1.0]))
    return out


def _functions(rng, n):
    """(kind, function): a real and a complex function on n points."""
    import coarsegeom as cg
    re = rng.uniform(-3.0, 3.0, size=n)
    return [("real", cg.BoundedFunction(re)),
            ("complex", cg.BoundedFunction(re + 1j * rng.uniform(-3.0, 3.0, size=n)))]


def case_expansion(rng):
    import coarsegeom as cg
    for name, space, radii in _higson_inputs(rng):
        for kind, f in _functions(rng, space.n):
            for r in radii:
                yield f"expansion({name}, {kind}, {r!r})", lambda s=space, f=f, r=r: (
                    cg.expansion(s, f, r))
    line = cg.line_space(4)
    for r in (-1.0, float("nan"), float("inf")):
        yield f"expansion(line4, {r!r})", lambda r=r: cg.expansion(
            line, cg.BoundedFunction([0.0] * 4), r)
    yield "expansion(line4, 3 values)", lambda: cg.expansion(
        line, cg.BoundedFunction([0.0] * 3), 1.0)


def case_decay_profile(rng):
    import coarsegeom as cg
    for name, space, radii in _higson_inputs(rng):
        base = int(rng.integers(space.n)) if space.n else 0
        far = float(space.block(base).max()) if space.n else 1.0
        for kind, f in _functions(rng, space.n):
            for r in radii:
                for grid in (None, [0.0, far / 2.0, far], [0.0, far + 1.0]):
                    yield (f"decay_profile({name}, {kind}, {r!r}, {base}, {grid})",
                           lambda s=space, f=f, r=r, b=base, g=grid: cg.decay_profile(
                               s, f, r, b, g))
            for cached in radii[1], radii[3]:
                yield (f"decay_profile({name}, {kind}, {radii[1]!r}, field at {cached!r})",
                       lambda s=space, f=f, r=radii[1], b=base, c=cached: cg.decay_profile(
                           s, f, r, b, None, cg.expansion(s, f, c)))
    line, zero = cg.line_space(4), cg.BoundedFunction([0.0] * 4)
    for grid in ([3.0, 0.0], []):
        yield f"decay_profile(line4, {grid})", lambda g=grid: cg.decay_profile(
            line, zero, 1.0, 0, g)
    yield "decay_profile(line4, base 4)", lambda: cg.decay_profile(line, zero, 1.0, 4)


def _higson_cli_inputs(rng):
    """(name, input options, function files) for the CLI expansion and decay cases."""
    import numpy as np
    pts = rng.uniform(0.0, 10.0, size=(30, 2))
    pts[rng.choice(30, size=8, replace=False)] = pts[3]  # duplicate points
    re, im = rng.uniform(-3.0, 3.0, size=30), rng.uniform(-3.0, 3.0, size=30)
    files = [write_csv("real.csv", re[:, None]), write_csv("complex.csv", np.stack([re, im], 1)),
             write_csv("ids.csv", np.stack([np.arange(30.0), re, im], 1), "point,re,im")]
    return [("table", ["--input", write_csv("table.csv", _euclidean(pts))], files),
            ("points", ["--input", write_csv("points.csv", pts, "x,y"), "--points", "--metric",
                        "manhattan"], files),
            ("one point", ["--input", write_csv("one.csv", [[0.0]])],
             [write_csv("one-fn.csv", [[2.0, -1.0]])]),
            ("short fn", ["--input", "table.csv"], [write_csv("short.csv", re[:5, None])])]


def case_cli_expansion(rng):
    for name, options, files in _higson_cli_inputs(rng):
        for fn in files:
            for r in ("0", "1.5", "20"):
                for fmt in ("json", "csv"):
                    yield f"expansion {name} {fn} r={r} {fmt}", lambda o=options, f=fn, r=r, t=fmt: (
                        run_cli("expansion", *o, "--fn", f, "--r", r, "--format", t))
    yield "expansion r=-1", lambda: run_cli(
        "expansion", "--input", "table.csv", "--fn", "real.csv", "--r", "-1")


def case_cli_decay(rng):
    for name, options, files in _higson_cli_inputs(rng):
        for fn in files:
            for r in ("0", "1.5", "20"):
                for extra in ([], ["--grid", "0,2,4"], ["--threshold", "0.5"],
                              ["--grid", "0,100"], ["--format", "csv"]):
                    yield (f"decay {name} {fn} r={r} {' '.join(extra)}",
                           lambda o=options, f=fn, r=r, e=extra: run_cli(
                               "decay", *o, "--fn", f, "--r", r, "--base", 0, *e))
    for base in ("-1", "30"):
        yield f"decay base={base}", lambda b=base: run_cli(
            "decay", "--input", "table.csv", "--fn", "real.csv", "--r", "1", "--base", b)


CASES = {
    "FiniteMetricSpace": case_constructor,
    "from_distance_matrix": case_from_distance_matrix,
    "from_point_cloud": case_from_point_cloud,
    "line_space": case_line_space,
    "build_geodesic_graph": case_build_geodesic_graph,
    "cli validate": case_cli_validate,
    "cli validate --points": case_cli_validate_points,
    "cli net": case_cli_net,
    "cli graph": case_cli_graph,
    "cli graph dot labels": case_cli_graph_dot_labels,
    "expansion": case_expansion,
    "decay_profile": case_decay_profile,
    "cli expansion": case_cli_expansion,
    "cli decay": case_cli_decay,
}
# each case sees the same inputs on every tree; the table cases share theirs
SEEDS = {name: zlib.crc32(name.encode()) for name in CASES}
SEEDS["from_distance_matrix"] = SEEDS["FiniteMetricSpace"]


# --- one tree, one block size: the worker ---

def outcome(call) -> tuple[str, str]:
    """The digest of ``call()``'s result or refusal, and its text as the digest reads it."""
    import numpy as np
    from coarsegeom.space import plain
    try:
        value = call()
    except Exception as err:
        text = json.dumps([type(err).__name__, str(err), plain(getattr(err, "payload", None))],
                          sort_keys=True)
    else:
        if isinstance(value, np.ndarray):
            data = value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
            return hashlib.sha256(data).hexdigest(), f"array {value.shape} {value!r}"
        text = json.dumps(plain(value), sort_keys=True, default=lambda v: v.item())
    return hashlib.sha256(text.encode()).hexdigest(), text


def worker(src: str, block: int, out: str, names: list[str]) -> None:
    """Run the cases ``names`` against the ``coarsegeom`` under ``src`` at ``block`` rows,
    writing {case: [[label, digest, text], ...]} as JSON to ``out``."""
    import numpy as np
    import coarsegeom
    from coarsegeom import space
    if not Path(coarsegeom.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {coarsegeom.__file__}, not the tree under {src}")
    space.BLOCK_ROWS = block
    os.environ.pop("COARSEGEOM_TOLERANCE", None)
    results = {}
    with tempfile.TemporaryDirectory(prefix="equivalence-run-") as tmp:
        os.chdir(tmp)  # CLI inputs by relative name, so no message names the directory
        for name in names:
            calls = CASES[name](np.random.default_rng(SEEDS[name]))
            results[name] = [[label, *outcome(call)] for label, call in calls]
    with open(out, "w") as fh:
        json.dump(results, fh)


# --- the driver ---

def export(rev: str, dest: Path) -> Path:
    """``rev``'s ``src``, unpacked under ``dest`` by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def mutated(names: list[str], dest: Path) -> Path:
    """A copy of this tree's ``src`` under ``dest`` with the mutants ``names`` applied."""
    from mutants import MUTANTS, mutate
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in names:
        module, edits, _ = MUTANTS[name]
        mutate(dest, module, edits)
    return dest / "src"


def run(src: Path, block: int, names: list[str], out: Path) -> dict:
    """The results of a worker run of ``names`` on ``src`` at ``block`` rows."""
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, __file__, "--worker", str(src), str(block), str(out),
                    *names], env=env, check=True)
    return json.loads(out.read_text())


def first_difference(want: list, got: list) -> tuple | None:
    """The first (label, wanted text, got text) at which two runs of a case part."""
    for (label, digest, text), (other, digest2, text2) in zip(want, got):
        if (label, digest) != (other, digest2):
            return label if label == other else f"{label} / {other}", text, text2
    if len(want) != len(got):
        return f"{len(want)} calls / {len(got)} calls", "", ""
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", help="cases to run (default: all)")
    parser.add_argument("--ref", help="the revision compared with (default: this tree)")
    parser.add_argument("--allow", action="append", default=[],
                        help="a case whose difference is a listed behaviour change")
    parser.add_argument("--mutant", action="append", default=[],
                        help="a tests/mutants.py mutant to apply to this tree")
    args = parser.parse_args(argv)
    names = args.cases or list(CASES)
    from mutants import MUTANTS
    unknown = [n for n in names + args.allow if n not in CASES]
    unknown += [n for n in args.mutant if n not in MUTANTS]
    if unknown:
        print(f"unknown cases or mutants: {unknown}; cases: {list(CASES)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tmp = Path(tmp)
        ref = export(args.ref, tmp / "ref") if args.ref else ROOT / "src"
        new = mutated(args.mutant, tmp / "new") if args.mutant else ROOT / "src"
        runs = [(f"{tree} at {block}", run(src, block, names, tmp / f"{tree}-{block}.json"))
                for tree, src in (("ref", ref), ("this tree", new)) for block in BLOCKS]
    (_, baseline), others = runs[0], runs[1:]

    failed, allowed = [], []
    for name in names:
        for where, result in others:
            diff = first_difference(baseline[name], result[name])
            if diff:
                label, want, got = diff
                print(f"{name}: differs{' (allowed)' if name in args.allow else ''} "
                      f"at {label}, {where}\n  ref at {BLOCKS[0]}: {want[:SHOWN]}\n"
                      f"  {where}: {got[:SHOWN]}")
                (allowed if name in args.allow else failed).append(name)
                break
        else:
            print(f"{name}: equal ({len(baseline[name])} calls)")
    calls = sum(len(baseline[name]) for name in names)
    print(f"{len(names) - len(failed) - len(allowed)} of {len(names)} cases equal, "
          f"{len(allowed)} allowed to differ, {len(failed)} differ: {calls} calls at "
          f"BLOCK_ROWS {', '.join(map(str, sorted(BLOCKS)))} against "
          f"{args.ref or 'this tree'}{' with ' + ', '.join(args.mutant) if args.mutant else ''}"
          f", in {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        src, block, out, *names = sys.argv[2:]
        worker(src, int(block), out, names)
    else:
        sys.exit(main(sys.argv[1:]))
