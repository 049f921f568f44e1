"""Command-line surface: every library operation as a subcommand.

Conventions: results go to stdout (or --output) as JSON, CSV, or DOT;
structured error JSON goes to stderr. Exit codes: 0 success, 2 for
validation or precondition failures, 64 for usage errors, 66 for I/O
errors. The only randomness is the optional --order-seed permutation
for greedy scans, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .convexity import (
    ConvexityConstants,
    build_geodesic_graph,
    chain_metric,
    convexity_constants,
)
from .errors import CoarseGeomError
from .higson import BoundedFunction, bump_function, decay_profile, expansion, partition_extend
from .maps import (
    EquivalencePair,
    LargeScaleMap,
    certify_equivalence,
    closeness_gap,
    expansiveness_profile,
    extend_net_map,
    make_net_bijection,
    measure_distortion,
    min_distortion_bruteforce,
    properness_profile,
    restrict_equivalence,
)
from .nets import (
    borel_partition,
    greedy_separated_net,
    net_from_members,
    partition_from_cells,
    refine_net,
)
from .space import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    check_tolerance,
    from_distance_matrix,
    from_point_cloud,
    load_distance_matrix_csv,
    load_point_cloud_csv,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_USAGE = 64
EXIT_IO = 66

TOLERANCE_ENV = "COARSEGEOM_TOLERANCE"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance_arg(text: str) -> float:
    try:
        return check_tolerance(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _env_tolerance(parser: argparse.ArgumentParser) -> float:
    """$COARSEGEOM_TOLERANCE if set, else the default; a bad value is a usage error."""
    raw = os.environ.get(TOLERANCE_ENV)
    if not raw:
        return DEFAULT_TOLERANCE
    try:
        return check_tolerance(raw)
    except ValueError as err:
        parser.error(f"{TOLERANCE_ENV}: {err}")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _load_space(path: str, points: bool, metric: str, tolerance: float) -> FiniteMetricSpace:
    if points:
        return from_point_cloud(load_point_cloud_csv(path), metric)
    table, labels = load_distance_matrix_csv(path)
    space, _ = from_distance_matrix(table, tolerance, labels)
    return space


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_function(path: str, expected: int) -> BoundedFunction:
    """One row per point: ``re``, ``re,im``, or ``point,re,im`` as
    ``bump``/``pextend --format csv`` write it, with ids 0..n-1 in order;
    a non-numeric first row is skipped."""
    table = load_point_cloud_csv(path)
    if table.ndim != 2 or table.shape[1] > 3:
        raise ValueError(f"{path}: expected rows of re, re,im or point,re,im")
    if table.shape[1] == 3:
        if not np.array_equal(table[:, 0], np.arange(len(table))):
            raise ValueError(f"{path}: point ids must be 0..{len(table) - 1} in order")
        table = table[:, 1:]
    if len(table) != expected:
        raise ValueError(f"{path}: expected {expected} values, found {len(table)}")
    im_part = table[:, 1] if table.shape[1] == 2 else 0.0
    return BoundedFunction(table[:, 0] + 1j * im_part)


def _order_from_seed(n: int, seed: int | None) -> np.ndarray | None:
    if seed is None:
        return None
    return np.random.default_rng(seed).permutation(n)


def _unwrap(blob, key: str):
    """The inner object of a ``{key: ..., "certificate": ...}`` report
    that ``extend``/``restrict`` write; a bare object is returned as is."""
    return blob[key] if isinstance(blob, dict) and key in blob else blob


def _net_from_json(space: FiniteMetricSpace, blob: dict):
    return net_from_members(space, blob["members"], float(blob["K"]))


def _bijection_from_json(dom, rng, blob: dict):
    blob = _unwrap(blob, "bijection")
    domain_net = _net_from_json(dom, blob["domain_net"])
    range_net = _net_from_json(rng, blob["range_net"])
    return make_net_bijection(
        dom, rng, domain_net, range_net, blob["image"], K=blob.get("K")
    )


def _pair_from_json(dom, rng, blob: dict) -> EquivalencePair:
    """The pair of a pair JSON, its claimed (lambda, c, R) re-certified."""
    blob = _unwrap(blob, "pair")

    def lsm(sub: dict) -> LargeScaleMap:
        return LargeScaleMap(
            np.asarray(sub["mapping"], dtype=np.intp),
            float(sub["lambda"]),
            float(sub["c"]),
        )

    pair = EquivalencePair(
        forward=lsm(blob["forward"]),
        backward=lsm(blob["backward"]),
        closeness=float(blob["closeness"]),
    )
    certify_equivalence(dom, rng, pair)
    return pair


def _csv_text(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _function_rows(f: BoundedFunction) -> list[list]:
    rows = [["point", "re", "im"]]
    for i, v in enumerate(f.values):
        rows.append([i, repr(float(v.real)), repr(float(v.imag))])
    return rows


def _function_json(f: BoundedFunction) -> dict:
    return {
        "values": [[float(v.real), float(v.imag)] for v in f.values],
        "sup_norm": f.sup_norm,
    }


def _emit(args, payload, default_format: str = "json", csv_rows=None, dot_text=None):
    fmt = getattr(args, "format", None) or default_format
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("this subcommand has no CSV form")
        text = _csv_text(csv_rows)
    elif fmt == "dot":
        if dot_text is None:
            raise ValueError("this subcommand has no DOT form")
        text = dot_text + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ---

def _cmd_validate(args):
    table, labels = load_distance_matrix_csv(args.input)
    space, report = from_distance_matrix(table, args.tolerance, labels)
    _emit(args, {"n": space.n, "report": report.to_dict()})


def _cmd_net(args):
    space = _space_of(args)
    order = _order_from_seed(space.n, args.order_seed)
    net = greedy_separated_net(space, args.K, order)
    _emit(args, net.to_dict())


def _cmd_refine(args):
    space = _space_of(args)
    net = _net_from_json(space, _load_json(args.net))
    refined = refine_net(space, net, args.K)
    _emit(args, refined.to_dict())


def _cmd_partition(args):
    space = _space_of(args)
    net = _net_from_json(space, _load_json(args.net))
    order = _int_list(args.order) if args.order else None
    part = borel_partition(space, net, args.K, order)
    _emit(args, part.to_dict())


def _cmd_distort(args):
    dom, rng = _space_of(args), _space2_of(args)
    blob = _unwrap(_load_json(args.bijection), "bijection")
    report = measure_distortion(dom, rng, blob["domain_net"]["members"], blob["image"])
    _emit(args, report.to_dict())


def _cmd_extend(args):
    dom, rng = _space_of(args), _space2_of(args)
    f = _bijection_from_json(dom, rng, _load_json(args.bijection))
    pair, certificate = extend_net_map(dom, rng, f)
    _emit(args, {"pair": pair.to_dict(), "certificate": {**certificate, "pass": True}})


def _cmd_restrict(args):
    dom, rng = _space_of(args), _space2_of(args)
    pair = _pair_from_json(dom, rng, _load_json(args.pair))
    order = _order_from_seed(dom.n, args.order_seed)
    bijection, certificate = restrict_equivalence(dom, rng, pair, args.epsilon, order)
    _emit(args, {"bijection": bijection.to_dict(),
                 "certificate": {**certificate, "pass": True}})


def _cmd_closeness(args):
    dom, rng = _space_of(args), _space2_of(args)
    f = _bijection_from_json(dom, rng, _load_json(args.bijection))
    g = _bijection_from_json(dom, rng, _load_json(args.bijection2))
    s = closeness_gap(dom, rng, f, g, args.r)
    if s is None:
        _emit(args, {"close": False, "r": args.r})
    else:
        _emit(args, {"close": True, "r": args.r, "s": s})


def _cmd_profile(args):
    dom, rng = _space_of(args), _space2_of(args)
    blob = _load_json(args.mapping)
    mapping = blob["mapping"] if isinstance(blob, dict) else blob
    grid = _float_list(args.grid) if args.grid else None
    fn = expansiveness_profile if args.kind == "expansiveness" else properness_profile
    samples = fn(dom, rng, mapping, grid)
    rows = [["R", "S"]] + [[r, repr(s)] for r, s in samples]
    _emit(args, {"kind": args.kind, "samples": [[r, s] for r, s in samples]},
          csv_rows=rows)


def _cmd_chain(args):
    space = _space_of(args)
    cm = chain_metric(space, args.c)
    table = [
        ["inf" if math.isinf(v) else repr(v) for v in row] for row in cm.table.tolist()
    ]
    payload = {
        "c": args.c,
        "connected": cm.is_connected(),
        "table": [[None if v == "inf" else float(v) for v in row] for row in table],
    }
    _emit(args, payload, default_format="csv", csv_rows=table)


def _cmd_convexity(args):
    space = _space_of(args)
    grid = _float_list(args.b_grid) if args.b_grid else None
    frontier = convexity_constants(space, args.c, grid)
    _emit(args, {"c": args.c, "frontier": [k.to_dict() for k in frontier]})


def _cmd_graph(args):
    space = _space_of(args)
    constants = None
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("--a and --b must be given together")
        constants = ConvexityConstants(a=args.a, b=args.b, c=args.c)
    order = _order_from_seed(space.n, args.order_seed)
    graph, certificate = build_geodesic_graph(space, args.c, order, constants)
    _emit(args, {"graph": graph.to_dict(), "certificate": {**certificate, "pass": True}},
          dot_text=graph.to_dot(space))


def _cmd_expansion(args):
    space = _space_of(args)
    f = _load_function(args.fn, space.n)
    field = expansion(space, f, args.r)
    rows = [["point", "expansion"]] + [
        [i, repr(v)] for i, v in enumerate(field.values.tolist())
    ]
    _emit(args, {"r": args.r, "values": field.values.tolist()}, csv_rows=rows)


def _cmd_decay(args):
    space = _space_of(args)
    f = _load_function(args.fn, space.n)
    grid = _float_list(args.grid) if args.grid else None
    profile = decay_profile(space, f, args.r, args.base, grid)
    payload = profile.to_dict()
    if args.threshold is not None:
        payload["numerically_higson"] = profile.is_numerically_higson(args.threshold)
        payload["threshold"] = args.threshold
    rows = [["rho", "sup"]] + [[rho, repr(s)] for rho, s in profile.samples]
    _emit(args, payload, csv_rows=rows)


def _cmd_bump(args):
    space = _space_of(args)
    f = bump_function(space, _int_list(args.centers), _float_list(args.radii), args.base)
    _emit(args, _function_json(f), csv_rows=_function_rows(f))


def _cmd_pextend(args):
    space = _space_of(args)
    blob = _load_json(args.partition)
    part = partition_from_cells(
        space, blob["cells"], float(blob["K"]), blob["enumeration_order"]
    )
    f = _load_function(args.values, len(part.enumeration_order))
    extended = partition_extend(space, part, f)
    _emit(args, _function_json(extended), csv_rows=_function_rows(extended))


def _cmd_oracle(args):
    dom, rng = _space_of(args), _space2_of(args)
    c_star, pairing = min_distortion_bruteforce(dom, rng)
    _emit(args, {
        "C_star": None if math.isinf(c_star) else c_star,
        "pairing": pairing.tolist(),
    })


def _squares_space(k: int) -> FiniteMetricSpace:
    return from_point_cloud([[float(n * n)] for n in range(1, k + 1)])


def _cubes_space(k: int) -> FiniteMetricSpace:
    return from_point_cloud([[float(n ** 3)] for n in range(1, k + 1)])


def _cmd_demo_n2n3(args):
    kmax = args.kmax
    # cubes -> squares is distance decreasing on every truncation
    decreasing = []
    for k in range(2, args.truncation + 1):
        cubes, squares = _cubes_space(k), _squares_space(k)
        profile = expansiveness_profile(cubes, squares, np.arange(k))
        decreasing.append({
            "k": k,
            "max_excess": max(s - r for r, s in profile),
            "distance_decreasing": all(s <= r for r, s in profile),
        })
    # squares -> cubes expands: S(R) blows up superlinearly
    k = args.truncation
    blowup = expansiveness_profile(_squares_space(k), _cubes_space(k), np.arange(k))
    # exact minimal distortion over the first k points grows without bound
    table = []
    for k in range(2, kmax + 1):
        c_star, _ = min_distortion_bruteforce(_squares_space(k), _cubes_space(k))
        table.append([k, c_star])
    values = [row[1] for row in table]
    payload = {
        "cubes_to_squares": decreasing,
        "squares_to_cubes_profile": [[r, s] for r, s in blowup],
        "C_star": table,
        "nondecreasing": all(b >= a for a, b in zip(values, values[1:])),
        "separation": values[-1] > values[0],
    }
    rows = [["k", "C_star"]] + [[k, repr(v)] for k, v in table]
    _emit(args, payload, csv_rows=rows)


def _space_of(args) -> FiniteMetricSpace:
    return _load_space(args.input, args.points, args.metric, args.tolerance)


def _space2_of(args) -> FiniteMetricSpace:
    return _load_space(args.input2, args.points2, args.metric2, args.tolerance)


def _add_space_args(sub, second: bool = False):
    sub.add_argument("--input", required=True, help="space CSV (distance matrix)")
    sub.add_argument("--points", action="store_true",
                     help="treat --input as a point cloud")
    sub.add_argument("--metric", default="euclidean",
                     choices=["euclidean", "manhattan", "chebyshev"])
    if second:
        sub.add_argument("--input2", required=True, help="second space CSV")
        sub.add_argument("--points2", action="store_true",
                         help="treat --input2 as a point cloud")
        sub.add_argument("--metric2", default="euclidean",
                         choices=["euclidean", "manhattan", "chebyshev"])


def _add_common(sub):
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=["json", "csv", "dot"], default=None)
    sub.add_argument("--tolerance", type=_tolerance_arg, default=None,
                     help=f"validation tolerance, a finite number >= 0 "
                          f"(default: ${TOLERANCE_ENV}, else {DEFAULT_TOLERANCE})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coarsegeom",
                     description="coarse geometry of finite metric spaces")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, two_spaces=False, space=True, **kw):
        p = subs.add_parser(name, **kw)
        if space:
            _add_space_args(p, second=two_spaces)
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    sub("validate", _cmd_validate, space=False).add_argument(
        "--input", required=True, help="distance matrix CSV")

    p = sub("net", _cmd_net)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--order-seed", type=int, default=None)

    p = sub("refine", _cmd_refine)
    p.add_argument("--net", required=True, help="net JSON")
    p.add_argument("--K", type=float, required=True)

    p = sub("partition", _cmd_partition)
    p.add_argument("--net", required=True, help="net JSON")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--order", help="comma-separated member enumeration")

    p = sub("distort", _cmd_distort, two_spaces=True)
    p.add_argument("--bijection", required=True, help="net bijection JSON")

    p = sub("extend", _cmd_extend, two_spaces=True)
    p.add_argument("--bijection", required=True, help="net bijection JSON")

    p = sub("restrict", _cmd_restrict, two_spaces=True)
    p.add_argument("--pair", required=True, help="equivalence pair JSON")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--order-seed", type=int, default=None)

    p = sub("closeness", _cmd_closeness, two_spaces=True)
    p.add_argument("--bijection", required=True)
    p.add_argument("--bijection2", required=True)
    p.add_argument("--r", type=float, required=True)

    p = sub("profile", _cmd_profile, two_spaces=True)
    p.add_argument("--mapping", required=True, help="total mapping JSON")
    p.add_argument("--kind", choices=["expansiveness", "properness"],
                   default="expansiveness")
    p.add_argument("--grid", help="comma-separated radii")

    p = sub("chain", _cmd_chain)
    p.add_argument("--c", type=float, required=True)

    p = sub("convexity", _cmd_convexity)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--b-grid", help="comma-separated offsets")

    p = sub("graph", _cmd_graph)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--order-seed", type=int, default=None)

    p = sub("expansion", _cmd_expansion)
    p.add_argument("--fn", required=True, help="function values CSV")
    p.add_argument("--r", type=float, required=True)

    p = sub("decay", _cmd_decay)
    p.add_argument("--fn", required=True, help="function values CSV")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--grid", help="comma-separated tail radii")
    p.add_argument("--threshold", type=float, default=None)

    p = sub("bump", _cmd_bump)
    p.add_argument("--centers", required=True, help="comma-separated point ids")
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--base", type=int, default=None)

    p = sub("pextend", _cmd_pextend)
    p.add_argument("--partition", required=True, help="partition JSON")
    p.add_argument("--values", required=True, help="per-member values CSV")

    sub("oracle", _cmd_oracle, two_spaces=True)

    p = sub("demo-n2n3", _cmd_demo_n2n3, space=False)
    p.add_argument("--kmax", type=int, default=7)
    p.add_argument("--truncation", type=int, default=20,
                   help="truncation size for the profile scans")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tolerance is None:
        args.tolerance = _env_tolerance(parser)
    try:
        args.handler(args)
    except CoarseGeomError as err:
        print(json.dumps(err.to_dict(), sort_keys=True), file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, json.JSONDecodeError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)},
                         sort_keys=True), file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"coarsegeom: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
