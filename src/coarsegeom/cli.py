"""Command-line surface: every library operation as a subcommand.

Conventions: results go to stdout (or --output) as JSON, CSV, or DOT;
structured error JSON goes to stderr. Exit codes: 0 success, 2 for
validation or precondition failures, 64 for usage errors (a number that
is not finite and in range among them), 66 for I/O errors. Each JSON
artifact (net, partition, bijection, pair, mapping) has one reader,
which checks its keys and value types before use. The only randomness
is the optional --order-seed permutation for greedy scans, so identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
from .errors import CoarseGeomError, MalformedInput
from .higson import BoundedFunction, bump_function, decay_profile, expansion, partition_extend
from .maps import (
    EquivalencePair,
    LargeScaleMap,
    NetBijection,
    certify_equivalence,
    closeness_gap,
    expansiveness_profile,
    extend_net_map,
    make_net_bijection,
    min_distortion_bruteforce,
    properness_profile,
    restrict_equivalence,
)
from .nets import (
    BorelPartition,
    Net,
    borel_partition,
    greedy_separated_net,
    net_from_members,
    parse_member_key,
    partition_from_cells,
    refine_net,
)
from .space import (
    DEFAULT_TOLERANCE,
    FiniteMetricSpace,
    check_point_ids,
    check_scale,
    from_distance_matrix,
    from_point_cloud,
    load_distance_matrix_csv,
    load_point_cloud_csv,
    plain,
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
        return check_scale(text, "tolerance")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _env_tolerance(parser: argparse.ArgumentParser) -> float:
    """$COARSEGEOM_TOLERANCE if set, else the default; a bad value is a usage error."""
    raw = os.environ.get(TOLERANCE_ENV)
    if not raw:
        return DEFAULT_TOLERANCE
    try:
        return check_scale(raw, "tolerance")
    except ValueError as err:
        parser.error(f"{TOLERANCE_ENV}: {err}")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _load_space(args, suffix: str) -> FiniteMetricSpace:
    """The space that ``--input<suffix>``, ``--points<suffix>`` and
    ``--metric<suffix>`` name."""
    path = getattr(args, "input" + suffix)
    if getattr(args, "points" + suffix):
        cloud = load_point_cloud_csv(path)
        return from_point_cloud(cloud, getattr(args, "metric" + suffix))
    table, labels = load_distance_matrix_csv(path)
    return from_distance_matrix(table, args.tolerance, labels)[0]


def _load_function(path: str, expected: int) -> BoundedFunction:
    """One row per point: ``re``, ``re,im``, or ``point,re,im`` as
    ``bump``/``pextend --format csv`` write it, with ids 0..n-1 in order;
    a first row holding no number is skipped."""
    table = load_point_cloud_csv(path)
    if table.ndim != 2 or table.shape[1] > 3 or not np.isfinite(table).all():
        raise ValueError(f"{path}: expected rows of finite re, re,im or point,re,im")
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


# the JSON kinds a reader asks for, as json.load gives them; numbers finite
_KINDS = {
    "number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "array": lambda v: type(v) is list,
    "object": lambda v: type(v) is dict,
}


def _fields(blob, path: str, kinds: dict[str, str], at: str = "") -> list:
    """The values of ``blob`` at the keys of ``kinds``, in that order, each
    a JSON value of its kind (numbers as floats; a kind ending in "?" may
    be absent, giving None), else ``MalformedInput`` naming ``path`` and
    the keys, written under the key path ``at``."""
    if type(blob) is not dict:
        problem, keys = "expected a JSON object with keys", list(kinds)
    else:
        problem, keys = "missing keys", [
            k for k, kind in kinds.items() if k not in blob and not kind.endswith("?")]
        if not keys:
            problem, keys = "wrong JSON types at keys", [
                k for k, kind in kinds.items()
                if k in blob and not _KINDS[kind.rstrip("?")](blob[k])]
    if keys:
        keys = [at + k for k in keys]
        raise MalformedInput(f"{path}: {problem}: {', '.join(keys)}", file=path, keys=keys)
    return [float(blob[k]) if kind.startswith("number") and k in blob else blob.get(k)
            for k, kind in kinds.items()]


def _read(path: str, wrapper: str | None = None) -> tuple[object, str]:
    """The JSON value in ``path`` and its key path: the object under
    ``wrapper`` in the ``{wrapper, "certificate"}`` report that
    ``extend``/``restrict`` write, else the whole file."""
    with open(path) as fh:
        blob = json.load(fh)
    if wrapper and type(blob) is dict and wrapper in blob:
        return _fields(blob, path, {wrapper: "object"})[0], wrapper + "."
    return blob, ""


def _net(space: FiniteMetricSpace, path: str, blob, at: str = "") -> Net:
    members, K = _fields(blob, path, {"members": "array", "K": "number"}, at)
    return net_from_members(space, members, K)


def _read_bijection(dom, rng, path: str) -> NetBijection:
    blob, at = _read(path, "bijection")
    kinds = {"domain_net": "object", "range_net": "object", "image": "array", "K": "number?"}
    dnet, rnet, image, K = _fields(blob, path, kinds, at)
    return make_net_bijection(dom, rng, _net(dom, path, dnet, at + "domain_net."),
                              _net(rng, path, rnet, at + "range_net."), image, K)


def _read_pair(dom, rng, path: str) -> EquivalencePair:
    """The pair of a pair JSON, its claimed (lambda, c, R) re-certified."""
    blob, at = _read(path, "pair")
    kinds = {"forward": "object", "backward": "object", "closeness": "number"}
    forward, backward, closeness = _fields(blob, path, kinds, at)

    def lsm(name: str, blob, target: FiniteMetricSpace) -> LargeScaleMap:
        kinds = {"mapping": "array", "lambda": "number", "c": "number"}
        mapping, lam, c = _fields(blob, path, kinds, f"{at}{name}.")
        return LargeScaleMap(check_point_ids(target, mapping), lam, c)

    pair = EquivalencePair(
        lsm("forward", forward, rng), lsm("backward", backward, dom), closeness
    )
    certify_equivalence(dom, rng, pair)
    return pair


def _read_partition(space: FiniteMetricSpace, path: str) -> BorelPartition:
    blob, at = _read(path)
    kinds = {"cells": "object", "K": "number", "enumeration_order": "array"}
    cells, K, order = _fields(blob, path, kinds, at)
    _fields(cells, path, dict.fromkeys(cells, "array"), at + "cells.")
    keys = [f"{at}cells.{k}" for k in cells if type(parse_member_key(k)) is str]
    if keys:
        raise MalformedInput(f"{path}: cell keys are not point ids in decimal: "
                             f"{', '.join(keys)}", file=path, keys=keys)
    return partition_from_cells(space, cells, K, order)


def _read_mapping(path: str) -> list:
    """A total mapping: a bare JSON array, or the "mapping" of an object."""
    blob, at = _read(path)
    return blob if type(blob) is list else _fields(blob, path, {"mapping": "array"}, at)[0]


def _function_rows(f: BoundedFunction) -> list:
    return [("point", "re", "im"),
            *zip(range(len(f)), f.values.real.tolist(), f.values.imag.tolist())]


def _emit(args, payload, csv_rows=None, dot_text=None):
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        text = buf.getvalue()
    elif args.format == "dot":
        text = dot_text + "\n"
    else:
        text = json.dumps(plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ---

def _cmd_validate(args):
    table, labels = load_distance_matrix_csv(args.input)
    space, report = from_distance_matrix(table, args.tolerance, labels)
    _emit(args, {"n": space.n, "report": report})


def _cmd_net(args, space):
    order = _order_from_seed(space.n, args.order_seed)
    net = greedy_separated_net(space, args.K, order)
    _emit(args, net)


def _cmd_refine(args, space):
    refined = refine_net(space, _net(space, args.net, *_read(args.net)), args.K)
    _emit(args, refined)


def _cmd_partition(args, space):
    net = _net(space, args.net, *_read(args.net))
    order = _int_list(args.order) if args.order else None
    part = borel_partition(space, net, args.K, order)
    _emit(args, part)


def _cmd_distort(args, dom, rng):
    _emit(args, _read_bijection(dom, rng, args.bijection).distortion)


def _cmd_extend(args, dom, rng):
    pair, certificate = extend_net_map(dom, rng, _read_bijection(dom, rng, args.bijection))
    _emit(args, {"pair": pair, "certificate": {**certificate, "pass": True}})


def _cmd_restrict(args, dom, rng):
    pair = _read_pair(dom, rng, args.pair)
    order = _order_from_seed(dom.n, args.order_seed)
    bijection, certificate = restrict_equivalence(dom, rng, pair, args.epsilon, order)
    _emit(args, {"bijection": bijection, "certificate": {**certificate, "pass": True}})


def _cmd_closeness(args, dom, rng):
    f = _read_bijection(dom, rng, args.bijection)
    g = _read_bijection(dom, rng, args.bijection2)
    s = closeness_gap(dom, rng, f, g, args.r)
    _emit(args, {"close": False, "r": args.r} if s is None
          else {"close": True, "r": args.r, "s": s})


def _cmd_profile(args, dom, rng):
    mapping = _read_mapping(args.mapping)
    grid = _float_list(args.grid) if args.grid else None
    fn = expansiveness_profile if args.kind == "expansiveness" else properness_profile
    samples = fn(dom, rng, mapping, grid)
    _emit(args, {"kind": args.kind, "samples": samples}, csv_rows=[("R", "S"), *samples])


def _cmd_chain(args, space):
    cm = chain_metric(space, args.c)
    _emit(args, {"c": args.c, "connected": cm.is_connected(), "table": cm.table},
          csv_rows=cm.table.tolist())


def _cmd_convexity(args, space):
    grid = _float_list(args.b_grid) if args.b_grid else None
    frontier = convexity_constants(space, args.c, grid)
    _emit(args, {"c": args.c, "frontier": frontier})


def _cmd_graph(args, space):
    constants = None
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("--a and --b must be given together")
        constants = ConvexityConstants(a=args.a, b=args.b, c=args.c)
    order = _order_from_seed(space.n, args.order_seed)
    graph, certificate = build_geodesic_graph(space, args.c, order, constants)
    _emit(args, {"graph": graph, "certificate": {**certificate, "pass": True}},
          dot_text=graph.to_dot(space))


def _cmd_expansion(args, space):
    f = _load_function(args.fn, space.n)
    values = expansion(space, f, args.r).values.tolist()
    _emit(args, {"r": args.r, "values": values},
          csv_rows=[("point", "expansion"), *enumerate(values)])


def _cmd_decay(args, space):
    f = _load_function(args.fn, space.n)
    grid = _float_list(args.grid) if args.grid else None
    profile = decay_profile(space, f, args.r, args.base, grid)
    payload = profile.to_dict()
    if args.threshold is not None:
        payload["numerically_higson"] = profile.is_numerically_higson(args.threshold)
        payload["threshold"] = args.threshold
    _emit(args, payload, csv_rows=[("rho", "sup"), *profile.samples])


def _cmd_bump(args, space):
    f = bump_function(space, _int_list(args.centers), _float_list(args.radii), args.base)
    _emit(args, f, csv_rows=_function_rows(f))


def _cmd_pextend(args, space):
    part = _read_partition(space, args.partition)
    f = _load_function(args.values, len(part.enumeration_order))
    extended = partition_extend(space, part, f)
    _emit(args, extended, csv_rows=_function_rows(extended))


def _cmd_oracle(args, dom, rng):
    c_star, pairing = min_distortion_bruteforce(dom, rng)
    _emit(args, {"C_star": c_star, "pairing": pairing})


def _powers_space(k: int, p: int) -> FiniteMetricSpace:
    """The first k p-th powers 1, 2^p, ..., k^p on the line."""
    return from_point_cloud([[float(n ** p)] for n in range(1, k + 1)])


def _cmd_demo_n2n3(args):
    # cubes -> squares is distance decreasing on every truncation
    decreasing = []
    for k in range(2, args.truncation + 1):
        profile = expansiveness_profile(_powers_space(k, 3), _powers_space(k, 2), np.arange(k))
        decreasing.append({
            "k": k,
            "max_excess": max(s - r for r, s in profile),
            "distance_decreasing": all(s <= r for r, s in profile),
        })
    # squares -> cubes expands: S(R) blows up superlinearly
    k = args.truncation
    blowup = expansiveness_profile(_powers_space(k, 2), _powers_space(k, 3), np.arange(k))
    # exact minimal distortion over the first k points grows without bound
    table = [
        [k, min_distortion_bruteforce(_powers_space(k, 2), _powers_space(k, 3))[0]]
        for k in range(2, args.kmax + 1)
    ]
    values = [row[1] for row in table]
    payload = {
        "cubes_to_squares": decreasing,
        "squares_to_cubes_profile": blowup,
        "C_star": table,
        "nondecreasing": all(b >= a for a, b in zip(values, values[1:])),
        "separation": values[-1] > values[0],
    }
    _emit(args, payload, csv_rows=[("k", "C_star"), *table])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coarsegeom",
                     description="coarse geometry of finite metric spaces")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, spaces=1, formats=("json",)):
        """A subcommand whose handler takes the parsed arguments and its
        ``spaces`` loaded spaces, writing one of ``formats`` (the first
        by default)."""
        p = subs.add_parser(name)
        for suffix, text in (("", "space CSV (distance matrix)"),
                             ("2", "second space CSV"))[:spaces]:
            p.add_argument(f"--input{suffix}", required=True, help=text)
            p.add_argument(f"--points{suffix}", action="store_true",
                           help=f"treat --input{suffix} as a point cloud")
            p.add_argument(f"--metric{suffix}", default="euclidean",
                           choices=["euclidean", "manhattan", "chebyshev"])
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--tolerance", type=_tolerance_arg, default=None,
                       help=f"validation tolerance, a finite number >= 0 "
                            f"(default: ${TOLERANCE_ENV}, else {DEFAULT_TOLERANCE})")
        p.set_defaults(handler=handler, spaces=spaces)
        return p

    sub("validate", _cmd_validate, spaces=0).add_argument(
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

    p = sub("distort", _cmd_distort, spaces=2)
    p.add_argument("--bijection", required=True, help="net bijection JSON")

    p = sub("extend", _cmd_extend, spaces=2)
    p.add_argument("--bijection", required=True, help="net bijection JSON")

    p = sub("restrict", _cmd_restrict, spaces=2)
    p.add_argument("--pair", required=True, help="equivalence pair JSON")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--order-seed", type=int, default=None)

    p = sub("closeness", _cmd_closeness, spaces=2)
    p.add_argument("--bijection", required=True)
    p.add_argument("--bijection2", required=True)
    p.add_argument("--r", type=float, required=True)

    p = sub("profile", _cmd_profile, spaces=2, formats=("json", "csv"))
    p.add_argument("--mapping", required=True, help="total mapping JSON")
    p.add_argument("--kind", choices=["expansiveness", "properness"],
                   default="expansiveness")
    p.add_argument("--grid", help="comma-separated radii")

    p = sub("chain", _cmd_chain, formats=("csv", "json"))
    p.add_argument("--c", type=float, required=True)

    p = sub("convexity", _cmd_convexity)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--b-grid", help="comma-separated offsets")

    p = sub("graph", _cmd_graph, formats=("json", "dot"))
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--order-seed", type=int, default=None)

    p = sub("expansion", _cmd_expansion, formats=("json", "csv"))
    p.add_argument("--fn", required=True, help="function values CSV")
    p.add_argument("--r", type=float, required=True)

    p = sub("decay", _cmd_decay, formats=("json", "csv"))
    p.add_argument("--fn", required=True, help="function values CSV")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--grid", help="comma-separated tail radii")
    p.add_argument("--threshold", type=float, default=None)

    p = sub("bump", _cmd_bump, formats=("json", "csv"))
    p.add_argument("--centers", required=True, help="comma-separated point ids")
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--base", type=int, default=None)

    p = sub("pextend", _cmd_pextend, formats=("json", "csv"))
    p.add_argument("--partition", required=True, help="partition JSON")
    p.add_argument("--values", required=True, help="per-member values CSV")

    sub("oracle", _cmd_oracle, spaces=2)

    p = sub("demo-n2n3", _cmd_demo_n2n3, spaces=0, formats=("json", "csv"))
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
        args.handler(args, *(_load_space(args, s) for s in ("", "2")[:args.spaces]))
    except CoarseGeomError as err:
        print(json.dumps(plain(err.to_dict()), sort_keys=True), file=sys.stderr)
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
