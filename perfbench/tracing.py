"""Spans recorded by the benchmark around calls into coarsegeom's layers.

A span is a dict with ``name``, ``start``, ``end`` (``time.perf_counter``
seconds), ``parent`` (index of the enclosing span, or None), ``op`` (the
benchmark operation it belongs to) and ``round``. Spans are kept in
memory and written out when the run ends. Only the standard library is
imported here, so a traced CLI process can load this module before it
starts timing ``import coarsegeom.cli``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

# Public functions wrapped in a traced run: (module, function, span name,
# whether the span also records the tracemalloc peak of the call).
LAYER_FUNCTIONS = (
    ("space", "load_distance_matrix_csv", "space.load_distance_matrix_csv", False),
    ("space", "from_distance_matrix", "space.from_distance_matrix", True),
    ("space", "from_point_cloud", "space.from_point_cloud", True),
    ("nets", "greedy_separated_net", "nets.greedy_separated_net", False),
    ("nets", "borel_partition", "nets.borel_partition", False),
    ("maps", "make_net_bijection", "maps.make_net_bijection", False),
    ("maps", "extend_net_map", "maps.extend_net_map", False),
    ("maps", "restrict_equivalence", "maps.restrict_equivalence", False),
    ("maps", "certify_equivalence", "maps.certify_equivalence", False),
    ("higson", "partition_extend", "higson.partition_extend", False),
    ("higson", "expansion", "higson.expansion", False),
    ("higson", "decay_profile", "higson.decay_profile", False),
    ("convexity", "chain_metric", "convexity.chain_metric", True),
    ("convexity", "convexity_constants", "convexity.convexity_constants", False),
    ("convexity", "build_geodesic_graph", "convexity.build_geodesic_graph", False),
)

CLI_SUBCOMMAND_SPANS = (
    "cli.validate_pass", "cli.validate_fail", "cli.net", "cli.partition",
    "cli.pextend", "cli.extend", "cli.restrict", "cli.decay",
)

# Per-layer metric -> (span name, how the spans of one round are reduced).
#   "self":      sum of self time (duration minus direct child spans)
#   "inclusive": sum of durations
#   "peak":      largest tracemalloc peak of one call, in MB
# cli.import_s is the exception: median over single invocations.
PER_LAYER = {"cli.import_s": ("cli.import", "per_call")}
PER_LAYER.update({f"{s}_s": (s, "inclusive") for s in CLI_SUBCOMMAND_SPANS})
PER_LAYER.update({f"{span}_s": (span, "self") for _, _, span, _ in LAYER_FUNCTIONS})
PER_LAYER.update(
    {f"{span}_peak_mb": (span, "peak") for _, _, span, peak in LAYER_FUNCTIONS if peak}
)


class Tracer:
    """In-memory span recorder; ``op`` and ``round`` tag what follows."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None
        self.round = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "round": self.round,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def adopt(self, child_spans: list[dict], parent: int):
        """Append spans written by a child process under span ``parent``."""
        offset = len(self.spans)
        for s in child_spans:
            self.spans.append({
                **s,
                "parent": parent if s["parent"] is None else s["parent"] + offset,
                "op": self.op,
                "round": self.round,
            })

    def wrap(self, fn, name: str, peak: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if not peak:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self):
        """Replace every reference to a layer function in the loaded
        coarsegeom modules by a traced wrapper, so calls between layers
        (build_geodesic_graph -> convexity_constants -> chain_metric)
        nest."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "coarsegeom" or k.startswith("coarsegeom."))]
        for mod_name, fn_name, span, peak in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"coarsegeom.{mod_name}"], fn_name)
            if getattr(original, "__wrapped_by_perfbench__", False):
                continue
            traced = self.wrap(original, span, peak)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def per_layer_metrics(spans: list[dict], rounds=None) -> dict[str, float]:
    """Reduce the spans of ``rounds`` (all when None) to the per-layer
    metrics present in them: the median over rounds of each round's
    figure."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    by_name: dict[str, list[tuple[int, dict]]] = {}
    for i, s in enumerate(spans):
        if rounds is None or s["round"] in rounds:
            by_name.setdefault(s["name"], []).append((i, s))
    out = {}
    for metric, (name, how) in PER_LAYER.items():
        found = by_name.get(name)
        if not found:
            continue
        if how == "per_call":
            out[metric] = statistics.median(s["end"] - s["start"] for _, s in found)
            continue
        per_round: dict[int, float] = {}
        for i, s in found:
            if how == "peak":
                value = s.get("peak_mb", 0.0)
                per_round[s["round"]] = max(per_round.get(s["round"], 0.0), value)
                continue
            value = s["end"] - s["start"]
            if how == "self":
                value -= children.get(i, 0.0)
            per_round[s["round"]] = per_round.get(s["round"], 0.0) + value
        out[metric] = statistics.median(per_round.values())
    return out
