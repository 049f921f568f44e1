"""Mutation gate for the certificate kernels.

Each mutant below is a small textual edit of one kernel in ``src/coarsegeom``. For each,
this script copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary directory,
applies the edit there, runs the tier-1 test functions the mutant names (those that call
the mutated kernel and fail under it) with ``-x`` and a fixed Hypothesis seed, and prints
the mutant as killed or survived, with its time. An edit
that no longer matches its source exactly once is an error, so the list keeps up with the
code. Run from anywhere, with numpy, scipy, pytest and Hypothesis installed:

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

It exits 1 if any mutant survives, 2 if an edit does not apply, and 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "0"

# name -> (module under src/coarsegeom, [(old, new), ...], test functions that must kill it)
MUTANTS = {
    # the row walk
    "row_blocks drops the final partial block": ("space.py", [(
        "for lo in range(0, n, BLOCK_ROWS)]",
        "for lo in range(0, n - n % BLOCK_ROWS, BLOCK_ROWS)]")],
        ["test_higson.py::test_expansion_walks_the_row_blocks_of_the_patched_block_size",
         "test_space.py::test_max_over_rows_is_the_whole_table_argmax"]),
    "max_over_rows drops rows.start": ("space.py", [(
        "(rows.start + int(i), int(j))", "(int(i), int(j))")],
        ["test_space.py::test_a_one_ulp_asymmetry_is_refused_by_the_constructor",
         "test_space.py::test_worst_triangle_defect_is_the_whole_table_argmax"]),
    "max_over_rows keeps ties to the last block": ("space.py", [(
        "        if gap[i, j] > worst:", "        if gap[i, j] >= worst:")],
        ["test_space.py::test_max_over_rows_is_the_whole_table_argmax",
         "test_space.py::test_a_one_ulp_asymmetry_is_refused_by_the_constructor"]),
    "the triangle scan skips its first j": ("space.py", [(
        "        for j in range(n):", "        for j in range(1, n):")],
        ["test_space.py::test_worst_triangle_defect_names_the_first_of_tied_intermediates",
         "test_space.py::test_worst_triangle_defect_is_the_whole_table_argmax"]),
    "the triangle scan skips its last j": ("space.py", [(
        "        for j in range(n):", "        for j in range(n - 1):")],
        ["test_space.py::test_triangle_violation_names_triple",
         "test_space.py::test_worst_triangle_defect_is_the_whole_table_argmax"]),
    "the triangle scan's ties go to the last j": ("space.py", [(
        "int(np.argmax(best)) if n", "n - 1 - int(np.argmax(best[::-1])) if n")],
        ["test_space.py::test_worst_triangle_defect_is_the_whole_table_argmax",
         "test_space.py::test_worst_triangle_defect_names_the_first_of_tied_intermediates"]),
    "the triangle scan resets best per block": ("space.py", [(
        "        out = None  #", "        best[:] = -math.inf\n        out = None  #")],
        ["test_space.py::test_worst_triangle_defect_is_the_whole_table_argmax",
         "test_space.py::test_worst_triangle_defect_names_the_first_of_tied_intermediates"]),
    "the repair drops the transpose half": ("space.py", [(
        "repaired[rows] += arr.T[rows] / 2.0", "repaired[rows] += arr[rows] / 2.0")],
        ["test_space.py::test_asymmetry_within_tolerance_symmetrized",
         "test_space.py::test_from_distance_matrix_refuses_asymmetry_only_beyond_its_tolerance",
         "test_space.py::test_a_chain_table_is_sealed_but_not_symmetric"]),
    # the other kernels
    "within compares with <": ("space.py", [(
        "return measured <= claimed + tolerance", "return measured < claimed + tolerance")],
        ["test_space.py::test_within_compares_numbers_and_arrays_alike",
         "test_maps.py::test_every_reach_and_density_bound_shares_the_comparison"]),
    "check_bounds skips its first bound": ("space.py", [(
        "for name, (claimed, measured) in bounds.items()\n",
        "for name, (claimed, measured) in list(bounds.items())[1:]\n")],
        ["test_maps.py::test_a_refusal_names_a_value_beyond_its_bound",
         "test_maps.py::test_large_scale_map_factory_certifies"]),
    "check_table skips the diagonal tiles": ("space.py", [(
        "for c in tiles[k:]", "for c in tiles[k + 1:]")],
        ["test_space.py::test_a_one_ulp_asymmetry_is_refused_by_the_constructor",
         "test_space.py::test_asymmetry_beyond_tolerance_rejected",
         "test_space.py::test_a_chain_table_is_sealed_but_not_symmetric"]),
    "check_table compares only the diagonal tiles": ("space.py", [(
        "for c in tiles[k:]", "for c in tiles[k:k + 1]")],
        ["test_space.py::test_a_one_ulp_asymmetry_is_refused_by_the_constructor",
         "test_space.py::test_from_distance_matrix_refuses_asymmetry_only_beyond_its_tolerance"]),
    "check_table ranks a negative entry above a non-finite one": ("space.py", [
        ("~within(-arr[rows], 0.0, tolerance), np.int8(2)",
         "2 * ~within(-arr[rows], 0.0, tolerance), np.int8(1)"),
        ("        if rank == 2:", "        if rank == 1:")],
        ["test_space.py::test_constructor_and_validator_name_the_first_bad_entry",
         "test_space.py::test_a_refusal_holds_a_few_row_blocks_beyond_its_input"]),
    "check_table's diagonal witness is the last offending point": ("space.py", [(
        "i = int(np.argmax(~within(diagonal, 0.0, tolerance)))",
        "i = len(diagonal) - 1 - int(np.argmax(~within(diagonal, 0.0, tolerance)[::-1]))")],
        ["test_space.py::test_constructor_refuses_a_nonzero_diagonal",
         "test_space.py::test_constructor_and_validator_name_the_first_bad_entry"]),
    "nearest_members ties to the highest member": ("space.py", [(
        "    by_id = np.sort(idx)\n", "    by_id = np.sort(idx)[::-1]\n")],
        ["test_space.py::test_nearest_members_is_the_lowest_nearest_id",
         "test_convexity.py::test_the_threshold_graph_is_the_dense_one_at_any_block_size"]),
    "threshold_graph keeps d < c only": ("space.py", [(
        "        keep = w <= c\n", "        keep = w < c\n")],
        ["test_convexity.py::test_the_threshold_graph_is_the_dense_one_at_any_block_size",
         "test_convexity.py::test_chain_matches_brute_force_oracle"]),
    "closed_ball keeps d < radius only": ("space.py", [(
        "block(check_point_id(space, x)) <= radius)",
        "block(check_point_id(space, x)) < radius)")],
        ["test_space.py::test_closed_ball_examples",
         "test_space.py::test_zero_radius_ball_keeps_pseudo_duplicates"]),
    # the pulled-back walk and its users
    "the pulled-back scans swap min and max": ("maps.py", [
        ("rng, m, np.minimum, lambda", "rng, m, np.maximum, lambda"),
        ("rng, phi, np.maximum, lambda", "rng, phi, np.minimum, lambda")],
        ["test_maps.py::test_additive_slack_is_the_whole_table_argmax",
         "test_maps.py::test_restrict_eq_slack_is_the_whole_table_argmax"]),
    "the pulled-back scan resets its running maximum per block": ("maps.py", [(
        "np.maximum(best, expr(rows, rng.block(images, m)).max(axis=0), out=best)",
        "best = expr(rows, rng.block(images, m)).max(axis=0)")],
        ["test_maps.py::test_additive_slack_is_the_whole_table_argmax",
         "test_maps.py::test_restrict_eq_slack_is_the_whole_table_argmax"]),
    "the pulled-back witness is the last attaining column": ("maps.py", [(
        "    x = int(np.argmax(best))", "    x = dom.n - 1 - int(np.argmax(best[::-1]))")],
        ["test_maps.py::test_additive_slack_is_the_whole_table_argmax",
         "test_maps.py::test_restrict_eq_slack_is_the_whole_table_argmax"]),
    "the pulled-back scan drops a block's final run": ("maps.py", [
        ("rows = np.empty((heads.size, dom.n))", "rows = np.full((heads.size, dom.n), -np.inf)"),
        ("enumerate(np.split(ids, heads[1:]))", "enumerate(np.split(ids, heads[1:])[:-1])")],
        ["test_maps.py::test_additive_slack_is_the_whole_table_argmax",
         "test_maps.py::test_restrict_eq_slack_is_the_whole_table_argmax",
         "test_maps.py::test_profiles_and_displacement_are_the_whole_table_reads"]),
    "the expansiveness walk reduces with np.maximum": ("maps.py", [(
        "_pulled_back_rows(dom, m, np.minimum)", "_pulled_back_rows(dom, m, np.maximum)")],
        ["test_maps.py::test_profiles_and_displacement_are_the_whole_table_reads"]),
    "the properness walk reduces with np.minimum": ("maps.py", [(
        "_pulled_back_rows(dom, m, np.maximum)", "_pulled_back_rows(dom, m, np.minimum)")],
        ["test_maps.py::test_profiles_and_displacement_are_the_whole_table_reads"]),
    "_profile keeps within < r": ("maps.py", [(
        "reach[within <= r]", "reach[within < r]")],
        ["test_maps.py::test_profiles_and_displacement_are_the_whole_table_reads"]),
    "measure_distortion's off test uses <": ("maps.py", [(
        "return None if worst <= off else", "return None if worst < off else")],
        ["test_maps.py::test_distortion_and_the_oracle_are_the_per_pair_rule",
         "test_maps.py::test_oracle_optimum_is_the_measured_distortion_of_its_pairing"]),
    "quasi_inverse keeps the last point of each image": ("maps.py", [(
        "scan[np.sort(np.unique(m[scan], return_index=True)[1])]",
        "scan[np.sort(len(scan) - 1 - np.unique(m[scan][::-1], return_index=True)[1])]")],
        ["test_maps.py::test_quasi_inverse_picks_the_first_point_of_an_image_in_order",
         "test_maps.py::test_quasi_inverse_reads_one_range_row_per_image"]),
    "the skeleton's edges include the diagonal": ("convexity.py", [(
        "triu(graph, k=1)", "triu(graph, k=0)")],
        ["test_convexity.py::test_skeleton_single_point",
         "test_convexity.py::test_the_skeleton_takes_its_edges_from_the_threshold_graph_at_3c"]),
    "the disconnection witness reads only the first row block": ("convexity.py", [(
        "~np.isfinite(cm.table[rows])", "~np.isfinite(cm.table[:rows.stop - rows.start])")],
        ["test_convexity.py::test_a_disconnection_witness_is_the_first_non_finite_chain_total"]),
    "_profile resets its running maximum per block": ("maps.py", [(
        "np.maximum(best, [reach[within <= r].max(initial=0.0) for r in radii], out=best)",
        "best = np.array([reach[within <= r].max(initial=0.0) for r in radii])")],
        ["test_maps.py::test_profiles_and_displacement_are_the_whole_table_reads"]),
    # the point-cloud table's own check and the expansion's gather side
    "the constructor trusts any sealed table": ("space.py", [(
        "if not (isinstance(owner, _Sealed) and owner._checked):",
        "if not isinstance(owner, _Sealed):")],
        ["test_space.py::test_a_chain_table_is_sealed_but_not_symmetric",
         "test_space.py::test_only_the_point_cloud_table_itself_skips_the_check"]),
    "the constructor trusts a view of a point-cloud table": ("space.py", [(
        "        owner = self.dist.base\n",
        "        owner = getattr(self.dist.base, 'base', self.dist.base)\n")],
        ["test_space.py::test_only_the_point_cloud_table_itself_skips_the_check"]),
    "from_point_cloud drops its finiteness pass": ("space.py", [(
        "    if not math.isfinite(table.max(initial=0.0)):\n        check_table(table, 0.0)\n",
        "")],
        ["test_space.py::test_a_distance_past_the_float_range_is_refused_by_the_table_check"]),
    "the expansion's gather side drops rows.start": ("higson.py", [(
        "vals[rows.start + i]", "vals[i]")],
        ["test_higson.py::test_expansion_is_the_whole_table_maximum",
         "test_higson.py::test_expansion_walks_the_row_blocks_of_the_patched_block_size"]),
    # the validation record and the DOT writer
    "line_space records no triangle check": ("space.py", [(
        "    return _validated(space, MetricValidationReport(0.0, 0.0, 0.0, 0.0, 0.0))",
        "    return space")],
        ["test_space.py::test_line_space_records_an_exact_triangle_check"]),
    "from_distance_matrix records the constructor's check": ("space.py", [(
        "return _validated(FiniteMetricSpace(repaired, labels=labels), report), report",
        "return FiniteMetricSpace(repaired, labels=labels), report")],
        ["test_space.py::test_from_distance_matrix_returns_the_record_its_space_carries",
         "test_space.py::test_a_copy_carries_its_constructors_record"]),
    "the verdict ignores the triangle check": ("space.py", [(
        "return self.worst_triangle_defect is not None", "return True")],
        ["test_space.py::test_a_direct_build_records_its_own_check_and_no_triangle_check",
         "test_space.py::test_a_point_cloud_records_no_triangle_check",
         "test_cli.py::test_validate_reports_a_point_cloud_as_unchecked"]),
    "to_dot escapes no backslash": ("convexity.py", [(
        r"""label.replace("\\", "\\\\").replace('"', '\\"')""",
        r"""label.replace('"', '\\"')""")],
        ["test_convexity.py::test_dot_escapes_quotes_and_backslashes_in_labels"]),
}


def mutate(tree: Path, module: str, edits: list[tuple[str, str]]) -> None:
    path = tree / "src" / "coarsegeom" / module
    text = path.read_text()
    for old, new in edits:
        if text.count(old) != 1:
            raise LookupError(f"{module}: {old!r} occurs {text.count(old)} times, not once")
        text = text.replace(old, new)
    path.write_text(text)


def passes(module: str | None, edits: list[tuple[str, str]], tests: list[str]) -> bool:
    """Whether ``tests`` pass on a copy of the tree with ``edits`` made to ``module``; prints
    the time taken and pytest's summary line after the caller's label."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        if module is not None:
            mutate(tree, module, edits)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             f"--hypothesis-seed={SEED}", *(f"tests/{t}" for t in tests)],
            cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = result.stdout.strip().splitlines()
    ok = result.returncode == 0
    print(f"{time.perf_counter() - started:6.1f} s  {lines[-1] if lines else ''}", flush=True)
    return ok


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {sorted(MUTANTS)}", file=sys.stderr)
        return 2
    names = names or list(MUTANTS)
    started = time.perf_counter()
    tests = sorted({t for name in names for t in MUTANTS[name][2]})
    print(f"baseline, no mutant: {' '.join(tests)}", flush=True)
    if not passes(None, [], tests):
        print("error: the unmutated tree fails its tests", file=sys.stderr)
        return 2
    survivors = []
    for name in names:
        print(f"{name}: {' '.join(MUTANTS[name][2])}", flush=True)
        try:
            survived = passes(*MUTANTS[name])
        except LookupError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print("  SURVIVED" if survived else "  killed", flush=True)
        survivors += [name] if survived else []
    print(f"{len(names) - len(survivors)} of {len(names)} mutants killed in "
          f"{time.perf_counter() - started:.1f} s; survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
