import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coarsegeom as cg
from coarsegeom import cli, maps


def _checked(result, check):
    if check and result.returncode != 0:
        raise AssertionError(
            f"cli failed ({result.returncode}): {result.stderr}"
        )
    return result


def run_cli(*argv, check=True):
    """Run ``cli.main`` in this process, capturing what ``python -m
    coarsegeom.cli`` would print and its exit code."""
    args = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return _checked(
        subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue()), check
    )


def run_cli_subprocess(*argv, check=True, env=None):
    """Run ``python -m coarsegeom.cli`` in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-m", "coarsegeom.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    return _checked(result, check)


@pytest.fixture
def line10_csv(tmp_path):
    rows = [",".join(str(abs(i - j)) for j in range(10)) for i in range(10)]
    path = tmp_path / "line10.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,5,1\n5,0,1\n1,1,0\n")
    return str(path)


def test_net_matches_library_and_spec(line10_csv):
    result = run_cli("net", "--input", line10_csv, "--K", 2)
    blob = json.loads(result.stdout)
    assert blob["members"] == [0, 3, 6, 9]
    assert blob["K"] == 2.0
    assert blob["delta"] == 3.0
    # thin adapter: identical to the library result
    assert blob == cg.greedy_separated_net(cg.line_space(10), 2.0).to_dict()


def test_output_bytes_deterministic(line10_csv):
    first = run_cli_subprocess("net", "--input", line10_csv, "--K", 2, "--order-seed", 11)
    second = run_cli_subprocess("net", "--input", line10_csv, "--K", 2, "--order-seed", 11)
    assert first.stdout == second.stdout


def test_validate_reports_triangle_witness(bad_csv):
    result = run_cli("validate", "--input", bad_csv, check=False)
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"] == "TriangleError"
    assert err["triple"] == [0, 2, 1]


def test_validate_passes_good_matrix(line10_csv):
    result = run_cli("validate", "--input", line10_csv)
    blob = json.loads(result.stdout)
    assert blob["report"]["verdict"] == "pass"
    assert blob["n"] == 10


def test_usage_error_exits_64(line10_csv):
    result = run_cli("net", "--input", line10_csv, check=False)  # missing --K
    assert result.returncode == 64
    result = run_cli("nosuchcommand", check=False)
    assert result.returncode == 64


def test_missing_file_exits_66():
    result = run_cli("net", "--input", "/nonexistent.csv", "--K", 2, check=False)
    assert result.returncode == 66


def test_refine_and_partition(line10_csv, tmp_path):
    net_path = tmp_path / "net.json"
    run_cli("net", "--input", line10_csv, "--K", 0.5, "--output", net_path)
    refined = run_cli("refine", "--input", line10_csv, "--net", net_path, "--K", 1)
    assert json.loads(refined.stdout)["members"] == [0, 2, 4, 6, 8]

    net2 = tmp_path / "net2.json"
    run_cli("net", "--input", line10_csv, "--K", 2, "--output", net2)
    part = run_cli(
        "partition", "--input", line10_csv, "--net", net2, "--K", 2,
        "--order", "9,6,3,0",
    )
    cells = json.loads(part.stdout)["cells"]
    assert cells["9"] == [7, 8, 9] and cells["0"] == [0]


def test_extend_then_restrict_round_trip(line10_csv, tmp_path):
    bij = {
        "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 6, 9],
    }
    bij_path = tmp_path / "bij.json"
    bij_path.write_text(json.dumps(bij))
    extended = run_cli(
        "extend", "--input", line10_csv, "--input2", line10_csv,
        "--bijection", bij_path,
    )
    payload = json.loads(extended.stdout)
    assert payload["certificate"]["pass"] is True
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(payload["pair"]))

    restricted = run_cli(
        "restrict", "--input", line10_csv, "--input2", line10_csv,
        "--pair", pair_path, "--epsilon", 1,
    )
    rpayload = json.loads(restricted.stdout)
    assert rpayload["certificate"]["pass"] is True
    assert rpayload["bijection"]["measured_C"] is not None


def test_distort_and_closeness(line10_csv, tmp_path):
    f_blob = {
        "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 6, 9],
    }
    g_blob = {
        "domain_net": {"members": [1, 4, 7], "K": 3.0},
        "range_net": {"members": [1, 4, 7], "K": 3.0},
        "image": [1, 4, 7],
    }
    f_path, g_path = tmp_path / "f.json", tmp_path / "g.json"
    f_path.write_text(json.dumps(f_blob))
    g_path.write_text(json.dumps(g_blob))

    distort = run_cli(
        "distort", "--input", line10_csv, "--input2", line10_csv,
        "--bijection", f_path,
    )
    assert json.loads(distort.stdout)["min_C"] == 1.0

    closeness = run_cli(
        "closeness", "--input", line10_csv, "--input2", line10_csv,
        "--bijection", f_path, "--bijection2", g_path, "--r", 2,
    )
    blob = json.loads(closeness.stdout)
    assert blob == {"close": True, "r": 2.0, "s": 2.0}


def test_profile_csv(line10_csv, tmp_path):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"mapping": list(range(10))}))
    result = run_cli(
        "profile", "--input", line10_csv, "--input2", line10_csv,
        "--mapping", map_path, "--grid", "1,2,4", "--format", "csv",
    )
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "R,S"
    assert lines[1].startswith("1.0,")


def test_chain_default_csv(line10_csv):
    result = run_cli("chain", "--input", line10_csv, "--c", 3)
    first_row = result.stdout.splitlines()[0].split(",")
    assert len(first_row) == 10
    assert float(first_row[9]) == 9.0


def test_chain_json_disconnected(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("0,10\n10,0\n")
    result = run_cli("chain", "--input", path, "--c", 1, "--format", "json")
    blob = json.loads(result.stdout)
    assert blob["connected"] is False
    assert blob["table"][0][1] is None


def test_convexity_frontier(line10_csv):
    result = run_cli("convexity", "--input", line10_csv, "--c", 1, "--b-grid", "0,1")
    blob = json.loads(result.stdout)
    assert blob["frontier"][0] == {"a": 1.0, "b": 0.0, "c": 1.0}


def test_graph_dot_and_certificate(line10_csv):
    dot = run_cli("graph", "--input", line10_csv, "--c", 1, "--format", "dot")
    assert dot.stdout.startswith("graph geodesic_skeleton {")
    as_json = run_cli("graph", "--input", line10_csv, "--c", 1)
    blob = json.loads(as_json.stdout)
    assert blob["certificate"]["pass"] is True


def test_expansion_decay_bump_pipeline(line10_csv, tmp_path):
    fn_path = tmp_path / "fn.csv"
    fn_path.write_text("\n".join(str(x * x) for x in range(10)) + "\n")
    expansion = run_cli(
        "expansion", "--input", line10_csv, "--fn", fn_path, "--r", 1,
    )
    assert json.loads(expansion.stdout)["values"][:3] == [1.0, 3.0, 5.0]

    decay = run_cli(
        "decay", "--input", line10_csv, "--fn", fn_path, "--r", 1,
        "--base", 0, "--grid", "0,4,8", "--threshold", 20,
    )
    blob = json.loads(decay.stdout)
    assert blob["numerically_higson"] is True

    bump = run_cli(
        "bump", "--input", line10_csv, "--centers", "4", "--radii", "2",
        "--format", "csv",
    )
    lines = bump.stdout.strip().splitlines()
    assert lines[0] == "point,re,im"
    assert lines[5].startswith("4,1.0")


def test_pextend(line10_csv, tmp_path):
    net_path = tmp_path / "net.json"
    run_cli("net", "--input", line10_csv, "--K", 2, "--output", net_path)
    part_path = tmp_path / "part.json"
    run_cli(
        "partition", "--input", line10_csv, "--net", net_path, "--K", 2,
        "--output", part_path,
    )
    values_path = tmp_path / "values.csv"
    values_path.write_text("0\n3\n6\n9\n")
    result = run_cli(
        "pextend", "--input", line10_csv, "--partition", part_path,
        "--values", values_path,
    )
    blob = json.loads(result.stdout)
    assert [v[0] for v in blob["values"]] == [0, 0, 0, 3, 3, 3, 6, 6, 6, 9]


def test_oracle(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0,1\n1,0\n")
    b.write_text("0,2\n2,0\n")
    result = run_cli("oracle", "--input", a, "--input2", b)
    assert json.loads(result.stdout)["C_star"] == 2.0


def test_point_cloud_inputs(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("0,0\n3,4\n")
    result = run_cli("net", "--input", path, "--points", "--K", 6)
    assert json.loads(result.stdout)["members"] == [0]


def test_tolerance_env_var(tmp_path):
    path = tmp_path / "asym.csv"
    path.write_text("0,1.000001\n1,0\n")
    strict = run_cli_subprocess("validate", "--input", path, check=False)
    assert strict.returncode == 2
    loose = run_cli_subprocess(
        "validate", "--input", path, check=False,
        env={**os.environ, "COARSEGEOM_TOLERANCE": "0.01"},
    )
    assert loose.returncode == 0
    assert json.loads(loose.stdout)["report"]["verdict"] == "pass"


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_bad_tolerance_flag_exits_64(bad_csv, capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["net", "--input", bad_csv, "--K", "1", "--tolerance", value])
    assert exc.value.code == 64
    assert f"got {value!r}" in capsys.readouterr().err


def test_bad_tolerance_env_var_exits_64(line10_csv, capsys, monkeypatch):
    monkeypatch.setenv("COARSEGEOM_TOLERANCE", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--input", line10_csv])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "COARSEGEOM_TOLERANCE" in err and "got 'abc'" in err
    # an explicit --tolerance takes precedence over the environment
    assert cli.main(["validate", "--input", line10_csv, "--tolerance", "0.01"]) == 0
    # and --version never reads the tolerance
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_demo_n2n3_small():
    result = run_cli("demo-n2n3", "--kmax", 4, "--truncation", 6)
    blob = json.loads(result.stdout)
    assert blob["nondecreasing"] is True
    assert all(entry["distance_decreasing"] for entry in blob["cubes_to_squares"])
    assert [k for k, _ in blob["C_star"]] == [2, 3, 4]


def test_function_csv_round_trip(line10_csv, tmp_path):
    # bump and pextend write point,re,im; expansion and decay read it back
    bump_path = tmp_path / "bump.csv"
    run_cli("bump", "--input", line10_csv, "--centers", 2, "--radii", 2,
            "--format", "csv", "--output", bump_path)
    line = cg.line_space(10)
    bump = cg.bump_function(line, [2], [2.0])
    got = json.loads(run_cli(
        "expansion", "--input", line10_csv, "--fn", bump_path, "--r", 1).stdout)
    assert got["values"] == cg.expansion(line, bump, 1.0).values.tolist()
    assert max(got["values"]) <= 0.5

    net_path, part_path = tmp_path / "net.json", tmp_path / "part.json"
    run_cli("net", "--input", line10_csv, "--K", 2, "--output", net_path)
    run_cli("partition", "--input", line10_csv, "--net", net_path, "--K", 2,
            "--output", part_path)
    values_path, pext_path = tmp_path / "values.csv", tmp_path / "pext.csv"
    values_path.write_text("0\n3\n6\n9\n")
    run_cli("pextend", "--input", line10_csv, "--partition", part_path,
            "--values", values_path, "--format", "csv", "--output", pext_path)
    decay = json.loads(run_cli(
        "decay", "--input", line10_csv, "--fn", pext_path, "--r", 1,
        "--base", 0, "--grid", "0,4,8").stdout)
    extended = cg.BoundedFunction(np.array([0, 0, 0, 3, 3, 3, 6, 6, 6, 9], float))
    expected = cg.decay_profile(line, extended, 1.0, 0, [0.0, 4.0, 8.0])
    assert decay["samples"] == [[rho, s] for rho, s in expected.samples]

    # three columns are point,re,im: ids out of order are refused
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("point,re,im\n" + "".join(
        f"{i},0.0,0.0\n" for i in [1, 0, *range(2, 10)]))
    result = run_cli("expansion", "--input", line10_csv, "--fn", shuffled,
                     "--r", 1, check=False)
    assert result.returncode == 64


def test_distort_reports_the_bijections_own_measurement(line10_csv, tmp_path, monkeypatch):
    bij_path = tmp_path / "bij.json"
    bij_path.write_text(json.dumps({
        "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 9, 6],
    }))
    measure, calls = maps.measure_distortion, []

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(maps, "measure_distortion", counted)
    # counted too if the CLI held a name of its own for it
    monkeypatch.setattr(cli, "measure_distortion", counted, raising=False)
    distort = json.loads(run_cli("distort", "--input", line10_csv, "--input2",
                                 line10_csv, "--bijection", bij_path).stdout)
    assert len(calls) == 1
    line = cg.line_space(10)
    net = cg.net_from_members(line, [0, 3, 6, 9], 2.0)
    f = cg.make_net_bijection(line, line, net, net, [0, 3, 9, 6])
    assert distort == json.loads(json.dumps(f.distortion.to_dict()))
    assert distort["min_C"] == f.measured_C == 2.0


def test_cli_reads_its_own_json(line10_csv, tmp_path):
    bij_path = tmp_path / "bij.json"
    bij_path.write_text(json.dumps({
        "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 6, 9],
    }))
    spaces = ("--input", line10_csv, "--input2", line10_csv)
    ext_path, res_path = tmp_path / "ext.json", tmp_path / "res.json"
    run_cli("extend", *spaces, "--bijection", bij_path, "--output", ext_path)
    # restrict reads extend's {"pair", "certificate"} output as it is
    run_cli("restrict", *spaces, "--pair", ext_path, "--epsilon", 1,
            "--output", res_path)
    # and extend, distort and closeness read restrict's {"bijection", ...}
    again = json.loads(run_cli("extend", *spaces, "--bijection", res_path).stdout)
    assert again["certificate"]["pass"] is True
    distort = json.loads(run_cli("distort", *spaces, "--bijection", res_path).stdout)
    assert distort["min_C"] == json.loads(res_path.read_text())["bijection"]["measured_C"]
    run_cli("closeness", *spaces, "--bijection", res_path, "--bijection2", bij_path,
            "--r", 9)

    # a pair whose claimed c is false is refused, not trusted
    pair = json.loads(ext_path.read_text())["pair"]
    assert pair["forward"]["c"] > 0
    pair["forward"]["c"] = pair["backward"]["c"] = 0.0
    lied = tmp_path / "lied.json"
    lied.write_text(json.dumps(pair))
    result = run_cli("restrict", *spaces, "--pair", lied, "--epsilon", 1, check=False)
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"] == "CertificateError"
    assert err["failed"] == ["forward_slack", "backward_slack"]


def test_point_ids_from_outside_are_checked(line10_csv, tmp_path):
    bump = run_cli("bump", "--input", line10_csv, "--centers", -1, "--radii", 1,
                   check=False)
    assert bump.returncode == 2
    err = json.loads(bump.stderr)
    assert (err["error"], err["id"], err["n"]) == ("UnknownPoint", -1, 10)

    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"members": [0, 42], "K": 4.0}))
    refine = run_cli("refine", "--input", line10_csv, "--net", net_path, "--K", 4,
                     check=False)
    assert refine.returncode == 2
    assert json.loads(refine.stderr)["id"] == 42
    net_path.write_text(json.dumps({"members": [0, 4.7, 9], "K": 3.0}))
    refine = run_cli("refine", "--input", line10_csv, "--net", net_path, "--K", 3,
                     check=False)
    assert refine.returncode == 2
    assert json.loads(refine.stderr)["id"] == 4.7

    bij_path = tmp_path / "bij.json"
    bij_path.write_text(json.dumps({
        "domain_net": {"members": [0, 42], "K": 2.0},
        "range_net": {"members": [0, 3], "K": 2.0},
        "image": [0, 3],
    }))
    distort = run_cli("distort", "--input", line10_csv, "--input2", line10_csv,
                      "--bijection", bij_path, check=False)
    assert distort.returncode == 2
    assert json.loads(distort.stderr)["id"] == 42

    fn_path = tmp_path / "fn.csv"
    fn_path.write_text("".join(f"{x}\n" for x in range(10)))
    decay = run_cli("decay", "--input", line10_csv, "--fn", fn_path, "--r", 1,
                    "--base", 10, check=False)
    assert decay.returncode == 2
    assert json.loads(decay.stderr)["id"] == 10


def test_pextend_refuses_overlapping_cells(line10_csv, tmp_path):
    part_path = tmp_path / "part.json"
    part_path.write_text(json.dumps({
        "K": 6.0,
        "enumeration_order": [0, 3],
        "cells": {"0": [0, 1, 2, 3, 4], "3": [3, 4, 5, 6, 7, 8, 9]},
    }))
    values_path = tmp_path / "values.csv"
    values_path.write_text("0\n3\n")
    result = run_cli("pextend", "--input", line10_csv, "--partition", part_path,
                     "--values", values_path, check=False)
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert err["error"] == "InvalidPartition"
    assert err["witness"] == 3 and err["cells"] == [0, 3]


def test_malformed_json_exits_2(line10_csv, tmp_path):
    spaces = ("--input", line10_csv, "--input2", line10_csv)
    path = tmp_path / "artifact.json"

    def refused(*argv, blob):
        path.write_text(json.dumps(blob))
        result = run_cli(*argv, check=False)
        assert result.returncode == 2, result.stderr
        err = json.loads(result.stderr)
        assert (err["error"], err["file"]) == ("MalformedInput", str(path))
        return err["keys"]

    assert refused("refine", "--input", line10_csv, "--net", path, "--K", 1,
                   blob={"K": 1}) == ["members"]
    # a net handed over as a pair misses every key of a pair
    assert refused("restrict", *spaces, "--pair", path, "--epsilon", 1,
                   blob={"members": [0, 3, 6, 9], "K": 2.0}) == [
        "forward", "backward", "closeness"]
    bij = {
        "domain_net": {"members": [0, 3, 6, 9], "K": "2"},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 6, 9],
    }
    assert refused("extend", *spaces, "--bijection", path,
                   blob=bij) == ["domain_net.K"]
    assert refused("distort", *spaces, "--bijection", path,
                   blob={"bijection": bij, "certificate": {}}) == ["bijection.domain_net.K"]
    assert refused("pextend", "--input", line10_csv, "--partition", path,
                   "--values", path, blob=[0, 3]) == ["cells", "K", "enumeration_order"]
    assert refused("pextend", "--input", line10_csv, "--partition", path,
                   "--values", path, blob={"cells": {"0": 7}, "K": float("nan"),
                                           "enumeration_order": [0]}) == ["K"]
    # a cell key is a point id in canonical decimal, never cast into one
    for key in ["3.0", " 3", "1_0", "03", "-0"]:
        assert refused("pextend", "--input", line10_csv, "--partition", path,
                       "--values", path, blob={
                           "cells": {"0": [0, 1, 2], key: [3, 4, 5, 6, 7, 8, 9]},
                           "K": 9.0, "enumeration_order": [0, 3]}) == [f"cells.{key}"]
    assert refused("profile", *spaces, "--mapping", path,
                   blob={"mapping": {"0": 0}}) == ["mapping"]


def test_distort_refuses_image_off_the_range_net(line10_csv, tmp_path):
    bij_path = tmp_path / "bij.json"
    bij_path.write_text(json.dumps({
        "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 6, 8],
    }))
    result = run_cli("distort", "--input", line10_csv, "--input2", line10_csv,
                     "--bijection", bij_path, check=False)
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "NotBijective"


# the output forms each subcommand writes, its default first
FORMATS = {
    **dict.fromkeys(["validate", "net", "refine", "partition", "distort", "extend",
                     "restrict", "closeness", "convexity", "oracle"], ("json",)),
    "chain": ("csv", "json"),
    **dict.fromkeys(["profile", "expansion", "decay", "bump", "pextend", "demo-n2n3"],
                    ("json", "csv")),
    "graph": ("json", "dot"),
}


@pytest.fixture
def argv_on_line10(line10_csv, tmp_path):
    """A valid invocation of every subcommand on the 10-point line."""
    def write(name, blob):
        path = tmp_path / name
        path.write_text(blob if isinstance(blob, str) else json.dumps(blob))
        return path

    one = ("--input", line10_csv)
    two = (*one, "--input2", line10_csv)
    line = cg.line_space(10)
    net = cg.greedy_separated_net(line, 2.0)
    bijection = cg.make_net_bijection(line, line, net, net, net.members)
    pair, _ = cg.extend_net_map(line, line, bijection)
    net_path = write("net.json", net.to_dict())
    bij_path = write("bij.json", bijection.to_dict())
    fn_path = write("fn.csv", "".join(f"{x * x}\n" for x in range(10)))
    small = write("small.csv", "0,1,3\n1,0,2\n3,2,0\n")
    return {
        "validate": one,
        "net": (*one, "--K", 2),
        "refine": (*one, "--net", net_path, "--K", 4),
        "partition": (*one, "--net", net_path, "--K", 2),
        "distort": (*two, "--bijection", bij_path),
        "extend": (*two, "--bijection", bij_path),
        "restrict": (*two, "--pair", write("pair.json", pair.to_dict()), "--epsilon", 1),
        "closeness": (*two, "--bijection", bij_path, "--bijection2", bij_path, "--r", 1),
        "profile": (*two, "--mapping", write("map.json", {"mapping": list(range(10))})),
        "chain": (*one, "--c", 3),
        "convexity": (*one, "--c", 1),
        "graph": (*one, "--c", 1),
        "expansion": (*one, "--fn", fn_path, "--r", 1),
        "decay": (*one, "--fn", fn_path, "--r", 1, "--base", 0),
        "bump": (*one, "--centers", 4, "--radii", 2),
        "pextend": (*one, "--partition",
                    write("part.json", cg.borel_partition(line, net, 2.0).to_dict()),
                    "--values", write("values.csv", "0\n3\n6\n9\n")),
        "oracle": ("--input", small, "--input2", small),
        "demo-n2n3": ("--kmax", 3, "--truncation", 4),
    }


@pytest.mark.parametrize("command", sorted(FORMATS))
def test_each_subcommand_offers_the_formats_it_writes(command, argv_on_line10):
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(subcommands) == set(FORMATS)
    argv = (command, *argv_on_line10[command])
    default = run_cli(*argv).stdout
    for fmt in FORMATS[command]:
        out = run_cli(*argv, "--format", fmt).stdout
        assert out
        if fmt == FORMATS[command][0]:
            assert out == default
    for fmt in {"json", "csv", "dot", "xml"} - set(FORMATS[command]):
        result = run_cli(*argv, "--format", fmt, check=False)
        assert result.returncode == 64
        assert "invalid choice" in result.stderr


_NUMBER_FLAGS = [
    ("net", "--K"), ("refine", "--K"), ("partition", "--K"),
    ("closeness", "--r"), ("expansion", "--r"), ("decay", "--r"),
    ("chain", "--c"), ("convexity", "--c"), ("graph", "--c"),
    ("restrict", "--epsilon"), ("bump", "--radii"),
    ("profile", "--grid"), ("decay", "--grid"), ("convexity", "--b-grid"),
    ("decay", "--threshold"), ("graph", "--a"), ("graph", "--b"),
]


@pytest.mark.parametrize("command,flag", _NUMBER_FLAGS)
def test_numbers_out_of_range_exit_64(command, flag, argv_on_line10, tmp_path):
    argv = list(argv_on_line10[command])
    if flag not in argv:
        argv += ["--a", 1, "--b", 1] if flag in ("--a", "--b") else [flag, 1]
    at = argv.index(flag) + 1
    run_cli(command, *argv)  # in range, the invocation succeeds
    out = tmp_path / "out"
    for bad in ["nan", "inf", "-1"]:
        argv[at] = bad
        result = run_cli(command, *argv, "--output", out, check=False)
        assert result.returncode == 64, (bad, result.stderr)
        assert result.stderr.startswith("coarsegeom: error:")
        assert "Traceback" not in result.stderr and f"got {float(bad)!r}" in result.stderr
        assert not out.exists()


@pytest.mark.parametrize("bad", [-1, 42])
def test_profile_mapping_ids_are_checked(line10_csv, tmp_path, bad):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"mapping": [bad, *range(1, 10)]}))
    result = run_cli("profile", "--input", line10_csv, "--input2", line10_csv,
                     "--mapping", map_path, check=False)
    assert result.returncode == 2
    err = json.loads(result.stderr)
    assert (err["error"], err["id"]) == ("UnknownPoint", bad)


def test_no_id_is_cast_before_it_is_checked(line10_csv, tmp_path):
    spaces = ("--input", line10_csv, "--input2", line10_csv)
    bij = {
        "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
        "image": [0, 3, 6, 9],
    }
    bij_path, ext_path = tmp_path / "bij.json", tmp_path / "ext.json"
    bij_path.write_text(json.dumps(bij))
    run_cli("extend", *spaces, "--bijection", bij_path, "--output", ext_path)

    def refused(*argv, bad):
        result = run_cli(*argv, check=False)
        assert result.returncode == 2
        err = json.loads(result.stderr)
        assert (err["error"], err["id"]) == ("UnknownPoint", bad)

    # a forward mapping value 0.7 was truncated to 0, and the pair passed
    pair = json.loads(ext_path.read_text())["pair"]
    assert pair["forward"]["mapping"][0] == 0
    pair["forward"]["mapping"][0] = 0.7
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(pair))
    refused("restrict", *spaces, "--pair", pair_path, "--epsilon", 1, bad=0.7)
    # an image value 9.5 was cast to 9 before any check
    bij_path.write_text(json.dumps({**bij, "image": [0, 3, 6, 9.5]}))
    refused("extend", *spaces, "--bijection", bij_path, bad=9.5)
    # a null id ended in a TypeError
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"members": [0, None, 6, 9], "K": 2.0}))
    refused("refine", "--input", line10_csv, "--net", net_path, "--K", 3, bad=None)


# --- malformed JSON artifacts, fuzzed ---

_LINE10 = "".join(",".join(str(abs(i - j)) for j in range(10)) + "\n" for i in range(10))
_BIJECTION = {
    "domain_net": {"members": [0, 3, 6, 9], "K": 2.0},
    "range_net": {"members": [0, 3, 6, 9], "K": 2.0},
    "image": [0, 3, 6, 9],
}
_PAIR = {
    "forward": {"mapping": [0, 0, 3, 3, 3, 6, 6, 6, 9, 9], "lambda": 1.0, "c": 2.0},
    "backward": {"mapping": [0, 0, 3, 3, 3, 6, 6, 6, 9, 9], "lambda": 1.0, "c": 2.0},
    "closeness": 1.0,
}
# subcommand -> (valid artifact, argv with "@" where the artifact goes and
# "{d}" for the directory holding the other inputs)
_FUZZED = {
    "refine": ({"members": [0, 3, 6, 9], "K": 2.0}, ("--net", "@", "--K", 3)),
    "partition": ({"members": [0, 3, 6, 9], "K": 2.0}, ("--net", "@", "--K", 2)),
    "pextend": ({"K": 2.0, "enumeration_order": [0, 3, 6, 9], "cells": {
        "0": [0, 1, 2], "3": [3, 4, 5], "6": [6, 7, 8], "9": [9]}},
        ("--partition", "@", "--values", "{d}/values.csv")),
    "extend": (_BIJECTION, ("--input2", "{d}/line10.csv", "--bijection", "@")),
    "distort": (_BIJECTION, ("--input2", "{d}/line10.csv", "--bijection", "@")),
    "closeness": (_BIJECTION, ("--input2", "{d}/line10.csv", "--bijection", "@",
                               "--bijection2", "{d}/bij.json", "--r", 1)),
    "restrict": (_PAIR, ("--input2", "{d}/line10.csv", "--pair", "@", "--epsilon", 1)),
    "profile": ({"mapping": list(range(10))},
                ("--input2", "{d}/line10.csv", "--mapping", "@")),
}
_JUNK = [None, "x", [[0]], {}]
_BAD_IDS = [0.7, -1]


def _mutations(blob, path=()):
    """Every way to break ``blob`` once: drop a key, or put junk in place
    of a value; a bad id goes only where an id, an array or an object
    belongs, since a number such as a net's K may legitimately change."""
    if isinstance(blob, dict):
        for key, value in blob.items():
            yield ("drop", (*path, key), None)
            yield from _mutations(value, (*path, key))
    elif isinstance(blob, list):
        for i, value in enumerate(blob):
            yield from _mutations(value, (*path, i))
    if path:
        parent_is_array = isinstance(path[-1], int)
        containers = isinstance(blob, (dict, list)) or parent_is_array
        for junk in _JUNK + (_BAD_IDS if containers else []):
            yield ("replace", path, junk)


def _apply(blob, mutation):
    kind, path, junk = mutation
    if kind == "top":
        return junk
    blob = json.loads(json.dumps(blob))
    parent = blob
    for step in path[:-1]:
        parent = parent[step]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = junk
    return blob


_CASES = [
    (command, mutation)
    for command, (blob, _) in _FUZZED.items()
    for mutation in [*_mutations(blob),
                     *(("top", (), junk) for junk in [None, 3, "x", [[0]]])]
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "line10.csv").write_text(_LINE10)
    (d / "values.csv").write_text("0\n3\n6\n9\n")
    (d / "bij.json").write_text(json.dumps(_BIJECTION))
    return d


def _fuzz_argv(d, command, artifact):
    argv = ("--input", "{d}/line10.csv", *_FUZZED[command][1])
    return (command, *(artifact if a == "@" else str(a).format(d=d) for a in argv))


@pytest.mark.parametrize("command", sorted(_FUZZED))
def test_fuzzed_artifacts_start_valid(fuzz_dir, command):
    path = fuzz_dir / f"{command}-valid.json"
    path.write_text(json.dumps(_FUZZED[command][0]))
    run_cli(*_fuzz_argv(fuzz_dir, command, path))


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(_CASES))
def test_malformed_artifacts_exit_cleanly(fuzz_dir, case):
    command, mutation = case
    path = fuzz_dir / "artifact.json"
    path.write_text(json.dumps(_apply(_FUZZED[command][0], mutation)))
    result = run_cli(*_fuzz_argv(fuzz_dir, command, path), check=False)
    assert result.returncode in (2, 64), (case, result.stdout)
    assert "Traceback" not in result.stderr
    if result.returncode == 2:
        assert "error" in json.loads(result.stderr)
    else:
        assert result.stderr.startswith(("coarsegeom: error:", "usage:"))


# --- malformed CSV inputs ---

def test_header_only_point_cloud_exits_64(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("x,y\n")
    # read as one point with no coordinates: exit 0 with the net [0]
    result = run_cli("net", "--input", path, "--points", "--K", 1, check=False)
    assert result.returncode == 64
    assert "n x d array, got shape (0,)" in result.stderr


def test_a_first_row_holding_a_number_is_not_a_header(tmp_path):
    path = tmp_path / "typo.csv"
    path.write_text("0,x\n1,1\n2,2\n3,3\n")
    # dropped as a header: exit 0 on three of the four points
    result = run_cli("net", "--input", path, "--points", "--K", 1, check=False)
    assert result.returncode == 64
    assert "could not convert string to float: 'x'" in result.stderr


# subcommand -> (a valid CSV: header and rows, argv with "@" where it goes
# and "{d}" for the directory holding the other inputs)
_CSV_FUZZED = {
    "validate": ([",".join(f"p{j}" for j in range(10)), *_LINE10.split()], ()),
    "net": (["x,y", *(f"{i},{i % 3}" for i in range(10))], ("--points", "--K", 1)),
    "expansion": (["point,re,im", *(f"{i},{i * i},0" for i in range(10))],
                  ("--fn", "@", "--r", 1)),
    "pextend": (["point,re,im", *(f"{i},{3 * i},1" for i in range(4))],
                ("--partition", "{d}/part.json", "--values", "@")),
}


def _with_last_token(row: str, token: str) -> str:
    return row.rsplit(",", 1)[0] + "," + token


# mutation -> the mutated (header, rows) as lines; the third row is the one changed
_CSV_MUTATIONS = {
    "ragged row": lambda h, rows: [h, *rows[:2], rows[2].rsplit(",", 1)[0], *rows[3:]],
    "extra column": lambda h, rows: [h, *rows[:2], rows[2] + ",1", *rows[3:]],
    **{f"token {tok!r}": (lambda tok: lambda h, rows: [
        h, *rows[:2], _with_last_token(rows[2], tok), *rows[3:]])(tok)
       for tok in ("x", "", "nan", "inf", "1e400")},
    "header only": lambda h, rows: [h],
    "empty file": lambda h, rows: [],
    "undecodable bytes": lambda h, rows: [h, *rows[:2], b"\xff\xfe" + rows[2].encode()],
}


def _csv_bytes(lines) -> bytes:
    return b"".join((ln if isinstance(ln, bytes) else ln.encode()) + b"\n" for ln in lines)


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("csv_fuzz")
    (d / "line10.csv").write_text(_LINE10)
    (d / "part.json").write_text(json.dumps(_FUZZED["pextend"][0]))
    return d


def _csv_argv(d, command, path):
    extra = _CSV_FUZZED[command][1]
    inputs = ("--input", path) if command in ("validate", "net") else (
        "--input", d / "line10.csv")
    return (command, *inputs, *(path if a == "@" else str(a).format(d=d) for a in extra))


@pytest.mark.parametrize("command", sorted(_CSV_FUZZED))
def test_fuzzed_csv_inputs_start_valid(csv_fuzz_dir, command):
    path = csv_fuzz_dir / f"{command}-valid.csv"
    header, *rows = _CSV_FUZZED[command][0]
    path.write_bytes(_csv_bytes([header, *rows]))
    run_cli(*_csv_argv(csv_fuzz_dir, command, path))


@pytest.mark.parametrize("mutation", sorted(_CSV_MUTATIONS))
@pytest.mark.parametrize("command", sorted(_CSV_FUZZED))
def test_malformed_csv_inputs_exit_cleanly(csv_fuzz_dir, command, mutation):
    header, *rows = _CSV_FUZZED[command][0]
    path = csv_fuzz_dir / "input.csv"
    path.write_bytes(_csv_bytes(_CSV_MUTATIONS[mutation](header, rows)))
    result = run_cli(*_csv_argv(csv_fuzz_dir, command, path), check=False)
    assert result.returncode in (2, 64, 66), result.stdout
    assert result.stdout == "" and "Traceback" not in result.stderr
    if result.returncode == 2:
        assert "error" in json.loads(result.stderr)
    else:
        assert result.stderr.startswith("coarsegeom: error:") or result.returncode == 66


@pytest.mark.parametrize("mutation, extra", [("ragged row", -1), ("extra column", 1)])
@pytest.mark.parametrize("command", sorted(_CSV_FUZZED))
def test_a_ragged_csv_names_its_line(csv_fuzz_dir, command, mutation, extra):
    # numpy's "inhomogeneous shape" error named no row
    header, *rows = _CSV_FUZZED[command][0]
    path = csv_fuzz_dir / "input.csv"
    path.write_bytes(_csv_bytes(_CSV_MUTATIONS[mutation](header, rows)))
    result = run_cli(*_csv_argv(csv_fuzz_dir, command, path), check=False)
    width = len(rows[0].split(","))
    assert (result.returncode, result.stdout) == (64, "")
    assert result.stderr == (f"coarsegeom: error: {path}: line 4 has {width + extra} "
                             f"fields, line 2 has {width}\n")


# --- table subcommands never load scipy ---

_NO_SCIPY = r"""
import contextlib, io, json, sys
from coarsegeom import cli

d = sys.argv[1]
def run(code, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = cli.main([a.format(d=d) for a in argv])
    assert got == code, (argv, got)
    return out.getvalue()

run(0, "validate", "--input", "{d}/line10.csv")
run(2, "validate", "--input", "{d}/bad.csv")
run(0, "net", "--input", "{d}/line10.csv", "--K", "2", "--output", "{d}/net.json")
with open(d + "/net.json") as fh:
    members = json.load(fh)["members"]
run(0, "partition", "--input", "{d}/line10.csv", "--net", "{d}/net.json", "--K", "2",
    "--output", "{d}/part.json")
with open(d + "/values.csv", "w") as fh:
    fh.write("value\n" + "".join(f"{i}\n" for i in range(len(members))))
run(0, "pextend", "--input", "{d}/line10.csv", "--partition", "{d}/part.json",
    "--values", "{d}/values.csv", "--format", "csv", "--output", "{d}/pext.csv")
with open(d + "/bij.json", "w") as fh:
    net = {"members": members, "K": 2.0}
    json.dump({"domain_net": net, "range_net": net, "image": members}, fh)
run(0, "extend", "--input", "{d}/line10.csv", "--input2", "{d}/line10.csv",
    "--bijection", "{d}/bij.json", "--output", "{d}/ext.json")
run(0, "restrict", "--input", "{d}/line10.csv", "--input2", "{d}/line10.csv",
    "--pair", "{d}/ext.json", "--epsilon", "1")
run(0, "decay", "--input", "{d}/line10.csv", "--fn", "{d}/pext.csv", "--r", "1",
    "--base", "0", "--grid", "0,2")
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded

import coarsegeom as cg
cg.chain_metric(cg.line_space(4), 1.0)
assert "scipy.sparse.csgraph" in sys.modules
print("ok")
"""


def test_table_subcommands_never_import_scipy(tmp_path):
    # a fresh interpreter: the test process has scipy loaded already (conftest)
    (tmp_path / "line10.csv").write_text(_LINE10)
    (tmp_path / "bad.csv").write_text("0,5,1\n5,0,1\n1,1,0\n")
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)],
                            capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "ok\n", "")


# --- one JSON rule for stdout and stderr ---

def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


def test_graph_on_a_one_vertex_skeleton_writes_null_defects(line10_csv):
    # -inf defects ended in "Out of range float values" and exit 64
    blob = _strict_json(run_cli("graph", "--input", line10_csv, "--c", 20).stdout)
    certificate = blob["certificate"]
    assert (certificate["upper_defect"], certificate["lower_defect"]) == (None, None)
    assert certificate["n_vertices"] == 1 and blob["graph"]["hop"] == [[0.0]]


@pytest.mark.parametrize("argv, code, stream", [
    (("chain", "--input", "{two}", "--c", 1, "--format", "json"), 0, "stdout"),
    (("graph", "--input", "{line10}", "--c", 20), 0, "stdout"),
    (("bump", "--input", "{line10}", "--centers", "0,12", "--radii", "1,2"), 2, "stderr"),
    (("validate", "--input", "{bad}"), 2, "stderr"),
])
def test_cli_json_is_strict(line10_csv, bad_csv, tmp_path, argv, code, stream):
    two = tmp_path / "two.csv"
    two.write_text("0,10\n10,0\n")
    paths = {"two": two, "line10": line10_csv, "bad": bad_csv}
    result = run_cli(*(str(a).format(**paths) for a in argv), check=False)
    assert result.returncode == code
    blob = _strict_json(getattr(result, stream))
    assert ("error" in blob) == (stream == "stderr")


# --- the distortion rule and the claimed slope ---

def test_extend_refuses_a_degenerate_only_pairing(tmp_path):
    # the one pair has d = 1, d' = 0: distort printed min_C 1.0 and extend exited 0
    (tmp_path / "two.csv").write_text("0,1\n1,0\n")
    (tmp_path / "twin.csv").write_text("0,0\n0,0\n")
    net = {"members": [0, 1], "K": 1.0}
    (tmp_path / "f.json").write_text(json.dumps(
        {"domain_net": net, "range_net": net, "image": [0, 1], "K": 1.0}))
    argv = ["--input", tmp_path / "two.csv", "--input2", tmp_path / "twin.csv",
            "--bijection", tmp_path / "f.json"]
    assert _strict_json(run_cli("distort", *argv).stdout)["min_C"] is None
    result = run_cli("extend", *argv, check=False)
    assert result.returncode == 2 and result.stdout == ""
    assert _strict_json(result.stderr)["error"] == "CertificateError"


@pytest.mark.parametrize("table, argv", [
    ("0\n", ["--c", "1e-200", "--a", 1, "--b", 0]),  # c * c underflows: ZeroDivisionError
    ("0\n", ["--c", "1e-200"]),
    (None, ["--c", 0.5, "--a", "1e308", "--b", 0]),  # slope overflows: a nan defect passed
])
def test_graph_refuses_a_slope_out_of_range(line10_csv, tmp_path, table, argv):
    path = line10_csv
    if table is not None:
        path = tmp_path / "one.csv"
        path.write_text(table)
    result = run_cli("graph", "--input", path, *argv, check=False)
    assert result.returncode == 64 and result.stdout == ""
    assert result.stderr == ("coarsegeom: error: claimed slope (a*c + b) / c^2 "
                             "must be a finite number >= 0, got inf\n")


def test_graph_needs_a_and_b_together(line10_csv):
    result = run_cli("graph", "--input", line10_csv, "--c", 1, "--a", 1, check=False)
    assert result.returncode == 64
    assert result.stderr == "coarsegeom: error: --a and --b must be given together\n"
