import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gmtkit
from gmtkit.carleson import pair_from_json
from gmtkit.cli import main
from gmtkit.content import dyadic_cover_cost
from gmtkit.corpus import GeneratorSpec, generate
from gmtkit.errors import InvalidInputError
from gmtkit.frostman import CellMeasure
from gmtkit.gauge import parse_gauge
from gmtkit.lattice import CellSet, Pyramid
from gmtkit.sparsify import SparseMeasure, SparsityCertificate


def run(argv):
    return main(argv)


def write_square(tmp_path, depth=4):
    path = tmp_path / "square.json"
    CellSet(2, 0, frozenset({(0, 0)})).refined(depth).save(path)
    return path


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--kind", "four-corner-cantor", "--depth", "8", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    cells = CellSet.load(a)
    assert len(cells.sorted_cells()) == 256


@pytest.mark.parametrize("kind", ["four-corner-cantor", "product-cantor"])
@pytest.mark.parametrize("depth", ["40", "60"])
def test_generate_rejects_huge_cantor_sets_before_enumerating(tmp_path, capsys, kind, depth):
    out = tmp_path / "cells.json"
    tracemalloc.start()
    try:
        code = run(["generate", "--kind", kind, "--depth", depth, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "too large to enumerate" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not out.exists()


def test_generate_random_sparse_with_certificate(tmp_path):
    out, cert_out = tmp_path / "cells.json", tmp_path / "cert.json"
    assert run([
        "generate", "--kind", "random-sparse", "--depth", "12", "--ell", "4",
        "--seed", "3", "--out", str(out), "--cert-out", str(cert_out),
    ]) == 0
    cells = CellSet.load(out)
    cert = SparsityCertificate.load(cert_out)
    assert cert.n == cells.n == 2
    assert cert.scales == (1, 6)


def test_frostman_report_matches_cover_cost(tmp_path, capsys):
    cells = write_square(tmp_path)
    out, report = tmp_path / "mu.json", tmp_path / "report.json"
    code = run([
        "frostman", "--cells", str(cells), "--gauge", "powerexp:1:0.5",
        "--out", str(out), "--report", str(report), "--ball-check", "32",
    ])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["passed"] is True
    assert rep["total_mass"] == pytest.approx(rep["cover_cost"], rel=1e-9)
    assert rep["max_ratio"] <= 1.0 + 1e-9
    assert rep["ball_constant"] > 0.0
    mu = CellMeasure.load(out)
    assert mu.total == pytest.approx(rep["total_mass"], rel=1e-15)
    assert "total mass" in capsys.readouterr().out


def test_frostman_ball_check_count(tmp_path, capsys):
    cells = write_square(tmp_path)
    out, report = tmp_path / "mu.json", tmp_path / "report.json"
    args = ["frostman", "--cells", str(cells), "--out", str(out), "--report", str(report), "--ball-check"]
    for bad in ("-5", "-1"):
        assert run([*args, bad]) == 3
        assert not out.exists() and not report.exists()
    assert "--ball-check" in capsys.readouterr().err
    assert run([*args, "0"]) == 0  # 0 turns the check off
    assert "ball_constant" not in json.loads(report.read_text())


def test_frostman_ball_check_needs_a_report(tmp_path, capsys):
    cells = write_square(tmp_path)
    out = tmp_path / "mu.json"
    assert run(["frostman", "--cells", str(cells), "--out", str(out), "--ball-check", "256"]) == 3
    assert not out.exists()
    assert "--ball-check" in capsys.readouterr().err


@pytest.mark.parametrize("kind, args, gauge", [
    ("plane", ["--kind", "plane-patch", "--n", "3", "--k", "2", "--depth", "6"], "power:2"),
    ("dense", ["--kind", "random-dense", "--n", "2", "--depth", "6", "--seed", "1"], "power:2"),
    ("cantor", ["--kind", "four-corner-cantor", "--n", "2", "--depth", "8"], "power:1"),
])
def test_frostman_report_cover_cost_is_the_optimal_cover_cost_bit_for_bit(tmp_path, capsys, kind, args, gauge):
    cells, report = tmp_path / f"{kind}.json", tmp_path / "report.json"
    assert run(["generate", *args, "--out", str(cells)]) == 0
    assert run(["frostman", "--cells", str(cells), "--gauge", gauge, "--out", str(tmp_path / "mu.json"),
                "--report", str(report)]) == 0
    want = dyadic_cover_cost(CellSet.load(cells), parse_gauge(gauge)).cost
    assert json.loads(report.read_text())["cover_cost"].hex() == want.hex()


def test_consecutive_calls_share_no_parser_state(tmp_path, capsys):
    cells, measure = write_square(tmp_path), tmp_path / "mu.json"
    assert run(["frostman", "--cells", str(cells), "--out", str(measure)]) == 0
    frostman = ["frostman", "--cells", str(cells), "--out", str(measure), "--report"]
    beta = ["beta", "--cells", str(cells), "--k", "1", "--out"]
    calls = [
        ([*frostman, str(tmp_path / "checked.json"), "--ball-check", "256"], 0, None),
        ([*frostman, str(tmp_path / "report.json")], 0, "report.json"),
        (["beta", "--measure", str(measure), "--k", "1", "--out", str(tmp_path / "beta_measure.json")], 0, None),
        ([*beta, str(tmp_path / "beta.json")], 0, "beta.json"),
        ([*frostman, str(tmp_path / "bad.json"), "--no-such-flag"], 3, None),
        ([*beta, str(tmp_path / "after_bad.json")], 0, "after_bad.json"),
    ]
    gmtkit.cli._parser.cache_clear()
    outputs = {}
    for argv, code, output in calls:
        assert run(argv) == code
        if output:
            outputs[output] = (tmp_path / output).read_bytes()
    assert gmtkit.cli._parser.cache_info().misses == 1  # built once for all six calls
    assert "ball_constant" not in json.loads(outputs["report.json"])
    assert outputs["beta.json"] == outputs["after_bad.json"]
    for argv, _, output in calls:  # each call again, on a parser of its own
        if output:
            gmtkit.cli._parser.cache_clear()
            assert run(argv) == 0
            assert (tmp_path / output).read_bytes() == outputs[output]
    assert json.loads(outputs["beta.json"]) != json.loads((tmp_path / "beta_measure.json").read_text())


def test_importing_the_cli_builds_no_parser(tmp_path):
    code = "import gmtkit.cli; print(gmtkit.cli._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=imported_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_content_cost_and_cover(tmp_path):
    cells = write_square(tmp_path, depth=2)
    out = tmp_path / "content.json"
    assert run([
        "content", "--cells", str(cells), "--gauge", "powerexp:2:0",
        "--out", str(out),
    ]) == 0
    got = json.loads(out.read_text())
    # h(r) = r^2 makes every cover of the square cost its squared diameter
    assert got["cost"] == pytest.approx(2.0, rel=1e-12)
    assert got["min_level"] == 0
    assert got["cover"] == [[0, [0, 0]]]


def test_content_profile_csv(tmp_path):
    cells = write_square(tmp_path, depth=3)
    out = tmp_path / "profile.csv"
    assert run([
        "content", "--cells", str(cells), "--gauge", "powerexp:1:0.5",
        "--profile", "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4  # min_level 0..depth
    costs = [float(r["cost"]) for r in rows]
    assert costs == sorted(costs)  # deeper floors never get cheaper


@pytest.mark.parametrize("command", [
    ["content", "--gauge", "powerexp:1:0.5", "--profile"],
    ["beta", "--k", "1"],
])
def test_text_outputs_create_a_missing_directory(tmp_path, command):
    cells = write_square(tmp_path, depth=3)
    existing, fresh = tmp_path / "out.json", tmp_path / "new" / "dir" / "out.json"
    for out in (existing, fresh):
        assert run([command[0], "--cells", str(cells), *command[1:], "--out", str(out)]) == 0
    assert fresh.read_bytes() == existing.read_bytes()


def test_sparsify_command(tmp_path, capsys):
    cells = write_square(tmp_path)
    mu_path = tmp_path / "mu.json"
    assert run([
        "frostman", "--cells", str(cells), "--gauge", "powerexp:1:0.5",
        "--out", str(mu_path),
    ]) == 0
    capsys.readouterr()
    out, cert, report = tmp_path / "sparse.json", tmp_path / "cert.json", tmp_path / "rep.json"
    code = run([
        "sparsify", "--measure", str(mu_path), "--gauge", "powerexp:1:0.5",
        "--ell", "4", "--depth", "24", "--out", str(out), "--cert", str(cert),
        "--report", str(report),
    ])
    assert code == 0
    assert "certified scales: 17" in capsys.readouterr().out
    rep = json.loads(report.read_text())
    assert rep["passed"] is True
    assert rep["scales"] == [17]
    assert rep["coarse_drift"] <= 1e-12
    assert rep["cap_ratio_k"] <= 1.0 + 1e-9
    back = SparsityCertificate.load(cert)
    assert back.scales == (17,)


@pytest.mark.parametrize(
    "command, obj",
    [
        ("frostman", {"n": float("inf"), "depth": 2, "cells": [[0, 0]]}),
        ("sparsify", {"n": 2, "depth": float("inf"), "masses": [[[0, 0], 1.0]]}),
        ("epsilon", {"kind": "empty", "dim": float("inf")}),
        ("certificate", {"n": 2, "ell": float("inf"), "scales": [], "families": []}),
        pytest.param("frostman", {"n": 2, "depth": 3.7, "cells": [[0, 0]]}, id="depth-3.7"),
        pytest.param("frostman", {"n": 2, "depth": 2.0, "cells": [[0, 0]]}, id="depth-2.0"),
        pytest.param("frostman", {"n": "2", "depth": 2, "cells": [[0, 0]]}, id="n-text"),
        pytest.param("sparsify", {"n": 2, "depth": 2, "cell_level": 1.5, "masses": [[[1, 0], 1.0]]},
                     id="cell-level-1.5"),
        pytest.param("epsilon", {"kind": "empty", "dim": 2.5}, id="pair-dim-2.5"),
        pytest.param("certificate", {"n": 2, "ell": 2, "scales": [2], "families": [{"scale": 2.5, "pairs": []}]},
                     id="family-scale-2.5"),
        pytest.param("content", {"n": 2, "depth": True, "cells": [[0, 1]]}, id="depth-true"),
        pytest.param("frostman", {"n": True, "depth": 2, "cells": [[1]]}, id="n-true"),
        pytest.param("sparsify", {"n": 2, "depth": 2, "cell_level": False, "masses": [[[0, 0], 1.0]]},
                     id="cell-level-false"),
        pytest.param("epsilon", {"kind": "empty", "dim": True}, id="pair-dim-true"),
        pytest.param("certificate", {"n": 2, "ell": True, "scales": [2], "families": [{"scale": 2, "pairs": []}]},
                     id="ell-true"),
        pytest.param("certificate", {"n": 2, "ell": 1, "scales": [1], "families": [{"scale": True, "pairs": []}]},
                     id="family-scale-true"),
    ],
)
def test_loaders_refuse_an_infinite_integer_field(tmp_path, capsys, command, obj):
    # int(inf) raises OverflowError, and int() reads 3.7 as 3 and "2" as 2; a header
    # field is read with operator.index, which takes only an integer: malformed input, exit 3
    if command == "certificate":
        with pytest.raises(InvalidInputError, match="malformed certificate object"):
            SparsityCertificate.load(_write_input(tmp_path, obj))
        return
    assert _run_loader(tmp_path, command, obj) == 3
    assert "invalid input: malformed" in capsys.readouterr().err


def _write_input(tmp_path, obj) -> Path:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))  # inf is written as the bare token Infinity
    return path


def _run_loader(tmp_path, command, obj) -> int:
    """The exit code of `command` reading `obj` from a file, checked to have written nothing."""
    path, out = str(_write_input(tmp_path, obj)), str(tmp_path / "out.json")
    argv = {
        "frostman": ["frostman", "--cells", path, "--out", out],
        "content": ["content", "--cells", path, "--out", out],
        "beta": ["beta", "--measure", path, "--k", "1", "--out", out],
        "sparsify": ["sparsify", "--measure", path, "--gauge", "powerexp:1:0.5", "--ell", "4", "--depth", "24",
                     "--out", out, "--cert", str(tmp_path / "cert.json")],
        "epsilon": ["epsilon", "--pair", path, "--center", "0.5,0.5", "--r", "0.25", "--out", out],
    }[command]
    code = run(argv)
    assert [p.name for p in tmp_path.iterdir()] == ["input.json"]
    return code


@pytest.mark.parametrize(
    "command, obj",
    [
        pytest.param("content", {"n": 2, "depth": 2, "cells": [[1.5, 0]]}, id="cell-index-1.5"),
        pytest.param("beta", {"n": 2, "depth": 2, "masses": [[[1.5, 0], 1.0]]}, id="measure-cell-1.5"),
        pytest.param("sparse-measure", {"n": 2, "depth": 2, "nodes": [[1.5, [0, 0], 1.0]], "windows": []},
                     id="node-level-1.5"),
        pytest.param("sparse-measure", {"n": 2, "depth": 2, "nodes": [[2, [0, 0], 1.0]], "windows": [[0.5, 1]]},
                     id="window-start-0.5"),
        pytest.param("certificate", {"n": 2, "ell": 2, "scales": [2.5], "families": [{"scale": 2, "pairs": []}]},
                     id="certificate-scales-2.5"),
    ],
)
def test_loaders_refuse_a_fraction_in_an_integer_column(tmp_path, capsys, command, obj):
    # the int64 cast read 1.5 as 1 and int() 2.5 as 2, so another set was certified
    load = {"sparse-measure": SparseMeasure.load, "certificate": SparsityCertificate.load}.get(command)
    if load:
        with pytest.raises(InvalidInputError):
            load(_write_input(tmp_path, obj))
        return
    assert _run_loader(tmp_path, command, obj) == 3
    assert "invalid input:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sparsify", "beta"])
@pytest.mark.parametrize("obj", [5, None, [], "masses"])
def test_measure_commands_refuse_a_file_that_is_not_an_object(tmp_path, capsys, command, obj):
    assert _run_loader(tmp_path, command, obj) == 3
    assert "does not hold an explicit cell measure" in capsys.readouterr().err


@pytest.mark.parametrize("row", [[2, [0, 0]], [2, [0, 0], 1.0, 1.0]], ids=["two-entries", "four-entries"])
def test_sparse_measure_load_takes_exactly_three_node_columns(tmp_path, row):
    with pytest.raises(InvalidInputError, match="malformed sparse measure object"):
        SparseMeasure.load(_write_input(tmp_path, {"n": 2, "depth": 2, "nodes": [row], "windows": []}))


VALID_INPUTS = {
    "cell-set": (CellSet.from_json_obj, {"n": 2, "depth": 2, "cells": [[0, 1], [3, 2]]}),
    "cell-measure": (CellMeasure.from_json_obj,
                     {"n": 2, "depth": 3, "cell_level": 2, "masses": [[[0, 1], 0.5], [[3, 2], 0.25]]}),
    "sparse-measure": (SparseMeasure.from_json_obj,
                       {"n": 2, "depth": 4, "nodes": [[1, [0, 1], 0.5], [3, [7, 0], 0.25]], "windows": [[2, 1]]}),
    "certificate": (SparsityCertificate.from_json_obj,
                    {"n": 2, "ell": 2, "scales": [2], "families": [{"scale": 2, "pairs": [[[0, 1], [1, 6]]]}]}),
    "halfspace": (pair_from_json, {"kind": "halfspace", "normal": [1.0, 0.0], "point": [0.5, 0.5]}),
    "slab-complement": (pair_from_json, {"kind": "slab-complement", "normal": [1.0, 0.0], "point": [0.5, 0.5], "gap": 0.1}),
    "ball": (pair_from_json, {"kind": "ball", "center": [0.5, 0.5], "radius": 0.25}),
    "empty": (pair_from_json, {"kind": "empty", "dim": 2}),
    "polygon": (pair_from_json, {"kind": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}),
}
ODD_VALUES = [None, True, 1.5, 10**30, "x", [], {}, [[1]], [[1, [0, 0]]]]


@pytest.mark.parametrize("load, obj", VALID_INPUTS.values(), ids=VALID_INPUTS.keys())
def test_loaders_raise_only_invalid_input(load, obj):
    load(obj)  # the valid object loads
    for value in ODD_VALUES:
        for odd in [value, *({**obj, key: value} for key in obj)]:  # the whole object, or one field
            with contextlib.suppress(InvalidInputError):
                load(odd)


def test_sparsify_rejects_a_measure_listing_a_cell_twice(tmp_path, capsys):
    measure = tmp_path / "dup.json"
    measure.write_text(json.dumps({"n": 2, "depth": 2, "masses": [[[0, 0], 0.5], [[0, 0], 0.25]]}))
    code = run([
        "sparsify", "--measure", str(measure), "--gauge", "powerexp:1:0.5", "--ell", "4", "--depth", "24",
        "--out", str(tmp_path / "sparse.json"), "--cert", str(tmp_path / "cert.json"),
    ])
    assert code == 3
    assert "invalid input" in capsys.readouterr().err


def test_beta_csv_on_flat_cells(tmp_path):
    cells_path = tmp_path / "patch.json"
    assert run([
        "generate", "--kind", "plane-patch", "--depth", "6", "--out", str(cells_path),
    ]) == 0
    out = tmp_path / "beta.csv"
    assert run([
        "beta", "--cells", str(cells_path), "--center", "0.5,0.0078125",
        "--scales", "2:8", "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["x0", "x1", "level", "beta"]
    assert len(rows) == 8
    assert all(float(r[3]) < 1e-10 for r in rows[1:])


def test_beta_from_measure_json(tmp_path):
    cells = write_square(tmp_path)
    mu_path = tmp_path / "mu.json"
    assert run(["frostman", "--cells", str(cells), "--out", str(mu_path)]) == 0
    out = tmp_path / "beta.json"
    assert run([
        "beta", "--measure", str(mu_path), "--center", "0.5,0.5",
        "--scales", "1:4", "--out", str(out),
    ]) == 0
    got = json.loads(out.read_text())
    assert got["levels"] == [1, 2, 3, 4]
    assert all(v > 0.1 for v in got["values"])  # a full square is nowhere flat


def test_beta_rejects_a_measure_deeper_than_the_lattice(tmp_path, capsys):
    measure = tmp_path / "deep.json"
    measure.write_text(json.dumps({"n": 2, "depth": 60, "cell_level": 1, "masses": [[[0, 1], 1.0]]}))
    assert run(["beta", "--measure", str(measure), "--center", "0.5,0.5", "--scales", "1:4"]) == 3
    assert "invalid input" in capsys.readouterr().err


def test_beta_needs_exactly_one_source(tmp_path, capsys):
    cells = write_square(tmp_path)
    mu_path = tmp_path / "mu.json"
    assert run(["frostman", "--cells", str(cells), "--out", str(mu_path)]) == 0
    assert run(["beta", "--k", "1"]) == 3
    assert run(["beta", "--k", "1", "--cells", str(cells), "--measure", str(mu_path)]) == 3
    assert capsys.readouterr().err.count("invalid input") == 2


def test_epsilon_halfspace(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "halfspace", "normal": [0.0, 1.0], "point": [0.5, 0.5]}))
    out = tmp_path / "eps.json"
    assert run([
        "epsilon", "--pair", str(pair), "--center", "0.5,0.5", "--r", "0.25",
        "--samples", "100000", "--out", str(out),
    ]) == 0
    got = json.loads(out.read_text())
    assert got["value"] < 1e-3
    assert got["round_minima"][-1] == got["value"]
    mins = got["round_minima"]
    assert all(b <= a for a, b in zip(mins, mins[1:]))


def test_epsilon_profile_csv(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "empty", "dim": 2}))
    out = tmp_path / "eps.csv"
    assert run([
        "epsilon", "--pair", str(pair), "--center", "0.5,0.5",
        "--scales", "2:5", "--samples", "512", "--format", "csv", "--out", str(out),
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 5
    values = [float(r[3]) for r in rows[1:]]
    assert all(v == pytest.approx(2.0 * 3.141592653589793, rel=1e-12) for v in values)


HALFSPACE = {"kind": "halfspace", "normal": [0.0, 1.0], "point": [0.5, 0.5]}


@pytest.mark.parametrize(
    "pair, args",
    [
        (HALFSPACE, ["--r", "nan"]),
        (HALFSPACE, ["--r", "inf"]),
        (HALFSPACE, ["--center", "nan,0.5"]),
        (HALFSPACE, ["--center", "0.5,ab"]),
        ({"kind": "ball", "center": [0.5, 0.5], "radius": float("nan")}, []),
        ({"kind": "slab-complement", "normal": [0.0, 1.0], "point": [0.5, 0.5], "gap": float("nan")}, []),
        ({"kind": "halfspace", "normal": [float("nan"), 1.0], "point": [0.5, 0.5]}, []),
        ({"kind": "halfspace", "normal": [0.0, 1.0], "point": [0.5, 0.5, 0.5]}, []),
        ({"kind": "halfspace", "normal": [0.0, 0.0], "point": [0.5, 0.5]}, []),
        ({"kind": "ball", "center": [0.5, 0.5], "radius": "0.25"}, []),
    ],
    ids=[
        "r-nan", "r-inf", "center-nan", "center-text", "ball-radius-nan", "slab-gap-nan", "normal-nan", "normal-point-lengths",
        "normal-zero", "ball-radius-text",
    ],
)
def test_epsilon_rejects_bad_input(tmp_path, capsys, pair, args):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))  # NaN is written as the bare token NaN
    assert run(["epsilon", "--pair", str(path), "--center", "0.5,0.5", "--r", "0.25", *args]) == 3
    assert "invalid input:" in capsys.readouterr().err


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_epsilon_normal_length_does_not_matter(tmp_path, size):
    outputs = []
    for normal in ([1.0, 1.0], [size, size]):
        path, out = tmp_path / "pair.json", tmp_path / f"eps-{normal[0]}.json"
        path.write_text(json.dumps({"kind": "halfspace", "normal": normal, "point": [0.5, 0.5]}))
        argv = ["epsilon", "--pair", str(path), "--center", "0.5,0.5", "--r", "0.25", "--samples", "4096"]
        assert run([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_epsilon_takes_r_or_scales_not_both(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(HALFSPACE))
    argv = ["epsilon", "--pair", str(path), "--center", "0.5,0.5", "--samples", "512"]
    assert run([*argv, "--r", "-5", "--scales", "2:4"]) == 3
    assert "invalid input:" in capsys.readouterr().err
    assert run([*argv, "--scales", "2:4"]) == 0


def test_beta_rejects_a_non_finite_center(tmp_path, capsys):
    cells = write_square(tmp_path)
    for center in ("nan,0.5", "0.5,inf"):
        assert run(["beta", "--cells", str(cells), "--k", "1", "--center", center]) == 3
    assert capsys.readouterr().err.count("invalid input:") == 2


# c0-trials must stay large enough for the clearance estimate to settle
# below the construction's actual minimum; 8 trials leaves it too high
EXTRACT_ARGS = [
    "--k", "1", "--depth", "40", "--seed", "0",
    "--witness-samples", "6", "--c0-trials", "64", "--beta-centers", "2",
]

ARTIFACTS = (
    "certificate.json",
    "frostman_measure.json",
    "sparse_measure.json",
    "summary.json",
    "beta.csv",
)


def test_extract_core_pipeline(tmp_path, capsys):
    cells_path = tmp_path / "cantor.json"
    assert run(["generate", "--kind", "four-corner-cantor", "--depth", "8", "--out", str(cells_path)]) == 0
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(["extract-core", "--cells", str(cells_path), *EXTRACT_ARGS, "--outdir", str(out1)]) == 0
    assert "extracted core with scales" in capsys.readouterr().out
    assert run(["extract-core", "--cells", str(cells_path), *EXTRACT_ARGS, "--outdir", str(out2)]) == 0
    for name in ARTIFACTS:
        f1, f2 = out1 / name, out2 / name
        assert f1.exists(), name
        assert f1.read_bytes() == f2.read_bytes(), name
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["params"]["gauge"] == "powerexp:1:0.5"
    assert summary["sparsify"]["scales"] == [17, 33]
    assert summary["c0"]["value"] > 0.0
    assert summary["witness"]["passed"] is True


def test_exit_code_invalid_input(tmp_path, capsys):
    assert run(["generate", "--kind", "no-such-kind", "--out", str(tmp_path / "x.json")]) == 3
    capsys.readouterr()
    assert run(["frostman", "--cells", str(tmp_path / "missing.json"), "--out", str(tmp_path / "y.json")]) == 3
    cells = write_square(tmp_path)
    assert run(["frostman", "--cells", str(cells), "--gauge", "power:oops", "--out", str(tmp_path / "z.json")]) == 3
    for label in ("powerexp:1:nan", "powerexp:1:inf"):
        assert run(["frostman", "--cells", str(cells), "--gauge", label, "--out", str(tmp_path / "z.json")]) == 3
    err = capsys.readouterr().err
    assert "invalid input" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "four-corner-cantor", "--out", "{out}/cells.json"],
    ["frostman", "--cells", "{cells}", "--out", "{out}/mu.json"],
    ["sparsify", "--measure", "{out}/mu.json", "--gauge", "power:1", "--out", "{out}/nu.json", "--cert", "{out}/cert.json"],
    ["epsilon", "--pair", "{pair}", "--center", "0.5,0.5", "--out", "{out}/eps.json"],
    ["extract-core", "--cells", "{cells}", "--outdir", "{out}"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_invalid_input(tmp_path, capsys, argv):
    # numpy's generators refuse a negative seed; the parser refuses it before any file is read or written
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(HALFSPACE))
    paths = {"out": tmp_path / "out", "cells": write_square(tmp_path), "pair": pair}
    assert run([*(a.format(**paths) for a in argv), "--seed", "-1"]) == 3
    assert "invalid input: argument --seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--witness-samples", "0"), ("--witness-samples", "-3"),
    ("--beta-centers", "0"), ("--beta-centers", "-3"), ("--beta-centers", "2049"), ("--beta-centers", "5000"),
])
def test_extract_core_rejects_counts_without_an_answer(tmp_path, capsys, flag, value):
    # no samples make a vacuous witness pass; beta centres come from the 2048 beta points
    cells_path = tmp_path / "cantor.json"
    run(["generate", "--kind", "four-corner-cantor", "--depth", "6", "--out", str(cells_path)])
    capsys.readouterr()
    assert run(["extract-core", "--cells", str(cells_path), flag, value, "--outdir", str(tmp_path / "out")]) == 3
    assert "invalid input" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_depth_budget(tmp_path, capsys):
    cells_path = tmp_path / "cantor.json"
    run(["generate", "--kind", "four-corner-cantor", "--depth", "8", "--out", str(cells_path)])
    code = run(["extract-core", "--cells", str(cells_path), "--depth", "18", "--outdir", str(tmp_path / "out")])
    assert code == 4
    assert "depth budget" in capsys.readouterr().err


def test_exit_code_verification_with_stage(tmp_path, capsys):
    cells_path = tmp_path / "cantor.json"
    run(["generate", "--kind", "four-corner-cantor", "--depth", "8", "--out", str(cells_path)])
    capsys.readouterr()
    code = run([
        "extract-core", "--cells", str(cells_path), "--gauge", "power:1",
        "--outdir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("gauge:")


def test_failed_stages_name_what_failed(tmp_path, capsys, monkeypatch):
    import dataclasses

    import gmtkit.cli

    cells_path = tmp_path / "cantor.json"
    run(["generate", "--kind", "four-corner-cantor", "--depth", "8", "--out", str(cells_path)])
    capsys.readouterr()
    # a clearance target above 1/2 cannot be met: a grid point lies within 2^-(l+1)
    # of x, and x lies in a selected subcube
    estimate = gmtkit.cli.estimate_c0
    monkeypatch.setattr(gmtkit.cli, "estimate_c0", lambda *a, **kw: dataclasses.replace(estimate(*a, **kw), value=0.625))
    assert run(["extract-core", "--cells", str(cells_path), *EXTRACT_ARGS, "--outdir", str(tmp_path / "w")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("witness: 12 hole witnesses missed the clearance target c0 = 0.625")
    assert "(first: sample 0, scale 17)" in err
    assert not (tmp_path / "w").exists()

    verify = gmtkit.cli.verify_frostman
    monkeypatch.setattr(gmtkit.cli, "verify_frostman", lambda *a: dataclasses.replace(
        verify(*a), max_ratio=1.5, worst_cube=(3, (2, 5)), passed=False))
    assert run(["extract-core", "--cells", str(cells_path), *EXTRACT_ARGS, "--outdir", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err.startswith(
        "frostman: capped construction exceeds its gauge (ratio 1.5 at (level, index) (3, (2, 5)))")
    monkeypatch.setattr(gmtkit.cli, "verify_frostman", verify)

    verify_sparse = gmtkit.cli.verify_sparse_construction
    monkeypatch.setattr(gmtkit.cli, "verify_sparse_construction", lambda *a, **kw: dataclasses.replace(
        verify_sparse(*a, **kw), passed=False))
    assert run(["extract-core", "--cells", str(cells_path), *EXTRACT_ARGS, "--outdir", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("sparsify: sparse construction failed verification")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("spec, k, builds", [
    (GeneratorSpec("four-corner-cantor", n=2, depth=10), 1, 1),
    # the cell set, and content_beta's cells in its ball
    (GeneratorSpec("random-sparse", n=3, depth=9, ell=4, seed=0), 2, 2),
], ids=["cantor-k1", "sparse3-k2"])
def test_extract_core_builds_one_pyramid_per_node_set(monkeypatch, spec, k, builds):
    import dataclasses

    import gmtkit.cli

    built = []
    init = Pyramid.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    # the random-sparse input misses its witness target; the stages after it still run
    witness = gmtkit.cli.witness_unrectifiability
    monkeypatch.setattr(gmtkit.cli, "witness_unrectifiability", lambda *a, **kw: dataclasses.replace(
        witness(*a, **kw), passed=True))
    cells = generate(spec)
    monkeypatch.setattr(Pyramid, "__init__", counted)
    gmtkit.cli.pipeline_extract_core(cells, k, seed=0)
    assert len(built) == builds


@pytest.mark.parametrize("extra", [[], ["--ell", "4"]], ids=["default-ell", "explicit-ell"])
@pytest.mark.parametrize("k", ["0", "2", "3"])
def test_extract_core_refuses_k_outside_one_to_n_before_any_stage(tmp_path, capsys, monkeypatch, k, extra):
    import gmtkit.cli

    cells_path = tmp_path / "cantor.json"
    run(["generate", "--kind", "four-corner-cantor", "--depth", "6", "--out", str(cells_path)])
    capsys.readouterr()
    calls = []
    build = gmtkit.cli.build_frostman
    monkeypatch.setattr(gmtkit.cli, "build_frostman", lambda *a: calls.append(a) or build(*a))
    assert run(["extract-core", "--cells", str(cells_path), "--k", k, *extra, "--outdir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"invalid input: need 1 <= k < n, got k={k}, n=2")
    assert not (tmp_path / "out").exists()
    assert calls == []


def test_sparsify_refuses_k_at_least_n_before_writing(tmp_path, capsys):
    mu_path = tmp_path / "mu.json"
    assert run(["frostman", "--cells", str(write_square(tmp_path)), "--gauge", "powerexp:2:0.5", "--out", str(mu_path)]) == 0
    capsys.readouterr()
    out, cert = tmp_path / "sparse.json", tmp_path / "cert.json"
    assert run([
        "sparsify", "--measure", str(mu_path), "--gauge", "powerexp:2:0.5", "--k", "2", "--ell", "4",
        "--depth", "24", "--out", str(out), "--cert", str(cert),
    ]) == 3
    assert capsys.readouterr().err.startswith("invalid input: need 1 <= k < n, got k=2, n=2")
    assert not out.exists() and not cert.exists()


def test_commands_exit_2_when_their_verification_fails(tmp_path, capsys, monkeypatch):
    import dataclasses

    import gmtkit.cli

    cells_path = tmp_path / "cantor.json"
    run(["generate", "--kind", "four-corner-cantor", "--depth", "8", "--out", str(cells_path)])
    mu_path = tmp_path / "mu.json"
    assert run(["frostman", "--cells", str(cells_path), "--gauge", "powerexp:1:0.5", "--out", str(mu_path)]) == 0
    capsys.readouterr()
    verify_sparse = gmtkit.cli.verify_sparse_construction
    monkeypatch.setattr(gmtkit.cli, "verify_sparse_construction", lambda *a, **kw: dataclasses.replace(
        verify_sparse(*a, **kw), passed=False))
    assert run([
        "sparsify", "--measure", str(mu_path), "--gauge", "powerexp:1:0.5", "--ell", "4", "--depth", "24",
        "--out", str(tmp_path / "sparse.json"), "--cert", str(tmp_path / "cert.json"),
    ]) == 2
    assert capsys.readouterr().err.startswith("sparsify: sparse construction failed verification")

    verify_frostman = gmtkit.cli.verify_frostman
    monkeypatch.setattr(gmtkit.cli, "verify_frostman", lambda *a: dataclasses.replace(
        verify_frostman(*a), max_ratio=1.5, passed=False))
    assert run(["frostman", "--cells", str(cells_path), "--out", str(tmp_path / "mu2.json")]) == 2
    assert capsys.readouterr().err.startswith("frostman: cap exceeded, ratio 1.5")


def run_declared_entry_point(argv, cwd):
    """Run the `gmtkit` console script as pyproject.toml declares it.

    Without an install there is no `gmtkit` executable, so this does what
    pip's generated wrapper does: import the declared `module:function` in a
    fresh interpreter and exit with its return value, with the CLI arguments
    in `sys.argv`. The subprocess imports the same `gmtkit` source as this
    suite, whatever the caller's working directory.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("gmtkit") == "gmtkit.cli:main"
    module, func = scripts["gmtkit"].split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=imported_package_env(),
    )


def imported_package_env() -> dict:
    """The environment with PYTHONPATH led by the directory holding the gmtkit
    package this suite imported."""
    src = str(Path(gmtkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)


def test_console_script_smoke(tmp_path):
    out = tmp_path / "cells.json"
    argv = ["generate", "--kind", "plane-patch", "--depth", "4", "--out", str(out)]
    if shutil.which("gmtkit") is not None:
        proc = subprocess.run(["gmtkit", *argv], capture_output=True, text=True)
    else:
        proc = run_declared_entry_point(argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote 16 cells" in proc.stdout


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats costs about a second of start-up; only the epsilon command
    # in four or more dimensions needs it
    code = "import sys, gmtkit.cli; print(sorted({'scipy.stats', 'scipy.special'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=imported_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs 20-30 ms of start-up; a plain np.unique imports it
    code = """if True:
        import sys
        from gmtkit.cli import main
        codes = [main(argv) for argv in (
            ["generate", "--kind", "four-corner-cantor", "--depth", "6", "--out", "cells.json"],
            ["extract-core", "--cells", "cells.json", "--k", "1", "--witness-samples", "2", "--beta-centers", "1",
             "--outdir", "out"],
            ["frostman", "--cells", "cells.json", "--out", "mu.json", "--report", "rep.json", "--ball-check", "8"],
            ["content", "--cells", "cells.json", "--profile", "--out", "profile.json"],
            ["beta", "--cells", "cells.json", "--out", "beta.json"],
        )]
        print(codes, "numpy.ma" in sys.modules)
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=imported_package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"


def run_traced(tmp_path, generate_args, extract_args):
    """Run `generate` then `extract-core` under bench/tracer.py in a fresh
    interpreter; return the exit code, the span names and the layer metrics."""
    # bench/tracer.py wraps gmtkit functions by name from outside the package;
    # a rename or a removed call would silently drop a layer from the benchmark
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import gmtkit.cli
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        gmtkit.cli.main(["generate", *json.loads(sys.argv[2]), "--out", "cells.json"])
        code = gmtkit.cli.main(["extract-core", "--cells", "cells.json", *json.loads(sys.argv[3]), "--outdir", "out"])
        print(json.dumps([code, sorted({span["name"] for span in tracer.span_records()}), tracer.layer_metrics()]))
    """
    bench = Path(__file__).resolve().parent.parent / "bench"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(bench), json.dumps(generate_args), json.dumps(extract_args)],
        capture_output=True, text=True, cwd=tmp_path, env=imported_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_tracer_spans_the_sparse_layers(tmp_path):
    code, names, _ = run_traced(
        tmp_path, ["--kind", "four-corner-cantor", "--depth", "6"],
        ["--k", "1", "--witness-samples", "2", "--beta-centers", "1"],
    )
    assert code == 0
    for name in ("find_hole", "distance_to_family", "sample_support_points", "support_sample_cells",
                 "verify_sparse_construction"):
        assert name in names


def test_benchmark_tracer_counts_content_calls(tmp_path):
    # the tracer counts calls of gmtkit.beta.content by that module attribute;
    # the Cantor input's barycentre ball is empty, so this input has cells there
    code, names, metrics = run_traced(
        tmp_path, ["--kind", "random-sparse", "--n", "3", "--depth", "6", "--ell", "4", "--seed", "0"],
        ["--k", "2", "--witness-samples", "2", "--beta-centers", "1"],
    )
    assert code == 0
    assert "content_beta" in names
    assert metrics["beta.content_calls"] > 0
