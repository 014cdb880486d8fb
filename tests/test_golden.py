"""Byte identity of the artifacts against a committed manifest.

`golden_sha256.json` maps each artifact of a fixed, small set to its SHA-256
and byte length.  The set is what the benchmark workers write at seed 0: the
generated inputs (one per generator kind, plus the random-sparse
certificate), the five `extract-core` artifacts of the `core_cantor_k1` and
`core_sparse3_k2` runs, and the nine `measure_tools` outputs; beside them,
`sparsify` on the dense Frostman measure (result measure, certificate and
report), `beta --measure` on the same measure, and the five `extract-core
--k 1` artifacts of the dense cell set, the one run here whose
`content_beta` ball holds cells in the plane (n = 2, k = 1).  The test
regenerates them in-process through `gmtkit.cli.main` and compares.

The hashes hold for numpy 2.4 and Python 3.11; other versions may round
floats or draw random numbers differently.  A change that alters bytes on
purpose edits only the affected entries and says which and why in
CHANGES.md; the manifest is never regenerated wholesale to get a pass.
"""

import hashlib
import json
from pathlib import Path

from gmtkit.cli import main

MANIFEST = Path(__file__).with_name("golden_sha256.json")

GENERATE = {
    "core_cantor": ["--kind", "four-corner-cantor", "--n", "2", "--depth", "10"],
    "cantor8": ["--kind", "four-corner-cantor", "--n", "2", "--depth", "8"],
    "plane": ["--kind", "plane-patch", "--n", "3", "--k", "2", "--depth", "6"],
    "dense": ["--kind", "random-dense", "--n", "2", "--depth", "6", "--seed", "0"],
    "core_sparse": ["--kind", "random-sparse", "--n", "3", "--depth", "9", "--ell", "4", "--seed", "0"],
    "product": ["--kind", "product-cantor", "--n", "3", "--depth", "6", "--levels-per-generation", "2"],
}


def _commands(pairs: Path, i: Path, o: Path) -> list[list]:
    """The CLI calls behind the set: domain pairs in `pairs`, generated inputs
    in `i`, the other artifacts under `o`."""
    measure, sparse = o / "measure_tools", o / "sparsify"
    return [
        *(["generate", *spec, "--out", i / f"{name}.json"] for name, spec in GENERATE.items()),
        ["generate", *GENERATE["core_sparse"], "--out", i / "core_sparse.json", "--cert-out", i / "core_sparse_cert.json"],
        ["extract-core", "--cells", i / "core_cantor.json", "--k", 1, "--seed", 0,
         "--witness-samples", 100, "--c0-trials", 300, "--outdir", o / "core_cantor_k1"],
        ["extract-core", "--cells", i / "core_sparse.json", "--k", 2, "--seed", 0, "--outdir", o / "core_sparse3_k2"],
        ["extract-core", "--cells", i / "dense.json", "--k", 1, "--seed", 0, "--outdir", o / "core_dense_k1"],
        ["frostman", "--cells", i / "plane.json", "--gauge", "power:2", "--k", 2, "--out", measure / "plane_measure.json",
         "--report", measure / "plane_report.json", "--ball-check", 256, "--seed", 0],
        ["frostman", "--cells", i / "dense.json", "--gauge", "power:2", "--k", 2, "--out", measure / "dense_measure.json",
         "--report", measure / "dense_report.json", "--ball-check", 256, "--seed", 0],
        ["content", "--cells", i / "cantor8.json", "--profile", "--out", measure / "profile.json"],
        ["beta", "--cells", i / "cantor8.json", "--k", 1, "--out", measure / "beta_cantor.json"],
        ["beta", "--cells", i / "plane.json", "--k", 2, "--out", measure / "beta_plane.json"],
        ["epsilon", "--pair", pairs / "halfspace.json", "--center", "0.5,0.5", "--r", 0.25,
         "--samples", 100000, "--seed", 0, "--out", measure / "epsilon_halfspace.json"],
        ["epsilon", "--pair", pairs / "ball.json", "--center", "0.5,0.75", "--scales", "2:6",
         "--seed", 0, "--out", measure / "epsilon_ball.json"],
        ["sparsify", "--measure", measure / "dense_measure.json", "--gauge", "powerexp:1:0.5", "--k", 1, "--ell", 4,
         "--depth", 40, "--out", sparse / "measure.json", "--cert", sparse / "certificate.json",
         "--report", sparse / "report.json", "--seed", 0],
        ["beta", "--measure", measure / "dense_measure.json", "--k", 1, "--out", sparse / "beta_dense_measure.json"],
    ]


def golden_artifacts(root: Path) -> dict:
    """Write the set under `root`; return {path under root / "golden": {sha256, bytes}}."""
    pairs, out = root / "pairs", root / "golden"
    pairs.mkdir()
    (out / "inputs").mkdir(parents=True)
    (out / "measure_tools").mkdir()
    (out / "sparsify").mkdir()
    (pairs / "halfspace.json").write_text('{"kind":"halfspace","normal":[0.0,1.0],"point":[0.5,0.5]}\n')
    (pairs / "ball.json").write_text('{"kind":"ball","center":[0.5,0.5],"radius":0.25}\n')
    for argv in _commands(pairs, out / "inputs", out):
        assert main([str(a) for a in argv]) == 0, argv
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        found[path.relative_to(out).as_posix()] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return found


def test_artifacts_match_the_golden_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = golden_artifacts(tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"artifacts whose bytes changed: {changed}"
