"""Reference figures for bench/README.md, measured once.

    python3 bench/reference.py

Run from the root of a gmtkit checkout; takes a few minutes.  Prints
markdown tables of per-layer self times (fastest of REPS traced repetitions
of each configuration):

* `core_cantor_k1`'s operation on the four-corner Cantor set at depths 8, 10
  and 12, with the scaling exponent log(t2/t1)/log(cells2/cells1) between
  rungs (where both rungs take at least 0.02 s), so a quadratic layer
  reads near 2;
* `core_sparse3_k2` at GMT_THREADS=1 (the serial baseline) and 2;
* the wall time of `witness_unrectifiability` (its span's length) on both
  core inputs at GMT_THREADS=1 and 2;
* the tracing overhead: fastest traced minus fastest untraced wall time of
  `core_cantor_k1` at depth 10.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

LADDER = (8, 10, 12)
REPS = 3


def fastest(workload: str, work, tag: str, threads: int, traced: bool) -> dict:
    recs = [run.run_worker(workload, work, f"{tag}-{i}", 0, threads, traced) for i in range(REPS)]
    for i in range(REPS):
        shutil.rmtree(work / f"{tag}-{i}", ignore_errors=True)
    return min(recs, key=lambda r: r["wall_s"])


def witness_wall(rec: dict) -> float:
    return sum(s["end"] - s["start"] for s in rec["spans"] if s["name"] == "witness_unrectifiability")


def table(columns: dict, with_exponents: bool) -> str:
    names = list(columns)
    head = "| metric | " + " | ".join(names) + " |"
    if with_exponents:
        head += " " + " | ".join(f"exp {a}→{b}" for a, b in zip(names, names[1:])) + " |"
    lines = [head, "|" + "---|" * (head.count("|") - 1)]
    keys = ["wall_s"] + [k for k in run.PER_LAYER if k.endswith("_s") and k not in ("import.gmtkit_s",
                         "import.carleson_s", "trace.overhead_s")]
    for key in keys:
        vals = [columns[c]["wall_s"] if key == "wall_s" else columns[c]["layers"].get(key, 0.0) for c in names]
        if not any(v > 5e-3 for v in vals):
            continue
        row = f"| {key} | " + " | ".join(f"{v:.3f}" for v in vals) + " |"
        if with_exponents:
            cells = [columns[c]["layers"]["lattice.input_cells"] for c in names]
            exps = [
                f"{math.log(b / a) / math.log(cb / ca):.2f}" if min(a, b) >= 0.02 else "–"
                for a, b, ca, cb in zip(vals, vals[1:], cells, cells[1:])
            ]
            row += " " + " | ".join(exps) + " |"
        lines.append(row)
    return "\n".join(lines)


def main() -> int:
    out = run.BENCH / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=out))
    try:
        run.prepare(work, 0)
        ladder = {}
        for depth in LADDER:
            subprocess.run(
                [sys.executable, "-c", "import sys; from gmtkit.cli import main; sys.exit(main(sys.argv[1:]))",
                 "generate", "--kind", "four-corner-cantor", "--n", "2", "--depth", str(depth),
                 "--out", str(work / "inputs" / "core_cantor.json")],
                env=run.worker_env(1), check=True, stdout=subprocess.DEVNULL,
            )
            ladder[f"depth {depth}"] = fastest("core_cantor_k1", work, f"cantor{depth}", 1, True)
            if depth == 10:
                plain = fastest("core_cantor_k1", work, "plain", 1, False)
                pooled = fastest("core_cantor_k1", work, "pooled", 2, True)
        print("core_cantor_k1 operation on the Cantor ladder, self time in s\n")
        print(table(ladder, with_exponents=True))

        sparse = {f"GMT_THREADS={t}": fastest("core_sparse3_k2", work, f"sparse{t}", t, True)
                  for t in (1, 2)}
        print("\ncore_sparse3_k2, self time in s (pooled layers sum both threads)\n")
        print(table(sparse, with_exponents=False))

        print("\nwitness_unrectifiability wall time in s\n\n| input | GMT_THREADS=1 | GMT_THREADS=2 |\n|---|---|---|")
        for name, one, two in (("Cantor depth 10, k=1", ladder["depth 10"], pooled),
                               ("random-sparse n=3, k=2", sparse["GMT_THREADS=1"], sparse["GMT_THREADS=2"])):
            print(f"| {name} | {witness_wall(one):.3f} | {witness_wall(two):.3f} |")

        overhead = ladder["depth 10"]["wall_s"] - plain["wall_s"]
        print(f"\ntracing overhead on core_cantor_k1: {overhead:.3f} s on {plain['wall_s']:.3f} s untraced")
    except run.BenchError as exc:
        print(f"reference run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
