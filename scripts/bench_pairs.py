#!/usr/bin/env python3
"""Alternated benchmark pairs of two commits, written as a BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent REV --change REV --label NAME \\
        --workload core_cantor_k1:1-10 --workload measure_tools:1-10 [--seconds 35]

Run from a gmtkit checkout.  Each side is a `git archive` copy of its commit,
the two at paths of equal length under --work, with its bytecode compiled once
before the first pair (the benchmark runs with PYTHONDONTWRITEBYTECODE, so a
tree without compiled bytecode would recompile every module in every worker).
For each workload and each of its seeds, both copies run
`bench/run.py --workload W --seed S --seconds T --trace 0` one after the
other; the parent runs first in the first, third, ... pair of a workload and
the change first in the others.  The output holds, per workload and
end-to-end metric, both sides' runs, medians and quartiles, and the number of
pairs in which the change is lower, in the layout of the earlier
BENCH_*.json files.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")  # names of equal length, so both trees sit at paths of one length


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def build_tree(rev: str, dest: Path) -> str:
    """Extract `rev` into `dest`, compile its bytecode, return the full commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=dest, check=True)
    return sha


def parse_workload(text: str) -> tuple[str, list[int]]:
    """`name:a-b` or `name:s1,s2,...` -> (name, seeds), at least two seeds,
    since quartiles need two runs a side."""
    name, _, seeds = text.partition(":")
    if "-" in seeds:
        a, b = seeds.split("-")
        seed_list = list(range(int(a), int(b) + 1))
    else:
        seed_list = [int(s) for s in seeds.split(",")]
    if len(seed_list) < 2:
        raise argparse.ArgumentTypeError(f"{text}: a workload needs at least two seeds")
    return name, seed_list


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py call in `tree`; its last stdout line, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=4 * seconds + 300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def workload_record(seeds: list[int], lines: dict[str, list[dict]]) -> dict:
    metrics = {}
    for name, entry in lines["parent"][0]["metrics"].items():
        runs = {side: [line["metrics"][name]["value"] for line in lines[side]] for side in SIDES}
        lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        metrics[name] = {
            "unit": entry["unit"],
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
            "pairs_change_lower": f"{lower}/{len(seeds)}",
            "parent_runs": [round(v, 4) for v in runs["parent"]],
            "change_runs": [round(v, 4) for v in runs["change"]],
        }
    return {
        "seeds": seeds,
        "end_to_end": metrics,
        "correct_attempted_failed": {
            side: [[line["correct"], line["attempted"], line["failed"]] for line in lines[side]] for side in SIDES
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--change", default="HEAD", help="the commit that makes the claim")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True, type=parse_workload,
                    help="NAME:FIRST-LAST or NAME:S1,S2,...: a workload and its seeds, one pair per seed")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--claim", default="", help="what the pairs are meant to show")
    ap.add_argument("--note", action="append", default=[], help="a line for the notes list")
    ap.add_argument("--work", default=None, help="directory for the two trees (default: a temporary one)")
    ap.add_argument("--out", default=None, help="output path (default: BENCH_<label>.json here)")
    args = ap.parse_args()

    import numpy  # only for the machine line; the trees import their own copies in their workers

    if args.work is not None:
        Path(args.work).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work))
    try:
        trees = {side: work / side for side in SIDES}
        shas = {side: build_tree(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        workloads = {}
        for name, seeds in args.workload:
            lines: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    lines[side].append(run_once(trees[side], name, seed, args.seconds))
                    wall = lines[side][-1]["metrics"]["best_wall_s"]["value"]
                    print(f"{name} seed {seed} {side}: best_wall_s {wall:.4f}", file=sys.stderr)
            workloads[name] = workload_record(seeds, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "claim": args.claim,
        "command": f"python3 bench/run.py --workload WORKLOAD --seed SEED --seconds {args.seconds:g} --trace 0",
        "machine": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {numpy.__version__}; one benchmark run at a time",
        "parent": shas["parent"],
        "change": shas["change"],
        "trees": "each side ran from a `git archive` copy of its commit, the two at paths of equal length, "
                 "each with its bytecode compiled once before the first pair",
        "pairs": "; ".join(f"{name}: {len(seeds)} pairs, seeds {','.join(map(str, seeds))}" for name, seeds in args.workload)
                 + "; within each block of pairs the parent runs first in the first, third, ... pair "
                   "and the change first in the others",
        "workloads": workloads,
        "notes": args.note,
    }
    out = Path(args.out or f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
