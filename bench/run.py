"""gmtkit benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gmtkit checkout; the program is imported from its
`src/`.  One parent process (this one, which never imports gmtkit) starts one
worker at a time, each running one repetition of the workload's operation as
a fresh CLI invocation would, until the next repetition would end after S
seconds, counted from before the inputs are made (at least three
repetitions, four when tracing).  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the repetitions
alternate untraced and traced, and the metrics are the per-layer ones.
Every output is checked by `checks.py`; the full record of the run and the
spans of the fastest traced repetition are written under `bench/out/`.  See bench/README.md for the workloads and the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import selfcheck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# workload -> GMT_THREADS; BLAS pools stay at one thread throughout
THREADS = {"core_cantor_k1": 1, "core_sparse3_k2": 2, "measure_tools": 1}

END_TO_END = {"best_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "frostman.build_frostman_s": "s",
    "frostman.verify_frostman_s": "s",
    "frostman.ball_frostman_check_s": "s",
    "frostman.saturated_cubes": "count",
    "lattice.load_s": "s",
    "lattice.input_cells": "count",
    "gauge.calls": "count",
    "content.dyadic_cover_cost_s": "s",
    "content.dyadic_cover_cost_calls": "count",
    "content.measure_profile_s": "s",
    "content.cover_cubes": "count",
    "sparsify.build_sparse_construction_s": "s",
    "sparsify.verify_sparse_construction_s": "s",
    "sparsify.estimate_c0_s": "s",
    "sparsify.witness_unrectifiability_s": "s",
    "sparsify.witness_unrectifiability_cpu_s": "s",
    "sparsify.find_hole_s": "s",
    "sparsify.distance_to_family_s": "s",
    "sparsify.distance_to_family_calls": "count",
    "sparsify.sample_support_points_s": "s",
    "sparsify.support_sample_cells_s": "s",
    "sparsify.nodes": "count",
    "sparsify.windows": "count",
    "sparsify.witness_jobs": "count",
    "beta.content_beta_s": "s",
    "beta.content_calls": "count",
    "beta.square_function_s": "s",
    "carleson.epsilon_report_s": "s",
    "carleson.epsilon_square_function_s": "s",
    "cli.write_bundle_s": "s",
    "utils.write_canonical_s": "s",
    "utils.canonical_bytes": "bytes",
    "import.gmtkit_s": "s",
    "import.carleson_s": "s",
    "trace.overhead_s": "s",
}
COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit != "s"]


class BenchError(Exception):
    pass


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        GMT_THREADS=str(threads),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(workload: str, work: Path, tag: str, seed: int, threads: int, traced: bool) -> dict:
    """Start one worker, wait for it, and return its record."""
    outdir, result = work / tag, work / f"{tag}.json"
    log = work / f"{tag}.log"
    args = [sys.executable, str(BENCH / "worker.py"), workload, str(work / "inputs"), str(outdir), str(seed)]
    with open(log, "wb") as out:
        launched = time.perf_counter()
        proc = subprocess.run(
            [*args, repr(launched), "1" if traced else "0", str(result)],
            stdout=out, stderr=subprocess.STDOUT, env=worker_env(threads), cwd=work, timeout=170,
        )
    record = json.loads(result.read_text()) if proc.returncode == 0 and result.is_file() else None
    if record is None:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"worker {tag} exited with code {proc.returncode}:\n{tail}")
    record["elapsed_s"] = time.perf_counter() - launched
    record["traced"] = traced
    return record


def prepare(work: Path, seed: int) -> None:
    inputs = work / "inputs"
    inputs.mkdir()
    (inputs / "halfspace.json").write_text('{"kind":"halfspace","normal":[0.0,1.0],"point":[0.5,0.5]}\n')
    (inputs / "ball.json").write_text('{"kind":"ball","center":[0.5,0.5],"radius":0.25}\n')
    rec = run_worker("prepare", work, "prepare", seed, 1, False)
    bad = [name for name, ok in rec["ops"] if not ok]
    if bad:
        raise BenchError(f"could not generate inputs: {bad}")


def check_outputs(workload: str, out: Path, inputs: Path) -> list[str]:
    """Problems in one repetition's artifacts; [] when all are correct."""
    load = checks.load
    if workload == "core_cantor_k1":
        summary = load(out / "summary.json")
        h = checks.gauge(summary["params"]["gauge"])
        return (
            checks.check_frostman(load(out / "frostman_measure.json"), load(inputs / "core_cantor.json"), h, True)
            + checks.check_scales(summary, (17, 33))
            + checks.check_sparse_total(load(out / "sparse_measure.json"))
            + checks.check_witness(summary)
        )
    if workload == "core_sparse3_k2":
        summary = load(out / "summary.json")
        h = checks.gauge(summary["params"]["gauge"])
        return (
            checks.check_frostman(load(out / "frostman_measure.json"), load(inputs / "core_sparse.json"), h, False)
            + checks.check_scales(summary, (25,))
            + checks.check_sparse_total(load(out / "sparse_measure.json"))
            + checks.check_witness(summary)
        )
    power2 = checks.gauge("power:2")
    plane, dense, cantor8 = (load(inputs / f"{name}.json") for name in ("plane", "dense", "cantor8"))
    plane_mu, dense_mu = load(out / "plane_measure.json"), load(out / "dense_measure.json")
    return (
        checks.check_frostman(plane_mu, plane, power2, True)
        + checks.check_frostman_report(load(out / "plane_report.json"), plane_mu, plane, True)
        + checks.check_frostman(dense_mu, dense, power2, False)
        + checks.check_frostman_report(load(out / "dense_report.json"), dense_mu, dense, False)
        + checks.check_profile(load(out / "profile.json"), cantor8)
        + checks.check_square_sum(load(out / "beta_cantor.json"))
        + checks.check_flat_beta(load(out / "beta_plane.json"))
        + checks.check_halfspace_epsilon(load(out / "epsilon_halfspace.json"))
        + checks.check_square_sum(load(out / "epsilon_ball.json"))
    )


def import_times(work: Path) -> dict:
    """Cumulative import times of gmtkit and gmtkit.carleson, median of three."""
    got: dict[str, list[float]] = {"gmtkit": [], "gmtkit.carleson": []}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gmtkit.cli"],
            capture_output=True, text=True, env=worker_env(1), cwd=work, timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in got:
                got[fields[2].strip()].append(int(fields[1]) * 1e-6)
    return {"import.gmtkit_s": statistics.median(got["gmtkit"]),
            "import.carleson_s": statistics.median(got["gmtkit.carleson"])}


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, list[str]]:
    threads = THREADS[workload]
    # the run's preparation counts against --seconds, so a run ends near it
    deadline = time.perf_counter() + seconds
    prepare(work, seed)
    problems: list[str] = []
    reference = None
    if workload == "core_sparse3_k2":
        # serial reference, outside the timed repetitions
        reference = run_worker(workload, work, "serial", seed, 1, False)
    imports = import_times(work) if trace else {}
    reps: list[dict] = []
    least = 4 if trace else 3
    while True:
        tag = f"rep{len(reps)}"
        rep = run_worker(workload, work, tag, seed, threads, trace and len(reps) % 2 == 1)
        reps.append(rep)
        if len(reps) == 1:
            try:
                problems += check_outputs(workload, work / tag, work / "inputs")
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems.append(f"artifacts of {tag} could not be checked: {exc!r}")
        elif rep["artifacts"] != reps[0]["artifacts"]:
            problems.append(f"artifacts of {tag} differ from those of rep0")
        shutil.rmtree(work / tag, ignore_errors=True)
        fastest = min(r["elapsed_s"] for r in reps)
        if len(reps) >= least and time.perf_counter() + fastest > deadline:
            break
    if reference is not None and reference["artifacts"] != reps[0]["artifacts"]:
        problems.append("artifacts at GMT_THREADS=2 differ from the serial reference")
    if not reps[0]["artifacts"]:
        problems.append("the workload wrote no artifacts")

    ops = [ok for rep in reps for _, ok in rep["ops"]]
    plain = [r for r in reps if not r["traced"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "threads": threads,
        "attempted": len(ops), "failed": ops.count(False),
        "failed_ops": sorted({name for rep in reps for name, ok in rep["ops"] if not ok}),
        "reps": [{k: r[k] for k in ("setup_s", "wall_s", "elapsed_s", "peak_rss_mb", "traced", "ops")} for r in reps],
    }
    if not trace:
        record["metrics"] = {
            "best_wall_s": min(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        }
        return record, problems

    traced = [r for r in reps if r["traced"]]
    fastest = min(traced, key=lambda r: r["wall_s"])
    for r in traced:
        if any(r["layers"].get(m, 0) != fastest["layers"].get(m, 0) for m in COUNT_METRICS):
            problems.append("per-layer counts differ between traced repetitions")
    metrics = {name: fastest["layers"].get(name, 0) for name in PER_LAYER}
    metrics.update(imports)
    # repetitions alternate untraced and traced: compare each traced one with the one just before it
    metrics["trace.overhead_s"] = statistics.median(
        b["wall_s"] - a["wall_s"] for a, b in zip(reps[0::2], reps[1::2])
    )
    record["metrics"] = metrics
    record["spans"] = fastest["spans"]
    return record, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which then kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "gmtkit" / "cli.py").is_file():
        print(f"no gmtkit source at {ROOT / 'src' / 'gmtkit'}; run from a gmtkit checkout", file=sys.stderr)
        return 2
    errors = selfcheck.run()
    if errors:
        print("the benchmark's own checks are broken:\n" + "\n".join(errors), file=sys.stderr)
        return 2

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        record, problems = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    record["problems"] = problems
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
