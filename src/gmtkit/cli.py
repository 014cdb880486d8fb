"""Command-line surface and the end-to-end core extraction pipeline.

The pipeline chains the stages: gauge decay check, capped mass construction,
scale-by-scale sparsification with certificate, empirical clearance constant,
hole witnesses, and flatness profiles.  Every stage writes a re-verifiable
artifact; reruns with the same seed are byte-identical.

Exit codes: 0 success, 2 verification failure (stage named on stderr),
3 invalid input, 4 depth budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from gmtkit.beta import content_beta, square_function
from gmtkit.carleson import epsilon_report, epsilon_square_function, pair_from_json
from gmtkit.content import content, dyadic_cover_cost, measure_profile
from gmtkit.corpus import KINDS, GeneratorSpec, generate, random_sparse_with_certificate
from gmtkit.errors import DepthBudgetError, GmtError, InvalidInputError, VerificationError
from gmtkit.frostman import CellMeasure, ball_frostman_check, build_frostman, verify_frostman
from gmtkit.gauge import parse_gauge, ratio_vanishes
from gmtkit.lattice import CellSet
from gmtkit.sparsify import (
    SparseConstruction,
    build_sparse_construction,
    estimate_c0,
    min_sparsity_parameter,
    verify_sparse_construction,
    witness_unrectifiability,
)
from gmtkit.utils import dumps_canonical, finite_floats, fmt_float, load_json, write_canonical

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_INVALID = 3
EXIT_DEPTH = 4

# fixed settings of the pipeline's stages; summary.json records them under "params"
WITNESS_GRID = 12  # section grid points per plane axis in the hole search
C0_GRID = 12  # the same for the clearance-constant estimate
BETA_POINTS = 2048  # support points behind the beta profiles
BETA_J_MIN, BETA_J_MAX = 2, 12  # the profiles' scale span, cut at the working depth
FLAT_THRESHOLD = 0.05  # content beta below this marks the input flat


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class CoreBundle:
    params: dict
    gauge_report: object
    frostman_measure: CellMeasure
    frostman_report: object
    construction: SparseConstruction
    sparse_report: object
    c0_estimate: object
    witness_report: object
    beta_profiles: tuple
    content_flatness: float
    flat_input: bool
    passed: bool


def pipeline_extract_core(
    cells: CellSet,
    k: int,
    gauge_label: str | None = None,
    ell: int | None = None,
    depth: int = 40,
    seed: int = 0,
    *,
    witness_samples: int = 24,
    c0_trials: int = 64,
    beta_centers: int = 8,
) -> CoreBundle:
    """Run the full extraction on a nonempty cell set; raises tagged stage errors."""
    if not len(cells):
        raise InvalidInputError("the input cell set is empty")
    if witness_samples < 1:
        raise InvalidInputError(f"witness samples must be >= 1, got {witness_samples}")
    if not 1 <= beta_centers <= BETA_POINTS:
        raise InvalidInputError(f"beta centers must lie in [1, {BETA_POINTS}], got {beta_centers}")
    n = cells.n
    if not 1 <= k < n:
        raise InvalidInputError(f"need 1 <= k < n, got k={k}, n={n}")
    label = gauge_label or f"powerexp:{k}:0.5"
    h = parse_gauge(label)

    gauge_rep = ratio_vanishes(h, k, levels=depth, n=n)
    if not gauge_rep.verdict:
        raise VerificationError(
            f"gauge {label} ratio fails to vanish within depth {depth}", stage="gauge"
        )

    mu = build_frostman(cells, h)
    fr_rep = verify_frostman(mu, h)
    if not fr_rep.passed:
        raise VerificationError(
            f"capped construction exceeds its gauge (ratio {fr_rep.max_ratio} at (level, index) {fr_rep.worst_cube})",
            stage="frostman",
        )

    if ell is None:
        ell = min_sparsity_parameter(n, k, "ball-bound")
    working = mu.with_depth(depth) if depth > mu.depth else mu
    try:
        cons = build_sparse_construction(working, h, k, ell)
    except DepthBudgetError as exc:
        raise DepthBudgetError(f"[sparsify] {exc}", required_depth=exc.required_depth) from exc
    sp_rep = verify_sparse_construction(cons, h, seed=seed)
    if not sp_rep.passed:
        raise VerificationError("sparse construction failed verification", stage="sparsify")

    c0_est = estimate_c0(ell, n, k, trials=c0_trials, grid=C0_GRID, seed=seed)
    wit_rep = witness_unrectifiability(
        cons, None, c0_est.value, samples=witness_samples, seed=seed, grid=WITNESS_GRID
    )
    if not wit_rep.passed:
        (sample, level), count = wit_rep.failures[0], len(wit_rep.failures)
        raise VerificationError(
            f"{count} hole witnesses missed the clearance target c0 = {wit_rep.c0} (first: sample {sample}, scale {level})",
            stage="witness",
        )

    rng = np.random.default_rng(seed)
    pts = cons.result.sample_support_points(rng, BETA_POINTS)
    weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    centers = pts[:beta_centers]
    profiles = tuple(
        square_function((pts, weights), c, k, BETA_J_MIN, min(BETA_J_MAX, depth)) for c in centers
    )

    bary = cells.centers().mean(axis=0)
    flat_value = content_beta(cells, bary, 0.25, k, plane_grid=24, t_grid=8, seed=seed)

    params = {
        "n": n,
        "k": k,
        "depth": depth,
        "ell": ell,
        "gauge": label,
        "seed": seed,
        "input_cells": len(cells),
        "input_depth": cells.depth,
        "witness_samples": witness_samples,
        "witness_grid": WITNESS_GRID,
        "c0_trials": c0_trials,
        "c0_grid": C0_GRID,
        "beta_points": BETA_POINTS,
        "beta_centers": beta_centers,
        "flat_threshold": FLAT_THRESHOLD,
    }
    passed = gauge_rep.verdict and fr_rep.passed and sp_rep.passed and wit_rep.passed
    return CoreBundle(
        params=params,
        gauge_report=gauge_rep,
        frostman_measure=mu,
        frostman_report=fr_rep,
        construction=cons,
        sparse_report=sp_rep,
        c0_estimate=c0_est,
        witness_report=wit_rep,
        beta_profiles=profiles,
        content_flatness=flat_value,
        flat_input=flat_value < FLAT_THRESHOLD,
        passed=passed,
    )


def _profiles_csv(profiles, n: int) -> str:
    header = ",".join([f"x{i}" for i in range(n)] + ["level", "beta"])
    lines = [header]
    for prof in profiles:
        for row in prof.csv_rows():
            *coords, level, value = row
            lines.append(",".join([fmt_float(c) for c in coords] + [str(level), fmt_float(value)]))
    return "\n".join(lines) + "\n"


def write_bundle(bundle: CoreBundle, outdir) -> dict:
    """Write summary.json, beta.csv, certificate.json, and the stage measures."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cert = bundle.construction.certificate
    cert.save(out / "certificate.json")
    bundle.frostman_measure.save(out / "frostman_measure.json")
    bundle.construction.result_measure().save(out / "sparse_measure.json")

    fr = bundle.frostman_report
    sp = bundle.sparse_report
    wit = bundle.witness_report
    summary = {
        "params": bundle.params,
        "passed": bundle.passed,
        "gauge": {
            "label": bundle.gauge_report.gauge_label,
            "verdict": bundle.gauge_report.verdict,
            "final_ratio": bundle.gauge_report.values[-1][1],
        },
        "frostman": {
            "total_mass": bundle.frostman_measure.total,
            "max_ratio": fr.max_ratio,
            "saturated_cover_cost": fr.saturated_cover_cost,
            "saturated_count": fr.saturated_count,
            "passed": fr.passed,
        },
        "sparsify": {
            "scales": list(cert.scales),
            "ell": cert.ell,
            "coarse_drift": sp.coarse_drift,
            "cap_ratio_h": sp.cap_ratio_h,
            "cap_ratio_k": sp.cap_ratio_k,
            "min_selection_ratio": sp.min_selection_ratio,
            "norm_constant": sp.norm_constant,
            "rescale_constant": sp.rescale_constant,
            "passed": sp.passed,
        },
        "c0": {
            "value": bundle.c0_estimate.value,
            "trials": bundle.c0_estimate.trials,
            "grid": bundle.c0_estimate.grid,
            "below_threshold": bundle.c0_estimate.below_threshold,
        },
        "witness": {
            "passed": wit.passed,
            "samples": wit.samples,
            "c0": wit.c0,
            "min_clearance": {str(lvl): v for lvl, v in sorted(wit.min_clearance.items())},
            "failures": [list(f) for f in wit.failures],
        },
        "beta": {
            "centers": len(bundle.beta_profiles),
            "square_sums": [p.total for p in bundle.beta_profiles],
        },
        "content_flatness": {"value": bundle.content_flatness, "flat_input": bundle.flat_input},
    }
    write_canonical(out / "summary.json", summary)
    (out / "beta.csv").write_text(
        _profiles_csv(bundle.beta_profiles, bundle.frostman_measure.n), encoding="utf-8"
    )
    return {
        "summary": out / "summary.json",
        "beta": out / "beta.csv",
        "certificate": out / "certificate.json",
    }


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the invalid-input code instead
    def error(self, message):
        raise InvalidInputError(message)


def _parse_point(text: str) -> tuple[float, ...]:
    message = f"bad point {text!r}: coordinates must be finite numbers"
    try:
        coords = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(message) from exc
    return tuple(finite_floats(coords, message).tolist())


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take integers >= 0 only."""
    if not text.isdecimal():  # digits only: no sign, so nothing negative
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


def _parse_span(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError as exc:
        raise InvalidInputError(f"bad scale span {text!r}; expected j_min:j_max") from exc


def _load_measure(path) -> CellMeasure:
    obj = load_json(path)
    if not isinstance(obj, dict) or "masses" not in obj:
        raise InvalidInputError(f"{path} does not hold an explicit cell measure")
    return CellMeasure.from_json_obj(obj)


def _emit(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, or to stdout when no file is given."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _profile_out(profile, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        _emit(_profiles_csv([profile], len(profile.center)), out)
    else:
        _emit(dumps_canonical(profile.to_json_obj()) + "\n", out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        depth=args.depth,
        k=args.k,
        ell=args.ell,
        seed=args.seed,
        levels_per_generation=args.levels_per_generation,
        keep_probability=args.keep_probability,
    )
    if args.kind == "random-sparse" and args.cert_out:
        cells, cert = random_sparse_with_certificate(spec)
        cert.save(args.cert_out)
    else:
        cells = generate(spec)
    cells.save(args.out)
    print(f"wrote {len(cells)} cells at depth {cells.depth} to {args.out}")
    return EXIT_OK


def cmd_frostman(args) -> int:
    if args.ball_check < 0:
        raise InvalidInputError(f"--ball-check takes a sample count >= 0 (0: no check), got {args.ball_check}")
    if args.ball_check and not args.report:
        raise InvalidInputError("--ball-check needs --report, where the ball constant is written")
    cells = CellSet.load(args.cells)
    h = parse_gauge(args.gauge)
    mu = build_frostman(cells, h)
    rep = verify_frostman(mu, h)
    mu.save(args.out)
    cover_cost = content(cells, h)  # the optimal cover's cost, bit for bit, without the cover
    if args.report:
        report = {
            "gauge": h.label,
            "total_mass": mu.total,
            "cover_cost": cover_cost,
            "max_ratio": rep.max_ratio,
            "saturated_count": rep.saturated_count,
            "passed": rep.passed,
        }
        if args.ball_check > 0:
            ball = ball_frostman_check(mu, args.k, samples=args.ball_check, seed=args.seed)
            report["ball_constant"] = ball.constant
        write_canonical(args.report, report)
    print(f"total mass {fmt_float(mu.total)}, cover cost {fmt_float(cover_cost)}")
    if not rep.passed:
        raise VerificationError(f"cap exceeded, ratio {rep.max_ratio}", stage="frostman")
    return EXIT_OK


def cmd_content(args) -> int:
    cells = CellSet.load(args.cells)
    h = parse_gauge(args.gauge)
    if args.profile:
        values = measure_profile(cells, h)
        if args.format == "csv":
            lines = "\n".join(f"{i},{fmt_float(v)}" for i, v in enumerate(values))
            _emit("min_level,cost\n" + lines + "\n", args.out)
        else:
            _emit(dumps_canonical({"gauge": h.label, "profile": values}) + "\n", args.out)
        return EXIT_OK
    sol = dyadic_cover_cost(cells, h, args.min_level)
    if args.out:
        write_canonical(
            args.out,
            {
                "gauge": h.label,
                "cost": sol.cost,
                "min_level": sol.min_level,
                "cover": [[c.level, list(c.index)] for c in sol.cover],
            },
        )
    print(f"cover cost {fmt_float(sol.cost)} with {len(sol.cover)} cubes")
    return EXIT_OK


def cmd_sparsify(args) -> int:
    mu = _load_measure(args.measure)
    if args.depth > mu.depth:
        mu = mu.with_depth(args.depth)
    h = parse_gauge(args.gauge)
    ell = args.ell if args.ell else min_sparsity_parameter(mu.n, args.k, "ball-bound")
    cons = build_sparse_construction(mu, h, args.k, ell)
    rep = verify_sparse_construction(cons, h, seed=args.seed)
    cons.result_measure().save(args.out)
    cons.certificate.save(args.cert)
    if args.report:
        write_canonical(
            args.report,
            {
                "gauge": h.label,
                "k": args.k,
                "ell": ell,
                "scales": list(cons.certificate.scales),
                "coarse_drift": rep.coarse_drift,
                "cap_ratio_h": rep.cap_ratio_h,
                "cap_ratio_k": rep.cap_ratio_k,
                "rescale_constant": rep.rescale_constant,
                "passed": rep.passed,
            },
        )
    scales = ", ".join(str(s) for s in cons.certificate.scales)
    print(f"certified scales: {scales}")
    if not rep.passed:
        raise VerificationError("sparse construction failed verification", stage="sparsify")
    return EXIT_OK


def cmd_beta(args) -> int:
    if args.measure:
        source = _load_measure(args.measure)
        pts, _ = source.centers_and_weights()
    else:
        pts = CellSet.load(args.cells).centers()
        source = (pts, np.ones(pts.shape[0]))
    center = _parse_point(args.center) if args.center else tuple(pts.mean(axis=0))
    j_min, j_max = _parse_span(args.scales)
    profile = square_function(source, center, args.k, j_min, j_max)
    _profile_out(profile, args.format, args.out)
    print(f"square sum {fmt_float(profile.total)}", file=sys.stderr)
    return EXIT_OK


def cmd_epsilon(args) -> int:
    dp = pair_from_json(load_json(args.pair))
    x = _parse_point(args.center)
    if args.scales:
        j_min, j_max = _parse_span(args.scales)
        profile = epsilon_square_function(
            dp, x, j_min, j_max, args.normals, args.samples, seed=args.seed
        )
        _profile_out(profile, args.format, args.out)
        print(f"square sum {fmt_float(profile.total)}", file=sys.stderr)
        return EXIT_OK
    rep = epsilon_report(dp, x, args.r, args.normals, args.samples, seed=args.seed)
    if args.out:
        write_canonical(
            args.out,
            {
                "value": rep.value,
                "round_minima": list(rep.round_minima),
                "normals": rep.normals,
                "sphere_samples": rep.sphere_samples,
                "radius": rep.radius,
            },
        )
    print(f"epsilon {fmt_float(rep.value)}")
    return EXIT_OK


def cmd_extract_core(args) -> int:
    cells = CellSet.load(args.cells)
    bundle = pipeline_extract_core(
        cells,
        args.k,
        args.gauge,
        args.ell,
        args.depth,
        args.seed,
        witness_samples=args.witness_samples,
        c0_trials=args.c0_trials,
        beta_centers=args.beta_centers,
    )
    write_bundle(bundle, args.outdir)
    scales = ", ".join(str(s) for s in bundle.construction.certificate.scales)
    print(f"extracted core with scales [{scales}]; artifacts in {args.outdir}")
    return EXIT_OK if bundle.passed else EXIT_VERIFY


@cache
def _parser() -> _Parser:
    """The argument parser, built on the first `main` call of the process and
    kept: parsing leaves no state in it, since each call gets a new namespace."""
    parser = _Parser(prog="gmtkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a canonical cell set")
    p.add_argument("--kind", required=True, choices=[k for k in KINDS if k != "union"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--ell", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--levels-per-generation", type=int, default=2)
    p.add_argument("--keep-probability", type=float, default=0.5)
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--cert-out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("frostman", help="build and verify a gauge-capped measure")
    p.add_argument("--cells", required=True)
    p.add_argument("--gauge", default="power:1")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--ball-check", type=int, default=0)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_frostman)

    p = sub.add_parser("content", help="optimal dyadic cover cost")
    p.add_argument("--cells", required=True)
    p.add_argument("--gauge", default="power:1")
    p.add_argument("--min-level", type=int, default=0)
    p.add_argument("--profile", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_content)

    p = sub.add_parser("sparsify", help="extract a sparse measure with certificate")
    p.add_argument("--measure", required=True)
    p.add_argument("--gauge", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("beta", help="flatness square-function profile")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--measure", default=None)
    source.add_argument("--cells", default=None)
    p.add_argument("--center", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--scales", default="0:12")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("epsilon", help="spherical deficiency coefficient")
    p.add_argument("--pair", required=True)
    p.add_argument("--center", required=True)
    radius = p.add_mutually_exclusive_group()  # a profile takes r = 2^-j from --scales
    radius.add_argument("--r", type=float, default=1.0)
    radius.add_argument("--scales", default=None)
    p.add_argument("--normals", type=int, default=64)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_epsilon)

    p = sub.add_parser("extract-core", help="full pipeline on a cell set")
    p.add_argument("--cells", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--gauge", default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--witness-samples", type=int, default=24)
    p.add_argument("--c0-trials", type=int, default=64)
    p.add_argument("--beta-centers", type=int, default=8)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_extract_core)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DepthBudgetError as exc:
        print(f"depth budget: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except VerificationError as exc:
        stage = exc.stage or "verify"
        print(f"{stage}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except GmtError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
