"""Self-check of the benchmark's correctness checks.

Builds small outputs of known shape without gmtkit, confirms that every check
accepts them, then corrupts each one and confirms that the matching check
rejects it: one mass scaled by 1 + 1e-6, a dropped cell, a wrong scale list,
a clearance above 1/2, a clearance below c0 in a passing stage, a passing
stage whose c0 exceeds 1/2, a nonflat beta sum, a rising epsilon round.  It runs in
milliseconds; `run.py` calls it before every benchmark run.

Usage: python3 bench/selfcheck.py
"""

from __future__ import annotations

import copy
import sys

import checks

LABEL = "powerexp:1:0.5"


def cantor_cells(depth: int) -> dict:
    cells = [(0, 0)]
    for _ in range(depth // 2):
        cells = [(4 * i + a, 4 * j + b) for i, j in cells for a, b in ((0, 0), (0, 3), (3, 0), (3, 3))]
    return {"n": 2, "depth": depth, "cells": sorted([list(c) for c in cells])}


def samples() -> dict:
    """Clean outputs for a depth-4 Cantor set, where every bottom cell saturates."""
    cells = cantor_cells(4)
    h = checks.gauge(LABEL)
    bottom = h(checks.diameter(2, 4))
    frostman = {"n": 2, "depth": 4, "masses": [[c, bottom] for c in cells["cells"]]}
    sparse = {"n": 2, "depth": 40, "nodes": [[4, c, 1.0 / 16] for c in cells["cells"]], "windows": []}
    power1 = checks.gauge("power:1")
    profile = {"gauge": "power:1", "profile": [checks.homogeneous_cost(cells, power1, lvl) for lvl in range(5)]}
    summary = {
        "params": {"n": 2, "ell": 4, "depth": 40, "gauge": LABEL},
        "sparsify": {"scales": [17, 33]},
        "witness": {"passed": True, "c0": 0.3, "failures": [], "min_clearance": {"17": 0.44, "33": 0.45}},
    }
    failing = {"witness": {"passed": False, "c0": 0.52, "failures": [[0, 25]], "min_clearance": {}}}
    total = 16 * bottom
    report = {"gauge": LABEL, "total_mass": total, "cover_cost": total, "passed": True, "ball_constant": 1.0}
    beta = {"values": [0.0, 0.0], "square_sum": 0.0}
    epsilon = {"value": 0.0, "round_minima": [0.1, 0.001, 0.0]}
    return dict(cells=cells, h=h, frostman=frostman, sparse=sparse, profile=profile, summary=summary,
                failing=failing, report=report, beta=beta, epsilon=epsilon)


def verdicts(s: dict) -> dict:
    """Problems found by each check on one set of outputs."""
    return {
        "frostman": checks.check_frostman(s["frostman"], s["cells"], s["h"], homogeneous=True),
        "report": checks.check_frostman_report(s["report"], s["frostman"], s["cells"], homogeneous=True),
        "profile": checks.check_profile(s["profile"], s["cells"]),
        "scales": checks.check_scales(s["summary"], (17, 33)),
        "sparse_total": checks.check_sparse_total(s["sparse"]),
        "witness": checks.check_witness(s["summary"]),
        "witness_failing": checks.check_witness(s["failing"]),
        "flat_beta": checks.check_flat_beta(s["beta"]),
        "epsilon": checks.check_halfspace_epsilon(s["epsilon"]),
    }


def scale_mass(s):
    s["frostman"]["masses"][5][1] *= 1.0 + 1e-6


def scale_report(s):
    s["report"]["total_mass"] *= 1.0 + 1e-6


def scale_profile(s):
    s["profile"]["profile"][2] *= 1.0 + 1e-6


def scale_sparse(s):
    s["sparse"]["nodes"][3][2] *= 1.0 + 1e-6


def drop_cell(s):
    del s["frostman"]["masses"][7]


def wrong_scales(s):
    s["summary"]["sparsify"]["scales"] = [17, 34]


def high_clearance(s):
    s["summary"]["witness"]["min_clearance"]["33"] = 0.5 + 1e-6


def low_clearance(s):
    s["summary"]["witness"]["min_clearance"]["17"] = 0.3 - 1e-6


def passed_above_half(s):
    s["failing"]["witness"].update(passed=True, failures=[])


def nonflat_beta(s):
    s["beta"] = {"values": [1e-4, 0.0], "square_sum": 1e-8 * 0.6931471805599453}


def rising_epsilon(s):
    s["epsilon"]["round_minima"] = [0.1, 0.0, 0.001]


CORRUPTIONS = {
    "frostman": [scale_mass, drop_cell],
    "report": [scale_report],
    "profile": [scale_profile],
    "sparse_total": [scale_sparse],
    "scales": [wrong_scales],
    "witness": [high_clearance, low_clearance],
    "witness_failing": [passed_above_half],
    "flat_beta": [nonflat_beta],
    "epsilon": [rising_epsilon],
}


def run() -> list[str]:
    """Problems with the checks themselves; empty when every check works."""
    clean = samples()
    errors = [f"{name} rejects a clean output: {p}" for name, p in verdicts(clean).items() if p]
    for name, corruptions in CORRUPTIONS.items():
        for corrupt in corruptions:
            bad = copy.deepcopy(clean)
            corrupt(bad)
            if not verdicts(bad)[name]:
                errors.append(f"{name} accepts the corruption {corrupt.__name__}")
    return errors


if __name__ == "__main__":
    errors = run()
    for e in errors:
        print(e, file=sys.stderr)
    print("self-check", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)
