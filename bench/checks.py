"""Correctness checks on gmtkit's artifacts, computed apart from gmtkit.

Nothing here imports gmtkit.  Gauges, level counts, cover costs, cube caps
and the scale rule are evaluated by plain loops from their definitions, so a
check never shares a kernel with the code it checks.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9


def load(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def gauge(label: str):
    """h(r) for the labels the workloads use: power:k and powerexp:k:s."""
    parts = label.split(":")
    if parts[0] == "power" and len(parts) == 2:
        k = int(parts[1])
        omega = math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)
        return lambda r: omega * (r / 2.0) ** k
    if parts[0] == "powerexp" and len(parts) == 3:
        expo = int(parts[1]) + float(parts[2])
        return lambda r: r ** expo
    raise ValueError(f"no independent form for gauge {label!r}")


def diameter(n: int, level: int) -> float:
    return math.sqrt(n) * 2.0 ** (-level)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def level_counts(cells: dict) -> list[int]:
    """N_j: occupied level-j cubes of a cell set, for j = 0..depth."""
    depth = cells["depth"]
    bottom = {tuple(c) for c in cells["cells"]}
    return [len({tuple(i >> (depth - j) for i in c) for c in bottom}) for j in range(depth + 1)]


def homogeneous_cost(cells: dict, h, min_level: int) -> float:
    """min over j >= min_level of N_j * h(diam_j).

    On a set whose occupied cubes at each level all hold the same number of
    occupied descendants, covering by one whole level is optimal, so this is
    the exact dyadic cover cost and the Frostman total mass.
    """
    counts = level_counts(cells)
    n = cells["n"]
    return min(counts[j] * h(diameter(n, j)) for j in range(min_level, cells["depth"] + 1))


# ---------------------------------------------------------------------------
# Frostman measures and covers


def measure_total(measure: dict) -> float:
    if "masses" in measure:
        return math.fsum(m for _, m in measure["masses"])
    return math.fsum(m for _, _, m in measure["nodes"])


def check_frostman_caps(measure: dict, h) -> list[str]:
    """No occupied cube at any level carries more than h(diam) * (1 + 1e-9)."""
    n = measure["n"]
    level = measure.get("cell_level", measure["depth"])
    problems = []
    for j in range(level + 1):
        agg: dict = {}
        for idx, m in measure["masses"]:
            key = tuple(i >> (level - j) for i in idx)
            agg[key] = agg.get(key, 0.0) + m
        cap = h(diameter(n, j)) * (1.0 + REL_TOL)
        for key, mass in agg.items():
            if mass > cap:
                problems.append(f"level-{j} cube {list(key)} holds {mass!r} above its cap {cap!r}")
                break
    return problems


def check_frostman_support(measure: dict, cells: dict) -> list[str]:
    got = {tuple(idx) for idx, m in measure["masses"] if m > 0.0}
    want = {tuple(c) for c in cells["cells"]}
    if got != want:
        return [f"measure support has {len(got)} cells, input has {len(want)}, {len(got ^ want)} differ"]
    return []


def check_homogeneous_mass(measure: dict, cells: dict, h) -> list[str]:
    want = homogeneous_cost(cells, h, 0)
    got = measure_total(measure)
    return [] if close(got, want) else [f"Frostman total {got!r} != closed form {want!r}"]


def check_frostman(measure: dict, cells: dict, h, homogeneous: bool) -> list[str]:
    problems = check_frostman_support(measure, cells) + check_frostman_caps(measure, h)
    if homogeneous:
        problems += check_homogeneous_mass(measure, cells, h)
    return problems


def check_frostman_report(report: dict, measure: dict, cells: dict, homogeneous: bool) -> list[str]:
    """The `frostman --report` figures: mass, cover cost, and their duality."""
    problems = []
    total = measure_total(measure)
    if not close(report["total_mass"], total):
        problems.append(f"reported total {report['total_mass']!r} != measure total {total!r}")
    if not close(report["total_mass"], report["cover_cost"]):
        problems.append(f"total mass {report['total_mass']!r} != cover cost {report['cover_cost']!r}")
    if homogeneous:
        want = homogeneous_cost(cells, gauge(report["gauge"]), 0)
        if not close(report["cover_cost"], want):
            problems.append(f"cover cost {report['cover_cost']!r} != closed form {want!r}")
    if not report["passed"] or not report["ball_constant"] > 0.0:
        problems.append("report did not pass or has no ball constant")
    return problems


def check_profile(profile: dict, cells: dict) -> list[str]:
    """Every `content --profile` entry L equals min_{j >= L} N_j h(diam_j)."""
    h = gauge(profile["gauge"])
    values = profile["profile"]
    if len(values) != cells["depth"] + 1:
        return [f"profile has {len(values)} entries for depth {cells['depth']}"]
    return [
        f"profile entry {lvl} is {v!r}, closed form {homogeneous_cost(cells, h, lvl)!r}"
        for lvl, v in enumerate(values)
        if not close(v, homogeneous_cost(cells, h, lvl))
    ]


# ---------------------------------------------------------------------------
# sparse construction and hole witnesses


def scale_rule(n: int, s: float, ell: int, depth: int) -> tuple[int, ...]:
    """Certified scales for h(r) = r^(k+s) in closed form.

    h(diam)/diam^k = (sqrt(n) 2^-l)^s decreases in l, so scale j is the first
    level l >= l_(j-1) + ell with l >= log2(n)/2 + n*j*ell/s, kept while
    l + ell <= depth.
    """
    scales: list[int] = []
    lmin, j = 0, 1
    while True:
        level = max(lmin, math.ceil(0.5 * math.log2(n) + n * j * ell / s))
        if level + ell > depth:
            return tuple(scales)
        scales.append(level)
        lmin, j = level + ell, j + 1


def check_scales(summary: dict, expected: tuple[int, ...]) -> list[str]:
    p = summary["params"]
    kind, _k, s = p["gauge"].split(":")
    if kind != "powerexp":
        return [f"no closed-form scale rule for gauge {p['gauge']}"]
    rule = scale_rule(p["n"], float(s), p["ell"], p["depth"])
    got = tuple(summary["sparsify"]["scales"])
    if got != rule or got != expected:
        return [f"certified scales {got}, scale rule gives {rule}, expected {expected}"]
    return []


def check_sparse_total(measure: dict) -> list[str]:
    total = measure_total(measure)
    return [] if close(total, 1.0) else [f"sparse measure totals {total!r}, not 1"]


def check_witness(summary: dict) -> list[str]:
    """Clearances never exceed 1/2 and reach c0 wherever the stage passes.

    A witness point lies within 2^-(l+1) of a support point, which sits in a
    selected subcube, so no clearance (in units of 2^-l) can exceed 1/2, and
    a stage whose c0 exceeds 1/2 cannot pass.  Only the clearances of found
    witnesses are reported, so when every witness fails there is none to
    check against 1/2.
    """
    wit = summary["witness"]
    problems = []
    for level, clearance in wit["min_clearance"].items():
        if clearance > 0.5 * (1.0 + REL_TOL):
            problems.append(f"clearance {clearance!r} at scale {level} exceeds 1/2")
        if wit["passed"] and clearance < wit["c0"]:
            problems.append(f"clearance {clearance!r} at scale {level} is below c0 {wit['c0']!r}")
    if wit["passed"] != (not wit["failures"]):
        problems.append("witness verdict disagrees with its failure list")
    if wit["passed"] and wit["c0"] > 0.5 * (1.0 + REL_TOL):
        problems.append(f"witness stage passed with c0 {wit['c0']!r} above 1/2, which no witness can clear")
    return problems


# ---------------------------------------------------------------------------
# flatness and deficiency coefficients


def check_square_sum(profile: dict) -> list[str]:
    values = profile["values"]
    want = math.fsum(v * v * math.log(2.0) for v in values)
    if any(v < 0.0 for v in values) or not close(profile["square_sum"], want, 1e-12):
        return [f"square sum {profile['square_sum']!r} does not match its terms"]
    return []


def check_flat_beta(profile: dict) -> list[str]:
    problems = check_square_sum(profile)
    if not profile["square_sum"] < 1e-10:
        problems.append(f"plane-patch beta square sum {profile['square_sum']!r} is not below 1e-10")
    return problems


def check_halfspace_epsilon(report: dict) -> list[str]:
    problems = []
    if not report["value"] < 1e-3:
        problems.append(f"halfspace epsilon {report['value']!r} is not below 1e-3")
    minima = report["round_minima"]
    if any(b > a for a, b in zip(minima, minima[1:])) or minima[-1] != report["value"]:
        problems.append(f"round minima {minima} are not nonincreasing to the value")
    return problems
