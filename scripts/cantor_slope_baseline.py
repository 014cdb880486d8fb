#!/usr/bin/env python3
"""Baseline run for the square-function dichotomy threshold.

Computes the dyadic flatness square function on a plane patch (expected to
vanish) and on the four-corner Cantor set (expected to grow linearly in the
scale count), then fits the growth slope of the partial sums.  The printed
slopes are what the pinned test threshold is derived from.
"""

from __future__ import annotations

import argparse

import numpy as np

from gmtkit.beta import square_function
from gmtkit.corpus import GeneratorSpec, generate


def slope(levels: list[int], partials: list[float]) -> float:
    a = np.asarray(levels, dtype=float)
    b = np.asarray(partials, dtype=float)
    a = a - a.mean()
    return float((a * b).sum() / (a * a).sum())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--centers", type=int, default=6)
    ap.add_argument("--j-min", type=int, default=2)
    ap.add_argument("--j-max", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cantor = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=args.depth))
    patch = generate(GeneratorSpec(kind="plane-patch", n=2, depth=8, k=1))

    for name, cells in (("plane-patch", patch), ("four-corner-cantor", cantor)):
        pts = cells.centers()
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        rng = np.random.default_rng(args.seed)
        centers = cells.sample_points(rng, args.centers)
        # snap to cell centers so every probe sits in the set
        snapped = (np.floor(centers * 2**cells.depth) + 0.5) * 2.0 ** (-cells.depth)
        print(f"--- {name} ({pts.shape[0]} cells) ---")
        slopes = []
        for c in snapped:
            prof = square_function((pts, weights), c, 1, args.j_min, args.j_max)
            partial = np.cumsum([v * v * np.log(2.0) for v in prof.values])
            s = slope(list(prof.levels), list(partial))
            slopes.append(s)
            print(f"  center {np.round(c, 6)}: total {prof.total:.6e}  slope {s:.6f}")
        print(f"  slope range: [{min(slopes):.6f}, {max(slopes):.6f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
