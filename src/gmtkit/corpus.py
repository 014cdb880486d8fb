"""Canonical cell-set generators with known geometry.

Everything is seed-deterministic: one spec, one byte-exact output.  The
corner Cantor construction uses one generation per two dyadic levels
(contraction 1/4), so depth 2g carries exactly 4^g cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from gmtkit.errors import InvalidInputError
from gmtkit.lattice import CellSet, union
from gmtkit.sparsify import ScaleFamily, SparsityCertificate

KINDS = (
    "plane-patch",
    "four-corner-cantor",
    "product-cantor",
    "random-sparse",
    "random-dense",
    "union",
)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int = 2
    depth: int = 6
    k: int = 1
    ell: int = 4
    seed: int = 0
    levels_per_generation: int = 2
    keep_probability: float = 0.5
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown generator kind {self.kind!r}")
        if self.n < 1 or self.depth < 0:
            raise InvalidInputError("need n >= 1 and depth >= 0")
        if self.levels_per_generation < 1:
            raise InvalidInputError("levels_per_generation must be >= 1")
        if not 0.0 < self.keep_probability <= 1.0:
            raise InvalidInputError("keep_probability must lie in (0, 1]")


def _grid(n: int, side: int) -> np.ndarray:
    """Every index row of [0, side)^n, an (side^n, n) array in row-major order."""
    return np.indices((side,) * n).reshape(n, -1).T


def _corner_cantor(n: int, depth: int, a: int) -> CellSet:
    """The set that keeps, per generation of `a` levels, the 2^n corner subcubes."""
    if n * (depth // a) > 22:
        raise InvalidInputError("corner Cantor set too large to enumerate")
    picks = _grid(n, 2) * ((1 << a) - 1)
    cells = np.zeros((1, n), dtype=np.int64)
    for _ in range(depth // a):
        cells = ((cells << a)[:, None, :] + picks).reshape(-1, n)
    return CellSet(n, depth, cells)


def _plane_patch(spec: GeneratorSpec) -> CellSet:
    if not 1 <= spec.k < spec.n:
        raise InvalidInputError(f"need 1 <= k < n, got k={spec.k}, n={spec.n}")
    if spec.k * spec.depth > 22:
        raise InvalidInputError("plane patch too large to enumerate")
    free = _grid(spec.k, 1 << spec.depth)
    return CellSet(spec.n, spec.depth, np.pad(free, ((0, 0), (0, spec.n - spec.k))))


def _four_corner_cantor(spec: GeneratorSpec) -> CellSet:
    if spec.n != 2:
        raise InvalidInputError("the corner Cantor set lives in the plane")
    if spec.depth % 2 != 0:
        raise InvalidInputError("corner Cantor depth must be even (two levels per generation)")
    return _corner_cantor(2, spec.depth, 2)


def _product_cantor(spec: GeneratorSpec) -> CellSet:
    a = spec.levels_per_generation
    if spec.depth % a != 0:
        raise InvalidInputError(f"depth must be a multiple of {a}")
    return _corner_cantor(spec.n, spec.depth, a)


def _random_dense(spec: GeneratorSpec) -> CellSet:
    if spec.n * spec.depth > 22:
        raise InvalidInputError("dense set too large to enumerate")
    rng = np.random.default_rng(spec.seed)
    side = 1 << spec.depth
    keep = rng.random(side ** spec.n) < spec.keep_probability  # one draw per cell, in row-major order
    cells = _grid(spec.n, side)[keep] if keep.any() else np.zeros((1, spec.n), dtype=np.int64)
    return CellSet(spec.n, spec.depth, cells)


def _branch(frontier: list, n: int, prob: float, rng: np.random.Generator) -> list:
    nxt = []
    offsets = sorted(product((0, 1), repeat=n))
    for cell in sorted(frontier):
        keep = rng.random(len(offsets)) < prob
        if not keep.any():
            keep[rng.integers(0, len(offsets))] = True
        for off, flag in zip(offsets, keep):
            if flag:
                nxt.append(tuple(2 * c + o for c, o in zip(cell, off)))
    return nxt


def random_sparse_with_certificate(spec: GeneratorSpec) -> tuple[CellSet, SparsityCertificate]:
    """Random set confined to one random subcube per occupied cube at each
    certified scale; the emitted certificate lists those selections."""
    if spec.kind != "random-sparse":
        raise InvalidInputError(f"certificate generation needs kind random-sparse, got {spec.kind}")
    ell = spec.ell
    if ell < 1:
        raise InvalidInputError(f"ell must be >= 1, got {ell}")
    scales = []
    l = 1
    while l + ell <= spec.depth:
        scales.append(l)
        l += ell + 1
    if not scales:
        raise InvalidInputError(f"depth {spec.depth} leaves no room for a scale with ell={ell}")
    rng = np.random.default_rng(spec.seed)
    frontier = [(0,) * spec.n]
    level = 0
    families = []
    for target in scales:
        while level < target:
            frontier = _branch(frontier, spec.n, spec.keep_probability, rng)
            level += 1
        cubes = sorted(frontier)
        frontier = [tuple((c << ell) + int(rng.integers(0, 1 << ell)) for c in cell) for cell in cubes]
        families.append(ScaleFamily(target, ell, (cubes, frontier)))
        level = target + ell
    while level < spec.depth:
        frontier = _branch(frontier, spec.n, spec.keep_probability, rng)
        level += 1
    cert = SparsityCertificate(spec.n, ell, tuple(scales), tuple(families))
    return CellSet(spec.n, spec.depth, frontier), cert


def generate(spec: GeneratorSpec) -> CellSet:
    if spec.kind == "plane-patch":
        return _plane_patch(spec)
    if spec.kind == "four-corner-cantor":
        return _four_corner_cantor(spec)
    if spec.kind == "product-cantor":
        return _product_cantor(spec)
    if spec.kind == "random-dense":
        return _random_dense(spec)
    if spec.kind == "random-sparse":
        return random_sparse_with_certificate(spec)[0]
    if spec.kind == "union":
        if not spec.parts:
            raise InvalidInputError("union needs at least one part")
        return union([generate(p) for p in spec.parts])
    raise InvalidInputError(f"unknown generator kind {spec.kind!r}")
