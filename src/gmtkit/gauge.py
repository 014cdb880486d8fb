"""Gauge functions for generalized Hausdorff measures.

A gauge is an increasing function h with h(0) = 0; it prices a covering set of
diameter r at h(r).  Shipped families:

* ``power_gauge(k)``:     h(r) = omega_k * (r/2)^k, where omega_k is the unit
  k-ball volume, so h(diam B) recovers the k-volume of a ball B.
* ``vanishing_gauge(k)``: g(r) = r^k / log(e/r) on (0, 1], extended by
  g(r) = r^k * g(1) above 1.  The ratio g(r)/r^k decays to zero, which is the
  regime where a set of positive content still carries zero k-dimensional mass.
* ``power_exp_gauge(k, s)``: h(r) = r^(k+s), the simplest gauge whose ratio
  against r^k decays at a definite polynomial rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gamma, log, pi
from typing import Callable

from gmtkit.errors import InvalidInputError
from gmtkit.lattice import level_diameter
from gmtkit.utils import ipow


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in R^k (omega_1 = 2, omega_2 = pi, ...)."""
    if k < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {k}")
    return pi ** (k / 2.0) / gamma(k / 2.0 + 1.0)


@dataclass(frozen=True)
class Gauge:
    evaluate: Callable[[float], float] = field(repr=False)
    label: str = "gauge"
    k_ref: int | None = None

    def __call__(self, r: float) -> float:
        if r < 0:
            raise InvalidInputError(f"gauge argument must be >= 0, got {r}")
        return self.evaluate(r)


def power_gauge(k: int) -> Gauge:
    if k < 1:
        raise InvalidInputError(f"power gauge needs k >= 1, got {k}")
    omega = unit_ball_volume(k)

    def h(r: float) -> float:
        return omega * ipow(r / 2.0, k)

    return Gauge(h, f"power:{k}", k)


def vanishing_gauge(k: int) -> Gauge:
    if k < 1:
        raise InvalidInputError(f"vanishing gauge needs k >= 1, got {k}")

    def g(r: float) -> float:
        if r == 0.0:
            return 0.0
        if r <= 1.0:
            # log(e/r) = 1 - log(r) >= 1 on (0, 1]
            return ipow(r, k) / (1.0 - log(r))
        return ipow(r, k)  # r^k * g(1), with g(1) = 1

    return Gauge(g, f"vanish:{k}", k)


def power_exp_gauge(k: int, s: float) -> Gauge:
    """h(r) = r^(k+s); s = 0 is the bare content gauge, s > 0 makes the
    ratio against r^k vanish."""
    if k < 1 or not 0.0 <= s < float("inf"):
        raise InvalidInputError(f"power_exp gauge needs k >= 1 and finite s >= 0, got k={k}, s={s}")
    expo = k + s

    def h(r: float) -> float:
        return r ** expo

    return Gauge(h, f"powerexp:{k}:{s:.17g}", k)


def scaled_gauge(g: Gauge, c: float) -> Gauge:
    if not 0.0 < c < float("inf"):
        raise InvalidInputError(f"scaling constant must be positive and finite, got {c}")
    return Gauge(lambda r: c * g.evaluate(r), f"{c:.17g}*{g.label}", g.k_ref)


def parse_gauge(label: str) -> Gauge:
    """Parse a gauge label: power:k | vanish:k | powerexp:k:s | c*label."""
    parts = label.strip().split(":")
    try:
        if "*" in label:
            factor, inner = label.strip().split("*", 1)
            return scaled_gauge(parse_gauge(inner), float(factor))
        if parts[0] == "power" and len(parts) == 2:
            return power_gauge(int(parts[1]))
        if parts[0] == "vanish" and len(parts) == 2:
            return vanishing_gauge(int(parts[1]))
        if parts[0] == "powerexp" and len(parts) == 3:
            return power_exp_gauge(int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise InvalidInputError(f"bad gauge label {label!r}: {exc}") from exc
    raise InvalidInputError(f"unknown gauge label {label!r} (use power:k, vanish:k, powerexp:k:s, c*label)")


@dataclass(frozen=True)
class RatioReport:
    """Decay profile of h(r)/r^k along the dyadic diameter grid."""

    gauge_label: str
    k: int
    eps: float
    values: tuple[tuple[float, float], ...]  # (r_j, ratio) for j = 0..levels
    verdict: bool


def gauge_ratios(h: Gauge, k: int, levels: int, n: int = 1) -> list[tuple[float, float]]:
    return [(r, h(r) / ipow(r, k)) for r in (level_diameter(n, j) for j in range(levels + 1))]


def ratio_vanishes(h: Gauge, k: int, levels: int = 40, eps: float = 0.05, n: int = 1) -> RatioReport:
    """Check that h(r)/r^k decays below eps along r = sqrt(n) * 2^-j, j <= levels.

    The verdict requires the sequence to be nonincreasing (tiny float slack)
    and its final value to sit at or below eps.
    """
    if levels < 2:
        raise InvalidInputError(f"levels must be >= 2, got {levels}")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    vals = gauge_ratios(h, k, levels, n)
    ratios = [v for _, v in vals]
    slack = 1e-12 * max(ratios) if ratios else 0.0
    nonincreasing = all(ratios[j + 1] <= ratios[j] + slack for j in range(len(ratios) - 1))
    verdict = nonincreasing and ratios[-1] <= eps
    return RatioReport(h.label, k, eps, tuple(vals), verdict)

