"""Bi-invariant pseudo-metric norms, their balls, dimension, and regular radii."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import FalsifiedError, HypothesisError
from .groups import (FiniteGroup, GroupSubset, _index_mask, conjugacy_classes,
                     conjugation_escape, power_chain, product_set)

Scalar = Union[Fraction, float, int]
_FLOAT_TOL = 1e-12
_GRID_STEPS = 10  # bourgain_radius tests 2 * _GRID_STEPS dilations


@dataclass(frozen=True, eq=False)
class PseudoMetricNorm:
    """Conjugation-invariant subadditive norm: rho(x) = scaled[x] / denom, with
    `scaled` read-only int64 numerators for a rational norm, float64 otherwise."""

    group: FiniteGroup
    scaled: np.ndarray
    denom: int = 1
    source: str = "custom"

    def __post_init__(self):
        if self.scaled.shape != (self.group.order,):
            raise ValueError("norm needs one value per group element")
        self.scaled.setflags(write=False)

    @classmethod
    def from_values(cls, group: FiniteGroup, values: Sequence[Scalar],
                    source: str = "custom") -> "PseudoMetricNorm":
        """rho(x) = values[x], exact when every value is a Fraction or an int."""
        if not all(isinstance(x, (Fraction, int)) for x in values):
            return cls(group, np.array([float(x) for x in values]), 1, source)
        denom = math.lcm(*(x.denominator for x in values))
        return cls(group, np.array([int(x * denom) for x in values], dtype=np.int64), denom,
                   source)

    @property
    def is_rational(self) -> bool:
        return self.scaled.dtype.kind == "i"

    @property
    def values(self) -> tuple[Scalar, ...]:
        return self._scalars(self.scaled)

    def breakpoints(self) -> tuple[Scalar, ...]:
        return self._scalars(np.unique(self.scaled))

    def positive_breakpoints(self) -> tuple[Scalar, ...]:
        return tuple(v for v in self.breakpoints() if v > 0)

    def _scalars(self, v: np.ndarray) -> tuple[Scalar, ...]:
        if self.is_rational:
            return tuple(Fraction(x, self.denom) for x in v.tolist())
        return tuple((v / self.denom).tolist())


@dataclass(frozen=True, eq=False)
class NormReport:
    valid: bool
    zero_at_identity: bool
    symmetric: bool
    class_invariant: bool
    subadditive: bool
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class BallAxiomsReport:
    symmetric_ok: bool
    nesting_ok: bool
    subadditive_ok: bool
    normal_ok: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.symmetric_ok and self.nesting_ok and self.subadditive_ok and self.normal_ok


@dataclass(frozen=True, eq=False)
class GridPoint:
    eta: float
    ratio: float
    lower: float
    upper: float
    ok: bool


@dataclass(frozen=True, eq=False)
class BourgainCertificate:
    lam: Scalar
    delta: Scalar
    d: float
    grid: tuple[GridPoint, ...]
    margin: float


def _le(a: Scalar, b: Scalar) -> bool:
    """a <= b, exact for rationals, with a small tolerance once floats appear."""
    if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
        return a <= b
    return float(a) <= float(b) + _FLOAT_TOL


def _eq(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
        return a == b
    return abs(float(a) - float(b)) <= _FLOAT_TOL


# ---------------------------------------------------------------------------
# constructors


def zero_norm(group: FiniteGroup) -> PseudoMetricNorm:
    return PseudoMetricNorm(group, np.zeros(group.order, dtype=np.int64), 1, "zero")


def word_norm(group: FiniteGroup, gens: GroupSubset) -> PseudoMetricNorm:
    """Graph distance to the identity in the Cayley graph of the generating set."""
    if gens.group is not group:
        raise ValueError("generating set lives in a different group")
    # the power chain of gens ∪ {1} holds each element's word length
    chain = power_chain(GroupSubset(group, gens.mask | 1 << group.identity))
    chain.cycle()
    if (chain.dist < 0).any():
        raise ValueError("word norm needs a generating set")
    return PseudoMetricNorm(group, chain.dist.copy(), 1, "word")


def subgroup_indicator_norm(group: FiniteGroup, h: GroupSubset) -> PseudoMetricNorm:
    dist = np.ones(group.order, dtype=np.int64)
    dist[list(h)] = 0
    return PseudoMetricNorm(group, dist, 1, "subgroup-indicator")


# ---------------------------------------------------------------------------
# validation


def validate_norm(rho: PseudoMetricNorm) -> NormReport:
    g, v = rho.group, rho.scaled
    tol = 0 if rho.is_rational else _FLOAT_TOL
    witnesses: dict = {}

    zero_at_identity = bool(abs(v[g.identity]) <= tol and (v + tol >= 0).all())
    if not zero_at_identity:
        witnesses["zero_at_identity"] = g.identity

    off = np.flatnonzero(np.abs(v[g.inv(slice(None))] - v) > tol)
    symmetric = off.size == 0
    if not symmetric:
        witnesses["symmetric"] = int(off[0])

    elems = np.arange(g.order)
    prods = g.mul(elems[:, None], elems)
    lhs = v[prods]
    bad = lhs > v[:, None] + v[None, :] + tol
    subadditive = not bad.any()
    if not subadditive:
        x, y = map(int, np.argwhere(bad)[0])
        witnesses["subadditive"] = (x, y)
    del bad

    # (ab, ba) runs over the pairs (g x g^-1, x) with a = g, b = x g^-1, so rho
    # is a class function exactly when rho(ab) = rho(ba) for all a, b
    diff = lhs - lhs.T
    np.abs(diff, out=diff)
    moved = diff > tol
    class_invariant = not moved.any()
    if not class_invariant:
        x = int(prods[moved].min())
        part = conjugacy_classes(g)
        orbit = np.array(part.classes[part.class_of[x]])
        y = int(orbit[np.abs(v[orbit] - v[x]) > tol][0])
        witnesses["class_invariant"] = (x, y)

    valid = zero_at_identity and symmetric and class_invariant and subadditive
    return NormReport(valid, zero_at_identity, symmetric, class_invariant, subadditive,
                      witnesses)


# ---------------------------------------------------------------------------
# balls


def ball(rho: PseudoMetricNorm, delta: Scalar) -> GroupSubset:
    """{x : rho(x) <= delta}: one integer threshold on the scaled norm for
    rational data, within _FLOAT_TOL once a float appears."""
    if rho.is_rational and isinstance(delta, (Fraction, int)):
        inside = rho.scaled <= math.floor(delta * rho.denom)
    else:
        inside = rho.scaled / rho.denom <= float(delta) + _FLOAT_TOL
    return GroupSubset(rho.group, _index_mask(np.flatnonzero(inside), rho.group.order))


def ball_axioms_check(rho: PseudoMetricNorm) -> BallAxiomsReport:
    g = rho.group
    witnesses: dict = {}
    points = rho.breakpoints()
    balls = {bp: ball(rho, bp) for bp in points}

    symmetric_ok = True
    for bp, b in balls.items():
        if g.identity not in b or b.inverse().mask != b.mask:
            symmetric_ok = False
            witnesses["symmetric"] = bp
            break

    nesting_ok = True
    for i in range(len(points) - 1):
        if not balls[points[i]].is_subset_of(balls[points[i + 1]]):
            nesting_ok = False
            witnesses["nesting"] = (points[i], points[i + 1])
            break

    subadditive_ok = True
    for bp1 in points:
        for bp2 in points:
            target = ball(rho, bp1 + bp2)
            prod = product_set(balls[bp1], balls[bp2])
            if not prod.is_subset_of(target):
                subadditive_ok = False
                witnesses["subadditive"] = (bp1, bp2)
                break
        if not subadditive_ok:
            break

    normal_ok = True
    for bp, b in balls.items():
        escape = conjugation_escape(b)
        if escape is not None:
            normal_ok = False
            witnesses["normal"] = (bp, escape)
            break

    return BallAxiomsReport(symmetric_ok, nesting_ok, subadditive_ok, normal_ok, witnesses)


def _event_points(rho: PseudoMetricNorm, delta: Scalar) -> list[Scalar]:
    """Radii in (0, delta] where the doubling ratio can change value."""
    pts = set()
    for v in rho.positive_breakpoints():
        half = Fraction(v) / 2 if isinstance(v, (Fraction, int)) else v / 2
        for cand in (v, half):
            if _le(cand, delta) and cand > 0:
                pts.add(cand)
    return sorted(pts)


def ball_dimension(rho: PseudoMetricNorm, delta: Scalar) -> tuple[float, Optional[Scalar]]:
    """sup of log2(|B(2t)| / |B(t)|) over t in (0, delta]: the doubling exponent."""
    if not delta > 0:
        raise ValueError("ball_dimension needs delta > 0")
    best = 0.0
    witness: Optional[Scalar] = None
    for t in _event_points(rho, delta):
        num = len(ball(rho, 2 * t))
        den = len(ball(rho, t))
        d = math.log2(num / den)
        if d > best:
            best, witness = d, t
    return best, witness


# ---------------------------------------------------------------------------
# regular radii


def bourgain_radius(rho: PseudoMetricNorm, delta: Scalar, d: float) -> BourgainCertificate:
    """A lambda in (1,2] at which the ball measure is stable under small dilations."""
    if not delta > 0:
        raise ValueError("bourgain_radius needs delta > 0")
    measured, _ = ball_dimension(rho, delta)
    if measured > d + _FLOAT_TOL:
        raise HypothesisError(
            f"ball is {measured:.6f}-dimensional at delta, exceeding requested d={d}"
        )

    # candidate dilation factors: jump points of t -> |B(t*delta)| in (1,2],
    # midpoints of consecutive jumps, and 2 itself
    jumps: list[Scalar] = []
    for v in rho.positive_breakpoints():
        t = Fraction(v) / Fraction(delta) if isinstance(v, (Fraction, int)) \
            and isinstance(delta, (Fraction, int)) else float(v) / float(delta)
        if 1 < t and _le(t, 2):
            jumps.append(t)
    jumps = sorted(set(jumps))
    two: Scalar = Fraction(2) if all(isinstance(j, Fraction) for j in jumps) else 2.0
    if jumps:
        fence: list[Scalar] = [Fraction(1) if isinstance(jumps[0], Fraction) else 1.0]
        fence += jumps
        if not _eq(jumps[-1], 2):
            fence.append(two)
        candidates: list[Scalar] = [(a + b) / 2 for a, b in zip(fence, fence[1:])]
        candidates.extend(jumps)
        candidates.append(two)
        candidates = sorted(set(candidates))
    else:
        candidates = [two]  # measure is flat on (delta, 2*delta]; tie-break at 2

    step = 1.0 / (60 * d) if d > 0 else 1.0 / 60
    etas = [k * step for k in range(-_GRID_STEPS, _GRID_STEPS + 1) if k != 0]

    best_margin = -math.inf
    best_cert: Optional[BourgainCertificate] = None
    for lam in candidates:
        base = len(ball(rho, lam * delta))
        rows = []
        ok_all = True
        margin = math.inf
        for eta in etas:
            radius = float(lam) * float(delta) * (1 + eta)
            size = len(ball(rho, radius))
            ratio = size / base
            lower = 1 - 6 * d * abs(eta)
            upper = 1 + 6 * d * abs(eta)
            ok = lower - _FLOAT_TOL <= ratio <= upper + _FLOAT_TOL
            rows.append(GridPoint(eta, ratio, lower, upper, ok))
            ok_all = ok_all and ok
            margin = min(margin, upper - ratio, ratio - lower)
        cert = BourgainCertificate(lam, delta, d, tuple(rows), margin)
        if ok_all:
            return cert
        if margin > best_margin:
            best_margin, best_cert = margin, cert
    raise FalsifiedError(
        f"no dilation factor passed the stability grid; best margin {best_margin:.6g}",
        best_cert,
    )
