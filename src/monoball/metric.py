"""Bi-invariant pseudo-metric norms, their balls, dimension, and regular radii."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import HypothesisRecord, conclude
from .groups import FiniteGroup, GroupSubset, _blocks, _index_mask, conjugacy_classes, power_chain

Scalar = Union[Fraction, int]
_FLOAT_TOL = 1e-12  # slack where a float dimension or logarithm is compared with a bound
_GRID_STEPS = 10  # bourgain_radius tests 2 * _GRID_STEPS dilations


@dataclass(frozen=True, eq=False)
class PseudoMetricNorm:
    """Conjugation-invariant subadditive norm: rho(x) = scaled[x] / denom, with
    `scaled` read-only integer numerators."""

    group: FiniteGroup
    scaled: np.ndarray
    denom: int = 1

    def __post_init__(self):
        if self.scaled.shape != (self.group.order,):
            raise ValueError("norm needs one value per group element")
        if self.scaled.dtype.kind != "i":
            raise ValueError(f"norm numerators must be integers, not {self.scaled.dtype}")
        self.scaled.setflags(write=False)

    @classmethod
    def from_values(cls, group: FiniteGroup, values: Sequence[Scalar]) -> "PseudoMetricNorm":
        """rho(x) = values[x], each a Fraction, an int or a numpy integer."""
        for x in values:
            if isinstance(x, bool) or not isinstance(x, numbers.Rational):
                raise ValueError(f"norm values must be rational, got {x!r}")
        denom = math.lcm(*(int(x.denominator) for x in values))
        return cls(group, np.array([int(x.numerator) * (denom // int(x.denominator))
                                    for x in values], dtype=np.int64), denom)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self._scalars(self.scaled)

    def breakpoints(self) -> tuple[Fraction, ...]:
        return self._scalars(np.unique(self.scaled))

    def positive_breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(v for v in self.breakpoints() if v > 0)

    def _scalars(self, v: np.ndarray) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denom) for x in v.tolist())


class NormReport(NamedTuple):
    valid: bool
    zero_at_identity: bool
    symmetric: bool
    class_invariant: bool
    subadditive: bool
    witnesses: dict


class BallAxiomsReport(NamedTuple):
    symmetric_ok: bool
    nesting_ok: bool
    subadditive_ok: bool
    normal_ok: bool
    witnesses: dict

    @property
    def all_ok(self) -> bool:
        return self.symmetric_ok and self.nesting_ok and self.subadditive_ok and self.normal_ok


class GridPoint(NamedTuple):
    eta: Fraction
    ratio: Fraction
    lower: Fraction
    upper: Fraction
    ok: bool


class BourgainCertificate(NamedTuple):
    hypotheses: tuple[HypothesisRecord, ...]
    lam: Scalar
    delta: Scalar
    d: float
    grid: tuple[GridPoint, ...]
    margin: float


# ---------------------------------------------------------------------------
# constructors


def zero_norm(group: FiniteGroup) -> PseudoMetricNorm:
    return PseudoMetricNorm(group, np.zeros(group.order, dtype=np.int64))


def word_norm(group: FiniteGroup, gens: GroupSubset) -> PseudoMetricNorm:
    """Graph distance to the identity in the Cayley graph of the generating set."""
    if gens.group is not group:
        raise ValueError("generating set lives in a different group")
    # the power chain of gens ∪ {1} holds each element's word length
    chain = power_chain(GroupSubset(group, gens.mask | 1 << group.identity))
    chain.cycle()
    if (chain.dist < 0).any():
        raise ValueError("word norm needs a generating set")
    return PseudoMetricNorm(group, chain.dist.copy())


# ---------------------------------------------------------------------------
# validation


def _subadditivity_breaks(rho: PseudoMetricNorm) -> tuple[Optional[tuple], Optional[tuple]]:
    """One pass over the table in row blocks: the first (x, y), row-major, with
    rho(xy) > rho(x) + rho(y), and the least (rho(x), rho(y)) numerators of all such."""
    g, v = rho.group, rho.scaled
    first = least = None
    for rows in _blocks(g.order):
        bad = v.take(g.mul(rows, slice(None))) > v[rows, None] + v
        if bad.any():
            xs, ys = np.nonzero(bad)
            first = first or (rows.start + int(xs[0]), int(ys[0]))
            vx = v[rows][xs]
            pair = (int(vx.min()), int(v[ys[vx == vx.min()]].min()))
            least = min(least or pair, pair)
    return first, least


def _class_max(rho: PseudoMetricNorm) -> np.ndarray:
    """The largest value of rho on each element's conjugacy class, per element."""
    cls = conjugacy_classes(rho.group).class_of
    top = np.full(cls.max() + 1, rho.scaled.min())
    np.maximum.at(top, cls, rho.scaled)
    return top[cls]


def validate_norm(rho: PseudoMetricNorm) -> NormReport:
    g, v = rho.group, rho.scaled
    witnesses: dict = {}

    zero_at_identity = bool(v[g.identity] == 0 and (v >= 0).all())
    if not zero_at_identity:
        witnesses["zero_at_identity"] = g.identity

    off = np.flatnonzero(v[g.inv(slice(None))] != v)
    symmetric = off.size == 0
    if not symmetric:
        witnesses["symmetric"] = int(off[0])

    first, _ = _subadditivity_breaks(rho)
    subadditive = first is None
    if not subadditive:
        witnesses["subadditive"] = first

    # (ab, ba) runs over the pairs (z, h z h^-1) with a = h^-1, b = h z: the ab with
    # rho(ab) != rho(ba) fill the classes on which rho is not constant
    cls = conjugacy_classes(g).class_of
    mixed = np.flatnonzero(np.isin(cls, cls[v < _class_max(rho)]))
    class_invariant = not mixed.size
    if not class_invariant:
        x = int(mixed[0])
        witnesses["class_invariant"] = (x, int(np.flatnonzero((cls == cls[x]) & (v != v[x]))[0]))

    valid = zero_at_identity and symmetric and class_invariant and subadditive
    return NormReport(valid, zero_at_identity, symmetric, class_invariant, subadditive,
                      witnesses)


# ---------------------------------------------------------------------------
# balls


def _threshold(rho: PseudoMetricNorm, delta: Scalar) -> int:
    """The largest numerator inside radius delta: floor(delta * denom)."""
    if not isinstance(delta, numbers.Rational):
        raise TypeError(f"radius must be rational, got {delta!r}")
    return int(delta.numerator) * rho.denom // int(delta.denominator)


def ball(rho: PseudoMetricNorm, delta: Scalar) -> GroupSubset:
    """{x : rho(x) <= delta}: one integer threshold on the numerators."""
    inside = rho.scaled <= _threshold(rho, delta)
    return GroupSubset(rho.group, _index_mask(np.flatnonzero(inside), rho.group.order))


def ball_axioms_check(rho: PseudoMetricNorm) -> BallAxiomsReport:
    """The ball axioms at every breakpoint, read off rho; each witness the least that fails."""
    g, v = rho.group, rho.scaled
    witnesses: dict = {}

    # the first B(t) to lack 1 or symmetry has t the least value below rho(1) or off its inverse's
    fails = v[(v[g.inv(slice(None))] != v) | (v < v[g.identity])]
    if fails.size:
        witnesses["symmetric"] = Fraction(int(fails.min()), rho.denom)

    # B(r)B(s) escapes B(r + s) iff some x, y with rho(x) <= r, rho(y) <= s break
    # subadditivity, so the first failing (r, s) is the least (rho(x), rho(y))
    _, least = _subadditivity_breaks(rho)
    if least is not None:
        witnesses["subadditive"] = tuple(Fraction(t, rho.denom) for t in least)

    # B(t) is normal iff no x in it has a class-mate above t: x the least of least value
    low = v < _class_max(rho)
    if low.any():
        x = int(np.flatnonzero(low)[v[low].argmin()])
        witnesses["normal"] = (Fraction(int(v[x]), rho.denom), x)

    # nesting holds: sublevel sets of one function always nest
    return BallAxiomsReport("symmetric" not in witnesses, True, "subadditive" not in witnesses,
                            "normal" not in witnesses, witnesses)


def ball_dimension(rho: PseudoMetricNorm, delta: Scalar) -> tuple[float, Optional[Fraction]]:
    """sup of log2(|B(2t)| / |B(t)|) over t in (0, delta]: the doubling exponent.
    With u = 2 t denom the sizes count the numerators <= u and <= u // 2, so
    the ratio can change only at u = v or 2 v for a positive numerator v."""
    if not delta > 0:
        raise ValueError("ball_dimension needs delta > 0")
    scaled = np.sort(rho.scaled)
    cap = _threshold(rho, 2 * delta)
    pos = scaled[scaled.searchsorted(0, "right"):scaled.searchsorted(cap, "right")]
    if not pos.size:    # a zero norm, as of a trivial spectrum, needs no numpy call below
        return 0.0, None
    u = np.unique(np.concatenate([pos, 2 * pos]))
    u = u[u <= cap]
    bigs = scaled.searchsorted(u, "right").tolist()
    smalls = scaled.searchsorted(u // 2, "right").tolist()
    best = 0.0
    witness: Optional[Fraction] = None
    for twice, num, den in zip(u.tolist(), bigs, smalls):
        d = math.log2(num / den)
        if d > best:
            best, witness = d, Fraction(twice, 2 * rho.denom)
    return best, witness


# ---------------------------------------------------------------------------
# regular radii


def bourgain_radius(rho: PseudoMetricNorm, delta: Scalar, d: float) -> BourgainCertificate:
    """A lambda in (1,2] at which the ball measure is stable under small dilations;
    when none is and the dimension record fails, the one with the best margin."""
    if not delta > 0:
        raise ValueError("bourgain_radius needs delta > 0")
    if not math.isfinite(d):
        raise ValueError(f"bourgain_radius needs a finite d, got d={d}")
    measured, _ = ball_dimension(rho, delta)
    records = (HypothesisRecord.of("ball dimension at delta <= d", measured <= d + _FLOAT_TOL,
                                   f"ball is {measured:.6f}-dimensional, d = {d}"),)

    # candidate dilation factors: jump points of t -> |B(t*delta)| in (1,2],
    # midpoints of consecutive jumps, and 2 itself
    two = Fraction(2)
    jumps = sorted({t for t in (v / delta for v in rho.positive_breakpoints()) if 1 < t <= 2})
    if jumps:
        fence = [Fraction(1), *jumps] + ([] if jumps[-1] == two else [two])
        candidates = sorted({*((a + b) / 2 for a, b in zip(fence, fence[1:])), *jumps, two})
    else:
        candidates = [two]  # measure is flat on (delta, 2*delta]; tie-break at 2

    # a float d is a dyadic rational, so every grid bound below is exact
    exact_d = Fraction(d)
    step = 1 / (60 * exact_d) if d > 0 else Fraction(1, 60)
    etas = [k * step for k in range(-_GRID_STEPS, _GRID_STEPS + 1) if k != 0]

    best_margin = -math.inf
    best_cert: Optional[BourgainCertificate] = None
    for lam in candidates:
        base = len(ball(rho, lam * delta))
        rows = []
        for eta in etas:
            ratio = Fraction(len(ball(rho, lam * delta * (1 + eta))), base)
            lower = 1 - 6 * exact_d * abs(eta)
            upper = 1 + 6 * exact_d * abs(eta)
            rows.append(GridPoint(eta, ratio, lower, upper, lower <= ratio <= upper))
        # ok is exact; the float margin only ranks failures and prints in messages
        margin = min(min(float(p.upper) - float(p.ratio), float(p.ratio) - float(p.lower))
                     for p in rows)
        cert = BourgainCertificate(records, lam, delta, d, tuple(rows), margin)
        if all(p.ok for p in rows):
            return cert
        if margin > best_margin:
            best_margin, best_cert = margin, cert
    return conclude(best_cert, False,
                    f"no dilation factor passed the stability grid; best margin {best_margin:.6g}")
