"""Linear Bohr sets and the span/sumset calculus on degree-one characters.

All phases, radii and thresholds are exact rationals, so every ball membership
decision and every set identity here is exact, never tolerance-based.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import CapExceededError, HypothesisRecord, StageCheck, conclude
from .groups import BitSet, FiniteGroup, GroupSubset, product_set
from .harmonic import LinearCharacter, linear_phases
from .metric import PseudoMetricNorm, ball

SPAN_GUARD = 20


class CharSet(BitSet):
    """Set of degree-one characters of one group: bit i is character i of
    `linear_phases(group)`, so the trivial character is bit 0."""

    _out_of_range = "character index {i} out of range for |Lin(G)| = {n}"

    @staticmethod
    def _size(group: FiniteGroup) -> int:
        return len(linear_phases(group).keys)

    @classmethod
    def build(cls, group: FiniteGroup, chars: Iterable[LinearCharacter]) -> "CharSet":
        chars = list(chars)
        if any(c.group is not group for c in chars):
            raise ValueError("character belongs to a different group")
        return cls.from_indices(group, [c.index for c in chars])

    @classmethod
    def empty(cls, group: FiniteGroup) -> "CharSet":
        return cls(group, 0)

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "CharSet":
        return cls(group, 1)

    @property
    def chars(self) -> tuple[LinearCharacter, ...]:
        return tuple(LinearCharacter(self.group, i) for i in self)

    @property
    def contains_identity(self) -> bool:
        return bool(self.mask & 1)

    @property
    def symmetric(self) -> bool:
        return self.negate().mask == self.mask

    def negate(self) -> "CharSet":
        return CharSet.from_indices(self.group,
                                    linear_phases(self.group).negations(self.indices()))


def charset_sum(a: CharSet, b: CharSet) -> CharSet:
    a._check_same(b)
    return CharSet.from_indices(a.group, linear_phases(a.group).sums(a.indices(), b.indices()))


def kfold_charset(lam: CharSet, k: int) -> CharSet:
    if k < 1:
        raise ValueError("kfold_charset needs k >= 1")
    out = lam
    for _ in range(k - 1):
        out = charset_sum(out, lam)
    return out


def char_span(x: CharSet) -> CharSet:
    """All {-1,0,1}-combinations of the characters of X under phase addition."""
    if len(x) > SPAN_GUARD:
        raise CapExceededError(f"char_span refused for |X| = {len(x)} > {SPAN_GUARD}")
    span = CharSet.trivial(x.group)
    for i, neg in zip(x, linear_phases(x.group).negations(x.indices())):
        span = charset_sum(span, CharSet.from_indices(x.group, (0, i, neg)))
    return span


# ---------------------------------------------------------------------------
# norms and balls


def phase_norm(q: Fraction) -> Fraction:
    """Distance of e^{2 pi i q} to 1 along the circle: min(q mod 1, 1 - q mod 1)."""
    q = q % 1
    return min(q, 1 - q)


def bohr_norm(charset: CharSet) -> PseudoMetricNorm:
    """rho(x) = max over the characters of phase_norm(gamma(x)), read off the phase
    block as d/e, e the exponent of G^ab. Every gamma is a homomorphism to Z/e
    (`linear_phases` proves it on a generating set), and ||.|| on Z/e is zero at
    0, symmetric and subadditive, so rho is a norm and, as a max of class
    functions, invariant under conjugation: it is not validated again. The group
    caches the read-only numerators only, so no reference cycle keeps it alive."""
    group, lp = charset.group, linear_phases(charset.group)

    def numerators():
        rows = lp.block(charset.indices())
        return np.minimum(rows, lp.exponent - rows).max(axis=0, initial=0)
    return PseudoMetricNorm(group, group.cached("_bohr_norms", numerators, charset.mask),
                            lp.exponent)


def linbohr(charset: CharSet, delta) -> GroupSubset:
    if delta < 0:
        raise ValueError("linbohr needs delta >= 0")
    return ball(bohr_norm(charset), delta)


def linbohr_squared(charset: CharSet, delta_sq: Fraction) -> GroupSubset:
    """{x : rho(x)^2 <= delta_sq}, exact for irrational radii sqrt(delta_sq): for
    rho(x) = d/e, d^2 <= delta_sq e^2 exactly when d <= isqrt(floor(delta_sq e^2))."""
    if delta_sq < 0:
        raise ValueError("linbohr_squared needs delta_sq >= 0")
    e = linear_phases(charset.group).exponent
    return linbohr(charset, Fraction(math.isqrt(math.floor(delta_sq * e * e)), e))


# ---------------------------------------------------------------------------
# Corollary-style contraction


class ContractionReport(NamedTuple):
    hypotheses: tuple[HypothesisRecord, ...]
    k_delta: Fraction
    forward_inclusion: bool
    equal: bool
    lhs_size: int
    rhs_size: int
    witness: Optional[int]


def cor53_check(lam: CharSet, k: int, delta: Fraction) -> ContractionReport:
    """LinBohr(k Lambda, k delta) against LinBohr(Lambda, delta)."""
    if k < 1:
        raise ValueError("cor53_check needs k >= 1")
    delta = Fraction(delta)
    k_delta = k * delta
    records = (HypothesisRecord.of("Lambda contains the trivial character",
                                   lam.contains_identity),
               HypothesisRecord.of("k delta < 1/3", k_delta < Fraction(1, 3),
                                   f"k delta = {k_delta}"))

    lhs = linbohr(kfold_charset(lam, k), k_delta)
    rhs = linbohr(lam, delta)
    forward = rhs.is_subset_of(lhs)     # triangle inequality: always expected
    equal = lhs.mask == rhs.mask
    witness = None
    if not equal:
        diff = lhs.mask ^ rhs.mask
        witness = (diff & -diff).bit_length() - 1
    report = ContractionReport(records, k_delta, forward, equal, len(lhs), len(rhs), witness)
    return conclude(report, equal and forward,
                    "LinBohr(k*Lambda, k*delta) != LinBohr(Lambda, delta) under a valid hypothesis")


# ---------------------------------------------------------------------------
# growth of structured Bohr sets


class BohrGrowthReport(NamedTuple):
    hypotheses: tuple[HypothesisRecord, ...]
    delta: Fraction
    x_size: int
    t_size: int
    t_bound: int
    ratio: Fraction
    ratio_bound: int
    ratio_ok: bool
    steps: tuple[StageCheck, ...]

    @property
    def all_inclusions_ok(self) -> bool:
        return all(s.ok for s in self.steps)


def prop51_check(gamma: CharSet, x: CharSet, delta: Fraction) -> BohrGrowthReport:
    """Replay the covering-by-translates growth bound for structured Bohr sets."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("prop51_check needs delta > 0")
    if len(x) < 1:
        raise ValueError("X must contain at least one character")
    group = gamma.group

    span = char_span(x)
    # hypothesis: Gamma + Gamma inside Span(X) + Gamma, checked as exact char sets
    target = charset_sum(span, gamma)
    pair_sums = linear_phases(group).sums(gamma.indices(), gamma.indices()).tolist()
    missing = next((k for k, s in enumerate(pair_sums) if s not in target), None)
    witness = ""
    if missing is not None:
        i, j = divmod(missing, len(gamma))
        witness = f"characters {gamma.indices()[i]} + {gamma.indices()[j]} fall outside"
    records = (
        HypothesisRecord.of("Gamma is symmetric and contains the trivial character",
                            gamma.symmetric and gamma.contains_identity),
        HypothesisRecord.of("delta <= 2^-4", delta <= Fraction(1, 16), f"delta = {delta}"),
        HypothesisRecord.of("Gamma + Gamma inside Span(X) + Gamma", missing is None, witness),
        HypothesisRecord.of("8 delta < 1/3", 8 * delta < Fraction(1, 3)),
    )

    nx = len(x)
    grid_unit = delta / (4 * nx)
    grid_limit = 16 * nx

    big = linbohr(gamma | x, 2 * delta)
    small = linbohr(gamma | x, delta)
    ratio = Fraction(len(big), len(small))
    ratio_bound = (32 * nx + 1) ** nx

    # partition the big ball by rounded phase signatures on X; per signature
    # class the smallest element acts as the translate representative
    # a signed phase s/e in (-1/2, 1/2] rounds half up on the grid to
    # floor((2 s gd + e gn) / (2 e gn)) for grid_unit = gn/gd
    e, gn, gd = linear_phases(group).exponent, grid_unit.numerator, grid_unit.denominator
    signed = [[p if 2 * p <= e else p - e for p in c.row.tolist()] for c in x.chars]
    classes: dict[tuple[int, ...], int] = {}
    for g in big:
        key = tuple(max(-grid_limit, min(grid_limit, (2 * row[g] * gd + e * gn) // (2 * e * gn)))
                    for row in signed)
        if key not in classes or g < classes[key]:
            classes[key] = g
    t_elems = sorted(classes.values())
    t_set = GroupSubset.from_indices(group, t_elems)
    t_bound = (2 * grid_limit + 1) ** nx

    inner1 = linbohr(gamma, 4 * delta) & linbohr(x, grid_unit * 2)  # delta / 2|X|
    span8 = kfold_charset(span, 8)
    inner2 = linbohr(charset_sum(gamma, span8), 8 * delta)
    inner3 = linbohr(kfold_charset(gamma, 8), 8 * delta) & linbohr(span8, 8 * delta)
    inner4 = linbohr(gamma, delta) & linbohr(x, delta)
    # the third step needs Gamma + Gamma inside Span(X) + Gamma, the fourth 8 delta < 1/3
    steps = (
        StageCheck.of("ball covered by translates of the refined ball",
                      big, product_set(t_set, inner1)),
        StageCheck.of("refined ball inside the span-augmented ball", inner1, inner2),
        StageCheck.of("span-augmented ball inside the 8-fold balls", inner2, inner3),
        StageCheck.of("8-fold contraction back to radius delta", inner3, inner4),
        StageCheck("intersection equals the small ball", len(inner4), len(small),
                   inner4.mask == small.mask),
    )

    ratio_ok = ratio <= ratio_bound
    report = BohrGrowthReport(records, delta, nx, len(t_set), t_bound,
                              ratio, ratio_bound, ratio_ok, steps)
    return conclude(report, ratio_ok and report.all_inclusions_ok,
                    "Bohr growth chain failed with all hypotheses in force")
