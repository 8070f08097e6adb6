"""End-to-end constructive run: restrict to the generated subgroup, locate the
tame power, choose the radius, cover the spectrum, and verify that the final
Bohr ball swallows AA^-1 with exact set arithmetic at every link."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .bohr import CharSet, linbohr, linbohr_squared, bohr_norm
from .errors import FalsifiedError, StageCheck
from .groups import (SUBGROUP_ORDER_CAP, FiniteGroup, GroupSubset, closure, power_chain,
                     product_set, subgroup_view)
from .harmonic import is_hereditarily_monomial
from .metric import ball_dimension
from .setops import growth_profile, power_set, set_predicates
from .spectra import (LargeSpectrum, _k_min, large_spectrum, lspec_doubling_cover,
                      lspec_size_check)


@dataclass(frozen=True)
class PipelineConfig:
    constant_c: float = 1.0
    n_max: int = 12
    epsilon_override: Optional[Fraction] = None

    def __post_init__(self):
        if not 0 < self.constant_c < math.inf:      # false for nan too
            raise ValueError(f"constant_c must be positive and finite, not {self.constant_c}")
        if self.n_max < 4:
            raise ValueError("n_max must be at least 4")
        if self.epsilon_override is not None:
            eps = Fraction(self.epsilon_override)
            if eps <= 0:
                raise ValueError(f"eps must be positive, not {eps}")
            if 8 * eps > Fraction(1, 16):
                raise ValueError("epsilon too large: the chain needs 8*eps <= 1/16")


class LedgerEntry(NamedTuple):
    stage: str
    hypothesis: str
    status: str            # holds | fails | clipped | unchecked
    witness: str = ""


class Prop81Report(NamedTuple):
    a: GroupSubset
    l: int
    eps: Fraction
    k_ratio: Fraction
    spectrum: LargeSpectrum
    ball: GroupSubset
    difference_set: GroupSubset
    contained: bool


class PipelineReport(NamedTuple):
    group: FiniteGroup
    restricted: bool
    working_order: int
    a: GroupSubset
    l: int
    k_ratio: Fraction
    d_fit: float
    d_prime: float
    d_eff: float
    eps: Fraction
    constant_c: float
    branch: str
    x: CharSet
    spectrum: CharSet
    ball: GroupSubset
    ball_parent_indices: Optional[tuple[int, ...]]
    checks: tuple[StageCheck, ...]
    aa_inv_in_ball: bool
    dim_ball: float
    dim_functional: float
    size_ratio: Fraction
    log_size_ratio: float
    size_functional: float
    ledger: tuple[LedgerEntry, ...]

    @property
    def all_checks_ok(self) -> bool:
        return all(c.ok for c in self.checks) and self.aa_inv_in_ball


def find_l(a: GroupSubset) -> tuple[int, Fraction]:
    """Smallest l >= 1 with P(A^{l+1}) < sqrt(2) P(A^{l-1}); returns (l, P(A^l)/P(A^{l-1}))."""
    g = a.group
    if g.identity not in a:
        raise ValueError("find_l needs the identity inside A")
    if a.inverse().mask != a.mask:
        raise ValueError("find_l needs a symmetric A")
    size = power_chain(a).size
    l = 1
    while size(l + 1) ** 2 >= 2 * size(l - 1) ** 2:
        l += 1
    # the two working consequences, exact
    assert size(l + 1) ** 2 < 2 * size(l) ** 2
    assert size(l) ** 2 < 2 * size(l - 1) ** 2
    return l, Fraction(size(l), size(l - 1))


def prop81_check(a: GroupSubset, l: int, eps: Fraction) -> Prop81Report:
    """AA^-1 against the Bohr set of LSpec(A^l, eps) at radius 2 eps sqrt(2K)."""
    eps = Fraction(eps)
    if l < 1:
        raise ValueError("prop81_check needs l >= 1")
    if not 0 < eps <= 1:
        raise ValueError("prop81_check needs eps in (0, 1]")
    if len(a) == 0:
        raise ValueError("prop81_check needs a nonempty set")
    low = power_set(a, l - 1)
    high = power_set(a, l)
    k_ratio = Fraction(len(high), len(low))
    spec = large_spectrum(high, eps)
    ball = linbohr_squared(spec.members, 8 * eps * eps * k_ratio)
    diff = product_set(a, a.inverse())
    contained = diff.is_subset_of(ball)
    report = Prop81Report(a, l, eps, k_ratio, spec, ball, diff, contained)
    if not contained:
        raise FalsifiedError("difference set escaped the spectrum Bohr set", report)
    return report


def freiman_ball(group: FiniteGroup, a: GroupSubset,
                 config: PipelineConfig = PipelineConfig()) -> PipelineReport:
    if a.group is not group:
        raise ValueError("subset belongs to a different group")
    if len(a) == 0:
        raise ValueError("freiman_ball needs a nonempty set")
    ledger: list[LedgerEntry] = []

    # restrict to the generated subgroup; difference sets and powers are unchanged
    hull = closure(group, a.indices())
    restricted = len(hull) < group.order
    if restricted:
        view = subgroup_view(group, hull)
        work, to_parent = view.group, view.to_parent
        wa = GroupSubset.from_indices(work, view.from_parent[a.array()])
    else:
        work, wa, to_parent = group, a, None
    ledger.append(LedgerEntry(
        "restrict", "A generates the ambient group",
        "holds" if not restricted else "fails",
        f"|<A>| = {len(hull)} of {group.order}" + (
            "; restricted and recomputed" if restricted else "")))

    preds = set_predicates(wa)
    if work.identity not in wa or not preds.symmetric:
        raise ValueError("freiman_ball needs a symmetric set containing the identity")
    if not preds.normal:
        raise ValueError("freiman_ball needs A normal inside the group it generates")

    if work.order <= SUBGROUP_ORDER_CAP:
        hered, bad = is_hereditarily_monomial(work)
        ledger.append(LedgerEntry(
            "hypotheses", "generated subgroup hereditarily monomial",
            "holds" if hered else "fails",
            "" if hered else f"failing subgroup of order {len(bad)}"))
    else:
        ledger.append(LedgerEntry(
            "hypotheses", "generated subgroup hereditarily monomial", "unchecked",
            f"order {work.order} beyond cap {SUBGROUP_ORDER_CAP}"))

    l, k_ratio = find_l(wa)
    ledger.append(LedgerEntry(
        "find_l", "P(A^{l+1}) < sqrt(2) P(A^{l-1})", "holds",
        f"l = {l}, K = {k_ratio}"))

    d_fit = growth_profile(wa, config.n_max)[1].d
    a_l = power_set(wa, l)
    d_prime = growth_profile(a_l, config.n_max)[1].d
    d_eff = max(d_prime, 1.0)
    ledger.append(LedgerEntry(
        "fit", "P((A^l)^n) <= n^d' P(A^l) over the measured window", "holds",
        f"d = {d_fit:.6g}, d' = {d_prime:.6g}, d_eff = {d_eff:.6g}"))

    if config.epsilon_override is not None:
        eps = Fraction(config.epsilon_override)
        eps_origin = "override"
    else:
        inv = math.ceil(2 ** 9 * (1 + config.constant_c) * d_eff
                        * math.log(2 * d_eff) ** 2)
        eps = Fraction(1, inv)
        eps_origin = "formula"
    # the config caps an override at 1/128; the formula gives <= 1/246 as 2^9 log^2 2 > 245.9
    assert 8 * eps <= Fraction(1, 16)
    ledger.append(LedgerEntry(
        "epsilon", "8 eps <= 2^-4", "holds",
        f"eps = {eps} ({eps_origin}, C = {config.constant_c:g})"))

    # spectrum covering of A^l; S = A works since P(A.A^l) < sqrt(2) P(A^l)
    doubling = lspec_doubling_cover(work, wa, a_l, eps, d_eff)
    x = doubling.x if doubling.branch == "covered" else CharSet.empty(work)
    for rec in doubling.hypotheses:
        status = rec.status
        if status == "holds" and doubling.window_clipped and "window" in rec.name:
            status = "clipped"
        ledger.append(LedgerEntry("doubling", rec.name, status, rec.detail))
    ledger.append(LedgerEntry(
        "doubling", "covering branch", "holds",
        f"branch = {doubling.branch}, |X| = {len(x)}"))

    spec = large_spectrum(a_l, eps)
    # Proposition 8.1 at 2 eps is the chain's first link; it raises if AA^-1 escapes
    wide = prop81_check(wa, l, 2 * eps)
    spec_wide, diff, step_sq = wide.spectrum, wide.difference_set, wide.ball
    union = spec.members | x
    checks = [StageCheck.of("LSpec(eps) and X inside LSpec(2 eps)", union, spec_wide.members)]

    ball = linbohr(union, Fraction(1, 16))

    # the chain from the difference set to the final ball
    checks.append(StageCheck("AA^-1 inside LinBohr(LSpec(2 eps), 4 eps sqrt(2K))",
                             len(diff), len(step_sq), wide.contained))
    assert k_ratio <= 2      # makes 4 eps sqrt(2K) <= 8 eps
    step_8eps = linbohr(spec_wide.members, 8 * eps)
    checks.append(StageCheck.of("radius widens to 8 eps", step_sq, step_8eps))
    step_16 = linbohr(spec_wide.members, Fraction(1, 16))
    checks.append(StageCheck.of("radius widens to 2^-4", step_8eps, step_16))
    checks.append(StageCheck.of("dropping to the smaller frequency set reaches B",
                                step_16, ball))
    aa_inv_in_ball = diff.is_subset_of(ball)

    dim_ball, _ = ball_dimension(bohr_norm(union), Fraction(1, 16))
    d_for_form = max(d_fit, 1.0)
    dim_functional = d_for_form * math.log(2 * d_for_form) ** 3
    size_ratio = Fraction(len(ball), len(wa))
    log_size_ratio = math.log(float(size_ratio))
    size_functional = d_for_form * math.log(2 * d_for_form)

    # size stage: the clipped spectrum-ball bound at the smallest admissible k
    k_size = math.ceil(_k_min(eps, d_eff))
    size_rep = lspec_size_check(work, wa, a_l, eps, k_size, d_eff)
    for rec in size_rep.hypotheses:
        ledger.append(LedgerEntry("size", rec.name, rec.status, rec.detail))
    ledger.append(LedgerEntry(
        "size", "P(LinBohr(LSpec(A^l, eps), 1/2pi)) <= 8 k^d P(A^l)",
        "holds" if size_rep.ok else "fails",
        f"k = {k_size}, lhs = {size_rep.lhs}"))

    parent_ball = (tuple(to_parent[ball.array()].tolist())
                   if to_parent is not None else None)
    report = PipelineReport(
        group, restricted, work.order, a, l, k_ratio, d_fit, d_prime, d_eff,
        eps, config.constant_c, doubling.branch, x, spec.members, ball,
        parent_ball, tuple(checks), aa_inv_in_ball, dim_ball, dim_functional,
        size_ratio, log_size_ratio, size_functional, tuple(ledger))
    if not report.all_checks_ok:
        raise FalsifiedError("pipeline containment chain failed", report)
    return report
