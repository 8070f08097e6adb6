"""Powers, growth profiles, set predicates, and Ruzsa covering certificates."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .groups import GroupSubset, conjugates, normality_witness, power_chain, product_set


class GrowthProfile(NamedTuple):
    """Sizes of the powers A^n; index n of `sizes` is the n-th power, sizes[0] = 1."""

    base_size: int
    sizes: tuple[int, ...]
    saturated_at: Optional[int]


class FittedGrowth(NamedTuple):
    d: float
    witness_n: Optional[int]


class CoveringCertificate(NamedTuple):
    cover_set: GroupSubset
    separation_ok: bool
    inclusion_ok: bool


class SetPredicates(NamedTuple):
    symmetric: bool
    contains_identity: bool
    normal: bool
    doubling: Fraction
    tripling: Fraction
    witnesses: dict


class AppendixGrowthRow(NamedTuple):
    n: int
    size_a_n: int
    size_d_n: int
    bound: int
    inclusion_ok: bool


class AppendixGrowthReport(NamedTuple):
    tripling: Fraction
    cover: CoveringCertificate
    cover_sizes: tuple[int, ...]
    rows: tuple[AppendixGrowthRow, ...]
    all_ok: bool


def power_set(a: GroupSubset, n: int) -> GroupSubset:
    """A^n for n >= 0; A^0 is the identity singleton. With the identity in A,
    (A^n)^k = A^{nk}, so A^n's power chain is cached as A's read at stride n
    (unless A^n already has one) and no chain is walked for A^n."""
    if n < 0:
        raise ValueError("power_set: n must be >= 0")
    chain = power_chain(a)
    mask = chain.mask(n)
    if n > 1 and a.group.identity in a:
        a.group.cached("_power_chains", lambda: chain.strided(n), mask)
    return GroupSubset(a.group, mask)


def growth_profile(a: GroupSubset, n_max: int) -> tuple[GrowthProfile, FittedGrowth]:
    if len(a) == 0:
        raise ValueError("growth_profile: A must be non-empty")
    if n_max < 1:
        raise ValueError("growth_profile: n_max must be >= 1")
    chain = power_chain(a)
    # reading A^{n_max + 1} closes any cycle of period 1 that starts by n_max
    chain.mask(n_max + 1)
    saturated = chain.period == 1 and chain.start <= n_max
    profile = GrowthProfile(len(a), tuple(chain.size(n) for n in range(n_max + 1)),
                            max(chain.start, 1) if saturated else None)

    best_d, best_n = 0.0, None
    for n in range(2, n_max + 1):
        d = math.log(profile.sizes[n] / profile.sizes[1]) / math.log(n)
        if best_n is None or d > best_d:
            best_d, best_n = d, n
    return profile, FittedGrowth(best_d, best_n)


def set_predicates(a: GroupSubset) -> SetPredicates:
    g = a.group
    witnesses: dict = {}

    inv = a.inverse()
    symmetric = inv.mask == a.mask
    if not symmetric:
        bad = (a.mask & ~inv.mask) or (inv.mask & ~a.mask)
        witnesses["symmetric"] = (bad & -bad).bit_length() - 1

    contains_identity = g.identity in a
    if not contains_identity:
        witnesses["contains_identity"] = g.identity

    moved = normality_witness(a)
    if moved is not None:
        witnesses["normal"] = moved

    chain = power_chain(a)
    doubling = Fraction(chain.size(2), len(a)) if len(a) else Fraction(0)
    tripling = Fraction(chain.size(3), len(a)) if len(a) else Fraction(0)
    return SetPredicates(symmetric, contains_identity, moved is None,
                         doubling, tripling, witnesses)


def normalize_set(s: GroupSubset, symmetrize: bool = False, add_identity: bool = False,
                  conjugation_close: bool = False) -> GroupSubset:
    g = s.group
    mask = s.mask
    if add_identity:
        mask |= 1 << g.identity
    if symmetrize:
        cur = GroupSubset(g, mask)
        mask |= cur.inverse().mask
    if conjugation_close:
        # conjugation closure preserves symmetry and the identity, so one pass suffices
        mask = conjugates(GroupSubset(g, mask)).mask
    return GroupSubset(g, mask)


def ruzsa_cover(a: GroupSubset) -> CoveringCertificate:
    """Greedy maximal family of disjoint translates xA with x drawn from AA^-1AA^-1."""
    if len(a) == 0:
        raise ValueError("ruzsa_cover: A must be non-empty")
    g = a.group
    d = product_set(a, a.inverse())
    q = power_set(d, 2)
    chosen: list[int] = []
    covered = 0
    for x in q:
        xa = product_set(GroupSubset(g, 1 << x), a)
        if xa.mask & covered:
            continue
        chosen.append(x)
        covered |= xa.mask
    x_set = GroupSubset.from_indices(g, chosen)

    # separation: translates pairwise disjoint
    translates = [product_set(GroupSubset(g, 1 << x), a) for x in chosen]
    separation_ok = True
    seen = 0
    for t in translates:
        if t.mask & seen:
            separation_ok = False
            break
        seen |= t.mask
    # covering: AA^-1AA^-1 ⊆ X·A·A^-1
    xa_ainv = product_set(product_set(x_set, a), a.inverse())
    inclusion_ok = q.is_subset_of(xa_ainv)
    cert = CoveringCertificate(x_set, separation_ok, inclusion_ok)
    # the disjoint translates xA all lie in (AA^-1AA^-1)A
    assert len(x_set) * len(a) <= len(product_set(q, a)), \
        "separated translates outnumber AA^-1AA^-1A"
    return cert


def appendix_growth_check(a: GroupSubset, n_max: int) -> AppendixGrowthReport:
    if len(a) == 0:
        raise ValueError("appendix_growth_check: A must be non-empty")
    if n_max < 2:
        raise ValueError("appendix_growth_check: n_max must be >= 2")
    cert = ruzsa_cover(a)
    d = product_set(a, a.inverse())
    tripling = Fraction(len(power_set(a, 3)), len(a))

    rows = []
    cover_sizes = [1]
    all_ok = cert.separation_ok and cert.inclusion_ok
    for n in range(2, n_max + 1):
        d_n, cover_pow = power_set(d, n), power_set(cert.cover_set, n - 1)
        cover_sizes.append(len(cover_pow))
        ok = d_n.is_subset_of(product_set(cover_pow, d))
        rows.append(AppendixGrowthRow(n, len(power_set(a, n)), len(d_n),
                                      len(cover_pow) * len(d), ok))
        all_ok = all_ok and ok
    return AppendixGrowthReport(tripling, cert, tuple(cover_sizes), tuple(rows), all_ok)
