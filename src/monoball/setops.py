"""Product sets, growth profiles, set predicates, and Ruzsa covering certificates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .groups import FiniteGroup, GroupSubset


@dataclass(frozen=True, eq=False)
class GrowthProfile:
    """Sizes of the powers A^n; index n of `sizes` is the n-th power, sizes[0] = 1."""

    base_size: int
    sizes: tuple[int, ...]
    saturated_at: Optional[int]


@dataclass(frozen=True, eq=False)
class FittedGrowth:
    d: float
    witness_n: Optional[int]


@dataclass(frozen=True, eq=False)
class CoveringCertificate:
    cover_set: GroupSubset
    verified_range: int
    separation_ok: bool
    inclusion_ok: bool


@dataclass(frozen=True, eq=False)
class SetPredicates:
    symmetric: bool
    contains_identity: bool
    normal: bool
    doubling: Fraction
    tripling: Fraction
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class AppendixGrowthRow:
    n: int
    size_a_n: int
    size_d_n: int
    bound: int
    inclusion_ok: bool


@dataclass(frozen=True, eq=False)
class AppendixGrowthReport:
    tripling: Fraction
    cover: CoveringCertificate
    cover_sizes: tuple[int, ...]
    rows: tuple[AppendixGrowthRow, ...]
    all_ok: bool


def product_set(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    if a.group is not b.group:
        raise ValueError("product_set: operands live in different groups")
    ai = np.fromiter(a, dtype=np.int64, count=len(a))
    bi = np.fromiter(b, dtype=np.int64, count=len(b))
    if ai.size == 0 or bi.size == 0:
        return GroupSubset(a.group, 0)
    prods = np.unique(a.group.mul_table[np.ix_(ai, bi)])
    mask = 0
    for p in prods:
        mask |= 1 << int(p)
    return GroupSubset(a.group, mask)


def power_set(a: GroupSubset, n: int) -> GroupSubset:
    """A^n for n >= 0; A^0 is the identity singleton."""
    if n < 0:
        raise ValueError("power_set: n must be >= 0")
    acc = GroupSubset.identity_only(a.group)
    for _ in range(n):
        acc = product_set(acc, a)
    return acc


def growth_profile(a: GroupSubset, n_max: int) -> tuple[GrowthProfile, FittedGrowth]:
    if len(a) == 0:
        raise ValueError("growth_profile: A must be non-empty")
    if n_max < 1:
        raise ValueError("growth_profile: n_max must be >= 1")
    monotone = a.group.identity in a
    sizes = [1]
    saturated_at = None
    cur = a
    prev_mask = 0
    frontier = a
    for n in range(1, n_max + 2):
        sizes.append(len(cur))
        if saturated_at is None and n >= 2 and sizes[n] == sizes[n - 1] and cur.mask == prev_mask:
            saturated_at = n - 1
        if saturated_at is not None:
            # A^n = A^{n+1} forces all later powers equal
            sizes.extend([sizes[n]] * (n_max + 1 - n))
            break
        prev_mask = cur.mask
        if monotone:
            # A^{n+1} = A^n ∪ F·A with F the fresh elements of A^n
            grown = product_set(frontier, a)
            nxt = cur | grown
            frontier = GroupSubset(a.group, nxt.mask & ~cur.mask)
            cur = nxt
        else:
            cur = product_set(cur, a)
    profile = GrowthProfile(len(a), tuple(sizes[: n_max + 1]), saturated_at)

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

    # route one: xA = Ax for every x
    normal_translate = True
    arr = np.fromiter(a, dtype=np.int64, count=len(a))
    for x in range(g.order):
        left = np.sort(g.mul_table[x, arr])
        right = np.sort(g.mul_table[arr, x])
        if not np.array_equal(left, right):
            normal_translate = False
            witnesses["normal"] = x
            break
    # route two: union of conjugacy classes
    conj = g.conj_table
    normal_classes = True
    for x in a:
        orbit = np.unique(conj[:, x])
        if any(int(y) not in a for y in orbit):
            normal_classes = False
            break
    if normal_translate != normal_classes:
        raise AssertionError("normality checks disagree; conjugation table corrupt")

    a2 = product_set(a, a)
    a3 = product_set(a2, a)
    doubling = Fraction(len(a2), len(a)) if len(a) else Fraction(0)
    tripling = Fraction(len(a3), len(a)) if len(a) else Fraction(0)
    return SetPredicates(symmetric, contains_identity, normal_translate,
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
        out = 0
        conj = g.conj_table
        for x in GroupSubset(g, mask):
            for y in np.unique(conj[:, x]):
                out |= 1 << int(y)
        mask = out
        # conjugation closure preserves symmetry and the identity, so one pass suffices
    return GroupSubset(g, mask)


def ruzsa_cover(a: GroupSubset) -> CoveringCertificate:
    """Greedy maximal family of disjoint translates xA with x drawn from AA^-1AA^-1."""
    if len(a) == 0:
        raise ValueError("ruzsa_cover: A must be non-empty")
    g = a.group
    d = product_set(a, a.inverse())
    q = product_set(d, d)
    chosen: list[int] = []
    covered = 0
    for x in q:
        xa = _left_translate(g, x, a)
        if xa.mask & covered:
            continue
        chosen.append(x)
        covered |= xa.mask
    x_set = GroupSubset.from_indices(g, chosen)

    # separation: translates pairwise disjoint
    translates = [_left_translate(g, x, a) for x in chosen]
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
    cert = CoveringCertificate(x_set, 1, separation_ok, inclusion_ok)
    # the disjoint translates xA all lie in (AA^-1AA^-1)A
    assert len(x_set) * len(a) <= len(product_set(q, a)), \
        "separated translates outnumber AA^-1AA^-1A"
    return cert


def _left_translate(g: FiniteGroup, x: int, a: GroupSubset) -> GroupSubset:
    mask = 0
    row = g.mul_table[x]
    for i in a:
        mask |= 1 << int(row[i])
    return GroupSubset(g, mask)


def appendix_growth_check(a: GroupSubset, n_max: int) -> AppendixGrowthReport:
    if len(a) == 0:
        raise ValueError("appendix_growth_check: A must be non-empty")
    if n_max < 2:
        raise ValueError("appendix_growth_check: n_max must be >= 2")
    cert = ruzsa_cover(a)
    d = product_set(a, a.inverse())
    x = cert.cover_set

    a3 = power_set(a, 3)
    tripling = Fraction(len(a3), len(a))

    rows = []
    d_n = d
    x_pow = GroupSubset.identity_only(a.group)  # X^{n-1} for the current n
    a_n = a
    cover_sizes = [1]
    all_ok = cert.separation_ok and cert.inclusion_ok
    for n in range(2, n_max + 1):
        d_n = product_set(d_n, d)
        a_n = product_set(a_n, a)
        x_pow = product_set(x_pow, x)
        cover_sizes.append(len(x_pow))
        bound_set = product_set(x_pow, d)
        ok = d_n.is_subset_of(bound_set)
        rows.append(AppendixGrowthRow(n, len(a_n), len(d_n), len(x_pow) * len(d), ok))
        all_ok = all_ok and ok
    return AppendixGrowthReport(tripling, cert, tuple(cover_sizes), tuple(rows), all_ok)


def bfs_power_sizes(a: GroupSubset, n_max: int) -> tuple[int, ...]:
    """Ball sizes in the Cayley graph of <A>; equals |A^n| when the identity is in A."""
    g = a.group
    gens = list(a)
    dist = {g.identity: 0}
    frontier = [g.identity]
    depth = 0
    sizes = [1]
    while frontier and depth < n_max:
        depth += 1
        nxt = []
        for v in frontier:
            for s in gens:
                w = g.mul(v, s)
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
        sizes.append(len(dist))
    while len(sizes) <= n_max:
        sizes.append(sizes[-1])
    return tuple(sizes)
