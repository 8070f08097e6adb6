"""Finite groups as validated multiplication tables over 0-based element indices."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapExceededError, GroupValidationError

FULL_ASSOCIATIVITY_LIMIT = 512
SUBGROUP_CAP_DEFAULT = 128
PERMUTATION_CLOSURE_CAP = 4096
_ASSOC_SAMPLE = 100_000


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group; the multiplication table is the source of truth."""

    mul_table: np.ndarray
    inv_table: np.ndarray
    identity: int
    labels: tuple[str, ...]
    name: str = "group"

    @property
    def order(self) -> int:
       return int(self.mul_table.shape[0])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inv_table[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mul_table[self.mul_table[g, x], self.inv_table[g]])

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def conj_table(self) -> np.ndarray:
        """conj_table[g, x] = g x g^-1."""
        gx = self.mul_table
        out = self.mul_table[gx, self.inv_table[:, None]]
        out.setflags(write=False)
        return out

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul_table, self.mul_table.T))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        elems = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        power, k = elems, 1
        while not orders.all():
            orders[(power == self.identity) & (orders == 0)] = k
            power = self.mul_table[power, elems]
            k += 1
        return tuple(orders.tolist())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class GroupSubset:
    """Subset of a group's elements stored as a bitmask over indices."""

    group: FiniteGroup
    mask: int

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices: Iterable[int]) -> "GroupSubset":
        mask = 0
        n = group.order
        for i in indices:
            i = int(i)
            if not 0 <= i < n:
                raise ValueError(f"element index {i} out of range for order {n}")
            mask |= 1 << i
        return cls(group, mask)

    @classmethod
    def full(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def identity_only(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, 1 << group.identity)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, index: int) -> bool:
        return bool((self.mask >> index) & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            b = m & -m
            yield b.bit_length() - 1
            m ^= b

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def __or__(self, other: "GroupSubset") -> "GroupSubset":
        self._check_same(other)
        return GroupSubset(self.group, self.mask | other.mask)

    def __and__(self, other: "GroupSubset") -> "GroupSubset":
        self._check_same(other)
        return GroupSubset(self.group, self.mask & other.mask)

    def is_subset_of(self, other: "GroupSubset") -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def inverse(self) -> "GroupSubset":
        inv = self.group.inv_table
        m = 0
        for i in self:
            m |= 1 << int(inv[i])
        return GroupSubset(self.group, m)

    def bool_array(self) -> np.ndarray:
        arr = np.zeros(self.group.order, dtype=bool)
        arr[list(self)] = True
        return arr

    def _check_same(self, other: "GroupSubset") -> None:
        if self.group is not other.group:
            raise ValueError("subsets belong to different groups")

    def __repr__(self) -> str:
        return f"GroupSubset(n={len(self)} of {self.group.name})"


@dataclass(frozen=True, eq=False)
class ConjugacyPartition:
    group: FiniteGroup
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def class_subsets(self) -> tuple[GroupSubset, ...]:
        return tuple(GroupSubset.from_indices(self.group, c) for c in self.classes)

    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)


@dataclass(frozen=True, eq=False)
class Subgroup:
    elements: GroupSubset
    index_in_parent: int

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class SubgroupView:
    """A subgroup rebuilt as a standalone group, with index maps to the parent."""

    parent: FiniteGroup
    group: FiniteGroup
    to_parent: tuple[int, ...]
    from_parent: dict


@dataclass(frozen=True, eq=False)
class Abelianization:
    commutator: GroupSubset
    quotient: FiniteGroup
    projection: tuple[int, ...]
    section: tuple[int, ...]


# ---------------------------------------------------------------------------
# table validation


def _first_bad_row(table: np.ndarray) -> Optional[int]:
    n = table.shape[0]
    want = np.arange(n)
    rows_ok = (np.sort(table, axis=1) == want).all(axis=1)
    if rows_ok.all():
        return None
    return int(np.flatnonzero(~rows_ok)[0])


def _validate_table(mul: np.ndarray, name: str) -> tuple[int, np.ndarray]:
    """Check group axioms; return (identity, inv_table) or raise with a witness."""
    n = mul.shape[0]
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise GroupValidationError(f"{name}: multiplication table must be square")
    if n == 0:
        raise GroupValidationError(f"{name}: empty table")
    if mul.min() < 0 or mul.max() >= n:
        bad = np.argwhere((mul < 0) | (mul >= n))[0]
        raise GroupValidationError(
            f"{name}: entry at ({bad[0]},{bad[1]}) is outside 0..{n - 1}"
        )
    r = _first_bad_row(mul)
    if r is not None:
        raise GroupValidationError(f"{name}: row {r} is not a permutation (not a Latin square)")
    c = _first_bad_row(mul.T)
    if c is not None:
        raise GroupValidationError(f"{name}: column {c} is not a permutation (not a Latin square)")

    want = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(mul[e], want) and np.array_equal(mul[:, e], want):
            identity = e
            break
    if identity is None:
        raise GroupValidationError(f"{name}: no two-sided identity element")

    inv = np.empty(n, dtype=mul.dtype)
    for x in range(n):
        hits = np.flatnonzero(mul[x] == identity)
        inv[x] = hits[0]

    if n <= FULL_ASSOCIATIVITY_LIMIT:
        chunk = max(1, (1 << 22) // (n * n))
        for start in range(0, n, chunk):
            xs = np.arange(start, min(start + chunk, n))
            lhs = mul[mul[xs], :]          # (c, n, n): (x y) z
            rhs = mul[xs][:, mul]          # (c, n, n): x (y z)
            if not np.array_equal(lhs, rhs):
                x, y, z = np.argwhere(lhs != rhs)[0]
                x = int(xs[x])
                raise GroupValidationError(
                    f"{name}: associativity fails at ({x},{int(y)},{int(z)}): "
                    f"(x*y)*z={int(mul[mul[x, y], z])} but x*(y*z)={int(mul[x, mul[y, z]])}"
                )
    else:
        rng = np.random.default_rng(0)
        xs, ys, zs = rng.integers(0, n, size=(3, _ASSOC_SAMPLE))
        lhs = mul[mul[xs, ys], zs]
        rhs = mul[xs, mul[ys, zs]]
        if not np.array_equal(lhs, rhs):
            i = int(np.flatnonzero(lhs != rhs)[0])
            raise GroupValidationError(
                f"{name}: associativity fails at sampled triple "
                f"({int(xs[i])},{int(ys[i])},{int(zs[i])})"
            )
    return identity, inv


def _finish(mul: np.ndarray, labels: Sequence[str], name: str) -> FiniteGroup:
    mul = np.ascontiguousarray(mul, dtype=np.int32)
    identity, inv = _validate_table(mul, name)
    mul.setflags(write=False)
    inv.setflags(write=False)
    return FiniteGroup(mul, inv, identity, tuple(labels), name)


# ---------------------------------------------------------------------------
# constructors


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupValidationError("cyclic: n must be >= 1")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return _finish(mul, [str(k) for k in range(n)], f"cyclic({n})")


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group given by its order 2n (rotations first, then reflections)."""
    if order < 2 or order % 2:
        raise GroupValidationError("dihedral: order must be even and >= 2")
    n = order // 2
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mul[a, b] = (a + b) % n                  # r^a r^b
            mul[a, n + b] = n + (b - a) % n          # r^a (s r^b) = s r^{b-a}
            mul[n + a, b] = n + (a + b) % n          # (s r^a) r^b
            mul[n + a, n + b] = (b - a) % n          # (s r^a)(s r^b) = r^{b-a}
    labels = [f"r{a}" for a in range(n)] + [f"sr{a}" for a in range(n)]
    return _finish(mul, labels, f"dihedral({order})")


def quaternion_group() -> FiniteGroup:
    # elements 1,-1,i,-i,j,-j,k,-k encoded as (unit u, sign s) -> index 2u+s
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }
    mul = np.zeros((8, 8), dtype=np.int64)
    for u in range(4):
        for s in range(2):
            for v in range(4):
                for t in range(2):
                    flip, w = unit_mul[(u, v)]
                    mul[2 * u + s, 2 * v + t] = 2 * w + ((s + t + flip) % 2)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return _finish(mul, labels, "quaternion8")


def heisenberg_group(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z_p; element (a,b,c) has index a*p^2+b*p+c."""
    if p < 2:
        raise GroupValidationError("heisenberg: p must be >= 2")
    n = p ** 3
    mul = np.zeros((n, n), dtype=np.int64)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                i = (a * p + b) * p + c
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            j = (a2 * p + b2) * p + c2
                            na, nb = (a + a2) % p, (b + b2) % p
                            nc = (c + c2 + a * b2) % p
                            mul[i, j] = (na * p + nb) * p + nc
    labels = [f"({a},{b},{c})" for a in range(p) for b in range(p) for c in range(p)]
    return _finish(mul, labels, f"heisenberg({p})")


def product_group(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    if not factors:
        raise GroupValidationError("product: needs at least one factor")
    orders = [g.order for g in factors]
    n = int(np.prod(orders))

    def encode(tup):
        idx = 0
        for g, t in zip(factors, tup):
            idx = idx * g.order + t
        return idx

    def decode(idx):
        out = []
        for g in reversed(factors):
            out.append(idx % g.order)
            idx //= g.order
        return tuple(reversed(out))

    mul = np.zeros((n, n), dtype=np.int64)
    tuples = [decode(i) for i in range(n)]
    for i, ti in enumerate(tuples):
        for j, tj in enumerate(tuples):
            mul[i, j] = encode(tuple(g.mul(a, b) for g, a, b in zip(factors, ti, tj)))
    labels = ["(" + ",".join(g.labels[t] for g, t in zip(factors, tup)) + ")" for tup in tuples]
    name = "x".join(g.name for g in factors)
    return _finish(mul, labels, f"product({name})")


def permutation_group(degree: int, generators: Sequence[Sequence[int]]) -> FiniteGroup:
    if degree < 1:
        raise GroupValidationError("permutation: degree must be >= 1")
    gens = []
    for k, g in enumerate(generators):
        g = tuple(int(v) for v in g)
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise GroupValidationError(
                f"permutation: generator {k} is not a permutation of 0..{degree - 1}"
            )
        gens.append(g)

    def compose(p, q):
        # apply q first, then p
        return tuple(p[q[i]] for i in range(degree))

    ident = tuple(range(degree))
    index_of = {ident: 0}
    elems = [ident]
    queue = [ident]
    while queue:
        cur = queue.pop(0)
        for g in gens:
            w = compose(cur, g)
            if w not in index_of:
                if len(elems) >= PERMUTATION_CLOSURE_CAP:
                    raise CapExceededError(
                        f"permutation closure exceeds {PERMUTATION_CLOSURE_CAP} elements"
                    )
                index_of[w] = len(elems)
                elems.append(w)
                queue.append(w)
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mul[i, j] = index_of[compose(p, q)]
    labels = ["(" + " ".join(map(str, p)) + ")" for p in elems]
    return _finish(mul, labels, f"perm(deg {degree})")


def table_group(mul: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None,
                name: str = "table") -> FiniteGroup:
    arr = np.asarray(mul, dtype=np.int64)
    if labels is None:
        labels = [str(i) for i in range(arr.shape[0])]
    return _finish(arr, labels, name)


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a declarative spec dict (see the JSON interface)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise GroupValidationError("group spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "cyclic":
        return cyclic_group(int(spec["n"]))
    if kind == "dihedral":
        return dihedral_group(int(spec["order"]))
    if kind == "quaternion8":
        return quaternion_group()
    if kind == "heisenberg":
        return heisenberg_group(int(spec["p"]))
    if kind == "product":
        return product_group([build_group(s) for s in spec["factors"]])
    if kind == "permutation":
        return permutation_group(int(spec["degree"]), spec["generators"])
    if kind == "table":
        return table_group(spec["mul"], spec.get("labels"))
    raise GroupValidationError(f"unknown group spec type {kind!r}")


# ---------------------------------------------------------------------------
# structure


def conjugacy_classes(group: FiniteGroup) -> ConjugacyPartition:
    return _conjugacy_cached(group)


def _conjugacy_cached(group: FiniteGroup) -> ConjugacyPartition:
    cached = group.__dict__.get("_conjugacy")
    if cached is not None:
        return cached
    n = group.order
    conj = group.conj_table
    class_of = [-1] * n
    classes = []
    order = [group.identity] + [x for x in range(n) if x != group.identity]
    for x in order:
        if class_of[x] >= 0:
            continue
        orbit = np.unique(conj[:, x])
        cid = len(classes)
        for y in orbit:
            class_of[int(y)] = cid
        classes.append(tuple(int(y) for y in orbit))
    part = ConjugacyPartition(group, tuple(classes), tuple(class_of))
    group.__dict__["_conjugacy"] = part
    return part


def closure(group: FiniteGroup, seeds: Iterable[int]) -> GroupSubset:
    """Subgroup generated by the seed elements."""
    n = group.order
    members = np.zeros(n, dtype=bool)
    members[group.identity] = True
    seed_arr = np.unique(np.fromiter((int(s) for s in seeds), dtype=np.int64))
    if seed_arr.size and (seed_arr.min() < 0 or seed_arr.max() >= n):
        raise ValueError("seed element out of range")
    frontier = seed_arr[~members[seed_arr]] if seed_arr.size else seed_arr
    members[frontier] = True
    while frontier.size:
        cur = np.flatnonzero(members)
        prods = group.mul_table[np.ix_(frontier, cur)].ravel()
        prods2 = group.mul_table[np.ix_(cur, frontier)].ravel()
        cand = np.unique(np.concatenate([prods, prods2]))
        fresh = cand[~members[cand]]
        members[fresh] = True
        frontier = fresh
    return GroupSubset.from_indices(group, np.flatnonzero(members))


def commutator_subgroup(group: FiniteGroup) -> GroupSubset:
    mul, inv = group.mul_table, group.inv_table
    xy = mul
    t = mul[xy, inv[:, None]]           # (x y) x^-1
    comms = mul[t, inv[None, :]]        # (x y x^-1) y^-1
    return closure(group, np.unique(comms))


def abelianization(group: FiniteGroup) -> Abelianization:
    comm = commutator_subgroup(group)
    n_idx = np.array(comm.indices(), dtype=np.int64)
    cosets = group.mul_table[:, n_idx]
    rep_of = cosets.min(axis=1)
    reps = np.unique(rep_of)
    parr = np.searchsorted(reps, rep_of)
    proj = tuple(int(i) for i in parr)
    q_mul = parr[group.mul_table[np.ix_(reps, reps)]].astype(np.int32)
    labels = [group.labels[int(r)] for r in reps]
    # projection must be a homomorphism with kernel = commutator subgroup
    if not np.array_equal(parr[group.mul_table], q_mul[parr[:, None], parr[None, :]]):
        raise GroupValidationError("abelianization projection is not a homomorphism")
    kernel = np.flatnonzero(parr == proj[group.identity])
    if set(int(k) for k in kernel) != set(comm.indices()):
        raise GroupValidationError("abelianization kernel differs from commutator subgroup")
    # so, being onto, it carries the group axioms to q_mul: no table validation
    q_inv = parr[group.inv_table[reps]].astype(np.int32)
    q_mul.setflags(write=False)
    q_inv.setflags(write=False)
    quotient = FiniteGroup(q_mul, q_inv, proj[group.identity], tuple(labels), f"{group.name}_ab")
    return Abelianization(comm, quotient, proj, tuple(int(r) for r in reps))


def enumerate_subgroups(group: FiniteGroup,
                        max_order_cap: int = SUBGROUP_CAP_DEFAULT) -> tuple[Subgroup, ...]:
    """All subgroups: cyclic seeds closed under pairwise join, to a fixpoint."""
    if group.order > max_order_cap:
        raise CapExceededError(
            f"subgroup enumeration refused at order {group.order} > cap {max_order_cap}; "
            "pass a larger max_order_cap to override"
        )
    cached = group.__dict__.get("_subgroups")
    if cached is not None:
        return cached
    cyclics = sorted({closure(group, [g]).mask for g in range(group.order)})
    known = {1 << group.identity} | set(cyclics)
    queue = list(known)
    while queue:
        m = queue.pop()
        m_idx = _mask_indices(m)
        for c in cyclics:
            if c & ~m == 0:
                continue
            jm = closure(group, m_idx + _mask_indices(c)).mask
            if jm not in known:
                known.add(jm)
                queue.append(jm)
    ordered = sorted(known, key=lambda m: (m.bit_count(), _mask_indices(m)))
    out = tuple(
        Subgroup(GroupSubset(group, m), group.order // m.bit_count()) for m in ordered
    )
    group.__dict__["_subgroups"] = out
    return out


def _mask_indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def subgroup_view(group: FiniteGroup, elements: GroupSubset) -> SubgroupView:
    """Rebuild a subgroup as a standalone group with maps to the parent indices."""
    idx = list(elements.indices())
    pos = {e: i for i, e in enumerate(idx)}
    if group.identity not in pos:
        raise GroupValidationError("subgroup view: identity missing")
    k = len(idx)
    sub_mul = np.zeros((k, k), dtype=np.int64)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            p = group.mul(a, b)
            if p not in pos:
                raise GroupValidationError(
                    f"subgroup view: not closed, {group.labels[a]}*{group.labels[b]} escapes"
                )
            sub_mul[i, j] = pos[p]
    labels = [group.labels[e] for e in idx]
    sub = _finish(sub_mul, labels, f"{group.name}|sub{k}")
    return SubgroupView(group, sub, tuple(idx), pos)
