"""Finite groups as multiplication tables over 0-based indices, and set arithmetic.

Every table is proved a group's: the cyclic, dihedral, quaternion, Heisenberg,
permutation and table constructors prove theirs (`_validate_table`), and a
direct product, a quotient and a subgroup view are groups by the structure
they are built from, so their tables are not proved again."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .errors import CapExceededError, GroupValidationError

SUBGROUP_ORDER_CAP = 128    # also the cap of every monomiality search
PERMUTATION_CLOSURE_CAP = 4096
# bytes of the dense int32 table a constructor may build: order <= 23170
TABLE_BYTES_CAP = 1 << 31
# from_indices ORs fewer indices into an int, more by a numpy scatter: the OR
# takes 0.2 against 5 us at one index, 28 against 6 us at 255 (2 vCPU Xeon)
OR_BUILD_LIMIT = 64
# entries per numpy block in table checks, table builds and power chain steps:
# blocks of 2^16 stay in cache (2^22 took five times as long at order 4096)
CHUNK = 1 << 16

T = TypeVar("T")
B = TypeVar("B", bound="BitSet")
Index = int | np.ndarray | slice      # an element, an array of them, or slice(None)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Immutable finite group; the multiplication table defines it. A direct
    product keeps its factors, whose structure decides some of its properties."""

    mul_table: np.ndarray
    inv_table: np.ndarray
    identity: int
    labels: tuple[str, ...]
    name: str = "group"
    factors: tuple[FiniteGroup, ...] = ()

    @property
    def order(self) -> int:
        return len(self.labels)

    def mul(self, a: Index, b: Index) -> int | np.ndarray:
        """a*b: an int for two ints, else an array indexed as numpy indexes the
        table: index arrays broadcast, and slice(None) is every element on an
        axis of its own. Outside this module, the only reader of products."""
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.size * b.size > 1024:
            # one flat gather: twice as fast as a 2-D one at 10^4 products, as fast
            # at about 10^3 and slower below (no caller passes an index < 0)
            out = self.mul_table.reshape(-1).take(a * np.intp(self.order) + b)
        else:
            out = self.mul_table[a, b]
        return out if isinstance(out, np.ndarray) else int(out)

    def inv(self, a: Index) -> int | np.ndarray:
        """a^-1, an int for an int and elementwise over an index array."""
        out = self.inv_table[a]
        return out if isinstance(out, np.ndarray) else int(out)

    def conj(self, g: Index, x: Index) -> int | np.ndarray:
        """g x g^-1, broadcast as `mul`."""
        return self.mul(self.mul(g, x), self.inv(g))

    def cached(self, name: str, build: Callable[[], T], key: Hashable = None) -> T:
        """build(), run once per group (or per key) and kept in the group's
        __dict__ under `name` (a dict by key). `build` is not kept, and the
        value must not refer back to the group: then no reference cycle keeps
        a dropped group alive until the cyclic garbage collector runs."""
        store = self.__dict__
        if key is not None:
            store, name = store.setdefault(name, {}), key
        if name not in store:
            store[name] = build()
        return store[name]

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, and so every two elements."""
        s = np.array(self.generators, dtype=np.int64)
        block = self.mul(s[:, None], s)
        return bool(np.array_equal(block, block.T))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """At most log2 n elements that generate the group: `_generating_set`.
        `_finish` seeds it with the set its Light's test ran on; a product, a
        quotient or a subgroup view runs the search on first read."""
        return tuple(_generating_set(self.mul_table, self.identity))

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """For p^a exactly dividing n, the p-part of the order of x is the
        order of y = x^(n / p^a), the least p^k with y^(p^k) = 1."""
        n = self.order
        orders = np.ones(n, dtype=np.int64)
        for p in (d for d in range(2, n + 1) if n % d == 0 and _prime_base(d) == d):
            # p^a is gcd(n, p^b) for any p^b > n
            y = _power(self, np.arange(n), n // math.gcd(n, p ** n.bit_length()))
            while (moved := y != self.identity).any():
                orders[moved] *= p
                y = _power(self, y, p)
        return tuple(orders.tolist())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _power(group: FiniteGroup, x: np.ndarray, m: int) -> np.ndarray:
    """x^m elementwise over an index array, by binary exponentiation."""
    out = np.full(len(x), group.identity)
    while m:
        if m & 1:
            out = group.mul(out, x)
        x, m = group.mul(x, x), m >> 1
    return out


def _bool_mask(bits: np.ndarray) -> int:
    """The bitmask with bit i set where the bool array `bits` is True."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _index_mask(indices: np.ndarray, n: int) -> int:
    """The bitmask with bit i set for each i in `indices`, all in 0..n-1."""
    bits = np.zeros(n, dtype=bool)
    bits[indices] = True
    return _bool_mask(bits)


@dataclass(frozen=True)
class BitSet:
    """Set of indices stored as a bitmask, bit i for index i. Each kind of set
    is a subclass that gives `_size(group)`, the number of indices, and the
    error text `_out_of_range`; two sets combine only if of one kind over one
    group."""

    group: FiniteGroup
    mask: int

    @classmethod
    def from_indices(cls: type[B], group: FiniteGroup, indices: Iterable[int]) -> B:
        """The set of `indices`, deduplicated; each must lie in 0..size-1."""
        n = cls._size(group)
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        if len(indices) < OR_BUILD_LIMIT:
            mask = 0
            for i in map(int, indices):
                if not 0 <= i < n:
                    raise ValueError(cls._out_of_range.format(i=i, n=n))
                mask |= 1 << i
            return cls(group, mask)
        idx = np.asarray(indices, dtype=np.int64)
        outside = idx[(idx < 0) | (idx >= n)]
        if outside.size:
            raise ValueError(cls._out_of_range.format(i=int(outside[0]), n=n))
        return cls(group, _index_mask(idx, n))

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

    def array(self) -> np.ndarray:
        """The indices ascending, as int64; a large set is unpacked by numpy."""
        if len(self) < OR_BUILD_LIMIT:
            return np.fromiter(self, dtype=np.int64, count=len(self))
        raw = self.mask.to_bytes((self.mask.bit_length() + 7) // 8, "little")
        return np.flatnonzero(np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little"))

    def indices(self) -> tuple[int, ...]:
        return tuple(self) if len(self) < OR_BUILD_LIMIT else tuple(self.array().tolist())

    def __or__(self: B, other: B) -> B:
        self._check_same(other)
        return type(self)(self.group, self.mask | other.mask)

    def __and__(self: B, other: B) -> B:
        self._check_same(other)
        return type(self)(self.group, self.mask & other.mask)

    def is_subset_of(self: B, other: B) -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def _check_same(self: B, other: B) -> None:
        if type(self) is not type(other):
            raise ValueError(f"cannot combine a {type(self).__name__} "
                             f"with a {type(other).__name__}")
        if self.group is not other.group:
            raise ValueError("subsets belong to different groups")


class GroupSubset(BitSet):
    """Subset of a group's elements: bit i is element i."""

    _out_of_range = "element index {i} out of range for order {n}"

    @staticmethod
    def _size(group: FiniteGroup) -> int:
        return group.order

    @classmethod
    def full(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def identity_only(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, 1 << group.identity)

    def inverse(self) -> "GroupSubset":
        return GroupSubset(self.group, _index_mask(self.group.inv(self.array()), self.group.order))

    def __repr__(self) -> str:
        return f"GroupSubset(n={len(self)} of {self.group.name})"


@dataclass(frozen=True, eq=False)
class ConjugacyPartition:
    class_of: np.ndarray        # read-only int64, the class number of each element

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Each class ascending, in class number order; built on first read."""
        order = np.argsort(self.class_of, kind="stable").tolist()
        bounds = np.cumsum(np.bincount(self.class_of)).tolist()
        return tuple(tuple(order[i:j]) for i, j in zip([0] + bounds, bounds))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)


class Subgroup(NamedTuple):
    elements: GroupSubset
    index_in_parent: int

    def __len__(self) -> int:
        return len(self.elements)


class SubgroupView(NamedTuple):
    """A subgroup rebuilt as a standalone group, with index maps to the parent."""

    parent: FiniteGroup
    group: FiniteGroup
    to_parent: tuple[int, ...]
    from_parent: dict


class CosetProjection(NamedTuple):
    """G -> G/N with no coset table, as read-only index arrays: `projection[x]`
    is the coset of x, and `section[c]` the least element of coset c, ascending.
    It holds no group, so a group may keep one without a reference cycle."""

    projection: np.ndarray
    section: np.ndarray


class Quotient(NamedTuple):
    """G/N with the projection G -> G/N and the least element of each coset."""

    kernel: GroupSubset
    quotient: FiniteGroup
    projection: tuple[int, ...]
    section: tuple[int, ...]


# ---------------------------------------------------------------------------
# table validation


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of 0..n-1, each as many rows (or columns) of an
    n x n table as hold about CHUNK entries, at least one."""
    step = max(1, CHUNK // n)
    return [slice(i, i + step) for i in range(0, n, step)]


def _generating_set(mul: np.ndarray, identity: int) -> Iterator[int]:
    """Elements s1, s2, ... whose words ((s1*s2)*s3)... from the identity reach
    every element: a search by right multiplication that yields the least
    unreached element whenever it stalls, and goes on only when the next one is
    asked for. What a stalled search has reached does not depend on the order of
    the search. If each s yielded so far passes Light's test and every row holds
    the identity, the reached set is a subgroup, which each new s at least
    doubles; so a caller that tests each s before asking for the next pulls at
    most floor(log2 n) + 1 of them from any table."""
    reached = [False] * mul.shape[0]
    reached[identity] = True
    columns, todo = [], [identity]
    while True:
        while todo:
            x = todo.pop()
            for col in columns:
                if not reached[col[x]]:
                    reached[col[x]] = True
                    todo.append(col[x])
        if all(reached):
            return
        s = reached.index(False)
        yield s
        columns.append(mul[:, s].tolist())
        todo = [x for x, hit in enumerate(reached) if hit]   # every word times the new one


def _validate_table(mul: np.ndarray, name: str
                    ) -> tuple[int, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Prove the table a group's; return (identity, inv_table, the int32 table
    proved, the generating set `_generating_set` yields, on which Light's test
    ran) or raise with a witness. The checks are shape and range, a
    two-sided identity e, an r with x*r = e in every row x, and associativity
    by Light's test. A table that passes them is a group's: for x*r = e take r'
    with r*r' = e, and then r*x = (r*x)*(r*r') = r*((x*r)*r') = r*r' = e. A
    group's table is a Latin square, so no row or column needs checking for one."""
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise GroupValidationError(f"{name}: multiplication table must be square")
    n = mul.shape[0]
    if n == 0:
        raise GroupValidationError(f"{name}: empty table")
    # on the array as given, so that no entry wraps round in the int32 cast
    if mul.min() < 0 or mul.max() >= n:
        bad = np.argwhere((mul < 0) | (mul >= n))[0]
        raise GroupValidationError(
            f"{name}: entry at ({bad[0]},{bad[1]}) is outside 0..{n - 1}"
        )
    mul = np.ascontiguousarray(mul, dtype=np.int32)

    # a two-sided identity e has e*0 = 0, so it is the one 0 in column 0
    zeros = np.flatnonzero(mul[:, 0] == 0)
    if zeros.size != 1:
        raise GroupValidationError(f"{name}: column 0 is not a permutation (not a Latin square)")
    identity = int(zeros[0])
    want = np.arange(n)
    if not (np.array_equal(mul[identity], want) and np.array_equal(mul[:, identity], want)):
        raise GroupValidationError(f"{name}: no two-sided identity element")
    inv = np.concatenate([np.argmax(mul[rows] == identity, axis=1)
                          for rows in _blocks(n)]).astype(mul.dtype)
    missing = mul[want, inv] != identity
    if missing.any():
        raise GroupValidationError(
            f"{name}: row {int(np.argmax(missing))} is not a permutation (not a Latin square)")

    # Light's test: the a with (x*a)*y = x*(a*y) for all x, y are closed under
    # products and include the identity, so checking a generating set suffices;
    # each s is checked before the search for the next one goes on
    gens = []
    for s in _generating_set(mul, identity):
        for rows in _blocks(n):
            lhs = mul[mul[rows, s]]                      # (x s) y
            rhs = np.take(mul[rows], mul[s], axis=1)     # x (s y)
            if not np.array_equal(lhs, rhs):
                x, y = np.argwhere(lhs != rhs)[0]
                raise GroupValidationError(
                    f"{name}: associativity fails at ({rows.start + int(x)},{s},{int(y)}): "
                    f"(x*y)*z={int(lhs[x, y])} but x*(y*z)={int(rhs[x, y])}"
                )
        gens.append(s)
    return identity, inv, mul, tuple(gens)


def _finish(mul: np.ndarray, labels: Sequence[str], name: str) -> FiniteGroup:
    identity, inv, mul, gens = _validate_table(mul, name)
    if len(labels) != len(inv):
        raise GroupValidationError(f"{name}: {len(labels)} labels for {len(inv)} elements")
    mul.setflags(write=False)
    inv.setflags(write=False)
    group = FiniteGroup(mul, inv, identity, tuple(labels), name)
    group.cached("generators", lambda: gens)     # the search Light's test just ran
    return group


# ---------------------------------------------------------------------------
# constructors


def _check_table_bytes(n: int, name: str) -> None:
    if 4 * n * n > TABLE_BYTES_CAP:     # before any array of n entries is built
        raise CapExceededError(f"{name}: the table of order {n} needs {4 * n * n} bytes, "
                               f"beyond the cap of {TABLE_BYTES_CAP}")


def _blocked_table(n: int, rows: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The n x n int32 table whose rows x are rows(x), written a block of rows
    at a time so that no n x n temporary is built."""
    mul = np.empty((n, n), dtype=np.int32)
    for block in _blocks(n):
        mul[block] = rows(np.arange(n)[block])
    return mul


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupValidationError("cyclic: n must be >= 1")
    _check_table_bytes(n, f"cyclic({n})")
    # row x is x, x+1, ..., x-1: a window sliding over 0..n-1 twice, copied once
    idx = np.arange(n, dtype=np.int32)
    mul = np.lib.stride_tricks.sliding_window_view(np.concatenate([idx, idx]), n)[:n].copy()
    return _finish(mul, [str(k) for k in range(n)], f"cyclic({n})")


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group given by its order 2n (rotations first, then reflections)."""
    if order < 2 or order % 2:
        raise GroupValidationError("dihedral: order must be even and >= 2")
    _check_table_bytes(order, f"dihedral({order})")
    n = order // 2
    y = np.arange(order)
    flips, sign = y // n, 1 - 2 * (y // n)
    # r^a r^b = r^{a+b}, r^a (s r^b) = s r^{b-a}, (s r^a) r^b = s r^{a+b} and
    # (s r^a)(s r^b) = r^{b-a}: the reflection bits add, and a right factor
    # that is a reflection negates the left factor's exponent
    mul = _blocked_table(order, lambda x: n * ((x // n)[:, None] ^ flips)
                         + ((x % n)[:, None] * sign + y % n) % n)
    labels = [f"r{a}" for a in range(n)] + [f"sr{a}" for a in range(n)]
    return _finish(mul, labels, f"dihedral({order})")


def quaternion_group() -> FiniteGroup:
    # elements 1,-1,i,-i,j,-j,k,-k encoded as (unit u, sign s) -> index 2u+s; the
    # units 1,i,j,k multiply as u XOR v, with a sign flip where flip[u, v] is 1
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    u, s = (v[:, None] for v in divmod(np.arange(8), 2))
    mul = 2 * (u ^ u.T) + (s + s.T + flip[u, u.T]) % 2
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return _finish(mul, labels, "quaternion8")


def heisenberg_group(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z_p; element (a,b,c) has index a*p^2+b*p+c."""
    if p < 2:
        raise GroupValidationError("heisenberg: p must be >= 2")
    _check_table_bytes(p ** 3, f"heisenberg({p})")
    i = np.arange(p ** 3)
    a, b, c = i // (p * p), i // p % p, i % p

    def rows(x):    # (a,b,c)(a2,b2,c2) = (a+a2, b+b2, c+c2+a*b2)
        xa, xb, xc = a[x, None], b[x, None], c[x, None]
        return ((xa + a) % p * p + (xb + b) % p) * p + (xc + c + xa * b) % p
    mul = _blocked_table(p ** 3, rows)
    labels = [f"({a},{b},{c})" for a in range(p) for b in range(p) for c in range(p)]
    return _finish(mul, labels, f"heisenberg({p})")


def product_group(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """The direct product, each element at the mixed-radix number of its
    digits, the first factor most significant. The table is not proved
    (`_finish` is not called): a direct product of groups is a group, with the
    identity and the inverses read digit by digit from the factors', and
    associativity holding digit by digit. The group keeps its factors."""
    if not factors:
        raise GroupValidationError("product: needs at least one factor")
    factors = tuple(factors)
    orders = [g.order for g in factors]
    n = math.prod(orders)
    name = "x".join(g.name for g in factors)
    _check_table_bytes(n, f"product({name})")
    # fold in the factors from the last: with T the table of the later ones,
    # of order m, x = a m + u times y = b m + v is f[a, b] m + T[u, v], so each
    # row block a of the new table is one broadcast add of f's row a and T
    last = factors[-1]
    mul, inv, identity = last.mul_table, last.inv_table, last.identity
    for f in reversed(factors[:-1]):
        m, k = len(inv), f.order
        out = np.empty((k * m, k * m), dtype=np.int32)
        for a in range(k):
            np.add(mul[:, None, :], (m * f.mul_table[a])[:, None],
                   out=out[a * m:(a + 1) * m].reshape(m, k, m))
        mul, inv = out, ((m * f.inv_table)[:, None] + inv).ravel()
        identity += f.identity * m
    mul.setflags(write=False)
    inv.setflags(write=False)
    digits = np.unravel_index(np.arange(n), orders)
    labels = tuple("(" + ",".join(g.labels[t] for g, t in zip(factors, tup)) + ")"
                   for tup in zip(*(d.tolist() for d in digits)))
    return FiniteGroup(mul, inv, identity, labels, f"product({name})", factors)


def permutation_group(degree: int, generators: Sequence[Sequence[int]]) -> FiniteGroup:
    if degree < 1:
        raise GroupValidationError("permutation: degree must be >= 1")
    gens = []
    for k, g in enumerate(generators):
        g = tuple(g)
        if (len(g) != degree or not all(map(_is_integer, g))
                or sorted(map(int, g)) != list(range(degree))):
            raise GroupValidationError(
                f"permutation: generator {k} is not a permutation of 0..{degree - 1}"
            )
        gens.append(tuple(map(int, g)))

    def compose(p, q):
        # apply q first, then p
        return tuple(p[q[i]] for i in range(degree))

    # breadth-first, so that each element is its parent times one generator
    ident = tuple(range(degree))
    index_of = {ident: 0}
    elems, parent, via = [ident], [0], [0]
    for i, cur in enumerate(elems):     # elems grows while it is read
        for k, g in enumerate(gens):
            w = compose(cur, g)
            if w not in index_of:
                if len(elems) >= PERMUTATION_CLOSURE_CAP:
                    raise CapExceededError(
                        f"permutation closure exceeds {PERMUTATION_CLOSURE_CAP} elements"
                    )
                index_of[w] = len(elems)
                elems.append(w)
                parent.append(i)
                via.append(k)
    n = len(elems)
    # left[k][y] is the index of generator k times element y, and (p g) * y =
    # p * (g y): row j is its parent's row read at left[via[j]], so the int32
    # table is written row by row, with no n x n temporary
    left = np.array([[index_of[compose(g, y)] for y in elems] for g in gens], dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    mul[0] = np.arange(n)
    for j in range(1, n):
        mul[j] = mul[parent[j]][left[via[j]]]
    labels = ["(" + " ".join(map(str, p)) + ")" for p in elems]
    return _finish(mul, labels, f"perm(deg {degree})")


def _is_integer(value) -> bool:
    """Whether a value is an integer as JSON Schema reads one: an int, or a
    float with no fractional part such as 2.0; a bool is not."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def table_group(mul: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None,
                name: str = "table") -> FiniteGroup:
    try:
        arr = np.asarray(mul)
    except ValueError as exc:
        raise GroupValidationError(
            f"{name}: multiplication table rows must be lists of integers of one length") from exc
    # numpy reads [[0, 1], [1, False]] as integers, so a list's entry types are read too
    if arr.ndim == 2 and (arr.dtype.kind not in "iu" or not isinstance(mul, np.ndarray)
                          and {bool, np.bool_} & set(map(type, itertools.chain(*mul)))):
        whole = np.frompyfunc(_is_integer, 1, 1)(np.array(mul, dtype=object)).astype(bool)
        if not whole.all():
            bad = np.argwhere(~whole)[0]
            raise GroupValidationError(f"{name}: entry at ({bad[0]},{bad[1]}) is not an integer")
    if labels is None:
        labels = [str(i) for i in range(len(arr))] if arr.ndim else []
    return _finish(arr, labels, name)


def _spec_integer(spec: dict, key: str) -> int:
    value = spec[key]
    if not _is_integer(value):
        raise GroupValidationError(f"{spec['type']}: {key} must be an integer, not {value!r}")
    return int(value)


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a declarative spec dict (see the JSON interface)."""
    return _planned(spec)[1]()


def _planned(spec: dict) -> tuple[int, Callable[[], FiniteGroup]]:
    """The order of a spec's group and a call that builds it. Arithmetic groups
    are read from their parameters and a product from its factors, so that a
    product over the table budget is refused before any factor is built;
    permutation groups (bounded by their closure cap) and tables are built here."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise GroupValidationError("group spec must be an object with a 'type' field")
    kind = spec["type"]
    arithmetic = {"cyclic": ("n", cyclic_group, 1), "dihedral": ("order", dihedral_group, 1),
                  "heisenberg": ("p", heisenberg_group, 3)}
    if kind in arithmetic:
        key, build, power = arithmetic[kind]
        value = _spec_integer(spec, key)
        return value ** power, lambda: build(value)
    if kind == "product":
        plans = [_planned(s) for s in spec["factors"]]
        order = math.prod(n for n, _ in plans)
        if all(n > 0 for n, _ in plans):    # else a factor is refused when it is built
            _check_table_bytes(order, "product")
        return order, lambda: product_group([build() for _, build in plans])
    if kind == "quaternion8":
        group = quaternion_group()
    elif kind == "permutation":
        group = permutation_group(_spec_integer(spec, "degree"), spec["generators"])
    elif kind == "table":
        group = table_group(spec["mul"], spec.get("labels"))
    else:
        raise GroupValidationError(f"unknown group spec type {kind!r}")
    return group.order, lambda: group


# ---------------------------------------------------------------------------
# set arithmetic


def product_set(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    if a.group is not b.group:
        raise ValueError("product_set: operands live in different groups")
    prods = a.group.mul(a.array()[:, None], b.array())
    return GroupSubset(a.group, _index_mask(prods, a.group.order))


class PowerChain:
    """The powers A^0, A^1, ... of one set, built lazily up to the first
    repeat; from there on A^n cycles with `period` from `start`.

    With the identity in A, A^k is the ball of radius k in the word metric of
    A: `dist` holds each element's word length (-1 while unreached), `order`
    the reached elements level by level and `sizes[k]` = |A^k|, and one step
    grows many levels (`_ball_step`). Without it the chain keeps A^n as
    bitmasks, one product per level. A power A^n of a set with the identity
    walks no chain of its own: `strided` reads this one at stride n.

    It holds the multiplication table and integers, never the group, so the
    group can cache it without a reference cycle."""

    def __init__(self, mul_table: np.ndarray, identity: int, a: np.ndarray):
        self._mul = mul_table
        self._a = a
        self.start: Optional[int] = None
        self.period: Optional[int] = None
        self.dist: Optional[np.ndarray] = None
        if identity in a:
            rest = a[a != identity]
            self.dist = np.full(len(mul_table), -1, dtype=np.int64)
            self.dist[identity], self.dist[rest] = 0, 1
            self.order = np.empty(len(mul_table), dtype=np.int64)
            self.order[0], self.order[1:len(a)] = identity, rest
            self.sizes = [1, len(a)]
            if not rest.size:
                self.start, self.period = 0, 1
        else:
            self._masks = [1 << identity]
            self._first_seen = {self._masks[0]: 0}
            self._last = np.array([identity])

    def _extend(self) -> bool:
        """Grow the chain by one step; False once the cycle is known."""
        if self.period is not None:
            return False
        return self._product_step() if self.dist is None else self._ball_step()

    def _product_step(self) -> bool:
        self._last = np.unique(self._mul[np.ix_(self._last, self._a)])
        mask = _index_mask(self._last, len(self._mul))
        n = len(self._masks)
        first = self._first_seen.setdefault(mask, n)
        if first < n:
            self.start, self.period = first, n - first
            self._first_seen = self._last = None
            return False
        self._masks.append(mask)
        return True

    def _ball_step(self) -> bool:
        """Levels k+1 .. k+m from level k, F, and the ball B = A^m, for the
        largest m <= k with |F| |B| <= CHUNK (at least 1): a geodesic word for
        y with k < |y| <= k + m splits as x*b with |x| = k and |b| = |y| - k,
        and every x*b has |x*b| <= k + |b|, so the first time an unreached y
        turns up among the products, in order of |b|, gives |y|."""
        sizes, k = self.sizes, len(self.sizes) - 1
        f = self.order[sizes[k - 1]:sizes[k]]
        m = max(1, bisect_right(sizes, CHUNK // len(f), 0, k + 1) - 1)
        b = self.order[:sizes[m]]
        prods = self._mul[f, b[:, None]].ravel()     # row j holds the x*b_j
        fresh = np.flatnonzero(self.dist[prods] < 0)
        pos = np.full(len(self._mul), len(prods))    # each y's first position
        np.minimum.at(pos, prods[fresh], fresh)
        first = np.sort(pos[pos < len(prods)])
        ys, levels = prods[first], k + self.dist[b[first // len(f)]]
        self.dist[ys] = levels
        self.order[sizes[k]:sizes[k] + len(ys)] = ys
        counts = np.bincount(levels - k - 1, minlength=m)
        sizes.extend((sizes[k] + np.cumsum(counts[counts > 0])).tolist())
        if counts.all():
            return True
        self.start, self.period = len(sizes) - 1, 1
        return False

    def mask(self, n: int) -> int:
        """The bitmask of A^n, n >= 0."""
        if self.dist is not None:
            return _index_mask(self.order[:self.size(n)], len(self._mul))
        while len(self._masks) <= n and self._extend():
            pass
        if n >= len(self._masks):
            n = self.start + (n - self.start) % self.period
        return self._masks[n]

    def size(self, n: int) -> int:
        """|A^n|, n >= 0."""
        if self.dist is None:
            return self.mask(n).bit_count()
        while len(self.sizes) <= n and self._extend():
            pass
        return self.sizes[min(n, len(self.sizes) - 1)]

    def cycle(self) -> tuple[int, int]:
        """(start, period): A^{n + period} = A^n exactly when n >= start."""
        while self._extend():
            pass
        return self.start, self.period

    def strided(self, n: int) -> StridedChain:
        """The chain of A^n read off this one; A must hold the identity."""
        return StridedChain(self, n)


class StridedChain:
    """The power chain of B = A^n, for an A that holds the identity, read off
    A's chain at stride n: B^k = A^{nk}, so |B^k| and B^k are A's at radius nk,
    B saturates at ceil(start_A / n) with period 1, and an element's word length
    in B is the ceiling of its length in A over n (-1 outside <A>). A's chain
    grows only as far as the reads reach; no chain is walked for B."""

    def __init__(self, base: PowerChain, stride: int):
        self._base, self._stride = base, stride

    def strided(self, n: int) -> StridedChain:
        """(A^m)^n = A^{mn}: strides compose on the one walked chain."""
        return StridedChain(self._base, self._stride * n)

    def mask(self, n: int) -> int:
        return self._base.mask(self._stride * n)

    def size(self, n: int) -> int:
        return self._base.size(self._stride * n)

    @property
    def start(self) -> Optional[int]:
        start = self._base.start
        return None if start is None else -(-start // self._stride)

    @property
    def period(self) -> Optional[int]:
        return self._base.period

    @property
    def dist(self) -> np.ndarray:
        d = self._base.dist
        return np.where(d < 0, -1, -(-d // self._stride))

    def cycle(self) -> tuple[int, int]:
        self._base.cycle()
        return self.start, self.period


def power_chain(a: GroupSubset) -> PowerChain | StridedChain:
    """The power chain of A, cached per set on its group: a walked chain, or
    the chain of a set A^n with 1 in A that `setops.power_set` left as A's
    read at stride n."""
    return a.group.cached("_power_chains", lambda: PowerChain(
        a.group.mul_table, a.group.identity, a.array()), a.mask)


def conjugates(a: GroupSubset) -> GroupSubset:
    """The union of the conjugacy classes that meet A."""
    cls = conjugacy_classes(a.group).class_of
    met = np.bincount(cls[a.array()], minlength=cls.max() + 1)
    return GroupSubset(a.group, _bool_mask(met[cls] > 0))


def conjugation_escape(a: GroupSubset) -> Optional[int]:
    """The least member of A with a conjugate outside A, or None when A is a
    union of conjugacy classes: the classes A meets but does not fill."""
    cls = conjugacy_classes(a.group).class_of
    members = a.array()
    sizes = np.bincount(cls)
    short = np.bincount(cls[members], minlength=len(sizes)) < sizes
    escaped = members[short[cls[members]]]
    return int(escaped[0]) if escaped.size else None


def normality_witness(a: GroupSubset) -> Optional[int]:
    """The least x with xA != Ax, or None when A is normal; both routes must
    agree. The x with xA = Ax are a subgroup N (xyA = xAy = Axy), and each
    generator is the least element outside the subgroup of the earlier ones:
    so the first generator outside N is the least x outside N."""
    g, arr = a.group, a.array()
    # route one: row s holds sA and As, sorted
    s = np.array(g.generators, dtype=np.int64)
    left = np.sort(g.mul(s[:, None], arr), axis=1)
    right = np.sort(g.mul(arr, s[:, None]), axis=1)
    moved = s[(left != right).any(axis=1)]
    # route two: union of conjugacy classes
    if (not moved.size) != (conjugation_escape(a) is None):
        raise AssertionError("normality checks disagree; class partition corrupt")
    return int(moved[0]) if moved.size else None


# ---------------------------------------------------------------------------
# structure


def conjugacy_classes(group: FiniteGroup) -> ConjugacyPartition:
    """The classes, the identity's first and then by least element, each
    ascending: the orbits of x -> s x s^-1 for s in a generating set. Each
    element is labelled with the least element it reaches, by a minimum along
    each permutation and a pointer jump per round; labels only fall and stay in
    their orbit, so at the fixpoint each is the least element of its class."""
    return group.cached("_conjugacy", lambda: _class_partition(group))


def _class_partition(group: FiniteGroup) -> ConjugacyPartition:
    n = group.order
    perms = [group.conj(s, slice(None)) for s in group.generators]
    label, before = np.arange(n), None
    while not np.array_equal(label, before):
        before = label
        for p in perms:
            label = np.minimum(label, label[p])
        label = label[label]
    key = np.where(label == label[group.identity], -1, label)
    order = np.argsort(key, kind="stable")
    starts = np.r_[True, np.diff(key[order]) != 0]
    class_of = (np.cumsum(starts) - 1)[np.argsort(order)]
    class_of.setflags(write=False)
    return ConjugacyPartition(class_of)


def closure(group: FiniteGroup, seeds: Iterable[int]) -> GroupSubset:
    """Subgroup generated by the seed elements: in a finite group the words in
    the seeds and the identity, so the limit of their power chain."""
    n = group.order
    idx = seeds if isinstance(seeds, np.ndarray) else np.array(list(seeds), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("seed element out of range")
    chain = power_chain(GroupSubset(group, _index_mask(idx, n) | 1 << group.identity))
    return GroupSubset(group, chain.mask(chain.cycle()[0]))


def commutator_subgroup(group: FiniteGroup) -> GroupSubset:
    """The subgroup N generated by the conjugates of the [s, t] for s, t in a
    generating set: N is normal and inside [G, G], and G/N is abelian. For an
    abelian G every [s, t] is 1, so N = {1} without a closure."""
    if group.is_abelian:
        return GroupSubset.identity_only(group)
    s = np.array(group.generators, dtype=np.int64)
    comms = group.mul(group.conj(s[:, None], s), group.inv(s))     # s t s^-1 t^-1
    seeds = conjugates(GroupSubset(group, _index_mask(comms.ravel(), group.order)))
    return closure(group, seeds.indices())


def coset_projection(group: FiniteGroup, normal: GroupSubset) -> CosetProjection:
    """The projection p of G onto G/N for a normal subgroup N, with no coset
    table: each coset is named by its least element, and p(x) is the coset of
    x. Cosets multiply through their least elements, as p(min(aN) min(bN)).
    The fibres of p are the sets xN. p must have p(xs) = p(x)p(s) for every s
    in a generating set, and kernel N. Then right multiplication by G permutes
    the fibres, so the identity's fibre is a subgroup K whose right cosets Kg
    are the fibres. So K = N, the left cosets xN are the right ones, N is
    normal and p is a homomorphism onto G/N."""
    if normal.mask == 1 << group.identity:
        same = np.arange(group.order)
        same.setflags(write=False)
        return CosetProjection(same, same)
    rep_of = group.mul(slice(None), normal.array()).min(axis=1)
    section = np.unique(rep_of)
    proj = np.searchsorted(section, rep_of)
    for s in group.generators:
        lifts = group.mul(rep_of, rep_of[s])        # min(xN) min(sN)
        if not np.array_equal(proj[group.mul(slice(None), s)], proj[lifts]):
            raise GroupValidationError(f"{group.name}: quotient projection is not a homomorphism")
    if _bool_mask(proj == proj[group.identity]) != normal.mask:
        raise GroupValidationError(f"{group.name}: quotient kernel differs from the subgroup")
    proj.setflags(write=False)
    section.setflags(write=False)
    return CosetProjection(proj, section)


def quotient(group: FiniteGroup, normal: GroupSubset) -> Quotient:
    """G/N for a normal subgroup N, each coset named by its least element; G
    itself for N = {1}. It is `coset_projection` with the coset table on top.
    Being onto, the projection carries the group axioms to that table, so the
    table is not validated again."""
    if normal.mask == 1 << group.identity:
        same = tuple(range(group.order))
        return Quotient(normal, group, same, same)
    proj, section = coset_projection(group, normal)
    q_mul = proj[group.mul(section[:, None], section)].astype(np.int32)
    q_inv = proj[group.inv(section)].astype(np.int32)
    q_mul.setflags(write=False)
    q_inv.setflags(write=False)
    labels = tuple(group.labels[int(r)] for r in section)
    q = FiniteGroup(q_mul, q_inv, int(proj[group.identity]), labels,
                    f"{group.name}/{len(normal)}")
    return Quotient(normal, q, tuple(proj.tolist()), tuple(section.tolist()))


def abelianization(group: FiniteGroup) -> CosetProjection:
    """The projection of G onto G^ab = G/[G, G]."""
    return coset_projection(group, commutator_subgroup(group))


def _prime_base(k: int) -> int:
    """p if k is a power p^v (v >= 1) of a prime p, else 0."""
    if k < 2:
        return 0
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return p if k == 1 else 0


def _cyclic_bits(group: FiniteGroup) -> np.ndarray:
    """bits[x, y]: whether y is a power of x, from one table of powers."""
    n, elems = group.order, np.arange(group.order)
    bits = np.zeros((n, n), dtype=bool)
    power = np.full(n, group.identity)
    for _ in range(max(group.element_orders)):
        bits[elems, power] = True
        power = group.mul(power, elems)
    return bits


def is_supersolvable(group: FiniteGroup) -> bool:
    """Whether G has a normal series with cyclic factors. Two exact rungs come
    first, and again at each quotient: a group of prime-power order has (it
    is nilpotent, and a finite nilpotent group is supersolvable), and a direct
    product has exactly when each factor has (the factors' series, one after
    the other, are normal in the product, and each factor is a quotient of
    it). An abelian group has; otherwise G/<x> is tested for any x of prime
    order with <x> normal, and without one G has not: a minimal normal
    subgroup of a supersolvable group has prime order, and every quotient of
    one is supersolvable. The group caches the verdict as a bool, which never
    refers back to it."""
    return group.cached("_supersolvable", lambda: _supersolvable(group))


def _supersolvable(g: FiniteGroup) -> bool:
    while not _prime_base(g.order):
        if g.factors:
            return all(map(is_supersolvable, g.factors))
        if g.is_abelian:
            return True
        primes = (p for p in range(g.order, 1, -1) if g.order % p == 0 and _prime_base(p) == p)
        normal = next(filter(None, (_normal_cyclic(g, p) for p in primes)), None)
        if normal is None:
            return False
        g = quotient(g, normal).quotient
    return True


def _normal_cyclic(g: FiniteGroup, p: int) -> Optional[GroupSubset]:
    """<x> for an x of order p with <x> normal, or None: <x> is normal exactly
    when the class of x lies among x, ..., x^(p-1). So x is tried only if its
    class has under p members, central ones first, in blocks of CHUNK powers."""
    cls = conjugacy_classes(g).class_of
    sizes, every = np.bincount(cls)[cls], np.arange(g.order)
    xs = np.flatnonzero((_power(g, every, p) == g.identity) & (sizes < p) & (every != g.identity))
    xs = xs[np.argsort(sizes[xs], kind="stable")]
    for x in np.array_split(xs, max(1, len(xs) * p // CHUNK)):
        powers = [x]
        for _ in range(p - 2):
            powers.append(g.mul(powers[-1], x))
        block = np.stack(powers, axis=1)        # distinct powers: count those in the class
        fits = (cls[block] == cls[x][:, None]).sum(axis=1) == sizes[x]
        if fits.any():
            return GroupSubset(g, _index_mask(block[np.argmax(fits)], g.order) | 1 << g.identity)
    return None


def enumerate_subgroups(group: FiniteGroup,
                        max_order_cap: int = SUBGROUP_ORDER_CAP) -> tuple[Subgroup, ...]:
    """All subgroups, ordered by (size, indices): the cyclic subgroups of
    prime-power order closed under join with each other, to a fixpoint. The
    group caches the masks only."""
    if group.order > max_order_cap:
        raise CapExceededError(
            f"subgroup enumeration refused at order {group.order} > cap {max_order_cap}; "
            "pass a larger max_order_cap to override"
        )
    masks = group.cached("_subgroups", lambda: _subgroup_masks(group))
    return tuple(Subgroup(GroupSubset(group, m), group.order // m.bit_count()) for m in masks)


def _subgroup_masks(group: FiniteGroup) -> tuple[int, ...]:
    # <x> is the join of the cyclic subgroups of its prime-power parts
    orders, bits = group.element_orders, _cyclic_bits(group)
    cyclics = sorted({_bool_mask(bits[x])
                      for x in range(group.order) if _prime_base(orders[x])})
    known = {1 << group.identity} | set(cyclics)
    queue = list(cyclics)
    while queue:
        m = queue.pop()
        for c in cyclics:
            if c & ~m == 0 or m | c in known:   # a known subgroup is its own join
                continue
            jm = closure(group, GroupSubset(group, m | c).indices()).mask
            if jm not in known:
                known.add(jm)
                queue.append(jm)
    return tuple(sorted(known, key=lambda m: (m.bit_count(), GroupSubset(group, m).indices())))


def subgroup_view(group: FiniteGroup, elements: GroupSubset) -> SubgroupView:
    """Rebuild a subgroup as a standalone group with maps to the parent indices.
    Only closure is checked: a closed subset of a finite group is a subgroup,
    and the table inherits associativity. The view inherits the parent's cached
    lattice inside it, in the same order, since the index map is increasing."""
    if group.identity not in elements:
        raise GroupValidationError("subgroup view: identity missing")
    idx = elements.array()
    k = len(idx)
    pos = np.full(group.order, -1, dtype=np.int32)
    pos[idx] = np.arange(k)
    sub_mul = pos[group.mul(idx[:, None], idx)]
    if (sub_mul < 0).any():
        i, j = np.argwhere(sub_mul < 0)[0]
        raise GroupValidationError(
            f"subgroup view: not closed, {group.labels[idx[i]]}*{group.labels[idx[j]]} escapes"
        )
    sub_inv = pos[group.inv(idx)]
    sub_mul.setflags(write=False)
    sub_inv.setflags(write=False)
    labels = tuple(group.labels[e] for e in idx)
    sub = FiniteGroup(sub_mul, sub_inv, int(pos[group.identity]), labels, f"{group.name}|sub{k}")
    lattice = group.__dict__.get("_subgroups")
    if lattice is not None:
        sub.cached("_subgroups", lambda: tuple(_index_mask(pos[list(GroupSubset(group, m))], k)
                                               for m in lattice if m & ~elements.mask == 0))
    to_parent = tuple(idx.tolist())
    return SubgroupView(group, sub, to_parent, {e: i for i, e in enumerate(to_parent)})
