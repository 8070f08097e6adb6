"""Characters, class-function Fourier analysis, induction, and monomiality certificates.

No representation matrices are built anywhere: for class functions every Fourier
coefficient is the scalar mu = (E_x f(x) chi(x)) / d, so the spectral radius of the
transform at an irreducible is just |mu|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapExceededError, HypothesisRecord
from .groups import (
    SUBGROUP_ORDER_CAP,
    ConjugacyPartition,
    FiniteGroup,
    GroupSubset,
    SubgroupView,
    abelianization,
    conjugacy_classes,
    closure,
    enumerate_subgroups,
    is_supersolvable,
    product_set,
    subgroup_view,
)
from .setops import set_predicates

TABLE_ORDER_CAP = 256
_DIM_RESIDUAL = 1e-6
_ORTHO_TOL = 1e-8
_CLASS_TOL = 1e-9
_SPEC_RAD_TOL = 1e-9     # slack on a float spectral radius against a threshold
_EIG_GAP = 1e-10         # least relative gap between class-matrix eigenvalues
_EIG_RETRIES = 8


@dataclass(frozen=True, eq=False)
class ClassFunction:
    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.group.order,):
            raise ValueError("class function needs one value per group element")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def class_constancy_defect(self) -> float:
        """The largest distance of a value from its class representative's."""
        part = conjugacy_classes(self.group)
        reps = np.array(part.representatives())
        return float(np.abs(self.values - self.values[reps[part.class_of]]).max())

    def is_class_function(self) -> bool:
        return self.class_constancy_defect() <= _CLASS_TOL

    def is_hermitian(self) -> bool:
        inv = self.group.inv(slice(None))
        return bool(np.abs(self.values[inv] - np.conj(self.values)).max() <= _CLASS_TOL)


@dataclass(frozen=True)
class LinearCharacter:
    """Degree-one character number `index` of `linear_phases(group)`."""

    group: FiniteGroup
    index: int

    @property
    def row(self) -> np.ndarray:
        """Phase numerators over `exponent`, one per element."""
        return linear_phases(self.group).block([self.index])[0]

    @property
    def exponent(self) -> int:
        return linear_phases(self.group).exponent

    @cached_property
    def phases(self) -> tuple[Fraction, ...]:
        e = self.exponent
        return tuple(Fraction(p, e) for p in self.row.tolist())

    def as_values(self) -> np.ndarray:
        return np.exp(2j * np.pi * (self.row / self.exponent))

    def as_class_function(self) -> ClassFunction:
        return ClassFunction(self.group, self.as_values())

    @property
    def is_trivial(self) -> bool:
        return self.index == 0      # keys are sorted, so the zero key comes first

    def add(self, other: "LinearCharacter") -> "LinearCharacter":
        if self.group is not other.group:
            raise ValueError("characters live on different groups")
        return LinearCharacter(
            self.group, int(linear_phases(self.group).sums([self.index], [other.index])[0]))

    def negate(self) -> "LinearCharacter":
        return LinearCharacter(self.group, int(linear_phases(self.group).negations([self.index])[0]))

    def verify_homomorphism(self) -> None:
        g = self.group
        p, e = self.row, self.exponent
        if p[g.identity] != 0:
            raise AssertionError("linear character must vanish at the identity")
        elems = np.arange(g.order)
        bad = np.argwhere((p[:, None] + p) % e != p[g.mul(elems[:, None], elems)])
        if bad.size:
            x, y = map(int, bad[0])
            raise AssertionError(f"phase additivity fails at ({x},{y})")


class CharacterTable(NamedTuple):
    group: FiniteGroup
    partition: ConjugacyPartition
    characters: tuple[ClassFunction, ...]
    dims: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.characters)

    def class_values(self, i: int) -> np.ndarray:
        reps = self.partition.representatives()
        return self.characters[i].values[list(reps)]


class FourierScalar(NamedTuple):
    gamma: ClassFunction
    dim: int
    mu: complex

    @property
    def spec_rad(self) -> float:
        return abs(self.mu)


class MonomialCertificate(NamedTuple):
    char_index: int
    dim: int
    matched: bool
    subgroup: Optional[GroupSubset]
    linear: Optional[LinearCharacter]


class LinearityScanRow(NamedTuple):
    char_index: int
    dim: int
    spec_rad: float
    exceeds_threshold: bool


class LinearityScanReport(NamedTuple):
    hypotheses: tuple[HypothesisRecord, ...]
    threshold: Fraction
    rows: tuple[LinearityScanRow, ...]
    consistent: bool


# ---------------------------------------------------------------------------
# linear characters


@dataclass(frozen=True, eq=False)
class LinearPhases:
    """Lin(G) on coordinates: x is y_1^c_1 ... y_r^c_r in G^ab, y_j the image of
    gens[j], with c = coords[x], and character i has phase keys[i] . c over the
    exponent e of G^ab. Each gen is the least element outside the subgroup the
    earlier ones generate, so sorted keys are sorted phase tuples: key 0 is
    trivial; y_j^m_j, m_j = radices[j], is the first power of y_j inside the
    earlier ones' subgroup. Nothing here refers back to the group, so a dropped
    group is freed at once, not by the cyclic garbage collector."""

    keys: np.ndarray
    coords: np.ndarray
    exponent: int
    gens: tuple[int, ...]
    radices: np.ndarray
    _key_terms: np.ndarray = field(init=False, repr=False)      # r x |Lin|
    _coord_terms: np.ndarray = field(init=False, repr=False)    # r x |G| x 1
    _places: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a phase is sum_j keys[i, j] coords[x, j] mod e, every factor below e,
        # so each partial sum of the r products is at most r (e - 1)^2 and int32
        # holds it when that is below 2^31; a trivial G^ab gives one zero term
        e, r = self.exponent, self.keys.shape[1]
        dtype = np.int32 if r * (e - 1) ** 2 < 2 ** 31 else np.int64
        keys, coords = ((self.keys, self.coords) if r else
                        (np.zeros((len(self.keys), 1)), np.zeros((len(self.coords), 1))))
        for name, table in (("_key_terms", np.ascontiguousarray(keys.T, dtype)),
                            ("_coord_terms", np.ascontiguousarray(coords.T, dtype)[:, :, None]),
                            ("_places", len(self.keys) // self.radices.cumprod())):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def block(self, rows: Optional[Sequence[int]] = None,
              cols: Optional[Sequence[int]] = None) -> np.ndarray:
        """Phase numerators of characters `rows` at elements `cols`, each all
        when None: one int64 row per character, laid out column by column."""
        keys, coords = self._key_terms, self._coord_terms
        keys = keys if rows is None else keys[:, np.asarray(rows, dtype=np.int64)]
        coords = coords if cols is None else coords[:, np.asarray(cols, dtype=np.int64)]
        x = coords[0] * keys[0]             # x[c, i]: element c, character i
        for j in range(1, len(keys)):
            x += coords[j] * keys[j]
        x -= x // self.exponent * self.exponent     # numpy vectorizes int32 //, not %
        # int64 and transposed: the cos table gathers an int64 index faster, and
        # `FourierMagnitudes.estimates` are bit for bit those of this layout
        return x.astype(np.int64).T

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The index of each row of `keys` mod e, or KeyError. Key column j is
        c + t e/m_j, t < m_j, with c < e/m_j fixed by the earlier columns, so
        the index is the mixed-radix number of the digits t = key_j m_j // e."""
        keys = keys % self.exponent
        idx = (keys * self.radices // self.exponent) @ self._places
        miss = (self.keys[idx] != keys).any(axis=1)
        if miss.any():
            raise KeyError(f"no linear character has phases {keys[miss.argmax()].tolist()}")
        return idx

    def sums(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Rows of gamma_i + gamma_j for every i in a and j in b, a-major."""
        total = self.keys[list(a)][:, None, :] + self.keys[list(b)][None, :, :]
        return self.find(total.reshape(len(a) * len(b), self.keys.shape[1]))

    @cached_property
    def _negations(self) -> np.ndarray:
        """i -> the index of gamma_i^-1, whose key is -keys[i]: found once, on
        first use, since hand-made phases need not be closed under negation."""
        table = self.find(-self.keys)
        table.setflags(write=False)
        return table

    def negations(self, a: Sequence[int]) -> np.ndarray:
        """The index of gamma_i^-1 for every i in a."""
        return self._negations[np.asarray(a, dtype=np.int64)]


def linear_phases(group: FiniteGroup) -> LinearPhases:
    """Lin(G), pulled back from the abelianization, on coordinates (cached)."""
    return group.cached("_linear_phases", lambda: _linear_phases(group))


def _linear_phases(group: FiniteGroup) -> LinearPhases:
    ab = abelianization(group)
    proj, n = ab.projection, len(ab.section)

    # grow a subgroup chain of G^ab by the coset of y, the least element of G
    # whose coset lies outside it, and the powers y^0, ..., y^(m-1), y^m the
    # first whose coset is inside, with elems[i] = y_1^c_1 ... y_r^c_r for c =
    # coords[i]. The chain is walked in G and read through the projection, so
    # no coset table is built; y is the least element of its coset, which is
    # the least coset outside, as cosets are numbered by least element. Phases
    # are over n = |G^ab| until the chain ends. A character of the chain so far
    # extends to y in m ways, one for each m-th root of its value at y^m; y^m
    # has order dividing ord(y)/m in G^ab, so that value is a multiple of m.
    elems, coords = np.array([group.identity]), np.zeros((1, 0), dtype=np.int64)
    inside = np.arange(n) == proj[group.identity]
    keys = np.zeros((1, 0), dtype=np.int64)
    gens, radices = [], []
    while len(elems) < n:
        y = int(np.argmin(inside[proj]))
        powers, step = np.array([group.identity]), y      # y^0, y^1, ... by doubling
        while not inside[proj[new := group.mul(powers, step)]].any():
            powers, step = np.concatenate([powers, new]), group.mul(step, step)
        m = len(powers) + int(np.argmax(inside[proj[new]]))
        powers = np.concatenate([powers, new])
        at_y_m = keys @ coords[np.flatnonzero(proj[elems] == proj[powers[m]])[0]] % n
        roots = np.repeat(at_y_m // m, m) + np.tile(np.arange(m) * (n // m), len(keys))
        keys = np.column_stack([np.repeat(keys, m, axis=0), roots])
        elems = group.mul(elems[None, :], powers[:m, None]).ravel()
        coords = np.column_stack([np.tile(coords, (m, 1)), np.repeat(np.arange(m), len(coords))])
        inside[proj[elems]] = True
        gens.append(y)
        radices.append(m)
    # the walk reaches one element per coset, n in all, when the projection
    # is a homomorphism. Then the n keys are distinct functions on the n coords,
    # and every coord is some element's, so if each key passes the homomorphism
    # check below, the keys are n distinct characters of G^ab: all of Lin(G)
    if len(elems) != n:
        raise AssertionError(f"{group.name}: the projection onto G^ab is not a homomorphism")
    # by induction along the chain every key is n/e times its phases over the
    # exponent e of G^ab, and some character has order e: so the gcd of n and
    # every key entry is n/e, and e is read off without any element's order
    scale = math.gcd(n, int(np.gcd.reduce(keys, axis=None)))
    keys, e = keys // scale, n // scale
    coords = coords[np.argsort(proj[elems])[proj]]
    if gens:        # else G^ab is trivial, and so is its one character
        keys = keys[np.lexsort(keys.T[::-1])]
        # every key is a homomorphism of G: gamma(xs) = gamma(x) + gamma(s) for
        # each s in a generating set gives it for every product, by induction on
        # word length. The carries c(xs) - c(x) - c(s) take few distinct values,
        # found as distinct byte strings of their int64 rows.
        s, r = np.array(group.generators, dtype=np.int64), len(gens)
        carries = (coords[group.mul(slice(None), s)] - coords[:, None] - coords[s]).reshape(-1, r)
        distinct = np.unique(carries.view(np.dtype((np.void, carries.itemsize * r))))
        if (distinct.view(np.int64).reshape(-1, r) @ keys.T % e).any():
            raise AssertionError(f"{group.name}: a linear character is not a homomorphism")
    radices = np.array(radices, dtype=np.int64)
    for table in (keys, coords, radices):
        table.setflags(write=False)
    return LinearPhases(keys, coords, e, tuple(gens), radices)


def linear_characters(group: FiniteGroup) -> list[LinearCharacter]:
    """All of Lin(G), sorted by phase tuple."""
    return [LinearCharacter(group, i) for i in range(len(linear_phases(group).keys))]


# ---------------------------------------------------------------------------
# character table


def _class_structure_counts(group: FiniteGroup, part: ConjugacyPartition) -> np.ndarray:
    k, cls, x = len(part.classes), part.class_of, np.arange(group.order)
    flat = ((cls[:, None] * k + cls) * k + cls[group.mul(x[:, None], x)]).ravel()
    return np.bincount(flat, minlength=k ** 3).reshape(k, k, k)


def character_table(group: FiniteGroup) -> CharacterTable:
    """The irreducible characters: Lin(G) first, in its order, then the rest
    sorted by (degree, rounded values). The group caches the dims and the
    values on the classes, never the table, which refers back to it."""
    if group.order > TABLE_ORDER_CAP:
        raise CapExceededError(
            f"character table refused at order {group.order} > {TABLE_ORDER_CAP}"
        )
    part = conjugacy_classes(group)
    dims, values = group.cached("_char_table", lambda: _class_values(group, part))
    characters = tuple(ClassFunction(group, row[part.class_of]) for row in values)
    return CharacterTable(group, part, characters, dims)


def _class_values(group: FiniteGroup, part: ConjugacyPartition
                  ) -> tuple[tuple[int, ...], np.ndarray]:
    """(dims, values[i, c]): the degree-one rows are Lin(G) at the class
    representatives; Burnside's method, the eigenvectors of random combinations
    of the class matrices drawn from fixed seeds, gives the others."""
    k = len(part.classes)
    sizes = np.array(part.sizes, dtype=np.float64)
    # counts[r,s,t] = N_rst * |C_t|; not kept, since at k classes it takes 8 k^3 bytes
    struct = _class_structure_counts(group, part) / sizes[None, None, :]

    omega = None
    for attempt in range(_EIG_RETRIES):
        rng = np.random.default_rng(attempt)
        coef = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        combo = np.tensordot(coef, struct, axes=(0, 0))
        eigvals, eigvecs = np.linalg.eig(combo)
        gap = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gap, np.inf)
        scale = max(1.0, float(np.abs(eigvals).max()))
        if gap.min() / scale > _EIG_GAP:
            omega = eigvecs / eigvecs[0, :]
            break
    if omega is None:
        raise ArithmeticError("class-matrix eigenvalues kept colliding after 8 draws")

    n = group.order
    linear, rest = [], []
    for col in range(k):
        v = omega[:, col]
        denom = float(np.sum(np.abs(v) ** 2 / sizes))
        d = math.sqrt(n / denom)
        d_int = round(d)
        if abs(d - d_int) >= _DIM_RESIDUAL or d_int < 1:
            raise ArithmeticError(f"character dimension {d} does not round to an integer")
        (linear if d_int == 1 else rest).append((d_int, d_int * v / sizes))

    if len(linear) + sum(d * d for d, _ in rest) != n:
        raise ArithmeticError("sum of squared dimensions misses the group order")

    lp = linear_phases(group)
    lin = np.exp(2j * np.pi * (lp.block(None, part.representatives()) / lp.exponent))
    # the float degree-one rows are Lin(G) one to one exactly when their
    # class-weighted inner products with Lin(G) form a permutation matrix
    if len(linear) != len(lin):
        raise ArithmeticError(
            f"{len(linear)} degree-one rows recovered, but |Lin(G)| = {len(lin)}")
    match = (np.conj(lin) * sizes) @ np.array([vals for _, vals in linear]).T / n
    perm = np.eye(len(lin))[np.argmax(np.abs(match), axis=1)]
    if (perm.sum(axis=0) != 1).any() or float(np.abs(match - perm).max()) > _DIM_RESIDUAL:
        raise ArithmeticError("a linear character is missing from the recovered table")
    rest.sort(key=lambda item: (
        item[0],
        tuple((round(z.real, 9), round(z.imag, 9)) for z in item[1]),
    ))
    values = np.vstack([lin] + [vals for _, vals in rest])
    gram = (np.conj(values) * sizes) @ values.T / n
    if float(np.abs(gram - np.eye(k)).max()) > _ORTHO_TOL:
        raise ArithmeticError("character rows are not orthonormal")
    values.setflags(write=False)
    return (1,) * len(lin) + tuple(d for d, _ in rest), values


# ---------------------------------------------------------------------------
# transforms


def indicator(group: FiniteGroup, a: GroupSubset) -> ClassFunction:
    vals = np.zeros(group.order, dtype=np.complex128)
    vals[list(a)] = 1.0
    return ClassFunction(group, vals)


def inner(f: ClassFunction, g: ClassFunction) -> complex:
    """E_x conj(f(x)) g(x); conjugate-linear in the first slot."""
    if f.group is not g.group:
        raise ValueError("inner product needs a common group")
    return complex(np.vdot(f.values, g.values) / f.group.order)


def convolve(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    if f.group is not g.group:
        raise ValueError("convolve needs a common group")
    grp, x = f.group, np.arange(f.group.order)
    gathered = g.values[grp.mul(grp.inv(x)[:, None], x)]   # [y, x] -> g(y^-1 x)
    vals = f.values @ gathered / grp.order
    out = ClassFunction(grp, vals)
    if not out.is_class_function():
        raise AssertionError("convolution left the class-function space")
    return out


def fourier_scalar(f: ClassFunction, gamma: ClassFunction,
                   allow_general: bool = False) -> FourierScalar:
    """mu with hat f(gamma) = mu I; the character enters unconjugated."""
    if f.group is not gamma.group:
        raise ValueError("fourier_scalar needs a common group")
    d = int(round(gamma.values[gamma.group.identity].real))
    if d < 1:
        raise ValueError("gamma must be an irreducible character (positive dimension)")
    hermitian = f.is_hermitian()
    if not hermitian and not allow_general:
        raise ValueError("f is not hermitian; pass allow_general=True to force")
    mu = complex(np.mean(f.values * gamma.values)) / d
    if hermitian and abs(mu.imag) > _CLASS_TOL:
        raise AssertionError(f"hermitian input produced non-real mu = {mu}")
    return FourierScalar(gamma, d, mu)


def plancherel_check(f: ClassFunction, g: ClassFunction) -> float:
    if f.group is not g.group:
        raise ValueError("plancherel_check needs a common group")
    table = character_table(f.group)
    lhs = inner(f, g)
    rhs = 0
    for chi, d in zip(table.characters, table.dims):
        mu_f = fourier_scalar(f, chi, allow_general=True).mu
        mu_g = fourier_scalar(g, chi, allow_general=True).mu
        rhs += d * d * np.conj(mu_f) * mu_g
    return abs(lhs - complex(rhs))


# ---------------------------------------------------------------------------
# induction


def induce_class_function(view: SubgroupView, f: ClassFunction) -> ClassFunction:
    """Average of the zero-extension over conjugations, scaled by the index:
    the conjugates g x g^-1 hit each member of the class of x equally often."""
    if f.group is not view.group:
        raise ValueError("f must live on the subgroup view's standalone group")
    if not f.is_class_function():
        raise ValueError("f is not constant on the subgroup's conjugacy classes")
    parent = view.parent
    ext = np.zeros(parent.order, dtype=np.complex128)
    ext[list(view.to_parent)] = f.values
    cls = conjugacy_classes(parent).class_of
    sums = np.bincount(cls, weights=ext.real) + 1j * np.bincount(cls, weights=ext.imag)
    index = parent.order // view.group.order
    out = ClassFunction(parent, index * (sums / np.bincount(cls))[cls])
    d_sub = f.values[view.group.identity]
    if abs(d_sub - round(d_sub.real)) < _CLASS_TOL and round(d_sub.real) >= 1:
        # induced dimension law for characters
        if abs(out.values[parent.identity] - index * d_sub) > _CLASS_TOL:
            raise AssertionError("induced dimension law failed")
    return out


def frobenius_residual(view: SubgroupView, f: ClassFunction, g: ClassFunction) -> float:
    """| <f, g|_H> - <f^G, g> | for f on H and g on G."""
    if g.group is not view.parent:
        raise ValueError("g must live on the parent group")
    restricted = ClassFunction(view.group, g.values[list(view.to_parent)])
    lhs = inner(f, restricted)
    rhs = inner(induce_class_function(view, f), g)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# monomiality


def is_monomial(group: FiniteGroup, max_order_cap: int = SUBGROUP_ORDER_CAP
                ) -> tuple[bool, list[MonomialCertificate]]:
    """Certify each irreducible as induced from a linear character of a subgroup.
    The search runs once per group. Its cache never refers back to the group:
    it holds subgroup masks, the inducing characters of degree one as indices
    into Lin(G), and the others as characters of the subgroup's standalone view."""
    if group.order > max_order_cap:
        raise CapExceededError(
            f"monomiality check refused at order {group.order} > {max_order_cap}"
        )
    found = group.cached("_monomial", lambda: _monomial_certificates(group, max_order_cap))
    certs = [MonomialCertificate(i, d, mask is not None,
                                 None if mask is None else GroupSubset(group, mask),
                                 LinearCharacter(group, lam) if d == 1 else lam)
             for i, d, mask, lam in found]
    return all(c.matched for c in certs), certs


def _monomial_certificates(group: FiniteGroup, max_order_cap: int) -> tuple[tuple, ...]:
    """(character, degree, subgroup mask, inducing character) per irreducible,
    the last an index into Lin(G) at degree one; mask and character are None
    where no inducing pair exists."""
    table = character_table(group)
    subs = enumerate_subgroups(group, max_order_cap)
    views: dict[int, SubgroupView] = {}
    found = []
    for i, (chi, d) in enumerate(zip(table.characters, table.dims)):
        if d == 1:
            # the table lists Lin(G) first, in the same order
            found.append((i, 1, (1 << group.order) - 1, i))
            continue
        hit = (None, None)
        for sub in subs:
            if len(sub) * d != group.order:
                continue
            key = sub.elements.mask
            if key not in views:
                views[key] = subgroup_view(group, sub.elements)
            view = views[key]
            for lam in linear_characters(view.group):
                induced = induce_class_function(view, lam.as_class_function())
                if float(np.abs(induced.values - chi.values).max()) <= _ORTHO_TOL:
                    hit = (key, lam)
                    break
            if hit[0] is not None:
                break
        found.append((i, d) + hit)
    return tuple(found)


def is_hereditarily_monomial(group: FiniteGroup) -> tuple[bool, Optional[GroupSubset]]:
    """Whether every subgroup is monomial, with the first that is not. A
    supersolvable group is, by theorem: it is an M-group and so is each of its
    subgroups, which are supersolvable too (Isaacs, Character Theory of Finite
    Groups, Thm 6.22). Any other group is searched subgroup by subgroup."""
    if group.order > SUBGROUP_ORDER_CAP:
        raise CapExceededError(
            f"hereditary monomiality refused at order {group.order} > {SUBGROUP_ORDER_CAP}"
        )
    if is_supersolvable(group):
        return True, None
    return _hereditary_search(group)


def _hereditary_search(group: FiniteGroup) -> tuple[bool, Optional[GroupSubset]]:
    """The search behind `is_hereditarily_monomial`: `is_monomial` on every
    subgroup that is not supersolvable, the others being monomial by theorem.
    Each subgroup's view inherits the group's lattice, so it is enumerated once."""
    for sub in enumerate_subgroups(group):
        # the whole group is checked as itself, so its cached verdict is reused
        sub_group = (group if len(sub) == group.order
                     else subgroup_view(group, sub.elements).group)
        if is_supersolvable(sub_group):
            continue
        ok, _ = is_monomial(sub_group)
        if not ok:
            return False, sub.elements
    return True, None


# ---------------------------------------------------------------------------
# the high-value linearity scan


def high_value_linearity_check(group: FiniteGroup, s: GroupSubset,
                               a: GroupSubset) -> LinearityScanReport:
    """Scan for irreducibles whose indicator transform is larger than half P(S A)."""
    if s.group is not group or a.group is not group:
        raise ValueError("subset belongs to a different group")
    preds = set_predicates(a)
    records = (
        HypothesisRecord.of("S contains the identity", group.identity in s),
        HypothesisRecord.of("S generates the group",
                            len(closure(group, s.indices())) == group.order),
        HypothesisRecord.of("A is symmetric", preds.symmetric),
        HypothesisRecord.of("A is a union of conjugacy classes", preds.normal),
    )

    threshold = Fraction(len(product_set(s, a)), group.order)
    table = character_table(group)
    f = indicator(group, a)
    rows = []
    consistent = True
    for i, (chi, d) in enumerate(zip(table.characters, table.dims)):
        mu = fourier_scalar(f, chi, allow_general=True)
        exceeds = 2 * mu.spec_rad > float(threshold) + _SPEC_RAD_TOL
        rows.append(LinearityScanRow(i, d, mu.spec_rad, exceeds))
        if exceeds and d > 1:
            consistent = False
    return LinearityScanReport(records, threshold, tuple(rows), consistent)
