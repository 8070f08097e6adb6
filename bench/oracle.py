"""Reference computations the benchmark checks monoball's answers against.

Nothing here calls monoball. Groups are rebuilt from the index conventions
documented in `monoball.groups` (cyclic residues; dihedral rotations first,
then reflections; Heisenberg (a, b, c) at a*p^2 + b*p + c; direct products
with the first factor most significant), and every check uses numpy or
Python integers on those tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

# |hat 1_A|^2 within this share of the threshold (on the scale |A|^2) is undecided
UNDECIDED_BAND = 1e-9


# ---------------------------------------------------------------------------
# groups


def _cyclic(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def _dihedral(order: int) -> np.ndarray:
    n = order // 2
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    mul = np.empty((order, order), dtype=np.int64)
    mul[:n, :n] = (a + b) % n
    mul[:n, n:] = n + (b - a) % n
    mul[n:, :n] = n + (a + b) % n
    mul[n:, n:] = (b - a) % n
    return mul


def _heisenberg(p: int) -> np.ndarray:
    idx = np.arange(p ** 3)
    a, b, c = idx // (p * p), (idx // p) % p, idx % p
    na = (a[:, None] + a[None, :]) % p
    nb = (b[:, None] + b[None, :]) % p
    nc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    return (na * p + nb) * p + nc


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    n1, n2 = len(left), len(right)
    mul = left[:, None, :, None] * n2 + right[None, :, None, :]
    return mul.reshape(n1 * n2, n1 * n2)


def group_table(spec: dict) -> np.ndarray:
    """Multiplication table for the group spec kinds the benchmark uses."""
    kind = spec["type"]
    if kind == "cyclic":
        return _cyclic(spec["n"])
    if kind == "dihedral":
        return _dihedral(spec["order"])
    if kind == "heisenberg":
        return _heisenberg(spec["p"])
    if kind == "product":
        tables = [group_table(s) for s in spec["factors"]]
        out = tables[0]
        for t in tables[1:]:
            out = _product(out, t)
        return out
    raise ValueError(f"no reference table for group type {kind!r}")


class Table:
    """A multiplication table with its identity, inverses and conjugation."""

    def __init__(self, mul: np.ndarray):
        n = len(mul)
        self.mul = mul
        self.order = n
        self.identity = int(np.flatnonzero((mul == np.arange(n)).all(axis=1))[0])
        self.inv = np.argmax(mul == self.identity, axis=1)

    def normalize(self, indices, symmetrize=False, add_identity=False,
                  conjugation_close=False) -> np.ndarray:
        a = set(int(i) for i in indices)
        if add_identity:
            a.add(self.identity)
        if symmetrize:
            a |= {int(self.inv[x]) for x in a}
        if conjugation_close:
            xs = np.array(sorted(a))
            # g x g^-1 for every g and x in A
            a = set(np.unique(self.mul[self.mul[:, xs], self.inv[:, None]]).tolist())
        return np.array(sorted(a), dtype=np.int64)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.unique(self.mul[np.ix_(a, b)])

    def power_chain(self, a: np.ndarray, n_max: int) -> list[np.ndarray]:
        """A^0 .. A^n_max by breadth-first search from the identity (A holds it)."""
        seen = np.zeros(self.order, dtype=bool)
        seen[self.identity] = True
        frontier = np.array([self.identity])
        chain = [frontier]
        for _ in range(n_max):
            if not frontier.size:           # saturated: every later power is <A>
                chain.append(chain[-1])
                continue
            nxt = np.unique(self.mul[np.ix_(frontier, a)])
            frontier = nxt[~seen[nxt]]
            seen[frontier] = True
            chain.append(np.flatnonzero(seen))
        return chain


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << int(i)
    return m


# ---------------------------------------------------------------------------
# freiman reports


def check_freiman(table: Table, set_spec: dict, report: dict) -> Optional[str]:
    """AA^-1 recomputed from the table must lie in the report's ball."""
    norm = set_spec.get("normalize", {})
    a = table.normalize(set_spec["indices"], **norm)
    result = report["result"]
    if result["a_indices"] != a.tolist():
        return "report's A differs from the normalized set spec"
    ball = result["ball_parent_indices"] if result["restricted"] else result["ball_indices"]
    if result["ball_size"] != len(result["ball_indices"]):
        return "ball_size disagrees with ball_indices"
    diff = table.product(a, table.inv[a])
    if mask_of(diff) & ~mask_of(ball):
        return "AA^-1 escapes the reported ball"
    return None


# ---------------------------------------------------------------------------
# characters and spectra


class Characters:
    """Lin(G) as integer phase numerators over a common modulus m."""

    def __init__(self, table: Table, phases: np.ndarray, m: int):
        for x in range(table.order):       # gamma(xy) = gamma(x) gamma(y)
            if ((phases[:, table.mul[x]] - phases[:, [x]] - phases) % m).any():
                raise ValueError("reference characters are not homomorphisms")
        self.table = table
        self.phases = phases
        self.m = m
        self.row_of = {row.tobytes(): i for i, row in enumerate(phases)}

    @classmethod
    def cyclic(cls, table: Table) -> "Characters":
        n = table.order
        k = np.arange(n)
        return cls(table, np.outer(k, k) % n, n)

    @classmethod
    def c2_x_heisenberg3(cls, table: Table) -> "Characters":
        """C2 x Heis(3): characters factor through C2 x Z3^2 via (t, a, b)."""
        idx = np.arange(54)
        t, a, b = idx // 27, (idx // 9) % 3, (idx // 3) % 3
        rows = [(3 * l * t + 2 * (j * a + k * b)) % 6
                for l in range(2) for j in range(3) for k in range(3)]
        return cls(table, np.array(rows), 6)

    def rows(self, chars) -> Optional[list[int]]:
        """Reference rows of monoball LinearCharacters, None if one is not a character."""
        out = []
        for c in chars:
            if any((q * self.m).denominator != 1 for q in c.phases):
                return None
            nums = np.array([int(q * self.m) % self.m for q in c.phases])
            row = self.row_of.get(nums.tobytes())
            if row is None:
                return None
            out.append(row)
        return out

    def mag_sq(self, a: np.ndarray) -> np.ndarray:
        """|sum_{x in A} gamma(x)|^2 for every gamma, in complex128."""
        z = np.exp(2j * np.pi * self.phases[:, a] / self.m).sum(axis=1)
        return np.abs(z) ** 2

    def spectrum(self, mag_sq: np.ndarray, size: int, eps: Fraction):
        """(members, undecided) as boolean rows of LSpec(A, eps)."""
        thr = max(0.0, 1 - float(eps) ** 2 / 2) * size ** 2
        undecided = np.abs(mag_sq - thr) <= UNDECIDED_BAND * size ** 2
        return (mag_sq >= thr) & ~undecided, undecided

    def norms(self, rows: list[int]) -> np.ndarray:
        """Bohr norm of each element times m: max over rows of min(p, m - p)."""
        if not rows:
            return np.zeros(self.table.order, dtype=np.int64)
        p = self.phases[rows]
        return np.minimum(p, self.m - p).max(axis=0)


def check_spectrum(chars: Characters, mag_sq: np.ndarray, size: int, eps: Fraction,
                   members) -> tuple[Optional[str], int, Optional[list[int]]]:
    """(problem, undecided count, member rows) for a monoball LSpec member set."""
    rows = chars.rows(members)
    if rows is None:
        return "a spectrum member is not a linear character", 0, None
    want, undecided = chars.spectrum(mag_sq, size, eps)
    got = np.zeros(len(want), dtype=bool)
    got[rows] = True
    if (got != want)[~undecided].any():
        return f"LSpec membership differs from the DFT at eps={eps}", 0, rows
    return None, int(undecided.sum()), rows


def check_ball(norms: np.ndarray, m: int, delta: Fraction, mask: int) -> Optional[str]:
    want = np.flatnonzero(norms * delta.denominator <= delta.numerator * m)
    if mask_of(want) != mask:
        return f"LinBohr at delta={delta} differs from the reference"
    return None


def ball_dimension(norms: np.ndarray, m: int, delta: Fraction) -> float:
    """sup over event radii t in (0, delta] of log2 |B(2t)| / |B(t)|, floored at 0."""
    doubled = np.sort(2 * norms)          # radii in units of 1 / (2m)
    limit = delta * 2 * m
    best = 0.0
    for v in np.unique(norms[norms > 0]).tolist():
        for t in (2 * v, v):
            if t <= limit:
                num = np.searchsorted(doubled, 2 * t, side="right")
                den = np.searchsorted(doubled, t, side="right")
                best = max(best, math.log2(num / den))
    return best


def find_l(sizes: list[int]) -> int:
    l = 1
    while sizes[l + 1] ** 2 >= 2 * sizes[l - 1] ** 2:
        l += 1
    return l
