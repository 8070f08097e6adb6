"""Large spectra, their metric, spectral energy, and spectrum covering results.

Membership and energy verdicts are exact: a squared character-sum magnitude is
an element of Z[zeta_e], e the exponent of G^ab, whose float64 estimate has a
proven error bound; comparisons within that bound are decided in Z[zeta_e],
where a tie counts as >=.

One integer fixed-point route computes every transcendental value read here:
cos(2 pi k/e) at 128 bits for the float estimates and at doubling precision
for a near tie, and floor(e/(2 pi)), from pi by the Bailey-Borwein-Plouffe series.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import HypothesisRecord, conclude
from .groups import (SUBGROUP_ORDER_CAP, FiniteGroup, GroupSubset, _bool_mask, closure,
                     is_supersolvable, power_chain, product_set)
from .harmonic import (
    _SPEC_RAD_TOL,
    ClassFunction,
    LinearCharacter,
    character_table,
    fourier_scalar,
    indicator,
    is_monomial,
    linear_phases,
)
from .bohr import CharSet, char_span, charset_sum, linbohr
from .metric import _FLOAT_TOL
from .setops import power_set, set_predicates

MagSq = Union[Fraction, float]


# ---------------------------------------------------------------------------
# exact comparisons in Z[zeta_e]


@functools.lru_cache(maxsize=None)
def _pi_fixed(bits: int, guard: int = 16) -> int:
    """floor(pi 2^bits), from pi = sum_k 16^-k (4/(8k+1) - 2/(8k+4) - 1/(8k+5)
    - 1/(8k+6)) at p = bits + guard bits: the p/4 + 1 terms, each of four
    floored quotients, and the dropped tail put the sum within 3p/4 + 4 <= p
    units of pi 2^p. pi is irrational, so enough guard bits fix its floor."""
    p = bits + guard
    s = sum((4 << q) // (8 * k + 1) - (2 << q) // (8 * k + 4) - (1 << q) // (8 * k + 5)
            - (1 << q) // (8 * k + 6) for k, q in enumerate(range(p, -1, -4)))
    if (s - p) >> guard == (s + p) >> guard:
        return s >> guard
    return _pi_fixed(bits, 2 * guard)


def _cos_fixed(e: int, bits: int) -> list[int]:
    """cos(2 pi k/e) 2^bits for k = 0..e/2, each within 2 k bits units if e >= 5
    and bits >= 64. In units u = 2^-bits, theta = floor(2 _pi_fixed(bits)/e) u
    is within 3u of 2 pi/e and under 1.3. Its Taylor terms, each floored from
    the last, are low by under 1.5u, and from the fifth on each is under 0.26
    of the last, so the series ends within 0.52 bits + 4 terms: zeta = cos theta
    + i sin theta is within (0.8 bits + 12)u of e^(2 pi i/e). Each of the k
    floored complex products that give zeta^k adds under 1.5u, for
    k (0.8 bits + 14)u <= 2 k bits u in all (k <= e/2 <= 2^19)."""
    assert e <= 1 << 20         # e <= |G|: a table of order 2^20 takes 4 TiB
    theta = 2 * _pi_fixed(bits) // e
    c, s, term, n = 0, 0, 1 << bits, 0
    while term:                 # term = theta^n/n!, added with the sign of i^n
        if n % 2:
            s += term if n % 4 == 1 else -term
        else:
            c += term if n % 4 == 0 else -term
        n += 1
        term = term * theta // (n << bits)
    half, x, y = [], 1 << bits, 0
    for _ in range(e // 2 + 1):
        half.append(x)
        x, y = (x * c - y * s) >> bits, (x * s + y * c) >> bits
    return half


@functools.lru_cache(maxsize=None)
def _cos_table(e: int) -> np.ndarray:
    """cos(2 pi k/e) for k = 0..e-1, each within 2^-53; exact at 0, +-1/2 and +-1.
    Below e = 5 every entry is one of Niven's values. Above, _cos_fixed(e, 128)
    is within 2^8 k units, 2^-101, and integer true division rounds it correctly."""
    half = [x / (1 << 128) for x in _cos_fixed(e, 128)]
    for d, value in ((6, 0.5), (4, 0.0), (3, -0.5), (2, -1.0)):    # Niven's values
        if e % d == 0:
            half[e // d] = value
    table = np.array(half + half[1:(e + 1) // 2][::-1])
    table.setflags(write=False)
    return table


def _divmod_monic(poly, div) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of poly by the monic div (constant terms first),
    exactly. The remainder keeps the length of poly, zero from len(div) - 1 on.
    A 2-D poly is divided row by row, all rows in one pass."""
    rem, deg, terms = np.array(poly, dtype=object), len(div) - 1, np.flatnonzero(div)
    div = np.array(div, dtype=object)[terms]        # cyclotomic divisors are sparse
    quot = np.zeros(rem.shape[:-1] + (max(rem.shape[-1] - deg, 0),), dtype=object)
    used = np.flatnonzero((rem != 0).reshape(-1, rem.shape[-1]).any(axis=0))
    for i in range(used[-1] if used.size else -1, deg - 1, -1):
        quot[..., i - deg] = c = rem[..., i]
        if np.any(c != 0):
            rem[..., i - deg + terms] -= np.multiply.outer(c, div)
    return quot, rem


def _reduce(coeffs) -> np.ndarray:
    """Each row c of coeffs, of length e, modulo Phi_e: the canonical form of
    sum_k c_k zeta_e^k, as a row of the same length."""
    return _divmod_monic(coeffs, _cyclotomic(np.shape(coeffs)[-1]))[1]


@functools.lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple[int, ...]:
    """Phi_e: x^e - 1 divided by Phi_d for each proper divisor d of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in (d for d in range(1, e) if e % d == 0):
        poly = _divmod_monic(poly, _cyclotomic(d))[0]
    return tuple(poly)


def _exact_at_least(coeffs, threshold: Fraction) -> bool:
    """sum_k coeffs[k] zeta_e^k >= threshold (e = len(coeffs)) for a real element
    of Z[zeta_e]; a tie counts as >=. The difference beta, reduced modulo Phi_e,
    is a constant for every real beta when e <= 4 or e = 6; any other beta is not
    0, so sum_k b_k cos(2 pi k/e) 2^bits outgrows its error as bits doubles."""
    e = len(coeffs)
    beta = threshold.denominator * _reduce(coeffs)
    beta[0] -= threshold.numerator
    if not any(beta[1:]):
        return bool(beta[0] >= 0)
    terms = [(int(b), min(k, e - k)) for k, b in enumerate(beta) if b]
    # by `_cos_fixed`'s bound, value is within error * bits of beta 2^bits
    error, bits = 2 * sum(abs(b) * k for b, k in terms), 64
    while True:
        cos = _cos_fixed(e, bits)
        value = sum(b * cos[k] for b, k in terms)
        if abs(value) > error * bits:
            return value > 0
        bits *= 2


class FourierMagnitudes:
    """|sum_{x in A} gamma(x)|^2 for every degree-one character, cached per (G, A).

    For gamma with phase row r over e this is sum_y w(y) zeta_e^{r(y)}, w the
    autocorrelation counts of `spectrum_weight`. The exact coefficients read all
    of supp w; the float estimates read one element of each inverse pair
    {y, y^-1} in it, since w and the real part agree on both, and are computed
    for one character of each inverse pair {gamma, gamma^-1}, whose rows gather
    the same table entries. Held by the group, it holds no reference back, so
    that no cycle keeps a dropped group alive until the cyclic collector runs."""

    def __init__(self, a: GroupSubset):
        g = a.group
        counts = _autocorrelation_counts(a)
        self._support = np.flatnonzero(counts)
        self.weights = counts[self._support]
        self._phases = lp = linear_phases(g)
        self.exponent = lp.exponent
        # w(y^-1) = w(y), and gamma(y^-1) has phase e - r(y), whose table entry
        # is that of r(y): the sum over supp w is a sum over its least element
        # of each inverse pair, weighted 2 w(y), or w(y) where y = y^-1
        inv = g.inv(self._support)
        least = self._support <= inv
        folded = np.where(self._support == inv, 1.0, 2.0)[least] * self.weights[least]
        # gamma^-1 has phase row e - r, and the table is symmetric: the estimate
        # of the least character of each pair {gamma, gamma^-1} is both of theirs
        neg = lp.negations(np.arange(len(lp.keys)))
        reps = np.flatnonzero(np.arange(len(neg)) <= neg)
        est = _cos_table(lp.exponent)[lp.block(reps, self._support[least])] @ folded
        self.estimates = np.empty(len(neg))
        self.estimates[reps] = self.estimates[neg[reps]] = est
        # with u = 2^-53 and k = len(folded) terms whose weights sum to |A|^2, an
        # estimate errs by at most u |A|^2 from the table entries (each within u,
        # of size at most 1) and by gamma_k |A|^2 < (k + 1) u |A|^2 from the k
        # roundings of the products and k - 1 of the sums, in whatever order
        # they are summed: (k + 2) u |A|^2 in all; doubled, and 2 more for slack
        self.error = 2.0 ** -52 * (len(folded) + 4) * len(a) ** 2

    def coefficients(self, indices) -> np.ndarray:
        """Row j is c with mag_sq(indices[j]) = sum_k c_k zeta_e^k."""
        e, k = self.exponent, len(indices)
        cols = self._phases.block(indices, self._support)
        cols += e * np.arange(k)[:, None]
        return np.bincount(cols.ravel(), np.tile(self.weights, k),
                           minlength=k * e).astype(np.int64).reshape(k, e)

    def mag_sq(self, index: int) -> MagSq:
        """The exact value when it is rational (then an integer), else the estimate."""
        rem = _reduce(self.coefficients([index]))[0]
        return float(self.estimates[index]) if any(rem[1:]) else Fraction(int(rem[0]))


def _magnitudes(a: GroupSubset) -> FourierMagnitudes:
    """A's Fourier magnitudes, built once per set and cached on its group."""
    return a.group.cached("_fourier_magnitudes", lambda: FourierMagnitudes(a), a.mask)


# ---------------------------------------------------------------------------
# large spectra


class LargeSpectrum(NamedTuple):
    a: GroupSubset
    eps: Fraction
    members: CharSet
    values: tuple[float, ...]
    threshold_sq: Fraction      # on |sum_{x in A} gamma(x)|^2


def large_spectrum(a: GroupSubset, eps: Fraction) -> LargeSpectrum:
    eps = Fraction(eps)
    if len(a) == 0:
        raise ValueError("large_spectrum needs a nonempty set")
    if not (0 < eps and eps * eps <= 2):
        raise ValueError("large_spectrum needs eps in (0, sqrt(2)]")
    return _lspec(a, eps)


def _lspec(a: GroupSubset, eps: Fraction) -> LargeSpectrum:
    """LSpec(A, eps), decided once per (A, eps) and cached on the group as the
    members' mask, the values and the threshold, none of which refers back."""
    mask, values, threshold = a.group.cached("_large_spectra", lambda: _decide(a, eps),
                                             (a.mask, eps))
    return LargeSpectrum(a, eps, CharSet(a.group, mask), values, threshold)


def _decide(a: GroupSubset, eps: Fraction) -> tuple[int, tuple[float, ...], Fraction]:
    group = a.group
    mags = _magnitudes(a)
    p, q = eps.numerator, eps.denominator       # threshold (1 - eps^2/2) |A|^2 = num / den
    num, den = max(0, 2 * q * q - p * p) * len(a) ** 2, 2 * q * q
    # the float num / den errs by at most 2^-53 of it; beyond both errors the
    # estimate's side is the exact side, and the rest are decided in Z[zeta_e]
    t = num / den
    bound = mags.error + 2.0 ** -52 * t
    verdict = (mags.estimates - t > bound) | (num == 0)     # no square is below 0
    near = np.flatnonzero(~verdict & (np.abs(mags.estimates - t) <= bound))
    # reduction mod Phi_e is linear, so one pass reduces every near tie (and with
    # none, Phi_e is not built); the reduced row is canonical, so equal values are
    # decided once. gamma and gamma^-1 have one estimate and one value, so near
    # ties come in inverse pairs, and the least of each is reduced for both
    neg = linear_phases(group).negations(near)
    least = near <= neg
    near, neg = near[least], neg[least]
    threshold, decided = Fraction(num, den), {}
    for i, j, reduced in zip(near, neg, _reduce(mags.coefficients(near)) if near.size else ()):
        key = tuple(reduced)
        if key not in decided:
            decided[key] = _exact_at_least(reduced, threshold)
        verdict[i] = verdict[j] = decided[key]
    assert verdict[0]      # hat 1_A(0) = P(A) clears every threshold
    est = mags.estimates[verdict]
    values = np.sqrt(np.where(est < 0, 0.0, est)) / group.order    # as max(est, 0.0)
    return _bool_mask(verdict), tuple(values.tolist()), threshold


# ---------------------------------------------------------------------------
# spectrum weight and metric


class SpectrumWeight(NamedTuple):
    a: GroupSubset
    weight: ClassFunction
    counts: tuple[int, ...]     # |A  intersect  xA| per element x

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(self.counts), len(self.a) * self.a.group.order)


def spectrum_weight(a: GroupSubset) -> SpectrumWeight:
    if len(a) == 0:
        raise ValueError("spectrum_weight needs a nonempty set")
    counts = _autocorrelation_counts(a)
    return SpectrumWeight(a, ClassFunction(a.group, counts.astype(np.complex128) / len(a)),
                          tuple(counts.tolist()))


def _autocorrelation_counts(a: GroupSubset) -> np.ndarray:
    """|A intersect xA| for each element x of G, as int64: the number of pairs
    (x1, x2) of A with x1 x2^-1 = x."""
    g = a.group
    idx = a.array()
    counts = np.bincount(g.mul(idx[:, None], g.inv(idx)).ravel(), minlength=g.order)
    assert counts[g.identity] == len(a)         # w(identity) = 1 after scaling
    assert counts.sum() == len(a) ** 2          # E_x w = P(A)
    return counts


class SpectrumDistance(NamedTuple):
    rho: float
    rho_sq: MagSq
    exact: bool


def spectrum_distance(a: GroupSubset, gamma: LinearCharacter,
                      gamma_prime: LinearCharacter) -> float:
    """Weighted L2 distance of two characters against the autocorrelation of A."""
    return spectrum_distance_exact(a, gamma, gamma_prime).rho


def spectrum_distance_exact(a: GroupSubset, gamma: LinearCharacter,
                            gamma_prime: LinearCharacter) -> SpectrumDistance:
    if len(a) == 0:
        raise ValueError("spectrum_distance needs a nonempty set")
    # |A|^2 rho^2 = sum_y w(y) |1 - (gamma' - gamma)(y)|^2 = 2 |A|^2 - 2 |sum_A (gamma' - gamma)|^2
    lp = linear_phases(a.group)
    diff = int(lp.find((lp.keys[gamma_prime.index] - lp.keys[gamma.index])[None])[0])
    mag = _magnitudes(a).mag_sq(diff)
    rho_sq = 2 - 2 * mag / len(a) ** 2
    return SpectrumDistance(math.sqrt(max(float(rho_sq), 0.0)), rho_sq, isinstance(mag, Fraction))


# ---------------------------------------------------------------------------
# standing hypotheses of the growth section


def standing_hypotheses(group: FiniteGroup, s: GroupSubset,
                        a: GroupSubset) -> list[HypothesisRecord]:
    """The records, decided once per (S, A) and cached on the group as a
    tuple; each call returns a fresh list, since callers append to it."""
    if s.group is not group or a.group is not group:
        raise ValueError("subset belongs to a different group")
    return list(group.cached("_standing_hypotheses",
                             lambda: _standing_hypotheses(group, s, a), (s.mask, a.mask)))


def _standing_hypotheses(group: FiniteGroup, s: GroupSubset,
                         a: GroupSubset) -> tuple[HypothesisRecord, ...]:
    records = []
    if group.order <= SUBGROUP_ORDER_CAP:
        # a supersolvable group is an M-group (Isaacs, Thm 6.22): no search
        mono = is_supersolvable(group) or is_monomial(group)[0]
        records.append(HypothesisRecord.of("group is monomial", mono))
    else:
        records.append(HypothesisRecord(
            "group is monomial", "unchecked", f"order {group.order} beyond the check cap"))
    generates = len(closure(group, s.indices())) == group.order
    has_id = group.identity in s
    records.append(HypothesisRecord.of("S generates G and contains the identity",
                                       generates and has_id))
    preds = set_predicates(a)
    records.append(HypothesisRecord.of("A is symmetric and normal",
                                       preds.symmetric and preds.normal))
    sa = product_set(s, a)
    tight = Fraction(len(sa)) ** 2 < 2 * Fraction(len(a)) ** 2
    records.append(HypothesisRecord.of("P(S.A) < sqrt(2) P(A)", tight,
                                       f"|S.A| = {len(sa)}, |A| = {len(a)}"))
    return tuple(records)


# ---------------------------------------------------------------------------
# spectral energy


def _cyclic_power(c: np.ndarray, k: int) -> np.ndarray:
    """c^k in Z[x]/(x^e - 1), e = len(c), in Python integers."""
    out = base = np.array(c, dtype=object)
    for _ in range(k - 1):
        full = np.append(np.convolve(out, base), 0)
        out = full[:len(c)] + full[len(c):]
    return out


def _counting_convolution_power(a: GroupSubset, k: int) -> list[int]:
    """c_k(x) = number of k-tuples over A multiplying to x, in exact integers."""
    g = a.group
    steps = g.mul(slice(None), list(a)).ravel()      # y s for y in G, s in A
    counts = np.zeros(g.order, dtype=object)
    counts[g.identity] = 1
    for _ in range(k):
        counts, prev = np.zeros(g.order, dtype=object), counts
        np.add.at(counts, steps, np.repeat(prev, len(a)))
    return counts.tolist()


class EnergyReport(NamedTuple):
    hypotheses: list[HypothesisRecord]
    eta: Fraction
    k: int
    lhs: Optional[float]
    mid: Optional[float]
    rhs: Optional[float]
    lhs_ge_mid: Optional[bool]
    mid_ge_rhs: Optional[bool]
    float_route_residual: Optional[float]
    nonlinear_scan_ok: Optional[bool]

    @property
    def all_ok(self) -> bool:
        return bool(self.lhs_ge_mid and self.mid_ge_rhs and self.nonlinear_scan_ok)


def spectral_energy_check(group: FiniteGroup, s: GroupSubset, a: GroupSubset,
                          eta: Fraction, k: int) -> EnergyReport:
    """Energy of the k-fold transform concentrates on the large spectrum."""
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise ValueError("spectral_energy_check needs eta in (0, 1]")
    if k < 1:
        raise ValueError("spectral_energy_check needs k >= 1")
    records = standing_hypotheses(group, s, a)
    n = group.order

    a_k = power_set(a, k)
    growth_hyp = (1 - eta * eta / 2) ** (k - 1) <= Fraction(len(a), 2 * len(a_k))
    records.append(HypothesisRecord.of("(1 - eta^2/2)^(k-1) <= P(A) / 2 P(A^k)", growth_hyp))

    if any(r.status == "fails" for r in records):
        return EnergyReport(records, eta, k, None, None, None, None, None, None, None)

    # middle: half the full-table energy, via the exact counting convolution
    c_k = _counting_convolution_power(a, k)
    mid_exact = Fraction(sum(c * c for c in c_k), 2 * n ** (2 * k - 1))
    rhs_exact = Fraction(len(a), n) ** (2 * k) / (2 * Fraction(len(a_k), n))
    mid_ge_rhs = mid_exact >= rhs_exact

    # left side: the sum over the large spectrum of |hat 1_A|^2k, in units of
    # |A|^2k. Each x = estimate / |A|^2 <= 1 lies within r of its value, so the
    # product of k copies lies within k (1 + r)^k (r + u) <= 2k (r + u) of its
    # power, u = 2^-53; fsum and float(mid) add u of each side. Beyond that the
    # estimate decides.
    mags = _magnitudes(a)
    members = _lspec(a, eta).members.indices()
    sq = len(a) ** 2
    x = mags.estimates[list(members)] / sq
    lhs_units = math.fsum(np.prod(np.tile(x, (k, 1)), axis=0))
    mid_units = float(mid_exact * n ** (2 * k) / sq ** k)
    r = mags.error / sq + 2.0 ** -52
    bound = 2 * len(x) * k * (r + 2.0 ** -53) + 2.0 ** -52 * (lhs_units + mid_units)
    if abs(lhs_units - mid_units) > bound:
        lhs_ge_mid = lhs_units > mid_units
    else:                           # near a tie: compare in Z[zeta_e]
        lhs_coeffs = sum(_cyclic_power(c, k) for c in mags.coefficients(members))
        lhs_ge_mid = _exact_at_least(lhs_coeffs, mid_exact * n ** (2 * k))

    # independent float route through the full character table
    table = character_table(group)
    f = indicator(group, a)
    float_total = 0.0
    threshold = math.sqrt(float(1 - eta * eta / 2)) * len(a) / n
    nonlinear_ok = True
    for chi, d in zip(table.characters, table.dims):
        mu = fourier_scalar(f, chi, allow_general=True)
        float_total += d * d * mu.spec_rad ** (2 * k)
        if d > 1 and mu.spec_rad > threshold + _SPEC_RAD_TOL:
            nonlinear_ok = False
    float_residual = abs(float_total / 2 - float(mid_exact))

    lhs = lhs_units * float(Fraction(sq, n * n) ** k)
    report = EnergyReport(records, eta, k, lhs, float(mid_exact),
                          float(rhs_exact), bool(lhs_ge_mid), bool(mid_ge_rhs),
                          float_residual, nonlinear_ok)
    return conclude(report, report.all_ok,
                    "spectral energy inequality failed with hypotheses in force")


# ---------------------------------------------------------------------------
# Chang covering


class ChangCover(NamedTuple):
    x: CharSet
    r: int
    within_bound: bool
    covering_ok: bool


def chang_cover(s: CharSet, t: CharSet, r: int) -> ChangCover:
    """Greedily absorb elements of S not reachable from Span(X) + T - T."""
    if len(s) == 0 or len(t) == 0:
        raise ValueError("chang_cover needs nonempty character sets")
    x = CharSet.empty(s.group)
    t_diff = charset_sum(t, t.negate())
    covered = t_diff
    while missing := s.mask & ~covered.mask:
        x = x | CharSet(s.group, missing & -missing)      # the least uncovered index
        covered = charset_sum(char_span(x), t_diff)
    return ChangCover(x, r, len(x) <= r, s.is_subset_of(covered))


# ---------------------------------------------------------------------------
# spectrum doubling


class WindowRow(NamedTuple):
    k: int
    size: int
    bound_ok: bool


class DoublingReport(NamedTuple):
    hypotheses: list[HypothesisRecord]
    eps: Fraction
    d: float
    branch: str                      # "covered" | "small"
    r: Optional[int]
    k_eta_d: int
    window: tuple[WindowRow, ...]
    window_clipped: bool
    scan: tuple[tuple[int, int, int], ...]   # (r, |LSpec((2r+1/2)eps)|, 2^r |LSpec(eps/2)|)
    x: Optional[CharSet]
    covering_ok: Optional[bool]
    eps_inverse: Optional[Fraction]


def lspec_doubling_cover(group: FiniteGroup, s: GroupSubset, a: GroupSubset,
                         eps: Fraction, d: float) -> DoublingReport:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("lspec_doubling_cover needs eps in (0, 1]")
    if not 1 <= d < math.inf:       # false for nan too
        raise ValueError(f"lspec_doubling_cover needs a finite d >= 1, got d={d}")
    records = standing_hypotheses(group, s, a)

    chain = power_chain(a)
    start, period = chain.cycle()
    # with eps <= 1 and d >= 1, k_hi >= 128 d log(32 d) - 1 > k_lo: never empty
    k_lo = math.ceil(64 * d * math.log(32 * d))
    eps_f = float(eps)
    k_hi = math.floor(128 * d * math.log(32 * d / eps_f ** 2) / eps_f ** 2)
    window_rows = []
    clipped = k_hi >= start + period
    # sizes repeat with the detected period, so one representative per residue
    # class certifies the whole clipped tail (k^d only grows)
    checked = set(range(k_lo, min(k_hi, start + period - 1) + 1))
    checked.update(range(k_lo, min(k_hi, k_lo + period - 1) + 1))
    ok_all = True
    for k in sorted(checked):
        size_k = chain.size(k)
        ok = math.log(size_k / len(a)) <= d * math.log(k) + _FLOAT_TOL
        window_rows.append(WindowRow(k, size_k, ok))
        ok_all = ok_all and ok
    records.append(HypothesisRecord.of(
        "P(A^k) <= k^d P(A) on the growth window", ok_all,
        f"window [{k_lo}, {k_hi}], power cycle from {start} period {period}" + (
            " (clipped)" if clipped else "")))

    k_eta_d = math.ceil(_k_min(eps / 2, d))  # eps/2: the smallest radius touched

    half = _lspec(a, eps / 2)
    scan_rows = []
    found_r = None
    r = 2
    while (2 * r + Fraction(1, 2)) * eps <= 1:
        wide = _lspec(a, (2 * r + Fraction(1, 2)) * eps)
        cap = 2 ** r * len(half.members)
        scan_rows.append((r, len(wide.members), cap))
        if len(wide.members) < cap:
            found_r = r
            break
        r += 1

    if found_r is None:
        return DoublingReport(records, eps, d, "small", None, k_eta_d,
                              tuple(window_rows), clipped, tuple(scan_rows),
                              None, None, 1 / eps)

    two_eps = _lspec(a, 2 * eps)
    cover = chang_cover(two_eps.members, half.members, found_r)
    spec = _lspec(a, eps)
    lhs = charset_sum(spec.members, spec.members)
    rhs = charset_sum(char_span(cover.x), spec.members)
    covering_ok = lhs.is_subset_of(rhs)
    report = DoublingReport(records, eps, d, "covered", found_r, k_eta_d,
                            tuple(window_rows), clipped, tuple(scan_rows),
                            cover.x, covering_ok, None)
    return conclude(report, covering_ok and cover.within_bound and cover.covering_ok,
                    "spectrum doubling cover failed with hypotheses in force")


# ---------------------------------------------------------------------------
# size of the Bohr set of the spectrum


class SpectrumSizeReport(NamedTuple):
    hypotheses: list[HypothesisRecord]
    eps: Fraction
    k: int
    d: float
    lhs: Fraction                 # P(LinBohr(LSpec(A, eps), 1/(2 pi)))
    rhs_log: float                # log(8 k^d P(A))
    ok: bool
    ball_size: int
    spectrum_size: int


def _inv_two_pi_ball(group: FiniteGroup, members: CharSet) -> GroupSubset:
    """LinBohr(members, 1/(2 pi)): Bohr norms are d/e with d an integer, and
    e/(2 pi) is irrational, so this is the ball of radius floor(e/(2 pi))/e."""
    e = linear_phases(group).exponent
    return linbohr(members, Fraction(_floor_over_two_pi(e), e))


def _floor_over_two_pi(e: int) -> int:
    """floor(e/(2 pi)): 2 pi 2^128 lies in [2P, 2P + 2), P = _pi_fixed(128), and
    e/(2 pi) is irrational, so it is the floor of both quotients when they agree."""
    radius = (e << 128) // (2 * _pi_fixed(128))
    assert radius == (e << 128) // (2 * _pi_fixed(128) + 2)
    return radius


def _k_min(eps: Fraction, d: float) -> float:
    """16 eps^-2 d log(8 eps^-2 d), the least admissible power k at radius eps.
    The pipeline passes its ceiling, so that k passes `k >= _k_min` exactly."""
    eps_f = float(eps)
    return 16 * d * math.log(8 * d / eps_f ** 2) / eps_f ** 2


def lspec_size_check(group: FiniteGroup, s: GroupSubset, a: GroupSubset,
                     eps: Fraction, k: int, d: float) -> SpectrumSizeReport:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("lspec_size_check needs eps in (0, 1]")
    records = standing_hypotheses(group, s, a)
    k_min = _k_min(eps, d)
    records.append(HypothesisRecord.of("k >= 16 eps^-2 d log(8 eps^-2 d)", k >= k_min,
                                       f"k = {k}, needs >= {k_min:.3f}"))
    size_k = power_chain(a).size(k)
    growth_ok = math.log(size_k / len(a)) <= d * math.log(k) + _FLOAT_TOL
    records.append(HypothesisRecord.of("P(A^k) <= k^d P(A)", growth_ok, f"|A^k| = {size_k}"))

    spec = _lspec(a, eps)
    ball = _inv_two_pi_ball(group, spec.members)
    lhs = Fraction(len(ball), group.order)
    rhs_log = math.log(8) + d * math.log(k) + math.log(len(a) / group.order)
    ok = math.log(float(lhs)) <= rhs_log + _FLOAT_TOL

    report = SpectrumSizeReport(records, eps, k, d, lhs, rhs_log, ok,
                                len(ball), len(spec.members))
    return conclude(report, ok, "spectrum Bohr-set size bound failed with hypotheses in force")
