"""Large spectra, their metric, spectral energy, and spectrum covering results.

Membership and energy verdicts are exact: a squared character-sum magnitude is
an element of Z[zeta_e], e the exponent of G^ab, whose float64 estimate has a
proven error bound; comparisons within that bound are decided in Z[zeta_e],
where a tie counts as >=. mpmath precision is only ever set locally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
import numpy as np
from mpmath.ctx_iv import MPIntervalContext

from .errors import FalsifiedError
from .groups import FiniteGroup, GroupSubset, closure
from .harmonic import (
    MONOMIAL_ORDER_CAP,
    ClassFunction,
    LinearCharacter,
    character_table,
    fourier_scalar,
    indicator,
    is_monomial,
    linear_phases,
)
from .bohr import CharSet, bohr_norm, char_span, charset_sum
from .setops import power_set, product_set, set_predicates

_MP_DPS = 50

MagSq = Union[Fraction, float]


@dataclass(frozen=True, eq=False)
class HypothesisRecord:
    name: str
    status: str           # "holds" | "fails" | "unchecked" | "vacuous"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "holds"


# ---------------------------------------------------------------------------
# exact comparisons in Z[zeta_e]


@functools.lru_cache(maxsize=None)
def _cos_table(e: int) -> np.ndarray:
    """cos(2 pi k/e) for k = 0..e-1, each within 2^-53; exact at 0, +-1/2 and +-1."""
    with mpmath.workprec(80):
        half = [float(mpmath.cospi(mpmath.mpf(2 * k) / e)) for k in range(e // 2 + 1)]
    table = np.array(half + half[1:(e + 1) // 2][::-1])
    table.setflags(write=False)
    return table


def _divmod_monic(poly, div) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of poly by the monic div (constant terms first), exactly."""
    rem, deg, terms = np.array(poly, dtype=object), len(div) - 1, np.flatnonzero(div)
    div = np.array(div, dtype=object)[terms]        # cyclotomic divisors are sparse
    quot = np.zeros(max(len(rem) - deg, 0), dtype=object)
    for i in range(len(rem) - 1, deg - 1, -1):
        quot[i - deg] = c = rem[i]
        if c:
            rem[i - deg + terms] -= c * div
    return quot, rem[:deg]


@functools.lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple[int, ...]:
    """Phi_e: x^e - 1 divided by Phi_d for each proper divisor d of e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in (d for d in range(1, e) if e % d == 0):
        poly = _divmod_monic(poly, _cyclotomic(d))[0]
    return tuple(poly)


def _exact_at_least(coeffs, threshold: Fraction) -> bool:
    """sum_k coeffs[k] zeta_e^k >= threshold (e = len(coeffs)) for a real element
    of Z[zeta_e]; a tie counts as >=. The difference is reduced modulo Phi_e: if
    it is not 0, its enclosure excludes 0 at some precision."""
    beta = threshold.denominator * _divmod_monic(coeffs, _cyclotomic(len(coeffs)))[1]
    beta[0] -= threshold.numerator
    if not any(beta):
        return True
    iv = MPIntervalContext()        # private, so mpmath.iv keeps its precision
    iv.prec = 64
    while True:
        value = sum(int(b) * iv.cos(2 * iv.pi * k / len(coeffs)) for k, b in enumerate(beta) if b)
        if value.a > 0 or value.b < 0:
            return bool(value.a > 0)
        iv.prec *= 2


class FourierMagnitudes:
    """|sum_{x in A} gamma(x)|^2 for every degree-one character, cached per (G, A).

    For gamma with phase row r over e this is sum_y w(y) zeta_e^{r(y)}, w the
    counts of `spectrum_weight`. Held by the group, it holds no reference back, so
    that no cycle keeps a dropped group alive until the cyclic collector runs."""

    def __init__(self, group: FiniteGroup, a: GroupSubset):
        if a.group is not group:
            raise ValueError("subset belongs to a different group")
        self.order = group.order
        counts = np.array(spectrum_weight(a).counts)
        self._support = np.flatnonzero(counts)
        self.weights = counts[self._support]
        lp = linear_phases(group)
        self._rows, self.exponent = lp.rows, lp.exponent
        self.estimates = _cos_table(lp.exponent)[lp.rows[:, self._support]] @ self.weights
        # with u = 2^-53 an estimate errs by at most (|supp w| + 1) u |A|^2: u per
        # table entry and |supp w| u from the product; doubled, and 3 more for slack
        self.error = 2.0 ** -52 * (len(self.weights) + 4) * len(a) ** 2

    def coefficients(self, index: int) -> np.ndarray:
        """c with mag_sq(index) = sum_k c_k zeta_e^k."""
        return np.bincount(self._rows[index, self._support], self.weights,
                           minlength=self.exponent).astype(np.int64)

    def mag_sq(self, index: int) -> MagSq:
        """The exact value when it is rational (then an integer), else the estimate."""
        rem = _divmod_monic(self.coefficients(index), _cyclotomic(self.exponent))[1]
        return float(self.estimates[index]) if any(rem[1:]) else Fraction(int(rem[0]))

    def transform_abs(self, index: int) -> float:
        return math.sqrt(max(float(self.estimates[index]), 0.0)) / self.order


def _magnitudes(group: FiniteGroup, a: GroupSubset) -> FourierMagnitudes:
    cache = group.__dict__.setdefault("_fourier_magnitudes", {})
    if a.mask not in cache:
        cache[a.mask] = FourierMagnitudes(group, a)
    return cache[a.mask]


# ---------------------------------------------------------------------------
# large spectra


@dataclass(frozen=True, eq=False)
class LargeSpectrum:
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
    group = a.group
    mags = _magnitudes(group, a)
    threshold = max(Fraction(0), (1 - eps * eps / 2)) * len(a) ** 2
    # float(threshold) errs by at most 2^-53 threshold; beyond both errors the
    # estimate's side is the exact side, and the rest are decided in Z[zeta_e]
    t = float(threshold)
    bound = mags.error + 2.0 ** -52 * t
    verdict = (mags.estimates - t > bound) | (threshold == 0)   # no square is below 0
    for i in np.flatnonzero(~verdict & (np.abs(mags.estimates - t) <= bound)):
        verdict[i] = _exact_at_least(mags.coefficients(i), threshold)
    members = np.flatnonzero(verdict).tolist()
    charset = CharSet(group, members)
    assert charset.contains_identity   # hat 1_A(0) = P(A) clears every threshold
    return LargeSpectrum(a, eps, charset, tuple(mags.transform_abs(i) for i in members),
                         threshold)


# ---------------------------------------------------------------------------
# spectrum weight and metric


@dataclass(frozen=True, eq=False)
class SpectrumWeight:
    a: GroupSubset
    weight: ClassFunction
    counts: tuple[int, ...]     # |A  intersect  xA| per element x

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(self.counts), len(self.a) * self.a.group.order)


def spectrum_weight(a: GroupSubset) -> SpectrumWeight:
    if len(a) == 0:
        raise ValueError("spectrum_weight needs a nonempty set")
    g = a.group
    idx = np.fromiter(a, dtype=np.int64, count=len(a))
    prods = g.mul_table[np.ix_(idx, g.inv_table[idx])]
    counts = np.bincount(prods.ravel(), minlength=g.order)
    vals = counts.astype(np.complex128) / len(a)
    w = SpectrumWeight(a, ClassFunction(g, vals), tuple(int(c) for c in counts))
    assert w.counts[g.identity] == len(a)           # w(identity) = 1 after scaling
    assert w.mean == Fraction(len(a), g.order)      # E_x w = P(A)
    return w


@dataclass(frozen=True, eq=False)
class SpectrumDistance:
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
    mag = _magnitudes(a.group, a).mag_sq(diff)
    rho_sq = 2 - 2 * mag / len(a) ** 2
    return SpectrumDistance(math.sqrt(max(float(rho_sq), 0.0)), rho_sq, isinstance(mag, Fraction))


def spectrum_distance_identity_check(a: GroupSubset,
                                     gamma: LinearCharacter) -> dict:
    """rho(0, gamma)^2 against 2(1 - P(A)^-2 |hat 1_A(gamma)|^2); both forms reported."""
    g = a.group
    dist = spectrum_distance_exact(a, LinearCharacter(g, 0), gamma)
    # summed directly over A, not through the autocorrelation counts behind rho
    hat = np.exp(2j * np.pi * gamma.row[list(a.indices())] / gamma.exponent).sum() / g.order
    p = len(a) / g.order
    reference = 2 * (1 - abs(hat) ** 2 / p ** 2)
    return {
        "rho": dist.rho,
        "rho_squared": float(dist.rho_sq),
        "reference_squared": reference,
        "reference_unsquared_form": math.sqrt(max(reference, 0.0)),
        "residual": abs(float(dist.rho_sq) - reference),
    }


# ---------------------------------------------------------------------------
# standing hypotheses of the growth section


def standing_hypotheses(group: FiniteGroup, s: GroupSubset,
                        a: GroupSubset) -> list[HypothesisRecord]:
    records = []
    if group.order <= MONOMIAL_ORDER_CAP:
        mono, _ = is_monomial(group)
        records.append(HypothesisRecord(
            "group is monomial", "holds" if mono else "fails"))
    else:
        records.append(HypothesisRecord(
            "group is monomial", "unchecked", f"order {group.order} beyond the check cap"))
    generates = len(closure(group, s.indices())) == group.order
    has_id = group.identity in s
    records.append(HypothesisRecord(
        "S generates G and contains the identity",
        "holds" if generates and has_id else "fails"))
    preds = set_predicates(a)
    records.append(HypothesisRecord(
        "A is symmetric and normal",
        "holds" if preds.symmetric and preds.normal else "fails"))
    sa = product_set(s, a)
    tight = Fraction(len(sa)) ** 2 < 2 * Fraction(len(a)) ** 2
    records.append(HypothesisRecord(
        "P(S.A) < sqrt(2) P(A)", "holds" if tight else "fails",
        f"|S.A| = {len(sa)}, |A| = {len(a)}"))
    return records


def _all_hold(records: list[HypothesisRecord]) -> bool:
    return all(r.status != "fails" for r in records)


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
    steps = g.mul_table[:, list(a.indices())].ravel()      # y s for y in G, s in A
    counts = np.zeros(g.order, dtype=object)
    counts[g.identity] = 1
    for _ in range(k):
        counts, prev = np.zeros(g.order, dtype=object), counts
        np.add.at(counts, steps, np.repeat(prev, len(a)))
    return counts.tolist()


@dataclass(frozen=True, eq=False)
class EnergyReport:
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
    records.append(HypothesisRecord(
        "(1 - eta^2/2)^(k-1) <= P(A) / 2 P(A^k)",
        "holds" if growth_hyp else "fails"))

    if not _all_hold(records):
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
    mags = _magnitudes(group, a)
    members = _lspec(a, eta).members.indices
    sq = len(a) ** 2
    x = mags.estimates[list(members)] / sq
    lhs_units = math.fsum(np.prod(np.tile(x, (k, 1)), axis=0))
    mid_units = float(mid_exact * n ** (2 * k) / sq ** k)
    r = mags.error / sq + 2.0 ** -52
    bound = 2 * len(x) * k * (r + 2.0 ** -53) + 2.0 ** -52 * (lhs_units + mid_units)
    if abs(lhs_units - mid_units) > bound:
        lhs_ge_mid = lhs_units > mid_units
    else:                           # near a tie: compare in Z[zeta_e]
        lhs_coeffs = sum(_cyclic_power(mags.coefficients(i), k) for i in members)
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
        if d > 1 and mu.spec_rad > threshold + 1e-9:
            nonlinear_ok = False
    float_residual = abs(float_total / 2 - float(mid_exact))

    lhs = lhs_units * float(Fraction(sq, n * n) ** k)
    report = EnergyReport(records, eta, k, lhs, float(mid_exact),
                          float(rhs_exact), bool(lhs_ge_mid), bool(mid_ge_rhs),
                          float_residual, nonlinear_ok)
    if not report.all_ok:
        raise FalsifiedError("spectral energy inequality failed with hypotheses in force",
                             report)
    return report


# ---------------------------------------------------------------------------
# Chang covering


@dataclass(frozen=True, eq=False)
class ChangCover:
    x: CharSet
    r: int
    within_bound: bool
    covering_ok: bool


def chang_cover(s: CharSet, t: CharSet, r: int) -> ChangCover:
    """Greedily absorb elements of S not reachable from Span(X) + T - T."""
    if len(s) == 0 or len(t) == 0:
        raise ValueError("chang_cover needs nonempty character sets")
    chosen: list[int] = []
    t_diff = charset_sum(t, t.negate())
    covered = t_diff
    while missing := [i for i in s.indices if i not in covered.indices]:
        chosen.append(missing[0])
        covered = charset_sum(char_span(CharSet(s.group, chosen)), t_diff)
    x = CharSet(s.group, chosen)
    covering_ok = set(s.indices) <= set(covered.indices)
    return ChangCover(x, r, len(x) <= r, covering_ok)


# ---------------------------------------------------------------------------
# spectrum doubling


@dataclass(frozen=True, eq=False)
class WindowRow:
    k: int
    size: int
    bound_ok: bool


@dataclass(frozen=True, eq=False)
class DoublingReport:
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


def _power_cycle(a: GroupSubset) -> tuple[int, int, list[int]]:
    """Detect the eventual cycle of the power sequence A^0, A^1, ...; returns
    (cycle start, period, sizes up to the first repeat)."""
    seen: dict[int, int] = {}
    sizes = []
    cur = GroupSubset.identity_only(a.group)
    n = 0
    while cur.mask not in seen:
        seen[cur.mask] = n
        sizes.append(len(cur))
        cur = product_set(cur, a)
        n += 1
    start = seen[cur.mask]
    return start, n - start, sizes


def _power_size(k: int, start: int, period: int, sizes: list[int]) -> int:
    if k < len(sizes):
        return sizes[k]
    return sizes[start + (k - start) % period]


def lspec_doubling_cover(group: FiniteGroup, s: GroupSubset, a: GroupSubset,
                         eps: Fraction, d: float) -> DoublingReport:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("lspec_doubling_cover needs eps in (0, 1]")
    if d < 1:
        raise ValueError("lspec_doubling_cover needs d >= 1")
    records = standing_hypotheses(group, s, a)

    start, period, sizes = _power_cycle(a)
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
        size_k = _power_size(k, start, period, sizes)
        ok = math.log(size_k / len(a)) <= d * math.log(k) + 1e-12
        window_rows.append(WindowRow(k, size_k, ok))
        ok_all = ok_all and ok
    if k_lo > k_hi:
        records.append(HypothesisRecord("growth window", "vacuous",
                                        f"empty window [{k_lo}, {k_hi}]"))
    else:
        records.append(HypothesisRecord(
            "P(A^k) <= k^d P(A) on the growth window",
            "holds" if ok_all else "fails",
            f"window [{k_lo}, {k_hi}], power cycle from {start} period {period}" + (
                " (clipped)" if clipped else "")))

    eta = eps / 2  # the smallest radius the argument touches
    k_eta_d = math.ceil(16 * d * math.log(8 * d / float(eta) ** 2) / float(eta) ** 2)

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
    covering_ok = set(lhs.indices) <= set(rhs.indices)
    report = DoublingReport(records, eps, d, "covered", found_r, k_eta_d,
                            tuple(window_rows), clipped, tuple(scan_rows),
                            cover.x, covering_ok, None)
    if _all_hold(records) and not (covering_ok and cover.within_bound
                                   and cover.covering_ok):
        raise FalsifiedError("spectrum doubling cover failed with hypotheses in force",
                             report)
    return report


# ---------------------------------------------------------------------------
# size of the Bohr set of the spectrum


@dataclass(frozen=True, eq=False)
class SpectrumSizeReport:
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
    """LinBohr(members, 1/(2 pi)), each Bohr norm compared with 1/(2 pi) at the
    working precision."""
    rho = bohr_norm(members)
    with mpmath.workdps(_MP_DPS):
        inv_two_pi = 1 / (2 * mpmath.pi)
        far = {r for r in set(rho.values) if mpmath.mpf(r.numerator) / r.denominator > inv_two_pi}
    return GroupSubset.from_indices(group, [x for x, r in enumerate(rho.values) if r not in far])


def lspec_size_check(group: FiniteGroup, s: GroupSubset, a: GroupSubset,
                     eps: Fraction, k: int, d: float) -> SpectrumSizeReport:
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("lspec_size_check needs eps in (0, 1]")
    records = standing_hypotheses(group, s, a)
    eps_f = float(eps)
    k_min = 16 * d * math.log(8 * d / eps_f ** 2) / eps_f ** 2
    records.append(HypothesisRecord(
        "k >= 16 eps^-2 d log(8 eps^-2 d)",
        "holds" if k >= k_min - 1e-9 else "fails",
        f"k = {k}, needs >= {k_min:.3f}"))
    start, period, sizes = _power_cycle(a)
    size_k = _power_size(k, start, period, sizes)
    growth_ok = math.log(size_k / len(a)) <= d * math.log(k) + 1e-12
    records.append(HypothesisRecord("P(A^k) <= k^d P(A)",
                                    "holds" if growth_ok else "fails",
                                    f"|A^k| = {size_k}"))

    spec = _lspec(a, eps)
    ball = _inv_two_pi_ball(group, spec.members)
    lhs = Fraction(len(ball), group.order)
    rhs_log = math.log(8) + d * math.log(k) + math.log(len(a) / group.order)
    ok = math.log(float(lhs)) <= rhs_log + 1e-12

    report = SpectrumSizeReport(records, eps, k, d, lhs, rhs_log, ok,
                                len(ball), len(spec.members))
    if _all_hold(records) and not ok:
        raise FalsifiedError("spectrum Bohr-set size bound failed with hypotheses in force",
                             report)
    return report
