"""Large spectra, their metric, spectral energy, and spectrum covering results.

Membership and energy thresholds are exact wherever the character phases allow
(denominators 1,2,3,4,6 give rational squared magnitudes); everywhere else a
50-digit working precision stands in, with an inclusive 1e-30 comparison band.
That precision is set locally around each evaluation, never globally.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
import numpy as np

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
    linear_characters,
    linear_phases,
)
from .bohr import CharSet, bohr_norm, char_span, charset_sum
from .setops import power_set, product_set, set_predicates

_MP_DPS = 50
with mpmath.workdps(_MP_DPS):
    _MP_BAND = mpmath.mpf("1e-30")
_EXACT_DENOMS = {1, 2, 3, 4, 6}
# 2 cos(2 pi k/12) at every k by which two phases with one of those denominators
# can differ (as twelfths)
_TWO_COS_TWELFTHS = {0: 2, 2: 1, 3: 0, 4: -1, 6: -2, 8: -1, 9: 0, 10: 1}

MagSq = Union[Fraction, mpmath.mpf]


@dataclass(frozen=True, eq=False)
class HypothesisRecord:
    name: str
    status: str           # "holds" | "fails" | "unchecked" | "vacuous"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "holds"


def _residue_counts(residues: np.ndarray, weights=None) -> list[tuple[int, int]]:
    """Distinct phase numerators in order of first appearance, each with its total weight."""
    uniq, first, inv = np.unique(residues, return_index=True, return_inverse=True)
    totals = np.bincount(inv, weights=weights, minlength=len(uniq))
    return [(int(uniq[k]), int(totals[k])) for k in np.argsort(first)]


def _reduced_lcm(residues: np.ndarray, e: int) -> np.ndarray:
    """Per row, the lcm of the reduced denominators of the phases residues / e."""
    return e // np.gcd(np.gcd.reduce(residues, axis=-1), e)


def _mp_angle(p: int, e: int) -> mpmath.mpf:
    """2 pi p/e at the working precision, from the reduced fraction."""
    g = math.gcd(p, e)
    return 2 * mpmath.pi * mpmath.mpf(p // g) / (e // g)


class FourierMagnitudes:
    """|sum_{x in A} gamma(x)|^2 for every degree-one character, cached per (G, A).
    Held by the group, it holds the group weakly, so that no reference cycle keeps
    a dropped group alive until the cyclic garbage collector runs."""

    def __init__(self, group: FiniteGroup, a: GroupSubset):
        if a.group is not group:
            raise ValueError("subset belongs to a different group")
        self._group = weakref.ref(group)
        self.order = group.order
        e = linear_phases(group).exponent
        residues = linear_phases(group).rows[:, np.fromiter(a, dtype=np.int64, count=len(a))]
        self._mag_sq: list[MagSq] = []
        for row, denom_lcm in zip(residues, _reduced_lcm(residues, e).tolist()):
            phase_counts = _residue_counts(row)
            if denom_lcm in _EXACT_DENOMS:
                # phases r/12: |sum_r c_r e^{2 pi i r/12}|^2 = sum_{r,s} c_r c_s cos(2 pi (r-s)/12)
                twelfths = [(12 * p // e, cnt) for p, cnt in phase_counts]
                self._mag_sq.append(Fraction(sum(
                    c * d * _TWO_COS_TWELFTHS[(r - t) % 12]
                    for r, c in twelfths for t, d in twelfths), 2))
            else:
                with mpmath.workdps(_MP_DPS):
                    re = mpmath.mpf(0)
                    im = mpmath.mpf(0)
                    for p, cnt in phase_counts:
                        ang = _mp_angle(p, e)
                        re += cnt * mpmath.cos(ang)
                        im += cnt * mpmath.sin(ang)
                    self._mag_sq.append(re * re + im * im)

    @property
    def chars(self) -> list[LinearCharacter]:
        return linear_characters(self._group())

    def mag_sq(self, index: int) -> MagSq:
        return self._mag_sq[index]

    def transform_abs(self, index: int) -> float:
        return math.sqrt(max(float(self._mag_sq[index]), 0.0)) / self.order

    def at_least(self, index: int, threshold: Fraction) -> bool:
        """mag_sq >= threshold; exact when rational, else compared on the
        transform scale with an inclusive 1e-12 tolerance."""
        m = self._mag_sq[index]
        if isinstance(m, Fraction):
            return m >= threshold
        n = self.order
        with mpmath.workdps(_MP_DPS):
            thr_abs = mpmath.sqrt(mpmath.mpf(threshold.numerator) / threshold.denominator) / n
            return mpmath.sqrt(m) / n >= thr_abs - mpmath.mpf("1e-12")


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
    members = [i for i in range(len(mags._mag_sq)) if mags.at_least(i, threshold)]
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
    w = spectrum_weight(a)
    e = gamma.exponent
    counts = np.array(w.counts)
    support = np.flatnonzero(counts)
    diff = (gamma_prime.row - gamma.row)[support] % e
    phase_counts = _residue_counts(diff, counts[support])
    total = len(a) ** 2
    if _reduced_lcm(diff, e) in _EXACT_DENOMS:
        # |1 - e^{2 pi i q}|^2 = 2 - 2 cos(2 pi q), rational here
        acc = sum(cnt * (2 - _TWO_COS_TWELFTHS[12 * p // e]) for p, cnt in phase_counts)
        rho_sq: MagSq = Fraction(acc, total)
        return SpectrumDistance(math.sqrt(float(rho_sq)), rho_sq, True)
    with mpmath.workdps(_MP_DPS):
        acc = mpmath.mpf(0)
        for p, cnt in phase_counts:
            acc += cnt * (2 - 2 * mpmath.cos(_mp_angle(p, e)))
        rho_sq = acc / total
        return SpectrumDistance(float(mpmath.sqrt(rho_sq)), rho_sq, False)


def spectrum_distance_identity_check(a: GroupSubset,
                                     gamma: LinearCharacter) -> dict:
    """rho(0, gamma)^2 against 2(1 - P(A)^-2 |hat 1_A(gamma)|^2); both forms reported."""
    g = a.group
    dist = spectrum_distance_exact(a, LinearCharacter(g, 0), gamma)
    hat_sq = float(_magnitudes(g, a).mag_sq(gamma.index)) / g.order ** 2
    p = len(a) / g.order
    reference = 2 * (1 - hat_sq / p ** 2)
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


def _counting_convolution_power(a: GroupSubset, k: int) -> list[int]:
    """c_k(x) = number of k-tuples over A multiplying to x, in exact integers."""
    g = a.group
    members = list(a)
    counts = [0] * g.order
    counts[g.identity] = 1
    for _ in range(k):
        nxt = [0] * g.order
        for y, c in enumerate(counts):
            if c:
                row = g.mul_table[y]
                for s in members:
                    nxt[int(row[s])] += c
        counts = nxt
    return counts


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

    # left side: exact (or 50-digit) sum over the large spectrum
    mags = _magnitudes(group, a)
    spec = _lspec(a, eta)

    # middle: half the full-table energy, via the exact counting convolution
    c_k = _counting_convolution_power(a, k)
    mid_exact = Fraction(sum(c * c for c in c_k), 2 * n ** (2 * k - 1))

    rhs_exact = Fraction(len(a), n) ** (2 * k) / (2 * Fraction(len(a_k), n))

    with mpmath.workdps(_MP_DPS):
        lhs_exact: MagSq = Fraction(0)
        for i in spec.members.indices:
            lhs_exact = lhs_exact + mags.mag_sq(i) ** k
        scale = n ** (2 * k)
        if isinstance(lhs_exact, Fraction):
            lhs_cmp: MagSq = lhs_exact / scale
            lhs_ge_mid = lhs_cmp >= mid_exact
        else:
            lhs_cmp = lhs_exact / mpmath.mpf(scale)
            lhs_ge_mid = lhs_cmp >= (mpmath.mpf(mid_exact.numerator) / mid_exact.denominator
                                     - _MP_BAND)
    mid_ge_rhs = mid_exact >= rhs_exact

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

    report = EnergyReport(records, eta, k, float(lhs_cmp), float(mid_exact),
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
