import cmath
import gc
import math
import subprocess
import sys
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp

from monoball import spectra
from monoball.bohr import CharSet, charset_sum, linbohr, linbohr_squared
from monoball.groups import (
    GroupSubset,
    build_group,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    permutation_group,
    product_group,
    quaternion_group,
)
from monoball.harmonic import (
    LinearCharacter,
    character_table,
    is_monomial,
    linear_characters,
    linear_phases,
)
from monoball.pipeline import find_l, freiman_ball
from monoball.setops import growth_profile, normalize_set, power_set, set_predicates
from monoball.spectra import (
    FourierMagnitudes,
    chang_cover,
    large_spectrum,
    lspec_doubling_cover,
    lspec_size_check,
    spectral_energy_check,
    spectrum_distance,
    spectrum_distance_exact,
    spectrum_weight,
    standing_hypotheses,
)
from test_golden import _c4xc6_relabelled      # C4 x C6 relabelled: the identity is 23


def _subset(g, ids):
    return GroupSubset.from_indices(g, ids)


def _cyc_char(g, k):
    return next(lam for lam in linear_characters(g) if _char_freq(g, lam) == k % g.order)


def _char_freq(g, lam):
    # inverse of _cyc_char on a cyclic group
    return int(lam.phases[1] * g.order) % g.order


def _brute_lspec(g, ids, eps):
    """Float reference: indices k of cyclic characters above the threshold."""
    n = g.order
    thr = math.sqrt(float(1 - Fraction(eps) ** 2 / 2)) * len(ids) / n
    out = []
    for k in range(n):
        hat = abs(sum(cmath.exp(2j * math.pi * k * x / n) for x in ids)) / n
        if hat >= thr - 1e-9:
            out.append(k)
    return sorted(out)


# ---------------------------------------------------------------------------
# large spectra


def test_lspec_cyclic12_subgroup_every_radius():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    for eps in (Fraction(1, 100), Fraction(1, 2), Fraction(1), Fraction(7, 5)):
        spec = large_spectrum(a, eps)
        assert sorted(_char_freq(g, c) for c in spec.members.chars) == [0, 3, 6, 9]
        assert all(v == pytest.approx(0.25, abs=1e-12) for v in spec.values)


def test_lspec_cyclic12_exact_magnitudes():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    mags = FourierMagnitudes(a)
    by_freq = {_char_freq(g, lam): i for i, lam in enumerate(linear_characters(g))}
    for k in range(12):
        m = mags.mag_sq(by_freq[k])
        assert isinstance(m, Fraction)
        assert m == (9 if k % 3 == 0 else 0)


def test_lspec_trivial_member_and_value():
    g = dihedral_group(12)
    a = normalize_set(_subset(g, [1, 8]), symmetrize=True, add_identity=True)
    spec = large_spectrum(a, Fraction(1, 3))
    assert spec.members.contains_identity
    triv = next(i for i, c in enumerate(spec.members.chars) if c.is_trivial)
    assert spec.values[triv] == pytest.approx(len(a) / 12, abs=1e-12)


def test_lspec_values_follow_members_in_ascending_index_order():
    g = cyclic_group(16)
    a = _subset(g, [15, 0, 1, 5])
    mags = FourierMagnitudes(a)
    for eps in (Fraction(1, 4), Fraction(3, 4), Fraction(5, 4)):
        spec = large_spectrum(a, eps)
        idx = spec.members.indices()
        assert list(idx) == sorted(idx) == list(spec.members)
        assert len(spec.values) == len(idx)
        assert spec.values == tuple(math.sqrt(max(float(mags.estimates[i]), 0.0)) / g.order
                                    for i in idx)


def test_lspec_heisenberg_center_annihilator():
    g = heisenberg_group(3)
    center = _subset(g, [0, 1, 2])
    spec = large_spectrum(center, Fraction(1))
    assert len(spec.members) == 9
    assert all(v == pytest.approx(1 / 9, abs=1e-12) for v in spec.values)
    # every member is constant 1 on the center
    for c in spec.members.chars:
        assert all(c.phases[x] == 0 for x in center)


def test_lspec_monotone_in_radius():
    g = cyclic_group(16)
    a = _subset(g, [15, 0, 1])
    prev = None
    for i in range(1, 12):
        spec = large_spectrum(a, Fraction(i, 8))
        cur = {c.phases for c in spec.members.chars}
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_lspec_symmetric_and_contains_zero():
    for g, ids in [
        (cyclic_group(16), [2, 5]),
        (dihedral_group(12), [1, 7]),
        (heisenberg_group(3), [9, 3]),
    ]:
        a = normalize_set(_subset(g, ids), symmetrize=True, add_identity=True)
        spec = large_spectrum(a, Fraction(3, 4))
        assert spec.members.contains_identity
        assert spec.members.symmetric


def test_lspec_matches_float_oracle_on_cyclic16():
    g = cyclic_group(16)
    a = _subset(g, [14, 15, 0, 1, 2])
    for i in (1, 2, 3, 5, 8, 11):
        eps = Fraction(i, 8)
        spec = large_spectrum(a, eps)
        got = sorted(_char_freq(g, c) for c in spec.members.chars)
        assert got == _brute_lspec(g, [14, 15, 0, 1, 2], eps)


def test_lspec_mu_parseval_abelian():
    g = cyclic_group(16)
    a = _subset(g, [0, 1, 15, 4])
    mags = FourierMagnitudes(a)
    total = sum(float(mags.mag_sq(i)) for i in range(16)) / 16 ** 2
    assert total == pytest.approx(len(a) / 16, abs=1e-9)


def test_lspec_linear_energy_bounded_nonabelian():
    g = heisenberg_group(3)
    a = _subset(g, [0, 1, 2])
    mags = FourierMagnitudes(a)
    total = sum(float(mags.mag_sq(i)) for i in range(9)) / 27 ** 2
    assert total <= len(a) / 27 + 1e-9


def test_folded_estimates_lie_within_the_certified_error():
    """The estimates read one element of each inverse pair of supp w; each lies
    within `error` of |sum_{x in A} gamma(x)|^2 at 40 digits, summed directly
    over A, and the exact coefficients count every pair (x, x') of A."""
    rng = np.random.default_rng(23)
    groups = [cyclic_group(360), cyclic_group(64), dihedral_group(24), quaternion_group(),
              permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), heisenberg_group(3),
              product_group([cyclic_group(2), heisenberg_group(3)]),
              product_group([cyclic_group(5), dihedral_group(8)]), build_group(_c4xc6_relabelled())]
    plain = 0
    for g in groups:
        lp = linear_phases(g)
        e = lp.exponent
        table = spectra._cos_table(e)
        assert np.array_equal(table[-np.arange(e) % e], table)     # the fold's premise
        with mpmath.workdps(40):
            roots = [mpmath.expjpi(mpmath.mpf(2 * k) / e) for k in range(e)]
        for size in (1, 2, 3, g.order // 4, g.order // 2, g.order - 1):
            a = _subset(g, rng.choice(g.order, size, replace=False))
            preds = set_predicates(a)
            plain += not (preds.symmetric or preds.normal)
            mags = FourierMagnitudes(a)
            support = np.flatnonzero(spectrum_weight(a).counts)
            pairs = len(set(np.minimum(support, g.inv(support)).tolist()))
            assert mags.error == 2.0 ** -52 * (pairs + 4) * len(a) ** 2
            phases = lp.block(None, list(a))
            with mpmath.workdps(40):
                for i, row in enumerate(phases):
                    value = abs(mpmath.fsum(roots[k] for k in row)) ** 2
                    assert abs(value - float(mags.estimates[i])) <= mags.error, (g.name, size, i)
            reference = np.array([np.bincount((row[:, None] - row).ravel() % e, minlength=e)
                                  for row in phases])
            assert np.array_equal(mags.coefficients(range(len(phases))), reference)
    assert plain >= 20       # 25 of the 54 sets are neither symmetric nor normal


def test_estimates_are_the_cos_table_at_the_transposed_int64_block():
    """The estimates gather the cos table at the int64 phase block laid out as
    (coords @ keys.T % e).T and take one matvec with the folded weights, bit
    for bit: a block of another dtype or layout moved the last bits."""
    rng = np.random.default_rng(28)
    for g in (cyclic_group(360), cyclic_group(768), dihedral_group(24),
              product_group([cyclic_group(2), heisenberg_group(3)]),
              product_group([cyclic_group(6), cyclic_group(10), cyclic_group(4)])):
        lp = linear_phases(g)
        e = lp.exponent
        phases = (lp.coords @ lp.keys.T % e).T
        for size in (1, 3, g.order // 5, g.order // 2, 3 * g.order // 5):
            a = _subset(g, rng.choice(g.order, size, replace=False))
            counts = spectra._autocorrelation_counts(a)
            support = np.flatnonzero(counts)
            inv = g.inv(support)
            least = support <= inv
            folded = np.where(support == inv, 1.0, 2.0)[least] * counts[support][least]
            want = spectra._cos_table(e)[phases[:, support[least]]] @ folded
            assert np.array_equal(FourierMagnitudes(a).estimates, want), (g.name, size)


def test_inverse_characters_share_one_estimate():
    """`estimates` evaluates the least character i of each inverse pair
    {i, neg(i)} and writes it to both, bit for bit: the reference is the full
    block's evaluation at the representatives, scattered to both partners.
    On C997 the full block's own rows i and neg(i) can differ in the last bits,
    so only a fold gives the two partners one value."""
    rng = np.random.default_rng(29)
    for g, pairs in ((cyclic_group(360), 181), (cyclic_group(768), 385), (dihedral_group(24), 4),
                     (product_group([cyclic_group(2), heisenberg_group(3)]), 10),
                     (product_group([cyclic_group(6), cyclic_group(10), cyclic_group(4)]), 124),
                     (cyclic_group(997), 499), (dihedral_group(200), 4)):
        lp = linear_phases(g)
        e, n = lp.exponent, len(lp.keys)
        neg = lp.negations(np.arange(n))
        reps = np.flatnonzero(np.arange(n) <= neg)
        assert len(reps) == pairs, g.name
        phases = (lp.coords @ lp.keys.T % e).T
        for size in (1, 3, g.order // 5, g.order // 2, 3 * g.order // 5):
            a = _subset(g, rng.choice(g.order, size, replace=False))
            counts = spectra._autocorrelation_counts(a)
            support = np.flatnonzero(counts)
            inv = g.inv(support)
            least = support <= inv
            folded = np.where(support == inv, 1.0, 2.0)[least] * counts[support][least]
            full = spectra._cos_table(e)[phases[:, support[least]]] @ folded
            want = np.full(n, np.nan)
            want[reps] = want[neg[reps]] = full[reps]
            estimates = FourierMagnitudes(a).estimates
            assert np.array_equal(estimates, want), (g.name, size)
            assert np.array_equal(estimates, estimates[neg]), (g.name, size)


def test_coefficients_add_row_offsets_into_a_fresh_int64_block():
    """`coefficients` adds e j to row j of the block `block` returns, in place:
    that block is a new int64 array, so offsets up to e |Lin| stay exact and
    nothing is written back into the phase tables."""
    g = cyclic_group(768)
    lp, e = linear_phases(g), 768
    a = _subset(g, np.random.default_rng(29).choice(g.order, 100, replace=False))
    mags = FourierMagnitudes(a)
    support = np.flatnonzero(spectra._autocorrelation_counts(a))
    before = lp.block(None, support)
    assert before.dtype == np.int64 and before.flags.writeable
    coeffs = mags.coefficients(np.arange(e))
    rows = lp.block(None, a.array())
    want = np.array([np.bincount((row[:, None] - row).ravel() % e, minlength=e) for row in rows])
    assert np.array_equal(coeffs, want)
    assert np.array_equal(lp.block(None, support), before)


@st.composite
def _cyclic_cases(draw):
    n = draw(st.integers(1, 64))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    q = draw(st.integers(1, 60))
    p = draw(st.integers(1, q * 141 // 100))   # eps = p/q <= 1.41 < sqrt(2)
    return n, sorted(ids), Fraction(p, q)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_cyclic_cases())
def test_lspec_matches_100_digit_oracle(case):
    n, ids, eps = case
    g = cyclic_group(n)
    spec = large_spectrum(_subset(g, ids), eps)
    lp = linear_phases(g)
    members = set(spec.members.indices())
    with mpmath.workdps(100):
        thr = mpmath.mpf(spec.threshold_sq.numerator) / spec.threshold_sq.denominator
        for i, row in enumerate(lp.block()):
            value = abs(sum(mpmath.expjpi(mpmath.mpf(2 * int(row[x])) / lp.exponent)
                            for x in ids)) ** 2
            if abs(value - thr) > mpmath.mpf("1e-60"):
                assert (i in members) == (value > thr), (i, value, thr)
            if i in members:
                v = spec.values[spec.members.indices().index(i)]
                assert v == pytest.approx(float(mpmath.sqrt(value)) / n, rel=1e-12, abs=1e-15)


def test_lspec_ties_are_members(monkeypatch):
    verdicts = []
    real = spectra._exact_at_least

    def recording(coeffs, threshold):
        verdicts.append(real(coeffs, threshold))
        return verdicts[-1]

    monkeypatch.setattr(spectra, "_exact_at_least", recording)
    g = cyclic_group(8)
    a = _subset(g, [0, 1, 4])
    # |1 + zeta_8^k + zeta_8^4k|^2 is 1 at every odd k and at k = 4: the threshold
    spec = large_spectrum(a, Fraction(4, 3))
    assert spec.threshold_sq == 1
    assert len(spec.members) == 8
    assert len(verdicts) >= 1 and all(verdicts)     # the ties were decided exactly
    spec = large_spectrum(a, Fraction(13, 10))
    assert sorted(_char_freq(g, c) for c in spec.members.chars) == [0, 2, 6]
    # the tie value is rational, so it is exact though the phases are eighths
    mags = FourierMagnitudes(a)
    odd = next(i for i, lam in enumerate(linear_characters(g)) if _char_freq(g, lam) == 1)
    assert mags.mag_sq(odd) == Fraction(1) and isinstance(mags.mag_sq(odd), Fraction)
    d = spectrum_distance_exact(a, _cyc_char(g, 0), _cyc_char(g, 1))
    assert d.exact and d.rho_sq == Fraction(16, 9)
    # on C16 the float estimates of two of the ties fall just below the threshold
    g = cyclic_group(16)
    a = _subset(g, [0, 9, 13])
    spec = large_spectrum(a, Fraction(4, 3))
    low = [i for i, est in enumerate(FourierMagnitudes(a).estimates) if 1 - 1e-12 < est < 1]
    assert low and set(low) <= set(spec.members.indices())


def test_exact_comparison_separates_near_ties():
    prec = mpmath.iv.prec
    root2 = [0, 1, 0, 0, 0, 0, 0, 1]       # zeta_8 + zeta_8^-1 = sqrt(2)
    below = Fraction("1.41421356237309504880168872420969807856967187537694")
    above = below + Fraction(1, 10 ** 50)
    assert spectra._exact_at_least(root2, below)
    assert not spectra._exact_at_least(root2, above)
    assert spectra._exact_at_least([2, 0, 0, 0, 0, 0, 0, 0], Fraction(2))
    assert not spectra._exact_at_least([0, 1, 0, 0, 0, 0, 0, 1], Fraction(3, 2))
    assert mpmath.iv.prec == prec


def _mpmath_cos(k, e):
    """float(mpmath.cospi(mpf(2k)/e)) at 80 bits, the entry of the table
    `_cos_table` replaced, by the libmp calls that expression runs."""
    nearest = libmp.round_nearest
    x = libmp.mpf_div(libmp.from_int(2 * k), libmp.from_int(e), 80, nearest)
    return libmp.to_float(libmp.mpf_cos_pi(x, 80, nearest), rnd=nearest)


def test_integer_cos_table_matches_mpmath_bit_for_bit():
    # mpf(2k)/e rounds k/e alone, so with g = gcd(k, e) > 1 the entry is that
    # of k/g in the table for e/g, already computed
    halves = {}
    # every e up to 512, and C768's, the one golden-run or bench-job exponent above it
    for e in [*range(1, 513), 768]:
        halves[e] = half = [halves[e // g][k // g] if (g := math.gcd(k, e)) > 1
                            else _mpmath_cos(k, e) for k in range(e // 2 + 1)]
        want = np.array(half + half[1:(e + 1) // 2][::-1])
        assert spectra._cos_table(e).tobytes() == want.tobytes(), e


def test_floor_over_two_pi_matches_mpmath():
    with mpmath.workdps(50):
        two_pi = 2 * mpmath.pi
        want = [int(mpmath.floor(e / two_pi)) for e in range(1, 20001)]
    assert [spectra._floor_over_two_pi(e) for e in range(1, 20001)] == want


def test_pi_fixed_matches_mpmath():
    for bits in (64, 128, 256, 1024, 4096):
        with mpmath.workprec(bits + 64):
            assert spectra._pi_fixed(bits) == int(mpmath.floor(mpmath.pi * 2 ** bits)), bits
    assert spectra._pi_fixed(128) == 1069028584064966747859680373161870783300


def test_cos_fixed_lies_within_its_bound():
    """Entry k of _cos_fixed(e, bits) is within 2 k bits units of cos(2 pi k/e) 2^bits,
    against mpmath at bits + 64 bits."""
    for e in (5, 7, 8, 12, 360, 768, 4096):
        for bits in (64, 128, 256):
            got = spectra._cos_fixed(e, bits)
            assert len(got) == e // 2 + 1 and got[0] == 1 << bits
            with mpmath.workprec(bits + 64):
                for k, x in enumerate(got):
                    want = mpmath.cospi(mpmath.mpf(2 * k) / e) * 2 ** bits
                    assert abs(x - want) <= 2 * k * bits, (e, bits, k)


def _real_at_least(coeffs, threshold, cos):
    """The reference for _exact_at_least: sum_k coeffs[k] cos(2 pi k/e) >= threshold
    at the working precision, a difference under 10^-350 counted as a tie."""
    diff = mpmath.fsum(int(c) * cos[k] for k, c in enumerate(coeffs)) - (
        mpmath.mpf(threshold.numerator) / threshold.denominator)
    return diff > -mpmath.mpf(10) ** -350


@pytest.fixture
def cos_fixed_calls(monkeypatch):
    """The (e, bits) of every `_cos_fixed` call, in order."""
    calls = []
    cos_fixed = spectra._cos_fixed

    def recording(e, bits):
        calls.append((e, bits))
        return cos_fixed(e, bits)

    monkeypatch.setattr(spectra, "_cos_fixed", recording)
    return calls


def test_exact_at_least_matches_a_400_digit_reference(cos_fixed_calls):
    """Random real elements (symmetric coefficient vectors) against thresholds
    that round their value down and up at scales 1 to 10^40; e <= 4 and e = 6
    need no cosine, since every real element is rational there."""
    rng = np.random.default_rng(25)
    checked = 0
    for e in (1, 2, 3, 4, 6, 5, 7, 8, 9, 12, 15, 16, 20, 30, 360, 768):
        with mpmath.workdps(400):
            cos = [mpmath.cospi(mpmath.mpf(2 * k) / e) for k in range(e)]
            for _ in range(3):
                coeffs = rng.integers(-6, 7, size=e)
                coeffs[1:] = coeffs[1:] + coeffs[1:][::-1]      # c_k = c_(e-k)
                value = mpmath.fsum(int(c) * cos[k] for k, c in enumerate(coeffs))
                for scale in (10 ** j for j in range(0, 41, 4)):
                    for rounding in (mpmath.floor, mpmath.ceil):
                        threshold = Fraction(int(rounding(value * scale)), scale)
                        want = _real_at_least(coeffs, threshold, cos)
                        assert spectra._exact_at_least(coeffs, threshold) == want, (e, threshold)
                        checked += 1
        if e in (1, 2, 3, 4, 6):
            assert cos_fixed_calls == [], e
    assert checked == 16 * 3 * 11 * 2
    assert {e for e, _ in cos_fixed_calls} == {5, 7, 8, 9, 12, 15, 16, 20, 30, 360, 768}


def test_exact_at_least_counts_ties_and_refines_near_ones(cos_fixed_calls):
    # -40 (zeta_8^2 + zeta_8^-2) = 0: a tie, decided by reduction alone
    assert spectra._exact_at_least([0, 0, -40, 0, 0, 0, -40, 0], Fraction(0))
    assert not spectra._exact_at_least([0, 0, -40, 0, 0, 0, -40, 0], Fraction(1, 10 ** 40))
    # zeta_12 + zeta_12^-1 + zeta_12^4 + zeta_12^-4 = sqrt(3) - 1 against nearby rationals
    sqrt3m1 = [0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
    assert spectra._exact_at_least(sqrt3m1, Fraction(732050807568877293, 10 ** 18))
    assert not spectra._exact_at_least(sqrt3m1, Fraction(732050807568877294, 10 ** 18))
    assert max(bits for _, bits in cos_fixed_calls) == 128
    # the 10^-50 gap of test_exact_comparison_separates_near_ties needs 256 bits
    cos_fixed_calls.clear()
    root2 = [0, 1, 0, 0, 0, 0, 0, 1]
    below = Fraction("1.41421356237309504880168872420969807856967187537694")
    assert spectra._exact_at_least(root2, below)
    assert not spectra._exact_at_least(root2, below + Fraction(1, 10 ** 50))
    assert max(bits for _, bits in cos_fixed_calls) >= 256


def test_cyclotomic_polynomials():
    assert spectra._cyclotomic(1) == (-1, 1)
    assert spectra._cyclotomic(8) == (1, 0, 0, 0, 1)
    assert spectra._cyclotomic(12) == (1, 0, -1, 0, 1)
    phi105 = spectra._cyclotomic(105)
    assert len(phi105) == 49 and phi105[7] == phi105[41] == -2


def test_batched_reduction_matches_the_row_by_row_one():
    rng = np.random.default_rng(5)
    # Phi_105 is the first cyclotomic polynomial with a coefficient outside {0, +-1}
    for e in (8, 12, 105, 360, 768):
        phi = spectra._cyclotomic(e)
        rows = rng.integers(-40, 41, size=(5, e))
        rows[0] = 0
        quot, rem = spectra._divmod_monic(rows, phi)
        assert np.array_equal(spectra._reduce(rows), rem)
        for row, q, r in zip(rows, quot, rem):
            q1, r1 = spectra._divmod_monic(row, phi)
            assert q1.tolist() == q.tolist() and r1.tolist() == r.tolist()
            # row = q Phi_e + r exactly, with deg r < deg Phi_e
            assert not any(r[len(phi) - 1:])
            back = [0] * e
            for i, c in enumerate(phi):
                for j, b in enumerate(q.tolist()):
                    back[i + j] += c * b
            assert [b + x for b, x in zip(back, r.tolist())] == row.tolist()


def test_lspec_decides_each_near_tie_value_once(monkeypatch):
    calls = []
    real = spectra._exact_at_least

    def recording(coeffs, threshold):
        calls.append(threshold)
        return real(coeffs, threshold)

    monkeypatch.setattr(spectra, "_exact_at_least", recording)
    g = cyclic_group(768)
    # |1 + zeta^96k + zeta^384k|^2 is the threshold 1 at 480 characters
    spec = large_spectrum(_subset(g, [0, 96, 384]), Fraction(4, 3))
    assert len(spec.members) == 768 and calls == [1]


def test_lspec_reduces_one_near_tie_of_each_inverse_pair(monkeypatch):
    """gamma and gamma^-1 share an estimate and a value, so the near ties come
    in inverse pairs and one batched `_reduce` reads the least of each: 240 of
    the 480 rows at C768, and 3 of the 5 on C8 (the odd k pair as (1, 7) and
    (3, 5); 4 is its own inverse). Each verdict is its partner's too."""
    rows = []
    real = spectra._reduce

    def spy(coeffs):
        if np.ndim(coeffs) == 2:
            rows.append(len(coeffs))
        return real(coeffs)

    monkeypatch.setattr(spectra, "_reduce", spy)
    spec = large_spectrum(_subset(cyclic_group(768), [0, 96, 384]), Fraction(4, 3))
    assert len(spec.members) == 768 and rows == [240]
    rows.clear()
    spec = large_spectrum(_subset(cyclic_group(8), [0, 1, 4]), Fraction(4, 3))
    assert spec.members.indices() == tuple(range(8)) and rows == [3]


def test_lspec_without_near_ties_builds_no_cyclotomic():
    spectra._cyclotomic.cache_clear()
    g = cyclic_group(768)
    spec = large_spectrum(_subset(g, [767, 0, 1]), Fraction(1, 4))
    assert len(spec.members) == 53
    assert spectra._cyclotomic.cache_info().currsize == 0
    # a spectrum with ties does build Phi_e
    large_spectrum(_subset(cyclic_group(8), [0, 1, 4]), Fraction(4, 3))
    assert spectra._cyclotomic.cache_info().currsize > 0


def test_cold_freiman_decides_each_spectrum_once(monkeypatch):
    """The C768 ladder job asks for seven large spectra at four radii; each
    (A, eps) is decided once, and the repeats are read from the group."""
    asked, decided = [], []
    lspec, decide = spectra._lspec, spectra._decide
    monkeypatch.setattr(spectra, "_lspec", lambda a, eps: asked.append(eps) or lspec(a, eps))
    monkeypatch.setattr(spectra, "_decide", lambda a, eps: decided.append(eps) or decide(a, eps))
    g = cyclic_group(768)
    freiman_ball(g, _subset(g, [767, 0, 1]))
    assert len(asked) == 7 and len(decided) == 4
    assert sorted(decided) == sorted(set(asked))


def test_a_repeated_large_spectrum_is_the_cached_decision(monkeypatch):
    g = cyclic_group(360)
    first = large_spectrum(_subset(g, [359, 0, 1, 7]), Fraction(1, 8))
    monkeypatch.setattr(spectra, "_decide", None)       # a second decision would raise
    again = large_spectrum(_subset(g, [0, 1, 7, 359]), Fraction(2, 16))
    assert again.members == first.members and len(first.members) > 1
    assert again.values == first.values and again.threshold_sq == first.threshold_sq
    assert first.threshold_sq == (1 - Fraction(1, 128)) * 16


def test_large_spectrum_rejects_bad_radius():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    with pytest.raises(ValueError):
        large_spectrum(a, Fraction(0))
    with pytest.raises(ValueError):
        large_spectrum(a, Fraction(3, 2))
    with pytest.raises(ValueError):
        large_spectrum(GroupSubset(g, 0), Fraction(1, 2))


# ---------------------------------------------------------------------------
# weight and distance


def test_spectrum_weight_subgroup_counts():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    w = spectrum_weight(a)
    assert w.counts == tuple(3 if x % 4 == 0 else 0 for x in range(12))
    assert w.mean == Fraction(3, 12)
    assert w.weight.values[0] == pytest.approx(1.0)


def test_spectrum_weight_general_set():
    g = cyclic_group(16)
    a = _subset(g, [15, 0, 1])
    w = spectrum_weight(a)
    assert sum(w.counts) == 9
    assert w.counts[0] == 3
    assert w.counts[1] == w.counts[15] == 2
    assert w.counts[2] == w.counts[14] == 1


def test_spectrum_distance_cyclic12_exactly_two():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    triv = _cyc_char(g, 0)
    d = spectrum_distance_exact(a, triv, _cyc_char(g, 1))
    assert d.exact and d.rho_sq == Fraction(2)
    assert spectrum_distance(a, triv, _cyc_char(g, 1)) == pytest.approx(math.sqrt(2))


def test_spectrum_distance_degenerate_directions():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    triv = _cyc_char(g, 0)
    assert spectrum_distance(a, _cyc_char(g, 5), _cyc_char(g, 5)) == 0.0
    # character trivial on the subgroup generated by A
    assert spectrum_distance(a, triv, _cyc_char(g, 3)) == 0.0


def test_spectrum_distance_translation_invariant():
    g = cyclic_group(16)
    a = _subset(g, [14, 15, 0, 1, 2])
    rng = np.random.default_rng(7)
    for _ in range(20):
        i, j, t = rng.integers(0, 16, size=3)
        base = spectrum_distance_exact(a, _cyc_char(g, int(i)), _cyc_char(g, int(j)))
        moved = spectrum_distance_exact(
            a, _cyc_char(g, int(i + t)), _cyc_char(g, int(j + t)))
        assert base.rho == moved.rho
        assert base.rho_sq == moved.rho_sq


def spectrum_distance_identity_check(a, gamma):
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


def test_spectrum_distance_identity_formula():
    fixtures = [
        (cyclic_group(16), [14, 15, 0, 1, 2]),
        (heisenberg_group(3), [0, 1, 2]),
        (dihedral_group(12), [0, 1, 5]),
    ]
    for g, ids in fixtures:
        a = _subset(g, ids)
        for gamma in linear_characters(g):
            rep = spectrum_distance_identity_check(a, gamma)
            assert rep["residual"] < 1e-9
            assert rep["reference_unsquared_form"] == pytest.approx(
                math.sqrt(max(rep["reference_squared"], 0.0)))


def test_spectrum_distance_identity_check_sees_a_wrong_magnitude(monkeypatch):
    g = cyclic_group(16)
    a = _subset(g, [14, 15, 0, 1, 2])
    gamma = _cyc_char(g, 3)
    real = spectra.FourierMagnitudes.mag_sq
    monkeypatch.setattr(spectra.FourierMagnitudes, "mag_sq",
                        lambda self, i: real(self, i) + 1)
    # rho runs through the magnitudes, the reference sums over A directly
    rep = spectrum_distance_identity_check(a, gamma)
    assert rep["residual"] == pytest.approx(2 / 25)


# ---------------------------------------------------------------------------
# standing hypotheses


def test_standing_hypotheses_all_hold():
    g = cyclic_group(16)
    recs = standing_hypotheses(g, _subset(g, [0, 1]), _subset(g, [15, 0, 1]))
    assert [r.status for r in recs] == ["holds"] * 4


def test_standing_hypotheses_non_monomial_group():
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pidx = {p: i for i, p in enumerate(pts)}

    def mat_perm(m):
        out = []
        for (a, b) in pts:
            na = (m[0][0] * a + m[0][1] * b) % 3
            nb = (m[1][0] * a + m[1][1] * b) % 3
            out.append(pidx[(na, nb)])
        return out

    g = permutation_group(8, [mat_perm([[1, 1], [0, 1]]), mat_perm([[1, 0], [1, 1]])])
    recs = standing_hypotheses(g, GroupSubset.full(g), GroupSubset.full(g))
    assert recs[0].name == "group is monomial" and recs[0].status == "fails"


def test_standing_hypotheses_are_decided_once_per_pair(monkeypatch):
    calls = []
    real = spectra.set_predicates

    def counting(a):
        calls.append(a.mask)
        return real(a)

    monkeypatch.setattr(spectra, "set_predicates", counting)
    g = cyclic_group(16)
    s, a = _subset(g, [0, 1]), _subset(g, [15, 0, 1])
    first = standing_hypotheses(g, s, a)
    second = standing_hypotheses(g, s, a)
    assert calls == [a.mask]
    first.append(spectra.HypothesisRecord("appended", "fails"))
    assert standing_hypotheses(g, s, a) == second and len(second) == 4
    standing_hypotheses(g, a, a)
    assert calls == [a.mask, a.mask]


def test_standing_hypotheses_refuse_sets_of_another_group():
    """Sets of D12 with C12 as the group: nothing is decided or cached on C12."""
    c12, d12 = cyclic_group(12), dihedral_group(12)
    s, a = _subset(d12, [0, 1, 6]), _subset(d12, [0, 1, 5])
    before = dict(c12.__dict__)
    for args in ((c12, s, a), (c12, _subset(c12, [0, 1]), a), (c12, s, _subset(c12, [0]))):
        with pytest.raises(ValueError, match="subset belongs to a different group"):
            standing_hypotheses(*args)
        with pytest.raises(ValueError, match="subset belongs to a different group"):
            lspec_size_check(*args, Fraction(1), 34, 1.0)
    assert c12.__dict__ == before


def test_standing_hypotheses_beyond_cap_unchecked():
    g = cyclic_group(200)
    recs = standing_hypotheses(g, _subset(g, [0, 1]), _subset(g, [199, 0, 1]))
    assert recs[0].status == "unchecked"
    assert all(r.status == "holds" for r in recs[1:])


# ---------------------------------------------------------------------------
# spectral energy


def test_energy_trivial_group_unit_values():
    g = cyclic_group(1)
    whole = GroupSubset.full(g)
    rep = spectral_energy_check(g, whole, whole, Fraction(1), 2)
    assert rep.all_ok
    assert rep.lhs == 1.0 and rep.mid == 0.5 and rep.rhs == 0.5


def test_energy_whole_group_collapse():
    for g in (heisenberg_group(3), quaternion_group()):
        whole = GroupSubset.full(g)
        rep = spectral_energy_check(g, whole, whole, Fraction(1), 2)
        assert rep.all_ok
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.mid == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)
        assert rep.float_route_residual < 1e-9


def test_energy_cyclic16_interval():
    g = cyclic_group(16)
    rep = spectral_energy_check(
        g, _subset(g, [0, 1]), _subset(g, [15, 0, 1]), Fraction(19, 20), 4)
    assert [r.status for r in rep.hypotheses] == ["holds"] * 5
    assert rep.all_ok
    assert rep.lhs >= rep.mid >= rep.rhs
    assert rep.float_route_residual < 1e-9
    assert rep.nonlinear_scan_ok


def test_energy_exact_fallback_agrees_with_the_float_filter(monkeypatch):
    g = cyclic_group(16)
    s, a = _subset(g, [0, 1]), _subset(g, [15, 0, 1])
    thresholds = []
    real = spectra._exact_at_least

    def recording(coeffs, threshold):
        thresholds.append(threshold)
        return real(coeffs, threshold)

    monkeypatch.setattr(spectra, "_exact_at_least", recording)
    filtered = spectral_energy_check(g, s, a, Fraction(19, 20), 4)
    assert thresholds == []                 # far from a tie: the estimates decide
    # an unbounded estimate error sends every comparison to Z[zeta_e]
    monkeypatch.setattr(g.__dict__["_fourier_magnitudes"][a.mask], "error", math.inf)
    exact = spectral_energy_check(g, s, a, Fraction(19, 20), 4)
    assert Fraction(exact.mid) * 16 ** 8 == pytest.approx(float(thresholds[-1]))
    assert exact.lhs_ge_mid and filtered.lhs_ge_mid
    assert exact.lhs == filtered.lhs


def test_energy_heisenberg_fat_set():
    g = heisenberg_group(3)
    a = _subset(g, [x for x in range(27) if x not in (12, 13, 14, 24, 25, 26)])
    s = _subset(g, [0, 9, 3])
    rep = spectral_energy_check(g, s, a, Fraction(9, 10), 3)
    assert rep.all_ok
    assert rep.lhs == pytest.approx(117649 / 531441, abs=1e-12)
    assert rep.rhs == pytest.approx(117649 / 1062882, abs=1e-12)
    # independent middle-term oracle: brute triple products
    ids = list(a)
    counts = np.zeros(27, dtype=np.int64)
    for x in ids:
        row = g.mul_table[x]
        for y in ids:
            np.add.at(counts, g.mul_table[row[y], ids], 1)
    mid = sum(int(c) ** 2 for c in counts) / (2 * 27 ** 5)
    assert rep.mid == pytest.approx(mid, abs=1e-12)


def test_energy_descriptive_when_set_too_thin():
    g = heisenberg_group(3)
    a = normalize_set(_subset(g, [9, 3]), symmetrize=True, add_identity=True,
                      conjugation_close=True)
    assert len(a) == 13
    rep = spectral_energy_check(g, _subset(g, [0, 9, 3]), a, Fraction(1), 2)
    tight = next(r for r in rep.hypotheses if r.name.startswith("P(S.A)"))
    assert tight.status == "fails"
    assert rep.lhs is None and rep.mid is None and rep.rhs is None
    assert rep.lhs_ge_mid is None


def test_energy_rejects_bad_parameters():
    g = cyclic_group(16)
    a = _subset(g, [15, 0, 1])
    with pytest.raises(ValueError):
        spectral_energy_check(g, a, a, Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        spectral_energy_check(g, a, a, Fraction(1), 0)


# ---------------------------------------------------------------------------
# Chang covering


def test_chang_cover_inside_difference_set():
    g = cyclic_group(12)
    t = CharSet.build(g, [_cyc_char(g, 0), _cyc_char(g, 3)])
    s = CharSet.build(g, [_cyc_char(g, 3), _cyc_char(g, 9)])
    cover = chang_cover(s, t, 0)
    assert len(cover.x) == 0 and cover.within_bound and cover.covering_ok


def test_chang_cover_singleton():
    g = cyclic_group(12)
    s = CharSet.build(g, [_cyc_char(g, 5)])
    t = CharSet.trivial(g)
    cover = chang_cover(s, t, 1)
    assert [_char_freq(g, c) for c in cover.x.chars] == [5]
    assert cover.within_bound and cover.covering_ok


def test_chang_cover_reports_bound_violation():
    g = cyclic_group(64)
    s = CharSet.build(g, [_cyc_char(g, k) for k in (1, 2, 3, 4, 5)])
    t = CharSet.trivial(g)
    cover = chang_cover(s, t, 1)
    assert sorted(_char_freq(g, c) for c in cover.x.chars) == [1, 2, 4]
    assert not cover.within_bound
    assert cover.covering_ok


def test_chang_cover_random_with_integer_oracle():
    g = cyclic_group(64)
    rng = np.random.default_rng(11)
    for _ in range(10):
        s_ids = sorted(set(int(v) for v in rng.integers(0, 64, size=6)))
        t_ids = sorted({0, *(int(v) for v in rng.integers(0, 64, size=4))})
        s = CharSet.build(g, [_cyc_char(g, k) for k in s_ids])
        t = CharSet.build(g, [_cyc_char(g, k) for k in t_ids])
        cover = chang_cover(s, t, 6)
        assert cover.covering_ok
        # integer-arithmetic re-verification of the covering
        x_ids = [_char_freq(g, c) for c in cover.x.chars]
        span = {0}
        for k in x_ids:
            span = {(a + e) % 64 for a in span for e in (0, k, -k)}
        tdiff = {(u - v) % 64 for u in t_ids for v in t_ids}
        covered = {(a + b) % 64 for a in span for b in tdiff}
        assert set(s_ids) <= covered


# ---------------------------------------------------------------------------
# spectrum doubling


def test_doubling_subgroup_spectrum_descriptive():
    g = cyclic_group(12)
    rep = lspec_doubling_cover(
        g, _subset(g, [0, 1]), _subset(g, [0, 4, 8]), Fraction(1, 8), 1.0)
    tight = next(r for r in rep.hypotheses if r.name.startswith("P(S.A)"))
    assert tight.status == "fails"      # cosets force |S.A| >= 2|A|
    assert rep.branch == "covered" and rep.r == 2
    assert len(rep.x) == 0
    assert rep.covering_ok


def test_doubling_whole_group():
    g = heisenberg_group(3)
    whole = GroupSubset.full(g)
    rep = lspec_doubling_cover(g, _subset(g, [0, 9, 3]), whole, Fraction(1, 8), 1.0)
    assert all(r.status != "fails" for r in rep.hypotheses)
    assert rep.branch == "covered" and rep.r == 2 and len(rep.x) == 0
    assert rep.covering_ok
    assert rep.window_clipped


def test_doubling_small_branch_when_scan_empty():
    g = cyclic_group(16)
    rep = lspec_doubling_cover(
        g, _subset(g, [0, 1]), _subset(g, [15, 0, 1]), Fraction(1, 4), 1.0)
    assert rep.branch == "small"
    assert rep.scan == ()
    assert rep.eps_inverse == 4
    assert rep.x is None


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_doubling_rejects_a_d_that_is_not_finite_before_any_work(monkeypatch, d):
    def no_work(*args):
        raise AssertionError("standing hypotheses checked before d")

    monkeypatch.setattr(spectra, "standing_hypotheses", no_work)
    g = cyclic_group(12)
    with pytest.raises(ValueError, match="finite d"):
        lspec_doubling_cover(g, _subset(g, [0, 4, 8]), _subset(g, [0, 4, 8]),
                             Fraction(1, 8), d)


def test_doubling_cyclic128_interval():
    g = cyclic_group(128)
    a = _subset(g, [126, 127, 0, 1, 2])
    rep = lspec_doubling_cover(g, _subset(g, [0, 1]), a, Fraction(1, 16), 1.0)
    assert all(r.status != "fails" for r in rep.hypotheses)
    assert rep.branch == "covered"
    assert rep.covering_ok
    spec = large_spectrum(a, Fraction(1, 16))
    lhs = charset_sum(spec.members, spec.members)
    assert all(c in charset_sum(_span_charset(g, rep.x), spec.members) for c in lhs)


def _span_charset(g, x):
    from monoball.bohr import char_span
    return char_span(x)


# ---------------------------------------------------------------------------
# Bohr-of-spectrum size


def test_size_check_whole_group():
    g = heisenberg_group(3)
    whole = GroupSubset.full(g)
    rep = lspec_size_check(g, _subset(g, [0, 9, 3]), whole, Fraction(1), 34, 1.0)
    assert all(r.status != "fails" for r in rep.hypotheses)
    assert rep.ok
    assert rep.lhs == 1 and rep.ball_size == 27 and rep.spectrum_size == 1


def test_size_check_cyclic12_annihilator_ball():
    g = cyclic_group(12)
    rep = lspec_size_check(
        g, _subset(g, [0, 1]), _subset(g, [0, 4, 8]), Fraction(1), 34, 1.0)
    assert rep.ok
    assert rep.lhs == Fraction(1, 4)
    assert rep.ball_size == 3 and rep.spectrum_size == 4


def test_size_check_dihedral16_rotation_class():
    g = dihedral_group(16)
    a = normalize_set(_subset(g, [1]), symmetrize=True, add_identity=True,
                      conjugation_close=True)
    assert sorted(a) == [0, 1, 7]
    rep = lspec_size_check(g, _subset(g, [0, 1, 8]), a, Fraction(1), 34, 1.0)
    assert rep.ok
    assert rep.lhs == Fraction(1, 2)
    assert rep.spectrum_size == 2 and rep.ball_size == 8


def test_size_check_hypothesis_failure_is_descriptive():
    g = cyclic_group(16)
    rep = lspec_size_check(
        g, _subset(g, [0, 1]), _subset(g, [15, 0, 1]), Fraction(1), 2, 1.0)
    krec = next(r for r in rep.hypotheses if r.name.startswith("k >="))
    assert krec.status == "fails"
    assert rep.lhs is not None


def test_import_and_spectra_leave_mpmath_precision_alone(package_env):
    code = (
        "import mpmath\n"
        "before = mpmath.mp.dps\n"
        "import monoball\n"
        "from fractions import Fraction\n"
        "g = monoball.cyclic_group(360)\n"
        "a = monoball.GroupSubset.from_indices(g, [359, 0, 1])\n"
        "assert len(monoball.large_spectrum(a, Fraction(1, 4)).members) > 1\n"
        "assert mpmath.mp.dps == before, mpmath.mp.dps\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env)
    assert proc.returncode == 0, proc.stderr


def test_dropped_group_is_freed_without_the_cycle_collector():
    # caches live on the group; none may refer back to it, or every group a
    # caller drops would stay in memory until a full garbage collection
    gc.disable()
    try:
        g = cyclic_group(256)
        ref = weakref.ref(g)
        a = _subset(g, [255, 0, 1])
        members = large_spectrum(a, Fraction(1, 4)).members
        find_l(a)
        growth_profile(a, 12)
        lspec_doubling_cover(g, a, a, Fraction(1, 16), 1)
        linbohr(members, Fraction(1, 16))
        linbohr_squared(members, Fraction(2, 9))
        lspec_size_check(g, a, a, Fraction(1, 4), 2, 1.0)
        del g, a, members
        assert ref() is None
    finally:
        gc.enable()


def test_dropped_small_group_is_freed_without_the_cycle_collector():
    # at order <= 128 a run also caches the subgroup lattice, the character
    # table and the monomiality certificates
    gc.disable()
    try:
        for build, gens in ((lambda: heisenberg_group(3), [9, 3]),
                            (lambda: product_group([cyclic_group(2), heisenberg_group(3)]),
                             [27, 9, 3])):
            g = build()
            ref = weakref.ref(g)
            a = normalize_set(_subset(g, gens), symmetrize=True, add_identity=True,
                              conjugation_close=True)
            freiman_ball(g, a)
            character_table(g)
            is_monomial(g)
            del g, a
            assert ref() is None
    finally:
        gc.enable()
