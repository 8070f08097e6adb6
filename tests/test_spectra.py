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

from monoball import spectra
from monoball.bohr import CharSet, charset_sum
from monoball.groups import (
    GroupSubset,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    permutation_group,
    quaternion_group,
)
from monoball.harmonic import LinearCharacter, linear_characters, linear_phases
from monoball.setops import normalize_set, power_set, product_set
from monoball.spectra import (
    _magnitudes,
    chang_cover,
    large_spectrum,
    lspec_doubling_cover,
    lspec_size_check,
    spectral_energy_check,
    spectrum_distance,
    spectrum_distance_exact,
    spectrum_distance_identity_check,
    spectrum_weight,
    standing_hypotheses,
)


def _subset(g, ids):
    return GroupSubset.from_indices(g, ids)


def _cyc_char(g, k):
    n = g.order
    return LinearCharacter(g, tuple(Fraction(k * x, n) % 1 for x in range(n)))


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
        assert sorted(_char_freq(g, c) for c in spec.members) == [0, 3, 6, 9]
        assert all(v == pytest.approx(0.25, abs=1e-12) for v in spec.values)


def test_lspec_cyclic12_exact_magnitudes():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    mags = _magnitudes(g, a)
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
    triv = next(i for i, c in enumerate(spec.members) if c.is_trivial)
    assert spec.values[triv] == pytest.approx(len(a) / 12, abs=1e-12)


def test_lspec_heisenberg_center_annihilator():
    g = heisenberg_group(3)
    center = _subset(g, [0, 1, 2])
    spec = large_spectrum(center, Fraction(1))
    assert len(spec.members) == 9
    assert all(v == pytest.approx(1 / 9, abs=1e-12) for v in spec.values)
    # every member is constant 1 on the center
    for c in spec.members:
        assert all(c.phases[x] == 0 for x in center)


def test_lspec_monotone_in_radius():
    g = cyclic_group(16)
    a = _subset(g, [15, 0, 1])
    prev = None
    for i in range(1, 12):
        spec = large_spectrum(a, Fraction(i, 8))
        cur = {c.phases for c in spec.members}
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
        got = sorted(_char_freq(g, c) for c in spec.members)
        assert got == _brute_lspec(g, [14, 15, 0, 1, 2], eps)


def test_lspec_mu_parseval_abelian():
    g = cyclic_group(16)
    a = _subset(g, [0, 1, 15, 4])
    mags = _magnitudes(g, a)
    total = sum(float(mags.mag_sq(i)) for i in range(16)) / 16 ** 2
    assert total == pytest.approx(len(a) / 16, abs=1e-9)


def test_lspec_linear_energy_bounded_nonabelian():
    g = heisenberg_group(3)
    a = _subset(g, [0, 1, 2])
    mags = _magnitudes(g, a)
    total = sum(float(mags.mag_sq(i)) for i in range(9)) / 27 ** 2
    assert total <= len(a) / 27 + 1e-9


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
    members = set(spec.members.indices)
    with mpmath.workdps(100):
        thr = mpmath.mpf(spec.threshold_sq.numerator) / spec.threshold_sq.denominator
        for i, row in enumerate(lp.rows):
            value = abs(sum(mpmath.expjpi(mpmath.mpf(2 * int(row[x])) / lp.exponent)
                            for x in ids)) ** 2
            if abs(value - thr) > mpmath.mpf("1e-60"):
                assert (i in members) == (value > thr), (i, value, thr)
            if i in members:
                v = spec.values[spec.members.indices.index(i)]
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
    assert sorted(_char_freq(g, c) for c in spec.members) == [0, 2, 6]
    # the tie value is rational, so it is exact though the phases are eighths
    mags = _magnitudes(g, a)
    odd = next(i for i, lam in enumerate(linear_characters(g)) if _char_freq(g, lam) == 1)
    assert mags.mag_sq(odd) == Fraction(1) and isinstance(mags.mag_sq(odd), Fraction)
    d = spectrum_distance_exact(a, _cyc_char(g, 0), _cyc_char(g, 1))
    assert d.exact and d.rho_sq == Fraction(16, 9)
    # on C16 the float estimates of two of the ties fall just below the threshold
    g = cyclic_group(16)
    a = _subset(g, [0, 9, 13])
    spec = large_spectrum(a, Fraction(4, 3))
    low = [i for i, est in enumerate(_magnitudes(g, a).estimates) if 1 - 1e-12 < est < 1]
    assert low and set(low) <= set(spec.members.indices)


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


def test_cyclotomic_polynomials():
    assert spectra._cyclotomic(1) == (-1, 1)
    assert spectra._cyclotomic(8) == (1, 0, 0, 0, 1)
    assert spectra._cyclotomic(12) == (1, 0, -1, 0, 1)
    phi105 = spectra._cyclotomic(105)
    assert len(phi105) == 49 and phi105[7] == phi105[41] == -2


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
    monkeypatch.setattr(_magnitudes(g, a), "error", math.inf)
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
    assert [_char_freq(g, c) for c in cover.x] == [5]
    assert cover.within_bound and cover.covering_ok


def test_chang_cover_reports_bound_violation():
    g = cyclic_group(64)
    s = CharSet.build(g, [_cyc_char(g, k) for k in (1, 2, 3, 4, 5)])
    t = CharSet.trivial(g)
    cover = chang_cover(s, t, 1)
    assert sorted(_char_freq(g, c) for c in cover.x) == [1, 2, 4]
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
        x_ids = [_char_freq(g, c) for c in cover.x]
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
        g = cyclic_group(64)
        ref = weakref.ref(g)
        large_spectrum(_subset(g, [63, 0, 1]), Fraction(1, 4))
        del g
        assert ref() is None
    finally:
        gc.enable()
