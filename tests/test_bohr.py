import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from monoball import bohr, pipeline
from monoball.errors import CapExceededError
from monoball.groups import (
    OR_BUILD_LIMIT,
    GroupSubset,
    build_group,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    product_group,
)
from monoball.harmonic import LinearCharacter, linear_characters, linear_phases
from monoball.bohr import (
    CharSet,
    bohr_norm,
    char_span,
    charset_sum,
    cor53_check,
    kfold_charset,
    linbohr,
    linbohr_squared,
    phase_norm,
    prop51_check,
)
from monoball.metric import ball_dimension, validate_norm
from monoball.pipeline import PipelineConfig, freiman_ball
from monoball.setops import power_set, set_predicates
from monoball.spectra import _inv_two_pi_ball, large_spectrum


def _lin_by_phase(group, phase_at_one):
    for lam in linear_characters(group):
        if lam.phases[1] == phase_at_one:
            return lam
    raise AssertionError("missing character")


def _trivial(group):
    return LinearCharacter(group, 0)


def test_phase_norm_exact():
    assert phase_norm(Fraction(0)) == 0
    assert phase_norm(Fraction(1, 4)) == Fraction(1, 4)
    assert phase_norm(Fraction(3, 4)) == Fraction(1, 4)
    assert phase_norm(Fraction(1, 2)) == Fraction(1, 2)
    assert phase_norm(Fraction(7, 5)) == Fraction(2, 5)


def test_charset_dedup_and_flags():
    g = cyclic_group(8)
    lam = _lin_by_phase(g, Fraction(1, 8))
    s = CharSet.build(g, [lam, lam, lam.negate(), _trivial(g)])
    assert len(s) == 3
    assert s.symmetric and s.contains_identity
    t = CharSet.build(g, [lam])
    assert not t.symmetric and not t.contains_identity


def test_charset_from_indices_dedupes_and_iterates_ascending():
    g = cyclic_group(12)
    s = CharSet.from_indices(g, [7, 3, 7, 0, 3])
    assert len(s) == 3 and list(s) == [0, 3, 7] and s.indices() == (0, 3, 7)
    assert s.mask == 0b10001001
    assert [c.index for c in s.chars] == [0, 3, 7]
    assert 3 in s and 4 not in s
    assert s == CharSet.from_indices(g, np.array([0, 7, 3]))


@pytest.mark.parametrize("index", [-1, 12])
def test_charset_from_indices_rejects_an_index_outside_lin_g(index):
    with pytest.raises(ValueError, match=rf"character index {index} out of range "
                                         r"for \|Lin\(G\)\| = 12"):
        CharSet.from_indices(cyclic_group(12), (index,))


@pytest.mark.parametrize("kind, message", [(CharSet, r"character index {} out of range "
                                                     r"for \|Lin\(G\)\| = 300"),
                                           (GroupSubset, "element index {} out of range "
                                                         "for order 300")])
@pytest.mark.parametrize("count", [OR_BUILD_LIMIT - 1, OR_BUILD_LIMIT, 255])
def test_from_indices_is_one_build_for_both_kinds_on_either_side_of_the_or_limit(
        kind, message, count):
    g = cyclic_group(300)
    rng = np.random.default_rng(count)
    idx = rng.integers(0, 300, count)
    want = sum(1 << i for i in set(idx.tolist()))
    for given in (idx, idx.tolist(), iter(idx.tolist())):
        built = kind.from_indices(g, given)
        assert type(built) is kind and built.mask == want
        assert list(built) == sorted(set(idx.tolist()))
    for bad in (-1, 300):
        given = np.append(idx, bad)
        with pytest.raises(ValueError, match=message.format(bad)):
            kind.from_indices(g, given)
        with pytest.raises(ValueError, match=message.format(bad)):
            kind.from_indices(g, given.tolist())


def test_charset_set_operations_match_the_index_sets():
    g = cyclic_group(12)
    a, b = CharSet.from_indices(g, [0, 1, 5]), CharSet.from_indices(g, [1, 5, 9])
    assert (a | b).indices() == (0, 1, 5, 9) and isinstance(a | b, CharSet)
    assert (a & b).indices() == (1, 5) and isinstance(a & b, CharSet)
    assert (a & b).is_subset_of(a) and not a.is_subset_of(b)
    assert CharSet.empty(g).is_subset_of(a) and CharSet.trivial(g).is_subset_of(a)


def test_charsets_refuse_element_sets_and_other_groups():
    g, h = cyclic_group(12), cyclic_group(12)
    chars, elements = CharSet.from_indices(g, [0, 1]), GroupSubset.from_indices(g, [0, 1])
    other = CharSet.from_indices(h, [0, 1])
    for op in (lambda x, y: x | y, lambda x, y: x & y, lambda x, y: x.is_subset_of(y)):
        for x, y in ((chars, elements), (elements, chars)):
            with pytest.raises(ValueError, match="cannot combine"):
                op(x, y)
        with pytest.raises(ValueError, match="different groups"):
            op(chars, other)
    assert chars != elements


def test_bohr_norm_canonical_cyclic36():
    g = cyclic_group(36)
    canon = _lin_by_phase(g, Fraction(1, 36))
    rho = bohr_norm(CharSet.build(g, [canon]))
    for x in range(36):
        assert rho.values[x] == min(Fraction(x, 36), 1 - Fraction(x, 36))
    assert validate_norm(rho).valid


def test_bohr_norm_trivial_and_empty():
    g = heisenberg_group(3)
    assert all(v == 0 for v in bohr_norm(CharSet.trivial(g)).values)
    assert all(v == 0 for v in bohr_norm(CharSet.empty(g)).values)


def test_bohr_norm_two_character_sup():
    g = cyclic_group(12)
    a = _lin_by_phase(g, Fraction(1, 12))
    b = _lin_by_phase(g, Fraction(5, 12))
    rho_a = bohr_norm(CharSet.build(g, [a]))
    rho_b = bohr_norm(CharSet.build(g, [b]))
    rho = bohr_norm(CharSet.build(g, [a, b]))
    for x in range(12):
        assert rho.values[x] == max(rho_a.values[x], rho_b.values[x])


def test_linbohr_cyclic36():
    g = cyclic_group(36)
    canon = _lin_by_phase(g, Fraction(1, 36))
    b = linbohr(CharSet.build(g, [canon]), Fraction(1, 10))
    assert len(b) == 7
    assert b.indices() == (0, 1, 2, 3, 33, 34, 35)
    assert len(linbohr(CharSet.build(g, [canon]), Fraction(1, 2))) == 36
    assert len(linbohr(CharSet.empty(g), 0)) == 36


def test_linbohr_is_symmetric_normal_identity():
    for g in (dihedral_group(12), heisenberg_group(3)):
        lams = linear_characters(g)
        s = CharSet.build(g, lams[:2])
        for delta in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
            preds = set_predicates(linbohr(s, delta))
            assert preds.symmetric and preds.normal and preds.contains_identity


def test_linbohr_monotonicity():
    g = cyclic_group(30)
    a = _lin_by_phase(g, Fraction(1, 30))
    b = _lin_by_phase(g, Fraction(7, 30))
    small_set = CharSet.build(g, [a])
    big_set = CharSet.build(g, [a, b])
    assert linbohr(big_set, Fraction(1, 8)).is_subset_of(linbohr(small_set, Fraction(1, 8)))
    assert linbohr(small_set, Fraction(1, 10)).is_subset_of(linbohr(small_set, Fraction(1, 8)))


def test_linbohr_squared_agrees_on_rational_radii():
    g = cyclic_group(36)
    canon = _lin_by_phase(g, Fraction(1, 36))
    s = CharSet.build(g, [canon])
    for delta in (Fraction(1, 10), Fraction(1, 5), Fraction(2, 7)):
        assert linbohr_squared(s, delta ** 2).mask == linbohr(s, delta).mask


def _random_charsets():
    """Random character sets of cyclic groups of order <= 256, Heis(3), C2 x Heis(3)
    and C1024."""
    rng = np.random.default_rng(5)
    groups = [cyclic_group(n) for n in (7, 36, 97, 210, 256)]
    groups += [heisenberg_group(3), product_group([cyclic_group(2), heisenberg_group(3)]),
               cyclic_group(1024)]
    for g in groups:
        n_lin = len(linear_phases(g).keys)
        for size in (1, 2, 3, 4):
            yield CharSet.from_indices(g, rng.choice(n_lin, size=min(size, n_lin),
                                                     replace=False))


def test_linbohr_squared_matches_the_squared_rule_at_nonsquare_radii():
    radii_sq = (Fraction(1, 50), Fraction(2, 9), 8 * Fraction(1, 16) ** 2 * Fraction(3, 2),
                32 * Fraction(1, 128) ** 2 * Fraction(5, 4))
    for s in _random_charsets():
        rho = bohr_norm(s)
        assert validate_norm(rho).valid       # the reference check of the norm axioms
        for delta_sq in radii_sq:
            num, den = delta_sq.numerator, delta_sq.denominator
            # reference: compare rho(x)^2 with delta_sq in exact rationals
            want = [x for x, r in enumerate(rho.values)
                    if r.numerator ** 2 * den <= num * r.denominator ** 2]
            assert linbohr_squared(s, delta_sq).indices() == tuple(want)


def test_inv_two_pi_ball_matches_a_50_digit_comparison():
    for s in _random_charsets():
        with mpmath.workdps(50):
            inv_two_pi = 1 / (2 * mpmath.pi)
            want = [x for x, r in enumerate(bohr_norm(s).values)
                    if mpmath.mpf(r.numerator) / r.denominator <= inv_two_pi]
        assert _inv_two_pi_ball(s.group, s).indices() == tuple(want)


def test_freiman_ball_computes_each_bohr_norm_once_unvalidated(monkeypatch):
    validated, seen, computed = [], set(), []
    norm, phases = bohr.bohr_norm, bohr.linear_phases

    class RecordingPhases:
        def __init__(self, lp):
            self.lp = lp

        def __getattr__(self, name):
            return getattr(self.lp, name)

        def block(self, rows=None, cols=None):
            computed.append(tuple(rows))
            return self.lp.block(rows, cols)

    def recording_norm(charset):
        seen.add(charset.indices())
        return norm(charset)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "monoball" and hasattr(module, "validate_norm"):
            monkeypatch.setattr(module, "validate_norm", validated.append)
    monkeypatch.setattr(bohr, "linear_phases", lambda group: RecordingPhases(phases(group)))
    monkeypatch.setattr(bohr, "bohr_norm", recording_norm)
    monkeypatch.setattr(pipeline, "bohr_norm", recording_norm)
    g = cyclic_group(256)
    pipeline.freiman_ball(g, GroupSubset.from_indices(g, [255, 0, 1]))
    assert seen and validated == []
    assert sorted(computed) == sorted(seen)


def test_bohr_norm_shares_one_scaled_form():
    g = cyclic_group(36)
    charset = CharSet.build(g, [_lin_by_phase(g, Fraction(1, 36))])
    first, second = bohr_norm(charset), bohr_norm(charset)
    assert first is not second
    assert first.scaled is second.scaled
    assert not first.scaled.flags.writeable


def test_char_span_examples():
    g = cyclic_group(12)
    assert len(char_span(CharSet.empty(g))) == 1
    lam = _lin_by_phase(g, Fraction(1, 12))
    sp1 = char_span(CharSet.build(g, [lam]))
    assert sorted(c.phases[1] for c in sp1.chars) == [Fraction(0), Fraction(1, 12),
                                                      Fraction(11, 12)]
    sp2 = char_span(CharSet.build(g, [lam, _lin_by_phase(g, Fraction(4, 12))]))
    assert len(sp2) == 9


def test_char_span_guard():
    g = cyclic_group(128)
    lams = linear_characters(g)
    with pytest.raises(CapExceededError):
        char_span(CharSet.build(g, lams[1:23]))


def test_kfold_charset():
    g = cyclic_group(10)
    lam = CharSet.build(g, [_trivial(g), _lin_by_phase(g, Fraction(1, 10))])
    assert kfold_charset(lam, 1).chars == lam.chars
    k3 = kfold_charset(lam, 3)
    assert sorted(c.phases[1] for c in k3.chars) == [Fraction(0), Fraction(1, 10),
                                               Fraction(2, 10), Fraction(3, 10)]
    only_triv = CharSet.trivial(g)
    assert kfold_charset(only_triv, 5).chars == only_triv.chars


def test_triangle_containment():
    g = cyclic_group(36)
    lam = CharSet.build(g, [_trivial(g), _lin_by_phase(g, Fraction(1, 36))])
    for k in (1, 2, 3, 5):
        lhs = linbohr(lam, Fraction(1, 20))
        rhs = linbohr(kfold_charset(lam, k), k * Fraction(1, 20))
        assert lhs.is_subset_of(rhs)


def _statuses(rep) -> dict[str, str]:
    return {r.name: r.status for r in rep.hypotheses}


def _all_hold(rep) -> bool:
    return all(r.status == "holds" for r in rep.hypotheses)


def test_cor53_trivial_lambda():
    g = cyclic_group(18)
    rep = cor53_check(CharSet.trivial(g), 4, Fraction(1, 20))
    assert _all_hold(rep) and rep.equal
    assert rep.lhs_size == 18


def test_cor53_cyclic36():
    g = cyclic_group(36)
    lam = CharSet.build(g, [_trivial(g), _lin_by_phase(g, Fraction(1, 36))])
    rep = cor53_check(lam, 3, Fraction(1, 10))
    assert _all_hold(rep) and rep.equal and rep.forward_inclusion


def test_cor53_dihedral12():
    g = dihedral_group(12)
    sign = [l for l in linear_characters(g) if not l.is_trivial][0]
    lam = CharSet.build(g, [_trivial(g), sign])
    rep = cor53_check(lam, 2, Fraction(1, 8))
    assert _all_hold(rep) and rep.equal


def test_cor53_descriptive_on_hypothesis_violation():
    g = cyclic_group(36)
    # k*delta = 3 * (1/6) = 1/2 >= 1/3: corollary no longer applies
    lam = CharSet.build(g, [_trivial(g), _lin_by_phase(g, Fraction(1, 36))])
    rep = cor53_check(lam, 3, Fraction(1, 6))
    assert _statuses(rep)["k delta < 1/3"] == "fails"
    assert rep.forward_inclusion
    # equality may fail here; the report carries a witness if it does
    if not rep.equal:
        assert rep.witness is not None


def test_cor53_random_fixtures_exact():
    fixtures = []
    for n in (20, 24, 36, 48):
        g = cyclic_group(n)
        lam = CharSet.build(g, [_trivial(g), _lin_by_phase(g, Fraction(1, n))])
        for k, delta in ((2, Fraction(1, 7)), (3, Fraction(1, 10)), (4, Fraction(1, 13))):
            if k * delta < Fraction(1, 3):
                fixtures.append((lam, k, delta))
    assert len(fixtures) >= 10
    for lam, k, delta in fixtures:
        rep = cor53_check(lam, k, delta)
        assert rep.equal


def test_prop51_trivial():
    g = cyclic_group(20)
    triv = CharSet.trivial(g)
    rep = prop51_check(triv, triv, Fraction(1, 32))
    assert _all_hold(rep) and rep.ratio == 1 and rep.ratio_ok
    assert rep.all_inclusions_ok


def test_prop51_cyclic101():
    g = cyclic_group(101)
    g1 = _lin_by_phase(g, Fraction(1, 101))
    g2 = _lin_by_phase(g, Fraction(2, 101))
    gamma = CharSet.build(g, [_trivial(g), g1, g1.negate()])
    x = CharSet.build(g, [g2])
    rep = prop51_check(gamma, x, Fraction(1, 32))
    assert _all_hold(rep)
    assert rep.all_inclusions_ok
    assert rep.ratio_ok and rep.ratio <= rep.ratio_bound
    assert rep.t_size <= rep.t_bound


def test_prop51_heisenberg():
    g = heisenberg_group(3)
    lam = [l for l in linear_characters(g) if not l.is_trivial][0]
    gamma = char_span(CharSet.build(g, [lam]))
    x = CharSet.build(g, [lam])
    rep = prop51_check(gamma, x, Fraction(1, 32))
    assert _all_hold(rep) and rep.ratio_ok and rep.all_inclusions_ok


def test_prop51_reports_hypothesis_failure():
    g = cyclic_group(101)
    g1 = _lin_by_phase(g, Fraction(1, 101))
    g40 = _lin_by_phase(g, Fraction(40, 101))
    gamma = CharSet.build(g, [_trivial(g), g1, g1.negate()])
    x = CharSet.build(g, [g40])
    rep = prop51_check(gamma, x, Fraction(1, 32))
    (record,) = [r for r in rep.hypotheses if r.status == "fails"]
    assert record.name == "Gamma + Gamma inside Span(X) + Gamma"
    assert record.detail


# the first proper balls at eps 1/128 (golden runs freiman-c2200-eps128 and
# freiman-s3xc1065-eps128): group spec, A, |ball| and prop51's ratio at 1/32
PROPER_RUNS = {
    "c2200": ({"type": "cyclic", "n": 2200}, [2199, 0, 1], 275, Fraction(275, 137)),
    "s3xc1065": ({"type": "product", "factors": [
        {"type": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
        {"type": "cyclic", "n": 1065}]},
        [0, 1066, 2129, 2130, 3196, 4259, 4261, 5324, 5325], 801, Fraction(267, 133)),
}


@pytest.mark.parametrize("run", list(PROPER_RUNS))
def test_lemma_replays_on_the_first_proper_balls(run):
    """Each run's own sets fed to the replays: Lambda = LSpec(eps) u X
    contracts back to the run's ball, and Gamma = LSpec(2 eps) with the run's
    X grows as the growth chain says at 1/32. At 1/16, 8 delta < 1/3 fails and
    so does the contraction step, and the report says so without raising."""
    spec, indices, ball_size, ratio = PROPER_RUNS[run]
    g = build_group(spec)
    rep = freiman_ball(g, GroupSubset.from_indices(g, indices),
                       PipelineConfig(epsilon_override=Fraction(1, 128)))
    assert not rep.restricted and len(rep.ball) == ball_size < g.order
    gamma = large_spectrum(power_set(rep.a, rep.l), 2 * rep.eps).members

    contraction = cor53_check(rep.spectrum | rep.x, 5, Fraction(1, 16))
    assert _all_hold(contraction) and contraction.equal and contraction.forward_inclusion
    assert contraction.lhs_size == contraction.rhs_size == ball_size

    growth = prop51_check(gamma, rep.x, Fraction(1, 32))
    assert _all_hold(growth) and growth.all_inclusions_ok and growth.ratio_ok
    assert growth.ratio == ratio

    wide = prop51_check(gamma, rep.x, Fraction(1, 16))
    assert [r.name for r in wide.hypotheses if r.status == "fails"] == ["8 delta < 1/3"]
    assert [(s.name, s.lhs_size, s.rhs_size) for s in wide.steps if not s.ok] == [
        ("8-fold contraction back to radius delta", g.order, ball_size)]


def test_prop51_rejects_bad_preconditions():
    # an unmet hypothesis is a record that fails; only a radius the grid cannot
    # use is refused
    g = cyclic_group(20)
    lam = _lin_by_phase(g, Fraction(1, 20))
    asym = CharSet.build(g, [_trivial(g), lam])
    rep = prop51_check(asym, CharSet.trivial(g), Fraction(1, 32))
    assert _statuses(rep)["Gamma is symmetric and contains the trivial character"] == "fails"
    rep = prop51_check(CharSet.trivial(g), CharSet.trivial(g), Fraction(1, 8))
    assert _statuses(rep)["delta <= 2^-4"] == "fails"
    for delta in (0, Fraction(-1, 32)):
        with pytest.raises(ValueError, match="delta > 0"):
            prop51_check(CharSet.trivial(g), CharSet.trivial(g), delta)


def test_bohr_dimension_bound():
    # doubling exponent of a Bohr ball is at most 2 per character
    cases = [
        (cyclic_group(36), [Fraction(1, 36)]),
        (cyclic_group(30), [Fraction(1, 30), Fraction(7, 30)]),
        (dihedral_group(16), None),
    ]
    for g, phases in cases:
        if phases is None:
            chars = [l for l in linear_characters(g) if not l.is_trivial][:2]
        else:
            chars = [_lin_by_phase(g, p) for p in phases]
        s = CharSet.build(g, chars)
        rho = bohr_norm(s)
        for delta in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)):
            d, _ = ball_dimension(rho, delta)
            assert d <= 2 * len(s) + 1e-12


def test_charset_sum():
    g = cyclic_group(10)
    a = CharSet.build(g, [_lin_by_phase(g, Fraction(1, 10))])
    b = CharSet.build(g, [_lin_by_phase(g, Fraction(3, 10))])
    s = charset_sum(a, b)
    assert len(s) == 1
    assert s.chars[0].phases[1] == Fraction(4, 10) % 1
