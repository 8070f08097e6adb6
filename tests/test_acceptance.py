"""Acceptance gate: thirteen end-to-end checks, one test and one summary line each.

Every check states its fixture family, tolerance, and where applicable a
runtime budget. Tolerances are zero (exact set or rational arithmetic) unless
a float route is explicitly part of the claim.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from monoball.bohr import CharSet, bohr_norm, char_span, charset_sum, cor53_check, linbohr
from monoball.groups import (
    GroupSubset,
    build_group,
    closure,
    commutator_subgroup,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_subgroups,
    heisenberg_group,
    permutation_group,
    product_group,
    product_set,
    quaternion_group,
    subgroup_view,
)
from monoball.harmonic import (
    ClassFunction,
    character_table,
    convolve,
    fourier_scalar,
    frobenius_residual,
    high_value_linearity_check,
    indicator,
    induce_class_function,
    is_monomial,
    linear_characters,
    plancherel_check,
)
from monoball.metric import ball as norm_ball
from monoball.metric import (ball_axioms_check, ball_dimension, validate_norm, word_norm,
                             zero_norm)
from monoball.pipeline import PipelineConfig, freiman_ball, prop81_check
from monoball.setops import (
    appendix_growth_check,
    growth_profile,
    normalize_set,
    power_set,
)
from monoball.spectra import (
    large_spectrum,
    lspec_doubling_cover,
    lspec_size_check,
    spectral_energy_check,
)
from monoball.cli import _freiman_result


def _subset(g, ids):
    return GroupSubset.from_indices(g, ids)


def _s3():
    return permutation_group(3, [[1, 0, 2], [0, 2, 1]])


def _s4():
    return permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])


def _sl23():
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pidx = {p: i for i, p in enumerate(pts)}

    def mat_perm(m):
        out = []
        for a, b in pts:
            na = (m[0][0] * a + m[0][1] * b) % 3
            nb = (m[1][0] * a + m[1][1] * b) % 3
            out.append(pidx[(na, nb)])
        return out

    return permutation_group(8, [mat_perm([[1, 1], [0, 1]]), mat_perm([[1, 0], [1, 1]])])


def _generating_set(g):
    # conjugation-closed so the induced word norm is a class function
    chosen = []
    while len(closure(g, chosen)) < g.order:
        reached = closure(g, chosen)
        chosen.append(next(x for x in range(g.order) if x not in reached))
    return normalize_set(_subset(g, chosen or [g.identity]), symmetrize=True,
                         add_identity=True, conjugation_close=True)


def _charset(g, idxs):
    lin = linear_characters(g)
    return CharSet.build(g, [lin[i] for i in idxs])


def _random_hermitian(g, rng):
    vals = np.zeros(g.order, dtype=complex)
    for cls in conjugacy_classes(g).classes:
        v = rng.standard_normal() + 1j * rng.standard_normal()
        for x in cls:
            vals[x] = v
    vals = (vals + np.conj(vals[g.inv_table])) / 2
    return ClassFunction(g, vals)


def _heis_gens13(g):
    return normalize_set(_subset(g, [9, 3]), symmetrize=True, add_identity=True,
                         conjugation_close=True)


def _heis_a21(g):
    return _subset(g, [x for x in range(27) if x not in (12, 13, 14, 24, 25, 26)])


def test_criterion_01_ball_axioms():
    start = time.monotonic()
    groups = [cyclic_group(5), cyclic_group(12), cyclic_group(60), dihedral_group(6),
              dihedral_group(12), dihedral_group(16), quaternion_group(),
              heisenberg_group(3), product_group([cyclic_group(2), dihedral_group(6)]),
              _s4()]
    assert len(groups) >= 10 and all(g.order <= 60 for g in groups)
    checked = 0
    for g in groups:
        lin_count = len(linear_characters(g))
        norms = [zero_norm(g),
                 word_norm(g, _generating_set(g)),
                 bohr_norm(_charset(g, list(range(min(3, lin_count)))))]
        for rho in norms:
            report = ball_axioms_check(rho)
            assert report.all_ok, (g.name, report.witnesses)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 01 ball-axioms: PASS "
          f"({len(groups)} groups x 3 norm families, {checked} exhaustive reports, "
          f"0 tolerance, {elapsed:.1f}s)")


def test_criterion_02_bohr_contraction():
    fixtures = []
    for g in (cyclic_group(12), cyclic_group(16), cyclic_group(36), dihedral_group(12),
              heisenberg_group(3), quaternion_group()):
        lin_count = len(linear_characters(g))
        for idxs in ([0, 1], [0, 1, 2][:min(3, lin_count)]):
            lam = _charset(g, idxs)
            for k, delta in ((1, Fraction(1, 4)), (2, Fraction(1, 8)),
                             (3, Fraction(1, 10))):
                fixtures.append((lam, k, delta))
    assert len(fixtures) >= 20
    for lam, k, delta in fixtures:
        report = cor53_check(lam, k, delta)
        assert all(r.status == "holds" for r in report.hypotheses)
        assert report.equal and report.forward_inclusion
    print(f"ACCEPTANCE 02 bohr-contraction: PASS "
          f"({len(fixtures)} (Lambda,k,delta) fixtures, exact set equality)")


def test_criterion_03_convolution_theorem():
    groups = [cyclic_group(12), dihedral_group(12), quaternion_group(),
              heisenberg_group(3), _s4()]
    worst_conv, worst_planch = 0.0, 0.0
    for g in groups:
        rng = np.random.default_rng(11)
        table = character_table(g)
        for _ in range(100):
            f, h = _random_hermitian(g, rng), _random_hermitian(g, rng)
            fh = convolve(f, h)
            for chi in table.characters:
                lhs = fourier_scalar(fh, chi, allow_general=True).mu
                rhs = (fourier_scalar(f, chi, allow_general=True).mu
                       * fourier_scalar(h, chi, allow_general=True).mu)
                worst_conv = max(worst_conv, abs(lhs - rhs))
            worst_planch = max(worst_planch, plancherel_check(f, h))
    assert worst_conv < 1e-9
    assert worst_planch < 1e-8
    print(f"ACCEPTANCE 03 convolution-theorem: PASS "
          f"({len(groups)} groups x 100 hermitian pairs, "
          f"conv residual {worst_conv:.2e} < 1e-9, "
          f"plancherel {worst_planch:.2e} < 1e-8)")


def test_criterion_04_frobenius():
    groups = [cyclic_group(12), dihedral_group(12), quaternion_group(),
              heisenberg_group(3), _s4()]
    worst = 0.0
    pairs = 0
    dim_laws = 0
    for g in groups:
        for sub in enumerate_subgroups(g):
            view = subgroup_view(g, sub)
            rng = np.random.default_rng(13)
            for _ in range(10):
                f = _random_hermitian(view.group, rng)
                h = _random_hermitian(g, rng)
                worst = max(worst, frobenius_residual(view, f, h))
                pairs += 1
            index = g.order // view.group.order
            for lam in linear_characters(view.group):
                induced = induce_class_function(view, lam.as_class_function())
                d = induced.values[g.identity]
                assert d.real == index and d.imag == 0.0
                dim_laws += 1
    assert worst < 1e-8
    print(f"ACCEPTANCE 04 frobenius: PASS "
          f"(every subgroup of {len(groups)} groups, {pairs} random pairs, "
          f"residual {worst:.2e} < 1e-8; {dim_laws} induced-dimension laws exact)")


def test_criterion_05_monomial_ground_truth():
    monomial_groups = ([quaternion_group(), _s3(), _s4(), heisenberg_group(3)]
                       + [dihedral_group(n) for n in range(4, 33, 2)])
    recheck = 0
    worst = 0.0
    for g in monomial_groups:
        ok, certs = is_monomial(g)
        assert ok, g.name
        table = character_table(g)
        for cert in certs:
            assert cert.matched
            # rebuild the inducing datum on a fresh view, matching by phase tuple
            view = subgroup_view(g, cert.subgroup)
            lam = next(l for l in linear_characters(view.group)
                       if l.phases == cert.linear.phases)
            induced = induce_class_function(view, lam.as_class_function())
            residual = float(np.abs(induced.values
                                    - table.characters[cert.char_index].values).max())
            worst = max(worst, residual)
            recheck += 1
    assert worst < 1e-8
    ok, certs = is_monomial(_sl23())
    assert not ok
    assert [c.dim for c in certs if not c.matched] == [2, 2, 2]
    print(f"ACCEPTANCE 05 monomial-ground-truth: PASS "
          f"({len(monomial_groups)} true groups, SL(2,3)-style fixture false, "
          f"{recheck} certificates re-induced, residual {worst:.2e} < 1e-8)")


def test_criterion_06_high_value_linearity():
    heis = heisenberg_group(3)
    c12, c16 = cyclic_group(12), cyclic_group(16)
    q8, d6, s4 = quaternion_group(), dihedral_group(6), _s4()
    fixtures = [
        (c12, _subset(c12, [0, 1]), _subset(c12, [0, 4, 8])),
        (c16, _subset(c16, [0, 1]), _subset(c16, [15, 0, 1])),
        (heis, _subset(heis, [0, 9, 3]), _heis_a21(heis)),
        (q8, GroupSubset.full(q8), GroupSubset.full(q8)),
        (d6, GroupSubset.full(d6), GroupSubset.full(d6)),
        (s4, GroupSubset.full(s4), GroupSubset.full(s4)),
    ]
    rows_total = 0
    for g, s, a in fixtures:
        report = high_value_linearity_check(g, s, a)
        assert all(r.status == "holds" for r in report.hypotheses)
        assert report.consistent
        for row in report.rows:
            if row.exceeds_threshold:
                assert row.dim == 1
            rows_total += 1
    print(f"ACCEPTANCE 06 high-value-linearity: PASS "
          f"({len(fixtures)} hypothesis-valid fixtures, {rows_total} irreducibles "
          f"scanned, no exceeding character of dim > 1)")


def test_criterion_07_spectral_energy():
    heis = heisenberg_group(3)
    c16 = cyclic_group(16)
    c20 = cyclic_group(20)
    whole = [(g, Fraction(1), 2) for g in
             (cyclic_group(1), cyclic_group(12), quaternion_group(), heis,
              dihedral_group(6), _s4(),
              product_group([cyclic_group(2), heisenberg_group(3)]))]
    whole.append((c16, Fraction(1), 3))
    fixtures = [(g, GroupSubset.full(g), GroupSubset.full(g), eta, k)
                for g, eta, k in whole]
    fixtures += [
        (c16, _subset(c16, [0, 1]), _subset(c16, [15, 0, 1]), Fraction(19, 20), 4),
        (c16, _subset(c16, [0, 1]), _subset(c16, [15, 0, 1]), Fraction(9, 10), 5),
        (c20, _subset(c20, [0, 1]), _subset(c20, [19, 0, 1]), Fraction(19, 20), 4),
        (heis, _subset(heis, [0, 9, 3]), _heis_a21(heis), Fraction(9, 10), 3),
    ]
    assert len(fixtures) >= 10
    min_slack = math.inf
    for g, s, a, eta, k in fixtures:
        report = spectral_energy_check(g, s, a, eta, k)
        assert all(h.status == "holds" for h in report.hypotheses), \
            (g.name, [h.name for h in report.hypotheses if h.status != "holds"])
        assert report.lhs_ge_mid and report.mid_ge_rhs and report.all_ok
        min_slack = min(min_slack, report.lhs - report.mid, report.mid - report.rhs)
    print(f"ACCEPTANCE 07 spectral-energy: PASS "
          f"({len(fixtures)} hypothesis-valid (G,A,eta,k) fixtures, both inequalities "
          f"exact, min slack {min_slack:.3e})")


def test_criterion_08_spectrum_covering():
    heis = heisenberg_group(3)
    c128 = cyclic_group(128)
    c12 = cyclic_group(12)
    runs = [
        (heis, GroupSubset.full(heis), GroupSubset.full(heis), Fraction(1, 16), 1.0),
        (c128, _subset(c128, [126, 127, 0, 1, 2]), _subset(c128, [126, 127, 0, 1, 2]),
         Fraction(1, 16), 1.0),
        (c12, _subset(c12, [0, 4, 8]), _subset(c12, [0, 4, 8]), Fraction(1, 8), 1.0),
    ]
    sums_checked = 0
    for g, s, a, eps, d in runs:
        report = lspec_doubling_cover(g, s, a, eps, d)
        assert report.branch == "covered"
        assert report.covering_ok
        lspec_eps = large_spectrum(a, eps).members
        reachable = charset_sum(char_span(report.x), lspec_eps)
        for gamma in lspec_eps.chars:
            for gamma2 in lspec_eps.chars:
                assert gamma.add(gamma2).index in reachable
                sums_checked += 1
    print(f"ACCEPTANCE 08 spectrum-covering: PASS "
          f"({len(runs)} non-Small runs, greedy X re-validated on "
          f"{sums_checked} pairwise sums, exact membership)")


def test_criterion_09_bohr_inclusion_and_size():
    c12 = cyclic_group(12)
    c36 = cyclic_group(36)
    c128 = cyclic_group(128)
    heis = heisenberg_group(3)
    prod = product_group([cyclic_group(2), heisenberg_group(3)])
    prod_a = normalize_set(_subset(prod, [27, 9, 3]), symmetrize=True,
                           add_identity=True, conjugation_close=True)
    inclusion_runs = [
        (_subset(c12, [0, 4, 8]), 2, Fraction(1, 16)),
        (_subset(c36, [35, 0, 1]), 6, Fraction(1, 16)),
        (_heis_gens13(heis), 3, Fraction(1, 8)),
        (_subset(c128, [127, 0, 1]), 6, Fraction(1, 16)),
        (prod_a, 3, Fraction(1, 8)),
    ]
    for a, l, eps in inclusion_runs:
        report = prop81_check(a, l, eps)
        assert report.contained
        assert report.difference_set.is_subset_of(report.ball)

    size_runs = [(g, 34) for g in (c12, heis, quaternion_group(), dihedral_group(6))]
    for g, k in size_runs:
        full = GroupSubset.full(g)
        report = lspec_size_check(g, full, full, Fraction(1), k, 1.0)
        assert all(h.status == "holds" for h in report.hypotheses)
        assert report.ok
        # rational re-check of the claimed bound at integer d
        assert report.lhs <= 8 * k * Fraction(g.order, g.order)
    print(f"ACCEPTANCE 09 bohr-inclusion-and-size: PASS "
          f"({len(inclusion_runs)} difference-set inclusions exact, "
          f"{len(size_runs)} size bounds re-checked in rationals)")


def test_criterion_10_pipeline():
    heis = heisenberg_group(3)
    d16 = dihedral_group(16)
    c128 = cyclic_group(128)
    p1 = product_group([cyclic_group(2), heisenberg_group(3)])
    p2 = product_group([cyclic_group(3), dihedral_group(8)])
    runs = [
        (heis, _heis_gens13(heis)),
        (d16, normalize_set(_subset(d16, [1]), symmetrize=True, add_identity=True,
                            conjugation_close=True)),
        (c128, _subset(c128, [127, 0, 1])),
        (p1, normalize_set(_subset(p1, [27, 9, 3]), symmetrize=True,
                           add_identity=True, conjugation_close=True)),
        (p2, normalize_set(_subset(p2, [8, 1, 4]), symmetrize=True,
                           add_identity=True, conjugation_close=True)),
    ]
    lines = []
    for g, a in runs:
        start = time.monotonic()
        rep1 = freiman_ball(g, a)
        rep2 = freiman_ball(g, a)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        assert rep1.aa_inv_in_ball and rep1.all_checks_ok
        diff = product_set(a, a.inverse())
        if rep1.restricted:
            assert rep1.ball_parent_indices is not None
            parent_ball = _subset(g, rep1.ball_parent_indices)
        else:
            parent_ball = _subset(g, rep1.ball.indices())
        assert diff.is_subset_of(parent_ball)
        b1 = json.dumps(_freiman_result(rep1), indent=2).encode()
        b2 = json.dumps(_freiman_result(rep2), indent=2).encode()
        assert b1 == b2
        lines.append(f"{g.name}: dim {rep1.dim_ball:.2f} ratio {rep1.size_ratio} "
                     f"{elapsed:.1f}s")
    print("ACCEPTANCE 10 pipeline: PASS (" + "; ".join(lines) + "; byte-identical)")


def test_criterion_11_appendix_covering(bfs_power_sizes):
    c100 = cyclic_group(100)
    c64 = cyclic_group(64)
    heis = heisenberg_group(3)
    q8 = quaternion_group()
    fixtures = [
        _subset(c100, [99, 0, 1]),
        _subset(c64, [62, 63, 0, 1, 2]),
        _heis_gens13(heis),
        normalize_set(_subset(q8, [2]), symmetrize=True, add_identity=True),
    ]
    for a in fixtures:
        report = appendix_growth_check(a, 10)
        assert report.tripling <= 4
        assert report.cover.separation_ok and report.cover.inclusion_ok
        assert report.all_ok and all(row.inclusion_ok for row in report.rows)
        profile, _ = growth_profile(a, 10)
        assert profile.sizes == bfs_power_sizes(a, 10)
    print(f"ACCEPTANCE 11 appendix-covering: PASS "
          f"({len(fixtures)} fixtures with tripling <= 4, covering exact to n = 10, "
          f"growth equals BFS exactly)")


def test_criterion_12_bohr_dimension_bound():
    fixtures = []
    for g in (cyclic_group(12), cyclic_group(16), cyclic_group(36), dihedral_group(12),
              heisenberg_group(3), quaternion_group(),
              product_group([cyclic_group(2), heisenberg_group(3)])):
        lin_count = len(linear_characters(g))
        for size in (1, 2, 3):
            if size > lin_count:
                continue
            gamma = _charset(g, list(range(size)))
            for delta in (Fraction(1, 3), Fraction(1, 4), Fraction(1, 8),
                          Fraction(1, 16)):
                fixtures.append((gamma, delta))
    assert len(fixtures) >= 20
    worst_margin = math.inf
    for gamma, delta in fixtures:
        dim, _ = ball_dimension(bohr_norm(gamma), delta)
        assert dim <= 2 * len(gamma)
        worst_margin = min(worst_margin, 2 * len(gamma) - dim)
    print(f"ACCEPTANCE 12 bohr-dimension-bound: PASS "
          f"({len(fixtures)} (Gamma,delta) fixtures, dim <= 2|Gamma| exact, "
          f"min margin {worst_margin:.3f})")


# the proper non-abelian balls at eps 1/128 (golden runs freiman-*-eps128), one
# group from each class the paper names, and a supersolvable A-group whose G'
# is C7: group, A and |ball|
PROPER_NONABELIAN = {
    "supersolvable S3 x C1065": (
        {"type": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}, 1065,
        [0, 1066, 2129, 2130, 3196, 4259, 4261, 5324, 5325], 801),
    "nilpotent D8 x C993": (
        {"type": "dihedral", "order": 8}, 993,
        [0, 993, 1986, 2979, 3973, 4964, 5959, 6950], 996),
    "solvable A-group A4 x C710": (
        {"type": "permutation", "degree": 4, "generators": [[1, 2, 0, 3], [1, 0, 3, 2]]}, 710,
        [0, 711, 1420, 2839, 2841, 3551, 4969, 5679, 6389, 6391, 7100, 7810], 1068),
    "supersolvable A-group (C7 x| C3) x C710": (
        {"type": "permutation", "degree": 7,
         "generators": [[1, 2, 3, 4, 5, 6, 0], [0, 2, 4, 6, 1, 3, 5]]}, 710,
        [0, 710, 1421, 2130, 2841, 3551, 4969, 4970, 5681, 7099, 7101, 8519, 9229, 9230, 9941,
         11359, 12069, 12071, 13489, 13490, 14200], 1869),
}


def test_criterion_13_proper_nonabelian_balls():
    """Each run is built, checked and dropped before the next, since their
    tables are large: (C7 x| C3) x C710's int32 table alone takes 889 MB."""
    lines = []
    for name, (factor, n, indices, size) in PROPER_NONABELIAN.items():
        g = build_group({"type": "product", "factors": [factor, {"type": "cyclic", "n": n}]})
        rep = freiman_ball(g, _subset(g, indices),
                           PipelineConfig(epsilon_override=Fraction(1, 128)))
        ball = rep.ball
        assert not rep.restricted and len(ball) == size < g.order
        assert product_set(rep.a, rep.a.inverse()).is_subset_of(ball)
        # B is a union of G'-cosets: the linear characters it is cut out by
        # are trivial on G'
        assert product_set(ball, commutator_subgroup(g)) == ball
        # the final ball is the 1/16-ball of a bi-invariant pseudo-metric norm
        rho = bohr_norm(rep.spectrum | rep.x)
        assert norm_ball(rho, Fraction(1, 16)) == ball
        assert ball_axioms_check(rho).all_ok and validate_norm(rho).valid
        # above the subgroup cap monomiality is not checked; once the
        # hypotheses are certified above order 128 this entry reads "holds"
        assert [e.status for e in rep.ledger if e.stage == "hypotheses"] == ["unchecked"]
        lines.append(f"{name}: |B| = {len(ball)} of {g.order}")
        del g, rep, ball, rho
    print("ACCEPTANCE 13 proper non-abelian balls: PASS (" + "; ".join(lines)
          + "; AA^-1 inside B, B a union of G'-cosets and the 1/16-ball of a norm that"
          " passes both axiom checks)")


def _shape(indices, n):
    """The pairs (h, c), -n/2 <= c < n/2, of the elements h n + (c mod n)."""
    return [(i // n, (i + n // 2) % n - n // 2) for i in indices]


def test_criterion_13_controls_just_below_the_boundary_fill_the_group():
    """The same set shapes with a cyclic factor two or three smaller: each
    ball is the whole working group. Built and dropped one at a time."""
    lines = []
    for name, n in (("nilpotent D8 x C993", 991), ("supersolvable S3 x C1065", 1063),
                    ("solvable A-group A4 x C710", 709)):
        factor, golden_n, indices, _ = PROPER_NONABELIAN[name]
        g = build_group({"type": "product", "factors": [factor, {"type": "cyclic", "n": n}]})
        shape = _shape(indices, golden_n)
        assert [h * golden_n + c % golden_n for h, c in shape] == indices
        a = _subset(g, [h * n + c % n for h, c in shape])
        rep = freiman_ball(g, a, PipelineConfig(epsilon_override=Fraction(1, 128)))
        assert not rep.restricted and len(rep.ball) == g.order, name
        lines.append(f"{g.name}: |B| = {len(rep.ball)} of {g.order}")
        del g, a, rep
    print("ACCEPTANCE 13 controls: PASS (" + "; ".join(lines) + ")")
