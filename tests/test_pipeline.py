import math
from fractions import Fraction

import pytest

from monoball import groups
from monoball.groups import (
    GroupSubset,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    product_group,
)
from monoball.pipeline import (
    PipelineConfig,
    find_l,
    freiman_ball,
    prop81_check,
)
from monoball.setops import normalize_set, power_set


def _subset(g, ids):
    return GroupSubset.from_indices(g, ids)


def _interval(g, m):
    return _subset(g, [x % g.order for x in range(-m, m + 1)])


def _heis_gens13(g):
    a = normalize_set(_subset(g, [9, 3]), symmetrize=True, add_identity=True,
                      conjugation_close=True)
    assert len(a) == 13
    return a


# ---------------------------------------------------------------------------
# find_l


def test_find_l_identity_singleton():
    g = cyclic_group(9)
    assert find_l(_subset(g, [0])) == (1, Fraction(1))


def test_find_l_subgroup():
    g = cyclic_group(12)
    assert find_l(_subset(g, [0, 4, 8])) == (2, Fraction(1))


def test_find_l_cyclic100_interval():
    g = cyclic_group(100)
    l, k = find_l(_interval(g, 1))
    # first l with (2l+3)^2 < 2(2l-1)^2, well below saturation
    expected = next(n for n in range(1, 50) if (2 * n + 3) ** 2 < 2 * (2 * n - 1) ** 2)
    assert l == expected == 6
    assert k == Fraction(13, 11)


def test_find_l_consequences_on_assorted_sets():
    fixtures = [
        (cyclic_group(36), _interval(cyclic_group(36), 1)),
        (heisenberg_group(3), None),
    ]
    g36, a36 = fixtures[0]
    l, _ = find_l(a36)
    sizes = [len(power_set(a36, n)) for n in range(l + 2)]
    assert sizes[l + 1] ** 2 < 2 * sizes[l] ** 2
    assert sizes[l] ** 2 < 2 * sizes[l - 1] ** 2
    gh = heisenberg_group(3)
    ah = _heis_gens13(gh)
    l, k = find_l(ah)
    assert l == 3 and k == Fraction(1)


def test_find_l_rejects_bad_input():
    g = cyclic_group(12)
    with pytest.raises(ValueError):
        find_l(_subset(g, [0, 1]))       # not symmetric
    with pytest.raises(ValueError):
        find_l(_subset(g, [1, 11]))      # no identity


# ---------------------------------------------------------------------------
# the difference-set inclusion


def test_prop81_normal_subgroup_ball_is_subgroup():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    rep = prop81_check(a, 2, Fraction(1, 16))
    assert rep.contained
    assert rep.k_ratio == 1
    assert sorted(rep.ball) == [0, 4, 8]
    assert sorted(rep.difference_set) == [0, 4, 8]


def test_prop81_cyclic36_interval():
    g = cyclic_group(36)
    a = _interval(g, 1)
    l, k = find_l(a)
    rep = prop81_check(a, l, Fraction(1, 16))
    assert rep.contained
    assert rep.k_ratio == k == Fraction(13, 11)
    assert len(rep.spectrum.members) == 1
    assert len(rep.ball) == 36


def test_prop81_heisenberg_generators():
    g = heisenberg_group(3)
    a = _heis_gens13(g)
    rep = prop81_check(a, 3, Fraction(1, 8))
    assert rep.contained
    assert rep.k_ratio == 1
    assert len(rep.ball) == 27


def test_prop81_rejects_bad_parameters():
    g = cyclic_group(12)
    a = _subset(g, [0, 4, 8])
    with pytest.raises(ValueError):
        prop81_check(a, 0, Fraction(1, 16))
    with pytest.raises(ValueError):
        prop81_check(a, 2, Fraction(2))
    with pytest.raises(ValueError):
        prop81_check(GroupSubset(g, 0), 1, Fraction(1, 16))


# ---------------------------------------------------------------------------
# the full pipeline


def test_freiman_cyclic128_interval():
    g = cyclic_group(128)
    rep = freiman_ball(g, _interval(g, 1))
    assert rep.all_checks_ok and rep.aa_inv_in_ball
    assert not rep.restricted
    assert rep.l == 6 and rep.k_ratio == Fraction(13, 11)
    assert rep.eps == Fraction(1, 492)
    assert rep.eps == Fraction(1, math.ceil(1024 * math.log(2) ** 2))
    assert rep.branch == "covered" and len(rep.x) == 0
    assert len(rep.spectrum) == 1
    assert len(rep.ball) == 128
    assert rep.size_ratio == Fraction(128, 3)
    assert rep.dim_ball == 0.0
    # fit on A^l, an interval of 13 residues: sizes min(12n+1, 128)
    oracle = max(math.log(min(12 * n + 1, 128) / 13) / math.log(n) for n in range(2, 13))
    assert rep.d_prime == pytest.approx(oracle)
    assert rep.d_eff == 1.0
    # independent re-enumeration of B: only the trivial character constrains
    assert rep.ball.mask == (1 << 128) - 1


def test_freiman_restricts_to_generated_subgroup():
    g = dihedral_group(16)
    a = normalize_set(_subset(g, [1]), symmetrize=True, add_identity=True,
                      conjugation_close=True)
    rep = freiman_ball(g, a)
    assert rep.restricted and rep.working_order == 8
    assert rep.l == 4 and rep.k_ratio == Fraction(8, 7)
    assert rep.aa_inv_in_ball
    assert rep.ball_parent_indices == tuple(range(8))
    restrict = next(e for e in rep.ledger if e.stage == "restrict")
    assert restrict.status == "fails" and "restricted" in restrict.witness


def test_freiman_heisenberg3_generators():
    g = heisenberg_group(3)
    rep = freiman_ball(g, _heis_gens13(g))
    assert rep.all_checks_ok
    assert rep.l == 3 and rep.k_ratio == 1
    assert rep.eps == Fraction(1, 492)
    assert len(rep.ball) == 27 and rep.size_ratio == Fraction(27, 13)
    assert rep.dim_ball == 0.0
    hered = next(e for e in rep.ledger if "monomial" in e.hypothesis)
    assert hered.status == "holds"
    clipped = [e for e in rep.ledger if e.status == "clipped"]
    assert clipped, "saturating powers must record the window clip"


def test_freiman_product_c2_heis3():
    g = product_group([cyclic_group(2), heisenberg_group(3)])
    a = normalize_set(_subset(g, [27, 9, 3]), symmetrize=True, add_identity=True,
                      conjugation_close=True)
    assert len(a) == 14
    rep = freiman_ball(g, a)
    assert rep.all_checks_ok and not rep.restricted
    assert rep.l == 3 and rep.k_ratio == Fraction(27, 20)
    assert len(rep.ball) == 54 and rep.size_ratio == Fraction(27, 7)


def test_freiman_product_c3_dihedral8():
    g = product_group([cyclic_group(3), dihedral_group(8)])
    a = normalize_set(_subset(g, [8, 1, 4]), symmetrize=True, add_identity=True,
                      conjugation_close=True)
    assert len(a) == 7
    rep = freiman_ball(g, a)
    assert rep.all_checks_ok and not rep.restricted
    assert rep.l == 3 and rep.k_ratio == Fraction(4, 3)
    assert len(rep.ball) == 24 and rep.size_ratio == Fraction(24, 7)


def test_freiman_subgroup_input():
    g = cyclic_group(12)
    rep = freiman_ball(g, _subset(g, [0, 4, 8]))
    assert rep.restricted and rep.working_order == 3
    assert rep.l == 2
    assert rep.size_ratio == 1
    assert rep.ball_parent_indices == (0, 4, 8)


def test_freiman_determinism():
    g = heisenberg_group(3)
    a = _heis_gens13(g)
    r1 = freiman_ball(g, a)
    r2 = freiman_ball(g, a)
    assert (r1.l, r1.k_ratio, r1.eps, r1.branch) == (r2.l, r2.k_ratio, r2.eps, r2.branch)
    assert r1.ball.mask == r2.ball.mask
    assert [c.phases for c in r1.x] == [c.phases for c in r2.x]
    led1 = [(e.stage, e.hypothesis, e.status, e.witness) for e in r1.ledger]
    led2 = [(e.stage, e.hypothesis, e.status, e.witness) for e in r2.ledger]
    assert led1 == led2
    assert [(c.name, c.lhs_size, c.rhs_size, c.ok) for c in r1.checks] == \
           [(c.name, c.lhs_size, c.rhs_size, c.ok) for c in r2.checks]


def test_freiman_nmax_only_tightens_fit():
    g = cyclic_group(128)
    a = _interval(g, 1)
    small = freiman_ball(g, a, PipelineConfig(n_max=8))
    large = freiman_ball(g, a, PipelineConfig(n_max=14))
    assert small.l == large.l == 6
    assert small.eps == large.eps
    assert small.d_fit <= large.d_fit + 1e-12
    assert small.aa_inv_in_ball and large.aa_inv_in_ball


def test_freiman_epsilon_override_and_config_guards():
    g = cyclic_group(128)
    a = _interval(g, 1)
    rep = freiman_ball(g, a, PipelineConfig(epsilon_override=Fraction(1, 128)))
    assert rep.eps == Fraction(1, 128)
    eps_entry = next(e for e in rep.ledger if e.stage == "epsilon")
    assert "override" in eps_entry.witness
    with pytest.raises(ValueError):
        freiman_ball(g, a, PipelineConfig(epsilon_override=Fraction(1, 64)))
    with pytest.raises(ValueError):
        PipelineConfig(n_max=3)
    for c in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="constant_c must be positive and finite"):
            PipelineConfig(constant_c=c)
    with pytest.raises(ValueError):
        freiman_ball(g, _subset(g, [0, 1]))   # not symmetric


def test_config_refuses_an_eps_override_outside_the_chain():
    for eps in (Fraction(0), Fraction(-1, 128)):
        with pytest.raises(ValueError, match="eps must be positive"):
            PipelineConfig(epsilon_override=eps)
    with pytest.raises(ValueError, match="epsilon too large"):
        PipelineConfig(epsilon_override=Fraction(1, 127))
    assert PipelineConfig(epsilon_override=Fraction(1, 128)).epsilon_override == Fraction(1, 128)


def test_freiman_ball_builds_one_power_chain_per_set(monkeypatch):
    built = []
    init = groups.PowerChain.__init__

    def counting_init(self, mul_table, identity, a):
        built.append(tuple(a.tolist()))
        init(self, mul_table, identity, a)

    monkeypatch.setattr(groups.PowerChain, "__init__", counting_init)
    g = cyclic_group(256)
    a = _interval(g, 1)
    rep = freiman_ball(g, a)
    # A's alone: find_l, both fits, the predicates, the doubling window and
    # the size check read it, and so do the hull of A and both "S generates G"
    # records; A^l's chain is A's read at stride l (l > 1 here), and C256 is
    # abelian, so its commutator subgroup is {0} without a closure
    assert rep.l > 1 and built == [a.indices()]
    assert isinstance(groups.power_chain(power_set(a, rep.l)), groups.StridedChain)


def test_freiman_ball_reads_no_class_list_on_an_abelian_group():
    g = cyclic_group(256)
    freiman_ball(g, _interval(g, 1))
    # the symmetric-and-normal record reads class_of only
    assert "classes" not in g.__dict__["_conjugacy"].__dict__
