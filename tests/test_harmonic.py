import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from monoball.errors import CapExceededError
from monoball.groups import (
    GroupSubset,
    closure,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_subgroups,
    heisenberg_group,
    permutation_group,
    product_group,
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
    inner,
    is_hereditarily_monomial,
    is_monomial,
    linear_characters,
    plancherel_check,
)


def _s3():
    return permutation_group(3, [[1, 0, 2], [0, 2, 1]])


def constant_one(group):
    return ClassFunction(group, np.ones(group.order, dtype=np.complex128))


def _sl23():
    # 2x2 determinant-one matrices over Z_3 acting on the 8 nonzero vectors
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pidx = {p: i for i, p in enumerate(pts)}

    def mat_perm(m):
        out = []
        for (a, b) in pts:
            na = (m[0][0] * a + m[0][1] * b) % 3
            nb = (m[1][0] * a + m[1][1] * b) % 3
            out.append(pidx[(na, nb)])
        return out

    return permutation_group(8, [mat_perm([[1, 1], [0, 1]]), mat_perm([[1, 0], [1, 1]])])


def _s4():
    return permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])


def _a4():
    return permutation_group(4, [[1, 2, 0, 3], [0, 2, 3, 1]])


def _fixtures():
    """The five pipeline fixture groups, each with the seeds of its set A."""
    return [(heisenberg_group(3), [9, 3]), (dihedral_group(16), [1]),
            (cyclic_group(128), [127, 1]),
            (product_group([cyclic_group(2), heisenberg_group(3)]), [27, 9, 3]),
            (product_group([cyclic_group(3), dihedral_group(8)]), [8, 1, 4])]


def _random_class_function(g, rng):
    vals = np.zeros(g.order, dtype=complex)
    for cls in conjugacy_classes(g).classes:
        v = rng.standard_normal() + 1j * rng.standard_normal()
        for x in cls:
            vals[x] = v
    return ClassFunction(g, vals)


def _random_hermitian_class_function(g, rng):
    f = _random_class_function(g, rng)
    inv = g.inv_table
    vals = (f.values + np.conj(f.values[inv])) / 2
    return ClassFunction(g, vals)


def test_linear_characters_cyclic():
    g = cyclic_group(12)
    lin = linear_characters(g)
    assert len(lin) == 12
    gen_phases = sorted(lam.phases[1] for lam in lin)
    assert gen_phases == [Fraction(k, 12) for k in range(12)]
    for lam in lin:
        lam.verify_homomorphism()
        assert lam.phases[g.identity] == 0


def test_linear_characters_counts():
    assert len(linear_characters(_s3())) == 2
    assert len(linear_characters(heisenberg_group(3))) == 9
    assert len(linear_characters(quaternion_group())) == 4


def test_linear_characters_sign_of_s3():
    g = _s3()
    nontriv = [lam for lam in linear_characters(g) if not lam.is_trivial]
    assert len(nontriv) == 1
    sign = nontriv[0]
    for x in range(6):
        expected = Fraction(0) if g.element_orders[x] in (1, 3) else Fraction(1, 2)
        assert sign.phases[x] == expected


def test_linear_character_group_ops():
    g = cyclic_group(5)
    lin = linear_characters(g)
    a, b = lin[1], lin[2]
    assert a.add(b).phases == lin[3].phases
    assert a.add(a.negate()).is_trivial
    for lam in lin:
        lam.verify_homomorphism()


def test_character_table_c2():
    t = character_table(cyclic_group(2))
    rows = [[round(v.real) for v in c.values] for c in t.characters]
    assert rows == [[1, 1], [1, -1]]
    assert t.dims == (1, 1)


def test_character_table_dims_frozen():
    assert character_table(_s3()).dims == (1, 1, 2)
    assert character_table(quaternion_group()).dims == (1, 1, 1, 1, 2)
    assert character_table(heisenberg_group(3)).dims == (1,) * 9 + (3, 3)
    assert character_table(_sl23()).dims == (1, 1, 1, 2, 2, 2, 3)


def test_character_table_orthogonality():
    for g in (_s3(), quaternion_group(), dihedral_group(16), heisenberg_group(3)):
        t = character_table(g)
        n = g.order
        assert sum(d * d for d in t.dims) == n
        sizes = np.array(t.partition.sizes, dtype=float)
        reps = list(t.partition.representatives())
        rows = np.stack([c.values[reps] for c in t.characters])
        gram = (np.conj(rows) * sizes) @ rows.T / n
        assert np.abs(gram - np.eye(len(t.dims))).max() < 1e-8
        # column orthogonality
        col = np.conj(rows.T) @ rows
        want = np.diag(n / sizes)
        assert np.abs(col - want).max() < 1e-8


def test_character_table_identity_positive_and_deterministic():
    g = dihedral_group(12)
    t = character_table(g)
    for c, d in zip(t.characters, t.dims):
        assert abs(c.values[g.identity] - d) < 1e-9
        assert d >= 1
    # a fresh group computes its table again, to the same bits
    fresh = character_table(dihedral_group(12))
    assert fresh.dims == t.dims
    for c0, c1 in zip(t.characters, fresh.characters):
        assert np.array_equal(c0.values, c1.values)


def test_character_table_linear_rows_match_lin():
    g = dihedral_group(16)
    t = character_table(g)
    lin = linear_characters(g)
    for i, lam in enumerate(lin):
        assert t.dims[i] == 1
        assert np.abs(t.characters[i].values - lam.as_values()).max() < 1e-12


def test_character_table_rejects_degree_one_rows_that_miss_lin(monkeypatch):
    import monoball.harmonic as harmonic

    g = dihedral_group(8)
    lp = harmonic.linear_phases(g)
    keys = lp.keys.copy()
    keys[1] = keys[2]              # one character twice, another one missing
    monkeypatch.setattr(harmonic, "linear_phases",
                        lambda group: dataclasses.replace(lp, keys=keys))
    with pytest.raises(ArithmeticError, match="missing"):
        character_table(g)


def test_character_table_cap():
    with pytest.raises(CapExceededError):
        character_table(cyclic_group(257))


def test_convolve_ones():
    g = _s3()
    one = constant_one(g)
    assert np.allclose(convolve(one, one).values, 1)


def test_convolve_indicator_at_identity():
    g = dihedral_group(8)
    a = GroupSubset.from_indices(g, [0, 1, 3])
    f = indicator(g, a)
    f_inv = indicator(g, a.inverse())
    conv = ClassFunction  # silence linter-style unused warnings
    # 1_A * 1_{A^-1}(e) = P(A); indicators here are not class functions, use raw sums
    vals = np.array([
        sum(f.values[y] * f_inv.values[g.mul(g.inv(y), x)] for y in range(g.order))
        for x in range(g.order)
    ]) / g.order
    assert abs(vals[g.identity] - len(a) / g.order) < 1e-12


def test_convolve_cyclic4_hand_counts():
    g = cyclic_group(4)
    a = GroupSubset.from_indices(g, [0, 1])
    f = indicator(g, a)
    conv = convolve(f, f)
    # counts of x = i+j with i,j in {0,1}: x=0:1, x=1:2, x=2:1, x=3:0
    assert np.allclose(conv.values, np.array([1, 2, 1, 0]) / 4)


def test_convolution_theorem():
    rng = np.random.default_rng(9)
    for g in (_s3(), dihedral_group(8), heisenberg_group(3)):
        t = character_table(g)
        for _ in range(5):
            f1 = _random_class_function(g, rng)
            f2 = _random_class_function(g, rng)
            conv = convolve(f1, f2)
            for chi in t.characters:
                lhs = fourier_scalar(conv, chi, allow_general=True).mu
                rhs = (fourier_scalar(f1, chi, allow_general=True).mu
                       * fourier_scalar(f2, chi, allow_general=True).mu)
                assert abs(lhs - rhs) < 1e-9


def test_fourier_scalar_trivial_cases():
    g = dihedral_group(12)
    t = character_table(g)
    one = constant_one(g)
    for chi, d in zip(t.characters, t.dims):
        mu = fourier_scalar(one, chi).mu
        if d == 1 and abs(chi.values - 1).max() < 1e-9:
            assert abs(mu - 1) < 1e-12
        else:
            assert abs(mu) < 1e-12


def test_fourier_scalar_s3_two_dim():
    g = _s3()
    t = character_table(g)
    transpositions = [x for x in range(6) if g.element_orders[x] == 2]
    f = indicator(g, GroupSubset.from_indices(g, transpositions))
    chi = t.characters[2]
    mu = fourier_scalar(f, chi).mu
    oracle = sum(f.values[x] * chi.values[x] for x in range(6)) / 6 / 2
    assert abs(mu - oracle) < 1e-12


def test_fourier_scalar_hermitian_real():
    rng = np.random.default_rng(4)
    g = quaternion_group()
    t = character_table(g)
    for _ in range(20):
        f = _random_hermitian_class_function(g, rng)
        for chi in t.characters:
            mu = fourier_scalar(f, chi).mu
            assert abs(mu.imag) < 1e-9


def test_fourier_scalar_rejects_non_hermitian():
    g = cyclic_group(5)
    f = indicator(g, GroupSubset.from_indices(g, [1]))
    with pytest.raises(ValueError):
        fourier_scalar(f, character_table(g).characters[0])
    fourier_scalar(f, character_table(g).characters[0], allow_general=True)


def test_fourier_magnitude_bound():
    rng = np.random.default_rng(14)
    g = heisenberg_group(3)
    t = character_table(g)
    for _ in range(10):
        f = _random_hermitian_class_function(g, rng)
        bound = np.abs(f.values).mean()
        for chi in t.characters:
            assert fourier_scalar(f, chi).spec_rad <= bound + 1e-9


def test_plancherel():
    g = dihedral_group(8)
    one = constant_one(g)
    assert plancherel_check(one, one) < 1e-12
    t = character_table(g)
    for chi in t.characters:
        assert plancherel_check(chi, chi) < 1e-8
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = _random_class_function(g, rng)
        h = _random_class_function(g, rng)
        assert plancherel_check(f, h) < 1e-8


def test_induce_from_whole_group():
    g = _s3()
    view = subgroup_view(g, GroupSubset.full(g))
    rng = np.random.default_rng(3)
    f = _random_class_function(g, rng)
    f_on_view = ClassFunction(view.group, f.values[list(view.to_parent)])
    out = induce_class_function(view, f_on_view)
    assert np.abs(out.values - f.values).max() < 1e-12


def test_induce_trivial_character_dimension():
    g = dihedral_group(12)
    h = closure(g, [2])  # rotations of order dividing 3
    view = subgroup_view(g, h)
    triv = constant_one(view.group)
    out = induce_class_function(view, triv)
    assert abs(out.values[g.identity] - g.order / len(h)) < 1e-12


def test_induce_a3_gives_two_dimensional():
    g = _s3()
    a3 = closure(g, [x for x in range(6) if g.element_orders[x] == 3])
    view = subgroup_view(g, a3)
    lam = [l for l in linear_characters(view.group) if not l.is_trivial][0]
    out = induce_class_function(view, lam.as_class_function())
    t = character_table(g)
    two = [c for c, d in zip(t.characters, t.dims) if d == 2][0]
    assert np.abs(out.values - two.values).max() < 1e-8


def test_induce_rejects_non_class_function():
    g = dihedral_group(8)
    h = closure(g, [1])
    view = subgroup_view(g, h)
    vals = np.zeros(view.group.order, dtype=complex)
    vals[1] = 1.0
    bad = ClassFunction(view.group, vals)
    # the rotation subgroup is abelian so singletons are fine there; break it upstairs
    out = induce_class_function(view, bad)
    assert out.is_class_function()

    s3 = _s3()
    a3 = closure(s3, [x for x in range(6) if s3.element_orders[x] == 3])
    v2 = subgroup_view(s3, a3)
    w = np.zeros(3, dtype=complex)
    w[1] = 1.0  # not constant on the inverse-pair class structure? A3 is abelian, fine.
    out2 = induce_class_function(v2, ClassFunction(v2.group, w))
    assert out2.is_class_function()


def _mean_over_conjugations(view, f):
    """Ind f as the index times the mean of the zero extension over every g x g^-1."""
    g = view.parent
    ext = np.zeros(g.order, dtype=complex)
    for i, x in enumerate(view.to_parent):
        ext[x] = f.values[i]
    conj = np.array([[g.conj(h, x) for x in range(g.order)] for h in range(g.order)])
    return g.order // view.group.order * ext[conj].mean(axis=0)


def test_induce_class_function_matches_the_mean_over_conjugations():
    rng = np.random.default_rng(12)
    for g in (_s4(), _sl23(), dihedral_group(16), heisenberg_group(3)):
        for sub in enumerate_subgroups(g):
            view = subgroup_view(g, sub.elements)
            f = _random_class_function(view.group, rng)
            want = _mean_over_conjugations(view, f)
            assert np.abs(induce_class_function(view, f).values - want).max() <= 1e-12


def _loop_defect(f):
    """The largest spread of f within a class, class by class."""
    worst = 0.0
    for cls in conjugacy_classes(f.group).classes:
        vals = f.values[list(cls)]
        worst = max(worst, float(np.abs(vals - vals[0]).max()))
    return worst


def test_class_constancy_defect_matches_the_class_loop():
    rng = np.random.default_rng(13)
    for g in (_s4(), dihedral_group(16), heisenberg_group(3)):
        f = _random_class_function(g, rng)
        assert f.class_constancy_defect() == _loop_defect(f) == 0.0
        for x in rng.choice(g.order, size=8, replace=False):
            vals = f.values.copy()
            vals[x] += rng.standard_normal() + 1j * rng.standard_normal()
            bad = ClassFunction(g, vals)
            assert bad.class_constancy_defect() == _loop_defect(bad)


def test_frobenius_reciprocity_all_subgroups():
    rng = np.random.default_rng(8)
    for g in (_s3(), quaternion_group(), dihedral_group(12)):
        from monoball.groups import enumerate_subgroups
        for sub in enumerate_subgroups(g):
            view = subgroup_view(g, sub.elements)
            for _ in range(5):
                f = _random_class_function(view.group, rng)
                h = _random_class_function(g, rng)
                assert frobenius_residual(view, f, h) < 1e-8


def test_kfold_convolution_power_law():
    g = cyclic_group(36)
    a = GroupSubset.from_indices(g, [35, 0, 1])
    f = indicator(g, a)
    t = character_table(g)
    conv = f
    for k in range(2, 6):
        conv = convolve(conv, f)
        for chi in t.characters[:6]:
            mu1 = fourier_scalar(f, chi).mu
            muk = fourier_scalar(conv, chi).mu
            assert abs(muk - mu1 ** k) < 1e-8


def test_is_monomial_abelian_and_q8():
    ok, certs = is_monomial(cyclic_group(12))
    assert ok and all(c.matched for c in certs)
    ok, certs = is_monomial(quaternion_group())
    assert ok
    two_dim = [c for c in certs if c.dim == 2]
    assert len(two_dim) == 1
    assert len(two_dim[0].subgroup) == 4


def test_is_monomial_cached_per_group(monkeypatch):
    import monoball.harmonic as harmonic
    from monoball.groups import GroupSubset
    from monoball.pipeline import freiman_ball
    from monoball.setops import normalize_set

    # S4 is not supersolvable, so only the search decides its monomiality
    g = _s4()
    calls = []
    real = harmonic.character_table

    def counting(group):
        calls.append(group)
        return real(group)

    monkeypatch.setattr(harmonic, "character_table", counting)
    a = normalize_set(GroupSubset.from_indices(g, [1]), symmetrize=True,
                      add_identity=True, conjugation_close=True)
    freiman_ball(g, a)
    # hereditary monomiality and both standing-hypothesis records share one run
    assert sum(grp is g for grp in calls) == 1
    _, certs = is_monomial(g)
    certs.clear()                      # callers get a copy of the cached list
    assert len(is_monomial(g)[1]) == 5
    assert sum(grp is g for grp in calls) == 1


def test_is_monomial_sl23_false():
    ok, certs = is_monomial(_sl23())
    assert not ok
    assert sorted(c.dim for c in certs if not c.matched) == [2, 2, 2]
    assert all(c.matched for c in certs if c.dim != 2)


def test_hereditarily_monomial():
    assert is_hereditarily_monomial(heisenberg_group(3))[0]
    assert is_hereditarily_monomial(_s3())[0]
    assert is_hereditarily_monomial(cyclic_group(24))[0]
    ok, witness = is_hereditarily_monomial(_sl23())
    assert not ok
    assert len(witness) == 24  # the whole group is the failing subgroup


def test_hereditary_search_enumerates_one_lattice(monkeypatch):
    import monoball.harmonic as harmonic
    from monoball.pipeline import freiman_ball
    from monoball.setops import normalize_set

    computed, tables = [], []
    real_subgroups, real_values = harmonic.enumerate_subgroups, harmonic._class_values

    def counting(group, *args):
        if "_subgroups" not in group.__dict__:
            computed.append(group.order)
        return real_subgroups(group, *args)

    def counting_tables(group, part):
        tables.append(group.order)
        return real_values(group, part)

    monkeypatch.setattr(harmonic, "enumerate_subgroups", counting)
    monkeypatch.setattr(harmonic, "_class_values", counting_tables)
    assert is_hereditarily_monomial(_s4())[0]
    # every subgroup's view, and every view of a view, inherits the lattice
    assert computed == [24]
    # the five pipeline fixtures are supersolvable: no lattice, no table
    computed.clear()
    tables.clear()
    for g, ids in _fixtures():
        a = normalize_set(GroupSubset.from_indices(g, ids), symmetrize=True,
                          add_identity=True, conjugation_close=True)
        freiman_ball(g, a)
    assert computed == [] and tables == []


def _search_every_subgroup(g):
    # the reference: is_monomial on every subgroup, with no certificate
    for sub in enumerate_subgroups(g):
        view = g if len(sub) == g.order else subgroup_view(g, sub.elements).group
        if not is_monomial(view)[0]:
            return False, sub.elements
    return True, None


def test_supersolvable_certificate_agrees_with_the_search():
    from monoball.groups import is_supersolvable
    from monoball.harmonic import _hereditary_search

    named = [(f"fixture {i}", g) for i, (g, _) in enumerate(_fixtures())] + [
        ("Q8", quaternion_group()), ("D8", dihedral_group(8)), ("D10", dihedral_group(10)),
        ("D16", dihedral_group(16)), ("S3", _s3()), ("C12", cyclic_group(12)),
        ("C24", cyclic_group(24)), ("S4", _s4()), ("A4", _a4()), ("SL(2,3)", _sl23())]
    verdicts = {name: is_supersolvable(g) for name, g in named}
    assert sorted(name for name, ok in verdicts.items() if not ok) == ["A4", "S4", "SL(2,3)"]
    for name, g in named:
        # the certificate is cached as a bool, which holds no reference to g
        assert g.__dict__["_supersolvable"] is verdicts[name]
        searched, witness = _search_every_subgroup(g)
        assert searched or not verdicts[name], name
        # the search itself: S4 and A4 pass, SL(2,3) fails as a whole
        assert searched == (name != "SL(2,3)"), name
        assert _hereditary_search(g) == (searched, witness), name
        assert is_hereditarily_monomial(g) == (searched, witness), name


def test_hereditary_search_skips_supersolvable_subgroups(monkeypatch):
    import monoball.harmonic as harmonic

    searched = []
    real = harmonic.is_monomial

    def counting(group, *args):
        searched.append(group.order)
        return real(group, *args)

    monkeypatch.setattr(harmonic, "is_monomial", counting)
    assert is_hereditarily_monomial(_s4()) == (True, None)
    # of the 30 subgroups of S4 only A4 and S4 itself are not supersolvable
    assert searched == [12, 24]


def test_monomial_cap():
    with pytest.raises(CapExceededError):
        is_monomial(cyclic_group(129))


def test_high_value_linearity_scan():
    g = heisenberg_group(3)
    a = GroupSubset.from_indices(g, [0, 1, 2])  # center: normal and symmetric
    rep = high_value_linearity_check(g, GroupSubset.full(g), a)
    assert rep.consistent
    assert all(r.status == "holds" for r in rep.hypotheses)

    # A = G: only the trivial character carries weight, and it is one-dimensional
    full = GroupSubset.full(g)
    rep2 = high_value_linearity_check(g, full, full)
    assert rep2.consistent
    hot = [r for r in rep2.rows if r.exceeds_threshold]
    assert [(r.dim, round(r.spec_rad, 9)) for r in hot] == [(1, 1.0)]


def test_high_value_linearity_dihedral_center():
    g = dihedral_group(8)
    center = [x for x in range(8) if all(g.mul(x, y) == g.mul(y, x) for y in range(8))]
    central_involution = [x for x in center if g.element_orders[x] == 2]
    a = GroupSubset.from_indices(g, [g.identity] + central_involution)
    s = GroupSubset.from_indices(g, [0, 1, 4])
    rep = high_value_linearity_check(g, s, a)
    assert rep.consistent


def test_high_value_linearity_reports_violated_hypotheses():
    g = cyclic_group(10)
    a = GroupSubset.from_indices(g, [1])
    s = GroupSubset.from_indices(g, [0, 5])
    rep = high_value_linearity_check(g, s, a)
    statuses = {r.name: r.status for r in rep.hypotheses}
    assert statuses["A is symmetric"] == "fails"
    assert statuses["S generates the group"] == "fails"


def test_high_value_linearity_refuses_sets_of_another_group():
    """Sets of D12 with C12 as the group: refused before C12's character table."""
    c12, d12 = cyclic_group(12), dihedral_group(12)
    s, a = GroupSubset.full(d12), GroupSubset.from_indices(d12, [0])
    before = dict(c12.__dict__)
    for args in ((c12, s, a), (c12, GroupSubset.full(c12), a)):
        with pytest.raises(ValueError, match="subset belongs to a different group"):
            high_value_linearity_check(*args)
    assert c12.__dict__ == before


def test_inner_product_convention():
    g = cyclic_group(4)
    lin = linear_characters(g)
    f = lin[1].as_class_function()
    # <f, f> = 1 and <f, conj-partner> = 0
    assert abs(inner(f, f) - 1) < 1e-12
    h = lin[3].as_class_function()
    assert abs(inner(f, h)) < 1e-12
    # conjugate-linearity in the first slot
    scaled = ClassFunction(g, 2j * f.values)
    assert abs(inner(scaled, f) - complex(np.conj(2j))) < 1e-12
