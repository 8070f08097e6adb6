import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from monoball.bohr import CharSet, bohr_norm
from monoball.groups import (
    GroupSubset,
    _blocks,
    closure,
    conjugacy_classes,
    conjugation_escape,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    permutation_group,
    product_group,
    product_set,
    quaternion_group,
)
from monoball.metric import (
    BallAxiomsReport,
    NormReport,
    PseudoMetricNorm,
    ball,
    ball_axioms_check,
    ball_dimension,
    bourgain_radius,
    validate_norm,
    word_norm,
    zero_norm,
)


def subgroup_indicator_norm(group, h):
    dist = np.ones(group.order, dtype=np.int64)
    dist[list(h)] = 0
    return PseudoMetricNorm(group, dist)


def _c13_word():
    g = cyclic_group(13)
    return word_norm(g, GroupSubset.from_indices(g, [1, 12]))


def test_zero_norm_valid():
    rep = validate_norm(zero_norm(cyclic_group(8)))
    assert rep.valid


def test_word_norm_values_and_validity():
    rho = _c13_word()
    assert [int(v) for v in rho.values] == [0, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1]
    rep = validate_norm(rho)
    assert rep.valid
    assert rep.zero_at_identity and rep.symmetric and rep.class_invariant and rep.subadditive


def test_word_norm_requires_generators():
    g = cyclic_group(12)
    with pytest.raises(ValueError):
        word_norm(g, GroupSubset.from_indices(g, [4, 8]))


def _bfs_distances(g, gens):
    """Distance to the identity in the Cayley graph, edges x -> x s for s in gens."""
    dist, frontier = {g.identity: 0}, [g.identity]
    while frontier:
        nxt = []
        for v in frontier:
            for s in gens:
                if g.mul(v, s) not in dist:
                    dist[g.mul(v, s)] = dist[v] + 1
                    nxt.append(g.mul(v, s))
        frontier = nxt
    return [dist.get(x) for x in range(g.order)]


@pytest.mark.parametrize("group", [dihedral_group(12), heisenberg_group(3)], ids=["D12", "Heis3"])
def test_word_norm_matches_bfs_distances(group):
    rng = np.random.default_rng(11)
    generating = 0
    for size in (1, 2, 2, 3, 3, 4, 6):
        gens = rng.choice(group.order, size=size, replace=False).tolist()
        want = _bfs_distances(group, gens)
        if None in want:
            with pytest.raises(ValueError, match="generating set"):
                word_norm(group, GroupSubset.from_indices(group, gens))
            continue
        generating += 1
        assert word_norm(group, GroupSubset.from_indices(group, gens)).values == tuple(want)
    assert generating >= 3


def test_validate_norm_brute_subadditivity():
    g = dihedral_group(12)
    gens = GroupSubset.from_indices(g, [1, 5, 6])  # r, r^-1, s: symmetric set
    rho = word_norm(g, gens)
    for x in range(g.order):
        assert rho.values[x] == rho.values[g.inv(x)]
        for y in range(g.order):
            assert rho.values[g.mul(x, y)] <= rho.values[x] + rho.values[y]


def test_validate_norm_catches_corruption():
    rho = _c13_word()
    vals = list(rho.values)
    vals[3] = Fraction(10)
    rep = validate_norm(PseudoMetricNorm.from_values(rho.group, tuple(vals)))
    assert not rep.valid
    assert not rep.subadditive
    x, y = rep.witnesses["subadditive"]
    bad = PseudoMetricNorm.from_values(rho.group, tuple(vals))
    assert bad.values[rho.group.mul(x, y)] > bad.values[x] + bad.values[y]


def test_validate_norm_class_invariance_witness():
    g = dihedral_group(8)
    vals = [Fraction(1)] * 8
    vals[g.identity] = Fraction(0)
    vals[1] = Fraction(2)  # r and r^3 are conjugate; give them different values
    rep = validate_norm(PseudoMetricNorm.from_values(g, tuple(vals)))
    assert not rep.class_invariant
    assert rep.witnesses["class_invariant"] == (1, 3)


def _loop_symmetry_and_class_witnesses(rho):
    """Reference: the first x with rho(x) != rho(x^-1), and the first x with a
    conjugate y of other value, the smallest such y."""
    g, v = rho.group, rho.values
    out = {}
    sym = [x for x in range(g.order) if v[x] != v[g.inv(x)]]
    if sym:
        out["symmetric"] = sym[0]
    for x in range(g.order):
        orbit = sorted({g.conj(h, x) for h in range(g.order)})
        ys = [y for y in orbit if v[x] != v[y]]
        if ys:
            out["class_invariant"] = (x, ys[0])
            break
    return out


@pytest.mark.parametrize("group", [dihedral_group(12), heisenberg_group(3),
                                   cyclic_group(10)], ids=["D12", "Heis3", "C10"])
def test_validate_norm_symmetry_and_class_match_loops(group):
    rng = np.random.default_rng(7)
    base = word_norm(group, GroupSubset.full(group)).values
    for trial in range(40):
        vals = list(base)
        for x in rng.choice(group.order, size=trial % 4, replace=False):
            vals[x] = Fraction(int(rng.integers(0, 6)), int(rng.integers(1, 4)))
        rho = PseudoMetricNorm.from_values(group, tuple(vals))
        rep = validate_norm(rho)
        want = _loop_symmetry_and_class_witnesses(rho)
        got = {k: w for k, w in rep.witnesses.items() if k in ("symmetric", "class_invariant")}
        assert got == want
        assert rep.symmetric == ("symmetric" not in want)
        assert rep.class_invariant == ("class_invariant" not in want)


def test_ball_membership_exact():
    rho = _c13_word()
    assert ball(rho, Fraction(0)).indices() == (0,)
    assert ball(rho, 1).indices() == (0, 1, 12)
    assert ball(rho, Fraction(5, 2)).indices() == (0, 1, 2, 11, 12)
    assert len(ball(rho, 6)) == 13
    # just below a breakpoint stays strictly smaller
    assert len(ball(rho, Fraction(199, 100))) == 3


def test_from_values_takes_rationals_only():
    g = cyclic_group(6)
    for bad in (0.5, True):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            PseudoMetricNorm.from_values(g, (0, 1, bad, 3, 2, 1))
    with pytest.raises(ValueError, match="integers"):
        PseudoMetricNorm(g, np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0]))


def test_from_values_of_numpy_integers_is_exact():
    g = cyclic_group(6)
    rho = PseudoMetricNorm.from_values(g, np.array([0, 1, 2, 3, 2, 1]))
    ints = PseudoMetricNorm.from_values(g, (0, 1, 2, 3, 2, 1))
    assert rho.scaled.dtype == np.int64 and rho.denom == 1
    assert rho.scaled.tolist() == ints.scaled.tolist()
    assert rho.values == ints.values


def test_ball_radius_is_rational():
    rho = PseudoMetricNorm.from_values(cyclic_group(6), (0, 1, 2, 3, 2, 1))
    with pytest.raises(TypeError):
        ball(rho, 0.2)
    # a radius just short of 3 leaves out the elements of norm 3
    assert ball(rho, Fraction(29999999999999, 10 ** 13)).indices() == (0, 1, 2, 4, 5)


def test_ball_axioms_zero_norm():
    g = heisenberg_group(3)
    rep = ball_axioms_check(zero_norm(g))
    assert rep.all_ok


def test_ball_axioms_word_norm_dihedral():
    g = dihedral_group(12)
    gens = GroupSubset.from_indices(g, list(range(6, 12)))  # all reflections: normal set
    rho = word_norm(g, gens)
    assert validate_norm(rho).valid
    rep = ball_axioms_check(rho)
    assert rep.all_ok


def test_ball_axioms_catch_subadditivity_break():
    g = cyclic_group(9)
    vals = [Fraction(0)] + [Fraction(1)] * 8
    vals[2] = Fraction(3)  # 1+1 lands outside B(2)
    rho = PseudoMetricNorm.from_values(g, tuple(vals))
    rep = ball_axioms_check(rho)
    assert not rep.subadditive_ok
    assert "subadditive" in rep.witnesses


def test_ball_axioms_normal_witness():
    g = dihedral_group(8)
    vals = [Fraction(1)] * 8
    vals[g.identity] = Fraction(0)
    vals[1] = Fraction(2)  # B(1) holds r^3 but not its conjugate r
    rep = ball_axioms_check(PseudoMetricNorm.from_values(g, tuple(vals)))
    assert not rep.normal_ok
    assert rep.witnesses["normal"] == (1, 3)


def test_ball_dimension_zero_norm():
    d, witness = ball_dimension(zero_norm(cyclic_group(10)), Fraction(1))
    assert d == 0.0 and witness is None


def test_ball_dimension_cyclic13():
    d, witness = ball_dimension(_c13_word(), 2)
    assert abs(d - math.log2(3)) < 1e-12
    assert witness == Fraction(1, 2)
    assert len(ball(_c13_word(), witness)) == 1
    assert len(ball(_c13_word(), 2 * witness)) == 3


def test_ball_dimension_subgroup_indicator():
    g = cyclic_group(12)
    h = closure(g, [4])
    rho = subgroup_indicator_norm(g, h)
    d_small, w_small = ball_dimension(rho, Fraction(1, 4))
    assert d_small == 0.0 and w_small is None
    # at 1/2 the doubled radius crosses the jump: exact doubling exponent
    d_half, w_half = ball_dimension(rho, Fraction(1, 2))
    assert abs(d_half - math.log2(4)) < 1e-12
    assert w_half == Fraction(1, 2)


def test_ball_dimension_monotone_in_delta():
    rho = _c13_word()
    last = 0.0
    for k in range(1, 13):
        d, _ = ball_dimension(rho, Fraction(k, 2))
        assert d >= last - 1e-15
        last = d


def test_ball_dimension_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        ball_dimension(zero_norm(cyclic_group(4)), 0)


def test_bourgain_zero_norm_tiebreak():
    cert = bourgain_radius(zero_norm(cyclic_group(10)), Fraction(1), 0.0)
    assert cert.lam == 2
    assert all(p.ok for p in cert.grid)
    assert all(p.ratio == 1.0 for p in cert.grid)


def test_bourgain_cyclic101():
    g = cyclic_group(101)
    rho = word_norm(g, GroupSubset.from_indices(g, [1, 100]))
    d, _ = ball_dimension(rho, Fraction(16))
    cert = bourgain_radius(rho, Fraction(16), d)
    assert 1 < cert.lam <= 2
    assert all(p.ok for p in cert.grid)
    assert cert.margin >= 0
    # pinned values of the certificate
    assert (cert.lam, cert.margin) == (Fraction(33, 32), 0.09999999999999998)
    assert [p.ratio for p in cert.grid[:3]] == [Fraction(29, 33), Fraction(29, 33),
                                                 Fraction(31, 33)]
    # determinism
    again = bourgain_radius(rho, Fraction(16), d)
    assert again.lam == cert.lam


def test_bourgain_two_sided_bound_holds():
    g = cyclic_group(101)
    rho = word_norm(g, GroupSubset.from_indices(g, [1, 100]))
    d, _ = ball_dimension(rho, Fraction(16))
    cert = bourgain_radius(rho, Fraction(16), d)
    base = len(ball(rho, cert.lam * Fraction(16)))
    for p in cert.grid:
        size = len(ball(rho, cert.lam * 16 * (1 + p.eta)))
        assert p.lower <= Fraction(size, base) <= p.upper


def test_bourgain_rejects_underreported_dimension():
    # the ball is log2(3)-dimensional: the record fails, and the best
    # certificate comes back without a raise
    rho = _c13_word()
    cert = bourgain_radius(rho, 2, 0.5)
    (record,) = cert.hypotheses
    assert (record.name, record.status) == ("ball dimension at delta <= d", "fails")
    assert "1.584963-dimensional" in record.detail


@pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
def test_bourgain_rejects_a_d_that_is_not_finite(d):
    with pytest.raises(ValueError, match="finite d"):
        bourgain_radius(_c13_word(), 2, d)


def _norms_for_the_scalar_reference():
    rng = np.random.default_rng(9)
    c36, d12 = cyclic_group(36), dihedral_group(12)
    yield zero_norm(c36)
    yield word_norm(d12, GroupSubset.from_indices(d12, [1, 5, 6]))
    yield subgroup_indicator_norm(c36, closure(c36, [9]))
    yield bohr_norm(CharSet.from_indices(c36, (0, 5, 31)))
    yield bohr_norm(CharSet.from_indices(heisenberg_group(3), (1, 2, 4)))
    for _ in range(3):
        yield PseudoMetricNorm.from_values(c36, tuple(
            Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 7))) if rng.random() < 0.8
            else int(rng.integers(0, 3)) for _ in range(36)))


def _ball_dimension_reference(rho, delta):
    """The doubling exponent from balls: t runs over the breakpoints and
    half-breakpoints in (0, delta], ascending, the first maximum kept."""
    best, witness = 0.0, None
    for t in sorted({r for v in rho.positive_breakpoints() for r in (v, v / 2) if r <= delta}):
        d = math.log2(len(ball(rho, 2 * t)) / len(ball(rho, t)))
        if d > best:
            best, witness = d, t
    return best, witness


def test_breakpoints_and_balls_match_the_scalar_definitions():
    """The definitions on one scalar per element: breakpoints are the sorted
    distinct values, a ball compares each value with delta, and the ball
    dimension is the one read off the balls themselves."""
    for i, rho in enumerate(_norms_for_the_scalar_reference()):
        values = rho.values
        points = rho.breakpoints()
        assert points == tuple(sorted(set(values)))
        radii = list(points) + [Fraction(1, 3), Fraction(7, 4), 2]
        radii += [(a + b) / 2 for a, b in zip(points, points[1:])]
        for delta in radii:
            want = [x for x, v in enumerate(values) if v <= delta]
            assert ball(rho, delta).indices() == tuple(want), (i, delta)
            if delta > 0:
                assert ball_dimension(rho, delta) == _ball_dimension_reference(rho, delta), \
                    (i, delta)


def _validate_norm_reference(rho):
    """The norm axioms element by element, on the full n x n table of products."""
    g, v = rho.group, rho.scaled
    witnesses: dict = {}

    zero_at_identity = bool(v[g.identity] == 0 and (v >= 0).all())
    if not zero_at_identity:
        witnesses["zero_at_identity"] = g.identity

    off = np.flatnonzero(v[g.inv(slice(None))] != v)
    symmetric = off.size == 0
    if not symmetric:
        witnesses["symmetric"] = int(off[0])

    elems = np.arange(g.order)
    prods = g.mul(elems[:, None], elems)
    lhs = v[prods]
    bad = lhs > v[:, None] + v[None, :]
    subadditive = not bad.any()
    if not subadditive:
        x, y = map(int, np.argwhere(bad)[0])
        witnesses["subadditive"] = (x, y)
    del bad

    # (ab, ba) runs over the pairs (g x g^-1, x) with a = g, b = x g^-1, so rho
    # is a class function exactly when rho(ab) = rho(ba) for all a, b
    moved = lhs != lhs.T
    class_invariant = not moved.any()
    if not class_invariant:
        x = int(prods[moved].min())
        part = conjugacy_classes(g)
        orbit = np.array(part.classes[part.class_of[x]])
        y = int(orbit[v[orbit] != v[x]][0])
        witnesses["class_invariant"] = (x, y)

    valid = zero_at_identity and symmetric and class_invariant and subadditive
    return NormReport(valid, zero_at_identity, symmetric, class_invariant, subadditive,
                      witnesses)


def _ball_axioms_reference(rho):
    """The ball axioms ball by ball: one ball per breakpoint, one product set per
    ordered pair of breakpoints."""
    g = rho.group
    witnesses: dict = {}
    points = rho.breakpoints()
    balls = {bp: ball(rho, bp) for bp in points}

    symmetric_ok = True
    for bp, b in balls.items():
        if g.identity not in b or b.inverse().mask != b.mask:
            symmetric_ok = False
            witnesses["symmetric"] = bp
            break

    nesting_ok = True
    for i in range(len(points) - 1):
        if not balls[points[i]].is_subset_of(balls[points[i + 1]]):
            nesting_ok = False
            witnesses["nesting"] = (points[i], points[i + 1])
            break

    subadditive_ok = True
    for bp1 in points:
        for bp2 in points:
            target = ball(rho, bp1 + bp2)
            prod = product_set(balls[bp1], balls[bp2])
            if not prod.is_subset_of(target):
                subadditive_ok = False
                witnesses["subadditive"] = (bp1, bp2)
                break
        if not subadditive_ok:
            break

    normal_ok = True
    for bp, b in balls.items():
        escape = conjugation_escape(b)
        if escape is not None:
            normal_ok = False
            witnesses["normal"] = (bp, escape)
            break

    return BallAxiomsReport(symmetric_ok, nesting_ok, subadditive_ok, normal_ok, witnesses)


def _seeded_norms(group, rng, count):
    """`count` norms on the group, cycling through three kinds: rational values
    (negative ones included), word norms with a few values changed, and class
    functions with one element's value changed."""
    gens = GroupSubset.from_indices(group, group.generators)
    word = word_norm(group, gens | gens.inverse()).scaled
    cls = conjugacy_classes(group).class_of
    for trial in range(count):
        if trial % 3 == 0:
            vals = [Fraction(int(rng.integers(-1, 6)), int(rng.integers(1, 4)))
                    for _ in range(group.order)]
            if rng.random() < 0.5:
                vals[group.identity] = 0
        elif trial % 3 == 1:
            vals = word.tolist()
            for x in rng.choice(group.order, size=int(rng.integers(0, 3)), replace=False):
                vals[x] = int(rng.integers(0, 4))
        else:
            per_class = rng.integers(0, 4, size=cls.max() + 1)
            vals = per_class[cls].tolist()
            vals[group.identity] = 0
            vals[int(rng.integers(group.order))] = int(rng.integers(0, 4))
        yield PseudoMetricNorm.from_values(group, vals)


# the small groups of acceptance criterion 01
CRITERION_01_GROUPS = [cyclic_group(5), cyclic_group(12), cyclic_group(60), dihedral_group(6),
                       dihedral_group(12), dihedral_group(16), quaternion_group(),
                       heisenberg_group(3), product_group([cyclic_group(2), dihedral_group(6)]),
                       permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])]


def test_axiom_checks_match_the_table_and_ball_references():
    """Both checks give the reports of the element-by-element and ball-by-ball
    definitions, witnesses included, and every kind of failure occurs."""
    rng = np.random.default_rng(32)
    failed, checked = set(), 0
    for group in CRITERION_01_GROUPS:
        for rho in _seeded_norms(group, rng, 21):
            norm_rep, ball_rep = validate_norm(rho), ball_axioms_check(rho)
            assert norm_rep == _validate_norm_reference(rho), (group.name, rho.values)
            assert ball_rep == _ball_axioms_reference(rho), (group.name, rho.values)
            # a Fraction witness stays a Fraction, not an equal int
            assert repr(ball_rep.witnesses) == repr(_ball_axioms_reference(rho).witnesses)
            failed |= {("norm", k) for k in norm_rep.witnesses}
            failed |= {("ball", k) for k in ball_rep.witnesses}
            checked += 1
    assert checked >= 200
    assert failed == {("norm", "zero_at_identity"), ("norm", "symmetric"),
                      ("norm", "subadditive"), ("norm", "class_invariant"),
                      ("ball", "symmetric"), ("ball", "subadditive"), ("ball", "normal")}


def test_subadditivity_witnesses_past_the_first_row_block():
    """On C512 the table is read in blocks of 128 rows. Rows 1..127 hold norm 10,
    above any sum they bound, so no pair breaks subadditivity before row 128;
    the first break is in the second block, with values (2, 1), and the least
    pair of values, (1, 1), first breaks in the third."""
    g = cyclic_group(512)
    vals = [0] + [10] * 127 + [2] * 128 + [1] * 256
    rho = PseudoMetricNorm.from_values(g, vals)
    first, second, third = _blocks(g.order)[:3]
    norm_rep, ball_rep = validate_norm(rho), ball_axioms_check(rho)
    assert norm_rep == _validate_norm_reference(rho)
    assert ball_rep == _ball_axioms_reference(rho)
    x, y = norm_rep.witnesses["subadditive"]
    assert second.start <= x < second.stop and (vals[x], vals[y]) == (2, 1)
    assert ball_rep.witnesses["subadditive"] == (1, 1)
    assert not any(vals[(a + b) % 512] > vals[a] + vals[b]
                   for a in range(first.stop) for b in range(512))


@pytest.mark.parametrize("check", [validate_norm, ball_axioms_check])
def test_axiom_checks_run_in_small_memory(check):
    """Both checks read the table in blocks: on C2048 (4 Mi products) neither
    holds more than a few blocks at once."""
    rho = bohr_norm(CharSet.from_indices(cyclic_group(2048), (1, 3, 7)))
    assert len(rho.breakpoints()) > 500
    tracemalloc.start()
    try:
        report = check(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witnesses == {}
    assert peak < 8 * 2 ** 20
