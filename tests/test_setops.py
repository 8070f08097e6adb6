from fractions import Fraction

import numpy as np
import pytest

from monoball import groups
from monoball.groups import (
    GroupSubset,
    closure,
    cyclic_group,
    dihedral_group,
    conjugates,
    heisenberg_group,
    permutation_group,
    power_chain,
    product_group,
    product_set,
    quaternion_group,
)
from monoball.setops import (
    appendix_growth_check,
    growth_profile,
    normalize_set,
    power_set,
    ruzsa_cover,
    set_predicates,
)


def _subset(g, idx):
    return GroupSubset.from_indices(g, idx)


def _brute_product(g, a, b):
    return sorted({g.mul(x, y) for x in a for y in b})


def test_product_set_identity_law():
    g = cyclic_group(100)
    a = _subset(g, [99, 0, 1])
    e = GroupSubset.identity_only(g)
    assert product_set(a, e).mask == a.mask
    assert product_set(e, a).mask == a.mask


def test_product_set_interval():
    g = cyclic_group(100)
    a = _subset(g, [99, 0, 1])
    assert len(product_set(a, a)) == 5
    assert product_set(a, a).indices() == (0, 1, 2, 98, 99)


def test_product_set_heisenberg_oracle():
    g = heisenberg_group(3)
    # symmetrized generator pair with identity: x=(1,0,0), y=(0,1,0)
    a_idx = [0, 9, 18, 3, 6]
    a = _subset(g, a_idx)
    got = product_set(a, a).indices()
    assert list(got) == _brute_product(g, a_idx, a_idx)


def test_product_set_random_against_brute(seed=3):
    rng = np.random.default_rng(seed)
    for g in (dihedral_group(12), heisenberg_group(3)):
        for _ in range(20):
            a_idx = rng.choice(g.order, size=rng.integers(1, 6), replace=False)
            b_idx = rng.choice(g.order, size=rng.integers(1, 6), replace=False)
            got = product_set(_subset(g, a_idx), _subset(g, b_idx)).indices()
            assert list(got) == _brute_product(g, a_idx.tolist(), b_idx.tolist())


def test_product_set_associative():
    rng = np.random.default_rng(11)
    for g in (permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), cyclic_group(60)):
        for _ in range(10):
            sets = [
                _subset(g, rng.choice(g.order, size=4, replace=False)) for _ in range(3)
            ]
            a, b, c = sets
            assert product_set(product_set(a, b), c).mask == product_set(a, product_set(b, c)).mask


def test_product_set_group_mismatch():
    with pytest.raises(ValueError):
        product_set(
            GroupSubset.identity_only(cyclic_group(4)),
            GroupSubset.identity_only(cyclic_group(5)),
        )


def test_growth_identity_only():
    g = cyclic_group(30)
    prof, fit = growth_profile(GroupSubset.identity_only(g), 6)
    assert prof.sizes == (1,) * 7
    assert fit.d == 0.0
    assert prof.saturated_at == 1


def test_growth_cyclic_interval():
    g = cyclic_group(100)
    prof, fit = growth_profile(_subset(g, [99, 0, 1]), 60)
    assert prof.sizes[1:] == tuple(min(2 * n + 1, 100) for n in range(1, 61))
    assert prof.saturated_at == 50
    assert fit.witness_n is not None


def test_growth_matches_bfs_oracle(bfs_power_sizes):
    g = heisenberg_group(5)
    a = normalize_set(_subset(g, [25, 5]), symmetrize=True, add_identity=True)
    prof, fit = growth_profile(a, 12)
    assert prof.sizes == bfs_power_sizes(a, 12)
    assert fit.d > 0


def test_growth_without_identity():
    g = cyclic_group(12)
    prof, _ = growth_profile(_subset(g, [1]), 12)
    assert prof.sizes[1:] == (1,) * 12  # singleton powers stay singletons
    assert prof.saturated_at is None
    prof2, _ = growth_profile(_subset(g, [2, 3]), 6)
    sizes = [len(power_set(_subset(g, [2, 3]), n)) for n in range(7)]
    assert prof2.sizes == tuple(sizes)
    # A^11 = A^12 = G: saturation at n_max itself shows only at A^{n_max + 1}
    assert growth_profile(_subset(cyclic_group(12), [2, 3]), 11)[0].saturated_at == 11
    assert growth_profile(_subset(cyclic_group(12), [2, 3]), 10)[0].saturated_at is None


def test_power_chain_cycle_and_sizes(bfs_power_sizes):
    c12 = power_chain(_subset(cyclic_group(12), [1]))
    assert c12.cycle() == (0, 12)
    assert c12.mask(25) == 1 << 1
    no_identity = power_chain(_subset(cyclic_group(12), [2, 3]))
    assert no_identity.size(100) == 12 and no_identity.cycle() == (11, 1)
    assert power_chain(_subset(cyclic_group(100), [99, 0, 1])).cycle() == (50, 1)
    g = heisenberg_group(5)
    a = normalize_set(_subset(g, [25, 5]), symmetrize=True, add_identity=True)
    chain = power_chain(a)
    assert tuple(chain.size(n) for n in range(13)) == bfs_power_sizes(a, 12)
    assert power_chain(GroupSubset(g, a.mask)) is chain


def _loop_powers(g, a):
    """The masks of A^0, A^1, ..., one product per level, up to the first
    repeat, and the (start, period) of that repeat."""
    level, masks, first = np.array([g.identity]), [1 << g.identity], {1 << g.identity: 0}
    while True:
        level = np.unique(g.mul_table[np.ix_(level, a)])
        m = sum(1 << int(x) for x in level)
        if m in first:
            return masks, (first[m], len(masks) - first[m])
        first[m] = len(masks)
        masks.append(m)


@pytest.mark.parametrize("build", [
    lambda: cyclic_group(12), lambda: cyclic_group(360), lambda: dihedral_group(512),
    lambda: heisenberg_group(5), lambda: product_group([cyclic_group(2), heisenberg_group(3)]),
    lambda: permutation_group(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]),
    lambda: product_group([cyclic_group(64), cyclic_group(64)]),
], ids=["C12", "C360", "D512", "Heis5", "C2xHeis3", "S5", "C64xC64"])
def test_power_chain_matches_the_level_loop(build):
    group = build()
    # in C64 x C64 sets of 20-40 elements give |A^2| |level 2| > 2^16 products,
    # so the ball steps from level 2 on grow one level each
    rng = np.random.default_rng(group.order)
    big = group.order == 4096
    for trial in range(6):
        size = int(rng.integers(20, 41)) if big else int(rng.integers(1, 7))
        a = set(rng.choice(group.order, size=size, replace=False).tolist())
        a = a | {group.identity} if trial % 2 else a - {group.identity} or {1}
        sub = _subset(group, a)
        masks, (start, period) = _loop_powers(group, np.array(sorted(a)))
        chain = power_chain(sub)
        assert chain.cycle() == (start, period), (group.name, sorted(a))
        for n in range(start + period + 3):
            want = masks[n if n < len(masks) else start + (n - start) % period]
            assert chain.mask(n) == want and chain.size(n) == want.bit_count()


def _bfs_word_lengths(g, a):
    """Each element's word length in A by a breadth-first search, -1 off <A>."""
    dist = np.full(g.order, -1)
    dist[g.identity], frontier = 0, [g.identity]
    while frontier:
        reached = []
        for x in frontier:
            for s in a:
                y = g.mul(x, s)
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    reached.append(y)
        frontier = reached
    return dist


@pytest.mark.parametrize("build", [
    lambda: cyclic_group(360), lambda: dihedral_group(16),
    lambda: product_group([cyclic_group(2), heisenberg_group(3)]),
], ids=["C360", "D16", "C2xHeis3"])
def test_power_chain_ball_matches_a_breadth_first_search(build):
    """A ball step keeps the first position of each unreached product: the
    word lengths, the ball sizes and the level order of `order` are those
    of a breadth-first search, on random symmetric sets with the identity."""
    g = build()
    rng = np.random.default_rng(g.order + 28)
    for k in (1, 1, 2, 2, 3, 5, 8, 20):
        gens = rng.choice(g.order, size=min(k, g.order), replace=False)
        a = normalize_set(_subset(g, gens), symmetrize=True, add_identity=True)
        chain = power_chain(a)
        chain.cycle()
        dist = _bfs_word_lengths(g, a.array().tolist())
        assert np.array_equal(chain.dist, dist), (g.name, gens)
        assert chain.sizes == [int(((dist >= 0) & (dist <= n)).sum())
                               for n in range(dist.max() + 1)], (g.name, gens)
        levels = dist[chain.order[:chain.sizes[-1]]]
        assert np.array_equal(levels, np.sort(levels)), (g.name, gens)


def test_power_chain_sizes_read_lazily_equal_the_finished_chain():
    g = product_group([cyclic_group(2), heisenberg_group(3)])
    for idx in ([0, 1, 3, 10], [1, 3, 10], [0, 9, 27, 40]):
        lazy = power_chain(_subset(g, idx))
        lazy_sizes = [lazy.size(n) for n in range(20)]
        done = groups.PowerChain(g.mul_table, g.identity, np.array(idx))
        done.cycle()
        assert lazy_sizes == [done.size(n) for n in range(20)]


def test_power_chain_grows_whole_balls(monkeypatch):
    steps = []
    extend = groups.PowerChain._extend

    def counting_extend(self):
        steps.append(1)
        return extend(self)

    monkeypatch.setattr(groups.PowerChain, "_extend", counting_extend)
    g = cyclic_group(8192)
    assert len(closure(g, [1, 8191])) == 8192
    assert len(steps) <= 2 * 13        # one level per step would take 4096


def test_growth_sizes_non_decreasing():
    rng = np.random.default_rng(5)
    g = dihedral_group(16)
    for _ in range(10):
        a = _subset(g, rng.choice(g.order, size=3, replace=False))
        prof, _ = growth_profile(a, 8)
        assert all(prof.sizes[n] <= prof.sizes[n + 1] for n in range(1, 8))


def test_predicates_subgroup():
    g = dihedral_group(12)
    h = closure(g, [1])
    rep = set_predicates(h)
    assert rep.symmetric and rep.contains_identity and rep.normal
    assert rep.doubling == 1 and rep.tripling == 1


def test_predicates_transpositions_s3():
    g = permutation_group(3, [[1, 0, 2], [0, 2, 1]])
    transpositions = [x for x in range(6) if g.element_orders[x] == 2]
    a = _subset(g, [g.identity] + transpositions)
    rep = set_predicates(a)
    assert rep.symmetric and rep.normal and rep.contains_identity


def _first_moved(a):
    """Reference: the first x with xA != Ax, or None when A is normal."""
    g = a.group
    for x in range(g.order):
        if sorted(g.mul(x, y) for y in a) != sorted(g.mul(y, x) for y in a):
            return x
    return None


@pytest.mark.parametrize("group", [dihedral_group(8), heisenberg_group(3)], ids=["D8", "Heis3"])
def test_predicates_normal_witness_matches_loop(group):
    rng = np.random.default_rng(3)
    for size in (1, 2, 3, 5, 8):
        a = _subset(group, rng.choice(group.order, size=size, replace=False).tolist())
        for s in (a, normalize_set(a, conjugation_close=True)):
            rep = set_predicates(s)
            assert rep.witnesses.get("normal") == _first_moved(s)
            assert rep.normal == (_first_moved(s) is None)


def test_predicates_witnesses():
    g = cyclic_group(10)
    rep = set_predicates(_subset(g, [1]))
    assert not rep.symmetric
    assert rep.witnesses["symmetric"] in (1, 9)
    assert not rep.contains_identity

    d = dihedral_group(8)
    rep2 = set_predicates(_subset(d, [0, 1]))
    assert not rep2.normal
    assert rep2.witnesses["normal"] == _first_moved(_subset(d, [0, 1]))
    assert rep2.doubling == Fraction(3, 2)


def test_normalize_set():
    g = cyclic_group(5)
    out = normalize_set(_subset(g, [1]), symmetrize=True, add_identity=True,
                        conjugation_close=True)
    assert out.indices() == (0, 1, 4)

    s3 = permutation_group(3, [[1, 0, 2], [0, 2, 1]])
    t = _subset(s3, [1])
    closed = normalize_set(t, conjugation_close=True)
    assert len(closed) == 3
    assert all(s3.element_orders[x] == 2 for x in closed)
    again = normalize_set(closed, conjugation_close=True)
    assert again.mask == closed.mask  # idempotent on closed input


def _loop_conjugates(a):
    """The union of the classes that meet A, conjugate by conjugate."""
    g = a.group
    return sum({1 << g.conj(h, x) for x in a for h in range(g.order)})


@pytest.mark.parametrize("group", [
    permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]]), dihedral_group(16),
    heisenberg_group(3), quaternion_group(), cyclic_group(12),
], ids=["S4", "D16", "Heis3", "Q8", "C12"])
def test_conjugates_and_normalize_set_match_the_class_loop(group):
    rng = np.random.default_rng(9)
    for size in (0, 1, 2, 3, 5):
        a = _subset(group, rng.choice(group.order, size=size, replace=False).tolist())
        assert conjugates(a).mask == _loop_conjugates(a)
        assert normalize_set(a, conjugation_close=True).mask == _loop_conjugates(a)
        sym = normalize_set(a, symmetrize=True, add_identity=True)
        assert (normalize_set(a, symmetrize=True, add_identity=True, conjugation_close=True).mask
                == _loop_conjugates(sym))


def test_ruzsa_cover_subgroup():
    g = cyclic_group(12)
    h = closure(g, [4])
    cert = ruzsa_cover(h)
    assert cert.cover_set.indices() == (0,)
    assert cert.separation_ok and cert.inclusion_ok


def test_ruzsa_cover_interval():
    g = cyclic_group(100)
    a = _subset(g, [99, 0, 1])
    cert = ruzsa_cover(a)
    assert len(cert.cover_set) <= 3
    assert cert.separation_ok and cert.inclusion_ok
    rerun = ruzsa_cover(a)
    assert rerun.cover_set.mask == cert.cover_set.mask


def test_ruzsa_cover_disjointness_oracle():
    g = heisenberg_group(3)
    a = normalize_set(_subset(g, [9, 3]), symmetrize=True, add_identity=True)
    cert = ruzsa_cover(a)
    assert cert.inclusion_ok and cert.separation_ok
    xs = cert.cover_set.indices()
    translates = [{g.mul(x, y) for y in a} for x in xs]
    for i in range(len(translates)):
        for j in range(i + 1, len(translates)):
            assert not translates[i] & translates[j]


def test_ruzsa_cover_bound_counts_translates_inside_qa():
    # the disjoint translates xA lie in QA, Q = AA^-1AA^-1, not in Q itself:
    # here |Q| = 41 and |QA| = 61
    g = cyclic_group(360)
    a = _subset(g, [0, 1, 359, 49, 311])
    cert = ruzsa_cover(a)
    q = power_set(product_set(a, a.inverse()), 2)
    assert len(q) == 41 and len(product_set(q, a)) == 61
    assert len(q) < len(cert.cover_set) * len(a) <= 61
    assert cert.separation_ok and cert.inclusion_ok
    assert appendix_growth_check(a, 4).all_ok


def test_appendix_growth_cyclic():
    g = cyclic_group(100)
    a = _subset(g, [99, 0, 1])
    rep = appendix_growth_check(a, 10)
    assert rep.all_ok
    assert all(r.inclusion_ok for r in rep.rows)
    assert rep.tripling == Fraction(7, 3)


def test_appendix_growth_normal_subgroup():
    g = dihedral_group(12)
    h = closure(g, [1])  # rotations, index 2 so normal
    rep = appendix_growth_check(h, 5)
    assert rep.all_ok
    assert rep.tripling == 1
    assert all(r.size_d_n == len(h) for r in rep.rows)


def test_appendix_growth_dihedral_generators():
    g = dihedral_group(16)
    a = normalize_set(_subset(g, [1, 8]), symmetrize=True, add_identity=True)
    rep = appendix_growth_check(a, 8)
    assert rep.all_ok


def test_power_set_matches_brute():
    g = dihedral_group(8)
    a = _subset(g, [1, 4])
    cur = {g.identity}
    for n in range(5):
        assert power_set(a, n).indices() == tuple(sorted(cur))
        cur = {g.mul(x, y) for x in cur for y in a.indices()}
