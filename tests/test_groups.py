import itertools

import numpy as np
import pytest

from monoball import groups
from monoball.errors import CapExceededError, GroupValidationError
from monoball.groups import (
    GroupSubset,
    abelianization,
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
    quaternion_group,
    subgroup_view,
    table_group,
)
from monoball.harmonic import linear_phases


def _s3():
    return permutation_group(3, [[1, 0, 2], [0, 2, 1]])


def _brute_conjugacy(group):
    seen = set()
    classes = []
    order = [group.identity] + [x for x in range(group.order) if x != group.identity]
    for x in order:
        if x in seen:
            continue
        orbit = sorted({group.conj(g, x) for g in range(group.order)})
        seen.update(orbit)
        classes.append(tuple(orbit))
    return classes


def _brute_subgroups(group):
    # exhaustive subset scan, only viable for very small orders
    n = group.order
    assert n <= 16
    elems = list(range(n))
    found = set()
    for size in range(1, n + 1):
        if n % size:
            continue
        for combo in itertools.combinations(elems, size):
            s = set(combo)
            if group.identity not in s:
                continue
            if any(group.inv(a) not in s for a in s):
                continue
            if any(group.mul(a, b) not in s for a in s for b in s):
                continue
            found.add(combo)
    return sorted(found, key=lambda c: (len(c), c))


def test_cyclic_basics():
    g = cyclic_group(12)
    assert g.order == 12
    assert g.identity == 0
    assert g.is_abelian
    assert g.mul(7, 8) == 3
    assert g.inv(5) == 7
    assert g.element_orders[1] == 12
    assert g.element_orders[6] == 2


def test_dihedral_relations():
    g = dihedral_group(12)
    n = 6
    r, s = 1, n
    assert g.element_orders[r] == n
    assert g.element_orders[s] == 2
    # s r s^-1 = r^-1
    assert g.conj(s, r) == g.inv(r)
    assert not g.is_abelian
    assert conjugacy_classes(g).sizes == (1, 2, 2, 1, 3, 3)


def test_dihedral_order_2_is_c2():
    g = dihedral_group(2)
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_dihedral_rejects_odd_order():
    with pytest.raises(GroupValidationError):
        dihedral_group(7)


def test_quaternion_structure():
    g = quaternion_group()
    assert g.order == 8
    assert g.element_orders == (1, 2, 4, 4, 4, 4, 4, 4)
    i, j, k = 2, 4, 6
    minus_one = 1
    assert g.mul(i, j) == k
    assert g.mul(j, i) == 7      # -k
    assert g.mul(i, i) == minus_one
    assert len(commutator_subgroup(g)) == 2


def test_heisenberg_against_matrix_oracle():
    p = 3
    g = heisenberg_group(p)
    assert g.order == 27

    def idx(a, b, c):
        return (a * p + b) * p + c

    def matmul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        # [[1,a,c],[0,1,b],[0,0,1]] multiplication over Z_p
        return ((a1 + a2) % p, (b1 + b2) % p, (c1 + c2 + a1 * b2) % p)

    triples = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    for x in triples:
        for y in triples:
            assert g.mul(idx(*x), idx(*y)) == idx(*matmul(x, y))


def test_heisenberg_class_and_commutator_structure():
    g = heisenberg_group(3)
    cc = conjugacy_classes(g)
    assert len(cc.classes) == 11
    assert sorted(cc.sizes) == [1, 1, 1] + [3] * 8
    ab = abelianization(g)
    assert len(ab.commutator) == 3
    assert ab.quotient.order == 9
    assert ab.quotient.is_abelian
    # commutator subgroup here is exactly the center
    center = [x for x in range(27) if all(g.mul(x, y) == g.mul(y, x) for y in range(27))]
    assert set(ab.commutator.indices()) == set(center)


def test_conjugacy_matches_brute_force():
    for g in (_s3(), dihedral_group(16), quaternion_group(), heisenberg_group(3)):
        cc = conjugacy_classes(g)
        assert list(cc.classes) == _brute_conjugacy(g)
        assert cc.classes[0] == (g.identity,)
        for x in range(g.order):
            assert x in cc.classes[cc.class_of[x]]


def test_subgroups_match_exhaustive_oracle():
    for g in (_s3(), quaternion_group(), cyclic_group(12), dihedral_group(8)):
        got = [s.elements.indices() for s in enumerate_subgroups(g)]
        assert got == _brute_subgroups(g)


def test_subgroup_counts_frozen():
    assert len(enumerate_subgroups(_s3())) == 6
    assert len(enumerate_subgroups(quaternion_group())) == 6
    assert len(enumerate_subgroups(cyclic_group(12))) == 6
    assert len(enumerate_subgroups(dihedral_group(8))) == 10


def test_subgroup_index_in_parent():
    for s in enumerate_subgroups(_s3()):
        assert s.index_in_parent * len(s) == 6


def test_subgroup_cap():
    with pytest.raises(CapExceededError):
        enumerate_subgroups(cyclic_group(200))
    subs = enumerate_subgroups(cyclic_group(200), max_order_cap=256)
    assert len(subs) == 12  # one per divisor of 200


def test_abelianization_of_s3():
    ab = abelianization(_s3())
    assert len(ab.commutator) == 3
    assert ab.quotient.order == 2
    assert ab.projection[ab.section[1]] == 1
    # projection respects multiplication
    g = _s3()
    for x in range(6):
        for y in range(6):
            assert ab.projection[g.mul(x, y)] == ab.quotient.mul(
                ab.projection[x], ab.projection[y]
            )


def test_abelianization_quotient_matches_validated_table():
    for g in (_s3(), heisenberg_group(3), dihedral_group(16), cyclic_group(12),
              product_group([cyclic_group(2), heisenberg_group(3)])):
        q = abelianization(g).quotient
        identity, inv = groups._validate_table(np.array(q.mul_table), q.name)
        assert q.identity == identity
        assert np.array_equal(q.inv_table, inv)
        assert q.mul_table.dtype == q.inv_table.dtype == np.int32
        assert not q.mul_table.flags.writeable and not q.inv_table.flags.writeable


def test_cyclic_linear_phases_validate_one_table(monkeypatch):
    calls = []
    real = groups._validate_table

    def counting(mul, name):
        calls.append(name)
        return real(mul, name)

    monkeypatch.setattr(groups, "_validate_table", counting)
    linear_phases(cyclic_group(512))
    assert calls == ["cyclic(512)"]


def test_closure_generates_whole_group():
    g = _s3()
    assert len(closure(g, [1, 2])) in (6,)  # two transposition-like gens
    full = closure(g, range(6))
    assert len(full) == 6
    assert len(closure(g, [])) == 1


def test_product_group_componentwise():
    a, b = cyclic_group(4), cyclic_group(6)
    g = product_group([a, b])
    assert g.order == 24
    assert g.is_abelian
    # first factor is the most significant digit
    assert g.mul(1 * 6 + 0, 0 * 6 + 1) == 1 * 6 + 1
    assert g.element_orders[1 * 6 + 1] == 12

    h = product_group([cyclic_group(2), heisenberg_group(3)])
    assert h.order == 54
    assert not h.is_abelian
    assert len(commutator_subgroup(h)) == 3


def test_permutation_group_closure_order():
    s4 = permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    assert s4.order == 24
    a4 = permutation_group(4, [[1, 2, 0, 3], [0, 2, 3, 1]])
    assert a4.order == 12
    # composition convention: (p*q)(i) = p(q(i))
    s3 = _s3()
    swap01, swap12 = 1, 2
    prod = s3.mul(swap01, swap12)
    assert s3.labels[prod] == "(1 2 0)"


def test_permutation_rejects_bad_generator():
    with pytest.raises(GroupValidationError):
        permutation_group(3, [[0, 0, 1]])
    with pytest.raises(GroupValidationError):
        permutation_group(3, [[1, 0]])


def test_table_group_klein_and_corruption():
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = table_group(klein)
    assert g.order == 4
    assert g.element_orders == (1, 2, 2, 2)

    bad = [row[:] for row in klein]
    bad[1][1] = 1  # duplicates 1 in row 1, breaks the Latin property
    with pytest.raises(GroupValidationError) as err:
        table_group(bad)
    assert "row 1" in str(err.value)


def test_table_group_rejects_associativity_failure():
    # Latin square with two-sided identity that is not a group
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupValidationError) as err:
        table_group(bad)
    assert "associativity" in str(err.value)


def test_build_group_dispatch():
    assert build_group({"type": "cyclic", "n": 5}).order == 5
    assert build_group({"type": "dihedral", "order": 10}).order == 10
    assert build_group({"type": "quaternion8"}).order == 8
    assert build_group({"type": "heisenberg", "p": 2}).order == 8
    g = build_group({
        "type": "product",
        "factors": [{"type": "cyclic", "n": 3}, {"type": "cyclic", "n": 4}],
    })
    assert g.order == 12
    p = build_group({"type": "permutation", "degree": 3, "generators": [[1, 2, 0]]})
    assert p.order == 3
    with pytest.raises(GroupValidationError):
        build_group({"type": "nonsense"})
    with pytest.raises(GroupValidationError):
        build_group("cyclic")


def test_group_subset_operations():
    g = cyclic_group(10)
    a = GroupSubset.from_indices(g, [1, 3, 5])
    b = GroupSubset.from_indices(g, [5, 7])
    assert len(a) == 3
    assert 3 in a and 4 not in a
    assert (a | b).indices() == (1, 3, 5, 7)
    assert (a & b).indices() == (5,)
    assert a.inverse().indices() == (5, 7, 9)
    assert a.is_subset_of(GroupSubset.full(g))
    with pytest.raises(ValueError):
        GroupSubset.from_indices(g, [10])
    with pytest.raises(ValueError):
        a | GroupSubset.from_indices(cyclic_group(11), [1])


def test_subgroup_view_roundtrip():
    g = dihedral_group(12)
    rot = closure(g, [1])
    view = subgroup_view(g, rot)
    assert view.group.order == 6
    for i in range(6):
        for j in range(6):
            p = view.group.mul(i, j)
            assert view.to_parent[p] == g.mul(view.to_parent[i], view.to_parent[j])
    assert view.from_parent[view.to_parent[3]] == 3

    not_closed = GroupSubset.from_indices(g, [0, 1, 6])
    with pytest.raises(GroupValidationError):
        subgroup_view(g, not_closed)


def test_conj_table_agrees_with_scalar_conj():
    g = dihedral_group(16)
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, x = rng.integers(0, g.order, size=2)
        assert g.conj_table[a, x] == g.conj(int(a), int(x))


def test_large_cyclic_validation_sampled():
    g = cyclic_group(600)  # beyond the exhaustive associativity window
    assert g.order == 600
    assert g.mul(599, 1) == 0
