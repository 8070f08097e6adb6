import ast
import dataclasses
import functools
import gc
import itertools
import json
import math
import pathlib
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoball import cli, groups, harmonic, setops, spectra
from monoball.errors import CapExceededError, GroupValidationError
from monoball.groups import (
    GroupSubset,
    abelianization,
    build_group,
    closure,
    commutator_subgroup,
    conjugacy_classes,
    coset_projection,
    cyclic_group,
    dihedral_group,
    enumerate_subgroups,
    heisenberg_group,
    is_supersolvable,
    permutation_group,
    product_group,
    quaternion_group,
    quotient,
    subgroup_view,
    table_group,
)
from monoball.harmonic import linear_characters, linear_phases
from monoball.metric import word_norm


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

    def quat(x):                # index 2u+s is (-1)^s times the unit 1, i, j or k
        v = [0, 0, 0, 0]
        v[x // 2] = (-1) ** (x % 2)
        return tuple(v)

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    for x in range(8):
        for y in range(8):
            assert quat(g.mul(x, y)) == hamilton(quat(x), quat(y))


def test_heisenberg_against_matrix_oracle():
    for p in (2, 3, 5):
        g = heisenberg_group(p)
        assert g.order == p ** 3

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
    kernel, ab = commutator_subgroup(g), _abelian_quotient(g)
    assert len(kernel) == 3
    assert ab.order == 9
    assert ab.is_abelian
    # commutator subgroup here is exactly the center
    center = [x for x in range(27) if all(g.mul(x, y) == g.mul(y, x) for y in range(27))]
    assert set(kernel.indices()) == set(center)


def test_conjugacy_matches_brute_force():
    for g in _partition_groups():
        cc = conjugacy_classes(g)
        assert list(cc.classes) == _brute_conjugacy(g), g.name
        assert cc.classes[0] == (g.identity,)
        assert cc.class_of.dtype == np.int64 and not cc.class_of.flags.writeable
        for x in range(g.order):
            assert x in cc.classes[cc.class_of[x]]


def test_subgroups_match_exhaustive_oracle():
    for g in (_s3(), quaternion_group(), cyclic_group(12), dihedral_group(8)):
        got = [s.indices() for s in enumerate_subgroups(g)]
        assert got == _brute_subgroups(g)


def test_subgroup_counts_frozen():
    assert len(enumerate_subgroups(_s3())) == 6
    assert len(enumerate_subgroups(quaternion_group())) == 6
    assert len(enumerate_subgroups(cyclic_group(12))) == 6
    assert len(enumerate_subgroups(dihedral_group(8))) == 10


def test_subgroup_lattice_joins_prime_power_cyclics(monkeypatch):
    calls = []
    real = groups.closure

    def counting(group, seeds):
        calls.append(group.order)
        return real(group, seeds)

    monkeypatch.setattr(groups, "closure", counting)
    subs = enumerate_subgroups(product_group([cyclic_group(2), heisenberg_group(3)]))
    assert len(subs) == 38
    # one closure per element and per join made 935 calls
    assert len(calls) < 935 / 2
    calls.clear()
    assert len(enumerate_subgroups(cyclic_group(128))) == 8 and calls == []


def test_subgroup_cap():
    with pytest.raises(CapExceededError):
        enumerate_subgroups(cyclic_group(200))
    subs = enumerate_subgroups(cyclic_group(200), max_order_cap=256)
    assert len(subs) == 12  # one per divisor of 200


@pytest.mark.parametrize("build", [
    lambda: cyclic_group(10 ** 5),
    lambda: build_group({"type": "product", "factors": [{"type": "cyclic", "n": 1000},
                                                        {"type": "cyclic", "n": 100}]}),
], ids=["c100000", "c1000xc100"])
def test_table_budget_refuses_an_order_before_its_table(build):
    """Order 10^5 would need a 40 GB int32 table; it is refused by its order
    alone, so the product's largest array is its C1000 factor's 4 MB table."""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="order 100000 needs 40000000000 bytes"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1
    assert peak < 10 * 2 ** 20


def test_table_budget_ends_at_order_23170():
    groups._check_table_bytes(23170, "c")      # 4 * 23170^2 <= 2^31 < 4 * 23171^2
    for build in (lambda: groups._check_table_bytes(23171, "c"),
                  lambda: dihedral_group(23172), lambda: heisenberg_group(29)):
        with pytest.raises(CapExceededError, match="beyond the cap of 2147483648"):
            build()


def test_product_spec_is_refused_before_any_factor(monkeypatch, tmp_path, capsys):
    """C20000 x C2 would need 6.4 GB; its order is read from the factors'
    specs, so not even the 1.6 GB C20000 table is built: the spy refuses it."""
    def spy(n):
        raise AssertionError(f"cyclic({n}) was built")
    monkeypatch.setattr(groups, "cyclic_group", spy)
    spec = {"type": "product", "factors": [{"type": "cyclic", "n": 20000},
                                           {"type": "cyclic", "n": 2}]}
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="order 40000 needs 6400000000 bytes"):
            build_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.1
    assert peak < 10 * 2 ** 20
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["group-info", "--group", str(path)]) == 1
    assert "order 40000 needs 6400000000 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("build", [lambda: dihedral_group(2000), lambda: heisenberg_group(13)],
                         ids=["d2000", "heis13"])
def test_arithmetic_tables_are_written_in_row_blocks(build):
    """The int32 table is the only n x n array: the peak stays within a
    quarter of it (a table built in int64 and cast peaked at 4 to 6 times)."""
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.mul_table.dtype == np.int32
    assert peak <= 1.25 * g.mul_table.nbytes


def test_permutation_table_is_written_row_by_row():
    """S6 x C2 on 8 points: each row is its parent's row read through a
    generator's left action, so the int32 table is the one n x n array and
    the peak is the table and the search's Python objects (it was 3.2 times
    the table when an int64 column table was built and transposed)."""
    tracemalloc.start()
    try:
        g = permutation_group(8, [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 0, 6, 7],
                                  [0, 1, 2, 3, 4, 5, 7, 6]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 1440 and g.mul_table.dtype == np.int32
    assert peak <= 1.5 * g.mul_table.nbytes


def _abelian_quotient(g):
    """G^ab with its coset table: `abelianization` is the projection alone."""
    return quotient(g, commutator_subgroup(g))


def test_abelianization_of_s3():
    g = _s3()
    ab, (proj, section) = _abelian_quotient(g), abelianization(g)
    assert len(commutator_subgroup(g)) == 3
    assert ab.order == 2
    assert proj[section[1]] == 1
    # projection respects multiplication
    for x in range(6):
        for y in range(6):
            assert proj[g.mul(x, y)] == ab.mul(proj[x], proj[y])


def test_abelianization_quotient_matches_validated_table():
    for g in (_s3(), heisenberg_group(3), dihedral_group(16), cyclic_group(12),
              product_group([cyclic_group(2), heisenberg_group(3)])):
        q, (p, section) = _abelian_quotient(g), abelianization(g)
        assert np.array_equal(p[g.mul_table], q.mul_table[p[:, None], p]), g.name
        assert q.labels == tuple(g.labels[r] for r in section), g.name
        assert not p.flags.writeable and not section.flags.writeable
        identity, inv, _, _ = groups._validate_table(np.array(q.mul_table), q.name)
        assert q.identity == identity
        assert np.array_equal(q.inv_table, inv)
        assert q.mul_table.dtype == q.inv_table.dtype == np.int32
        assert not q.mul_table.flags.writeable and not q.inv_table.flags.writeable


def test_quotient_by_a_normal_subgroup():
    g = dihedral_group(8)
    center = closure(g, [2])                    # {r0, r2}
    q, (proj, section) = quotient(g, center), coset_projection(g, center)
    assert q.order == 4
    identity, inv, _, _ = groups._validate_table(np.array(q.mul_table), q.name)
    assert q.identity == identity and np.array_equal(q.inv_table, inv)
    for x in range(8):
        assert section[proj[x]] == min(x, g.mul(x, 2))
        for y in range(8):
            assert proj[g.mul(x, y)] == q.mul(proj[x], proj[y])
    # a subgroup that is not normal, and a normal subset that is not a subgroup
    with pytest.raises(GroupValidationError, match="not a homomorphism"):
        quotient(g, closure(g, [4]))
    with pytest.raises(GroupValidationError, match="kernel"):
        quotient(g, GroupSubset.from_indices(g, [2]))


def test_quotient_by_the_trivial_subgroup_is_the_group():
    for g in _suite_groups():
        trivial = GroupSubset.identity_only(g)
        assert quotient(g, trivial) is g, g.name
        proj = coset_projection(g, trivial)
        assert proj.projection.tolist() == proj.section.tolist() == list(range(g.order))


def test_quotient_accepts_exactly_the_normal_subgroups():
    """The check on generators against the n^2 one: a subgroup's quotient
    exists exactly when it is normal, and its projection then respects every
    product."""
    for g in (dihedral_group(16), heisenberg_group(3), _s4(), _sl23(), _relabelled(_s4(), 2)):
        for sub in enumerate_subgroups(g):
            if groups.normality_witness(sub) is None:
                q, p = quotient(g, sub), coset_projection(g, sub).projection
                assert np.array_equal(p[g.mul_table], q.mul_table[p[:, None], p])
            else:
                with pytest.raises(GroupValidationError, match="not a homomorphism"):
                    quotient(g, sub)


def test_supersolvable_steps_through_quotients(monkeypatch):
    seen = []
    real = groups.quotient

    def recording(group, normal):
        seen.append((group.order, len(normal)))
        return real(group, normal)

    monkeypatch.setattr(groups, "quotient", recording)
    assert is_supersolvable(cyclic_group(12)) and seen == []
    # the exact rungs take no quotient: Heis(3) has prime-power order, and
    # C3 x D8 is a product of a group of prime order and a 2-group
    assert is_supersolvable(heisenberg_group(3)) and seen == []
    assert is_supersolvable(product_group([cyclic_group(3), dihedral_group(8)])) and seen == []
    # D24: <r^4> has prime order and is normal, and the quotient D8 is a 2-group
    assert is_supersolvable(dihedral_group(24)) and seen == [(24, 3)]
    seen.clear()
    # SL(2,3) / {+-1} is A4, where no element of prime order spans a normal subgroup
    assert not is_supersolvable(_sl23()) and seen == [(24, 2)]


def _supersolvable_by_power_table(g):
    """The verdict through the n x n table of powers: for x of prime order with
    every conjugate of x a power of x, pass to G/<x>."""
    while not g.is_abelian:
        orders, bits = g.element_orders, groups._cyclic_bits(g)
        part = conjugacy_classes(g)
        normal = next((x for x in range(g.order) if groups._prime_base(orders[x]) == orders[x]
                       and bits[x, part.classes[part.class_of[x]]].all()), None)
        if normal is None:
            return False
        g = quotient(g, GroupSubset(g, groups._bool_mask(bits[normal])))
    return True


def _a4():
    return permutation_group(4, [[1, 2, 0, 3], [1, 0, 3, 2]])


def test_supersolvable_agrees_with_the_power_table_route():
    named = [g for g in _suite_groups() if g.order <= 128] + [
        _a4(), _s5(), _relabelled(_sl23(), 3), dihedral_group(128), _relabelled(_a4(), 4),
        product_group([_s3(), cyclic_group(7)]), product_group([_a4(), cyclic_group(2)]),
        product_group([_s3(), _s3()]), product_group([quaternion_group(), cyclic_group(3)]),
        # p-groups, settled by their order
        product_group([cyclic_group(2), dihedral_group(8)]),
        # products settled by a factor that is not supersolvable
        product_group([_s4(), cyclic_group(3)]), product_group([_sl23(), cyclic_group(5)])]
    for g in named:
        assert is_supersolvable(g) is _supersolvable_by_power_table(g), g.name
    verdicts = {g.name: is_supersolvable(g) for g in named}
    assert not verdicts[_a4().name] and not verdicts[_s4().name] and not verdicts[_sl23().name]
    assert verdicts[_s3().name] and verdicts["heisenberg(3)"]
    for name in ("quaternion8", "dihedral(16)", "product(cyclic(2)xdihedral(8))"):
        assert verdicts[name], name
    for name in ("product(perm(deg 4)xcyclic(2))", "product(perm(deg 4)xcyclic(3))",
                 "product(perm(deg 8)xcyclic(5))"):
        assert not verdicts[name], name


def test_supersolvable_builds_no_square_table():
    """S3 x C255: an n x n bool table of powers alone would take n^2 bytes."""
    g = product_group([_s3(), cyclic_group(255)])
    n = g.order
    tracemalloc.start()
    try:
        verdict = is_supersolvable(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict and "element_orders" not in g.__dict__
    assert peak < n * n / 4


def test_linear_phases_build_no_coset_table():
    """S3 x C255: G^ab's coset table, (n/|G'|)^2 int32 entries, would take 1.0 MiB."""
    linear_phases(product_group([_s3(), cyclic_group(5)]))    # numpy's lazy imports
    g = product_group([_s3(), cyclic_group(255)])
    tracemalloc.start()
    try:
        linear_phases(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (g.order // 3) ** 2 * 4


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


def test_table_group_rejects_a_repeated_column_value():
    # both rows are permutations; column 0 holds 0 twice
    with pytest.raises(GroupValidationError, match="column 0 is not a permutation"):
        table_group([[0, 1], [0, 1]])


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


def test_every_table_and_view_map_is_read_only():
    """FiniteGroup makes its own tables read-only, whichever constructor built
    them; a subgroup view's index maps are read-only too."""
    d8 = dihedral_group(8)
    view = subgroup_view(d8, closure(d8, [1]))
    built = [cyclic_group(6), d8, quaternion_group(), heisenberg_group(3), _s3(),
             table_group([[0, 1], [1, 0]]), product_group([cyclic_group(2), _s3()]),
             quotient(d8, closure(d8, [2])), view.group]
    for arr in [t for g in built for t in (g.mul_table, g.inv_table)] + list(view[2:]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


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


def _s4():
    return permutation_group(4, [[1, 0, 2, 3], [1, 2, 3, 0]])


def _sl23():
    pts = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pidx = {p: i for i, p in enumerate(pts)}

    def mat_perm(m):
        return [pidx[((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3)]
                for a, b in pts]

    return permutation_group(8, [mat_perm([[1, 1], [0, 1]]), mat_perm([[1, 0], [1, 1]])])


def test_subgroup_views_are_groups_with_their_own_lattice():
    # views skip table validation and inherit the parent's lattice; check both
    # on the five freiman fixtures, S4 and SL(2,3)
    heis3 = heisenberg_group(3)
    fixtures = [heis3, dihedral_group(16), cyclic_group(128),
                product_group([cyclic_group(2), heis3]),
                product_group([cyclic_group(3), dihedral_group(8)]), _s4(), _sl23()]
    for g in fixtures:
        for sub in enumerate_subgroups(g):
            view = subgroup_view(g, sub).group
            identity, inv, _, _ = groups._validate_table(view.mul_table, view.name)
            assert identity == view.identity
            assert np.array_equal(inv, view.inv_table)
            rebuilt = table_group(view.mul_table.tolist())
            assert ([s.mask for s in enumerate_subgroups(view)]
                    == [s.mask for s in enumerate_subgroups(rebuilt)])


def test_cyclic_table_is_the_sum_mod_n():
    for n in (1, 2, 3, 97, 768):
        t = cyclic_group(n).mul_table
        a = np.arange(n)
        assert np.array_equal(t, np.add.outer(a, a) % n), n
        assert t.dtype == np.int32 and t.flags.c_contiguous and not t.flags.writeable


def test_cyclic_table_is_written_without_a_temporary():
    n = 2048
    tracemalloc.start()
    try:
        cyclic_group(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 4 * n * n     # the int32 table itself is 4 n^2 bytes


def test_generators_are_the_set_the_proof_ran_on(monkeypatch):
    real, searches = groups._generating_set, []

    def counting(mul, identity):
        searches.append(len(mul))
        return real(mul, identity)

    monkeypatch.setattr(groups, "_generating_set", counting)
    suite = _suite_groups()
    built = len(searches)                  # one search per validated table
    for g in suite:
        assert g.generators == tuple(real(g.mul_table, g.identity)), g.name
    # a product's table is not proved, so its search runs on first read
    assert len(searches) == built + sum(1 for g in suite if g.factors) == built + 2


def test_large_cyclic_validation_sampled():
    g = cyclic_group(600)  # validated exactly, as every table is at every order
    assert g.order == 600
    assert g.mul(599, 1) == 0


# the constructors as the loops that define them, element pair by element pair


def _loop_dihedral(order):
    n = order // 2
    mul = np.zeros((order, order), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            mul[a, b] = (a + b) % n                  # r^a r^b
            mul[a, n + b] = n + (b - a) % n          # r^a (s r^b) = s r^{b-a}
            mul[n + a, b] = n + (a + b) % n          # (s r^a) r^b
            mul[n + a, n + b] = (b - a) % n          # (s r^a)(s r^b) = r^{b-a}
    return mul


def _loop_product(factors):
    tuples = list(itertools.product(*(range(g.order) for g in factors)))
    mul = np.zeros((len(tuples), len(tuples)), dtype=np.int64)
    for i, ti in enumerate(tuples):
        for j, tj in enumerate(tuples):
            mul[i, j] = tuples.index(tuple(g.mul(a, b) for g, a, b in zip(factors, ti, tj)))
    labels = ["(" + ",".join(g.labels[t] for g, t in zip(factors, tup)) + ")" for tup in tuples]
    return mul, labels


def _loop_permutation(degree, gens):
    def compose(p, q):
        return tuple(p[q[i]] for i in range(degree))

    elems = [tuple(range(degree))]
    for cur in elems:                           # breadth-first, generator by generator
        for g in gens:
            if compose(cur, g) not in elems:
                elems.append(compose(cur, g))
    mul = np.array([[elems.index(compose(p, q)) for q in elems] for p in elems])
    return mul, ["(" + " ".join(map(str, p)) + ")" for p in elems]


def test_dihedral_table_matches_the_loop_definition():
    for order in range(2, 33, 2):
        assert np.array_equal(dihedral_group(order).mul_table, _loop_dihedral(order)), order


def test_product_table_matches_the_loop_definition():
    for factors in ([cyclic_group(4), cyclic_group(6)],
                    [cyclic_group(2), heisenberg_group(3)],
                    [cyclic_group(3), dihedral_group(8), _s3()]):
        mul, labels = _loop_product(factors)
        g = product_group(factors)
        assert np.array_equal(g.mul_table, mul) and list(g.labels) == labels


def test_product_table_is_written_in_row_blocks():
    for factors in ([cyclic_group(3), dihedral_group(8)],
                    [cyclic_group(2), heisenberg_group(3)],
                    [cyclic_group(40), heisenberg_group(3)]):
        orders = [f.order for f in factors]
        digits = np.unravel_index(np.arange(int(np.prod(orders))), orders)
        want = np.ravel_multi_index(
            tuple(f.mul_table[np.ix_(d, d)] for f, d in zip(factors, digits)), orders)
        tracemalloc.start()
        try:
            g = product_group(factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.mul_table.dtype == np.int32 and np.array_equal(g.mul_table, want)
    assert peak < 8 * 2 ** 20      # the 1080 x 1080 int32 table itself is 4.4 MiB


# products whose tables `product_group` does not prove: the suite's groups as
# factors, up to order 4096, with three factors, a trivial factor, one factor,
# and relabelled table factors whose identity is not element 0
PRODUCTS = {
    "c4xc6": lambda: [cyclic_group(4), cyclic_group(6)],
    "c3xd8": lambda: [cyclic_group(3), dihedral_group(8)],
    "c2xheis3": lambda: [cyclic_group(2), heisenberg_group(3)],
    "c3xd8xs3": lambda: [cyclic_group(3), dihedral_group(8), _s3()],
    "c1xq8": lambda: [cyclic_group(1), quaternion_group()],
    "s4xc1xc5": lambda: [_s4(), cyclic_group(1), cyclic_group(5)],
    "sl23": lambda: [_sl23()],
    "s4relabelledxc5": lambda: [_relabelled(_s4(), 2), cyclic_group(5)],
    "c3xd8relabelled": lambda: [cyclic_group(3), _relabelled(dihedral_group(8), 3)],
    "d30xheis3": lambda: [dihedral_group(30), heisenberg_group(3)],
    "c360xs3": lambda: [cyclic_group(360), _s3()],
    "d16xc128xc2": lambda: [dihedral_group(16), cyclic_group(128), cyclic_group(2)],
}


@pytest.mark.parametrize("factors", PRODUCTS.values(), ids=PRODUCTS)
def test_product_passes_the_table_proof_it_skips(factors):
    """The REPLACED CHECK for products: the proof a constructor runs accepts
    each product table, and finds the identity, the inverses and the
    generating set that the product holds without it."""
    factors = factors()
    g = product_group(factors)
    assert g.factors == tuple(factors) and g.order <= 4096
    identity, inv, mul, gens = groups._validate_table(np.array(g.mul_table), g.name)
    assert identity == g.identity and np.array_equal(inv, g.inv_table)
    assert np.array_equal(mul, g.mul_table) and gens == g.generators
    assert g.mul_table.dtype == g.inv_table.dtype == np.int32
    assert not g.mul_table.flags.writeable and not g.inv_table.flags.writeable


def test_a_product_validates_each_factor_once_and_itself_never(monkeypatch):
    calls = []
    real = groups._validate_table

    def counting(mul, name):
        calls.append(name)
        return real(mul, name)

    monkeypatch.setattr(groups, "_validate_table", counting)
    g = build_group({"type": "product", "factors": [{"type": "cyclic", "n": 3},
                                                    {"type": "dihedral", "order": 8}]})
    linear_phases(g)
    is_supersolvable(g)
    assert calls == ["cyclic(3)", "dihedral(8)"]


def test_permutation_table_matches_the_loop_definition():
    cases = [(3, [[1, 0, 2], [0, 2, 1]]),                    # S3
             (4, [[1, 0, 2, 3], [1, 2, 3, 0]]),              # S4
             (5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),        # S5
             (4, [[1, 2, 3, 0]]),                            # C4
             (6, [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3], [3, 4, 5, 0, 1, 2]])]  # C3 wr C2
    for degree, gens in cases:
        mul, labels = _loop_permutation(degree, [tuple(g) for g in gens])
        g = permutation_group(degree, gens)
        assert np.array_equal(g.mul_table, mul) and list(g.labels) == labels, degree
    assert [permutation_group(d, gs).order for d, gs in cases] == [6, 24, 120, 4, 18]


def _cyclic_with_intercalate(n, r, c):
    # rows r, r + n/2 and columns c, c + n/2 of C_n hold a 2x2 Latin subsquare;
    # swapping its entries keeps the table Latin, and its identity, if r, c != 0
    t = (np.arange(n)[:, None] + np.arange(n)) % n
    h = n // 2
    t[[r, r, r + h, r + h], [c, c + h, c, c + h]] = t[[r, r, r + h, r + h], [c + h, c, c + h, c]]
    return t


def _assert_associativity_witness(t, message):
    m = re.fullmatch(r"table: associativity fails at \((\d+),(\d+),(\d+)\): "
                     r"\(x\*y\)\*z=(\d+) but x\*\(y\*z\)=(\d+)", message)
    assert m, message
    x, y, z, lhs, rhs = map(int, m.groups())
    assert t[t[x, y], z] == lhs != rhs == t[x, t[y, z]]


def test_large_table_associativity_failure_names_its_witness():
    t = _cyclic_with_intercalate(600, 1, 2)
    with pytest.raises(GroupValidationError) as err:
        table_group(t)
    _assert_associativity_witness(t, str(err.value))


def test_associativity_check_agrees_with_the_full_sweep():
    rng = np.random.default_rng(3)
    verdicts = []
    for n in (4, 6, 8, 10, 12, 16):
        for r in range(1, n // 2):
            for c in range(1, n // 2):
                t = _cyclic_with_intercalate(n, r, c)
                verdicts.append(bool((t[t] == t[:, t]).all()))  # (x y) z = x (y z) throughout
                if verdicts[-1]:
                    table_group(t)
                    continue
                with pytest.raises(GroupValidationError) as err:
                    table_group(t)
                _assert_associativity_witness(t, str(err.value))
    assert verdicts.count(True) == 1 and verdicts.count(False) == 103
    # a group relabelled at random is still a group
    for g in (_s4(), _sl23(), product_group([cyclic_group(2)] * 6), dihedral_group(30)):
        perm = rng.permutation(g.order)
        t = np.empty_like(g.mul_table)
        t[np.ix_(perm, perm)] = perm[g.mul_table]
        assert table_group(t).identity == perm[g.identity]


def test_generating_set_is_logarithmic():
    g = product_group([cyclic_group(2)] * 10)
    assert list(groups._generating_set(g.mul_table, g.identity)) == [1 << k for k in range(10)]
    assert list(groups._generating_set(cyclic_group(600).mul_table, 0)) == [1]
    assert list(groups._generating_set(cyclic_group(1).mul_table, 0)) == []


def _has_identity(t):
    want = np.arange(len(t))
    return any((t[e] == want).all() and (t[:, e] == want).all() for e in want)


def _brute_is_group(t):
    """Latin rows and columns, a two-sided identity and all n^3 triples associative."""
    want = np.arange(len(t))
    latin = (np.sort(t, axis=1) == want).all() and (np.sort(t, axis=0) == want[:, None]).all()
    return bool(latin and _has_identity(t) and (t[t] == t[:, t]).all())


def _assert_true_rejection(t, message):
    if m := re.fullmatch(r"table: (row|column) (\d+) is not a permutation \(not a Latin square\)",
                         message):
        line = t[int(m[2])] if m[1] == "row" else t[:, int(m[2])]
        assert sorted(line.tolist()) != list(range(len(t))), message
    elif message == "table: no two-sided identity element":
        assert not _has_identity(t)
    else:
        _assert_associativity_witness(t, message)


def test_group_proof_agrees_with_a_brute_force_check():
    # uniform tables, tables bordered by an identity, and groups of order <= 5
    # relabelled with one or two entries overwritten
    rng = np.random.default_rng(1)
    small_groups = {n: [] for n in range(1, 6)}
    for g in (cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
              product_group([cyclic_group(2)] * 2), cyclic_group(5)):
        small_groups[g.order].append(g.mul_table.astype(np.int64))
    kinds = {"accepted": 0, "row": 0, "column": 0, "identity": 0, "associativity": 0}
    for n in range(1, 6):
        want = np.arange(n)
        for family in ("uniform", "bordered", "corrupted"):
            for _ in range(200):
                if family == "corrupted":
                    mul = small_groups[n][rng.integers(len(small_groups[n]))]
                    perm = rng.permutation(n)
                    t = np.empty_like(mul)
                    t[np.ix_(perm, perm)] = perm[mul]
                    for _ in range(rng.integers(1, 3)):
                        t[rng.integers(n), rng.integers(n)] = rng.integers(n)
                else:
                    t = rng.integers(0, n, (n, n))
                    if family == "bordered":
                        e = rng.integers(n)
                        t[e], t[:, e] = want, want
                if _brute_is_group(t):
                    assert table_group(t).order == n
                    kinds["accepted"] += 1
                    continue
                with pytest.raises(GroupValidationError) as err:
                    table_group(t)
                _assert_true_rejection(t, str(err.value))
                kind = next((k for k in ("row", "column", "identity") if k in str(err.value)),
                            "associativity")
                kinds[kind] += 1
    assert all(kinds.values()), kinds


def test_light_test_pulls_at_most_log2_n_plus_one_generators(monkeypatch):
    # x*y = x and x*x = 0, with row and column 0 the identity's: every row
    # holds 0, and a search that went on to the end would take all 599
    # other elements as generators, one new element each
    n = 600
    t = np.repeat(np.arange(n)[:, None], n, axis=1)
    t[0] = np.arange(n)
    np.fill_diagonal(t, 0)
    real, pulled = groups._generating_set, []
    assert next(real(t, 0)) == 1

    def counting(mul, identity):
        for s in real(mul, identity):
            pulled.append(s)
            yield s

    monkeypatch.setattr(groups, "_generating_set", counting)
    with pytest.raises(GroupValidationError) as err:
        table_group(t)
    _assert_associativity_witness(t, str(err.value))
    assert 1 <= len(pulled) <= n.bit_length() == 10


# the shared power chain and element orders against the searches they replace


def _suite_groups():
    """A group of every constructor family the suite builds, and a table group
    whose identity is not element 0."""
    perm = np.random.default_rng(1).permutation(24)
    relabelled = np.empty((24, 24), dtype=np.int64)
    relabelled[np.ix_(perm, perm)] = perm[_s4().mul_table]
    heis3 = heisenberg_group(3)
    return [cyclic_group(1), cyclic_group(12), cyclic_group(128), cyclic_group(360),
            dihedral_group(16), dihedral_group(30), quaternion_group(), heis3,
            product_group([cyclic_group(2), heis3]),
            product_group([cyclic_group(3), dihedral_group(8)]), _s3(), _s4(), _sl23(),
            table_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]),
            table_group(relabelled)]


def _bfs_closure(g, seeds):
    """Every word in the seeds, by right multiplication from the identity."""
    seeds = sorted(set(int(s) for s in seeds))
    reached, todo = {g.identity}, [g.identity]
    while todo:
        x = todo.pop()
        for s in seeds:
            if g.mul(x, s) not in reached:
                reached.add(g.mul(x, s))
                todo.append(g.mul(x, s))
    return tuple(sorted(reached))


def test_closure_matches_a_breadth_first_search():
    rng = np.random.default_rng(4)
    for g in _suite_groups():
        others = [x for x in range(g.order) if x != g.identity]
        cases = [[], range(g.order), rng.choice(g.order, size=6).astype(np.int32)]
        cases += [rng.choice(others, size=min(k, len(others)), replace=False).tolist()
                  for k in (1, 1, 2, 3)]
        for seeds in cases:
            assert closure(g, seeds).indices() == _bfs_closure(g, seeds), g.name
        for bad in (-1, g.order):
            with pytest.raises(ValueError, match="seed element out of range"):
                closure(g, [g.identity, bad])


def _successive_orders(g):
    """Each element's order by definition: the least k >= 1 with x^k = 1."""
    elems = np.arange(g.order)
    orders = np.zeros(g.order, dtype=np.int64)
    power, k = elems, 1
    while not orders.all():
        orders[(power == g.identity) & (orders == 0)] = k
        power = g.mul_table[power, elems]
        k += 1
    return tuple(orders.tolist())


@functools.cache
def _suite_once():
    return _suite_groups()


@st.composite
def _strided_cases(draw):
    """A group of the suite, an A with the identity (symmetric or not,
    generating or not), a stride n and a second stride l."""
    g = draw(st.sampled_from(_suite_once()))
    members = draw(st.sets(st.integers(0, g.order - 1), max_size=6))
    return g, members, draw(st.booleans()), draw(st.integers(1, 5)), draw(st.integers(1, 3))


def _word_norm_or_none(gens):
    try:
        return word_norm(gens.group, gens).scaled.tolist()
    except ValueError:      # gens does not generate the group
        return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_strided_cases())
def test_a_strided_power_chain_equals_a_walked_one(case):
    """A^n's chain, read off A's at stride n by `power_set`, against one walked
    for A^n. Each read runs on a fresh copy of the group, so A's chain grows
    only as far as that read reaches."""
    g, members, symmetric, n, l = case

    def base():
        group = dataclasses.replace(g)
        a = GroupSubset.from_indices(group, sorted(members | {group.identity}))
        return a | a.inverse() if symmetric else a

    def strided(*strides):
        """A^(product of strides), one power_set per stride, and its chain."""
        a = power = base()
        for stride in strides:
            power = setops.power_set(power, stride)
        chain = groups.power_chain(power)
        assert isinstance(chain, groups.StridedChain) == (
            math.prod(strides) > 1 and power.mask != a.mask)
        return power, chain

    def walked(mask):
        """The same set in a fresh copy of the group, its chain walked."""
        return GroupSubset(dataclasses.replace(g), mask)

    for strides in ((n,), (l, n)):
        power, chain = strided(*strides)
        want = groups.power_chain(walked(power.mask))
        start, period = want.cycle()
        assert isinstance(want, groups.PowerChain) and period == 1
        for k in range(start + 3):
            assert (chain.size(k), chain.mask(k)) == (want.size(k), want.mask(k)), (strides, k)
        assert chain.cycle() == (start, 1), strides
        assert np.array_equal(chain.dist, want.dist), strides
    # (A^l)^n = A^{ln}
    assert power.mask == strided(l * n)[0].mask

    power = strided(n)[0]
    start = groups.power_chain(walked(power.mask)).cycle()[0]
    for m in {max(start - 1, 1), max(start, 1), start + 1}:    # saturated_at flips
        got = setops.growth_profile(strided(n)[0], m)
        assert got == setops.growth_profile(walked(power.mask), m), m
    assert _word_norm_or_none(strided(n)[0]) == _word_norm_or_none(walked(power.mask))


def test_element_orders_match_successive_powers():
    for g in _suite_groups() + [cyclic_group(4096)]:
        assert g.element_orders == _successive_orders(g), g.name


def test_mul_inv_conj_broadcast_as_table_gathers():
    rng = np.random.default_rng(5)
    for g in _suite_groups():
        x, y = rng.integers(g.order, size=7), rng.integers(g.order, size=5)
        assert np.array_equal(g.mul(x[:, None], y), g.mul_table[np.ix_(x, y)]), g.name
        assert np.array_equal(g.mul(x, y[0]), g.mul_table[x, y[0]]), g.name
        assert np.array_equal(g.mul(slice(None), y), g.mul_table[:, y]), g.name
        assert np.array_equal(g.inv(x), g.inv_table[x]), g.name
        assert np.array_equal(g.conj(x[:, None], y),
                              g.mul_table[g.mul_table[np.ix_(x, y)], g.inv_table[x][:, None]])
        a, b = (int(v) for v in rng.integers(g.order, size=2))
        for value in (g.mul(a, b), g.inv(a), g.conj(a, b), g.mul(x[0], y[0])):
            assert type(value) is int, g.name
        assert g.mul(a, b) == g.mul_table[a, b] and g.conj(a, b) == g.mul(g.mul(a, b), g.inv(a))


def test_mul_of_two_index_arrays_is_the_per_axis_gather():
    """Two index arrays with over 1024 products between them are multiplied by
    one gather on the flat table; on either side of that size the product must
    be the per-axis 2-D index's values, shape and dtype for every broadcast."""
    rng = np.random.default_rng(7)
    shapes = [((5,), (5,)), ((4, 1), (3,)), ((1, 3), (4, 1)), ((2, 3, 1), (1, 4)),
              ((), (6,)), ((3,), ()), ((), ()), ((0,), (2, 1)), ((40, 1), (30,)),
              ((1, 40), (30, 1)), ((2, 30, 1), (1, 40)), ((), (2000,)), ((1100,), (1100,)),
              ((33,), (33,)), ((0, 1), (3000,))]
    for g in _suite_groups():
        for (sa, sb), dtype in itertools.product(shapes, (np.int32, np.int64)):
            x = np.asarray(rng.integers(g.order, size=sa), dtype=dtype)
            y = np.asarray(rng.integers(g.order, size=sb), dtype=dtype)
            got, want = g.mul(x, y), g.mul_table[x, y]
            if want.ndim:
                assert got.shape == want.shape and got.dtype == want.dtype, (g.name, sa, sb)
                assert np.array_equal(got, want), (g.name, sa, sb)
            else:
                assert type(got) is int and got == want, g.name


def test_only_groups_reads_the_table():
    """Every product, inverse and per-group cache outside `groups` goes through
    `FiniteGroup`'s methods, so a group stored another way changes one module."""
    src = pathlib.Path(groups.__file__).parent
    reads = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             if path.name != "groups.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("mul_table", "inv_table", "__dict__")]
    assert reads == []


def test_package_imports_nothing_newer_than_python_3_10():
    """pyproject allows Python 3.10, so no module may import a `typing` name or
    a stdlib module that first appeared in 3.11 or later."""
    newer = {"Self", "LiteralString", "Never", "assert_never", "assert_type", "reveal_type",
             "Required", "NotRequired", "TypeVarTuple", "Unpack", "dataclass_transform",
             "get_overloads", "clear_overloads", "override", "TypeAliasType", "ReadOnly",
             "TypeIs", "tomllib"}
    src = pathlib.Path(groups.__file__).parent
    found = [f"{path.name}:{node.lineno} {alias.name}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names
             if alias.name in newer or (isinstance(node, ast.ImportFrom)
                                        and node.module == "tomllib")]
    assert found == []


def test_package_imports_only_the_stdlib_numpy_and_itself():
    """Every module imports from the stdlib, numpy and monoball alone, and numpy
    is the one runtime dependency; tests keep mpmath as their reference."""
    allowed = {*sys.stdlib_module_names, "numpy", "monoball"}
    src = pathlib.Path(groups.__file__).parent
    found = [f"{path.name}:{node.lineno} {name}" for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                          else [node.module] if isinstance(node, ast.ImportFrom)
                          and node.level == 0 else [])
             if name.partition(".")[0] not in allowed]
    assert found == []
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 on
    project = tomllib.loads((src.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]
    assert "mpmath" in [re.match(r"[\w.-]+", dep)[0]
                        for dep in project["optional-dependencies"]["test"]]


def test_is_abelian_on_the_generators_matches_the_whole_table():
    verdicts = []
    for g in _suite_groups():
        for h in (g, _abelian_quotient(g)):
            verdicts.append(h.is_abelian)
            assert h.is_abelian == np.array_equal(h.mul_table, h.mul_table.T), h.name
    assert verdicts.count(False) == 10       # the ten non-abelian suite groups


# groups for the class partition, the commutator subgroup and the
# conjugation-closure test, each checked against its definition


def _s5():
    return permutation_group(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])


def _relabelled(g, seed):
    """g's table under a random relabelling whose identity is not element 0."""
    rng = np.random.default_rng(seed)
    while (perm := rng.permutation(g.order))[g.identity] == 0:
        pass
    table = np.empty_like(g.mul_table)
    table[np.ix_(perm, perm)] = perm[g.mul_table]
    return table_group(table)


def _partition_groups():
    """Every constructor family, S5, D256 (long orbits) and relabelled tables."""
    relabelled = [_relabelled(g, seed) for seed, g in enumerate(
        (dihedral_group(8), quaternion_group(), heisenberg_group(3), _sl23(), _s5()))]
    return _suite_groups() + [_s5(), dihedral_group(256)] + relabelled


def _all_commutators_closure(g):
    """The subgroup generated by every commutator x y x^-1 y^-1."""
    m, i = g.mul_table, g.inv_table
    return closure(g, np.unique(m[m[m, i[:, None]], i[None, :]])).mask


def test_commutator_subgroup_matches_the_closure_of_all_commutators():
    for g in _partition_groups():
        assert commutator_subgroup(g).mask == _all_commutators_closure(g), g.name


def test_abelian_commutator_subgroup_builds_no_power_chain(monkeypatch):
    built = []
    init = groups.PowerChain.__init__

    def counting_init(self, mul_table, identity, a):
        built.append(tuple(a.tolist()))
        init(self, mul_table, identity, a)

    monkeypatch.setattr(groups.PowerChain, "__init__", counting_init)
    assert commutator_subgroup(cyclic_group(256)).mask == 1
    assert built == []


def test_classes_are_built_from_class_of_on_first_read():
    for g in _partition_groups():
        part = conjugacy_classes(g)
        assert "classes" not in part.__dict__, g.name
        k = int(part.class_of.max()) + 1
        eager = tuple(tuple(np.flatnonzero(part.class_of == c).tolist()) for c in range(k))
        assert part.classes == eager and part.classes is part.classes, g.name


def _loop_escape(a):
    """The least member of A with a conjugate outside A, conjugate by conjugate."""
    g = a.group
    return next((x for x in a if any(g.conj(h, x) not in a for h in range(g.order))), None)


def test_conjugation_escape_matches_the_conjugate_loop():
    rng = np.random.default_rng(11)
    for g in _suite_groups() + [_s5()]:
        cases = [GroupSubset.full(g), GroupSubset.identity_only(g), GroupSubset(g, 0)]
        for size in (1, 2, 3, 5):
            a = GroupSubset.from_indices(g, rng.choice(g.order, size=min(size, g.order)))
            union = groups.conjugates(a)
            cases += [a, union, GroupSubset(g, union.mask & ~(1 << max(union)))]
        for a in cases:
            assert groups.conjugation_escape(a) == _loop_escape(a), g.name
            assert (groups.normality_witness(a) is None) == (_loop_escape(a) is None)


def _least_moved(a):
    """The least x with xA != Ax, by comparing the two sets at every x."""
    g, members = a.group, a.indices()
    return next((x for x in range(g.order)
                 if {g.mul(x, y) for y in members} != {g.mul(y, x) for y in members}), None)


def test_normality_witness_is_the_least_x_that_moves_the_set():
    """Only the generators are tested, and the least x with xA != Ax is always
    one of them, since each is the least element outside the subgroup of the
    earlier ones: the witness equals the scan over every x."""
    rng = np.random.default_rng(13)
    for base in (_s4(), dihedral_group(8), quaternion_group(), _sl23(), heisenberg_group(3),
                 product_group([cyclic_group(2), heisenberg_group(3)])):
        for g in (base, _relabelled(base, 5)):
            cases = list(enumerate_subgroups(g))
            cases += [GroupSubset.from_indices(g, rng.choice(g.order, size=k, replace=False))
                      for k in (1, 2, 3, 4, 6) for _ in range(4)]
            witnesses = [groups.normality_witness(a) for a in cases]
            assert witnesses == [_least_moved(a) for a in cases], g.name
            assert None in witnesses and set(witnesses) - {None} <= set(g.generators), g.name
            assert len(set(witnesses)) > 2, g.name


def test_classes_and_commutators_need_no_square_table():
    g = cyclic_group(2048)
    tracemalloc.start()
    try:
        conjugacy_classes(g)
        commutator_subgroup(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20      # one 2048 x 2048 int32 table is 16 MiB


def _lin_groups():
    """The suite's groups, five relabelled tables and C2 x C4 x C6, whose G^ab
    is not cyclic."""
    c2c4c6 = product_group([cyclic_group(2), cyclic_group(4), cyclic_group(6)])
    relabelled = [_relabelled(g, seed) for seed, g in enumerate(
        (cyclic_group(12), dihedral_group(16), heisenberg_group(3), c2c4c6, _s4()))]
    return _suite_groups() + relabelled + [c2c4c6]


def test_linear_phases_characterise_lin():
    rng = np.random.default_rng(6)
    for g in _lin_groups():
        lp = linear_phases(g)
        rows = lp.block()
        assert len(rows) == g.order // len(commutator_subgroup(g)), g.name
        assert all(tuple(a) < tuple(b) for a, b in zip(rows, rows[1:])), g.name
        for lam in linear_characters(g):
            lam.verify_homomorphism()
        assert np.array_equal(lp.keys, lp.block(None, lp.gens)), g.name
        r = rng.choice(len(rows), size=min(3, len(rows)), replace=False)
        c = rng.choice(g.order, size=min(5, g.order), replace=False)
        assert np.array_equal(lp.block(r, c), rows[np.ix_(r, c)]), g.name


def _a5():
    return permutation_group(5, [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]])


def _reference_linear_phases(g):
    """The chain of `linear_phases` run over the exponent of G^ab, taken from
    its element orders: (exponent, gens, keys, coords)."""
    q, ab = _abelian_quotient(g), abelianization(g)
    e = math.lcm(*q.element_orders)
    elems, coords = np.array([q.identity]), np.zeros((1, 0), dtype=np.int64)
    inside = np.arange(q.order) == q.identity
    keys = np.zeros((1, 0), dtype=np.int64)
    gens = []
    while len(elems) < q.order:
        y = int(np.argmin(inside))
        powers = [q.identity]
        while not inside[q.mul(powers[-1], y)]:
            powers.append(q.mul(powers[-1], y))
        m = len(powers)
        at_y_m = keys @ coords[np.flatnonzero(elems == q.mul(powers[-1], y))[0]] % e
        roots = np.repeat(at_y_m // m, m) + np.tile(np.arange(m) * (e // m), len(keys))
        keys = np.column_stack([np.repeat(keys, m, axis=0), roots])
        elems = q.mul(elems[None, :], np.array(powers)[:, None]).ravel()
        coords = np.column_stack([np.tile(coords, (m, 1)), np.repeat(np.arange(m), len(coords))])
        inside[elems] = True
        gens.append(int(ab.section[y]))
    keys = keys[np.lexsort(keys.T[::-1])] if gens else keys
    coords = coords[np.argsort(elems)[ab.projection]]
    return e, tuple(gens), keys, coords


def test_linear_phases_read_the_exponent_off_the_chain():
    for g in _lin_groups() + [_a5(), cyclic_group(1)]:
        lp = linear_phases(g)
        assert lp.exponent == math.lcm(*_abelian_quotient(g).element_orders), g.name
        e, gens, keys, coords = _reference_linear_phases(g)
        assert (lp.exponent, lp.gens) == (e, gens), g.name
        assert np.array_equal(lp.keys, keys) and lp.keys.shape == keys.shape, g.name
        assert np.array_equal(lp.coords, coords), g.name
        assert np.array_equal(lp.find(keys), np.arange(len(keys))), g.name
        assert np.array_equal(lp.find(keys + lp.exponent), np.arange(len(keys))), g.name
    assert linear_phases(_a5()).keys.shape == (1, 0)


def test_phase_block_is_the_int64_product_of_keys_and_coords():
    """`block` sums r outer products in int32 when r (e - 1)^2 < 2^31 and in
    int64 otherwise, and returns int64 equal to one int64 matmul's remainder:
    on every suite group (r = 0 for A5 and C1, r >= 2 for C2 x Heis(3) and
    C6 x C10 x C4), on row and column subsets, and on hand-made phases on
    either side of the bound, whose products (e - 1)^2 wrap round in int32
    past it."""
    rng = np.random.default_rng(28)
    ranks = set()
    for g in _lin_groups() + [_a5(), product_group([cyclic_group(n) for n in (6, 10, 4)])]:
        lp = linear_phases(g)
        ranks.add(lp.keys.shape[1])
        full = (lp.coords @ lp.keys.T % lp.exponent).T
        every_row, every_col = np.arange(len(lp.keys)), np.arange(g.order)
        cases = [(None, None), ([0], None), (None, [g.identity])]
        cases += [(rng.choice(every_row, k), rng.choice(every_col, j))
                  for k, j in ((1, 7), (3, 1), (5, 40))]
        for rows, cols in cases:
            got = lp.block(rows, cols)
            want = full[np.ix_(every_row if rows is None else rows,
                               every_col if cols is None else cols)]
            assert got.dtype == np.int64 and np.array_equal(got, want), g.name
    assert {0, 1, 2, 3} <= ranks
    for r, e, dtype in ((1, 46341, np.int32), (1, 46342, np.int64),
                        (2, 32768, np.int32), (2, 32769, np.int64)):
        keys = np.array(list(itertools.product([0, 1, e - 2, e - 1], repeat=r)))
        lp = harmonic.LinearPhases(keys, keys[::-1].copy(), e, tuple(range(r)), np.full(r, e))
        assert lp._key_terms.dtype == dtype, (r, e)
        got = lp.block()
        assert got.dtype == np.int64, (r, e)
        assert np.array_equal(got, (keys[::-1] @ keys.T % e).T), (r, e)


def test_negations_read_one_stored_map_of_find_on_the_negated_keys(monkeypatch):
    """`negations(a)` is find(-keys[a]) on every suite group, A5 and C1, and an
    involution; it reads a read-only map built once per Lin(G), so no later
    call runs `find`."""
    rng = np.random.default_rng(29)
    maps = []
    for g in _lin_groups() + [_a5(), cyclic_group(1)]:
        lp = linear_phases(g)
        every = np.arange(len(lp.keys))
        for a in (every, rng.choice(every, 5), [0], []):
            got = lp.negations(a)
            assert np.array_equal(got, lp.find(-lp.keys[list(a)])), g.name
            assert got.dtype == np.int64, g.name
        assert np.array_equal(lp.negations(lp.negations(every)), every), g.name
        assert not lp._negations.flags.writeable, g.name
        maps.append((lp, lp.negations(every)))
    monkeypatch.setattr(harmonic.LinearPhases, "find", None)    # a call would raise
    for lp, want in maps:
        assert np.array_equal(lp.negations(np.arange(len(want))), want)


def test_inverse_pairs_are_the_least_of_each_pair_and_its_partner(monkeypatch):
    """`inverse_pairs` is (i, neg(i)) for each i <= neg(i), i ascending: every
    character lies in exactly one pair. It is read-only and built once per
    Lin(G), so building Fourier magnitudes reads it and calls no `negations`."""
    for g in _lin_groups() + [_a5(), cyclic_group(1)]:
        lp = linear_phases(g)
        every = np.arange(len(lp.keys))
        least, partner = lp.inverse_pairs
        neg = lp.negations(every)
        assert np.array_equal(least, every[every <= neg]), g.name
        assert np.array_equal(partner, neg[least]), g.name
        assert sorted(set(least.tolist()) | set(partner.tolist())) == every.tolist(), g.name
        assert not least.flags.writeable and not partner.flags.writeable, g.name
        assert lp.inverse_pairs[0] is least, g.name
    monkeypatch.setattr(harmonic.LinearPhases, "negations", None)     # a call would raise
    g = cyclic_group(360)
    linear_phases(g).inverse_pairs
    mags = spectra.FourierMagnitudes(GroupSubset.from_indices(g, [359, 0, 1, 7]))
    assert np.array_equal(mags.estimates, mags.estimates[linear_phases(g)._negations])


def test_phase_block_reduces_in_place_through_one_quotient_buffer():
    """C360's block of every character at the least element of each inverse
    pair, 360 x 181: the int32 sum and one quotient buffer reduce it mod e in
    place, and the quotient is freed before the int64 copy, so the traced peak
    stays within the int32 sum and the int64 output, 12 bytes an entry; with
    the quotient alive through the copy it would be 16."""
    g = cyclic_group(360)
    lp = linear_phases(g)
    cols = np.arange(181)
    lp.block(None, cols)
    tracemalloc.start()
    try:
        out = lp.block(None, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lp._key_terms.dtype == np.int32
    assert out.shape == (360, 181) and out.dtype == np.int64
    assert np.array_equal(out, (lp.coords[cols] @ lp.keys.T % 360).T)
    assert peak <= 12 * out.size + 8 * 1024


def test_linear_phases_find_refuses_a_row_that_is_no_key():
    """In C2 x C4 the chain takes (0, 1) of order 4, then (1, 0) of order 2,
    whose phase over e = 4 is 0 or 2: a row with an odd second entry is no key."""
    g = product_group([cyclic_group(2), cyclic_group(4)])
    lp = linear_phases(g)
    assert lp.exponent == 4 and lp.radices.tolist() == [4, 2]
    rows = {tuple(k) for k in lp.keys.tolist()}
    misses = [(a, b) for a in range(4) for b in range(4) if (a, b) not in rows]
    assert len(misses) == 16 - len(rows) > 0
    for row in misses:
        with pytest.raises(KeyError, match="no linear character"):
            lp.find(np.array([row]))


def test_linear_phases_compute_no_element_orders():
    g = cyclic_group(768)
    linear_phases(g)
    assert "element_orders" not in g.__dict__


def test_linear_phases_retain_no_phase_matrix():
    g = cyclic_group(4096)
    tracemalloc.start()
    try:
        linear_phases(g)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4 * 2 ** 20      # a 4096 x 4096 int64 phase matrix is 128 MiB
    assert peak < 16 * 2 ** 20         # and the int32 table itself 64 MiB


def test_linear_phases_reject_a_projection_that_is_no_homomorphism(monkeypatch):
    """The images of two elements swapped in the projection onto G^ab:
    linear_phases raises exactly when the n^2 check finds that the coset of a
    product no longer depends on the cosets of its factors alone, so that the
    swapped projection is no homomorphism. An abelian group's cosets are its
    elements, so there a swap only renames two cosets, and Lin(G) is unchanged;
    so is it for two elements of one coset."""
    rng = np.random.default_rng(7)
    c2c4c6 = product_group([cyclic_group(2), cyclic_group(4), cyclic_group(6)])
    outcomes = set()
    cases = [(g, abelianization(g), linear_phases(g)) for g in (
        cyclic_group(12), dihedral_group(16), heisenberg_group(3), c2c4c6, _relabelled(_s4(), 4))]
    for g, ab, want in cases:
        n = len(ab.section)
        pairs = list(itertools.combinations(range(g.order), 2))
        for i in rng.permutation(len(pairs))[:30]:
            p = np.array(ab.projection)
            p[list(pairs[i])] = p[list(pairs[i][::-1])]
            swapped = groups.CosetProjection(p, ab.section)
            monkeypatch.setattr(harmonic, "abelianization", lambda group: swapped)
            g.__dict__.pop("_linear_phases", None)
            factors = (p[:, None] * n + p).ravel()
            homomorphism = (len(np.unique(factors * n + p[g.mul_table].ravel()))
                            == len(np.unique(factors)))
            outcomes.add(homomorphism)
            if homomorphism:
                got = linear_phases(g)
                assert np.array_equal(got.keys, want.keys), g.name
                assert np.array_equal(got.coords, want.coords), g.name
            else:
                with pytest.raises(AssertionError, match="not a homomorphism"):
                    linear_phases(g)
    assert outcomes == {True, False}
