import random

import pytest

from closeknit.engine import solve
from closeknit.errors import InvalidAction
from closeknit.groups import (GroupInstance, PermGroup, Subgroup, closure,
                              conjugate_action, coset_representatives,
                              increment_group, index_of, is_subgroup,
                              normalizes, product_set, subgroup_from_perms)
from closeknit.oracle import all_subgroups
from tests.genrandom import random_subgroup_gens, symmetric_group
from tests.oracles import (bfs_closure, brute_is_subgroup, brute_normalizes,
                           brute_product_set, coset_count_index,
                           increment_group_unoptimized)

S3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
S4 = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])


def sub(g, *perms):
    return subgroup_from_perms(g, list(perms))


def test_perm_group_enumeration():
    assert len(S3) == 6
    assert S3.elements[0] == (0, 1, 2)
    assert len(S4) == 24


def test_closure_examples():
    assert len(closure([], S3)) == 1
    swap = S3.index[(1, 0, 2)]
    assert closure([swap], S3).members == frozenset({0, swap})
    other = S3.index[(2, 1, 0)]
    assert len(closure([swap, other], S3)) == 6


def test_index_of_examples():
    whole = Subgroup(S3, frozenset(range(6)))
    two = sub(S3, [1, 0, 2])
    trivial = closure([], S3)
    assert index_of(two, whole) == 1
    assert index_of(whole, two) == 3
    assert index_of(two, trivial) == 2


def test_lagrange_consistency():
    # Lagrange's |s| / |s meet t| against counting the cosets themselves.
    subs = all_subgroups(S4)
    rng = random.Random(7)
    for _ in range(50):
        s = rng.choice(subs)
        t = rng.choice(subs)
        assert index_of(s, t) == coset_count_index(s, t)


def test_product_set_examples():
    two_12 = sub(S3, [1, 0, 2])
    two_13 = sub(S3, [2, 1, 0])
    trivial = closure([], S3)
    assert product_set(trivial, two_13) == two_13.members
    prod = product_set(two_12, two_13)
    assert len(prod) == 4
    # Hand-listed products: e, (13), (12), (132).
    perms = {S3.elements[i] for i in prod}
    assert perms == {(0, 1, 2), (2, 1, 0), (1, 0, 2), (2, 0, 1)}
    assert product_set(two_12, trivial) == two_12.members


def test_increment_examples():
    two_12 = sub(S3, [1, 0, 2])
    two_13 = sub(S3, [2, 1, 0])
    # (SF)^(12) intersected with SF collapses back to S.
    assert increment_group(two_12, two_13) == two_12
    assert increment_group(two_12, two_12) == two_12
    whole = Subgroup(S3, frozenset(range(6)))
    trivial = closure([], S3)
    assert increment_group(trivial, whole) == whole


def test_increment_when_contained():
    # S <= F collapses SF to F and every conjugate fixes it.
    for g in (S3, S4):
        subs = all_subgroups(g)
        for s in subs:
            for f in subs:
                if f.contains(s):
                    assert increment_group(s, f) == f


def test_increment_matches_unoptimized_exhaustive():
    # Representative optimization against the full intersection, over
    # every subgroup pair of all four benchmark groups.
    groups = [S3, S4,
              PermGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]]),   # D4
              PermGroup(4, [[1, 2, 0, 3], [0, 2, 3, 1]])]   # A4
    for g in groups:
        subs = all_subgroups(g)
        for s in subs:
            for f in subs:
                assert increment_group(s, f).members == \
                    increment_group_unoptimized(s, f)


def test_coset_representatives_cover():
    subs = all_subgroups(S4)
    rng = random.Random(5)
    for _ in range(25):
        s, f = rng.choice(subs), rng.choice(subs)
        core = s.members & f.members
        reps = coset_representatives(s, core)
        assert len(reps) == index_of(s, f)
        covered = set()
        for r in reps:
            covered |= {S4.mult(h, r) for h in core}
        assert covered == s.members


def test_increment_matches_unoptimized_exhaustive_s4_six():
    # The pair of distinct order-6 subgroups is exactly where a wrong
    # coset side shows: representatives must absorb core factors.
    subs = [s for s in all_subgroups(S4) if len(s) == 6]
    for s in subs:
        for f in subs:
            assert increment_group(s, f).members == \
                increment_group_unoptimized(s, f)


def test_conjugate_action_examples():
    two_12 = sub(S3, [1, 0, 2])
    ident = [0, 1, 2]
    assert conjugate_action(ident, two_12) == two_12
    rotated = conjugate_action([1, 2, 0], two_12)
    assert rotated == sub(S3, [0, 2, 1])  # transposition swapping points 1,2


def test_conjugate_action_requires_normalizing():
    # Ambient <(01)> in degree 3; conjugating by (12) sends (01) to (02),
    # which leaves the ambient element set.
    c2 = PermGroup(3, [[1, 0, 2]])
    whole = Subgroup(c2, frozenset(range(2)))
    with pytest.raises(InvalidAction):
        conjugate_action([0, 2, 1], whole)
    with pytest.raises(InvalidAction):
        GroupInstance(c2, [whole], [[0, 2, 1]])


def test_orbit_of_conjugates_and_solve():
    seed = sub(S3, [1, 0, 2])
    inst = GroupInstance(S3, [seed], [[1, 2, 0]])
    assert len(inst.family) == 3
    # Cross-check against the enumerated subgroup list.
    order_two = {s.members for s in all_subgroups(S3) if len(s) == 2}
    assert {f.members for f in inst.family} == order_two
    cert = solve(inst, mode="both")
    n = cert.invariant_element
    assert len(n) == 1
    assert cert.mode_agreement is True
    assert all(m["forward"] == 1 and m["backward"] == 2 for m in cert.measures)


def test_validate_conditions_group_instance():
    from closeknit.engine import validate_conditions
    seed = sub(S3, [1, 0, 2])
    inst = GroupInstance(S3, [seed], [[1, 2, 0]])
    report = validate_conditions(inst, samples=300)
    assert report.ok


def test_index_monotone_exhaustive_s3_s4():
    # Containment never increases the index onto any third subgroup.
    for g in (S3, S4):
        subs = all_subgroups(g)
        for t in subs:
            for s in subs:
                if not s.contains(t):
                    continue
                for f in subs:
                    assert index_of(t, f) <= index_of(s, f)


def test_condition_three_lemma_sampled():
    # Equal index onto F forces equal increments (full sweep in acceptance).
    subs = all_subgroups(S4)
    rng = random.Random(11)
    for _ in range(80):
        s = rng.choice(subs)
        t = rng.choice(subs)
        f = rng.choice(subs)
        if not s.contains(t):
            continue
        if index_of(t, f) == index_of(s, f):
            assert increment_group(t, f) == increment_group(s, f)


def test_condition_three_lemma_sampled_order_48():
    # S4 x C2 acting on 6 points has order 48; sampled pairs only.
    g48 = PermGroup(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5],
                        [0, 1, 2, 3, 5, 4]])
    assert len(g48) == 48
    rng = random.Random(23)
    subs = []
    for _ in range(40):
        picks = [rng.randrange(48) for _ in range(rng.randint(0, 2))]
        subs.append(closure(picks, g48))
    for _ in range(120):
        s, t, f = rng.choice(subs), rng.choice(subs), rng.choice(subs)
        if not s.contains(t):
            continue
        if index_of(t, f) == index_of(s, f):
            assert increment_group(t, f) == increment_group(s, f)


# -- kernel against the brute-force oracles ----------------------------------

def test_kernel_matches_oracles_on_every_s4_subgroup_pair():
    subs = all_subgroups(S4)
    for s in subs:
        assert closure(s.members, S4).members == s.members
        assert is_subgroup(S4, s.members)
        for t in subs:
            union = s.members | t.members
            assert closure(union, S4).members == bfs_closure(union, S4)
            assert is_subgroup(S4, union) == brute_is_subgroup(S4, union)
            assert index_of(s, t) == coset_count_index(s, t)
            assert product_set(s, t) == brute_product_set(s, t)
            assert increment_group(s, t).members == \
                increment_group_unoptimized(s, t)


def test_is_subgroup_matches_oracle_on_non_subgroups():
    rng = random.Random(3)
    for _ in range(200):
        members = frozenset(rng.sample(range(24), rng.randint(1, 12)))
        for cand in (members, members | {0}):
            assert is_subgroup(S4, cand) == brute_is_subgroup(S4, cand)


def test_normalizes_matches_oracle_on_s4_subgroups():
    # Every subgroup of S4 as an ambient group, against every permutation
    # of degree 4: both outcomes occur.
    outcomes = set()
    for s in all_subgroups(S4):
        ambient = PermGroup(4, s.perms())
        for gamma in S4.elements:
            got = normalizes(gamma, ambient)
            assert got == brute_normalizes(gamma, ambient)
            outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("degree,count", [(5, 40), (6, 30)])
def test_kernel_matches_oracles_on_random_subgroups(degree, count):
    ambient = symmetric_group(degree)
    rng = random.Random(100 + degree)
    subs = []
    for _ in range(count):
        gens = random_subgroup_gens(rng, ambient)
        sub_ = closure(gens, ambient)
        assert sub_.members == bfs_closure(gens, ambient)
        subs.append(sub_)
    assert len({len(x) for x in subs}) > 5
    for _ in range(count):
        s, t = rng.choice(subs), rng.choice(subs)
        assert index_of(s, t) == coset_count_index(s, t)
        assert product_set(s, t) == brute_product_set(s, t)
        # The oracles below cost |s|^2 products or more.
        if len(s) <= 120:
            assert increment_group(s, t).members == \
                increment_group_unoptimized(s, t)
        union = s.members | t.members
        if len(union) <= 120:
            assert is_subgroup(ambient, union) == \
                brute_is_subgroup(ambient, union)
        gamma = ambient.elements[rng.randrange(len(ambient))]
        inner = PermGroup(degree, s.perms())
        assert normalizes(gamma, inner) == brute_normalizes(gamma, inner)


def test_order_and_index_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_order(sub_):
        perms = [combinatorics.Permutation(list(p)) for p in sub_.perms()]
        return combinatorics.PermutationGroup(perms).order()

    rng = random.Random(29)
    for degree in (4, 5, 6):
        ambient = symmetric_group(degree)
        whole = Subgroup(ambient, frozenset(range(len(ambient))))
        assert len(ambient) == sympy_order(whole)
        subs = [closure(random_subgroup_gens(rng, ambient), ambient)
                for _ in range(6)]
        orders = [sympy_order(s) for s in subs]
        assert [len(s) for s in subs] == orders
        for s, order in zip(subs, orders):
            assert index_of(whole, s) == len(ambient) // order
            for t in subs:
                assert index_of(s, t) == order // sympy_order(s.intersect(t))
