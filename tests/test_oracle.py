import pytest

from closeknit.engine import Instance, solve
from closeknit.errors import ContractViolation, EnumerationCapExceeded
from closeknit.groups import (GroupInstance, PermGroup, all_subgroups,
                              subgroup_from_perms)
from closeknit.oracle import feasible_set
from closeknit.sets import FiniteSubset, SetInstance, invariant_subsets
from closeknit.vect import VectorInstance, SubspaceBasis, all_subspaces


def test_invariant_subsets_trivial_gamma():
    assert len(invariant_subsets(3, [])) == 8


def test_invariant_subsets_full_symmetric():
    gens = [[1, 0, 2], [1, 2, 0]]
    subs = invariant_subsets(3, gens)
    assert sorted(s.bits for s in subs) == [0, 7]


def test_invariant_subsets_single_swap():
    subs = invariant_subsets(6, [[3, 1, 2, 0, 4, 5]])
    assert len(subs) == 32  # orbits {0,3} plus four singletons


def test_invariant_subsets_caps():
    with pytest.raises(EnumerationCapExceeded):
        invariant_subsets(25, [])


def test_all_subgroups_counts():
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    assert len(all_subgroups(s3)) == 6
    trivial = PermGroup(1, [])
    assert len(all_subgroups(trivial)) == 1
    klein = PermGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert len(all_subgroups(klein)) == 5
    s4 = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    assert len(all_subgroups(s4)) == 30
    d4 = PermGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]])
    assert len(all_subgroups(d4)) == 10
    a4 = PermGroup(4, [[1, 2, 0, 3], [0, 2, 3, 1]])
    assert len(all_subgroups(a4)) == 10


def test_all_subgroups_closed_under_check():
    from closeknit.groups import is_subgroup
    d4 = PermGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]])
    for s in all_subgroups(d4):
        assert is_subgroup(d4, s.members)


def test_all_subgroups_cap():
    s4 = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])
    with pytest.raises(EnumerationCapExceeded):
        all_subgroups(s4, cap=10)


def test_all_subspaces_counts():
    # Gaussian binomials: F2^2 has 5 subspaces, F2^3 has 16, F3^2 has 6.
    assert len(all_subspaces(2, 2)) == 5
    assert len(all_subspaces(2, 3)) == 16
    assert len(all_subspaces(3, 2)) == 6


def test_all_subspaces_cap():
    with pytest.raises(EnumerationCapExceeded):
        all_subspaces(2, 11)


def test_feasible_set_set_example():
    inst = SetInstance(6, [FiniteSubset.from_members(6, [0, 1, 2])],
                       [[3, 1, 2, 0, 4, 5]])
    feas = feasible_set(inst, 1)
    assert FiniteSubset.from_members(6, [1, 2]) in feas


def test_feasible_set_group_bound_two():
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    seed = subgroup_from_perms(s3, [[1, 0, 2]])
    inst = GroupInstance(s3, [seed], [[1, 2, 0]])
    feas = feasible_set(inst, 2)
    trivial = subgroup_from_perms(s3, [])
    a3 = subgroup_from_perms(s3, [[1, 2, 0]])
    assert trivial in feas
    assert a3 not in feas  # index over the trivial intersection is 3


def test_feasible_set_bound_zero():
    inst = SetInstance(4, [FiniteSubset.from_members(4, [0, 1]),
                           FiniteSubset.from_members(4, [1, 2])], [])
    assert feasible_set(inst, 0) == []
    single = SetInstance(4, [FiniteSubset.from_members(4, [0, 1])], [])
    assert feasible_set(single, 0) == [FiniteSubset.from_members(4, [0, 1])]


def test_engine_output_always_feasible():
    inst = VectorInstance(
        2, 3, [SubspaceBasis.from_vectors(2, 3, [[1, 0, 0], [0, 1, 0]])],
        [[[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
    cert = solve(inst)
    assert cert.invariant_element in feasible_set(inst, cert.bound)


def test_candidates_come_from_each_kind():
    # The oracle asks the instance; each concrete kind enumerates itself,
    # and all_elements stays None for all three.
    set_inst = SetInstance(3, [FiniteSubset.from_members(3, [0])], [[1, 2, 0]])
    assert set_inst.all_elements() is None
    assert set_inst.candidates() == invariant_subsets(3, [[1, 2, 0]])
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    group_inst = GroupInstance(s3, [subgroup_from_perms(s3, [[1, 0, 2]])], [])
    assert group_inst.all_elements() is None
    assert group_inst.candidates() == all_subgroups(s3)
    line = SubspaceBasis.from_vectors(2, 2, [[1, 0]])
    vector_inst = VectorInstance(2, 2, [line], [])
    assert vector_inst.all_elements() is None
    assert vector_inst.candidates() == all_subspaces(2, 2)


def test_feasible_set_without_enumerator_raises():
    class Bare(SetInstance):
        kind = "bare"

        def candidates(self):
            return Instance.candidates(self)

    inst = Bare(2, [FiniteSubset.from_members(2, [0])], [])
    with pytest.raises(ContractViolation, match="no enumerator for kind 'bare'"):
        feasible_set(inst, 1)
