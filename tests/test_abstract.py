import random

import pytest

from closeknit.abstract import AbstractLattice
from closeknit.engine import solve, validate_conditions, verify_certificate
from closeknit.errors import (AssociativityViolation, EquivarianceViolation,
                              IncrementViolation, MonotonicityViolation,
                              StructureMismatch)
from closeknit.groups import all_subgroups
from closeknit.indexposet import nat
from closeknit.oracle import feasible_set
from closeknit.sets import FiniteSubset, SetInstance
from tests.genrandom import random_valid_instance
from tests.oracles import abstract_from_dict, tabulate_instance


def chain2(increments, delta=((1,), (1,)), family=(1,)):
    return {
        "size": 2,
        "meet_table": [[0, 0], [0, 1]],
        "family": list(family),
        "delta_table": [[list(delta[0])], [list(delta[1])]],
        "increment_table": [[increments[0]], [increments[1]]],
        "gamma": [],
    }


def test_two_chain_loads_and_solves_top():
    inst = abstract_from_dict(chain2((1, 1)))
    cert = solve(inst, mode="both")
    assert cert.invariant_element == 1
    assert cert.gamma_fixed
    assert cert.mode_agreement is True
    assert verify_certificate(inst, cert)


def test_output_may_exceed_family_join():
    # Family is just the bottom element but both increments point at the
    # top, so the answer leaps past the family join; certificates must
    # still verify (tabular instances carry no upper sandwich bound).
    inst = abstract_from_dict({
        "size": 2, "meet_table": [[0, 0], [0, 1]], "family": [0],
        "delta_table": [[[0]], [[0]]], "increment_table": [[1], [1]],
        "gamma": []})
    cert = solve(inst, mode="both")
    assert cert.invariant_element == 1
    assert cert.mode_agreement is True
    assert inst.join_span() is None
    assert verify_certificate(inst, cert)


def test_increment_violation_equal_delta_different_increments():
    with pytest.raises(IncrementViolation):
        abstract_from_dict(chain2((0, 1)))


def test_increment_violation_not_growing():
    bad = chain2((1, 1))
    bad["increment_table"] = [[1], [0]]  # top mapped below itself
    with pytest.raises(IncrementViolation):
        abstract_from_dict(bad)


def test_monotonicity_violation():
    bad = chain2((1, 1), delta=((1,), (0,)))  # bottom farther than top
    with pytest.raises(MonotonicityViolation):
        abstract_from_dict(bad)


def test_associativity_violation():
    bad = {
        "size": 3,
        # Not commutative: meet(1,2)=1 but meet(2,1)=2.
        "meet_table": [[0, 0, 0], [0, 1, 1], [0, 2, 2]],
        "family": [1],
        "delta_table": [[[0]], [[0]], [[0]]],
        "increment_table": [[1], [1], [2]],
        "gamma": [],
    }
    with pytest.raises(AssociativityViolation):
        abstract_from_dict(bad)


def test_equivariance_violations():
    description = chain2((1, 1))
    description["gamma"] = [[1, 0]]  # swaps bottom and top: not an automorphism
    with pytest.raises(EquivarianceViolation):
        abstract_from_dict(description)


def test_gamma_must_be_permutation():
    description = chain2((1, 1))
    description["gamma"] = [[0, 0]]
    with pytest.raises(StructureMismatch):
        abstract_from_dict(description)


def test_diamond_example_solves_gamma_fixed():
    inst = abstract_from_dict({
        "size": 4,
        "meet_table": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        "family": [1, 2],
        "delta_table": [[[0], [0]], [[0], [1]], [[1], [0]], [[1], [1]]],
        "increment_table": [[1, 2], [1, 3], [3, 2], [3, 3]],
        "gamma": [[0, 2, 1, 3]],
    })
    cert = solve(inst, mode="both")
    fixed_points = feasible_set(inst, None)
    assert fixed_points == [0, 3]  # brute force over all four elements
    assert cert.invariant_element in fixed_points
    assert cert.invariant_element == 0  # the meet-of-family route lands at bottom
    assert cert.mode_agreement is True


def test_duplicate_family_entries_must_agree():
    description = chain2((1, 1), family=(1, 1))
    description["delta_table"] = [[[1], [0]], [[1], [1]]]
    description["increment_table"] = [[1, 1], [1, 1]]
    with pytest.raises(Exception):
        abstract_from_dict(description)


def test_consistent_duplicates_load_and_dedupe():
    description = chain2((1, 1), family=(1, 1))
    description["delta_table"] = [[[1], [1]], [[1], [1]]]
    description["increment_table"] = [[1, 1], [1, 1]]
    inst = abstract_from_dict(description)
    assert len(inst.family) == 1
    assert solve(inst).invariant_element == 1


def test_validate_conditions_on_loaded_instance():
    inst = abstract_from_dict(chain2((1, 1)))
    report = validate_conditions(inst)
    assert report.ok


def test_validate_conditions_reports_broken_increment_as_data():
    # Bypass load-time validation to exercise the reporting path.
    from closeknit.abstract import AbstractInstance
    from closeknit.indexposet import nat
    lat = AbstractLattice(
        size=2, meet_table=[[0, 0], [0, 1]], family=[1],
        delta_table=[[nat(1)], [nat(1)]],
        increment_table=[[0], [1]], gamma=[])
    report = validate_conditions(AbstractInstance(lat))
    kinds = {v["condition"] for v in report.violations}
    assert "increment-collapse" in kinds


def test_random_valid_instances_solve_to_fixed_points():
    rng = random.Random(20240917)
    for _ in range(40):
        inst = random_valid_instance(rng)
        assert inst.lattice.size <= 12
        assert len(inst.family) <= 6
        cert = solve(inst, mode="both")
        assert cert.mode_agreement is True
        fixed = feasible_set(inst, None)
        assert cert.invariant_element in fixed


def test_random_instances_have_nontrivial_shapes():
    rng = random.Random(7)
    sizes = set()
    families = set()
    for _ in range(60):
        inst = random_valid_instance(rng)
        sizes.add(inst.lattice.size)
        families.add(len(inst.family))
    assert len(sizes) > 2
    assert max(families) >= 2


def test_tabulation_roundtrip_sets():
    inst = SetInstance(4, [FiniteSubset.from_members(4, [0, 1])],
                       [[1, 0, 2, 3]])
    elements = [FiniteSubset(4, bits) for bits in range(16)]
    tab = tabulate_instance(inst, elements)
    cert_c = solve(inst, mode="both")
    cert_a = solve(tab, mode="both")
    assert tab.element_json(cert_a.invariant_element) == \
        elements.index(cert_c.invariant_element)


def test_tabulation_roundtrip_groups():
    from closeknit.groups import GroupInstance, PermGroup, subgroup_from_perms
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    seed = subgroup_from_perms(s3, [[1, 0, 2]])
    inst = GroupInstance(s3, [seed], [[1, 2, 0]])
    elements = all_subgroups(s3)
    tab = tabulate_instance(inst, elements)
    cert_c = solve(inst, mode="both")
    cert_a = solve(tab, mode="both")
    assert elements[cert_a.invariant_element] == cert_c.invariant_element


def test_tabulation_roundtrip_vector():
    from closeknit.vect import all_subspaces
    from closeknit.vect import SubspaceBasis, VectorInstance
    inst = VectorInstance(
        2, 2, [SubspaceBasis.from_vectors(2, 2, [[1, 0]])],
        [[[0, 1], [1, 0]]])
    elements = all_subspaces(2, 2)
    tab = tabulate_instance(inst, elements)
    cert_c = solve(inst, mode="both")
    cert_a = solve(tab, mode="both")
    assert elements[cert_a.invariant_element] == cert_c.invariant_element
