from closeknit.engine import verify_certificate
from closeknit.galois import solve_galois
from closeknit.groups import (GroupInstance, PermGroup, all_subgroups,
                              conjugate_action, subgroup_from_perms)
from closeknit.oracle import feasible_set

S3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
S4 = PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])


def inner_gamma(g):
    return [list(p) for p in g.generators]


def is_normal_in_ambient(h, g):
    return all(conjugate_action(p, h) == h for p in g.elements)


def test_trivial_gamma_returns_seed():
    seed = subgroup_from_perms(S3, [[1, 0, 2]])
    cert, desc = solve_galois(GroupInstance(S3, [seed], []))
    assert cert.invariant_element == seed
    assert desc["per_family"] == [
        {"a": 0, "stabilizer_order": 2, "index_in_stabilizer": 1,
         "index_in_h": 1}]


def test_s3_inner_single_order2_seed():
    seed = subgroup_from_perms(S3, [[1, 0, 2]])
    inst = GroupInstance(S3, [seed], inner_gamma(S3))
    cert, desc = solve_galois(inst)
    h = cert.invariant_element
    assert len(h) == 1
    assert is_normal_in_ambient(h, S3)
    # Confirmed against the full subgroup list: the only normal subgroup
    # commensurable within the certificate bound.
    assert h in feasible_set(inst, cert.bound)


def test_s4_sylow2_instance():
    subs = all_subgroups(S4)
    sylow = next(s for s in subs if len(s) == 8)
    inst = GroupInstance(S4, [sylow], inner_gamma(S4))
    cert, desc = solve_galois(inst)
    h = cert.invariant_element
    klein = subgroup_from_perms(S4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert h == klein
    assert is_normal_in_ambient(h, S4)
    assert desc["h_order"] == 4
    assert desc["index_of_h"] == 6
    assert all(row["index_in_stabilizer"] == 2 for row in desc["per_family"])
    assert all(row["index_in_h"] == 1 for row in desc["per_family"])
    assert desc["family_uniform_index_bound"] == 2
    assert h in feasible_set(inst, cert.bound)
    assert verify_certificate(inst, cert)


def test_descriptor_mentions_fixed_field():
    seed = subgroup_from_perms(S3, [[1, 0, 2]])
    _, desc = solve_galois(GroupInstance(S3, [seed], []))
    assert "Fix(H)" in desc["fixed_field"]
    assert "closed" in desc
