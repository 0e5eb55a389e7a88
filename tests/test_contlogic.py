import random
from fractions import Fraction

import pytest

from closeknit.contlogic import (MetricStructure, delta_phi_n_group,
                                 delta_phi_n_set, delta_phi_n_vect,
                                 discrete_reduction)
from closeknit.errors import (ContractViolation, EnumerationCapExceeded,
                              StructureMismatch)
from closeknit.groups import PermGroup, all_subgroups, subgroup_from_perms
from closeknit.sets import FiniteSubset
from closeknit.vect import SubspaceBasis, all_subspaces
from tests.oracles import (delta_tuple, naive_delta_group, naive_delta_set,
                           naive_delta_vect, structure_from_group,
                           structure_from_sets, structure_from_subspaces,
                           subgroup_points, subspace_points)

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


def test_structure_validation():
    with pytest.raises(StructureMismatch):
        MetricStructure(2, [[0, 1], [1, HALF]], {"phi": [[1], [1]]})
    with pytest.raises(StructureMismatch):
        MetricStructure(2, [[0, 1], [HALF, 0]], {"phi": [[1], [1]]})
    with pytest.raises(StructureMismatch):  # triangle: d(0,2) > d(0,1)+d(1,2)
        MetricStructure(
            3, [[0, ONE, HALF], [ONE, 0, Fraction(1, 4)],
                [HALF, Fraction(1, 4), 0]],
            {"phi": [[1], [1], [1]]})
    with pytest.raises(StructureMismatch):
        MetricStructure(2, [[0, 2], [2, 0]], {"phi": [[1], [1]]})


def test_max_closure_on_load():
    ms = MetricStructure(
        2, [[0, 1], [1, 0]],
        {"a": [[ONE], [ZERO]], "b": [[ZERO], [ONE]]})
    assert "max(a,b)" in ms.formulas
    assert ms.formulas["max(a,b)"] == [[ONE], [ONE]]


def test_set_values_zero_and_empty():
    f = FiniteSubset.from_members(4, [2, 3])
    ms = structure_from_sets(4, [f])
    assert delta_phi_n_set(ms, [1, 2], 0, None, "phi", 0) == ONE
    assert delta_phi_n_set(ms, [1, 2], 0, None, "phi", 1) == ONE
    assert delta_phi_n_set(ms, [1, 2], 0, None, "phi", 2) == ZERO
    assert delta_phi_n_set(ms, [], 0, None, "phi", 1) == ZERO


def test_group_values_spec_example():
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    sub = subgroup_from_perms(s3, [[1, 0, 2]])
    ms = structure_from_group(s3, [sub])
    pts = list(range(6))
    assert delta_phi_n_group(ms, pts, 0, None, "phi", 1) == ONE
    assert delta_phi_n_group(ms, pts, 0, None, "phi", 3) == ONE
    assert delta_phi_n_group(ms, pts, 0, None, "phi", 4) == ZERO
    # S inside F with a formula vanishing on F: quotients stay inside.
    assert delta_phi_n_group(ms, subgroup_points(sub), 0, None, "phi", 2) == ZERO


def test_group_requires_group_block():
    ms = structure_from_sets(3, [FiniteSubset.from_members(3, [0])])
    with pytest.raises(StructureMismatch):
        delta_phi_n_group(ms, [0, 1], 0, None, "phi", 2)


def test_vector_values_spec_example():
    line = SubspaceBasis.from_vectors(2, 2, [[1, 0]])
    ms = structure_from_subspaces(2, 2, [line])
    pts = list(range(4))
    assert delta_phi_n_vect(ms, pts, 0, None, "phi", 0) == ONE
    assert delta_phi_n_vect(ms, pts, 0, None, "phi", 1) == ONE
    assert delta_phi_n_vect(ms, pts, 0, None, "phi", 2) == ZERO
    zero_pts = subspace_points(ms, SubspaceBasis.zero(2, 2))
    assert delta_phi_n_vect(ms, zero_pts, 0, None, "phi", 1) == ZERO


def test_vector_enumeration_cap():
    line = SubspaceBasis.from_vectors(2, 2, [[1, 0]])
    ms = structure_from_subspaces(2, 2, [line])
    with pytest.raises(EnumerationCapExceeded):
        delta_phi_n_vect(ms, [0, 1], 0, None, "phi", 3, cap=4)


def _random_structure(rng, k):
    grid = [ZERO, HALF, ONE]
    while True:
        d = [[ZERO] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                d[i][j] = d[j][i] = rng.choice(grid)
        try:
            phi = [[rng.choice(grid)] for _ in range(k)]
            return MetricStructure(k, d, {"phi": phi})
        except StructureMismatch:
            continue


def test_set_evaluator_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(40):
        k = rng.randint(1, 4)
        ms = _random_structure(rng, k)
        pts = [x for x in range(k) if rng.random() < 0.7]
        gamma = list(range(k))
        rng.shuffle(gamma)
        for n in range(4):
            assert delta_phi_n_set(ms, pts, 0, gamma, "phi", n) == \
                naive_delta_set(ms, pts, 0, gamma, "phi", n)


def test_group_evaluator_matches_naive_oracle():
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    subs = all_subgroups(s3)
    rng = random.Random(5)
    for sub in subs:
        ms = structure_from_group(s3, [sub])
        pts = sorted(rng.sample(range(6), rng.randint(0, 6)))
        for n in range(4):
            assert delta_phi_n_group(ms, pts, 0, None, "phi", n) == \
                naive_delta_group(ms, pts, 0, None, "phi", n)


def test_vector_evaluator_matches_naive_oracle():
    for sub in all_subspaces(2, 2):
        ms = structure_from_subspaces(2, 2, [sub])
        for pts in ([], [0], [0, 1, 2, 3], [1, 3]):
            for n in range(4):
                assert delta_phi_n_vect(ms, pts, 0, None, "phi", n) == \
                    naive_delta_vect(ms, pts, 0, None, "phi", n)


def test_vector_evaluator_matches_naive_oracle_p3():
    rng = random.Random(31)
    for sub in all_subspaces(3, 2):
        ms = structure_from_subspaces(3, 2, [sub])
        pts = sorted(rng.sample(range(9), rng.randint(0, 5)))
        for n in range(3):
            assert delta_phi_n_vect(ms, pts, 0, None, "phi", n) == \
                naive_delta_vect(ms, pts, 0, None, "phi", n)


def _z2_cubed_structure(rng):
    """Z_2^3 on eight points, both as a group (xor) and as F_2^3, under the
    Hamming metric scaled by 1/3 and two random two-parameter formulas."""
    grid = [ZERO, Fraction(1, 3), HALF, ONE]
    d = [[Fraction(bin(x ^ y).count("1"), 3) for y in range(8)] for x in range(8)]
    formulas = {name: [[rng.choice(grid) for _ in range(2)] for _ in range(8)]
                for name in ("f", "g")}
    return MetricStructure(8, d, formulas,
                           mult_table=[[x ^ y for y in range(8)] for x in range(8)],
                           p=2, coords=[[(x >> b) & 1 for b in range(3)]
                                        for x in range(8)])


def test_group_and_vector_evaluators_match_naive_oracle_with_gamma():
    rng = random.Random(2024)
    for _ in range(6):
        ms = _z2_cubed_structure(rng)
        gamma = list(range(8))
        rng.shuffle(gamma)
        pts = sorted(rng.sample(range(8), rng.randint(0, 5)))
        for phi in sorted(ms.formulas):
            for a in range(2):
                for n in range(4):
                    assert delta_phi_n_group(ms, pts, a, gamma, phi, n) == \
                        naive_delta_group(ms, pts, a, gamma, phi, n)
                    assert delta_phi_n_vect(ms, pts, a, gamma, phi, n) == \
                        naive_delta_vect(ms, pts, a, gamma, phi, n)


def test_group_evaluator_matches_naive_oracle_with_gamma_non_abelian():
    # In S3 the quotient x_i^-1 x_j depends on the order of the pair.
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    rng = random.Random(17)
    for sub in all_subgroups(s3):
        ms = structure_from_group(s3, [sub])
        gamma = list(range(6))
        rng.shuffle(gamma)
        pts = sorted(rng.sample(range(6), rng.randint(0, 6)))
        for n in range(4):
            assert delta_phi_n_group(ms, pts, 0, gamma, "phi", n) == \
                naive_delta_group(ms, pts, 0, gamma, "phi", n)


def test_gamma_argument_matches_preclosed_family():
    # Applying the bijection inside the formula equals evaluating the
    # translated subset against the same parameter.
    f = FiniteSubset.from_members(4, [1, 2])
    ms = structure_from_sets(4, [f])
    gamma = [1, 2, 3, 0]
    inv = [3, 0, 1, 2]
    s = [0, 1]
    for n in range(4):
        direct = delta_phi_n_set(ms, s, 0, gamma, "phi", n)
        translated = delta_phi_n_set(ms, [inv[x] for x in s], 0, None, "phi", n)
        assert direct == translated


def test_reduction_examples():
    f = FiniteSubset.from_members(4, [2, 3])
    ms = structure_from_sets(4, [f])
    assert discrete_reduction(ms, "set", [1, 2], 0) == 1

    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    sub = subgroup_from_perms(s3, [[1, 0, 2]])
    gms = structure_from_group(s3, [sub])
    assert discrete_reduction(gms, "group", list(range(6)), 0) == 3

    line = SubspaceBasis.from_vectors(2, 2, [[1, 0]])
    vms = structure_from_subspaces(2, 2, [line])
    assert discrete_reduction(vms, "vector", list(range(4)), 0) == 1


def test_reduction_requires_discrete_data():
    ms = MetricStructure(2, [[0, HALF], [HALF, 0]], {"phi": [[1], [0]]})
    with pytest.raises(ContractViolation):
        discrete_reduction(ms, "set", [0, 1], 0)
    ms2 = MetricStructure(2, [[0, 1], [1, 0]], {"phi": [[HALF], [0]]})
    with pytest.raises(ContractViolation):
        discrete_reduction(ms2, "set", [0, 1], 0)


def test_monotone_in_s_and_antitone_in_n_small():
    rng = random.Random(13)
    for _ in range(25):
        k = rng.randint(1, 4)
        ms = _random_structure(rng, k)
        values = {}
        for mask in range(1 << k):
            pts = [x for x in range(k) if (mask >> x) & 1]
            values[mask] = [delta_phi_n_set(ms, pts, 0, None, "phi", n)
                            for n in range(5)]
        for mask in range(1 << k):
            for x in range(k):
                if not (mask >> x) & 1:
                    bigger = mask | (1 << x)
                    assert all(a <= b for a, b in
                               zip(values[mask], values[bigger]))
            vs = values[mask]
            assert all(vs[n + 1] <= vs[n] for n in range(4))


def test_delta_tuple_shape():
    f = FiniteSubset.from_members(3, [0])
    ms = structure_from_sets(3, [f])
    iv = delta_tuple(ms, "set", [0, 1], 0, n_max=3)
    assert len(iv.coords) == 4 * len(ms.formulas)
    assert iv.shape == (4 * len(ms.formulas), Fraction)
