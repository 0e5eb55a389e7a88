import random

import pytest

from closeknit.engine import solve, validate_conditions
from closeknit.errors import StructureMismatch
from closeknit.sets import FiniteSubset, SetInstance, measure_set, permuter
from tests.genrandom import random_permutation
from tests.oracles import (bitloop_apply_permutation, bitloop_from_members,
                           bitloop_members)


def fs(n, members):
    return FiniteSubset.from_members(n, members)


def test_measure_examples():
    assert measure_set(fs(4, [0, 1]), fs(4, [0, 1])) == (0, 0)
    assert measure_set(fs(4, [0, 1, 2]), fs(4, [1, 2, 3])) == (1, 1)
    assert measure_set(fs(4, []), fs(4, [0])) == (0, 1)


def test_measure_identity():
    s, t = fs(6, [0, 2, 4]), fs(6, [2, 3, 4, 5])
    assert s.difference_size(t) == len(s) - len(s.intersect(t))


def test_carrier_mismatch():
    with pytest.raises(StructureMismatch):
        fs(3, [0]).intersect(fs(4, [0]))


def test_members_out_of_range():
    with pytest.raises(StructureMismatch):
        fs(3, [3])


def test_carrier_size_cap():
    with pytest.raises(StructureMismatch):
        FiniteSubset(5000, 0)


def test_delta_and_increment():
    inst = SetInstance(4, [fs(4, [0, 2]), fs(4, [1, 2])], [])
    s = fs(4, [0, 2])
    assert inst.delta(s, 0).coords == (0,)          # s inside f_0
    assert inst.delta(s, 1).coords == (1,)          # one member outside f_1
    assert inst.increment(fs(4, [1, 2]), 0) == fs(4, [0, 1, 2])
    assert inst.increment(fs(4, []), 1) == fs(4, [1, 2])
    assert inst.increment(fs(4, [0, 1, 2]), 1) == fs(4, [0, 1, 2])


def test_delta_extremes():
    inst = SetInstance(3, [fs(3, [])], [])
    assert inst.delta(fs(3, [0, 1, 2]), 0).coords == (3,)


def test_permutation_is_lattice_automorphism():
    perm = [2, 0, 1, 3]
    a, b = fs(4, [0, 1]), fs(4, [1, 3])
    assert a.intersect(b).apply_permutation(perm) == \
        a.apply_permutation(perm).intersect(b.apply_permutation(perm))
    assert measure_set(a, b) == measure_set(
        a.apply_permutation(perm), b.apply_permutation(perm))


def test_conditions_hold_exhaustively_small():
    # Every subset pair of a 4-point carrier: monotone delta and the
    # equal-delta increment collapse, checked directly.
    inst = SetInstance(4, [fs(4, [0, 1]), fs(4, [1, 2])], [])
    subsets = [FiniteSubset(4, bits) for bits in range(16)]
    for t in subsets:
        for s in subsets:
            if t.difference_size(s) != 0:
                continue
            for a in range(len(inst.family)):
                assert t.difference_size(inst.family[a]) <= \
                    s.difference_size(inst.family[a])
                if t.difference_size(inst.family[a]) == \
                        s.difference_size(inst.family[a]):
                    assert inst.increment(t, a) == inst.increment(s, a)


def test_validate_conditions_clean():
    inst = SetInstance(
        6, [fs(6, [0, 1, 2])], [[3, 1, 2, 0, 4, 5]])
    report = validate_conditions(inst, samples=1000)
    assert report.ok
    assert report.checked_pairs > 0


def test_moderate_carrier_rotation_orbit():
    # 64-point rotation orbit: closure, solve, and the sandwich, at a
    # size well past the toy examples.
    n = 64
    rotation = [(i + 1) % n for i in range(n)]
    inst = SetInstance(n, [fs(n, [0, 1, 2])], [rotation])
    assert len(inst.family) == n
    cert = solve(inst)
    assert cert.invariant_element == fs(n, [])
    assert cert.gamma_fixed
    assert inst.join_span() == FiniteSubset(n, (1 << n) - 1)


def test_solve_set_worked_example():
    inst = SetInstance(6, [fs(6, [0, 1, 2])], [[3, 1, 2, 0, 4, 5]])
    cert = solve(inst, mode="both")
    assert cert.invariant_element == fs(6, [1, 2])
    assert cert.gamma_fixed
    assert cert.mode_agreement is True
    assert cert.measures == [
        {"a": 0, "forward": 0, "backward": 1},
        {"a": 1, "forward": 0, "backward": 1},
    ]


# -- kernel against the bit-by-bit oracles -----------------------------------

CARRIERS = [0, 1, 2, 63, 64, 65, 1000, 4096]


def _subsets(rng, n):
    """Empty, full, dense random and sparse random bitsets of carrier n."""
    out = [0, (1 << n) - 1]
    for _ in range(3):
        out.append(rng.getrandbits(n) if n else 0)
        out.append(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                   if n else 0)
    return out


def _perms(rng, n):
    return [list(range(n)), list(range(n))[::-1],
            [(i + 1) % n for i in range(n)]] + \
        [random_permutation(rng, n) for _ in range(3)]


@pytest.mark.parametrize("n", CARRIERS)
def test_apply_permutation_matches_bitloop(n):
    rng = random.Random(1000 + n)
    subsets = _subsets(rng, n)
    for perm in _perms(rng, n):
        image = permuter(perm)
        for bits in subsets:
            expected = bitloop_apply_permutation(bits, perm)
            assert image(bits) == expected
            assert FiniteSubset(n, bits).apply_permutation(perm).bits == expected


@pytest.mark.parametrize("n", CARRIERS)
def test_set_instance_act_matches_bitloop(n):
    rng = random.Random(2000 + n)
    perms = _perms(rng, n)
    inst = SetInstance(n, [FiniteSubset(n, 0)], perms)
    for bits in _subsets(rng, n):
        for g, perm in enumerate(perms):
            assert inst.act(g, FiniteSubset(n, bits)).bits == \
                bitloop_apply_permutation(bits, perm)


@pytest.mark.parametrize("n", CARRIERS)
def test_members_matches_bitloop(n):
    rng = random.Random(3000 + n)
    for bits in _subsets(rng, n):
        members = FiniteSubset(n, bits).members()
        assert members == bitloop_members(bits, n)
        assert FiniteSubset.from_members(n, members).bits == bits


@pytest.mark.parametrize("n", CARRIERS)
def test_from_members_matches_bitloop(n):
    rng = random.Random(4000 + n)
    lists = [[], list(range(n))]
    for _ in range(4):
        picks = [rng.randrange(n) for _ in range(rng.randint(1, 50))] if n else []
        lists.append(picks)              # unsorted, with repeats
    for members in lists:
        assert FiniteSubset.from_members(n, iter(members)).bits == \
            bitloop_from_members(n, members)


@pytest.mark.parametrize("members", [[-1], [0, 5], [5, 0, 1]])
def test_from_members_outside_carrier_matches_bitloop(members):
    with pytest.raises(StructureMismatch) as oracle:
        bitloop_from_members(5, members)
    with pytest.raises(StructureMismatch) as kernel:
        FiniteSubset.from_members(5, members)
    assert str(kernel.value) == str(oracle.value)


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [0, -1, 2], [1, 0, -1]])
def test_non_permutation_rejected(perm):
    with pytest.raises(StructureMismatch):
        fs(3, [0, 1]).apply_permutation(perm)
    with pytest.raises(StructureMismatch):
        SetInstance(3, [fs(3, [0])], [perm])


def test_permutation_degree_mismatch():
    with pytest.raises(StructureMismatch, match="degree mismatch"):
        fs(3, [0]).apply_permutation([1, 0])
    with pytest.raises(StructureMismatch):
        SetInstance(3, [fs(3, [0])], [[1, 0]])
