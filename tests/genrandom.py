"""Random concrete instances for the randomized agreement checks.

Family sizes are rejection-capped so the proof route's subset
enumeration stays small.
"""

from __future__ import annotations

import random
from typing import List

from closeknit.groups import GroupInstance, PermGroup, closure
from closeknit.sets import FiniteSubset, SetInstance
from closeknit.vect import SubspaceBasis, VectorInstance, matrix_rank

MAX_FAMILY = 10


def random_permutation(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_set_instance(rng: random.Random) -> SetInstance:
    while True:
        n = rng.randint(2, 7)
        seeds = [FiniteSubset(n, rng.getrandbits(n))
                 for _ in range(rng.randint(1, 3))]
        gamma = [random_permutation(rng, n) for _ in range(rng.randint(0, 2))]
        inst = SetInstance(n, seeds, gamma)
        if len(inst.family) <= MAX_FAMILY:
            return inst


_GROUP_POOL = None


def _group_pool() -> List[PermGroup]:
    global _GROUP_POOL
    if _GROUP_POOL is None:
        _GROUP_POOL = [
            PermGroup(3, [[1, 0, 2], [1, 2, 0]]),            # S3
            PermGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]]),      # D4
            PermGroup(4, [[1, 2, 0, 3], [0, 2, 3, 1]]),      # A4
            PermGroup(4, [[1, 0, 3, 2], [2, 3, 0, 1]]),      # V4
            PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]]),      # S4
        ]
    return _GROUP_POOL


def random_group_instance(rng: random.Random) -> GroupInstance:
    while True:
        ambient = rng.choice(_group_pool())
        seeds = []
        for _ in range(rng.randint(1, 2)):
            picks = [rng.randrange(len(ambient))
                     for _ in range(rng.randint(0, 2))]
            seeds.append(closure(picks, ambient))
        # Conjugation by ambient elements always normalizes.
        gamma = [list(ambient.elements[rng.randrange(len(ambient))])
                 for _ in range(rng.randint(0, 2))]
        inst = GroupInstance(ambient, seeds, gamma)
        if len(inst.family) <= MAX_FAMILY:
            return inst


def random_invertible(rng: random.Random, p: int, dim: int) -> List[List[int]]:
    while True:
        m = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if matrix_rank(m, p, dim) == dim:
            return m


def random_subspace(rng: random.Random, p: int, dim: int) -> SubspaceBasis:
    count = rng.randint(0, dim)
    vecs = [[rng.randrange(p) for _ in range(dim)] for _ in range(count)]
    return SubspaceBasis.from_vectors(p, dim, vecs)


def random_vector_instance(rng: random.Random) -> VectorInstance:
    while True:
        p = rng.choice([2, 3])
        dim = rng.randint(2, 3)
        seeds = [random_subspace(rng, p, dim)
                 for _ in range(rng.randint(1, 2))]
        gamma = [random_invertible(rng, p, dim)
                 for _ in range(rng.randint(0, 2))]
        inst = VectorInstance(p, dim, seeds, gamma)
        if len(inst.family) <= MAX_FAMILY:
            return inst


def random_concrete_instance(rng: random.Random):
    kind = rng.choice(["set", "group", "vector"])
    if kind == "set":
        return random_set_instance(rng)
    if kind == "group":
        return random_group_instance(rng)
    return random_vector_instance(rng)


def symmetric_group(degree: int) -> PermGroup:
    """Sym(degree) from a transposition and a full cycle."""
    swap = [1, 0] + list(range(2, degree))
    cycle = list(range(1, degree)) + [0]
    return PermGroup(degree, [swap, cycle])


def random_subgroup_gens(rng: random.Random, ambient: PermGroup) -> List[int]:
    """Zero to two random element indices, as generators of a subgroup."""
    return [rng.randrange(len(ambient)) for _ in range(rng.randint(0, 2))]
