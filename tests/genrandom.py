"""Random concrete instances for the randomized agreement checks.

Family sizes are rejection-capped so the proof route's subset
enumeration stays small.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import List, Tuple

from closeknit.abstract import AbstractInstance, AbstractLattice, load_abstract
from closeknit.errors import ConditionViolation
from closeknit.groups import GroupInstance, PermGroup, closure
from closeknit.indexposet import IndexValue
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


# ---------------------------------------------------------------------------
# Randomized valid instances: down-set lattices of random posets, with a
# symmetry group drawn from the poset automorphisms and counting-based
# distances through a random monotone relabeling.  Two increment flavors:
# plain unions (distances near-injective, a single strong element), and
# per-distance-class joins, which tolerate collapsed distances and
# produce several strong elements, so the descent loop really iterates.
# Candidates that break the equal-distance collapse are rejected.
# ---------------------------------------------------------------------------

def _random_poset(rng: random.Random, n_points: int) -> List[List[bool]]:
    leq = [[i == j for j in range(n_points)] for i in range(n_points)]
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if rng.random() < 0.4:
                leq[i][j] = True
    for k in range(n_points):  # transitive closure
        for i in range(n_points):
            for j in range(n_points):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return leq


def _downset_masks(leq: List[List[bool]]) -> List[int]:
    n = len(leq)
    below = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
    masks = []
    for mask in range(1 << n):
        if all(below[j] & mask == below[j] for j in range(n) if (mask >> j) & 1):
            masks.append(mask)
    return masks


def _poset_automorphisms(leq: List[List[bool]]) -> List[Tuple[int, ...]]:
    n = len(leq)
    out = []
    for perm in permutations(range(n)):
        if all(leq[i][j] == leq[perm[i]][perm[j]]
               for i in range(n) for j in range(n)):
            out.append(perm)
    return out


def _monotone_relabel(rng: random.Random, top: int,
                      flat_chance: float) -> List[int]:
    if rng.random() >= flat_chance:
        return list(range(top + 1))
    # Non-injective monotone step maps collapse distance classes.
    out = [0]
    for _ in range(top):
        out.append(out[-1] + (1 if rng.random() < 0.5 else 0))
    return out


def random_valid_instance(rng: random.Random, max_size: int = 12,
                          max_family: int = 6,
                          attempts: int = 200) -> AbstractInstance:
    """A random validated instance built from a down-set lattice."""
    for _ in range(attempts):
        n_points = rng.randint(1, 4)
        poset = _random_poset(rng, n_points)
        masks = _downset_masks(poset)
        if len(masks) > max_size:
            continue
        index = {m: i for i, m in enumerate(masks)}
        size = len(masks)
        meet = [[index[a & b] for b in masks] for a in masks]

        autos = _poset_automorphisms(poset)
        gens = [autos[rng.randrange(len(autos))]
                for _ in range(rng.randint(0, 2))]

        def lift(perm: Tuple[int, ...], mask: int) -> int:
            out = 0
            for i in range(n_points):
                if (mask >> i) & 1:
                    out |= 1 << perm[i]
            return out

        gamma = [tuple(index[lift(p, m)] for m in masks) for p in gens]

        seeds = {rng.randrange(size) for _ in range(rng.randint(1, 3))}
        fam = set(seeds)
        frontier = list(seeds)
        while frontier:
            x = frontier.pop()
            for g in gamma:
                y = g[x]
                if y not in fam:
                    fam.add(y)
                    frontier.append(y)
        if len(fam) > max_family:
            continue
        family = sorted(fam)

        class_joins = rng.random() < 0.5
        relabel = _monotone_relabel(rng, n_points,
                                    flat_chance=0.7 if class_joins else 0.2)
        # Per-index offsets, constant on symmetry orbits of the index set,
        # keep the distances monotone and equivariant while giving strong
        # elements genuinely different argmax rows.
        fam_pos = {f: a for a, f in enumerate(family)}
        orbit_rep = list(range(len(family)))
        for g in gamma:
            for a, f in enumerate(family):
                b = fam_pos[g[f]]
                ra, rb = orbit_rep[a], orbit_rep[b]
                if ra != rb:
                    lo, hi = min(ra, rb), max(ra, rb)
                    orbit_rep = [lo if r == hi else r for r in orbit_rep]
        offset_of_rep = {r: rng.choice((0, 0, 1, 2)) for r in set(orbit_rep)}
        offsets = [offset_of_rep[r] for r in orbit_rep]
        values = [[relabel[(masks[x] & ~masks[f]).bit_count()] + offsets[a]
                   for a, f in enumerate(family)] for x in range(size)]
        delta = [[IndexValue((v,)) for v in row] for row in values]
        if class_joins:
            # Constant on each distance class: the join of the whole class.
            # Trivially collapses on equal distances, even collapsed ones.
            increment = []
            for x in range(size):
                row = []
                for a in range(len(family)):
                    mask = 0
                    for y in range(size):
                        if values[y][a] == values[x][a]:
                            mask |= masks[y]
                    row.append(index[mask])
                increment.append(row)
        else:
            increment = [[index[masks[x] | masks[f]] for f in family]
                         for x in range(size)]
        lat = AbstractLattice(size, meet, family, delta, increment, gamma)
        try:
            return load_abstract(lat)
        except ConditionViolation:
            continue
    raise ConditionViolation(
        f"no valid random instance found in {attempts} attempts", "generator")
