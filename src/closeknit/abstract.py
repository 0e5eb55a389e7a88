"""Finite meet-semilattices given as explicit tables.

This is the one instantiation where several strong elements and a real
descent iteration can occur, so everything is validated on load: the
meet table must be a semilattice, the distance table monotone, the
increment table growing and collapsing on equal distances, and every
symmetry generator an automorphism commuting with all the data.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import EngineOptions, Instance, orbit_closure
from .errors import (AssociativityViolation, ConditionViolation,
                     EquivarianceViolation, IncrementViolation,
                     MonotonicityViolation, StructureMismatch)
from .indexposet import IndexValue


class AbstractLattice:
    """Tabular model: meet table, family, distance and increment tables,
    and a list of element permutations acting as symmetries."""

    def __init__(self, size: int, meet_table: List[List[int]],
                 family: List[int],
                 delta_table: List[List[IndexValue]],  # [element][family position]
                 increment_table: List[List[int]],     # [element][family position]
                 gamma: List[Tuple[int, ...]]):
        self.size = size
        self.meet_table = meet_table
        self.family = family
        self.delta_table = delta_table
        self.increment_table = increment_table
        self.gamma = gamma

    def leq(self, x: int, y: int) -> bool:
        return self.meet_table[x][y] == x


def _check_shapes(lat: AbstractLattice) -> None:
    k, na = lat.size, len(lat.family)
    if len(lat.meet_table) != k or any(len(r) != k for r in lat.meet_table):
        raise StructureMismatch("meet table shape mismatch")
    if any(not 0 <= v < k for r in lat.meet_table for v in r):
        raise StructureMismatch("meet table entry out of range")
    if not lat.family or any(not 0 <= f < k for f in lat.family):
        raise StructureMismatch("family must be a non-empty list of element indices")
    if len(lat.delta_table) != k or any(len(r) != na for r in lat.delta_table):
        raise StructureMismatch("delta table shape mismatch")
    if len(lat.increment_table) != k or any(len(r) != na for r in lat.increment_table):
        raise StructureMismatch("increment table shape mismatch")
    if any(not 0 <= v < k for r in lat.increment_table for v in r):
        raise StructureMismatch("increment table entry out of range")
    for g in lat.gamma:
        if sorted(g) != list(range(k)):
            raise StructureMismatch(f"gamma entry is not an element permutation: {g}")
    shapes = {(len(iv.coords), iv.kind) for row in lat.delta_table for iv in row}
    if len(shapes) > 1:
        raise StructureMismatch("delta table mixes index-value shapes")


def _check_semilattice(lat: AbstractLattice) -> None:
    m = lat.meet_table
    for x in range(lat.size):
        if m[x][x] != x:
            raise AssociativityViolation(f"meet not idempotent at {x}", "semilattice")
        for y in range(lat.size):
            if m[x][y] != m[y][x]:
                raise AssociativityViolation(
                    f"meet not commutative at ({x},{y})", "semilattice")
            for z in range(lat.size):
                if m[m[x][y]][z] != m[x][m[y][z]]:
                    raise AssociativityViolation(
                        f"meet not associative at ({x},{y},{z})", "semilattice")


def _check_monotone(lat: AbstractLattice) -> None:
    from .indexposet import leq as iv_leq
    for x in range(lat.size):
        for y in range(lat.size):
            if not lat.leq(x, y):
                continue
            for a in range(len(lat.family)):
                if not iv_leq(lat.delta_table[x][a], lat.delta_table[y][a]):
                    raise MonotonicityViolation(
                        f"delta not monotone: {x} <= {y} but "
                        f"delta({x},{a}) !<= delta({y},{a})", "condition-1")


def _check_increment(lat: AbstractLattice) -> None:
    for x in range(lat.size):
        for a in range(len(lat.family)):
            if not lat.leq(x, lat.increment_table[x][a]):
                raise IncrementViolation(
                    f"element {x} not below its increment at a={a}", "condition-3")
    for x in range(lat.size):
        for y in range(lat.size):
            if x == y or not lat.leq(x, y):
                continue
            for a in range(len(lat.family)):
                if (lat.delta_table[x][a] == lat.delta_table[y][a]
                        and lat.increment_table[x][a] != lat.increment_table[y][a]):
                    raise IncrementViolation(
                        f"{x} <= {y} with equal delta at a={a} but different "
                        "increments", "condition-3")


def _check_duplicates(lat: AbstractLattice) -> None:
    # Duplicate family entries must carry identical columns so that
    # deduplication by element equality preserves the semantics.
    by_element: Dict[int, int] = {}
    for a, f in enumerate(lat.family):
        if f in by_element:
            b = by_element[f]
            for x in range(lat.size):
                if (lat.delta_table[x][a] != lat.delta_table[x][b]
                        or lat.increment_table[x][a] != lat.increment_table[x][b]):
                    raise ConditionViolation(
                        f"family positions {b} and {a} name the same element "
                        "but disagree in delta or increment", "well-defined")
        else:
            by_element[f] = a


def _gamma_index_action(lat: AbstractLattice, g: Tuple[int, ...]) -> List[int]:
    """Index action a -> a' with f_a' = g(f_a); least matching position."""
    action = []
    for a, f in enumerate(lat.family):
        img = g[f]
        try:
            action.append(lat.family.index(img))
        except ValueError:
            raise EquivarianceViolation(
                f"gamma image of family member {f} leaves the family", "gamma")
    return action


def _check_gamma(lat: AbstractLattice) -> None:
    m = lat.meet_table
    for g in lat.gamma:
        for x in range(lat.size):
            for y in range(lat.size):
                if g[m[x][y]] != m[g[x]][g[y]]:
                    raise EquivarianceViolation(
                        f"gamma is not a lattice automorphism at ({x},{y})", "gamma")
        action = _gamma_index_action(lat, g)
        for x in range(lat.size):
            for a in range(len(lat.family)):
                if lat.delta_table[g[x]][action[a]] != lat.delta_table[x][a]:
                    raise EquivarianceViolation(
                        f"delta not gamma-equivariant at ({x},{a})", "gamma")
                if g[lat.increment_table[x][a]] != lat.increment_table[g[x]][action[a]]:
                    raise EquivarianceViolation(
                        f"increment not gamma-equivariant at ({x},{a})", "gamma")


class AbstractInstance(Instance):
    """Engine adapter over a validated tabular lattice."""

    kind = "abstract"

    def __init__(self, lattice: AbstractLattice,
                 options: Optional[EngineOptions] = None):
        self.lattice = lattice
        self.options = options or EngineOptions()
        # Columns keyed by the family *element* (duplicates agree, checked above).
        self._delta_col: Dict[int, List[IndexValue]] = {}
        self._inc_col: Dict[int, List[int]] = {}
        for a, f in enumerate(lattice.family):
            if f not in self._delta_col:
                self._delta_col[f] = [lattice.delta_table[x][a]
                                      for x in range(lattice.size)]
                self._inc_col[f] = [lattice.increment_table[x][a]
                                    for x in range(lattice.size)]
        self.family, self.action_table = orbit_closure(
            list(dict.fromkeys(lattice.family)), len(lattice.gamma),
            self.act, self.key, self.options.max_orbit)

    def meet(self, x: int, y: int) -> int:
        return self.lattice.meet_table[x][y]

    def key(self, x: int):
        return x

    def delta(self, x: int, a: int) -> IndexValue:
        return self._delta_col[self.family[a]][x]

    def increment(self, x: int, a: int) -> int:
        return self._inc_col[self.family[a]][x]

    def act(self, g: int, x: int) -> int:
        return self.lattice.gamma[g][x]

    # join_span stays None: increments in tabular data may legitimately
    # exceed the family join, so no upper sandwich bound exists here.

    def all_elements(self) -> List[int]:
        return list(range(self.lattice.size))

    def element_json(self, x: int) -> int:
        return x

    def validation_samples(self, rng, samples: int):
        elements = list(range(self.lattice.size))
        pairs = [(x, y) for x in elements for y in elements if self.lattice.leq(x, y)]
        return elements, pairs


def load_abstract(description: AbstractLattice | dict,
                  options: Optional[EngineOptions] = None) -> AbstractInstance:
    """Validate a tabular description and wrap it for the engine.

    Raises the specific condition violation (semilattice, monotonicity,
    increment, equivariance) that the tables break.
    """
    if isinstance(description, dict):
        lat = lattice_from_dict(description)
    else:
        lat = description
    _check_shapes(lat)
    _check_semilattice(lat)
    _check_monotone(lat)
    _check_increment(lat)
    _check_duplicates(lat)
    _check_gamma(lat)
    return AbstractInstance(lat, options)


def lattice_from_dict(description: dict) -> AbstractLattice:
    try:
        delta = [[IndexValue(tuple(int(c) for c in cell)) for cell in row]
                 for row in description["delta_table"]]
        return AbstractLattice(
            size=int(description["size"]),
            meet_table=[[int(v) for v in row] for row in description["meet_table"]],
            family=[int(f) for f in description["family"]],
            delta_table=delta,
            increment_table=[[int(v) for v in row] for row in description["increment_table"]],
            gamma=[tuple(int(v) for v in g) for g in description.get("gamma", [])],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureMismatch(f"bad abstract lattice description: {exc}") from exc


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


def tabulate_instance(inst: Instance, elements: Sequence) -> AbstractInstance:
    """Re-express any instance over an explicit element list as tables.

    The element list must contain the family, be closed under meet, and
    be closed under every symmetry generator (enumerators in the oracle
    module provide such lists for the concrete kinds).
    """
    index = {inst.key(e): i for i, e in enumerate(elements)}
    size = len(elements)

    def pos(x) -> int:
        k = inst.key(x)
        if k not in index:
            raise StructureMismatch("element list is not closed under the data")
        return index[k]

    meet = [[pos(inst.meet(x, y)) for y in elements] for x in elements]
    family = [pos(f) for f in inst.family]
    delta = [[inst.delta(x, a) for a in range(len(inst.family))] for x in elements]
    increment = [[pos(inst.increment(x, a)) for a in range(len(inst.family))]
                 for x in elements]
    gamma = [tuple(pos(inst.act(g, x)) for x in elements)
             for g in range(len(inst.action_table))]
    lat = AbstractLattice(size, meet, family, delta, increment, gamma)
    return load_abstract(lat)
