"""Finite meet-semilattices given as explicit tables.

This is the one instantiation where several strong elements and a real
descent iteration can occur, so everything is validated on load: the
meet table must be a semilattice, the distance table monotone, the
increment table growing and collapsing on equal distances, and every
symmetry generator an automorphism commuting with all the data.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    if len({iv.shape for row in lat.delta_table for iv in row}) > 1:
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


def load_abstract(lattice: AbstractLattice,
                  options: Optional[EngineOptions] = None) -> AbstractInstance:
    """Validate a tabular lattice and wrap it for the engine.

    Raises the specific condition violation (semilattice, monotonicity,
    increment, equivariance) that the tables break.
    """
    _check_shapes(lattice)
    _check_semilattice(lattice)
    _check_monotone(lattice)
    _check_increment(lattice)
    _check_duplicates(lattice)
    _check_gamma(lattice)
    return AbstractInstance(lattice, options)
