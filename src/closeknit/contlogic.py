"""Exact [0,1]-valued distance-formula evaluators on finite metric structures.

delta_{phi,n}(S, a) is the sup over n-tuples from S of a value that can
only fall as the tuple grows.  One branch-and-bound search serves every
shape, which supplies only its step: how appending a point y changes the
state and lowers the value,

  set     chosen points; to the formula at y and to d(z, y) for earlier z,
  group   chosen points; to the formula at z^-1 y for each earlier z,
  vector  linear combinations; to the formula at each new nonzero one.

The search starts at value 1, prunes a branch that cannot beat the best so
far (exact, because growing a tuple never raises the value) and stops once
the best is 1.  Arithmetic is exact (fractions); sup over an empty range
is 0, inf over an empty range is 1, and the n = 0 value is 1.

`discrete_reduction` recovers the counting measures from these formulas
over the discrete metric: the largest n at which the value is still 1
equals the set difference, the subgroup index, or the codimension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (ContractViolation, EnumerationCapExceeded,
                     StructureMismatch)

ZERO = Fraction(0)
ONE = Fraction(1)

MAX_FORMULA_CLOSURE = 256
DEFAULT_COMBINATION_CAP = 4096


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        out = value
    elif isinstance(value, int):
        out = Fraction(value)
    else:
        raise StructureMismatch(f"expected exact numeric, got {value!r}")
    if not ZERO <= out <= ONE:
        raise StructureMismatch(f"value {out} outside [0,1]")
    return out


class MetricStructure:
    """Finite carrier with a pseudo-metric and named formula tables.

    `formulas[name][x][a]` is the value of the formula at point x with
    parameter a; the table family is closed under pointwise max on load.
    Optional blocks add a group multiplication table or coordinates over
    a prime field, enabling the corresponding evaluators.
    """

    def __init__(self, n_points: int, distance: Sequence[Sequence],
                 formulas: Dict[str, Sequence[Sequence]],
                 mult_table: Optional[Sequence[Sequence[int]]] = None,
                 p: Optional[int] = None,
                 coords: Optional[Sequence[Sequence[int]]] = None):
        self.n_points = n_points
        if len(distance) != n_points or any(len(r) != n_points for r in distance):
            raise StructureMismatch("distance table shape mismatch")
        self.d = [[_as_fraction(v) for v in row] for row in distance]
        for i in range(n_points):
            if self.d[i][i] != 0:
                raise StructureMismatch("distance diagonal must be zero")
            for j in range(n_points):
                if self.d[i][j] != self.d[j][i]:
                    raise StructureMismatch("distance table not symmetric")
        # The discrete metric needs no cubic triangle sweep.
        if not self.is_discrete():
            for i in range(n_points):
                for j in range(n_points):
                    for k in range(n_points):
                        if self.d[i][j] > self.d[i][k] + self.d[k][j]:
                            raise StructureMismatch(
                                f"triangle inequality fails at ({i},{j},{k})")

        if not formulas:
            raise StructureMismatch("at least one formula table is required")
        self.n_params = None
        self.formulas: Dict[str, List[List[Fraction]]] = {}
        for name, table in formulas.items():
            if len(table) != n_points:
                raise StructureMismatch(f"formula {name!r} row count mismatch")
            rows = [[_as_fraction(v) for v in row] for row in table]
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise StructureMismatch(f"formula {name!r} ragged table")
            width = widths.pop()
            if self.n_params is None:
                self.n_params = width
            elif self.n_params != width:
                raise StructureMismatch("formula tables disagree on parameter count")
            self.formulas[name] = rows
        self._close_under_max()

        self.mult = None
        self.inverse = None
        if mult_table is not None:
            self._install_group(mult_table)
        self.p = None
        self.coords = None
        self._point_of_coords: Optional[Dict[Tuple[int, ...], int]] = None
        if p is not None or coords is not None:
            if p is None or coords is None:
                raise StructureMismatch("vector block needs both p and coords")
            self._install_vector(p, coords)

    def _close_under_max(self) -> None:
        changed = True
        while changed:
            changed = False
            names = sorted(self.formulas)
            tables = {name: self.formulas[name] for name in names}
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    merged = [[max(x, y) for x, y in zip(ra, rb)]
                              for ra, rb in zip(tables[a], tables[b])]
                    if any(merged == t for t in self.formulas.values()):
                        continue
                    if len(self.formulas) >= MAX_FORMULA_CLOSURE:
                        raise EnumerationCapExceeded(
                            "formula max-closure exceeded "
                            f"{MAX_FORMULA_CLOSURE} tables")
                    self.formulas[f"max({a},{b})"] = merged
                    changed = True

    def _install_group(self, mult_table: Sequence[Sequence[int]]) -> None:
        k = self.n_points
        if len(mult_table) != k or any(len(r) != k for r in mult_table):
            raise StructureMismatch("multiplication table shape mismatch")
        mult = [[int(v) for v in row] for row in mult_table]
        identity = None
        for e in range(k):
            if all(mult[e][x] == x and mult[x][e] == x for x in range(k)):
                identity = e
                break
        if identity is None:
            raise StructureMismatch("multiplication table has no identity")
        inverse = [None] * k
        for x in range(k):
            for y in range(k):
                if mult[x][y] == identity and mult[y][x] == identity:
                    inverse[x] = y
                    break
            if inverse[x] is None:
                raise StructureMismatch(f"point {x} has no inverse")
        self.mult = mult
        self.inverse = inverse

    def _install_vector(self, p: int, coords: Sequence[Sequence[int]]) -> None:
        if len(coords) != self.n_points:
            raise StructureMismatch("coordinate table row count mismatch")
        dims = {len(r) for r in coords}
        if len(dims) != 1:
            raise StructureMismatch("ragged coordinate table")
        m = dims.pop()
        if p ** m != self.n_points:
            raise StructureMismatch(
                "vector block must enumerate the whole space: "
                f"{p}^{m} != {self.n_points}")
        table = [tuple(int(v) % p for v in row) for row in coords]
        lookup = {c: i for i, c in enumerate(table)}
        if len(lookup) != self.n_points:
            raise StructureMismatch("duplicate coordinate vectors")
        self.p = p
        self.coords = table
        self._point_of_coords = lookup

    def formula_column(self, phi: str, a: int) -> List[Fraction]:
        if phi not in self.formulas:
            raise StructureMismatch(f"unknown formula {phi!r}")
        if not 0 <= a < (self.n_params or 0):
            raise StructureMismatch(f"parameter index {a} out of range")
        return [row[a] for row in self.formulas[phi]]

    def is_discrete(self) -> bool:
        return all(self.d[i][j] == 1
                   for i in range(self.n_points)
                   for j in range(self.n_points) if i != j)


def _inverse_and_column(ms: MetricStructure, gamma: Optional[Sequence[int]],
                        phi: str, a: int) -> Tuple[List[int], List[Fraction]]:
    """gamma^-1 as a point list (checked first), then the formula column."""
    inv = list(range(ms.n_points))
    if gamma is not None:
        if sorted(gamma) != inv:
            raise StructureMismatch(f"gamma is not a point bijection: {gamma}")
        for x, y in enumerate(gamma):
            inv[y] = x
    return inv, ms.formula_column(phi, a)


def _sup_over_tuples(points: Sequence[int], n: int, start, step) -> Fraction:
    """The module docstring's search; `step(state, value, y)` returns both."""
    best = ZERO

    def rec(state, value: Fraction, depth: int) -> None:
        nonlocal best
        if depth == n:
            best = value
            return
        for y in points:
            grown, v = step(state, value, y)
            if v > best:
                rec(grown, v, depth + 1)
                if best == ONE:
                    return

    rec(start, ONE, 0)
    return best


def delta_phi_n_set(ms: MetricStructure, points: Iterable[int], a: int,
                    gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    """delta_{phi,n} of the set shape, every point taken through gamma^-1."""
    if n == 0:
        return ONE
    inv, col = _inverse_and_column(ms, gamma, phi, a)
    d = ms.d

    def step(chosen: Tuple[int, ...], value: Fraction, y: int):
        value = min(value, col[y])
        for z in chosen:
            dz = d[z][y]
            if dz < value:
                value = dz
        return chosen + (y,), value

    return _sup_over_tuples([inv[x] for x in points], n, (), step)


def delta_phi_n_group(ms: MetricStructure, points: Iterable[int], a: int,
                      gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    """delta_{phi,n} of the group shape, on pairwise quotients x_i^-1 x_j."""
    if ms.mult is None:
        raise StructureMismatch("structure has no group block")
    if n == 0:
        return ONE
    inv_gamma, col = _inverse_and_column(ms, gamma, phi, a)
    mult, invers = ms.mult, ms.inverse

    def step(chosen: Tuple[int, ...], value: Fraction, y: int):
        for z in chosen:
            v = col[inv_gamma[mult[invers[z]][y]]]
            if v < value:
                value = v
        return chosen + (y,), value

    return _sup_over_tuples(list(points), n, (), step)


def delta_phi_n_vect(ms: MetricStructure, points: Iterable[int], a: int,
                     gamma: Optional[Sequence[int]], phi: str, n: int,
                     cap: int = DEFAULT_COMBINATION_CAP) -> Fraction:
    """delta_{phi,n} of the vector shape, over nonzero linear combinations."""
    if ms.p is None or ms.coords is None or ms._point_of_coords is None:
        raise StructureMismatch("structure has no vector block")
    if n == 0:
        return ONE
    p = ms.p
    if p ** n > cap:
        raise EnumerationCapExceeded(
            f"{p}^{n} coefficient vectors exceed cap {cap}")
    inv_gamma, col = _inverse_and_column(ms, gamma, phi, a)
    coords, lookup = ms.coords, ms._point_of_coords

    def step(combos: Tuple[Tuple[int, ...], ...], value: Fraction, y: int):
        # combos holds every combination of the tuple so far, the all-zero
        # one included; appending y adds c + t*y for t = 1..p-1.
        yc = coords[y]
        added = []
        for t in range(1, p):
            for c in combos:
                cc = tuple([(u + t * w) % p for u, w in zip(c, yc)])
                added.append(cc)
                v = col[inv_gamma[lookup[cc]]]
                if v < value:
                    value = v
        return combos + tuple(added), value

    return _sup_over_tuples(list(points), n, ((0,) * len(coords[0]),), step)


KIND_EVALUATORS = {
    "set": delta_phi_n_set,
    "group": delta_phi_n_group,
    "vector": delta_phi_n_vect,
}


def discrete_reduction(ms: MetricStructure, kind: str, points: Iterable[int],
                       a: int, phi: Optional[str] = None,
                       gamma: Optional[Sequence[int]] = None) -> int:
    """Largest n at which the value is still 1, over the discrete metric
    and a 0/1-valued formula.

    Equals |S minus F_a| for the set shape, the index [S : S meet F_a]
    for the group shape, and the codimension for the vector shape.
    """
    if kind not in KIND_EVALUATORS:
        raise ContractViolation(f"unknown structure kind {kind!r}")
    if not ms.is_discrete():
        raise ContractViolation("reduction requires the discrete metric")
    if phi is None:
        if len(ms.formulas) != 1:
            raise ContractViolation("ambiguous formula; pass phi explicitly")
        phi = next(iter(ms.formulas))
    col_all = ms.formulas[phi]
    if any(v not in (ZERO, ONE) for row in col_all for v in row):
        raise ContractViolation("reduction requires an indicator-type formula")
    fn = KIND_EVALUATORS[kind]
    pts = list(points)
    largest = 0
    for n in range(1, ms.n_points + 2):
        if fn(ms, pts, a, gamma, phi, n) == ONE:
            largest = n
        else:
            break
    return largest
