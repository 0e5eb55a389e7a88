"""Exact [0,1]-valued distance-formula evaluators on finite metric structures.

Three shapes are supported on a common carrier of points:

  set     sup over n-tuples from S of  min pairwise d  ^  min formula value,
  group   sup over n-tuples of the min formula value on pairwise quotients,
  vector  sup over n-tuples of the inf of the formula over nonzero
          linear combinations.

All arithmetic is exact (fractions); sup over an empty range is 0, inf
over an empty range is 1, and the n = 0 value is 1 by convention.  The
sup/min recursions prune branches that can no longer beat the running
best, which is exact because extending a tuple never increases the inner
value.

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
        self.identity = identity

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


def _inverse_map(n_points: int, gamma: Optional[Sequence[int]]) -> List[int]:
    if gamma is None:
        return list(range(n_points))
    if sorted(gamma) != list(range(n_points)):
        raise StructureMismatch(f"gamma is not a point bijection: {gamma}")
    inv = [0] * n_points
    for x, y in enumerate(gamma):
        inv[y] = x
    return inv


def delta_phi_n_set(ms: MetricStructure, points: Iterable[int], a: int,
                    gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    """Set-shape value: sup over n-tuples of min pairwise distance wedge
    min formula value, everything through the inverse of gamma."""
    if n == 0:
        return ONE
    inv = _inverse_map(ms.n_points, gamma)
    col = ms.formula_column(phi, a)
    ys = [inv[x] for x in points]
    d = ms.d
    best = ZERO
    chosen: List[int] = []

    def rec(running: Fraction) -> None:
        nonlocal best
        if running <= best:
            return
        if len(chosen) == n:
            best = running
            return
        for y in ys:
            r = min(running, col[y])
            for z in chosen:
                dz = d[z][y]
                if dz < r:
                    r = dz
            chosen.append(y)
            rec(r)
            chosen.pop()
            if best == ONE:
                return

    rec(ONE)
    return best


def delta_phi_n_group(ms: MetricStructure, points: Iterable[int], a: int,
                      gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    """Group-shape value: sup over n-tuples of the min formula value on the
    pairwise quotients x_i^-1 x_j."""
    if ms.mult is None:
        raise StructureMismatch("structure has no group block")
    if n == 0:
        return ONE
    inv_gamma = _inverse_map(ms.n_points, gamma)
    col = ms.formula_column(phi, a)
    xs = list(points)
    mult, invers = ms.mult, ms.inverse
    best = ZERO
    chosen: List[int] = []

    def rec(running: Fraction) -> None:
        nonlocal best
        if running <= best:
            return
        if len(chosen) == n:
            best = running
            return
        for y in xs:
            r = running
            for z in chosen:
                v = col[inv_gamma[mult[invers[z]][y]]]
                if v < r:
                    r = v
            chosen.append(y)
            rec(r)
            chosen.pop()
            if best == ONE:
                return

    rec(ONE)
    return best


def delta_phi_n_vect(ms: MetricStructure, points: Iterable[int], a: int,
                     gamma: Optional[Sequence[int]], phi: str, n: int,
                     cap: int = DEFAULT_COMBINATION_CAP) -> Fraction:
    """Vector-shape value: sup over n-tuples of the inf of the formula over
    all nonzero coefficient vectors applied to the tuple."""
    if ms.p is None or ms.coords is None or ms._point_of_coords is None:
        raise StructureMismatch("structure has no vector block")
    if n == 0:
        return ONE
    p = ms.p
    if p ** n > cap:
        raise EnumerationCapExceeded(
            f"{p}^{n} coefficient vectors exceed cap {cap}")
    inv_gamma = _inverse_map(ms.n_points, gamma)
    col = ms.formula_column(phi, a)
    xs = list(points)
    coords = ms.coords
    lookup = ms._point_of_coords
    width = len(coords[0]) if coords else 0
    best = ZERO
    zero = tuple([0] * width)

    def rec(combos: List[Tuple[int, ...]], value: Fraction, depth: int) -> None:
        # combos[i] is the combination for the i-th coefficient prefix,
        # position 0 being the all-zero coefficients.
        nonlocal best
        if value <= best:
            return
        if depth == n:
            best = value
            return
        for y in xs:
            yc = coords[y]
            new: List[Tuple[int, ...]] = []
            val = value
            for idx, c in enumerate(combos):
                for t in range(p):
                    cc = tuple((u + t * v) % p for u, v in zip(c, yc))
                    new.append(cc)
                    if idx == 0 and t == 0:
                        continue
                    w = col[inv_gamma[lookup[cc]]]
                    if w < val:
                        val = w
            rec(new, val, depth + 1)
            if best == ONE:
                return

    rec([zero], ONE, 0)
    return best


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
