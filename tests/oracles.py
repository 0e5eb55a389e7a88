"""Independent brute-force oracles used only by the tests.

These deliberately re-derive values by full enumeration, with none of
the pruning or representative tricks the library uses, so that each
dual-route assertion really has two routes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, List, Optional, Sequence

from closeknit.abstract import AbstractInstance, AbstractLattice, load_abstract
from closeknit.contlogic import KIND_EVALUATORS, MetricStructure
from closeknit.engine import Instance, compute_m
from closeknit.errors import (ContractViolation, EnumerationCapExceeded,
                              StructureMismatch)
from closeknit.indexposet import DownSet, IndexValue
from closeknit.instancefiles import load_dict

ONE = Fraction(1)
ZERO = Fraction(0)


def naive_delta_set(ms, points: Sequence[int], a: int,
                    gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    if n == 0:
        return ONE
    inv = list(range(ms.n_points)) if gamma is None else _inv(gamma)
    col = ms.formula_column(phi, a)
    best = ZERO
    for tup in product(points, repeat=n):
        ys = [inv[x] for x in tup]
        value = ONE
        for i in range(n):
            value = min(value, col[ys[i]])
            for j in range(i + 1, n):
                value = min(value, ms.d[ys[i]][ys[j]])
        best = max(best, value)
    return best


def naive_delta_group(ms, points: Sequence[int], a: int,
                      gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    if n == 0:
        return ONE
    inv = list(range(ms.n_points)) if gamma is None else _inv(gamma)
    col = ms.formula_column(phi, a)
    best = ZERO
    for tup in product(points, repeat=n):
        value = ONE
        for i in range(n):
            for j in range(i + 1, n):
                q = ms.mult[ms.inverse[tup[i]]][tup[j]]
                value = min(value, col[inv[q]])
        best = max(best, value)
    return best


def naive_delta_vect(ms, points: Sequence[int], a: int,
                     gamma: Optional[Sequence[int]], phi: str, n: int) -> Fraction:
    if n == 0:
        return ONE
    inv = list(range(ms.n_points)) if gamma is None else _inv(gamma)
    col = ms.formula_column(phi, a)
    p = ms.p
    width = len(ms.coords[0])
    best = ZERO
    for tup in product(points, repeat=n):
        value = ONE
        for eta in product(range(p), repeat=n):
            if not any(eta):
                continue
            combo = tuple(
                sum(e * ms.coords[x][c] for e, x in zip(eta, tup)) % p
                for c in range(width))
            value = min(value, col[inv[ms._point_of_coords[combo]]])
        best = max(best, value)
    return best


def _inv(gamma: Sequence[int]) -> List[int]:
    out = [0] * len(gamma)
    for x, y in enumerate(gamma):
        out[y] = x
    return out


def clique_delta_set(ms, points: Sequence[int], phi_col, n: int) -> Fraction:
    """Threshold-clique reformulation of the set-shape value for coarse
    value grids: the largest t such that n distinct points of value >= t
    are pairwise at distance >= t."""
    if n == 0:
        return ONE
    levels = sorted({v for v in phi_col} | {d for row in ms.d for d in row},
                    reverse=True)
    from itertools import combinations
    for t in levels:
        if t == 0:
            break
        good = [y for y in points if phi_col[y] >= t]
        for combo in combinations(good, n):
            if all(ms.d[u][v] >= t for u, v in combinations(combo, 2)):
                return t
    return ZERO


def brute_orbit(seeds, gammas, act_fn, eq_key) -> list:
    """Closure by repeated application of every generator word."""
    family = []
    keys = set()
    for s in seeds:
        if eq_key(s) not in keys:
            keys.add(eq_key(s))
            family.append(s)
    changed = True
    while changed:
        changed = False
        for g in gammas:
            for f in list(family):
                img = act_fn(g, f)
                if eq_key(img) not in keys:
                    keys.add(eq_key(img))
                    family.append(img)
                    changed = True
    return family


# -- permutation groups ------------------------------------------------------
#
# Brute-force counterparts of the group kernel's shortcuts.  Products are
# formed here from the ambient element table with a local composition, so
# no route below goes through PermGroup.mult or groups.compose.

def perm_mult(ambient, i: int, j: int) -> int:
    a, b = ambient.elements[i], ambient.elements[j]
    return ambient.index[tuple(a[b[x]] for x in range(len(a)))]


def perm_inv(ambient, i: int) -> int:
    return ambient.index[tuple(_inv(ambient.elements[i]))]


def bfs_closure(gens, ambient) -> frozenset:
    """Element indices generated by gens: breadth-first over every
    generator times every newly found element."""
    gens = list(gens)
    members = {0}
    frontier = [0]
    while frontier:
        new = []
        for g in gens:
            for e in frontier:
                prod = perm_mult(ambient, g, e)
                if prod not in members:
                    members.add(prod)
                    new.append(prod)
        frontier = new
    return frozenset(members)


def brute_is_subgroup(ambient, members) -> bool:
    """Identity, inverses and every pairwise product inside the set."""
    if 0 not in members:
        return False
    for i in members:
        if perm_inv(ambient, i) not in members:
            return False
        for j in members:
            if perm_mult(ambient, i, j) not in members:
                return False
    return True


def brute_normalizes(gamma: Sequence[int], ambient) -> bool:
    """gamma * e * gamma^-1 stays in the ambient group for every element e."""
    g = tuple(gamma)
    g_inv = _inv(g)
    for e in ambient.elements:
        conj = tuple(g[e[g_inv[x]]] for x in range(len(g)))
        if conj not in ambient.index:
            return False
    return True


def coset_count_index(s, t) -> int:
    """[s : s meet t] as the number of distinct left cosets x(s meet t)."""
    amb = s.ambient
    core = s.members & t.members
    return len({frozenset(perm_mult(amb, x, h) for h in core)
                for x in s.members})


def brute_product_set(s, f) -> frozenset:
    amb = s.ambient
    return frozenset(perm_mult(amb, x, y) for x in s.members for y in f.members)


def increment_group_unoptimized(s, f) -> frozenset:
    """The increment as the intersection of (sf)^x over every x in s."""
    amb = s.ambient
    sf = brute_product_set(s, f)
    result = None
    for x in sorted(s.members):
        xinv = perm_inv(amb, x)
        conj = frozenset(perm_mult(amb, perm_mult(amb, xinv, y), x) for y in sf)
        result = conj if result is None else result & conj
    assert result is not None
    return result


# -- strong search -----------------------------------------------------------

def is_subset(d: DownSet, e: DownSet) -> bool:
    """Down-set containment: each generator of d is a member of e."""
    return all(g in e for g in d.generators)


def strictly_below(d: DownSet, e: DownSet) -> bool:
    """True iff d is contained in e and differs from it as a down-set."""
    return is_subset(d, e) and not is_subset(e, d)


def greedy_strong(inst):
    """A strong element by greedy descent from f_0: keep meeting with the
    lowest-indexed family member that strictly shrinks the distance
    down-set or the element itself."""
    s = inst.family[0]
    while True:
        m_s = compute_m(inst, s)
        chosen = None
        for b in range(len(inst.family)):
            cand = inst.meet(s, inst.family[b])
            if cand == s:
                continue
            m_c = compute_m(inst, cand)
            shrinks_m = strictly_below(m_c, m_s)
            shrinks_elem = inst.leq(cand, s) and cand != s
            if shrinks_m or shrinks_elem:
                chosen = cand
                break
        if chosen is None:
            return s
        s = chosen


# -- bitset subsets ----------------------------------------------------------
#
# Bit-by-bit counterparts of the set kernel's single-pass string gathers.

def bitloop_apply_permutation(bits: int, perm: Sequence[int]) -> int:
    """Image bitset: bit perm[i] is set for every set bit i."""
    out = 0
    for i in range(len(perm)):
        if (bits >> i) & 1:
            out |= 1 << perm[i]
    return out


def bitloop_members(bits: int, carrier_size: int) -> List[int]:
    return [i for i in range(carrier_size) if (bits >> i) & 1]


def bitloop_from_members(carrier_size: int, members) -> int:
    bits = 0
    for m in members:
        if not 0 <= m < carrier_size:
            raise StructureMismatch(f"member {m} outside carrier of size {carrier_size}")
        bits |= 1 << m
    return bits


# -- orbit closure -----------------------------------------------------------

def two_pass_orbit_closure(seeds, gamma_count: int, act, key):
    """Breadth-first closure over whole frontiers, then a second sweep that
    re-applies every generator to every member to build the action table."""
    family, index = [], {}
    for s in seeds:
        if key(s) not in index:
            index[key(s)] = len(family)
            family.append(s)
    frontier = list(family)
    while frontier:
        new = []
        for g in range(gamma_count):
            for f in frontier:
                img = act(g, f)
                if key(img) not in index:
                    index[key(img)] = len(family)
                    family.append(img)
                    new.append(img)
        frontier = new
    action = [[index[key(act(g, f))] for f in family] for g in range(gamma_count)]
    return family, action


# -- subspaces of F_p^n --------------------------------------------------------
#
# The list-of-residues Gauss-Jordan route for every p, with the meet by
# the Zassenhaus block and codimension through the meet.  Subspaces are
# plain tuples of RREF rows here.

def list_rref(rows: List[List[int]], p: int, width: int) -> List[List[int]]:
    """Gauss-Jordan over F_p on a copy; nonzero rows sorted by pivot."""
    rows = [[x % p for x in r] for r in rows]
    pivot_row = 0
    for col in range(width):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(v * inv) % p for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return rows[:pivot_row]


def span_rows(p: int, dim: int, vectors) -> tuple:
    return tuple(tuple(r) for r in list_rref([list(v) for v in vectors], p, dim))


def zassenhaus_meet(p: int, dim: int, s_rows, t_rows) -> tuple:
    block = [list(r) + list(r) for r in s_rows] + [list(r) + [0] * dim for r in t_rows]
    reduced = list_rref(block, p, 2 * dim)
    return span_rows(p, dim, [row[dim:] for row in reduced if not any(row[:dim])])


def rows_sum(p: int, dim: int, s_rows, t_rows) -> tuple:
    return span_rows(p, dim, list(s_rows) + list(t_rows))


def rows_codim(p: int, dim: int, s_rows, t_rows) -> int:
    return len(s_rows) - len(zassenhaus_meet(p, dim, s_rows, t_rows))


# ---------------------------------------------------------------------------
# Discrete structures derived from the concrete instantiations, carrying
# one indicator formula column per family member.
# ---------------------------------------------------------------------------

def _discrete_distance(k: int) -> List[List[int]]:
    return [[0 if i == j else 1 for j in range(k)] for i in range(k)]


def structure_from_sets(carrier_size: int, family) -> MetricStructure:
    """Discrete structure on the carrier; formula is 1 off each family member."""
    table = [[0 if (f.bits >> x) & 1 else 1 for f in family]
             for x in range(carrier_size)]
    return MetricStructure(carrier_size, _discrete_distance(carrier_size),
                           {"phi": table})


def structure_from_group(ambient, family) -> MetricStructure:
    """Discrete structure on the group elements with the multiplication table."""
    k = len(ambient)
    table = [[0 if x in f.members else 1 for f in family] for x in range(k)]
    mult = [[ambient.mult(i, j) for j in range(k)] for i in range(k)]
    return MetricStructure(k, _discrete_distance(k), {"phi": table},
                           mult_table=mult)


def structure_from_subspaces(p: int, dim: int, family,
                             cap: int = 1024) -> MetricStructure:
    """Discrete structure on all of F_p^dim with the coordinate block."""
    if p ** dim > cap:
        raise EnumerationCapExceeded(f"{p}^{dim} points exceed cap {cap}")
    vectors = [tuple(v) for v in product(range(p), repeat=dim)]
    table = [[0 if f.contains_vector(v) else 1 for f in family] for v in vectors]
    return MetricStructure(len(vectors), _discrete_distance(len(vectors)),
                           {"phi": table}, p=p, coords=vectors)


def subgroup_points(subgroup) -> List[int]:
    return sorted(subgroup.members)


def subspace_points(ms: MetricStructure, subspace) -> List[int]:
    """Point indices of a subspace's vectors inside a vector structure."""
    assert ms._point_of_coords is not None
    return sorted(ms._point_of_coords[v] for v in subspace_vectors(subspace))


def subspace_vectors(s) -> List[tuple]:
    """All p^rank member vectors of a subspace (small subspaces only)."""
    out = [tuple([0] * s.dim)]
    for row in s.rows:
        out = [tuple((a + c * b) % s.p for a, b in zip(v, row))
               for v in out for c in range(s.p)]
    return sorted(set(out))


def delta_tuple(ms: MetricStructure, kind: str, points: Iterable[int], a: int,
                gamma: Optional[Sequence[int]] = None,
                n_max: Optional[int] = None) -> IndexValue:
    """The full index-poset point: values over every formula and n <= n_max."""
    if kind not in KIND_EVALUATORS:
        raise ContractViolation(f"unknown structure kind {kind!r}")
    fn = KIND_EVALUATORS[kind]
    limit = ms.n_points if n_max is None else n_max
    pts = list(points)
    coords = []
    for phi in sorted(ms.formulas):
        for n in range(limit + 1):
            coords.append(fn(ms, pts, a, gamma, phi, n))
    return IndexValue(tuple(coords))


def tabulate_instance(inst: Instance, elements: Sequence) -> AbstractInstance:
    """Re-express any instance over an explicit element list as tables.

    The element list must contain the family, be closed under meet, and
    be closed under every symmetry generator (each concrete kind's
    `candidates()` provides such a list).
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


def abstract_from_dict(block: dict) -> AbstractInstance:
    """Load an abstract block through the instance-file parser."""
    return load_dict({"kind": "abstract", "abstract": block}).instance
