"""Brute-force enumeration of invariant commensurable candidates.

Used to certify engine outputs independently.  Every cap here is a hard
error: an oracle that samples is not an oracle.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence

from .engine import Instance
from .errors import ContractViolation, EnumerationCapExceeded
from .groups import PermGroup, Subgroup, closure
from .sets import FiniteSubset
from .vect import SubspaceBasis, add

MAX_ORACLE_CARRIER = 24
MAX_ORBIT_COUNT = 20
MAX_ORACLE_GROUP = 96
MAX_SPACE_POINTS = 1024
MAX_SUBSPACES = 100_000


def invariant_subsets(carrier_size: int,
                      gamma: Sequence[Sequence[int]]) -> List[FiniteSubset]:
    """All invariant subsets: exactly the unions of point orbits."""
    if carrier_size > MAX_ORACLE_CARRIER:
        raise EnumerationCapExceeded(
            f"carrier {carrier_size} exceeds oracle cap {MAX_ORACLE_CARRIER}")
    parent = list(range(carrier_size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in gamma:
        for i in range(carrier_size):
            a, b = find(i), find(p[i])
            if a != b:
                parent[a] = b
    orbits = {}
    for i in range(carrier_size):
        orbits.setdefault(find(i), 0)
        orbits[find(i)] |= 1 << i
    masks = list(orbits.values())
    if len(masks) > MAX_ORBIT_COUNT:
        raise EnumerationCapExceeded(
            f"{len(masks)} orbits exceed cap {MAX_ORBIT_COUNT}")
    out = []
    for pick in range(1 << len(masks)):
        bits = 0
        for i, m in enumerate(masks):
            if (pick >> i) & 1:
                bits |= m
        out.append(FiniteSubset(carrier_size, bits))
    return sorted(out, key=lambda s: s.bits)


def all_subgroups(g: PermGroup, cap: int = MAX_ORACLE_GROUP) -> List[Subgroup]:
    """Complete subgroup list by the cyclic-extension sweep: every cyclic
    subgroup, then repeated joins with cyclic subgroups until stable."""
    if len(g) > cap:
        raise EnumerationCapExceeded(f"group order {len(g)} exceeds cap {cap}")
    cyclics = {closure([i], g).members for i in range(len(g))}
    known = {frozenset([0])} | set(cyclics)
    frontier = list(known)
    while frontier:
        new = []
        for h in frontier:
            for c in cyclics:
                if c <= h:
                    continue
                j = closure(sorted(h | c), g).members
                if j not in known:
                    known.add(j)
                    new.append(j)
        frontier = new
    return sorted((Subgroup(g, m) for m in known),
                  key=lambda s: (len(s.members), sorted(s.members)))


def all_subspaces(p: int, dim: int) -> List[SubspaceBasis]:
    """Every subspace of F_p^dim, grown by extending with outside vectors."""
    if p ** dim > MAX_SPACE_POINTS:
        raise EnumerationCapExceeded(
            f"{p}^{dim} points exceed cap {MAX_SPACE_POINTS}")
    vectors = [v for v in product(range(p), repeat=dim) if any(v)]
    zero = SubspaceBasis.zero(p, dim)
    known = {zero.rows: zero}
    frontier = [zero]
    while frontier:
        new = []
        for s in frontier:
            for v in vectors:
                if s.contains_vector(v):
                    continue
                bigger = add(s, SubspaceBasis.from_vectors(p, dim, [v]))
                if bigger.rows not in known:
                    if len(known) >= MAX_SUBSPACES:
                        raise EnumerationCapExceeded(
                            f"subspace count exceeds cap {MAX_SUBSPACES}")
                    known[bigger.rows] = bigger
                    new.append(bigger)
        frontier = new
    return sorted(known.values(), key=lambda s: (s.rank, s.rows))


def _candidates(inst: Instance) -> List:
    explicit = inst.all_elements()
    if explicit is not None:
        return explicit
    if inst.kind == "set":
        return invariant_subsets(inst.carrier_size, inst.gamma)
    if inst.kind == "group":
        return all_subgroups(inst.ambient)
    if inst.kind == "vector":
        return all_subspaces(inst.p, inst.dim)
    raise ContractViolation(f"no enumerator for kind {inst.kind!r}")


def feasible_set(inst: Instance, bound: Optional[int],
                 candidates: Optional[List] = None) -> List:
    """All elements fixed by every symmetry generator whose measure against
    each family member stays within the bound.

    A pre-enumerated candidate list may be passed to amortize repeated
    calls over one ambient object.  For tabular instances no two-sided
    measure exists; the bound is ignored there and the result is the
    full fixed-point list.
    """
    out = []
    for cand in (candidates if candidates is not None else _candidates(inst)):
        if not all(inst.act(g, cand) == cand
                   for g in range(len(inst.action_table))):
            continue
        if bound is not None:
            ok = True
            for f in inst.family:
                pair = inst.measure(cand, f)
                if pair is None:
                    break
                if max(pair) > bound:
                    ok = False
                    break
            if not ok:
                continue
        out.append(cand)
    return out
