"""Seeded instance-file generators for the three benchmark workloads.

Each workload is a fixed ladder of rungs.  A rung fixes the structure
that sets the cost of a solve (carrier size, symmetry group, family
size, ambient group, subspace dimension); the seed only picks the
members, the point labels and the random tabular lattices.  The same
seed always gives byte-identical files, so costs stay comparable
across seeds and certificates stay comparable across commits.

The program under test only ever sees the generated JSON files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Rung:
    name: str
    make: Callable[[random.Random], dict]
    cli: bool = False  # part of the workload's CLI subset (small files only)


# ---------------------------------------------------------------------------
# sets-wide: wide carriers under rotation plus reflection, full route
# ---------------------------------------------------------------------------

def _dihedral_set(carrier: int, rotation_order: int) -> Callable[[random.Random], dict]:
    """Seed = a quarter of the point orbits taken whole plus a random half of
    the other points, so the meet of the family (and hence N) is non-empty."""
    shift = carrier // rotation_order

    def make(rng: random.Random) -> dict:
        rot = [(i + shift) % carrier for i in range(carrier)]
        refl = [(-i) % carrier for i in range(carrier)]
        classes = sorted({min(r, (-r) % shift) for r in range(shift)})
        whole = set()
        for r in rng.sample(classes, max(1, len(classes) // 4)):
            for j in range(rotation_order):
                whole.add((r + j * shift) % carrier)
                whole.add((-(r + j * shift)) % carrier)
        rest = [i for i in range(carrier) if i not in whole]
        seed = sorted(whole | set(rng.sample(rest, len(rest) // 2)))
        return {"kind": "set",
                "set": {"carrier_size": carrier, "seeds": [seed],
                        "gamma": [rot, refl]},
                "options": {"mode": "full"}}
    return make


# ---------------------------------------------------------------------------
# groups-conj: subgroup families in S5-S7 conjugated by a transposition
# and/or the n-cycle; every label is passed through a random relabelling
# ---------------------------------------------------------------------------

def _perm_from_cycles(n: int, cycles: List[List[int]]) -> List[int]:
    p = list(range(n))
    for c in cycles:
        for i, x in enumerate(c):
            p[x] = c[(i + 1) % len(c)]
    return p


def _conj(sigma: List[int], p: List[int]) -> List[int]:
    """sigma * p * sigma^-1: the same permutation on relabelled points."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[sigma[x]] = sigma[y]
    return out


def _sym_family(kind: str, degree: int, seeds: List[List[List[List[int]]]],
                gamma: str) -> Callable[[random.Random], dict]:
    """Ambient S_degree from (0 1) and the degree-cycle.  Each seed subgroup is
    a list of generators written as cycle lists; gamma names which of the
    two ambient generators ("t", "c" or "tc") act on the family by conjugation."""

    def make(rng: random.Random) -> dict:
        sigma = list(range(degree))
        rng.shuffle(sigma)
        t = _perm_from_cycles(degree, [[0, 1]])
        c = _perm_from_cycles(degree, [list(range(degree))])
        acting = {"t": [t], "c": [c], "tc": [t, c]}[gamma]
        seed_key = "seeds" if kind == "group" else "subgroup_seeds"
        block = {
            "degree": degree,
            "generators": [_conj(sigma, t), _conj(sigma, c)],
            seed_key: [[_conj(sigma, _perm_from_cycles(degree, cyc)) for cyc in gens]
                       for gens in seeds],
            "gamma": [_conj(sigma, g) for g in acting],
        }
        return {"kind": kind, kind: block, "options": {"mode": "full"}}
    return make


def _stabiliser_gens(degree: int) -> List[List[List[int]]]:
    """Generators of the stabiliser of point 0, as cycle lists."""
    return [[[1, 2]], [list(range(1, degree))]]


# ---------------------------------------------------------------------------
# proof-both: the proof route (2^|family| subset meets) checked against the
# full route, with strong_subset_cap raised in the file's options
# ---------------------------------------------------------------------------

PROOF_OPTIONS = {"mode": "both", "strong_subset_cap": 1 << 16}


def _shift_set(carrier: int, family: int) -> Callable[[random.Random], dict]:
    """Seed = one whole point orbit of the rotation (so N is non-empty) plus
    exactly half of every other point orbit, drawn at random.  Taking half of
    each orbit, rather than half of all points, keeps the number of distinct
    subset meets, and so the cost, nearly the same from seed to seed."""
    step = carrier // family

    def make(rng: random.Random) -> dict:
        rot = [(i + step) % carrier for i in range(carrier)]
        whole = rng.randrange(step)
        seed = {whole + j * step for j in range(family)}
        for r in range(step):
            if r != whole:
                seed.update(r + j * step for j in rng.sample(range(family), family // 2))
        seed = sorted(seed)
        return {"kind": "set",
                "set": {"carrier_size": carrier, "seeds": [seed], "gamma": [rot]},
                "options": dict(PROOF_OPTIONS)}
    return make


def _shift_vector(p: int, dim: int) -> Callable[[random.Random], dict]:
    """Random half-dimensional subspace of F_p^dim through the shift-fixed
    all-ones vector (so N is non-zero), under the cyclic coordinate shift;
    redrawn until its shift orbit has the full size dim."""

    def make(rng: random.Random) -> dict:
        shift = [[1 if j == (i - 1) % dim else 0 for j in range(dim)]
                 for i in range(dim)]
        while True:
            vecs = [[1] * dim] + [[rng.randrange(p) for _ in range(dim)]
                                  for _ in range(dim // 2 - 1)]
            if _rank(vecs, p) == dim // 2 and _shift_orbit(vecs, p, dim) == dim:
                break
        return {"kind": "vector",
                "vector": {"p": p, "dim": dim, "seeds": [vecs], "gamma": [shift]},
                "options": dict(PROOF_OPTIONS)}
    return make


def _rref_rows(rows: List[List[int]], p: int) -> Tuple[Tuple[int, ...], ...]:
    rows = [[x % p for x in r] for r in rows]
    width = len(rows[0]) if rows else 0
    out = 0
    for col in range(width):
        piv = next((r for r in range(out, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[out], rows[piv] = rows[piv], rows[out]
        inv = pow(rows[out][col], p - 2, p)
        rows[out] = [(v * inv) % p for v in rows[out]]
        for r in range(len(rows)):
            if r != out and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[out])]
        out += 1
    return tuple(tuple(r) for r in rows[:out])


def _rank(rows: List[List[int]], p: int) -> int:
    return len(_rref_rows(rows, p))


def _shift_orbit(rows: List[List[int]], p: int, dim: int) -> int:
    seen = set()
    cur = [list(r) for r in rows]
    for _ in range(dim):
        seen.add(_rref_rows(cur, p))
        cur = [[r[(j - 1) % dim] for j in range(dim)] for r in cur]
    return len(seen)


def _tabular(points: int, class_joins: bool) -> Callable[[random.Random], dict]:
    """Random tabular lattice: the down-sets of a random poset on `points`
    points, symmetries lifted from poset automorphisms, delta a monotone
    relabelling of |x minus f_a| plus an offset constant on family orbits.
    The increment is x union f_a, or with class_joins the join of the whole
    distance class of x, which makes several strong elements and a real
    descent.  Both choices satisfy the defining conditions by construction.
    """

    def make(rng: random.Random) -> dict:
        n = points
        leq = [[i == j or (i < j and rng.random() < 0.4) for j in range(n)]
               for i in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if leq[i][k] and leq[k][j]:
                        leq[i][j] = True
        below = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
        masks = [m for m in range(1 << n)
                 if all(below[j] & m == below[j] for j in range(n) if (m >> j) & 1)]
        index = {m: i for i, m in enumerate(masks)}
        autos = [q for q in itertools.permutations(range(n))
                 if all(leq[i][j] == leq[q[i]][q[j]] for i in range(n) for j in range(n))]
        gens = [autos[rng.randrange(len(autos))] for _ in range(2)]

        def lift(q, m):
            return sum(1 << q[i] for i in range(n) if (m >> i) & 1)

        gamma = [[index[lift(q, m)] for m in masks] for q in gens]
        family, frontier = set(), [rng.randrange(len(masks)) for _ in range(2)]
        while frontier:
            x = frontier.pop()
            if x not in family:
                family.add(x)
                frontier.extend(g[x] for g in gamma)
        family = sorted(family)
        pos = {f: a for a, f in enumerate(family)}
        orbit = list(range(len(family)))
        for _ in family:
            for g in gamma:
                for a, f in enumerate(family):
                    b = pos[g[f]]
                    orbit[a] = orbit[b] = min(orbit[a], orbit[b])
        offset = {r: rng.choice((0, 0, 1, 2)) for r in set(orbit)}
        relabel = [0]
        for _ in range(n):
            relabel.append(relabel[-1] + (rng.random() < 0.5 if class_joins else 1))
        values = [[relabel[(x & ~masks[f]).bit_count()] + offset[orbit[a]]
                   for a, f in enumerate(family)] for x in masks]
        if class_joins:
            increment = []
            for xi in range(len(masks)):
                row = []
                for a in range(len(family)):
                    join = 0
                    for yi, y in enumerate(masks):
                        if values[yi][a] == values[xi][a]:
                            join |= y
                    row.append(index[join])
                increment.append(row)
        else:
            increment = [[index[x | masks[f]] for f in family] for x in masks]
        return {"kind": "abstract",
                "abstract": {
                    "size": len(masks),
                    "meet_table": [[index[x & y] for y in masks] for x in masks],
                    "family": family,
                    "delta_table": [[[v] for v in row] for row in values],
                    "increment_table": increment,
                    "gamma": gamma,
                },
                "options": dict(PROOF_OPTIONS)}
    return make


# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, List[Rung]] = {
    "sets-wide": [
        Rung("set-c512-o64", _dihedral_set(512, 32), cli=True),
        Rung("set-c1024-o64", _dihedral_set(1024, 32), cli=True),
        Rung("set-c2048-o32", _dihedral_set(2048, 16), cli=True),
        Rung("set-c4096-o16", _dihedral_set(4096, 8)),
        Rung("set-c1024-o128", _dihedral_set(1024, 64)),
    ],
    "groups-conj": [
        Rung("galois-s5-stab-t", _sym_family("galois", 5, [_stabiliser_gens(5)], "t"),
             cli=True),
        Rung("group-s6-v4-c", _sym_family("group", 6, [[[[0, 1], [2, 3]], [[0, 2], [1, 3]]]],
                                          "c"), cli=True),
        Rung("galois-s6-c3-tc", _sym_family("galois", 6, [[[[0, 1, 2]]]], "tc"), cli=True),
        Rung("group-s6-c2x-tc", _sym_family("group", 6, [[[[0, 1], [2, 3]]]], "tc")),
        Rung("group-s7-c2-tc", _sym_family("group", 7, [[[[0, 1]]]], "tc")),
    ],
    # Five independent draws of the rung that sets p50 (vector-f2-d10), with
    # as many files below it as above, so the median lands in the middle
    # draw's samples rather than between two draws.  set-c75-f15 is drawn
    # twice; it is one of the four rungs of similar cost that set p90.
    "proof-both": [
        Rung("tabular-p5-union", _tabular(5, False), cli=True),
        Rung("tabular-p5-classes", _tabular(5, True), cli=True),
        Rung("set-c60-f12-a", _shift_set(60, 12), cli=True),
        Rung("set-c60-f12-b", _shift_set(60, 12)),
        Rung("vector-f2-d10-a", _shift_vector(2, 10)),
        Rung("vector-f2-d10-b", _shift_vector(2, 10)),
        Rung("vector-f2-d10-c", _shift_vector(2, 10)),
        Rung("vector-f2-d10-d", _shift_vector(2, 10)),
        Rung("vector-f2-d10-e", _shift_vector(2, 10)),
        Rung("vector-f3-d11", _shift_vector(3, 11)),
        Rung("vector-f5-d11", _shift_vector(5, 11)),
        Rung("set-c75-f15-a", _shift_set(75, 15)),
        Rung("set-c75-f15-b", _shift_set(75, 15)),
    ],
}


def generate(workload: str, seed: int) -> List[Tuple[str, str, bool]]:
    """(file name, JSON text, in CLI subset) for every rung of the workload."""
    out = []
    for i, rung in enumerate(WORKLOADS[workload]):
        rng = random.Random(f"{workload}/{seed}/{rung.name}")
        text = json.dumps(rung.make(rng), sort_keys=True, separators=(",", ":"))
        out.append((f"{i:02d}-{rung.name}.json", text + "\n", rung.cli))
    return out
