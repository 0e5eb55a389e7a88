"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from closeknit.contlogic import (MetricStructure, delta_phi_n_group,
                                 delta_phi_n_set, delta_phi_n_vect,
                                 discrete_reduction)
from closeknit.engine import meet_of_family, solve
from closeknit.galois import solve_galois
from closeknit.groups import (GroupInstance, PermGroup, all_subgroups,
                              conjugate_action, increment_group, index_of,
                              subgroup_from_perms)
from closeknit.oracle import feasible_set
from closeknit.sets import FiniteSubset, SetInstance
from closeknit.vect import all_subspaces, codim
from tests.genrandom import random_concrete_instance, random_valid_instance
from tests.oracles import (clique_delta_set, structure_from_group,
                           structure_from_sets, structure_from_subspaces,
                           subgroup_points, subspace_points)

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


def _report(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

def _rotation(n):
    return [(i + 1) % n for i in range(n)]


def _reflection(n):
    return [n - 1 - i for i in range(n)]


def _cyclic_dihedral_gammas(n):
    """Trivial, cyclic and dihedral symmetry generator lists on n points,
    produced from the fixed rotation/reflection generators and
    deduplicated by the permutation group they generate."""
    rot, ref = _rotation(n), _reflection(n)
    candidates = [[]]
    d = 1
    while d <= n:
        if n % d == 0:
            power = list(range(n))
            for _ in range(d):
                power = [rot[i] for i in power]
            candidates.append([power])
            candidates.append([power, ref])
        d += 1
    seen = set()
    out = []
    for gens in candidates:
        key = frozenset(PermGroup(n, gens).elements)
        if key not in seen:
            seen.add(key)
            out.append(gens)
    return out


@pytest.fixture(scope="module")
def set_sweep():
    """Every set instance with carrier at most 6 over the fixed symmetry
    list and every seed subset, solved once and reused by criteria 1, 6."""
    results = []
    start = time.monotonic()
    for n in range(1, 7):
        for gens in _cyclic_dihedral_gammas(n):
            for bits in range(1 << n):
                inst = SetInstance(n, [FiniteSubset(n, bits)], gens)
                results.append((inst, solve(inst)))
    return results, time.monotonic() - start


GROUP_SPECS = [
    ("S3", PermGroup(3, [[1, 0, 2], [1, 2, 0]])),
    ("D4", PermGroup(4, [[1, 2, 3, 0], [3, 2, 1, 0]])),
    ("A4", PermGroup(4, [[1, 2, 0, 3], [0, 2, 3, 1]])),
    ("S4", PermGroup(4, [[1, 0, 2, 3], [1, 2, 3, 0]])),
]


@pytest.fixture(scope="module")
def subgroup_lists():
    return {name: all_subgroups(g) for name, g in GROUP_SPECS}


@pytest.fixture(scope="module")
def inner_sweep(subgroup_lists):
    """Every subgroup of each listed group as a single seed under inner
    symmetries, solved once and reused by criteria 2 and 8."""
    results = []
    start = time.monotonic()
    for name, g in GROUP_SPECS:
        gamma = [list(p) for p in g.generators]
        for seed in subgroup_lists[name]:
            inst = GroupInstance(g, [seed], gamma)
            results.append((name, g, inst, solve(inst)))
    return results, time.monotonic() - start


# ---------------------------------------------------------------------------
# Criterion 1: fixed-point correctness on the exhaustive set sweep
# ---------------------------------------------------------------------------

def test_criterion_1_set_sweep_fixed_points(set_sweep):
    results, elapsed = set_sweep
    failures = 0
    for inst, cert in results:
        n = cert.invariant_element
        if not all(inst.act(g, n) == n
                   for g in range(len(inst.action_table))):
            failures += 1
            continue
        if not (meet_of_family(inst).difference_size(n) == 0
                and n.difference_size(inst.join_span()) == 0):
            failures += 1
            continue
        if not any(n == e for e in feasible_set(inst, cert.bound)):
            failures += 1
    assert failures == 0
    assert elapsed < 60
    _report(f"[PASS] criterion 1: {len(results)} set instances, "
            f"0 failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: inner-symmetry group sweep lands on normal subgroups
# ---------------------------------------------------------------------------

def test_criterion_2_group_sweep_normal(inner_sweep, subgroup_lists):
    results, elapsed = inner_sweep
    failures = 0
    for name, g, inst, cert in results:
        n = cert.invariant_element
        if not all(conjugate_action(p, n) == n for p in g.elements):
            failures += 1
            continue
        if not all(isinstance(m["forward"], int) and m["forward"] >= 1
                   and isinstance(m["backward"], int) and m["backward"] >= 1
                   for m in cert.measures):
            failures += 1
            continue
        feas = feasible_set(inst, cert.bound, candidates=subgroup_lists[name])
        if not any(n == e for e in feas):
            failures += 1
    assert failures == 0
    assert elapsed < 120
    _report(f"[PASS] criterion 2: {len(results)} subgroup seeds over "
            f"{len(GROUP_SPECS)} groups, 0 failures, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: equal distance forces equal increments, exhaustively
# ---------------------------------------------------------------------------

def test_criterion_3_increment_collapse_exhaustive(subgroup_lists):
    counterexamples = 0
    checked = 0
    for name, _ in GROUP_SPECS:
        subs = subgroup_lists[name]
        inc_cache = {}

        def inc(x, f):
            key = (x.members, f.members)
            if key not in inc_cache:
                inc_cache[key] = increment_group(x, f)
            return inc_cache[key]

        idx_cache = {}

        def idx(x, f):
            key = (x.members, f.members)
            if key not in idx_cache:
                idx_cache[key] = index_of(x, f)
            return idx_cache[key]

        for s in subs:
            for t in subs:
                if not t.members <= s.members:
                    continue
                for f in subs:
                    if idx(t, f) == idx(s, f):
                        checked += 1
                        if inc(t, f) != inc(s, f):
                            counterexamples += 1
    assert counterexamples == 0
    _report(f"[PASS] criterion 3: {checked} equal-distance pairs, "
            "0 counterexamples")


# ---------------------------------------------------------------------------
# Criterion 4: discrete reduction equals the counting measures
# ---------------------------------------------------------------------------

def test_criterion_4_discrete_reduction_agreement(subgroup_lists):
    mismatches = 0
    checked = 0

    for k in range(1, 6):
        family = [FiniteSubset(k, bits) for bits in range(1 << k)]
        ms = structure_from_sets(k, family)
        for s_bits in range(1 << k):
            s = FiniteSubset(k, s_bits)
            for a, f in enumerate(family):
                checked += 1
                if discrete_reduction(ms, "set", s.members(), a) != \
                        s.difference_size(f):
                    mismatches += 1

    s3 = GROUP_SPECS[0][1]
    subs = subgroup_lists["S3"]
    gms = structure_from_group(s3, subs)
    for s in subs:
        for a, f in enumerate(subs):
            checked += 1
            if discrete_reduction(gms, "group", subgroup_points(s), a) != \
                    index_of(s, f):
                mismatches += 1

    spaces = all_subspaces(2, 3)
    vms = structure_from_subspaces(2, 3, spaces)
    for s in spaces:
        pts = subspace_points(vms, s)
        for a, f in enumerate(spaces):
            checked += 1
            if discrete_reduction(vms, "vector", pts, a) != codim(s, f):
                mismatches += 1

    assert mismatches == 0
    _report(f"[PASS] criterion 4: {checked} reductions, exact agreement")


# ---------------------------------------------------------------------------
# Criterion 5: full-meet and proof routes agree
# ---------------------------------------------------------------------------

def test_criterion_5_mode_agreement():
    rng = random.Random(20250301)
    disagreements = 0
    for _ in range(500):
        inst = random_concrete_instance(rng)
        if solve(inst, mode="both").mode_agreement is not True:
            disagreements += 1
    for _ in range(200):
        inst = random_valid_instance(rng)
        if solve(inst, mode="both").mode_agreement is not True:
            disagreements += 1
    assert disagreements == 0
    _report("[PASS] criterion 5: 500 concrete + 200 tabular instances, "
            "0 mode disagreements")


# ---------------------------------------------------------------------------
# Criterion 6: quantitative sandwich bound on every solved set instance
# ---------------------------------------------------------------------------

def test_criterion_6_quantitative_set_bound(set_sweep):
    results, _ = set_sweep
    violations = 0
    for inst, cert in results:
        n = cert.invariant_element
        k = len(inst.family)
        d = max(f.difference_size(g)
                for f in inst.family for g in inst.family)
        for f in inst.family:
            if n.difference_size(f) > d or f.difference_size(n) > (k - 1) * d:
                violations += 1
    assert violations == 0
    _report(f"[PASS] criterion 6: sandwich bound on {len(results)} "
            "set instances, 0 violations")


# ---------------------------------------------------------------------------
# Criterion 7: randomized tabular instances always reach fixed points
# ---------------------------------------------------------------------------

def test_criterion_7_abstract_fixed_points():
    rng = random.Random(424242)
    failures = 0
    for _ in range(200):
        inst = random_valid_instance(rng, max_size=12, max_family=6)
        cert = solve(inst)
        fixed = feasible_set(inst, None)  # exhaustive gamma-fixed points
        if not cert.gamma_fixed or cert.invariant_element not in fixed:
            failures += 1
    assert failures == 0
    _report("[PASS] criterion 7: 200 tabular instances, all outputs are "
            "enumerated fixed points")


# ---------------------------------------------------------------------------
# Criterion 8: Galois-side core step
# ---------------------------------------------------------------------------

def test_criterion_8_galois_sylow_and_normality(inner_sweep, subgroup_lists):
    s4 = GROUP_SPECS[3][1]
    sylow = next(s for s in subgroup_lists["S4"] if len(s) == 8)
    gamma = [list(p) for p in s4.generators]
    inst = GroupInstance(s4, [sylow], gamma)
    cert, desc = solve_galois(inst)
    h = cert.invariant_element
    klein = subgroup_from_perms(s4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert h == klein
    assert all(conjugate_action(p, h) == h for p in s4.elements)
    assert all(row["index_in_stabilizer"] == 2 for row in desc["per_family"])
    assert any(h == e for e in feasible_set(inst, cert.bound,
                                            candidates=subgroup_lists["S4"]))

    results, _ = inner_sweep
    non_normal = sum(
        1 for name, g, inst, cert in results
        if not all(conjugate_action(p, cert.invariant_element)
                   == cert.invariant_element for p in g.elements))
    assert non_normal == 0
    _report("[PASS] criterion 8: Sylow-2 instance returns the normal "
            f"Klein four-group; {len(results)} inner-symmetry outputs normal")


# ---------------------------------------------------------------------------
# Criterion 9: monotone in the carrier set, antitone in the tuple length
# ---------------------------------------------------------------------------

GRID = (ZERO, HALF, ONE)


def _grid_distance_tables(k):
    pairs = list(combinations(range(k), 2))
    for values in product(GRID, repeat=len(pairs)):
        d = [[ZERO] * k for _ in range(k)]
        for (i, j), v in zip(pairs, values):
            d[i][j] = d[j][i] = v
        if all(d[i][j] <= d[i][m] + d[m][j]
               for i in range(k) for j in range(k) for m in range(k)):
            yield tuple(values), d


def _canonical_reps_with_autos(k):
    """Triangle-valid grid tables up to relabeling, with their symmetries."""
    pairs = list(combinations(range(k), 2))
    pos = {p: idx for idx, p in enumerate(pairs)}

    def permuted(values, g):
        out = [None] * len(pairs)
        for (i, j), v in zip(pairs, values):
            a, b = g[i], g[j]
            out[pos[(min(a, b), max(a, b))]] = v
        return tuple(out)

    reps = []
    seen = set()
    perms = list(permutations(range(k)))
    for values, d in _grid_distance_tables(k):
        images = {permuted(values, g) for g in perms}
        canon = min(images)
        if canon in seen:
            continue
        seen.add(canon)
        autos = [g for g in perms if permuted(values, g) == values]
        reps.append((d, autos))
    return reps


def _check_monotone_antitone(evaluate, k, n_max=4):
    """Distance values for every subset; covering-pair monotonicity and
    antitonicity in the tuple length must hold with no exceptions."""
    table = {}
    for mask in range(1 << k):
        pts = [x for x in range(k) if (mask >> x) & 1]
        table[mask] = [evaluate(pts, n) for n in range(n_max + 1)]
    bad = 0
    for mask in range(1 << k):
        for x in range(k):
            if not (mask >> x) & 1:
                bigger = mask | (1 << x)
                if any(a > b for a, b in zip(table[mask], table[bigger])):
                    bad += 1
        vs = table[mask]
        if any(vs[n + 1] > vs[n] for n in range(n_max)):
            bad += 1
    return bad, table


def test_criterion_9_monotone_antitone_exhaustive():
    violations = 0
    structures = 0
    oracle_mismatches = 0

    # Set shape: distances and formula columns both range over the grid.
    # Up to three points everything is enumerated; at four points the
    # sweep runs over relabeling classes, which is still exhaustive
    # because violations transport along relabelings.
    for k in range(1, 5):
        if k < 4:
            candidates = [(d, [tuple(range(k))])
                          for _, d in _grid_distance_tables(k)]
        else:
            candidates = _canonical_reps_with_autos(k)
        for d, autos in candidates:
            phi_seen = set()
            for phi in product(GRID, repeat=k):
                if min(tuple(phi[g[x]] for x in range(k))
                       for g in autos) != phi:
                    continue
                if phi in phi_seen:
                    continue
                phi_seen.add(phi)
                ms = MetricStructure(k, d, {"phi": [[v] for v in phi]})
                structures += 1
                col = ms.formula_column("phi", 0)
                bad, table = _check_monotone_antitone(
                    lambda pts, n: delta_phi_n_set(ms, pts, 0, None, "phi", n),
                    k)
                violations += bad
                for mask, values in table.items():
                    pts = [x for x in range(k) if (mask >> x) & 1]
                    for n in range(5):
                        if values[n] != clique_delta_set(ms, pts, col, n):
                            oracle_mismatches += 1

    # Group shape: the formula alone drives the value; mult tables for the
    # groups of order up to four, every grid formula column.
    group_tables = {
        "C2": [[0, 1], [1, 0]],
        "C3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "C4": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
        "V4": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }
    discrete = lambda k: [[ZERO if i == j else ONE for j in range(k)]
                          for i in range(k)]
    for mult in group_tables.values():
        k = len(mult)
        for phi in product(GRID, repeat=k):
            ms = MetricStructure(k, discrete(k), {"phi": [[v] for v in phi]},
                                 mult_table=mult)
            structures += 1
            bad, _ = _check_monotone_antitone(
                lambda pts, n: delta_phi_n_group(ms, pts, 0, None, "phi", n), k)
            violations += bad

    # Vector shape: full coordinate spaces with at most four points.
    vector_spaces = [(2, 1), (3, 1), (2, 2)]
    for p, dim in vector_spaces:
        coords = [list(v) for v in product(range(p), repeat=dim)]
        k = len(coords)
        for phi in product(GRID, repeat=k):
            ms = MetricStructure(k, discrete(k), {"phi": [[v] for v in phi]},
                                 p=p, coords=coords)
            structures += 1
            bad, _ = _check_monotone_antitone(
                lambda pts, n: delta_phi_n_vect(ms, pts, 0, None, "phi", n), k)
            violations += bad

    assert violations == 0
    assert oracle_mismatches == 0
    _report(f"[PASS] criterion 9: {structures} structures swept, "
            "0 monotonicity/antitonicity violations")
