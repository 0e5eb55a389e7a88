"""Law-style checks with hypothesis: down-set order laws, engine
determinism and equivariance, and the standing sandwich guarantees."""

import random

from hypothesis import given, settings, strategies as st

from closeknit.engine import meet_of_family, solve
from closeknit.indexposet import downset_of, leq, nat
from closeknit.oracle import feasible_set
from closeknit.sets import FiniteSubset, SetInstance
from tests.genrandom import (random_concrete_instance, random_group_instance,
                             random_permutation, random_set_instance)
from tests.oracles import is_subset, strictly_below


index_values = st.lists(
    st.integers(min_value=0, max_value=4), min_size=2, max_size=2).map(
        lambda xs: nat(*xs))
value_lists = st.lists(index_values, min_size=1, max_size=6)


@given(value_lists)
@settings(max_examples=200)
def test_downset_of_idempotent(values):
    d = downset_of(values)
    assert downset_of(list(d.generators)).generators == d.generators


@given(value_lists)
@settings(max_examples=200)
def test_downset_generators_form_antichain(values):
    gens = downset_of(values).generators
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j:
                assert not leq(a, b)


@given(value_lists, value_lists)
@settings(max_examples=100)
def test_strictly_below_irreflexive_and_asymmetric(xs, ys):
    d, e = downset_of(xs), downset_of(ys)
    assert not strictly_below(d, d)
    if strictly_below(d, e):
        assert not strictly_below(e, d)


@given(value_lists, value_lists, value_lists)
@settings(max_examples=100)
def test_strictly_below_transitive(xs, ys, zs):
    d, e, f = downset_of(xs), downset_of(ys), downset_of(zs)
    if strictly_below(d, e) and strictly_below(e, f):
        assert strictly_below(d, f)


@given(value_lists, value_lists)
@settings(max_examples=200)
def test_downset_equality_is_mutual_containment(xs, ys):
    d, e = downset_of(xs), downset_of(ys)
    assert (d == e) == (is_subset(d, e) and is_subset(e, d))
    # Adding values that d already holds, in any order, leaves d unchanged.
    same = downset_of([y for y in ys if y in d] + xs[::-1])
    assert same == d and is_subset(same, d) and is_subset(d, same)


@given(st.integers(min_value=0, max_value=2 ** 6 - 1),
       st.integers(min_value=0, max_value=2 ** 6 - 1))
@settings(max_examples=200)
def test_set_measure_identity(bits_a, bits_b):
    a, b = FiniteSubset(6, bits_a), FiniteSubset(6, bits_b)
    assert a.difference_size(b) == len(a) - len(a.intersect(b))


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_solve_deterministic_under_seed_and_gamma_order(rng):
    inst = random_set_instance(rng)
    n1 = solve(inst).invariant_element
    seeds = list(inst.family)
    rng.shuffle(seeds)
    gammas = [list(g) for g in inst.gamma]
    rng.shuffle(gammas)
    inst2 = SetInstance(inst.carrier_size, seeds, gammas)
    assert solve(inst2).invariant_element == n1


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_equivariance_under_relabeling(rng):
    inst = random_set_instance(rng)
    n = inst.carrier_size
    pi = random_permutation(rng, n)
    transported = SetInstance(
        n,
        [f.apply_permutation(pi) for f in inst.family],
        [[pi[g[inv]] for inv in _inverse(pi)] for g in inst.gamma])
    n1 = solve(inst).invariant_element
    n2 = solve(transported).invariant_element
    assert n1.apply_permutation(pi) == n2


def _inverse(pi):
    out = [0] * len(pi)
    for x, y in enumerate(pi):
        out[y] = x
    return out


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_solve_idempotent_on_own_output(rng):
    inst = random_set_instance(rng)
    n = solve(inst).invariant_element
    again = SetInstance(inst.carrier_size, [n], [list(g) for g in inst.gamma])
    assert solve(again).invariant_element == n


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sandwich_and_feasibility_random_concrete(rng):
    inst = random_concrete_instance(rng)
    cert = solve(inst)
    n = cert.invariant_element
    assert cert.gamma_fixed
    assert inst.leq(meet_of_family(inst), n)
    assert inst.leq(n, inst.join_span())
    assert any(n == e for e in feasible_set(inst, cert.bound))


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_quantitative_set_bound(rng):
    inst = random_set_instance(rng)
    cert = solve(inst)
    n = cert.invariant_element
    k = len(inst.family)
    d = max(f.difference_size(g) for f in inst.family for g in inst.family)
    for f in inst.family:
        assert n.difference_size(f) <= d
        assert f.difference_size(n) <= (k - 1) * d


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_group_instance_measures_are_lagrange_consistent(rng):
    inst = random_group_instance(rng)
    cert = solve(inst)
    n = cert.invariant_element
    for entry, f in zip(cert.measures, inst.family):
        inter = n.intersect(f)
        assert entry["forward"] * len(inter) == len(n)
        assert entry["backward"] * len(inter) == len(f)
