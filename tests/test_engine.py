import random
from pathlib import Path

import pytest

from closeknit.engine import (DEFAULT_ORBIT_CAP, EngineOptions, _measures_of,
                              compute_m, evaluate, greatest_n, meet_of_family,
                              n_of, orbit_closure, solve, strong_elements,
                              validate_conditions, verify_certificate)
from closeknit.errors import (CloseKnitError, OrbitCapExceeded,
                              StrongSearchExhausted)
from closeknit.groups import GroupInstance, PermGroup, subgroup_from_perms
from closeknit.indexposet import nat
from closeknit.instancefiles import load_file
from closeknit.sets import FiniteSubset, SetInstance
from tests.genrandom import (random_group_instance, random_set_instance,
                             random_valid_instance, random_vector_instance)
from tests.oracles import (abstract_from_dict, brute_orbit, greedy_strong,
                           two_pass_orbit_closure)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def fs(n, members):
    return FiniteSubset.from_members(n, members)


def set6():
    return SetInstance(6, [fs(6, [0, 1, 2])], [[3, 1, 2, 0, 4, 5]])


def test_orbit_closure_worked_example():
    inst = set6()
    assert sorted(f.members() for f in inst.family) == [[0, 1, 2], [1, 2, 3]]
    # Cross-check against word-closure on the raw generators.
    oracle = brute_orbit([fs(6, [0, 1, 2])], [[3, 1, 2, 0, 4, 5]],
                         lambda g, f: f.apply_permutation(g), lambda f: f.bits)
    assert {f.bits for f in oracle} == {f.bits for f in inst.family}
    # Action table is total and correct.
    for g in range(len(inst.action_table)):
        for a, f in enumerate(inst.family):
            assert inst.act(g, f) == inst.family[inst.action_table[g][a]]


def test_orbit_closure_identity_gamma_dedupes():
    inst = SetInstance(4, [fs(4, [0]), fs(4, [0]), fs(4, [1])], [])
    assert len(inst.family) == 2


def test_orbit_cap():
    with pytest.raises(OrbitCapExceeded):
        SetInstance(6, [fs(6, [0])], [[1, 2, 3, 4, 5, 0]],
                    EngineOptions(max_orbit=3))


def test_compute_m_examples():
    inst = set6()
    s = meet_of_family(inst)
    assert compute_m(inst, s).generators == (nat(0),)
    inst2 = SetInstance(4, [fs(4, [0, 2]), fs(4, [1, 2])], [])
    assert compute_m(inst2, fs(4, [0, 2])).generators == (nat(1),)


def test_find_strong_modes_agree():
    inst = set6()
    full = meet_of_family(inst)
    greedy = greedy_strong(inst)
    assert full == greedy == fs(6, [1, 2])


def test_find_strong_singleton_family():
    inst = SetInstance(4, [fs(4, [1, 3])], [])
    assert meet_of_family(inst) == greedy_strong(inst) == fs(4, [1, 3])


def test_argmax_and_n_of_worked_example():
    inst = set6()
    s = meet_of_family(inst)
    _, argmax = evaluate(inst, s)
    assert argmax == [0, 1]
    assert n_of(inst, s, argmax) == fs(6, [1, 2])


def test_n_of_group_example():
    s3 = PermGroup(3, [[1, 0, 2], [1, 2, 0]])
    seed = subgroup_from_perms(s3, [[1, 0, 2]])
    inst = GroupInstance(s3, [seed], [[1, 2, 0]])
    s = meet_of_family(inst)
    assert len(s) == 1
    assert len(n_of(inst, s, evaluate(inst, s)[1])) == 1


def test_argmax_from_distance_tables():
    # Chain 0 < 1 < 2 < 3, family (1, 2, 3); the full meet's distance row
    # is (1, 2, 2), so the argmax indices are exactly the positions
    # holding the maximum.
    inst = abstract_from_dict({
        "size": 4,
        "meet_table": [[min(i, j) for j in range(4)] for i in range(4)],
        "family": [1, 2, 3],
        "delta_table": [[[0], [1], [2]], [[1], [2], [2]],
                        [[1], [2], [2]], [[1], [2], [3]]],
        "increment_table": [[3, 3, 3]] * 4,
        "gamma": []})
    assert evaluate(inst, 1)[1] == [1, 2]
    inst = set6()
    strong = strong_elements(inst)
    assert fs(6, [1, 2]) in strong
    with pytest.raises(StrongSearchExhausted):
        strong_elements(inst, subset_cap=2)


def test_greatest_n_two_strong_elements_distinct_n():
    # Diamond 0=bottom, 1/2 incomparable, 3=top; family (1, 2).
    # Both bottom and 1 are strong; n(bottom)=3 and n(1)=1 differ, and the
    # descent must return the larger one.  Exhaustive check over all four
    # lattice points confirms 3 is the unique greatest n among strong meets.
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    delta = [[[1], [0]], [[1], [1]], [[1], [0]], [[1], [2]]]
    inc = [[3, 2], [3, 1], [3, 2], [3, 3]]
    inst = abstract_from_dict({
        "size": 4, "meet_table": meet, "family": [1, 2],
        "delta_table": delta, "increment_table": inc, "gamma": []})
    strong = strong_elements(inst)
    assert set(strong) == {0, 1, 2}
    ns = {s: n_of(inst, s, evaluate(inst, s)[1]) for s in strong}
    assert ns == {0: 3, 1: 1, 2: 3}
    n_full = greatest_n(inst, "full")[0]
    n_proof = greatest_n(inst, "proof")[0]
    assert n_full == n_proof == 3


def test_greatest_n_descent_iterates_twice():
    # Boolean lattice on four atoms (meet = bitwise and), family of four
    # mid-level elements, no symmetry.  Hand-checked n values:
    #   element 5: distance row (0,1,1,1), argmax {1,2,3},
    #              increments (13,15,7), meet 13&15&7 = 5;
    #   element 4: row (0,1,1,0), argmax {1,2}, 13&15 = 13;
    #   element 0: row (0,0,1,0), argmax {2}, 15.
    # The descent must climb 5 -> 13 -> 15 in two genuine iterations.
    delta = [[0, 0, 1, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 2, 1, 0],
             [0, 1, 1, 0], [0, 1, 1, 1], [0, 2, 1, 0], [1, 2, 1, 1],
             [0, 0, 1, 1], [0, 0, 1, 2], [0, 2, 1, 2], [0, 2, 1, 2],
             [1, 1, 1, 1], [1, 1, 1, 2], [1, 2, 1, 2], [1, 2, 1, 2]]
    increment = [[15, 13, 15, 7], [15, 13, 15, 7], [15, 3, 15, 7],
                 [15, 15, 15, 7], [15, 13, 15, 7], [15, 13, 15, 7],
                 [15, 15, 15, 7], [15, 15, 15, 7], [15, 13, 15, 15],
                 [15, 13, 15, 15], [15, 15, 15, 15], [15, 15, 15, 15],
                 [15, 13, 15, 15], [15, 13, 15, 15], [15, 15, 15, 15],
                 [15, 15, 15, 15]]
    inst = abstract_from_dict({
        "size": 16,
        "meet_table": [[i & j for j in range(16)] for i in range(16)],
        "family": [5, 6, 10, 11],
        "delta_table": [[[v] for v in row] for row in delta],
        "increment_table": increment,
        "gamma": []})
    pool = strong_elements(inst)
    assert pool == [5, 4, 0, 2, 1]
    assert ({s: n_of(inst, s, evaluate(inst, s)[1]) for s in pool}
            == {5: 5, 4: 13, 0: 15, 2: 3, 1: 15})
    trace = []
    n_proof = greatest_n(inst, "proof", trace=trace)[0]
    descents = [t for t in trace if t["event"] == "descend"]
    assert [d["n"] for d in descents] == [13, 15]
    n_full = greatest_n(inst, "full")[0]
    assert n_proof == n_full == 15


def test_solve_modes_and_certificate():
    inst = set6()
    cert = solve(inst, mode="both", with_trace=True)
    assert cert.invariant_element == fs(6, [1, 2])
    assert cert.orbit_size == 2
    assert cert.bound == 1
    assert cert.mode_agreement is True
    assert cert.m_generators.generators == (nat(0),)
    assert cert.argmax_indices == [0, 1]
    assert any(step["event"] == "result" for step in cert.trace)
    assert verify_certificate(inst, cert)


def test_verify_rejects_tampering():
    inst = set6()
    cert = solve(inst)
    good = cert.invariant_element
    cert.invariant_element = fs(6, [0, 1, 2])  # not invariant
    assert not verify_certificate(inst, cert)
    cert.invariant_element = good
    cert.measures = [dict(m, forward=9) for m in cert.measures]
    assert not verify_certificate(inst, cert)
    both = solve(inst, mode="both")
    assert verify_certificate(inst, both)
    both.mode_agreement = False  # the two routes disagreed
    assert not verify_certificate(inst, both)


def _forged(inst, **fields):
    """A full-route certificate with the given fields replaced; a forged
    invariant element gets matching measures and bound."""
    cert = solve(inst)
    for name, value in fields.items():
        setattr(cert, name, value)
    if "invariant_element" in fields:
        cert.measures, cert.bound = _measures_of(inst, cert.invariant_element)
    return cert


def test_verify_rejects_forged_invariant_element():
    inst = set6()
    forged = fs(6, [0, 1, 2, 3])
    assert all(inst.act(g, forged) == forged for g in range(len(inst.action_table)))
    # Fixed, sandwiched and with recomputed measures: only N = n(strong) fails.
    assert not verify_certificate(inst, _forged(inst, invariant_element=forged))


def test_verify_rejects_forged_argmax_indices():
    assert not verify_certificate(set6(), _forged(set6(), argmax_indices=[0]))


def test_verify_rejects_forged_m_generators():
    inst = set6()
    assert not verify_certificate(inst, _forged(inst, m_generators=compute_m(
        inst, inst.family[0])))


def test_verify_rejects_a_strong_element_that_is_not_strong():
    # f_0 = {0,1,2} has distance row (0, 1), above the meet's (0, 0), and
    # n(f_0) = {0,1,2,3} is gamma-fixed: every clause but strongness holds.
    inst = set6()
    s = inst.family[0]
    m, argmax = evaluate(inst, s)
    cert = _forged(inst, strong_element=s, m_generators=m, argmax_indices=argmax,
                   invariant_element=n_of(inst, s, argmax))
    assert cert.invariant_element == fs(6, [0, 1, 2, 3])
    assert not verify_certificate(inst, cert)


def test_verify_accepts_proof_route_strong_elements_other_than_the_meet():
    rng = random.Random(3)
    away_from_meet = 0
    for _ in range(60):
        inst = random_valid_instance(rng)
        cert = solve(inst, mode="proof")
        assert verify_certificate(inst, cert)
        away_from_meet += cert.strong_element != meet_of_family(inst)
    assert away_from_meet > 0


@pytest.mark.parametrize("name", ["set6", "s3", "planes_f2_3", "s4_sylow"])
def test_full_solve_evaluates_the_strong_element_once(name):
    inst = load_file(str(INSTANCES / f"{name}.json")).instance
    calls = {"delta": 0, "increment": 0}
    for op in calls:
        def counted(*args, _op=op, _real=getattr(inst, op)):
            calls[_op] += 1
            return _real(*args)
        setattr(inst, op, counted)
    cert = solve(inst, mode="full")
    assert calls == {"delta": len(inst.family),
                     "increment": len(cert.argmax_indices)}
    # The recheck of n(strong) costs one more pass, since strong is the meet.
    assert verify_certificate(inst, cert)
    assert calls == {"delta": 2 * len(inst.family),
                     "increment": 2 * len(cert.argmax_indices)}


def test_solve_singleton_family_fixed():
    n = fs(5, [1, 2])
    inst = SetInstance(5, [n], [[0, 2, 1, 3, 4]])  # swap 1,2 fixes {1,2}
    cert = solve(inst, mode="both")
    assert cert.invariant_element == n
    assert cert.gamma_fixed


def test_validate_conditions_reports_notes():
    report = validate_conditions(set6(), samples=50)
    assert report.ok
    assert any("automatically" in note for note in report.notes)
    assert any("finite" in note for note in report.notes)


def test_sandwich_holds_on_examples():
    inst = set6()
    cert = solve(inst)
    n = cert.invariant_element
    assert meet_of_family(inst).difference_size(n) == 0
    assert n.difference_size(inst.join_span()) == 0


# -- orbit closure against the two-pass oracle -------------------------------

INSTANCE_FILES = sorted(INSTANCES.glob("*.json"))


@pytest.fixture
def closures(monkeypatch):
    """Route every instance constructor's orbit closure through a recorder
    that also runs the two-pass oracle on the same arguments."""
    import closeknit.abstract
    import closeknit.groups
    import closeknit.sets
    import closeknit.vect
    recorded = []

    def recording(seeds, gamma_count, act, key, cap=DEFAULT_ORBIT_CAP):
        family, action = orbit_closure(seeds, gamma_count, act, key, cap)
        o_family, o_action = two_pass_orbit_closure(seeds, gamma_count, act, key)
        recorded.append(([key(f) for f in family], action,
                         [key(f) for f in o_family], o_action))
        return family, action
    for module in (closeknit.abstract, closeknit.groups, closeknit.sets,
                   closeknit.vect):
        monkeypatch.setattr(module, "orbit_closure", recording)
    return recorded


def _assert_same_closures(recorded, at_least):
    assert len(recorded) >= at_least
    for family, action, o_family, o_action in recorded:
        assert family == o_family
        assert action == o_action


def test_orbit_closure_matches_two_pass_on_instance_files(closures):
    for path in INSTANCE_FILES:
        try:
            load_file(str(path))
        except CloseKnitError:
            continue                     # rejected on load: nothing to close
    _assert_same_closures(closures, at_least=5)


def test_orbit_closure_matches_two_pass_on_random_instances(closures):
    rng = random.Random(77)
    for _ in range(40):
        random_set_instance(rng)
        random_group_instance(rng)
        random_vector_instance(rng)
        random_valid_instance(rng)
    _assert_same_closures(closures, at_least=160)


def test_orbit_closure_matches_two_pass_on_wide_carriers(closures):
    rng = random.Random(78)
    for n in (63, 64, 65, 1000, 4096):
        shift = [(i + n // 8) % n for i in range(n)]
        reflect = list(range(n))[::-1]
        seeds = [FiniteSubset(n, rng.getrandbits(n)) for _ in range(2)]
        SetInstance(n, seeds, [shift, reflect])
    _assert_same_closures(closures, at_least=5)
