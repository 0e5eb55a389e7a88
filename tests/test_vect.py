import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import pytest

from closeknit.engine import (EngineOptions, solve, validate_conditions,
                              verify_certificate)
from closeknit.errors import InvalidAction, StructureMismatch
from closeknit.instancefiles import load_dict
from closeknit.vect import (SubspaceBasis, VectorInstance, add, codim,
                            intersect, matrix_action, measure_vect)
from tests.oracles import (list_rref, rows_codim, rows_sum, span_rows,
                           zassenhaus_meet)

PRIMES = (2, 3, 5, 7)


def span(p, dim, *vectors):
    return SubspaceBasis.from_vectors(p, dim, list(vectors))


def test_codim_examples():
    plane = span(2, 2, (1, 0), (0, 1))
    line = span(2, 2, (1, 0))
    assert codim(line, plane) == 0
    assert codim(plane, line) == 1
    assert codim(span(2, 2, (1, 0)), span(2, 2, (0, 1))) == 1


def test_intersect_and_sum_examples():
    s = span(2, 3, (1, 0, 0), (0, 1, 0))
    t = span(2, 3, (0, 1, 0), (0, 0, 1))
    assert intersect(s, s) == s and add(s, s) == s
    assert intersect(s, t) == span(2, 3, (0, 1, 0))
    l1, l2 = span(2, 2, (1, 0)), span(2, 2, (0, 1))
    assert add(l1, l2).rank == 2


def _generating_sets(rng, p, dim):
    """Row lists for one (p, dim): the zero space (no rows, zero rows),
    the full space, and random spans with repeated and dependent rows."""
    def vec():
        return [rng.randrange(p) for _ in range(dim)]

    ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
    out = [[], [[0] * dim, [0] * dim], ident, ident[::-1] + ident]
    for _ in range(6):
        rows = [vec() for _ in range(rng.randint(1, dim + 2))]
        dup = rows[rng.randrange(len(rows))]
        scaled = [(rng.randrange(1, p) * x) % p for x in dup]
        out.append(rows + [dup, scaled])
    return out


def _cases(seed):
    rng = random.Random(seed)
    for p in PRIMES:
        for dim in range(13):
            sets = _generating_sets(rng, p, dim)
            for vs in sets:
                yield p, dim, vs, sets[rng.randrange(len(sets))]


def test_dimension_formula():
    for p, dim, vs, ws in _cases(2):
        s, t = span(p, dim, *vs), span(p, dim, *ws)
        assert s.rank + t.rank == intersect(s, t).rank + add(s, t).rank


def test_kernel_matches_list_oracle():
    # Packed F_2 rows and the rank-only codimension against the list
    # Gauss-Jordan route with the Zassenhaus meet, for every p.
    for p, dim, vs, ws in _cases(3):
        s, t = span(p, dim, *vs), span(p, dim, *ws)
        s_rows, t_rows = span_rows(p, dim, vs), span_rows(p, dim, ws)
        assert s.rows == s_rows and t.rows == t_rows
        assert SubspaceBasis(p, dim, s_rows) == s
        assert intersect(s, t).rows == zassenhaus_meet(p, dim, s_rows, t_rows)
        assert add(s, t).rows == rows_sum(p, dim, s_rows, t_rows)
        forward = rows_codim(p, dim, s_rows, t_rows)
        backward = rows_codim(p, dim, t_rows, s_rows)
        assert codim(s, t) == forward
        assert measure_vect(s, t) == (forward, backward)
        assert (intersect(s, t) == s) == (forward == 0)
        # A subspace built from its own RREF rows behaves the same.
        direct = SubspaceBasis(p, dim, s_rows)
        assert intersect(direct, t) == intersect(s, t)
        assert add(t, direct) == add(t, s)


def test_ranks_match_sympy_over_gf_p():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def rank(p, dim, rows):
        field = sympy.GF(p)
        return DomainMatrix([[field(x) for x in r] for r in rows],
                            (len(rows), dim), field).rank()

    for p, dim, vs, ws in _cases(4):
        s, t = span(p, dim, *vs), span(p, dim, *ws)
        assert s.rank == rank(p, dim, vs)
        assert codim(s, t) == rank(p, dim, vs + ws) - rank(p, dim, ws)


def test_canonical_equality():
    a = span(3, 2, (1, 1), (0, 1))
    b = span(3, 2, (2, 0), (1, 2))
    assert a.rows == b.rows == ((1, 0), (0, 1))


def test_matrix_action_examples():
    s = span(2, 3, (1, 0, 0), (0, 1, 0))
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_action(ident, s) == s
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]  # e1->e2, e2->e3, e3->e1
    assert matrix_action(cyc, s) == span(2, 3, (0, 1, 0), (0, 0, 1))
    scalar = [[2, 0], [0, 2]]
    line = span(3, 2, (1, 2))
    assert matrix_action(scalar, line) == line


def test_singular_matrix_rejected():
    s = span(2, 2, (1, 0))
    with pytest.raises(InvalidAction):
        matrix_action([[1, 1], [1, 1]], s)


def test_generator_rank_checked_once(monkeypatch):
    # VectorInstance checks each generator when it is built; act and the
    # solve apply the checked matrices without a second elimination.
    import closeknit.vect as vect
    calls = []
    real = vect.matrix_rank
    monkeypatch.setattr(vect, "matrix_rank",
                        lambda *args: calls.append(args) or real(*args))
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    inst = VectorInstance(2, 3, [span(2, 3, (1, 0, 0), (0, 1, 0))], [cyc, cyc])
    assert len(calls) == 2
    cert = solve(inst, mode="both")
    assert verify_certificate(inst, cert)
    assert len(calls) == 2
    with pytest.raises(InvalidAction):
        VectorInstance(2, 2, [span(2, 2, (1, 0))], [[[1, 1], [1, 1]]])


class _CountingModulus(int):
    """An int that counts the remainders taken with it on the left; in
    `vect` those are exactly `is_prime`'s trial divisions."""

    divisions = 0

    def __mod__(self, other):
        _CountingModulus.divisions += 1
        return int(self) % other


def test_check_trial_divides_a_large_prime_once():
    # `check` on a two-dimensional file over F_p builds hundreds of
    # subspaces; p = 2^31 - 1 needs about 46,000 trial divisions, and the
    # check must pay them at most once, not once per subspace.
    p = _CountingModulus(2 ** 31 - 1)
    _CountingModulus.divisions = 0
    loaded = load_dict({"kind": "vector", "vector": {
        "p": p, "dim": 2, "seeds": [[[1, 5]], [[3, 1]]]}})
    report = validate_conditions(loaded.instance, samples=200)
    assert report.ok and report.checked_pairs > 0
    assert _CountingModulus.divisions <= math.isqrt(p)
    composite = 65537 ** 2
    for _ in range(2):  # the second round answers from the memo
        with pytest.raises(StructureMismatch):
            SubspaceBasis.zero(composite, 2)
        with pytest.raises(StructureMismatch):
            SubspaceBasis.from_vectors(composite, 2, [[1, 0]])


def test_shape_mismatch():
    with pytest.raises(StructureMismatch):
        intersect(span(2, 2, (1, 0)), span(2, 3, (1, 0, 0)))
    with pytest.raises(StructureMismatch):
        span(4, 2, (1, 0))  # 4 is not prime


def test_condition_three_for_sum_exhaustive_f2_3():
    from closeknit.vect import all_subspaces
    spaces = all_subspaces(2, 3)
    for t in spaces:
        for s in spaces:
            if codim(t, s):
                continue
            for f in spaces:
                if codim(t, f) == codim(s, f):
                    assert add(t, f) == add(s, f)


def test_equivariance_under_change_of_basis():
    # Transporting the whole instance through an invertible matrix P
    # transports the answer.
    from closeknit.engine import solve as solve_engine
    p_mat = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]  # invertible over F2
    p_inv = [[1, 1, 0], [0, 1, 0], [1, 1, 1]]
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) % 2
                 for j in range(3)] for i in range(3)]

    assert mul(p_mat, p_inv) == ident
    seed = span(2, 3, (1, 0, 0), (0, 1, 0))
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    inst = VectorInstance(2, 3, [seed], [cyc])
    transported = VectorInstance(
        2, 3, [matrix_action(p_mat, seed)], [mul(mul(p_mat, cyc), p_inv)])
    n1 = solve_engine(inst).invariant_element
    n2 = solve_engine(transported).invariant_element
    assert matrix_action(p_mat, n1) == n2


def test_solve_vector_worked_example():
    planes = span(2, 3, (1, 0, 0), (0, 1, 0))
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    inst = VectorInstance(2, 3, [planes], [cyc])
    assert len(inst.family) == 3
    cert = solve(inst, mode="both")
    assert cert.invariant_element.rank == 0
    assert cert.mode_agreement is True
    assert all(m["forward"] == 0 and m["backward"] == 2 for m in cert.measures)
    assert measure_vect(cert.invariant_element, inst.family[0]) == (0, 2)


# -- change of basis at ladder scale -------------------------------------------

def _workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _ladder_vector_files():
    gen = _workloads().generate
    return [pytest.param(seed, name, text, id=f"seed{seed}-{name[:-5]}")
            for seed in (1, 2) for name, text, _ in gen("proof-both", seed)
            if "vector-f2-d10" in name or "vector-f3-d11" in name
            or "vector-f5-d11" in name]


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def _inverse(a, p):
    dim = len(a)
    aug = [list(row) + [int(i == j) for j in range(dim)]
           for i, row in enumerate(a)]
    reduced = list_rref(aug, p, 2 * dim)
    assert [r[:dim] for r in reduced] == [[int(i == j) for j in range(dim)]
                                         for i in range(dim)]
    return [r[dim:] for r in reduced]


def _solve_rows(p, dim, seeds, gamma):
    inst = VectorInstance(p, dim, [span(p, dim, *v) for v in seeds], gamma)
    cert = solve(inst, mode="both", options=EngineOptions(strong_subset_cap=1 << 16))
    assert cert.mode_agreement is True
    pairs = sorted((m["forward"], m["backward"]) for m in cert.measures)
    return cert, pairs


@pytest.mark.parametrize("seed,name,text", _ladder_vector_files())
def test_ladder_rung_change_of_basis(seed, name, text):
    # Seeds S -> A S and gamma g -> A g A^-1 for a seeded random invertible
    # A: the answer N must go to A N with the same bound, orbit size and
    # measures.  A kernel fault that commutes with every change of basis
    # is not caught here.
    block = json.loads(text)["vector"]
    p, dim = block["p"], block["dim"]
    rng = random.Random(f"{seed}/{name}")
    while True:
        a = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if len(list_rref(a, p, dim)) == dim:
            break
    a_inv = _inverse(a, p)
    a_t = [list(col) for col in zip(*a)]  # rows v -> rows (A v)^T = v A^T
    cert, pairs = _solve_rows(p, dim, block["seeds"], block["gamma"])
    moved_seeds = [_mat_mul(seed_rows, a_t, p) for seed_rows in block["seeds"]]
    moved_gamma = [_mat_mul(_mat_mul(a, g, p), a_inv, p) for g in block["gamma"]]
    moved, moved_pairs = _solve_rows(p, dim, moved_seeds, moved_gamma)
    image = _mat_mul(cert.invariant_element.rows, a_t, p)
    assert moved.invariant_element.rows == span_rows(p, dim, image)
    assert moved.bound == cert.bound
    assert moved.orbit_size == cert.orbit_size
    assert moved_pairs == pairs
