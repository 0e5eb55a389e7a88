from fractions import Fraction

import pytest

from closeknit.errors import ContractViolation, StructureMismatch
from closeknit.indexposet import IndexValue, downset_of, leq, maximal_in, nat
from tests.oracles import strictly_below


def test_leq_reflexive_and_chain():
    assert leq(nat(0), nat(0))
    assert leq(nat(2), nat(5))
    assert not leq(nat(5), nat(2))


def test_leq_antichain_pair():
    assert not leq(nat(1, 0), nat(0, 1))
    assert not leq(nat(0, 1), nat(1, 0))


def test_downset_of_shape_errors():
    with pytest.raises(StructureMismatch):
        downset_of([nat(1), nat(1, 0)])
    with pytest.raises(StructureMismatch):
        downset_of([nat(1), IndexValue((Fraction(1, 2),))])


def test_index_value_range_checks():
    with pytest.raises(StructureMismatch):
        IndexValue((-1,))
    with pytest.raises(StructureMismatch):
        IndexValue((Fraction(3, 2),))
    with pytest.raises(StructureMismatch):
        IndexValue((1, Fraction(1, 2)))


def test_downset_of_chain_maximum():
    d = downset_of([nat(0), nat(2), nat(1)])
    assert d.generators == (nat(2),)


def test_downset_of_removes_dominated():
    d = downset_of([nat(1, 0), nat(0, 1), nat(0, 0)])
    assert set(d.generators) == {nat(1, 0), nat(0, 1)}


def test_downset_of_dedupes():
    assert downset_of([nat(3), nat(3)]).generators == (nat(3),)


def test_downset_of_empty_errors():
    with pytest.raises(ContractViolation):
        downset_of([])


def test_downset_membership():
    d = downset_of([nat(1, 0), nat(0, 1)])
    assert nat(0, 0) in d
    assert nat(1, 0) in d
    assert nat(1, 1) not in d


def test_strictly_below_chain_and_equality():
    assert strictly_below(downset_of([nat(1)]), downset_of([nat(2)]))
    assert not strictly_below(downset_of([nat(2)]), downset_of([nat(2)]))


def test_strictly_below_antichain_extension():
    # Verified by expanding both down-sets over the 2x2 grid:
    # {(1,0)} covers (0,0),(1,0); adding generator (0,1) covers (0,1) too.
    small = downset_of([nat(1, 0)])
    large = downset_of([nat(1, 0), nat(0, 1)])
    grid = [nat(i, j) for i in range(2) for j in range(2)]
    assert {g.coords for g in grid if g in small} < {g.coords for g in grid if g in large}
    assert strictly_below(small, large)
    assert not strictly_below(large, small)


def test_maximal_in_examples():
    assert maximal_in(downset_of([nat(2)]), [nat(2), nat(1), nat(2)]) == [0, 2]
    d = downset_of([nat(1, 0), nat(0, 1)])
    assert maximal_in(d, [nat(1, 0), nat(0, 0), nat(0, 1)]) == [0, 2]
    assert maximal_in(downset_of([nat(0)]), [nat(0)]) == [0]


def test_maximal_in_rejects_outside_values():
    with pytest.raises(ContractViolation):
        maximal_in(downset_of([nat(1)]), [nat(2)])


def test_length_one_downsets_form_a_chain():
    # Single-coordinate values are totally ordered, so one generator
    # (the maximum) always determines the down-set.
    for values in ([nat(3), nat(1)], [nat(0)], [nat(2), nat(2), nat(5)]):
        d = downset_of(values)
        assert len(d.generators) == 1
        assert d.generators[0] == max(values, key=lambda v: v.coords)


def test_downset_idempotent():
    d = downset_of([nat(2, 0), nat(0, 3), nat(1, 1)])
    again = downset_of(list(d.generators))
    assert again.generators == d.generators
