"""Points of the index poset and finitely generated down-sets.

Index values are fixed-length vectors ordered componentwise.  Levels are
either non-negative integers (the discrete instantiations) or exact
rationals in [0, 1] (the metric evaluators).  A value's shape is its
length and level type.  Each value checks its own levels once, when it
is constructed; values of one problem share one shape, and `downset_of`
checks that once per down-set, so `leq` only compares coordinates.  A
down-set is stored by its antichain of maximal generators, sorted, which
determines it completely: two down-sets of one shape are equal exactly
when their generators are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import ContractViolation, StructureMismatch

Level = Union[int, Fraction]


class FrozenValue:
    """Immutable value with its fields in `__slots__`: assignment and
    deletion raise AttributeError, and the repr lists the fields.
    Subclasses define `__eq__` and `__hash__` over the field tuple."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class IndexValue(FrozenValue):
    """One point of the index poset: a fixed-length vector of levels."""

    __slots__ = ("coords",)

    def __init__(self, coords: Tuple[Level, ...]):
        object.__setattr__(self, "coords", coords)
        # One method per construction: the benchmark's tracer counts index
        # values by wrapping `__post_init__`.
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __post_init__(self):
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        kinds = {type(c) for c in self.coords}
        if not kinds <= {int, Fraction}:
            raise StructureMismatch(f"unsupported level types: {kinds}")
        if len(kinds) > 1:
            raise StructureMismatch("mixed level kinds in one index value")
        for c in self.coords:
            if isinstance(c, Fraction):
                if not 0 <= c <= 1:
                    raise StructureMismatch(f"rational level {c} outside [0,1]")
            elif c < 0:
                raise StructureMismatch(f"negative natural level {c}")

    @property
    def shape(self) -> Tuple[int, type]:
        """(length, level type); an empty value counts as integer-levelled."""
        coords = self.coords
        return len(coords), type(coords[0]) if coords else int

    def __len__(self) -> int:
        return len(self.coords)


def leq(xi: IndexValue, zeta: IndexValue) -> bool:
    """Componentwise order: every coordinate of xi at most the one of zeta.

    Both values must have the same shape; this is not checked here.
    """
    return all(a <= b for a, b in zip(xi.coords, zeta.coords))


class DownSet(FrozenValue):
    """Downward closure of finitely many index values, kept as an antichain.

    Membership: xi is in the down-set iff xi <= g for some generator g.
    """

    __slots__ = ("generators",)

    def __init__(self, generators: Tuple[IndexValue, ...]):
        object.__setattr__(self, "generators", generators)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.generators == other.generators
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.generators,))

    def __contains__(self, xi: IndexValue) -> bool:
        return any(leq(xi, g) for g in self.generators)


def downset_of(values: Iterable[IndexValue]) -> DownSet:
    """Down-set generated by the given values (generators = maximal elements).

    Raises StructureMismatch when the values have more than one shape.
    """
    vals = list(values)
    if not vals:
        raise ContractViolation("down-set requires a non-empty value list")
    if len({v.shape for v in vals}) > 1:
        raise StructureMismatch("down-set values mix index-value shapes")
    maximal: List[IndexValue] = []
    for v in vals:
        if any(leq(v, m) for m in maximal):
            continue
        maximal = [m for m in maximal if not leq(m, v)]
        maximal.append(v)
    # Deterministic generator order regardless of input order.
    maximal.sort(key=lambda iv: tuple(iv.coords))
    return DownSet(tuple(maximal))


def maximal_in(d: DownSet, values: Sequence[IndexValue]) -> List[int]:
    """Indices of the values that are generators (maximal elements) of d.

    Every value must already belong to d.
    """
    for i, v in enumerate(values):
        if v not in d:
            raise ContractViolation(f"value #{i} {v.coords} lies outside the down-set")
    gens = set(d.generators)
    return [i for i, v in enumerate(values) if v in gens]


def nat(*coords: int) -> IndexValue:
    """Shorthand for an integer-levelled index value."""
    return IndexValue(tuple(int(c) for c in coords))
