"""Subsets of a finite carrier, packed as int bitsets, with meet = intersection.

Meet, join and the measures are single big-int operations.  The two
operations that would otherwise walk the carrier bit by bit run as one
C-level pass over a binary string instead: `permuter` builds, once per
permutation, an `itemgetter` that gathers the image's binary digits from
the input's, and `FiniteSubset.members` lists the set bits with
`itertools.compress` over a byte-per-bit flag string.  A permutation's
gather holds O(n) indices; no lookup table grows faster than the carrier.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, List, Sequence, Tuple

from .engine import EngineOptions, Instance, orbit_closure
from .errors import EnumerationCapExceeded, StructureMismatch
from .indexposet import FrozenValue, IndexValue

MAX_CARRIER = 4096
MAX_ORACLE_CARRIER = 24
MAX_ORBIT_COUNT = 20

# bin() digits '0'/'1' to the bytes 0/1 that `compress` reads as flags.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def permuter(perm: Sequence[int]) -> Callable[[int], int]:
    """The bitset image map `bits -> bits` of a permutation of {0, ..., n-1}
    given as an image array: point i of the input lands on perm[i].

    Bit k of the image is bit inv[k] of the input.  In the zero-padded
    binary string, whose position j holds bit n-1-j, that is one gather
    of position n-1-inv[n-1-j] into position j.  Base-2 `format` and
    `int` are exempt from the interpreter's int/str digit limit.
    """
    n = len(perm)
    inv: List[int] = [-1] * n
    try:
        for i, p in enumerate(perm):
            inv[p] = i
        # n entries in [0, n) that fill every slot of inv are a bijection.
        bijective = not n or (min(perm) >= 0 and -1 not in inv)
    except IndexError:
        bijective = False
    if not bijective:
        raise StructureMismatch(f"not a permutation of the carrier: {perm}")
    if n == 0:
        # itemgetter() without arguments raises; the empty carrier has
        # the single subset 0.
        return lambda bits: bits
    gather = itemgetter(*[n - 1 - x for x in reversed(inv)])
    spec = "0%db" % n

    def image(bits: int) -> int:
        return int("".join(gather(format(bits, spec))), 2)
    return image


class FiniteSubset(FrozenValue):
    """A subset of {0, ..., carrier_size-1} stored as a bit vector."""

    __slots__ = ("carrier_size", "bits")

    def __init__(self, carrier_size: int, bits: int):
        if not 0 <= carrier_size <= MAX_CARRIER:
            raise StructureMismatch(f"carrier size {carrier_size} out of range")
        if bits < 0 or bits >> carrier_size:
            raise StructureMismatch("members outside the carrier")
        object.__setattr__(self, "carrier_size", carrier_size)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.carrier_size, self.bits) == (other.carrier_size, other.bits)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.carrier_size, self.bits))

    @classmethod
    def from_members(cls, carrier_size: int, members: Iterable[int]) -> "FiniteSubset":
        points = list(members)
        for m in points:
            if not 0 <= m < carrier_size:
                raise StructureMismatch(f"member {m} outside carrier of size {carrier_size}")
        if not points:
            return cls(carrier_size, 0)
        digits = bytearray(b"0" * (max(points) + 1))
        for m in points:
            digits[m] = ord("1")
        digits.reverse()
        return cls(carrier_size, int(digits, 2))

    def members(self) -> List[int]:
        flags = bin(self.bits)[:1:-1].encode().translate(_DIGIT_FLAGS)
        return list(compress(range(len(flags)), flags))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.carrier_size and bool((self.bits >> point) & 1)

    def _check(self, other: "FiniteSubset") -> None:
        if self.carrier_size != other.carrier_size:
            raise StructureMismatch("carrier size mismatch")

    def intersect(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check(other)
        return FiniteSubset(self.carrier_size, self.bits & other.bits)

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        self._check(other)
        return FiniteSubset(self.carrier_size, self.bits | other.bits)

    def difference_size(self, other: "FiniteSubset") -> int:
        self._check(other)
        return (self.bits & ~other.bits).bit_count()

    def apply_permutation(self, perm: Sequence[int]) -> "FiniteSubset":
        """Image of the subset under a permutation given as an image array."""
        if len(perm) != self.carrier_size:
            raise StructureMismatch("permutation degree mismatch")
        return FiniteSubset(self.carrier_size, permuter(perm)(self.bits))


def measure_set(s: FiniteSubset, t: FiniteSubset) -> Tuple[int, int]:
    """Commensurability measure pair (|s minus t|, |t minus s|)."""
    return s.difference_size(t), t.difference_size(s)


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


class SetInstance(Instance):
    """Subset family under permutations of the carrier; meet is intersection,
    delta counts the overflow |s minus f_a|, increment is union with f_a."""

    kind = "set"

    def __init__(self, carrier_size: int, seeds: Sequence[FiniteSubset],
                 gamma: Sequence[Sequence[int]],
                 options: EngineOptions | None = None):
        self.carrier_size = carrier_size
        self.options = options or EngineOptions()
        self.gamma: List[Tuple[int, ...]] = []
        self._images: List[Callable[[int], int]] = []
        for p in gamma:
            if len(p) != carrier_size:
                raise StructureMismatch(f"not a permutation of the carrier: {p}")
            self._images.append(permuter(p))
            self.gamma.append(tuple(p))
        for s in seeds:
            if s.carrier_size != carrier_size:
                raise StructureMismatch("seed carrier mismatch")
        self.family, self.action_table = orbit_closure(
            list(seeds), len(self.gamma), self.act, self.key,
            self.options.max_orbit)

    def meet(self, x: FiniteSubset, y: FiniteSubset) -> FiniteSubset:
        return x.intersect(y)

    def key(self, x: FiniteSubset):
        return x.bits

    def delta(self, x: FiniteSubset, a: int) -> IndexValue:
        return IndexValue((x.difference_size(self.family[a]),))

    def increment(self, x: FiniteSubset, a: int) -> FiniteSubset:
        return x.union(self.family[a])

    def act(self, g: int, x: FiniteSubset) -> FiniteSubset:
        return FiniteSubset(self.carrier_size, self._images[g](x.bits))

    def join_span(self) -> FiniteSubset:
        out = self.family[0]
        for f in self.family[1:]:
            out = out.union(f)
        return out

    def measure(self, x: FiniteSubset, y: FiniteSubset) -> Tuple[int, int]:
        return measure_set(x, y)

    def element_json(self, x: FiniteSubset) -> List[int]:
        return x.members()

    def candidates(self) -> List[FiniteSubset]:
        return invariant_subsets(self.carrier_size, self.gamma)

    def random_subelement(self, rng, s: FiniteSubset) -> FiniteSubset:
        bits = s.bits & rng.getrandbits(self.carrier_size) if self.carrier_size else 0
        return FiniteSubset(self.carrier_size, bits)
