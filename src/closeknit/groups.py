"""Finite permutation-group kernel and subgroup operations.

Permutations are image arrays; composition is (a * b)(x) = a(b(x)).
Conjugation in exponent notation is X^s = s^-1 X s.  A PermGroup
enumerates its full element table by breadth-first search from the
identity (index 0); subgroups are element-index sets over that table.

No product is computed twice on the hot paths: `closure` is Dimino's
incremental algorithm (Butler, Fundamental Algorithms for Permutation
Groups, LNCS 559, 1991), so redundant generators cost one membership
test and each element of the result is formed once; `product_set` forms
one coset x*F per left coset of S meet F in S; `index_of` is Lagrange's
|S| / |S meet T|; `normalizes` conjugates only the ambient generators.
Brute-force counterparts of each shortcut live in the test oracles.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .engine import EngineOptions, Instance, orbit_closure
from .errors import (CloseKnitError, ElementCapExceeded, EnumerationCapExceeded,
                     InvalidAction, StructureMismatch)
from .indexposet import IndexValue

Perm = Tuple[int, ...]

DEFAULT_ELEMENT_CAP = 100_000
# Largest degree an instance file may give, as sets.MAX_CARRIER for carriers.
MAX_DEGREE = 4096
MAX_ORACLE_GROUP = 96


def compose(a: Sequence[int], b: Sequence[int]) -> Perm:
    """Composite permutation applying b first, then a."""
    return tuple([a[x] for x in b])


def invert(a: Sequence[int]) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def check_perm(images: Sequence[int], degree: int) -> Perm:
    p = tuple(images)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise StructureMismatch(f"not a permutation of degree {degree}: {images}")
    return p


class PermGroup:
    """An ambient group G <= Sym(degree) with an enumerated element table."""

    def __init__(self, degree: int, generators: Iterable[Sequence[int]],
                 element_cap: int = DEFAULT_ELEMENT_CAP):
        self.degree = degree
        self.generators = [check_perm(g, degree) for g in generators]
        identity = tuple(range(degree))
        elements: List[Perm] = [identity]
        index: Dict[Perm, int] = {identity: 0}
        frontier = [identity]
        while frontier:
            new: List[Perm] = []
            for g in self.generators:
                for e in frontier:
                    prod = compose(g, e)
                    if prod not in index:
                        if len(elements) >= element_cap:
                            raise ElementCapExceeded(
                                f"group closure reached {len(elements) + 1} "
                                f"elements, past max_elements {element_cap}")
                        index[prod] = len(elements)
                        elements.append(prod)
                        new.append(prod)
            frontier = new
        self.elements: List[Perm] = elements
        self.index: Dict[Perm, int] = index

    def __len__(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return self.index[compose(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        # On demand: only coset representatives ever need an inverse.
        return self.index[invert(self.elements[i])]

    def contains_perm(self, images: Sequence[int]) -> bool:
        return tuple(images) in self.index


class Subgroup:
    """A subgroup of an ambient PermGroup as a frozen element-index set."""

    __slots__ = ("ambient", "members")

    def __init__(self, ambient: PermGroup, members: FrozenSet[int]):
        if 0 not in members:
            raise StructureMismatch("subgroup must contain the identity")
        self.ambient = ambient
        self.members = frozenset(members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self.members)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.members == other.members \
            and self.ambient is other.ambient

    def __hash__(self) -> int:
        return hash(self.members)

    def _check(self, other: "Subgroup") -> None:
        if self.ambient is not other.ambient:
            raise StructureMismatch("subgroups have different ambient groups")

    def intersect(self, other: "Subgroup") -> "Subgroup":
        self._check(other)
        return Subgroup(self.ambient, self.members & other.members)

    def perms(self) -> List[Perm]:
        return sorted(self.ambient.elements[i] for i in self.members)


def closure(gens: Iterable[int], ambient: PermGroup) -> Subgroup:
    """Smallest subgroup of the ambient group containing the given indices.

    Dimino's algorithm: a generator already in the subgroup H built so
    far is skipped; a new one extends H by whole right cosets H*x, and
    only the coset representatives x are multiplied by the generators
    kept so far.  The result is closed under right multiplication by
    every kept generator, so it is the generated subgroup.
    """
    gens = list(gens)
    for g in gens:
        if not 0 <= g < len(ambient):
            raise StructureMismatch(f"element index {g} out of range")
    mult = ambient.mult
    elements = [0]
    members = {0}
    kept: List[int] = []
    for g in gens:
        if g in members:
            continue
        kept.append(g)
        base = list(elements)
        coset = [mult(h, g) for h in base]
        elements.extend(coset)
        members.update(coset)
        # Each coset starts with its representative: base[0] is the identity.
        rep_pos = len(base)
        while rep_pos < len(elements):
            rep = elements[rep_pos]
            for k in kept:
                x = mult(rep, k)
                if x not in members:
                    coset = [mult(h, x) for h in base]
                    elements.extend(coset)
                    members.update(coset)
            rep_pos += len(base)
    return Subgroup(ambient, frozenset(members))


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


def subgroup_from_perms(ambient: PermGroup, perms: Iterable[Sequence[int]]) -> Subgroup:
    idxs = []
    for p in perms:
        key = check_perm(p, ambient.degree)
        if key not in ambient.index:
            raise StructureMismatch(f"permutation {p} is not in the ambient group")
        idxs.append(ambient.index[key])
    return closure(idxs, ambient)


def is_subgroup(ambient: PermGroup, members: FrozenSet[int]) -> bool:
    """A finite subset containing the identity and closed under products
    is a subgroup, so it suffices that it generates nothing outside itself."""
    return 0 in members and closure(members, ambient).members == members


def index_of(s: Subgroup, t: Subgroup) -> int:
    """[s : s meet t] by Lagrange's theorem (always finite here)."""
    s._check(t)
    return len(s.members) // len(s.members & t.members)


def measure_group(s: Subgroup, t: Subgroup) -> Tuple[int, int]:
    """Commensurability measure pair ([s : s meet t], [t : s meet t])."""
    return index_of(s, t), index_of(t, s)


def product_set(s: Subgroup, f: Subgroup) -> FrozenSet[int]:
    """The product set {x*y : x in s, y in f}; generally not a subgroup.

    It is the disjoint union of the cosets x*f over one x per left coset
    of s meet f in s, so each of its elements is formed exactly once.  An
    x of s already covered lies in an earlier x'*f, hence in x'*(s meet f).
    """
    s._check(f)
    mult = s.ambient.mult
    out: set = set()
    for x in s.members:
        if x not in out:
            out.update([mult(x, y) for y in f.members])
    return frozenset(out)


def coset_representatives(s: Subgroup, core: FrozenSet[int]) -> List[int]:
    """Representatives of the right cosets core*x inside s, lowest index first.

    The right-sided decomposition x = h*i with h in the core is the one
    that conjugation of the product set absorbs: core elements normalize
    both factors, so (sf)^(h*i) = (sf)^i.
    """
    amb = s.ambient
    reps: List[int] = []
    seen = set()
    for x in sorted(s.members):
        if x not in seen:
            reps.append(x)
            seen.update(amb.mult(h, x) for h in core)
    return reps


def increment_group(s: Subgroup, f: Subgroup) -> Subgroup:
    """Controlled enlargement of s toward f: the intersection of all
    conjugates (sf)^x over x in s, computed over right-coset
    representatives of s modulo s meet f.

    The result is a supergroup of s; failing the subgroup check indicates
    a kernel bug and raises.
    """
    s._check(f)
    amb = s.ambient
    mult = amb.mult
    sf = product_set(s, f)
    reps = coset_representatives(s, s.members & f.members)
    # reps[0] is the identity, whose conjugate is sf itself.  A later
    # conjugate (sf)^x keeps y exactly when x*y*x^-1 is in sf, and always
    # keeps the elements of s, so only the shrinking remainder is tested.
    result = sf
    for x in reps[1:]:
        if len(result) == len(s.members):
            break
        xinv = amb.inv(x)
        result = frozenset([y for y in result if y in s.members
                            or mult(mult(x, y), xinv) in sf])
    if not is_subgroup(amb, result):
        raise CloseKnitError("increment produced a non-subgroup; kernel bug")
    if not s.members <= result:
        raise CloseKnitError("increment lost elements of the base subgroup")
    return Subgroup(amb, result)


def conjugate_action(gamma: Sequence[int], s: Subgroup) -> Subgroup:
    """The conjugate gamma * s * gamma^-1 as a subgroup.

    gamma must normalize the ambient element set.
    """
    amb = s.ambient
    g = check_perm(gamma, amb.degree)
    g_inv = invert(g)
    members = []
    for i in s.members:
        j = amb.index.get(compose(compose(g, amb.elements[i]), g_inv))
        if j is None:
            raise InvalidAction("permutation does not normalize the ambient group")
        members.append(j)
    return Subgroup(amb, frozenset(members))


def normalizes(gamma: Sequence[int], ambient: PermGroup) -> bool:
    """Whether gamma * G * gamma^-1 = G.

    Conjugation is an injective homomorphism and G is finite, so it is
    enough that the conjugates of the generators of G stay in G.
    """
    g = check_perm(gamma, ambient.degree)
    g_inv = invert(g)
    return all(ambient.contains_perm(compose(compose(g, x), g_inv))
               for x in ambient.generators)


class GroupInstance(Instance):
    """Subgroup family under conjugation by normalizing permutations; meet is
    intersection, delta is the index [s : s meet f_a], increment the
    conjugate-intersection enlargement."""

    kind = "group"

    def __init__(self, ambient: PermGroup, seeds: Sequence[Subgroup],
                 gamma: Sequence[Sequence[int]],
                 options: EngineOptions | None = None):
        self.ambient = ambient
        self.options = options or EngineOptions()
        self.gamma: List[Perm] = []
        for g in gamma:
            perm = check_perm(g, ambient.degree)
            if not normalizes(perm, ambient):
                raise InvalidAction(
                    "symmetry generator does not normalize the ambient group")
            self.gamma.append(perm)
        for s in seeds:
            if s.ambient is not ambient:
                raise StructureMismatch("seed subgroup has a different ambient group")
        self.family, self.action_table = orbit_closure(
            list(seeds), len(self.gamma), self.act, self.key,
            self.options.max_orbit)

    def meet(self, x: Subgroup, y: Subgroup) -> Subgroup:
        return x.intersect(y)

    def key(self, x: Subgroup):
        return x.members

    def delta(self, x: Subgroup, a: int) -> IndexValue:
        return IndexValue((index_of(x, self.family[a]),))

    def increment(self, x: Subgroup, a: int) -> Subgroup:
        return increment_group(x, self.family[a])

    def act(self, g: int, x: Subgroup) -> Subgroup:
        return conjugate_action(self.gamma[g], x)

    def join_span(self) -> Subgroup:
        gens: List[int] = []
        for f in self.family:
            gens.extend(f.members)
        return closure(gens, self.ambient)

    def measure(self, x: Subgroup, y: Subgroup) -> Tuple[int, int]:
        return measure_group(x, y)

    def element_json(self, x: Subgroup) -> List[List[int]]:
        return [list(p) for p in x.perms()]

    def candidates(self) -> List[Subgroup]:
        return all_subgroups(self.ambient)

    def random_subelement(self, rng, s: Subgroup) -> Subgroup:
        members = sorted(s.members)
        picks = [m for m in members if rng.random() < 0.4]
        return closure(picks, self.ambient)
