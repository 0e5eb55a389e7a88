"""Subspaces of F_p^n in canonical reduced row-echelon form.

Exact arithmetic mod a prime p; equal subspaces always have identical
row matrices, so element equality is matrix equality.

Over F_2 a subspace also holds its rows packed into ints, column 0 in
the top bit, and every elimination works on those by XOR: a row is
reduced against an echelon basis by `x = min(x, x ^ r)`, which clears
r's leading bit in x exactly when x has it set (the packed-row scheme of
M4RI).  The RREF tuples are built once per new subspace.  Odd p
eliminates on lists of residues.

Codimension and measures need ranks only: `codim(s, t)` is
`rank(s + t) - rank(t)` by the dimension formula, one elimination of
width n.  Only the meet itself needs the Zassenhaus double-block
reduction, of width 2n.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable, List, Sequence, Tuple

from .engine import EngineOptions, Instance, orbit_closure
from .errors import EnumerationCapExceeded, InvalidAction, StructureMismatch
from .indexposet import IndexValue

Vector = Tuple[int, ...]
Matrix = Tuple[Vector, ...]

# Largest field size an instance file may give: `is_prime` trial-divides
# up to its square root, about 46,000 steps, once per distinct p.
MAX_P = 2 ** 31 - 1
MAX_SPACE_POINTS = 1024
MAX_SUBSPACES = 100_000


@cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _rref(rows: List[List[int]], p: int, width: int) -> List[List[int]]:
    """In-place Gauss-Jordan over F_p; returns nonzero rows sorted by pivot."""
    pivot_row = 0
    for col in range(width):
        pivot = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(v * inv) % p for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] % p:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [row for row in rows[:pivot_row]]


def _pack(row: Sequence[int]) -> int:
    """An F_2 row as an int, column 0 in the top bit."""
    return int("".join(map(str, row)) or "0", 2)


def _echelon2(basis: List[int], rows: Iterable[int]) -> List[int]:
    """Extend an F_2 echelon basis of packed rows, in place, by `rows`.

    Each basis row must be zero at the leading bits of the rows before
    it, as RREF rows are.  Then leading bits are distinct, one pass of
    `min(x, x ^ r)` clears all of them from x, and a nonzero remainder
    is independent and is appended, keeping the condition.
    """
    for x in rows:
        for r in basis:
            x = min(x, x ^ r)
        if x:
            basis.append(x)
    return basis


def _reduced2(basis: List[int]) -> List[int]:
    """RREF of an F_2 echelon basis: rows by falling leading bit, each
    cleared at the pivots of the rows below it."""
    rows = sorted(basis, reverse=True)
    for i, x in enumerate(rows):
        for r in rows[i + 1:]:
            x = min(x, x ^ r)
        rows[i] = x
    return rows


class SubspaceBasis:
    """A subspace of F_p^dim held as a canonical RREF basis matrix.

    `bits` holds the same rows packed into ints when p is 2, else None.
    """

    __slots__ = ("p", "dim", "rows", "bits")

    def __init__(self, p: int, dim: int, rows: Matrix):
        self.p = p
        self.dim = dim
        self.rows = rows
        self.bits = tuple(map(_pack, rows)) if p == 2 else None

    @classmethod
    def _from_bits(cls, dim: int, bits: List[int]) -> "SubspaceBasis":
        """The F_2 subspace whose packed RREF rows are `bits`."""
        out = cls.__new__(cls)
        out.p = 2
        out.dim = dim
        out.bits = tuple(bits)
        form = f"0{dim}b"
        out.rows = tuple(tuple(map(int, format(x, form))) for x in bits)
        return out

    @classmethod
    def from_vectors(cls, p: int, dim: int, vectors: Sequence[Sequence[int]]) -> "SubspaceBasis":
        if not is_prime(p):
            raise StructureMismatch(f"{p} is not prime")
        work = []
        for v in vectors:
            if len(v) != dim:
                raise StructureMismatch(f"vector length {len(v)} != dim {dim}")
            work.append([x % p for x in v])
        if p == 2:
            return cls._from_bits(dim, _reduced2(_echelon2([], map(_pack, work))))
        rows = _rref(work, p, dim)
        return cls(p, dim, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, p: int, dim: int) -> "SubspaceBasis":
        if not is_prime(p):
            raise StructureMismatch(f"{p} is not prime")
        return cls(p, dim, ())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubspaceBasis) and self.p == other.p
                and self.dim == other.dim and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.p, self.dim, self.rows))

    def __repr__(self) -> str:
        return f"SubspaceBasis(p={self.p}, dim={self.dim}, rank={self.rank})"

    def _check(self, other: "SubspaceBasis") -> None:
        if self.p != other.p or self.dim != other.dim:
            raise StructureMismatch("subspace shape mismatch")

    def contains_vector(self, v: Sequence[int]) -> bool:
        """Membership by reduction against the echelon basis."""
        residue = [x % self.p for x in v]
        for row in self.rows:
            lead = next(i for i, x in enumerate(row) if x)
            if residue[lead]:
                c = residue[lead]
                residue = [(a - c * b) % self.p for a, b in zip(residue, row)]
        return not any(residue)


def intersect(s: SubspaceBasis, t: SubspaceBasis) -> SubspaceBasis:
    """Meet of two subspaces via the Zassenhaus block trick."""
    s._check(t)
    p, dim = s.p, s.dim
    if p == 2:
        # t's RREF rows, shifted, already form an echelon basis.
        block = _echelon2([r << dim for r in t.bits], [(r << dim) | r for r in s.bits])
        top = 1 << dim
        return SubspaceBasis._from_bits(dim, _reduced2([r for r in block if r < top]))
    block = [list(r) + list(r) for r in s.rows] + [list(r) + [0] * dim for r in t.rows]
    # The RREF rows with a zero left half come last, and their right
    # halves are already the RREF of the meet.
    reduced = _rref(block, p, 2 * dim)
    return SubspaceBasis(p, dim, tuple(tuple(row[dim:]) for row in reduced
                                       if not any(row[:dim])))


def add(s: SubspaceBasis, t: SubspaceBasis) -> SubspaceBasis:
    """Sum of two subspaces (the join)."""
    s._check(t)
    if s.p == 2:
        return SubspaceBasis._from_bits(s.dim, _reduced2(_echelon2(list(s.bits), t.bits)))
    return SubspaceBasis.from_vectors(s.p, s.dim, list(s.rows) + list(t.rows))


def _sum_rank(s: SubspaceBasis, t: SubspaceBasis) -> int:
    """rank(s + t), by elimination alone."""
    s._check(t)
    if s.p == 2:
        return len(_echelon2(list(t.bits), s.bits))
    return len(_rref([list(r) for r in t.rows + s.rows], s.p, s.dim))


def codim(s: SubspaceBasis, t: SubspaceBasis) -> int:
    """Codimension of the meet inside s: dim(s) - dim(s meet t), which
    the dimension formula makes rank(s + t) - rank(t)."""
    return _sum_rank(s, t) - t.rank


def measure_vect(s: SubspaceBasis, t: SubspaceBasis) -> Tuple[int, int]:
    """(codim of the meet in s, codim of the meet in t)."""
    sum_rank = _sum_rank(s, t)
    return sum_rank - t.rank, sum_rank - s.rank


def matrix_rank(m: Sequence[Sequence[int]], p: int, dim: int) -> int:
    return len(_rref([list(r) for r in m], p, dim))


def _check_invertible(m: Sequence[Sequence[int]], p: int, dim: int) -> None:
    if len(m) != dim or any(len(r) != dim for r in m):
        raise StructureMismatch("matrix shape mismatch")
    if matrix_rank(m, p, dim) != dim:
        raise InvalidAction("matrix is singular mod p")


def matrix_action(m: Sequence[Sequence[int]], s: SubspaceBasis) -> SubspaceBasis:
    """Image subspace {Mv : v in s} for an invertible matrix M over F_p."""
    _check_invertible(m, s.p, s.dim)
    return _image(m, s)


def _image(m: Sequence[Sequence[int]], s: SubspaceBasis) -> SubspaceBasis:
    """{Mv : v in s} for a matrix already checked to be invertible."""
    p, dim = s.p, s.dim
    image = []
    for v in s.rows:
        image.append([sum(m[i][j] * v[j] for j in range(dim)) % p for i in range(dim)])
    return SubspaceBasis.from_vectors(p, dim, image)


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


class VectorInstance(Instance):
    """Subspace family under invertible matrices; meet is intersection,
    delta the codimension of the meet, increment the subspace sum."""

    kind = "vector"

    def __init__(self, p: int, dim: int, seeds: Sequence[SubspaceBasis],
                 gamma: Sequence[Sequence[Sequence[int]]],
                 options: EngineOptions | None = None):
        self.p = p
        self.dim = dim
        self.options = options or EngineOptions()
        self.gamma: List[Matrix] = []
        for m in gamma:
            _check_invertible(m, p, dim)
            self.gamma.append(tuple(tuple(x % p for x in r) for r in m))
        for s in seeds:
            if s.p != p or s.dim != dim:
                raise StructureMismatch("seed subspace shape mismatch")
        self.family, self.action_table = orbit_closure(
            list(seeds), len(self.gamma), self.act, self.key,
            self.options.max_orbit)

    def meet(self, x: SubspaceBasis, y: SubspaceBasis) -> SubspaceBasis:
        return intersect(x, y)

    def key(self, x: SubspaceBasis):
        return x.rows

    def delta(self, x: SubspaceBasis, a: int) -> IndexValue:
        return IndexValue((codim(x, self.family[a]),))

    def increment(self, x: SubspaceBasis, a: int) -> SubspaceBasis:
        return add(x, self.family[a])

    def act(self, g: int, x: SubspaceBasis) -> SubspaceBasis:
        return _image(self.gamma[g], x)

    def join_span(self) -> SubspaceBasis:
        out = self.family[0]
        for f in self.family[1:]:
            out = add(out, f)
        return out

    def measure(self, x: SubspaceBasis, y: SubspaceBasis) -> Tuple[int, int]:
        return measure_vect(x, y)

    def element_json(self, x: SubspaceBasis) -> List[List[int]]:
        return [list(r) for r in x.rows]

    def candidates(self) -> List[SubspaceBasis]:
        return all_subspaces(self.p, self.dim)

    def random_subelement(self, rng, s: SubspaceBasis) -> SubspaceBasis:
        picks = [r for r in s.rows if rng.random() < 0.5]
        return SubspaceBasis.from_vectors(self.p, self.dim, picks)
