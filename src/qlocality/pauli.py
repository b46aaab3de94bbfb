"""Phase-free Pauli arithmetic and GF(2) linear algebra on int bitsets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_QUBITS = 4096

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}


@dataclass(frozen=True)
class PauliVector:
    """An n-qubit Pauli operator modulo phase, stored as X/Z support bitsets.

    Bit i of ``x_bits`` (``z_bits``) is set iff the operator acts as X (Z)
    on qubit i; a Y sets both.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count {self.n} outside [0, {MAX_QUBITS}]")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("support bits outside qubit range")

    @classmethod
    def identity(cls, n: int) -> PauliVector:
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, s: str) -> PauliVector:
        """Parse a string over {I, X, Y, Z}; index 0 is the leftmost letter."""
        x = z = 0
        for i, letter in enumerate(s):
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {letter!r}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(s), x, z)

    def to_string(self) -> str:
        return "".join(
            _BITS_LETTER[(self.x_bits >> i & 1, self.z_bits >> i & 1)]
            for i in range(self.n)
        )

    @classmethod
    def from_bits(cls, n: int, bits: int) -> PauliVector:
        """Unpack a length-2n symplectic vector (low n bits X, high n bits Z)."""
        mask = (1 << n) - 1
        return cls(n, bits & mask, bits >> n)

    def to_bits(self) -> int:
        return self.x_bits | (self.z_bits << self.n)

    def support(self) -> frozenset[int]:
        bits = self.x_bits | self.z_bits
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return frozenset(out)

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def compose(self, other: PauliVector) -> PauliVector:
        """Phase-free product: supports combine by XOR."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return PauliVector(self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    def __mul__(self, other: PauliVector) -> PauliVector:
        return self.compose(other)

    def __str__(self) -> str:
        return self.to_string()


def symplectic_bits(a: int, b: int, n: int) -> int:
    """Symplectic form <a, b> of two length-2n vectors (low n bits X, high n bits Z)."""
    return ((a & (b >> n)) ^ ((a >> n) & b)).bit_count() & 1


def symplectic_product(p: PauliVector, q: PauliVector) -> int:
    """0 iff p and q commute (phases ignored), else 1."""
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} != {q.n}")
    return symplectic_bits(p.to_bits(), q.to_bits(), p.n)


def weight(p: PauliVector) -> int:
    """Number of qubits on which p acts non-trivially."""
    return (p.x_bits | p.z_bits).bit_count()


class BitMatrix:
    """A GF(2) matrix with rows packed as ints and a fixed column width.

    Rows are immutable after construction; the reduced row echelon form is
    computed once (lowest pivot column first) and cached, so membership
    checks and derived bases are deterministic.
    """

    def __init__(self, width: int, rows: Iterable[int] = ()) -> None:
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self.rows: tuple[int, ...] = tuple(rows)
        mask = (1 << width) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits outside matrix width")
        self._rref: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @classmethod
    def from_paulis(cls, paulis: Iterable[PauliVector], n: int) -> BitMatrix:
        return cls(2 * n, (p.to_bits() for p in paulis))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.width == other.width and self.rows == other.rows

    def __repr__(self) -> str:
        return f"BitMatrix(width={self.width}, rows={len(self.rows)})"

    def rref(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Return (reduced rows, pivot columns); zero rows are dropped."""
        if self._rref is None:
            work = list(self.rows)
            pivots: list[int] = []
            reduced: list[int] = []
            for col in range(self.width):
                bit = 1 << col
                pivot_row = None
                for idx, row in enumerate(work):
                    if row & bit:
                        pivot_row = work.pop(idx)
                        break
                if pivot_row is None:
                    continue
                reduced = [r ^ pivot_row if r & bit else r for r in reduced]
                work = [r ^ pivot_row if r & bit else r for r in work]
                reduced.append(pivot_row)
                pivots.append(col)
            self._rref = (tuple(reduced), tuple(pivots))
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[0])

    def row_basis(self) -> BitMatrix:
        return BitMatrix(self.width, self.rref()[0])

    def reduce_vector(self, vec: int) -> int:
        """Reduce vec against the row space; 0 means vec is in the span."""
        rows, pivots = self.rref()
        for row, col in zip(rows, pivots):
            if vec >> col & 1:
                vec ^= row
        return vec

    def contains(self, vec: int) -> bool:
        return self.reduce_vector(vec) == 0

    def stack(self, extra_rows: Iterable[int]) -> BitMatrix:
        return BitMatrix(self.width, self.rows + tuple(extra_rows))

    def nullspace(self) -> BitMatrix:
        """Basis of {v : row · v = 0 mod 2 for every row}."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.width) if c not in pivot_set]
        basis = []
        for f in free_cols:
            v = 1 << f
            for row, col in zip(rows, pivots):
                if row >> f & 1:
                    v |= 1 << col
            basis.append(v)
        return BitMatrix(self.width, basis)


def in_span(v: PauliVector, m: BitMatrix) -> bool:
    """True iff v is a GF(2) combination of the rows of m (phase-free)."""
    if 2 * v.n != m.width:
        raise ValueError(f"length mismatch: vector 2n={2 * v.n}, matrix width={m.width}")
    return m.contains(v.to_bits())


def _swap_halves(bits: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((bits & mask) << n) | (bits >> n)


def centralizer(m: BitMatrix) -> BitMatrix:
    """Basis of the Paulis commuting with every row of m: m's nullspace, halves swapped."""
    n = m.width // 2
    return BitMatrix(m.width, (_swap_halves(v, n) for v in m.nullspace().rows))


class QubitColumns:
    """Per-qubit X and Z columns that decide "every Pauli on U commuting with
    ``constraints`` lies in ``span``" for any qubit set U.

    ``span`` must commute with every constraint row, so the constraints lie
    in sup = C(span), the Paulis commuting with span.  The kernel of the
    constraints on U has dimension 2|U| - rank(constraints|_U) and holds
    span's part on U, which is the kernel of sup there, of dimension
    2|U| - rank(sup|_U).  So U passes iff the two ranks are equal.

    Each qubit gets its X and its Z column over the stacked rows
    [sup; constraints], constraint rows in the high bits.  U's columns have
    rank rank(sup|_U), and in an XOR basis keyed by leading bit the pivots
    in the high bits number rank(constraints|_U).  U therefore fails
    exactly when a pivot lands in the low bits, and every superset fails.
    """

    def __init__(self, constraints: BitMatrix, span: BitMatrix) -> None:
        if constraints.width % 2 or span.width != constraints.width:
            raise ValueError("constraints and span need one even width")
        n = self.n = constraints.width // 2
        sup = centralizer(span).rows
        self.low = len(sup)
        self.columns = [[0, 0] for _ in range(n)]
        for i, row in enumerate(sup + constraints.rows):
            bit = 1 << i
            while row:
                lsb = row & -row
                col = lsb.bit_length() - 1
                self.columns[col % n][col >= n] |= bit
                row ^= lsb

    def add(self, basis: dict[int, int], qubit: int) -> bool:
        """Add the qubit's two columns to ``basis``; False iff the region fails.

        ``basis`` maps leading bit to vector, all in the high bits; after a
        False it is left part-updated and must be dropped.
        """
        for v in self.columns[qubit]:
            while v:
                top = v.bit_length() - 1
                pivot = basis.get(top)
                if pivot is None:
                    if top < self.low:
                        return False
                    basis[top] = v
                    break
                v ^= pivot
        return True

    def passes(self, support: Iterable[int]) -> bool:
        """True iff every Pauli on ``support`` (a qubit set) commuting with
        the constraints lies in the span."""
        cols = set(support)
        if cols and (min(cols) < 0 or max(cols) >= self.n):
            raise ValueError(f"support {sorted(cols)} outside qubit range [0, {self.n})")
        basis: dict[int, int] = {}
        return all(self.add(basis, q) for q in cols)
