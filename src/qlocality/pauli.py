"""Phase-free Pauli arithmetic and GF(2) linear algebra on int bitsets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, NoReturn, Sequence

# A sanity bound, not an algorithmic one: each BitMatrix row is one int of 2n
# bits, so a dense matrix of 2n rows holds n²/2 bytes (5 GB at this cap).
MAX_QUBITS = 100_000

# str.translate tables: the X and Z bit of each letter as a binary digit
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")
_NOT_LETTERS = str.maketrans("", "", "IXYZ")

# Letters per parsing block.  Cutting a block into rows shifts the block's
# int once per row, so the cost per row grows with the block: at 2^16
# letters, 10^5 strings of 9 letters parsed no faster than one call per
# string, and 2^14 letters is 3x faster there while long strings still take
# few blocks.
_BLOCK_LETTERS = 1 << 14


def check_qubit_count(n: int) -> None:
    """Raise ValueError unless 0 <= n <= ``MAX_QUBITS``."""
    if not 0 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside [0, {MAX_QUBITS}]")


def checked_region(support: Iterable[int], qubits: frozenset[int]) -> Collection[int]:
    """support as a set (a set or frozenset is read in place), after one
    subset test against ``qubits`` = frozenset(range(n)): the one range test
    of a region.  A region with a qubit outside [0, n), or with a value
    that is no qubit (0.5), raises a ValueError that shows it sorted, each
    integer as an int and any other value as given."""
    region = support if isinstance(support, (set, frozenset)) else set(support)
    if not region <= qubits:
        shown = sorted(int(q) if hasattr(q, "__index__") else q for q in region)
        raise ValueError(f"region {shown} outside qubit range [0, {len(qubits)})")
    return region


def _raise_first_fault(strings: Sequence[str], n: int) -> NoReturn:
    """Raise the ValueError for the first faulty string (see ``parse_rows``)."""
    for s in strings:
        bad = s.translate(_NOT_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letter {bad[0]!r}")
        check_qubit_count(len(s))
        if len(s) != n:
            raise ValueError(f"generator {s!r} has length {len(s)}, expected {n}")
    raise AssertionError("no faulty string")


def parse_rows(strings: Sequence[str], n: int) -> list[int]:
    """Pauli strings of n letters each as packed rows x | z << n, the
    ``BitMatrix`` form; letter i of a string is qubit i.

    The strings are joined in blocks of about 2^14 letters.  A block's
    letters are checked with one translate, each half is read with one
    ``int(·, 2)``, and the block is cut into rows by shift and mask.  On a
    fault the strings are rescanned in order and a ``ValueError`` names the
    first faulty one: a bad letter, then a length over ``MAX_QUBITS``, then
    a length other than n.
    """
    if not strings:
        return []
    if n > MAX_QUBITS or any(len(s) != n for s in strings):
        _raise_first_fault(strings, n)
    rows: list[int] = []
    mask = (1 << n) - 1
    per_block = max(1, _BLOCK_LETTERS // max(n, 1))
    for start in range(0, len(strings), per_block):
        block = strings[start : start + per_block]
        # int() reads the most significant digit first, so reverse the
        # letters: string i of the block then sits at bits i*n and up
        rev = "".join(block)[::-1]
        if rev.translate(_NOT_LETTERS):
            _raise_first_fault(strings, n)
        x = int(rev.translate(_X_DIGITS) or "0", 2)
        z = int(rev.translate(_Z_DIGITS) or "0", 2)
        rows.extend((x >> i * n & mask) | (z >> i * n & mask) << n for i in range(len(block)))
    return rows


def format_supports(n: int, qubits: Sequence[int], ends: Sequence[int]) -> list[str]:
    """Pauli strings of n letters from the sparse form of
    ``SubsystemCode.support_arrays``: ``qubits`` holds each operator's X
    qubits, then its Z qubits, and ``ends[h]`` is the end of half h.  Each
    string is an I-filled buffer with X, then Z (Y where X was set), written
    in; the inverse of ``parse_rows``."""
    blank = b"I" * n
    strings = []
    for start, x_end, z_end in zip([0, *ends[1::2]], ends[::2], ends[1::2]):
        letters = bytearray(blank)
        for q in qubits[start:x_end]:
            letters[q] = 88  # X
        for q in qubits[x_end:z_end]:
            letters[q] = 89 if letters[q] == 88 else 90  # Y, Z
        strings.append(letters.decode("ascii"))
    return strings


@dataclass(frozen=True)
class PauliVector:
    """An n-qubit Pauli operator modulo phase, stored as X/Z support bitsets:
    the type of a code's logical representatives.

    Bit i of ``x_bits`` (``z_bits``) is set iff the operator acts as X (Z)
    on qubit i; a Y sets both.
    """

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self) -> None:
        check_qubit_count(self.n)
        # nonzero for a bit at or above n, and for a negative int
        if (self.x_bits | self.z_bits) >> self.n:
            raise ValueError("support bits outside qubit range")

    @classmethod
    def from_string(cls, s: str) -> PauliVector:
        """Parse a string over {I, X, Y, Z}; index 0 is the leftmost letter."""
        return cls.from_bits(len(s), parse_rows([s], len(s))[0])

    def to_string(self) -> str:
        xs, zs = list(set_bits(self.x_bits)), list(set_bits(self.z_bits))
        return format_supports(self.n, xs + zs, [len(xs), len(xs) + len(zs)])[0]

    @classmethod
    def from_bits(cls, n: int, bits: int) -> PauliVector:
        """Unpack a length-2n symplectic vector (low n bits X, high n bits Z)."""
        mask = (1 << n) - 1
        return cls(n, bits & mask, bits >> n)

    def to_bits(self) -> int:
        return self.x_bits | (self.z_bits << self.n)

    def __str__(self) -> str:
        return self.to_string()


def set_bits(v: int) -> Iterator[int]:
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """Column c of the rows as a bitmask over row indices."""
    columns = [0] * width
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            columns[low.bit_length() - 1] |= bit
            row ^= low
    return columns


def symplectic_bits(a: int, b: int, n: int) -> int:
    """Symplectic form <a, b> of two length-2n vectors (low n bits X, high n bits Z)."""
    return ((a & (b >> n)) ^ ((a >> n) & b)).bit_count() & 1


class BitMatrix:
    """A GF(2) matrix with rows packed as ints and a fixed column width.

    Rows are immutable after construction; the reduced row echelon form
    (lowest pivot column first) and the centralizer are computed once and
    cached, so membership checks and derived bases are deterministic.
    """

    def __init__(self, width: int, rows: Iterable[int] = ()) -> None:
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self.rows: tuple[int, ...] = tuple(rows)
        for r in self.rows:
            # nonzero for a bit at or above width, and for a negative int
            if r >> width:
                raise ValueError("row has bits outside matrix width")
        self._rref: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._pivot_rows: tuple[dict[int, int], int] = ({}, 0)
        self._centralizer: BitMatrix | None = None

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
        """Return (reduced rows, pivot columns); zero rows are dropped.

        Each row enters an XOR basis keyed by its lowest set bit, which gives
        an echelon form; back-substitution from the highest pivot down then
        clears every other pivot column.  The RREF of a row space under a
        fixed column order is unique, so the result does not depend on the
        order of the rows.
        """
        if self._rref is None:
            echelon: dict[int, int] = {}
            for row in self.rows:
                while row:
                    low = (row & -row).bit_length() - 1
                    pivot_row = echelon.get(low)
                    if pivot_row is None:
                        echelon[low] = row
                        break
                    row ^= pivot_row
            pivots = sorted(echelon)
            pivot_mask = sum(1 << col for col in pivots)
            for col in reversed(pivots):
                row = echelon[col]
                above = (row & pivot_mask) ^ (1 << col)
                while above:
                    low = above & -above
                    row ^= echelon[low.bit_length() - 1]
                    above ^= low
                echelon[col] = row
            self._rref = (tuple(echelon[col] for col in pivots), tuple(pivots))
            self._pivot_rows = (echelon, pivot_mask)
        return self._rref

    def pivot_rows(self) -> tuple[dict[int, int], int]:
        """The RREF as a map from pivot column to row, and the mask of the
        pivot columns; cached with the RREF."""
        self.rref()
        return self._pivot_rows

    def rank(self) -> int:
        return len(self.rref()[0])

    def row_basis(self) -> BitMatrix:
        """The RREF rows as a matrix; an RREF is its own RREF, so it is handed over."""
        basis = BitMatrix(self.width, self.rref()[0])
        basis._rref, basis._pivot_rows = self._rref, self._pivot_rows
        return basis

    def reduce_vector(self, vec: int) -> int:
        """Reduce vec against the row space; 0 means vec is in the span.

        An RREF row holds no pivot column but its own, so the rows to add
        are those of vec's own pivot bits.
        """
        by_pivot, mask = self.pivot_rows()
        hits = vec & mask
        while hits:
            low = hits & -hits
            vec ^= by_pivot[low.bit_length() - 1]
            hits ^= low
        return vec

    def contains(self, vec: int) -> bool:
        return self.reduce_vector(vec) == 0

    def nullspace(self) -> BitMatrix:
        """Basis of {v : row · v = 0 mod 2 for every row}, one vector per free
        column in ascending order: the free bit plus the pivots of the rows
        that hold it."""
        rows, pivots = self.rref()
        free = ((1 << self.width) - 1) ^ self._pivot_rows[1]
        basis: dict[int, int] = {}
        bits = free
        while bits:
            low = bits & -bits
            basis[low.bit_length() - 1] = low
            bits ^= low
        for row, col in zip(rows, pivots):
            pivot = 1 << col
            bits = row & free
            while bits:
                low = bits & -bits
                basis[low.bit_length() - 1] |= pivot
                bits ^= low
        return BitMatrix(self.width, basis.values())


def _swap_halves(bits: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((bits & mask) << n) | (bits >> n)


def centralizer(m: BitMatrix) -> BitMatrix:
    """Basis of the Paulis commuting with every row of m: m's nullspace, halves
    swapped; computed once per matrix and shared by every caller."""
    if m._centralizer is None:
        n = m.width // 2
        m._centralizer = BitMatrix(m.width, (_swap_halves(v, n) for v in m.nullspace().rows))
    return m._centralizer


class QubitColumns:
    """Per-qubit X and Z columns that decide "every Pauli on U commuting with
    ``constraints`` lies in A" for a given qubit set U, where A is a span
    that commutes with every constraint row.  The columns only reduce: a
    caller checks U's range first (``checked_region``).

    A itself is never stored: the columns are read off the stacked rows
    [L; constraints], where the rows L (``logicals``) together with the
    constraints span sup = C(A), the Paulis commuting with A.  The kernel
    of the constraints on U has dimension 2|U| - rank(constraints|_U) and
    holds A's part on U, which is the kernel of sup there, of dimension
    2|U| - rank(sup|_U).  So U passes iff the two ranks are equal.

    Each qubit gets its X and its Z column over [L; constraints], L in the
    low bits.  U's columns have rank rank(sup|_U), and in an XOR basis
    keyed by leading bit the pivots in the high bits number
    rank(constraints|_U).  U therefore fails exactly when a pivot lands in
    the low bits, and every superset fails.  A code's oracles take L to be
    its 2k logical rows (``codes.derive_stabilizer``), so the low part of
    each column has 2k bits.
    """

    def __init__(self, constraints: BitMatrix, logicals: Sequence[int]) -> None:
        if constraints.width % 2:
            raise ValueError("constraints need an even width")
        n = constraints.width // 2
        self.low = len(logicals)
        columns = transpose([*logicals, *constraints.rows], 2 * n)
        self.columns = [(columns[q], columns[q + n]) for q in range(n)]

    def extend(self, basis: dict[int, int], qubits: Iterable[int]) -> bool:
        """Add the qubits' columns to ``basis``; False iff the region fails.

        ``basis`` maps leading bit to vector, all in the high bits; after a
        False it is left part-updated and must be dropped.  A region gives
        one verdict in any qubit order and split over any number of calls.
        The qubits must lie in [0, n).
        """
        columns, low, get = self.columns, self.low, basis.get
        for q in qubits:
            for v in columns[q]:
                while v:
                    top = v.bit_length() - 1
                    pivot = get(top)
                    if pivot is None:
                        if top < low:
                            return False
                        basis[top] = v
                        break
                    v ^= pivot
        return True

    def any_fails(self, basis: dict[int, int], start: int) -> bool:
        """True iff ``extend`` would return False for some qubit from
        ``start`` to n - 1, each added alone to ``basis``, which is left
        unchanged.

        A qubit's X column reduces against ``basis``; its Z column reduces
        against ``basis`` plus the reduced X column, whose leading bit no
        pivot of ``basis`` holds.
        """
        low = self.low
        for x, z in self.columns[start:]:
            while x and (pivot := basis.get(x.bit_length() - 1)) is not None:
                x ^= pivot
            top_x = x.bit_length() - 1
            if 0 <= top_x < low:
                return True
            while z:
                top = z.bit_length() - 1
                pivot = basis.get(top)
                if pivot is None:
                    if top != top_x:
                        if top < low:
                            return True
                        break
                    pivot = x
                z ^= pivot
        return False
