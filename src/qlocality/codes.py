"""Subsystem codes defined by gauge generators.

A subsystem code is given by a list of gauge generators (phase-free
Paulis), held in two forms: packed GF(2) rows x | z << n
(``gauge_matrix``), which the GF(2) layer reads, and a sparse form of two
read-only intp arrays (``support_arrays``): the flat qubit list, each
generator's X qubits then its Z qubits, and the cumulative end of each
half.  The interaction index is built from the arrays with numpy, and
``to_json`` writes each generator's string from them
(``pauli.format_supports``).  A code is built in either form and
derives the other on first use, by one flat walk over each half: code
files and Pauli strings are parsed straight into rows
(``pauli.parse_rows``), and lattice families build the arrays from their
numpy index grids, so they never form an n-bit int on the geometric path.
``PauliVector`` is only the type of the logical pairs.

The gauge centralizer C(G) is computed once per code (cached on the gauge
basis) and everything else reads it: the stabilizer group is the center
G ∩ C(G), found in one pass that also keeps 2k logical rows L of C(G)
independent mod G; parameters follow from GF(2) ranks, and canonical bare
logical representatives come from a symplectic Gram-Schmidt on C(G) mod S.
Both region oracles read two cached per-qubit column sets
(``pauli.QubitColumns``): the correctable columns over [L; S], which span
C(G), and the cleanable columns over [L; G], which span C(S), so C(S) is
never built.  Distance is a depth-first search over regions in which each
child extends a copy of its parent's XOR basis by one qubit, and a
region's last qubit is tested against its parent's basis without a copy.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .pauli import (
    BitMatrix,
    PauliVector,
    QubitColumns,
    centralizer,
    check_qubit_count,
    format_supports,
    parse_rows,
    set_bits,
    symplectic_bits,
)


@dataclass(frozen=True)
class CodeParameters:
    """[[n, k, g]] data and the stabilizer rank s; the distance is ``distance``'s."""

    n: int
    k: int
    g: int
    s: int


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of the weight-capped distance search.

    ``value`` is the exact distance when found; None means every region of
    size up to ``weight_cap`` is correctable, i.e. d > weight_cap.
    """

    weight_cap: int
    value: int | None

    @property
    def is_lower_bound(self) -> bool:
        return self.value is None

    def describe(self) -> str:
        if self.value is None:
            return f"> {self.weight_cap}"
        return str(self.value)


def json_int(value: object, what: str) -> int:
    """An integer read from JSON: an int (a numpy integer too), or a float
    with no fractional part."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


# one generator's sparse form: its X qubits and its Z qubits, each sorted
Support = tuple[tuple[int, ...], tuple[int, ...]]


def _python_ints(qubits: list) -> list[int]:
    """The qubits as Python ints; a bool or a non-integer is rejected."""
    if not any(isinstance(q, bool) for q in qubits):
        try:
            return list(map(operator.index, qubits))
        except TypeError:
            pass
    raise ValueError("support qubits must be integers")


def _checked_arrays(n: int, qubits: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sparse form as two read-only intp arrays, after checking that
    the ends cut ``qubits`` into pairs of halves and that every half is an
    increasing run of integers in [0, n)."""
    flat, ends = np.asarray(qubits), np.asarray(ends)
    # a size-0 input holds no qubit to check: np.asarray([]) is float64
    if not flat.size:
        flat = flat.astype(np.intp)
    if flat.dtype.kind not in "iu":
        raise ValueError("support qubits must be integers")
    if ends.dtype.kind in "iu" or not ends.size:
        ends = ends.astype(np.intp)  # a value past intp wraps negative and fails the rise
    if (
        flat.ndim != 1
        or ends.dtype.kind not in "iu"
        or ends.ndim != 1
        or ends.size % 2
        or (np.diff(ends, prepend=0) < 0).any()
        or (ends[-1] if ends.size else 0) != flat.size
    ):
        raise ValueError(
            "support arrays must be a flat qubit list and integer ends rising "
            "from 0 to its length, two per generator"
        )

    def where(pos: int) -> str:
        half = int(np.searchsorted(ends, pos, side="right"))
        qubits = tuple(flat[ends[half - 1] if half else 0 : ends[half]].tolist())
        return f"generator {half // 2} {'XZ'[half % 2]} support {qubits}"

    # the range is checked in the given dtype, so no value wraps on the cast
    if (flat < 0).any():
        raise ValueError(f"{where(int(np.argmax(flat < 0)))} has a negative qubit")
    if (flat >= n).any():
        raise ValueError(f"{where(int(np.argmax(flat >= n)))} has a qubit outside [0, {n})")
    flat = flat.astype(np.intp)
    step = np.diff(flat)
    step[ends[(0 < ends) & (ends < flat.size)] - 1] = 1  # no step across halves
    if (step <= 0).any():
        pos = int(np.argmax(step <= 0))
        fault = "repeats a qubit" if step[pos] == 0 else "is not sorted"
        raise ValueError(f"{where(pos)} {fault}")
    flat.setflags(write=False)
    ends.setflags(write=False)
    return flat, ends


def _support_arrays(n: int, supports: Iterable[Support]) -> tuple[np.ndarray, np.ndarray]:
    """The supports as the two read-only arrays of
    ``SubsystemCode.from_support_arrays``, unchecked but for the qubits'
    type: a bool or a non-integer qubit is rejected."""
    halves = [tuple(half) for xs, zs in supports for half in (xs, zs)]
    qubits = list(itertools.chain.from_iterable(halves))
    if set(map(type, qubits)) - {int}:
        qubits = _python_ints(qubits)
    try:
        flat = np.array(qubits, dtype=np.intp)
    except OverflowError:
        # out of intp range is out of [0, n) too: -1 and n fail the same checks
        flat = np.array([min(max(q, -1), n) for q in qubits], dtype=np.intp)
    ends = np.fromiter(map(len, halves), dtype=np.intp, count=len(halves)).cumsum()
    flat.setflags(write=False)
    ends.setflags(write=False)
    return flat, ends


@dataclass(frozen=True)
class LogicalPair:
    index: int
    x_bar: PauliVector
    z_bar: PauliVector


class SubsystemCode:
    """Gauge generators plus lazily derived GF(2) structure.

    Immutable after construction; duplicate or dependent generators are
    allowed since all derived quantities use ranks.  ``gauge_matrix`` (the
    packed rows x | z << n) and ``support_arrays`` are the dense and sparse
    forms of one generator list: the constructor takes the rows,
    ``from_support_arrays`` and ``from_supports`` the sparse form, and each
    form is derived from the other on first read.
    """

    def __init__(self, n: int, rows: Iterable[int] = ()) -> None:
        """A code from packed generator rows x | z << n (the ``gauge_matrix``
        form)."""
        check_qubit_count(n)
        self.n = n
        self.gauge_matrix = BitMatrix(2 * n, rows)

    @classmethod
    def from_support_arrays(cls, n: int, qubits: np.ndarray, ends: np.ndarray) -> SubsystemCode:
        """A code from its sparse form as two integer arrays: ``qubits`` holds
        each generator's X qubits, then its Z qubits, generator by generator,
        and ``ends[h]`` is the end of half h (generator h // 2, X for even h)
        in ``qubits``.  Every half must increase strictly within [0, n).  The
        arrays are copied; rows are built only when first read."""
        check_qubit_count(n)
        code = cls.__new__(cls)
        code.n = n
        code.support_arrays = _checked_arrays(n, qubits, ends)
        return code

    @classmethod
    def from_supports(cls, n: int, supports: Iterable[Support]) -> SubsystemCode:
        """A code from each generator's sorted X and Z qubit tuples, through
        ``from_support_arrays``."""
        check_qubit_count(n)
        return cls.from_support_arrays(n, *_support_arrays(n, supports))

    @classmethod
    def from_strings(cls, generators: Iterable[str], n: int | None = None) -> SubsystemCode:
        gens = list(generators)
        if n is None:
            if not gens:
                raise ValueError("cannot infer n from an empty generator list")
            n = len(gens[0])
        return cls(n, parse_rows(gens, n))

    @cached_property
    def gauge_matrix(self) -> BitMatrix:
        """Generator rows verbatim (interactions are defined against these);
        built from ``support_arrays`` for a code built from them, one bit
        set per listed qubit."""
        n = self.n
        qubits, ends = self.support_arrays
        flat, cuts = qubits.tolist(), ends.tolist()
        rows = []
        for start, x_end, z_end in zip([0, *cuts[1::2]], cuts[::2], cuts[1::2]):
            x = z = 0
            for q in flat[start:x_end]:
                x |= 1 << q
            for q in flat[x_end:z_end]:
                z |= 1 << q
            rows.append(x | z << n)
        return BitMatrix(2 * n, rows)

    @cached_property
    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The sparse form (qubits, ends) of ``from_support_arrays``, as
        read-only intp arrays; read off the rows for a code built from them,
        by one flat walk over each half's set bits, lowest first."""
        n = self.n
        mask = (1 << n) - 1
        qubits: list[int] = []
        ends: list[int] = []
        for row in self.gauge_matrix:
            for half in row & mask, row >> n:
                while half:
                    low = half & -half
                    qubits.append(low.bit_length() - 1)
                    half ^= low
                ends.append(len(qubits))
        flat, cuts = np.array(qubits, dtype=np.intp), np.array(ends, dtype=np.intp)
        flat.setflags(write=False)
        cuts.setflags(write=False)
        return flat, cuts

    @cached_property
    def gauge_basis(self) -> BitMatrix:
        """Deterministic RREF basis of the gauge span."""
        return self.gauge_matrix.row_basis()

    @cached_property
    def _center(self) -> tuple[BitMatrix, tuple[int, ...]]:
        return derive_stabilizer(self)

    @property
    def stabilizer_basis(self) -> BitMatrix:
        return self._center[0]

    @cached_property
    def correctable_columns(self) -> QubitColumns:
        """Columns over [L; S], which span C(G): a region passes iff it is
        correctable."""
        return QubitColumns(self.stabilizer_basis, self._center[1])

    @cached_property
    def cleanable_columns(self) -> QubitColumns:
        """Columns over [L; G], which span C(S): a region passes iff it is
        dressed-cleanable."""
        return QubitColumns(self.gauge_basis, self._center[1])

    def has_abelian_gauge(self) -> bool:
        """The gauge group is abelian iff its center is its whole span."""
        return self.stabilizer_basis.rank() == self.gauge_basis.rank()

    @cached_property
    def _parameters(self) -> CodeParameters:
        r = self.gauge_basis.rank()
        s = self.stabilizer_basis.rank()
        assert (r - s) % 2 == 0, "symplectic form on the gauge span has odd rank"
        g = (r - s) // 2
        return CodeParameters(n=self.n, k=self.n - s - g, g=g, s=s)

    @cached_property
    def _interaction_index(self) -> np.ndarray:
        n = self.n
        qubits, ends = self.support_arrays
        gen_ends = ends[1::2]  # one past each generator's last position
        gen = np.bincount(gen_ends, minlength=qubits.size + 1)[: qubits.size].cumsum()
        # g * n + q per listed qubit q of generator g: increasing unless
        # some generator has both halves, which a sort and dedup merge
        keyed = gen * n + qubits
        if (keyed[1:] <= keyed[:-1]).any():
            gen, qubits = np.divmod(np.unique(keyed), n)
            gen_ends = np.bincount(gen, minlength=gen_ends.size).cumsum()
        # the qubit at position p pairs with those at p + 1 to end[p] - 1
        end = gen_ends[gen]
        later = end - 1 - np.arange(qubits.size)
        runs = later.cumsum()
        partner = np.arange(runs[-1] if runs.size else 0) + (end - runs).repeat(later)
        flat = qubits.repeat(later) * n + qubits[partner]
        # an in-place sort and a mask of where each run of equal keys starts
        # (np.unique sorts a copy and took 40 times as long on BS-300's keys)
        flat.sort()
        first = np.empty(len(flat), dtype=bool)
        first[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=first[1:])
        keys = flat[first]
        index = np.empty((len(keys), 2), dtype=np.intp)
        np.divmod(keys, n, out=(index[:, 0], index[:, 1]))
        index.setflags(write=False)
        return index

    def interaction_index(self) -> np.ndarray:
        """The read-only m x 2 array of the qubit pairs (i, j), i < j, that
        some gauge generator covers, in sorted order; built once.

        One array of integer keys i * n + j is read off ``support_arrays``
        with numpy: each generator's qubits (the sorted union of its X and Z
        halves) give the keys of their pairs, one sort groups equal keys,
        and the first of each group is a pair.
        """
        return self._interaction_index

    def to_json(self) -> dict:
        """``n`` and each generator as a Pauli string, written from
        ``support_arrays`` by ``format_supports``."""
        qubits, ends = self.support_arrays
        gens = format_supports(self.n, qubits.tolist(), ends.tolist())
        return {"n": self.n, "gauge_generators": gens}

    @classmethod
    def from_json(cls, obj: dict) -> SubsystemCode:
        try:
            n = json_int(obj["n"], "n")
            gens = obj["gauge_generators"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed code object: {exc}") from None
        if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
            raise ValueError("gauge_generators must be a list of Pauli strings")
        return cls(n, parse_rows(gens, n))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self) -> str:
        # whichever form the code was built with, so no form is derived
        built = vars(self)
        arrays = built.get("support_arrays")
        count = len(built["gauge_matrix"]) if arrays is None else arrays[1].size // 2
        return f"SubsystemCode(n={self.n}, generators={count})"


def derive_stabilizer(code: SubsystemCode) -> tuple[BitMatrix, tuple[int, ...]]:
    """Basis of the center of the gauge span (the stabilizer group, mod
    phase), and the code's 2k logical rows L.

    The center is S = G ∩ C(G).  Each basis vector of the cached C(G) is
    reduced mod G's RREF, and the reductions enter an XOR basis keyed by
    lowest set bit that carries, beside each reduction, the sum of C(G)
    vectors it reduces.  Reduction mod G is linear and the C(G) vectors are
    independent, so the sums whose reduction cancels span S.  The sums the
    basis keeps are L: 2k vectors of C(G) independent mod G ⊇ S, so L with
    S spans C(G) (of dimension 2k + s) and L with G spans C(S) (of
    dimension 2n - s = r + 2k), which is what the region oracles' columns
    need.
    """
    gauge = code.gauge_basis
    echelon: dict[int, tuple[int, int]] = {}
    stab_rows = []
    for vec in centralizer(gauge).rows:
        red = gauge.reduce_vector(vec)
        while red:
            low = (red & -red).bit_length() - 1
            entry = echelon.get(low)
            if entry is None:
                echelon[low] = (red, vec)
                break
            red ^= entry[0]
            vec ^= entry[1]
        else:
            stab_rows.append(vec)
    logicals = tuple(vec for _, vec in echelon.values())
    return BitMatrix(gauge.width, stab_rows).row_basis(), logicals


def parameters(code: SubsystemCode) -> CodeParameters:
    """(n, k, g, s) from the rank formulas, computed once per code."""
    return code._parameters


def distance(code: SubsystemCode, weight_cap: int | None = None) -> DistanceResult:
    """Minimum weight of a dressed logical operator, via region search.

    Searches for the smallest w such that some w-qubit region supports a
    stabilizer-commuting Pauli outside the gauge span, by iterative
    deepening: for w = 1, 2, ... a depth-first search over the w-subsets in
    lexicographic order, where a child copies its parent's XOR basis and
    adds one qubit's two columns (``QubitColumns.extend(child, (q,))``),
    and the last qubit is tested against the parent's basis in place
    (``QubitColumns.any_fails``).  Returns a
    "greater than weight_cap" result when no such region exists up to the
    cap (default cap: n); a negative cap raises ValueError.
    """
    if weight_cap is not None and weight_cap < 0:
        raise ValueError(f"weight_cap must be non-negative, got {weight_cap}")
    p = parameters(code)
    if p.k == 0:
        raise ValueError("distance undefined for k = 0")
    cap = code.n if weight_cap is None else min(weight_cap, code.n)
    cols = code.correctable_columns
    n = code.n

    def fails(basis: dict[int, int], start: int, left: int) -> bool:
        """True iff some ``left`` qubits from ``start`` on make the region fail."""
        if left == 1:
            return cols.any_fails(basis, start)
        for q in range(start, n - left + 1):
            child = dict(basis)
            if not cols.extend(child, (q,)) or fails(child, q + 1, left - 1):
                return True
        return False

    for w in range(1, cap + 1):
        if fails({}, 0, w):
            return DistanceResult(weight_cap=cap, value=w)
    return DistanceResult(weight_cap=cap, value=None)


def logical_representatives(code: SubsystemCode) -> list[LogicalPair]:
    """Canonical bare logical pairs via symplectic Gram-Schmidt.

    Works in the centralizer of the gauge span modulo the stabilizer;
    deterministic given the code because every intermediate basis comes
    from the cached RREF order.
    """
    p = parameters(code)
    if p.k == 0:
        raise ValueError("no logical qubits (k = 0)")
    n = code.n
    # Strip the stabilizer part: keep centralizer vectors independent mod S,
    # each reduced against the RREF of S plus the vectors kept before it.
    # That RREF grows in place: a kept vector has no pivot bit, so its lowest
    # bit is a new pivot, cleared from the rows that hold it.
    reduced, pivot_mask = code.stabilizer_basis.pivot_rows()
    reduced = dict(reduced)
    complement: list[int] = []
    for v in centralizer(code.gauge_basis).row_basis().rows:
        red = v
        for col in set_bits(v & pivot_mask):
            red ^= reduced[col]
        if red != 0:
            low = red & -red
            for col, row in reduced.items():
                if row & low:
                    reduced[col] = row ^ red
            reduced[low.bit_length() - 1] = red
            pivot_mask |= low
            complement.append(red)
    assert len(complement) == 2 * p.k, "centralizer/stabilizer dimension mismatch"

    def sym(a: int, b: int) -> int:
        return symplectic_bits(a, b, n)

    pairs = []
    pool = list(complement)
    while pool:
        u = pool.pop(0)
        partner_idx = next(i for i, v in enumerate(pool) if sym(u, v) == 1)
        v = pool.pop(partner_idx)
        pool = [w ^ (sym(w, v) * u) ^ (sym(w, u) * v) for w in pool]
        pairs.append((u, v))
    out = []
    for idx, (u, v) in enumerate(pairs):
        out.append(
            LogicalPair(
                index=idx,
                x_bar=PauliVector.from_bits(n, u),
                z_bar=PauliVector.from_bits(n, v),
            )
        )
    return out
