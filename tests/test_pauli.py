"""Pauli bitset arithmetic against brute-force GF(2) oracles."""

import importlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlocality.codes import SubsystemCode
from qlocality.pauli import (
    MAX_QUBITS,
    BitMatrix,
    PauliVector,
    QubitColumns,
    centralizer,
    checked_region,
    format_supports,
    parse_rows,
    symplectic_bits,
)

P = PauliVector.from_string


def matrix(paulis, n):
    """The Paulis as the rows of a width-2n matrix."""
    return BitMatrix(2 * n, [p.to_bits() for p in paulis])


def sym(p, q):
    """The symplectic form of two Paulis on one qubit count."""
    return symplectic_bits(p.to_bits(), q.to_bits(), p.n)


# ── brute-force oracles ────────────────────────────────────────────────


def span_members(rows, width):
    """All 2^r vectors in the row span, by explicit enumeration."""
    members = set()
    for picks in itertools.product((0, 1), repeat=len(rows)):
        v = 0
        for take, row in zip(picks, rows):
            if take:
                v ^= row
        members.add(v)
    return members


def all_paulis_on(support, n):
    """Every Pauli supported inside the given qubit set."""
    support = sorted(support)
    for letters in itertools.product("IXYZ", repeat=len(support)):
        x = z = 0
        for q, letter in zip(support, letters):
            if letter in "XY":
                x |= 1 << q
            if letter in "ZY":
                z |= 1 << q
        yield PauliVector(n, x, z)


# ── string format ──────────────────────────────────────────────────────


def test_string_round_trip():
    for s in ["I", "X", "Y", "Z", "IXYZ", "XXZZ", "IIIII", "YZYZY"]:
        assert P(s).to_string() == s


def test_string_rejects_bad_letters():
    with pytest.raises(ValueError):
        P("XQZ")


@pytest.mark.parametrize(
    "n, x, z",
    [(3, -1, 0), (3, 0, -4), (3, 1 << 3, 0), (3, 0, 1 << 3), (0, 1, 0), (5, 1 << 70, 1), (4, -(1 << 4), 0)],
)
def test_support_bits_outside_qubit_range_raise(n, x, z):
    with pytest.raises(ValueError, match="support bits outside qubit range"):
        PauliVector(n, x, z)


@given(st.integers(0, 40), st.integers(-(1 << 50), 1 << 50), st.integers(-(1 << 50), 1 << 50))
def test_support_range_check_matches_mask(n, x, z):
    mask = (1 << n) - 1
    if x & ~mask or z & ~mask:
        with pytest.raises(ValueError):
            PauliVector(n, x, z)
    else:
        assert PauliVector(n, x, z).to_bits() == x | (z << n)


def letter_by_letter(s):
    """The per-letter parse that from_string replaced."""
    x = z = 0
    for i, letter in enumerate(s):
        x |= (letter in "XY") << i
        z |= (letter in "ZY") << i
    return PauliVector(len(s), x, z)


def test_string_parse_matches_letter_loop():
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 64, 65, 10_000):
        s = "".join(rng.choice("IXYZ") for _ in range(n))
        p = P(s)
        assert p == letter_by_letter(s)
        assert p.to_string() == s
    assert P("") == PauliVector(0, 0, 0)
    assert PauliVector(0, 0, 0).to_string() == ""


@pytest.mark.parametrize(
    "text, first_bad",
    # digits, '_', 'b' and spaces are what int(..., 2) itself would accept
    [("XQZ", "Q"), ("XQbZ", "Q"), ("xX", "x"), ("I1", "1"), ("X_Z", "_"), (" X", " "), ("0b1", "0")],
)
def test_string_error_names_first_bad_letter(text, first_bad):
    with pytest.raises(ValueError, match=f"^invalid Pauli letter {first_bad!r}$"):
        P(text)


# n from 0 to 12, and n near 5000, where 30 strings span several parsing blocks
string_lengths = st.one_of(st.integers(0, 12), st.integers(4990, 5010))


@settings(max_examples=200, deadline=None)
@given(string_lengths, st.integers(0, 30), st.randoms(use_true_random=True))
def test_parse_rows_match_from_string_bits_and_format_back(n, count, rng):
    strings = ["".join(rng.choices("IXYZ", k=n)) for _ in range(count)]
    rows = parse_rows(strings, n)
    assert rows == [P(s).to_bits() for s in strings]
    assert format_supports(n, *sparse_form(rows, n)) == strings


def sparse_form(rows, n):
    """Rows x | z << n as format_supports' flat qubit list and half ends."""
    qubits, ends = [], []
    for row in rows:
        for half in (row & ((1 << n) - 1), row >> n):
            qubits += [q for q, bit in enumerate(format(half, "b")[::-1]) if bit == "1"]
            ends.append(len(qubits))
    return qubits, ends


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 4**n - 1), max_size=8))
))
@example((0, [0, 0]))
@example((1, [0, 1, 2, 3]))
@example((3, [0b111_000, 0b000_111, 0b110_011]))
def test_format_supports_inverts_parse_rows(case):
    n, rows = case
    strings = format_supports(n, *sparse_form(rows, n))
    assert all(len(s) == n and set(s) <= set("IXYZ") for s in strings)
    assert parse_rows(strings, n) == rows


def test_bits_round_trip():
    p = P("XYZI")
    assert PauliVector.from_bits(4, p.to_bits()) == p


# ── symplectic product ─────────────────────────────────────────────────


def test_symplectic_examples():
    assert sym(P("X"), P("Z")) == 1
    assert sym(P("X"), P("X")) == 0
    assert sym(P("XX"), P("ZZ")) == 0


def test_symplectic_symmetric_bilinear_and_alternating():
    rng = random.Random(11)
    n = 6
    for _ in range(200):
        a, b, c = (rng.getrandbits(2 * n) for _ in range(3))
        mask = (1 << n) - 1
        ax, az, bx, bz = a & mask, a >> n, b & mask, b >> n
        by_halves = ((ax & bz).bit_count() + (az & bx).bit_count()) & 1
        assert symplectic_bits(a, b, n) == by_halves == symplectic_bits(b, a, n)
        assert symplectic_bits(a, a, n) == 0
        # the phase-free product of two Paulis is the XOR of their bits
        lhs = symplectic_bits(a ^ b, c, n)
        rhs = symplectic_bits(a, c, n) ^ symplectic_bits(b, c, n)
        assert lhs == rhs


# ── span membership ────────────────────────────────────────────────────


def test_in_span_examples():
    m = matrix([P("XX")], 2)
    assert m.contains(P("II").to_bits())
    assert m.contains(P("XX").to_bits())
    # hand rank check: ZZ is (0011) vs row (1100); augmenting raises the rank
    assert not m.contains(P("ZZ").to_bits())


def test_in_span_matches_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        width = rng.randrange(1, 10)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(0, 7))]
        m = BitMatrix(width, rows)
        members = span_members(rows, width)
        for _ in range(20):
            v = rng.getrandbits(width)
            assert m.contains(v) == (v in members)


def test_in_span_matches_enumeration_twelve_rows():
    rng = random.Random(43)
    width = 16
    rows = [rng.getrandbits(width) for _ in range(12)]
    m = BitMatrix(width, rows)
    members = span_members(rows, width)  # all 2^12 combinations
    hits = 0
    for _ in range(300):
        v = rng.choice(tuple(members)) if rng.random() < 0.5 else rng.getrandbits(width)
        inside = v in members
        hits += inside
        assert m.contains(v) == inside
    assert hits > 0


# ── nullspace / kernel ─────────────────────────────────────────────────


def test_nullspace_is_annihilated():
    rng = random.Random(3)
    for _ in range(30):
        width = rng.randrange(1, 12)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(0, 8))]
        m = BitMatrix(width, rows)
        kernel = m.nullspace()
        assert len(kernel.rows) == width - m.rank()
        for v in kernel.rows:
            for row in rows:
                assert (row & v).bit_count() % 2 == 0


def kernel_in_span(support, constraints, span):
    """The region predicate under test, built afresh for each question; the
    rows of C(span) with the constraints span C(span).  The support is read
    as a set and range-checked by ``checked_region``."""
    region = checked_region(support, frozenset(range(constraints.width // 2)))
    return QubitColumns(constraints, centralizer(span).rows).extend({}, region)


def brute_kernel_in_span(support, gens, span_rows, n):
    """Enumerate every Pauli on the support: each commuting one must be in the span."""
    members = span_members(span_rows, 2 * n)
    return all(
        cand.to_bits() in members
        for cand in all_paulis_on(support, n)
        if all(sym(cand, g) == 0 for g in gens)
    )


def commutant(gens, n):
    """Basis of the Paulis commuting with every generator."""
    swapped = BitMatrix(2 * n, (PauliVector(n, g.z_bits, g.x_bits).to_bits() for g in gens))
    return swapped.nullspace().rows


def test_centralizer_matches_swapped_nullspace():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(1, 7)
        gens = [
            PauliVector(n, rng.getrandbits(n), rng.getrandbits(n))
            for _ in range(rng.randrange(0, 6))
        ]
        got = centralizer(matrix(gens, n))
        assert got.row_basis() == BitMatrix(2 * n, commutant(gens, n)).row_basis()
        assert all(symplectic_bits(v, g.to_bits(), n) == 0 for v in got.rows for g in gens)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 6), st.data())
def test_any_fails_matches_extend_on_copied_basis(n, data):
    # any rows, commuting or not: the scan must agree with extend whatever
    # the columns hold; up to 2n + 2 span rows often give C(span) rows with X bits
    rows = st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=2 * n + 2)
    span = BitMatrix(2 * n, data.draw(rows))
    cols = QubitColumns(BitMatrix(2 * n, data.draw(rows)), centralizer(span).rows)
    # a basis from a region that passes: qubits that would fail are skipped
    basis: dict[int, int] = {}
    for q in data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []:
        child = dict(basis)
        if cols.extend(child, (q,)):
            basis = child
    kept = dict(basis)
    for start in range(n + 1):
        expect = any(not cols.extend(dict(basis), (q,)) for q in range(start, n))
        assert cols.any_fails(basis, start) == expect
        assert basis == kept


def random_commuting_span(rng, gens, n):
    """Random rows from the commutant of gens (the span must commute with them)."""
    basis = commutant(gens, n)
    rows = []
    for _ in range(rng.randrange(0, len(basis) + 2)):
        v = 0
        for row in basis:
            if rng.random() < 0.7:
                v ^= row
        rows.append(v)
    return rows


def test_kernel_in_span_empty_support():
    constraints = matrix([P("XX")], 2)
    assert kernel_in_span([], constraints, BitMatrix(4))


def test_kernel_in_span_no_constraints():
    n = 3
    # with nothing to commute with, the kernel is every Pauli on the support
    assert not kernel_in_span(range(n), BitMatrix(2 * n), BitMatrix(2 * n))
    full = BitMatrix(2 * n, (1 << b for b in range(2 * n)))
    assert kernel_in_span(range(n), BitMatrix(2 * n), full)


def test_kernel_in_span_single_qubit_vs_xx_zz():
    constraints = matrix([P("XX"), P("ZZ")], 2)
    # enumerating I, X, Y, Z on qubit 0: only I commutes with both
    assert kernel_in_span([0], constraints, BitMatrix(4))
    # on both qubits XX, YY and ZZ commute with both constraints
    assert not kernel_in_span([0, 1], constraints, BitMatrix(4))
    assert kernel_in_span([0, 1], constraints, matrix([P("XX"), P("ZZ")], 2))


def test_kernel_in_span_matches_brute_force():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randrange(2, 7)
        gens = [
            PauliVector(n, rng.getrandbits(n), rng.getrandbits(n))
            for _ in range(rng.randrange(0, 5))
        ]
        span_rows = random_commuting_span(rng, gens, n)
        support = {q for q in range(n) if rng.random() < 0.6}
        expected = brute_kernel_in_span(support, gens, span_rows, n)
        constraints = matrix(gens, n)
        assert kernel_in_span(support, constraints, BitMatrix(2 * n, span_rows)) == expected
        # a support with repeated qubits is read as a set
        doubled = sorted(support) * 2
        assert kernel_in_span(doubled, constraints, BitMatrix(2 * n, span_rows)) == expected


def test_kernel_in_span_eight_qubit_support():
    # the brute-force check at |support| = 8
    rng = random.Random(29)
    n = 9
    gens = [PauliVector(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(3)]
    constraints = matrix(gens, n)
    support = list(range(8))
    span_rows = commutant(gens, n)
    assert kernel_in_span(support, constraints, BitMatrix(2 * n, span_rows))
    cut = span_rows[:-1]
    expected = brute_kernel_in_span(support, gens, cut, n)
    assert kernel_in_span(support, constraints, BitMatrix(2 * n, cut)) == expected


def test_kernel_in_span_rejects_out_of_range():
    with pytest.raises(ValueError):
        kernel_in_span([5], matrix([P("XX")], 2), BitMatrix(4))


# ── size guard ─────────────────────────────────────────────────────────


def test_max_qubits_rejected():
    with pytest.raises(ValueError):
        PauliVector(MAX_QUBITS + 1, 0, 0)


def test_over_cap_string_message_is_the_qubit_count_message():
    with pytest.raises(ValueError) as parsed:
        parse_rows(["XZ", "I" * (MAX_QUBITS + 1)], 2)
    with pytest.raises(ValueError) as built:
        SubsystemCode(MAX_QUBITS + 1, [])
    assert str(parsed.value) == str(built.value) == "qubit count 100001 outside [0, 100000]"


# ── echelon form against the column scan it replaced ───────────────────


def reference_rref(rows, width):
    """Column-by-column Gauss-Jordan elimination, lowest pivot column first."""
    work = list(rows)
    pivots: list[int] = []
    reduced: list[int] = []
    for col in range(width):
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
    return tuple(reduced), tuple(pivots)


def reference_nullspace(rows, width):
    """One kernel vector per free column (ascending), tested row by row."""
    reduced, pivots = reference_rref(rows, width)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = 1 << f
        for row, col in zip(reduced, pivots):
            if row >> f & 1:
                v |= 1 << col
        basis.append(v)
    return tuple(basis)


@st.composite
def bit_matrices(draw):
    """Width 0-48; rows may be zero, repeated, or sums of other rows, and
    whole columns may be empty, so the rank is often below both sizes."""
    width = draw(st.integers(0, 48))
    columns = draw(st.integers(0, (1 << width) - 1))
    rows = [v & columns for v in draw(st.lists(st.integers(0, (1 << width) - 1), max_size=14))]
    for i, j in draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=8)):
        if rows:
            rows.append(rows[i % len(rows)] ^ rows[j % len(rows)] if i % 3 else rows[j % len(rows)])
    return width, draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(bit_matrices())
def test_rref_and_nullspace_match_column_scan(case):
    width, rows = case
    m = BitMatrix(width, rows)
    assert m.rref() == reference_rref(rows, width)
    assert m.nullspace().rows == reference_nullspace(rows, width)
    assert m.row_basis().rref() == m.rref()


def test_rref_deterministic_and_reduced():
    rng = random.Random(23)
    for _ in range(20):
        width = rng.randrange(1, 10)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 8))]
        m1, m2 = BitMatrix(width, rows), BitMatrix(width, list(rows))
        assert m1.rref() == m2.rref()
        reduced, pivots = m1.rref()
        for i, col in enumerate(pivots):
            for j, row in enumerate(reduced):
                assert (row >> col & 1) == (1 if i == j else 0)


def reference_reduce(rows, pivots, vec):
    """The row loop reduce_vector replaced: each RREF row in pivot order."""
    for row, col in zip(rows, pivots):
        if vec >> col & 1:
            vec ^= row
    return vec


@settings(max_examples=400, deadline=None)
@given(bit_matrices(), st.data())
def test_reduce_vector_matches_row_loop(case, data):
    width, rows = case
    m = BitMatrix(width, rows)
    reduced, pivots = m.rref()
    by_pivot, mask = m.pivot_rows()
    assert by_pivot == dict(zip(pivots, reduced))
    assert mask == sum(1 << col for col in pivots)
    for basis in (m, m.row_basis()):
        for _ in range(4):
            vec = data.draw(st.integers(0, (1 << width) - 1))
            assert basis.reduce_vector(vec) == reference_reduce(reduced, pivots, vec)


# ── names the benchmark's tracer wraps ─────────────────────────────────


def load_spans():
    """perfbench/spans.py, which sits outside the package and its tests."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_resolve():
    for layer, methods in load_spans().METHODS.items():
        module = importlib.import_module(f"qlocality.{layer}")
        for cls_name, meth in methods:
            # the tracer reads the method off the class dict and restores it
            assert meth in vars(getattr(module, cls_name)), (cls_name, meth)
    # the rref wrapper counts a call as a miss when the cache slot is empty
    m = BitMatrix(4, [0b0011, 0b0110])
    assert m._rref is None
    m.rref()
    assert m._rref is not None
