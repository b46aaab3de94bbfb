"""Code derivation (stabilizer, parameters, distance, logicals) against oracles."""

import itertools
import random
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlocality.codes import (
    SubsystemCode,
    derive_stabilizer,
    distance,
    logical_representatives,
    parameters,
)
from qlocality.pauli import (
    MAX_QUBITS,
    BitMatrix,
    PauliVector,
    centralizer,
    parse_rows,
    symplectic_bits,
)
from qlocality.families import surface_code
from tests.test_pauli import reference_nullspace, reference_rref

P = PauliVector.from_string


def bacon_shor_generators(m):
    n = m * m
    rows = []
    for r in range(m - 1):
        for c in range(m):
            rows.append((1 << (r * m + c)) | (1 << ((r + 1) * m + c)))
    for r in range(m):
        for c in range(m - 1):
            rows.append(((1 << (r * m + c)) | (1 << (r * m + c + 1))) << n)
    return SubsystemCode(n, rows)


FIVE = SubsystemCode.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
BITFLIP = SubsystemCode.from_strings(["ZZI", "IZZ"])


def random_rows(rng, n, count):
    """count random n-qubit Paulis as rows, each drawn X half first."""
    return [rng.getrandbits(n) | rng.getrandbits(n) << n for _ in range(count)]


def weight(bits, n):
    """Number of qubits on which the Pauli with these bits acts."""
    return ((bits | bits >> n) & ((1 << n) - 1)).bit_count()


def brute_distance(code):
    """Min weight over all Paulis commuting with the stabilizer, outside the gauge span."""
    n = code.n
    stab = code.stabilizer_basis.rows
    best = None
    for p in range(1, 1 << 2 * n):
        if any(symplectic_bits(p, s, n) for s in stab):
            continue
        if code.gauge_basis.contains(p):
            continue
        w = weight(p, n)
        if best is None or w < best:
            best = w
    return best


# ── derive_stabilizer ──────────────────────────────────────────────────


def test_stabilizer_of_xx_zz_spans_the_abelian_gauge_group():
    # XX and ZZ commute (two anticommuting overlaps cancel mod 2), so the
    # center is the whole span, which contains their product YY
    code = SubsystemCode.from_strings(["XX", "ZZ"])
    stab, logicals = derive_stabilizer(code)
    assert stab.rank() == 2 and logicals == ()
    assert stab.contains(P("YY").to_bits())
    assert stab.contains(P("XX").to_bits())
    assert stab.contains(P("ZZ").to_bits())


def test_stabilizer_of_nonabelian_pair_is_trivial():
    # XI and ZI anticommute; the center of their span is trivial
    code = SubsystemCode.from_strings(["XI", "ZI"])
    stab, logicals = derive_stabilizer(code)
    assert stab.rank() == 0 and len(logicals) == 2
    p = parameters(code)
    assert (p.k, p.g, p.s) == (1, 1, 0)


def test_stabilizer_of_empty_gauge():
    code = SubsystemCode(3, [])
    stab, logicals = derive_stabilizer(code)
    assert stab.rows == () and len(logicals) == 6


def test_stabilizer_bacon_shor_2x2():
    code = bacon_shor_generators(2)
    stab = code.stabilizer_basis
    assert stab.rank() == 2
    assert stab.contains(P("XXXX").to_bits())
    assert stab.contains(P("ZZZZ").to_bits())


@pytest.mark.parametrize("code", [bacon_shor_generators(2), bacon_shor_generators(3), FIVE])
def test_stabilizer_rows_commute_with_everything(code):
    n = code.n
    stab = code.stabilizer_basis.rows
    for a, b in itertools.combinations(stab, 2):
        assert symplectic_bits(a, b, n) == 0
    for s in stab:
        for g in code.gauge_matrix.rows:
            assert symplectic_bits(s, g, n) == 0
        assert code.gauge_basis.contains(s)


def reference_stabilizer(code):
    """Center of the gauge span from the pairwise Gram matrix, with the
    column-scan elimination throughout."""
    n = code.n
    rows = reference_rref(code.gauge_matrix.rows, 2 * n)[0]
    r = len(rows)
    gram_rows = [0] * r
    for i, b_i in enumerate(rows):
        for j in range(i):
            if symplectic_bits(rows[j], b_i, n):
                gram_rows[i] |= 1 << j
                gram_rows[j] |= 1 << i
    stab_rows = []
    for coeffs in reference_nullspace(gram_rows, r):
        v = 0
        for j in range(r):
            if coeffs >> j & 1:
                v ^= rows[j]
        stab_rows.append(v)
    return reference_rref(stab_rows, 2 * n)[0]


@st.composite
def random_codes(draw):
    """n <= 8 with any number of generators (k = 0 and non-commuting sets
    included); a third of the draws keep only generators that commute with
    every earlier one, which gives abelian gauge groups."""
    n = draw(st.integers(0, 8))
    gens = draw(st.lists(st.integers(0, (1 << 2 * n) - 1), max_size=2 * n + 3))
    if draw(st.integers(0, 2)) == 0:
        kept = []
        for g in gens:
            if all(symplectic_bits(g, h, n) == 0 for h in kept):
                kept.append(g)
        gens = kept
    return SubsystemCode(n, gens)


@settings(max_examples=300, deadline=None)
@given(random_codes())
def test_stabilizer_and_abelian_test_match_pairwise_references(code):
    assert code.stabilizer_basis.rows == reference_stabilizer(code)
    pairwise = all(
        symplectic_bits(a, b, code.n) == 0
        for a, b in itertools.combinations(code.gauge_matrix.rows, 2)
    )
    assert code.has_abelian_gauge() == pairwise


@pytest.mark.parametrize(
    "code",
    [bacon_shor_generators(8), bacon_shor_generators(16), surface_code(6).code],
    ids=["BS-8", "BS-16", "surface-6"],
)
def test_stabilizer_matches_pairwise_reference_on_lattice_codes(code):
    assert code.stabilizer_basis.rows == reference_stabilizer(code)


def test_bacon_shor_64_stabilizer_rows_are_pinned():
    # SHA-256 of the rows as little-endian bytes, taken from the Gram
    # construction before it was replaced by G ∩ C(G)
    stab = bacon_shor_generators(64).stabilizer_basis
    width = (stab.width + 7) // 8
    digest = sha256(b"".join(row.to_bytes(width, "little") for row in stab.rows)).hexdigest()
    assert len(stab.rows) == 126
    assert digest == "8ab727c380013eb9aef25fe6f20d501a8cb648e782ea54fb71801dabd050b370"


def test_gauge_centralizer_is_computed_once_per_code(monkeypatch):
    calls = []
    nullspace = BitMatrix.nullspace

    def counted(self):
        calls.append(self)
        return nullspace(self)

    monkeypatch.setattr(BitMatrix, "nullspace", counted)
    code = bacon_shor_generators(4)
    parameters(code)
    code.correctable_columns
    logical_representatives(code)
    distance(code)
    gauge = code.gauge_basis
    assert sum(m is gauge for m in calls) == 1
    # the cleanable columns read C(S) as [L; G]: no nullspace of S is taken
    assert len(calls) == 1
    code.cleanable_columns
    assert len(calls) == 1


# ── parameters ─────────────────────────────────────────────────────────


def test_parameters_trivial():
    p = parameters(SubsystemCode(3, []))
    assert (p.n, p.k, p.g, p.s) == (3, 3, 0, 0)


def test_parameters_bacon_shor_3x3():
    p = parameters(bacon_shor_generators(3))
    assert (p.n, p.k, p.g, p.s) == (9, 1, 4, 4)


def test_parameters_five_qubit_code():
    p = parameters(FIVE)
    assert (p.n, p.k, p.g, p.s) == (5, 1, 0, 4)


def test_parameters_random_codes_satisfy_identities():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 7)
        code = SubsystemCode(n, random_rows(rng, n, rng.randrange(0, 2 * n)))
        p = parameters(code)
        r = code.gauge_basis.rank()
        assert p.k + p.g + p.s == n
        assert 2 * p.g == r - p.s
        assert p.k >= 0 and p.g >= 0


def test_duplicate_generators_do_not_change_parameters():
    code = bacon_shor_generators(2)
    doubled = SubsystemCode(4, code.gauge_matrix.rows * 2)
    assert parameters(doubled) == parameters(code)


# ── distance ───────────────────────────────────────────────────────────


def test_distance_bitflip_is_one():
    assert distance(BITFLIP).value == 1
    assert brute_distance(BITFLIP) == 1


def test_distance_five_qubit_code():
    assert distance(FIVE).value == 3
    assert brute_distance(FIVE) == 3


def test_distance_bacon_shor():
    assert distance(bacon_shor_generators(2)).value == 2
    assert distance(bacon_shor_generators(3)).value == 3


def test_distance_matches_brute_force_on_random_small_codes():
    rng = random.Random(13)
    checked = 0
    while checked < 12:
        n = rng.randrange(2, 5)
        code = SubsystemCode(n, random_rows(rng, n, rng.randrange(1, n + 2)))
        if parameters(code).k == 0:
            continue
        assert distance(code).value == brute_distance(code)
        checked += 1


def test_distance_weight_cap():
    res = distance(FIVE, weight_cap=2)
    assert res.value is None
    assert res.is_lower_bound
    assert res.describe() == "> 2"
    assert distance(FIVE, weight_cap=0).describe() == "> 0"
    with pytest.raises(ValueError, match=r"^weight_cap must be non-negative, got -5$"):
        distance(FIVE, weight_cap=-5)


def test_distance_rejects_k_zero():
    code = SubsystemCode.from_strings(["X", "Z"])
    assert parameters(code).k == 0
    with pytest.raises(ValueError):
        distance(code)


def test_stabilizer_code_as_subsystem_code_keeps_parameters():
    # gauge group = stabilizer group gives g = 0 and the same (n, k, d)
    for code, expect_d in [(FIVE, 3), (BITFLIP, 1)]:
        p = parameters(code)
        assert p.g == 0
        assert distance(code).value == expect_d


# ── logical representatives ────────────────────────────────────────────


def test_logicals_trivial_single_qubit():
    code = SubsystemCode(1, [])
    (pair,) = logical_representatives(code)
    reps = {pair.x_bar.to_string(), pair.z_bar.to_string()}
    assert reps == {"X", "Z"}


@pytest.mark.parametrize(
    "code",
    [bacon_shor_generators(2), bacon_shor_generators(3), FIVE, BITFLIP, SubsystemCode(3, [])],
)
def test_logical_pairs_satisfy_invariants(code):
    n = code.n
    pairs = logical_representatives(code)
    assert len(pairs) == parameters(code).k
    reps = []
    for pair in pairs:
        x_bar, z_bar = pair.x_bar.to_bits(), pair.z_bar.to_bits()
        for rep in (x_bar, z_bar):
            for g in code.gauge_matrix.rows:
                assert symplectic_bits(rep, g, n) == 0
            assert not code.gauge_basis.contains(rep)
        assert symplectic_bits(x_bar, z_bar, n) == 1
        reps.append((x_bar, z_bar))
    for i, (xi, zi) in enumerate(reps):
        for j, (xj, zj) in enumerate(reps):
            if i != j:
                assert symplectic_bits(xi, xj, n) == 0
                assert symplectic_bits(xi, zj, n) == 0
                assert symplectic_bits(zi, zj, n) == 0


def test_logicals_deterministic():
    a = logical_representatives(bacon_shor_generators(3))
    b = logical_representatives(bacon_shor_generators(3))
    assert a == b


def test_five_qubit_logicals_have_weight_three_or_more():
    (pair,) = logical_representatives(FIVE)
    assert weight(pair.x_bar.to_bits(), 5) >= 3
    assert weight(pair.z_bar.to_bits(), 5) >= 3


def reference_logicals(code):
    """Logical pairs as bit pairs, reducing each centralizer vector against a
    fresh elimination of S plus the vectors kept before it."""
    n = code.n
    mod_out = BitMatrix(2 * n, code.stabilizer_basis.rows)
    pool = []
    for v in centralizer(code.gauge_basis).row_basis().rows:
        red = mod_out.reduce_vector(v)
        if red != 0:
            pool.append(red)
            mod_out = BitMatrix(2 * n, mod_out.rows + (red,))
    pairs = []
    while pool:
        u = pool.pop(0)
        v = pool.pop(next(i for i, w in enumerate(pool) if symplectic_bits(u, w, n)))
        pool = [
            w ^ (symplectic_bits(w, v, n) * u) ^ (symplectic_bits(w, u, n) * v) for w in pool
        ]
        pairs.append((u, v))
    return pairs


@settings(max_examples=300, deadline=None)
@given(random_codes())
def test_logicals_match_per_vector_elimination(code):
    if parameters(code).k == 0:
        return
    got = [(p.x_bar.to_bits(), p.z_bar.to_bits()) for p in logical_representatives(code)]
    assert got == reference_logicals(code)


@pytest.mark.parametrize("n", [40, 200])
def test_logicals_of_trivial_code_match_per_vector_elimination(n):
    code = SubsystemCode(n, [])
    got = [(p.x_bar.to_bits(), p.z_bar.to_bits()) for p in logical_representatives(code)]
    assert got == reference_logicals(code)


def test_logicals_rejects_k_zero():
    with pytest.raises(ValueError):
        logical_representatives(SubsystemCode.from_strings(["X", "Z"]))


# ── JSON round trip ────────────────────────────────────────────────────


def test_code_json_round_trip():
    code = bacon_shor_generators(3)
    again = SubsystemCode.from_json(code.to_json())
    assert again.n == code.n
    assert again.gauge_matrix == code.gauge_matrix


def test_code_json_rejects_bad_lengths():
    with pytest.raises(ValueError):
        SubsystemCode.from_json({"n": 3, "gauge_generators": ["XX"]})
    # a file and a string list name a wrong length in one text
    message = r"^generator 'Z' has length 1, expected 2$"
    with pytest.raises(ValueError, match=message):
        SubsystemCode.from_json({"n": 2, "gauge_generators": ["XX", "Z"]})
    with pytest.raises(ValueError, match=message):
        SubsystemCode.from_strings(["XX", "Z"])


@pytest.mark.parametrize("value", [2.7, "2", True, None, float("nan"), float("inf")])
def test_code_json_rejects_non_integral_n(value):
    with pytest.raises(ValueError, match="n must be an integer"):
        SubsystemCode.from_json({"n": value, "gauge_generators": ["XX"]})


def test_code_json_accepts_integral_float_n():
    assert SubsystemCode.from_json({"n": 2.0, "gauge_generators": ["XX"]}).n == 2


def test_code_json_rejects_a_qubit_count_over_the_cap():
    for n in (MAX_QUBITS + 1, 10**12):
        with pytest.raises(ValueError, match=rf"^qubit count {n} outside \[0, 100000\]$"):
            SubsystemCode.from_json({"n": n, "gauge_generators": []})
        with pytest.raises(ValueError, match=rf"^qubit count {n} outside \[0, 100000\]$"):
            SubsystemCode.from_strings([], n=n)
    with pytest.raises(ValueError, match=r"^qubit count -1 outside \[0, 100000\]$"):
        SubsystemCode.from_json({"n": -1, "gauge_generators": []})
    with pytest.raises(ValueError, match=r"^qubit count 100001 outside \[0, 100000\]$"):
        SubsystemCode(MAX_QUBITS + 1, [])
    assert SubsystemCode.from_json({"n": MAX_QUBITS, "gauge_generators": []}).n == MAX_QUBITS


def test_code_json_names_a_generator_over_the_cap():
    long = "I" * (MAX_QUBITS + 1)
    with pytest.raises(ValueError, match=r"^qubit count 100001 outside \[0, 100000\]$"):
        SubsystemCode.from_json({"n": 2, "gauge_generators": ["XX", long]})
    with pytest.raises(ValueError, match=r"^qubit count 100001 outside \[0, 100000\]$"):
        SubsystemCode.from_json({"n": MAX_QUBITS + 1, "gauge_generators": [long]})


def test_code_from_rows_keeps_rows_and_reads_paulis_from_them():
    code = SubsystemCode(2, [0b0011, 0b1100])
    assert code.gauge_matrix.rows == (0b0011, 0b1100)
    assert repr(code) == "SubsystemCode(n=2, generators=2)"
    assert "support_arrays" not in vars(code)
    assert code.to_json()["gauge_generators"] == ["XX", "ZZ"]
    assert supports_of(code) == (((0, 1), ()), ((), (0, 1)))
    # a bit at or above the width, and a negative int, which has such bits
    for rows in ([1 << 4], [-3]):
        with pytest.raises(ValueError, match="row has bits outside matrix width"):
            SubsystemCode(2, rows)
    with pytest.raises(ValueError, match="row has bits outside matrix width"):
        BitMatrix(4, [-1])


# ── batched parsing against the per-generator loops it replaced ────────

_NOT_LETTERS = str.maketrans("", "", "IXYZ")


def loop_from_string(s):
    """PauliVector.from_string as one call per string."""
    bad = s.translate(_NOT_LETTERS)
    if bad:
        raise ValueError(f"invalid Pauli letter {bad[0]!r}")
    rev = s[::-1]
    x = int(rev.translate(str.maketrans("IXYZ", "0110")) or "0", 2)
    return PauliVector(len(s), x, int(rev.translate(str.maketrans("IXYZ", "0011")) or "0", 2))


def loop_from_json(obj):
    """SubsystemCode.from_json's per-generator loop."""
    n = obj["n"]
    rows = []
    for s in obj["gauge_generators"]:
        p = loop_from_string(s)
        if p.n != n:
            raise ValueError(f"generator {s!r} has length {p.n}, expected {n}")
        rows.append(p.to_bits())
    return SubsystemCode(n, rows)


def loop_from_strings(generators, n=None):
    """SubsystemCode.from_strings: n is the first generator's length unless
    given, and the generators are read as from_json reads them."""
    if n is None:
        if not generators:
            raise ValueError("cannot infer n from an empty generator list")
        n = len(generators[0])
    return loop_from_json({"n": n, "gauge_generators": generators})


def outcome(build, *args):
    try:
        return build(*args).gauge_matrix.rows
    except ValueError as exc:
        return str(exc)


# one or two faults on generators at random positions: a bad letter, a
# wrong length or both; n from 0 to 12, or near 5000 (several blocks)
faulty_generator_lists = st.tuples(
    st.one_of(st.integers(0, 12), st.integers(4990, 5010)),
    st.integers(1, 30),
    st.lists(
        st.tuples(st.integers(0, 29), st.sampled_from(["letter", "length", "both"]), st.sampled_from("Qx1_ 0bé")),
        min_size=1,
        max_size=2,
    ),
    st.randoms(use_true_random=True),
)


@settings(max_examples=300, deadline=None)
@given(faulty_generator_lists)
def test_parse_errors_match_the_per_generator_loops(case):
    n, count, faults, rng = case
    gens = ["".join(rng.choices("IXYZ", k=n)) for _ in range(count)]
    for where, kind, letter in faults:
        s = gens[where % count]
        if kind in ("letter", "both"):
            at = rng.randrange(len(s) + 1)
            s = s[:at] + letter + s[at + 1 :]
        if kind in ("length", "both"):
            s = s[: rng.randrange(len(s))] if s and rng.random() < 0.5 else s + "Z" * rng.randint(1, 3)
        gens[where % count] = s
    obj = {"n": n, "gauge_generators": gens}
    assert outcome(SubsystemCode.from_json, obj) == outcome(loop_from_json, obj)
    assert outcome(SubsystemCode.from_strings, gens, n) == outcome(loop_from_strings, gens, n)
    assert outcome(SubsystemCode.from_strings, gens) == outcome(loop_from_strings, gens)
    for s in gens:
        try:
            expected = loop_from_string(s)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = P(s)
        except ValueError as exc:
            got = str(exc)
        assert got == expected


# ── sparse supports ────────────────────────────────────────────────────


def reference_supports(code):
    """Each generator's X and Z qubits, read bit by bit off its row."""
    n = code.n
    return [
        tuple(tuple(q for q in range(n) if bits >> q & 1) for bits in (row, row >> n))
        for row in code.gauge_matrix.rows
    ]


def supports_of(code):
    """Each generator's X and Z qubit tuples, cut from support_arrays."""
    qubits, ends = code.support_arrays
    flat = qubits.tolist()
    halves = [tuple(flat[a:b]) for a, b in itertools.pairwise([0, *ends.tolist()])]
    return tuple(zip(halves[::2], halves[1::2]))


@settings(max_examples=200, deadline=None)
@given(random_codes())
def test_code_from_supports_matches_code_from_paulis(code):
    sparse = SubsystemCode.from_supports(code.n, reference_supports(code))
    assert list(supports_of(code)) == reference_supports(code)
    assert sparse.dumps() == code.dumps()
    assert sparse.interaction_index().tolist() == code.interaction_index().tolist()
    assert parameters(sparse) == parameters(code)
    assert sparse.gauge_matrix.rows == code.gauge_matrix.rows
    assert repr(sparse) == repr(code)


MALFORMED_SUPPORTS = [
    (3, [((0, 1), ()), ((), (1, 3))], r"generator 1 Z support \(1, 3\) has a qubit outside \[0, 3\)"),
    (3, [((-1, 0), ())], r"generator 0 X support \(-1, 0\) has a negative qubit"),
    (3, [((), (0, 2)), ((2, 1), ())], r"generator 1 X support \(2, 1\) is not sorted"),
    (3, [((1, 1), ())], r"generator 0 X support \(1, 1\) repeats a qubit"),
    (3, [((0.5, 1), ())], "support qubits must be integers"),
    (3, [((np.float64(1.0),), ())], "support qubits must be integers"),
    (3, [((True, 2), ())], "support qubits must be integers"),
    (3, [((np.True_,), ())], "support qubits must be integers"),
    (-1, [], r"qubit count -1 outside \[0, 100000\]"),
    (MAX_QUBITS + 1, [], r"qubit count 100001 outside \[0, 100000\]"),
]
MALFORMED_IDS = [
    "out-of-range", "negative", "unsorted", "duplicated", "non-integer", "numpy-float",
    "bool-among-ints", "numpy-bool", "negative-n", "too-many-qubits",
]


@pytest.mark.parametrize("n,supports,message", MALFORMED_SUPPORTS, ids=MALFORMED_IDS)
def test_from_supports_rejects_malformed_supports(n, supports, message):
    with pytest.raises(ValueError, match=message):
        SubsystemCode.from_supports(n, supports)


def as_arrays(supports, dtype=None):
    """The supports as (qubits, ends) arrays: the qubits in the one dtype
    numpy gives them (float64 for none), or object dtype when their types
    differ (an array cannot hold a bool among ints)."""
    halves = [half for pair in supports for half in pair]
    qubits = [q for half in halves for q in half]
    if dtype is None and len(set(map(type, qubits))) > 1:
        dtype = object
    return np.array(qubits, dtype=dtype), np.cumsum([len(half) for half in halves], dtype=np.intp)


def raised(build, *args):
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


@pytest.mark.parametrize("n,supports,message", MALFORMED_SUPPORTS, ids=MALFORMED_IDS)
def test_support_arrays_reject_malformed_supports_as_from_supports(n, supports, message):
    expected = raised(SubsystemCode.from_supports, n, supports)
    assert raised(SubsystemCode.from_support_arrays, n, *as_arrays(supports)) == expected


@pytest.mark.parametrize(
    "qubits,ends,message",
    [
        ([0, 1], [2], "support arrays must be"),
        ([0, 1], [1, 1], "support arrays must be"),
        ([0, 1], [2, 1], "support arrays must be"),
        ([[0, 1]], [0, 2], "support arrays must be"),
        ([0, 1], [0.0, 2.0], "support arrays must be"),
        ([0, 1], np.array([2**64 - 1, 2], dtype=np.uint64), "support arrays must be"),
        (np.array([1, 2], dtype=np.uint64), [2, 2], r"support \(1, 2\) has a qubit outside \[0, 2\)"),
    ],
    ids=["odd-count", "short", "falling", "2-d", "float-ends", "unsigned-ends-past-intp", "unsigned-out-of-range"],
)
def test_support_arrays_reject_malformed_arrays(qubits, ends, message):
    with pytest.raises(ValueError, match=message):
        SubsystemCode.from_support_arrays(2, np.asarray(qubits), np.asarray(ends))


def test_from_supports_rejects_a_qubit_past_intp_as_out_of_range():
    with pytest.raises(ValueError, match=r"^generator 1 Z support \(3,\) has a qubit outside \[0, 3\)$"):
        SubsystemCode.from_supports(3, [((0,), ()), ((), (2**70,))])
    with pytest.raises(ValueError, match=r"^generator 0 X support \(-1,\) has a negative qubit$"):
        SubsystemCode.from_supports(3, [((-(2**70),), ())])


def reference_key_table(n, supports):
    """The per-generator key loop the interaction index ran on supports,
    deduplicated by np.unique."""
    keys = []
    for xs, zs in supports:
        qs = sorted({*xs, *zs}) if xs and zs else xs or zs
        if len(qs) == 2:
            keys.append(qs[0] * n + qs[1])
        else:
            keys.extend(i * n + j for i, j in itertools.combinations(qs, 2))
    flat = np.unique(np.array(keys, dtype=np.intp))
    return np.stack(np.divmod(flat, max(n, 1)), axis=1).reshape(-1, 2)


@st.composite
def random_supports(draw):
    """Supports with empty halves, X/Z overlap and halves of weight 0 to 5,
    as Python or numpy integers."""
    n = draw(st.integers(0, 9))
    half = st.lists(st.integers(0, n - 1), max_size=5, unique=True).map(sorted) if n else st.just([])
    pairs = draw(st.lists(st.tuples(half, half), max_size=8))
    kind = draw(st.sampled_from([int, np.int64, np.int32, np.uint8]))
    return n, [tuple(tuple(map(kind, h)) for h in pair) for pair in pairs], kind


@settings(max_examples=300, deadline=None)
@given(random_supports())
@example((3, [], int))
@example((3, [((), ()), ((), ())], int))
def test_support_arrays_match_from_supports_and_the_key_loop(case):
    n, supports, kind = case
    plain = tuple(tuple(tuple(map(int, h)) for h in pair) for pair in supports)
    rows = tuple(sum(1 << q for q in xs) | sum(1 << q for q in zs) << n for xs, zs in plain)
    index = reference_key_table(n, plain)
    arrays = as_arrays(supports, None if kind is int else kind)
    codes = [
        SubsystemCode.from_support_arrays(n, *arrays),
        # as lists, empty ones included, whose arrays numpy makes float64
        SubsystemCode.from_support_arrays(n, *(a.tolist() for a in arrays)),
        SubsystemCode.from_supports(n, supports),
        SubsystemCode(n, rows),
    ]
    for code in codes:
        assert supports_of(code) == plain
        assert code.gauge_matrix.rows == rows
        got_index = code.interaction_index()
        assert got_index.dtype == np.intp
        assert got_index.tolist() == index.tolist()
        assert repr(code) == f"SubsystemCode(n={n}, generators={len(plain)})"


@settings(max_examples=200, deadline=None)
@given(random_supports())
def test_support_arrays_read_off_rows_equal_from_supports(case):
    n, supports, _ = case
    sparse = SubsystemCode.from_supports(n, supports)
    loaded = [SubsystemCode(n, sparse.gauge_matrix.rows), SubsystemCode.from_json(sparse.to_json())]
    for dense in loaded:
        for got, want in zip(dense.support_arrays, sparse.support_arrays):
            assert got.dtype == np.intp and not got.flags.writeable
            assert got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(random_supports())
def test_to_json_matches_pauli_to_string(case):
    n, supports, _ = case
    sparse = SubsystemCode.from_supports(n, supports)
    rows = sparse.gauge_matrix.rows
    strings = [PauliVector.from_bits(n, row).to_string() for row in rows]
    assert parse_rows(strings, n) == list(rows)
    for code in (sparse, SubsystemCode(n, rows)):
        assert code.to_json() == {"n": n, "gauge_generators": strings}


@pytest.mark.parametrize("n", [3, 100])
def test_from_supports_stores_numpy_integer_qubits_as_python_ints(n):
    supports = [((0, 1), ()), ((), (1, n - 1)), ((0, n - 1), (0, n - 1))]
    numpy_supports = [
        (np.array(xs, dtype=np.int64), tuple(np.int32(q) for q in zs)) for xs, zs in supports
    ]
    code = SubsystemCode.from_supports(n, numpy_supports)
    assert supports_of(code) == tuple(supports)
    assert {a.dtype for a in code.support_arrays} == {np.dtype(np.intp)}
    plain = SubsystemCode.from_supports(n, supports)
    assert parameters(code) == parameters(plain)
    assert code.dumps() == plain.dumps()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.lists(st.integers(-1, n), max_size=4).map(tuple)] * 2), max_size=5
))))
def test_from_supports_accepts_exactly_the_increasing_in_range_supports(case):
    n, supports = case
    valid = all(
        all(0 <= q < n for q in half) and all(a < b for a, b in zip(half, half[1:]))
        for pair in supports
        for half in pair
    )
    if valid:
        assert supports_of(SubsystemCode.from_supports(n, supports)) == tuple(supports)
    else:
        with pytest.raises(ValueError):
            SubsystemCode.from_supports(n, supports)
