"""Correctability and the correctable-set lemma verifiers against brute force."""

import functools
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlocality.codes import DistanceResult, SubsystemCode, _General, _Matching, _TwoBody, distance, parameters
from qlocality.families import bacon_shor, small_inner_codes, surface_code
from qlocality.pauli import symplectic_bits
from qlocality.regions import (
    ab_bound_check,
    abc_bound_check,
    boundary,
    chain_oracle,
    check_expansion_lemma,
    check_subset_closure,
    check_union_lemma,
    is_correctable,
    is_dressed_cleanable,
    region_from_json,
)
from tests.test_codes import BITFLIP, FIVE, bacon_shor_generators, two_body_cases

BS2 = bacon_shor_generators(2)
BS3 = bacon_shor_generators(3)


def paulis_on(support, n):
    """Every Pauli supported inside the qubit set, as bits x | z << n."""
    support = sorted(support)
    for letters in itertools.product("IXYZ", repeat=len(support)):
        x = z = 0
        for q, letter in zip(support, letters):
            if letter in "XY":
                x |= 1 << q
            if letter in "ZY":
                z |= 1 << q
        yield x | z << n


def brute_correctable(code, u):
    """Enumerate all Paulis on u: correctable iff every stabilizer-commuting
    one lies in the gauge span."""
    stab = code.stabilizer_basis.rows
    for p in paulis_on(u, code.n):
        if any(symplectic_bits(p, s, code.n) for s in stab):
            continue
        if not code.gauge_basis.contains(p):
            return False
    return True


def brute_cleanable(code, u):
    for p in paulis_on(u, code.n):
        if any(symplectic_bits(p, g, code.n) for g in code.gauge_matrix.rows):
            continue
        if not code.gauge_basis.contains(p):
            return False
    return True


# ── is_correctable / is_dressed_cleanable ──────────────────────────────


def test_empty_region_is_correctable():
    assert is_correctable(BS3, [])


def test_bacon_shor_small_regions_correctable():
    for pair in itertools.combinations(range(9), 2):
        assert is_correctable(BS3, pair)


def test_bacon_shor_full_line_not_correctable():
    # a full grid line supports a weight-3 dressed logical
    assert not is_correctable(BS3, [0, 1, 2])
    assert not brute_correctable(BS3, [0, 1, 2])


def test_correctable_matches_brute_force_exhaustively_small():
    for code in (BS2, FIVE, BITFLIP):
        for size in range(code.n + 1):
            for u in itertools.combinations(range(code.n), size):
                assert is_correctable(code, u) == brute_correctable(code, u)
                assert is_dressed_cleanable(code, u) == brute_cleanable(code, u)


def test_correctable_matches_brute_force_random_bs3():
    rng = random.Random(2)
    for _ in range(40):
        u = [q for q in range(9) if rng.random() < 0.4]
        assert is_correctable(BS3, u) == brute_correctable(BS3, u)
        assert is_dressed_cleanable(BS3, u) == brute_cleanable(BS3, u)


@st.composite
def random_codes_and_regions(draw):
    """Gauge sets with n <= 6, commuting or not, empty included, plus a region."""
    n = draw(st.integers(1, 6))
    bits = st.integers(0, (1 << n) - 1)
    gens = draw(st.lists(st.tuples(bits, bits), max_size=7))
    code = SubsystemCode(n, [x | z << n for x, z in gens])
    return code, draw(st.sets(st.integers(0, n - 1)))


@settings(max_examples=300, deadline=None)
@given(random_codes_and_regions())
def test_oracles_match_brute_force_on_random_codes(case):
    code, u = case
    assert is_correctable(code, u) == brute_correctable(code, u)
    assert is_dressed_cleanable(code, u) == brute_cleanable(code, u)


# k = 0 (XX and ZZ: every region passes) and the empty gauge group on three
# qubits (every nonempty region fails both oracles)
K0_CODE = SubsystemCode.from_strings(["XX", "ZZ"])
BARE_CODE = SubsystemCode(3, [])

# each form a region may come in: the oracles read it as a qubit set
REGION_FORMS = (
    lambda u: sorted(u) * 2,
    set,
    frozenset,
    lambda u: (q for q in sorted(u)),
    lambda u: np.array(sorted(u), dtype=np.intp),
)


@settings(max_examples=200, deadline=None)
@given(random_codes_and_regions())
@example((K0_CODE, {0, 1}))
@example((BARE_CODE, {2}))
def test_oracles_read_every_region_form(case):
    code, u = case
    correctable, cleanable = brute_correctable(code, u), brute_cleanable(code, u)
    for form in REGION_FORMS:
        assert is_correctable(code, form(u)) == correctable
        assert is_dressed_cleanable(code, form(u)) == cleanable


@settings(max_examples=300, deadline=None)
@given(random_codes_and_regions(), st.data())
def test_extend_over_any_split_gives_the_one_shot_verdict(case, data):
    code, u = case
    # the region in a drawn order, cut into drawn chunks (some empty)
    order = data.draw(st.permutations(sorted(u)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(order)), max_size=4)))
    chunks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    for columns in (code.correctable_columns, code.cleanable_columns):
        basis: dict[int, int] = {}
        assert all(columns.extend(basis, chunk) for chunk in chunks) == columns.extend({}, u)
    assert code.correctable_columns.extend({}, u) == brute_correctable(code, u)
    assert code.cleanable_columns.extend({}, u) == brute_cleanable(code, u)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_codes_and_regions(), two_body_cases()), st.data())
def test_chain_oracle_matches_a_fresh_oracle_along_growing_chains(case, data):
    # the general codes take the growing basis, the two-body codes M
    code, _ = case
    order = data.draw(st.permutations(range(code.n)))
    sizes = sorted(data.draw(st.lists(st.integers(0, code.n), min_size=1, max_size=code.n + 1)))
    correctable = chain_oracle(code)
    region = np.zeros(code.n, dtype=bool)
    for size in sizes:
        region = region.copy()
        region[order[:size]] = True
        expected = brute_correctable(code, order[:size])
        assert correctable(region) == expected
        if not expected:
            break  # a chain stops at its first failure


# ── two-body codes at size: closed forms ──────────────────────────────


@functools.lru_cache(maxsize=None)
def bacon_shor_code(m):
    return bacon_shor(m).code


@functools.lru_cache(maxsize=None)
def repetition_code(n):
    return small_inner_codes("repetition", r=n).code


def bs_correctable(m, u):
    """BS-m (qubit r * m + c): U is correctable iff it misses a row and a column."""
    return len({q // m for q in u}) < m and len({q % m for q in u}) < m


def bs_cleanable(m, u):
    """BS-m: U is dressed-cleanable iff it holds no full row or column."""
    rows, cols = Counter(q // m for q in u), Counter(q % m for q in u)
    return max(rows.values(), default=0) < m and max(cols.values(), default=0) < m


def bs_region(rng, m, kind, size):
    """size qubits (fewer if the kind has fewer) of BS-m: drawn at random,
    inside the grid less one row and one column, or a full row or column
    plus random fill."""
    n = m * m
    if kind == "random":
        return set(rng.sample(range(n), size))
    r, c = rng.randrange(m), rng.randrange(m)
    if kind == "subgrid":
        cells = [q for q in range(n) if q // m != r and q % m != c]
        return set(rng.sample(cells, min(size, len(cells))))
    line = {r * m + i for i in range(m)} if kind == "row" else {i * m + c for i in range(m)}
    rest = [q for q in range(n) if q not in line]
    return line | set(rng.sample(rest, max(0, min(size - m, len(rest)))))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.sampled_from(["random", "subgrid", "row", "column"]), st.data())
@example(40, "subgrid", None)
@example(40, "row", None)
def test_bacon_shor_oracles_match_the_closed_form_up_to_m_40(m, kind, data):
    # region sizes from 0 to n, on both sides of the m components per side
    n = m * m
    if data is None:
        sizes, rng = [0, 1, m - 1, m, m + 1, n // 3, n - 1, n], random.Random(m)
    else:
        sizes = [data.draw(st.integers(0, n)), data.draw(st.integers(0, 2 * m))]
        rng = data.draw(st.randoms(use_true_random=False))
    code = bacon_shor_code(m)
    for size in sizes:
        u = bs_region(rng, m, kind, size)
        correctable, cleanable = bs_correctable(m, u), bs_cleanable(m, u)
        for form in REGION_FORMS:
            assert is_correctable(code, form(u)) == correctable
            assert is_dressed_cleanable(code, form(u)) == cleanable


@pytest.mark.parametrize("n", [2, 3, 50, 5_000])
def test_repetition_oracles_pass_only_the_empty_region(n):
    # n singleton X components and one Z component, each with a nonzero row
    # or column of M: any qubit is a bare logical Z, so only the empty region
    # passes either oracle, at sizes on both sides of the n X components
    code = repetition_code(n)
    rng = random.Random(n)
    for size in sorted({0, 1, min(3, n), n // 3, n // 2, n - 1, n}):
        u = set(rng.sample(range(n), size))
        for form in REGION_FORMS:
            assert is_correctable(code, form(u)) == (size == 0)
            assert is_dressed_cleanable(code, form(u)) == (size == 0)


def test_component_sets_wait_for_the_first_region_query():
    code = bacon_shor(5).code
    parameters(code)
    distance(code)
    assert isinstance(code.solver, _TwoBody)
    assert "_live" not in vars(code.solver)
    is_correctable(code, [0])
    assert "_live" in vars(code.solver)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["bacon_shor", "repetition"]), st.booleans(), st.data())
def test_chain_oracle_matches_fresh_verdicts_on_bs20_and_repetition_500(family, subgrid_first, data):
    # orders that fill a subgrid of BS-20 first keep the chain correctable
    # for hundreds of qubits; the repetition chain fails at its first qubit
    rng = data.draw(st.randoms(use_true_random=False))
    if family == "bacon_shor":
        m, n, code = 20, 400, bacon_shor_code(20)
        inside = [q for q in range(n) if q // m and q % m] if subgrid_first else []
        rest = sorted(set(range(n)) - set(inside))
        order = rng.sample(inside, len(inside)) + rng.sample(rest, len(rest))
    else:
        n, code = 500, repetition_code(500)
        order = rng.sample(range(n), n)
    sizes = sorted(rng.sample(range(n + 1), rng.randint(1, 40)))
    correctable = chain_oracle(code)
    region = np.zeros(n, dtype=bool)
    for size in sizes:
        region = region.copy()
        region[order[:size]] = True
        expected = is_correctable(code, order[:size])
        if family == "bacon_shor":
            assert expected == bs_correctable(m, order[:size])
        assert correctable(region) == expected
        if not expected:
            break


@settings(max_examples=200, deadline=None)
@given(random_codes_and_regions(), st.data())
@example((BARE_CODE, {0}), None)
def test_out_of_range_qubit_raises_the_range_message_first(case, data):
    code, u = case
    n = code.n
    outside = -1 if data is None else data.draw(st.sampled_from([-1, -n - 1, n, n + 5]))
    for oracle, brute in ((is_correctable, brute_correctable), (is_dressed_cleanable, brute_cleanable)):
        # a qubit that fails alone comes first, so a verdict would come first
        # if the range were checked during the reduction
        fails_alone = [q for q in range(n) if not brute(code, [q])]
        region = [*fails_alone[:1], *sorted(u), outside]
        message = f"region {sorted(set(region))} outside qubit range [0, {n})"
        for form in (list, set, frozenset, np.array):
            with pytest.raises(ValueError) as raised:
                oracle(code, form(region))
            assert str(raised.value) == message


def reference_distance(code):
    """Smallest w with a non-correctable w-subset, by enumeration and brute force."""
    for w in range(1, code.n + 1):
        for u in itertools.combinations(range(code.n), w):
            if not brute_correctable(code, u):
                return w
    return None


@settings(max_examples=300, deadline=None)
@given(random_codes_and_regions())
def test_distance_matches_enumeration_on_random_codes(case):
    code, _ = case
    if parameters(code).k == 0:
        with pytest.raises(ValueError):
            distance(code)
        return
    d = reference_distance(code)
    for cap in range(code.n + 1):
        expected = DistanceResult(weight_cap=cap, value=d if d is not None and d <= cap else None)
        assert distance(code, cap) == expected
    assert distance(code) == DistanceResult(weight_cap=code.n, value=d)


def test_correctable_implies_cleanable():
    for code in (BS2, FIVE):
        for size in range(code.n + 1):
            for u in itertools.combinations(range(code.n), size):
                if is_correctable(code, u):
                    assert is_dressed_cleanable(code, u)


def test_single_qubit_cleanable_when_distance_two():
    for code in (BS2, BS3, FIVE):
        assert distance(code).value >= 2
        for q in range(code.n):
            assert is_dressed_cleanable(code, [q])


def test_full_set_not_cleanable_when_k_positive():
    for code in (BS2, BS3, FIVE, BITFLIP):
        assert parameters(code).k >= 1
        assert not is_dressed_cleanable(code, range(code.n))


def test_bacon_shor_grid_lines_support_bare_logicals():
    # a full X-row (and Z-column) is a bare logical, so full lines are not
    # dressed-cleanable; the oracle decides, matching the brute-force check
    row = [0, 1, 2]
    column = [0, 3, 6]
    for line in (row, column):
        assert not is_dressed_cleanable(BS3, line)
        assert not brute_cleanable(BS3, line)


def test_distance_property_exhaustive_builtins():
    # every region smaller than d is correctable, over all subsets of every
    # built-in code with n <= 12
    from qlocality.families import bacon_shor, small_inner_codes, surface_code

    builtins = [
        BS2,
        BS3,
        FIVE,
        BITFLIP,
        surface_code(2).code,
        small_inner_codes("steane").code,
        small_inner_codes("repetition", r=3).code,
    ]
    for code in builtins:
        assert code.n <= 12
        d = distance(code).value
        for size in range(code.n + 1):
            for u in itertools.combinations(range(code.n), size):
                if size < d:
                    assert is_correctable(code, u)


def test_some_region_of_size_d_is_not_correctable():
    for code in (BS2, BS3, FIVE, BITFLIP):
        d = distance(code).value
        assert d <= 4
        assert any(
            not is_correctable(code, u) for u in itertools.combinations(range(code.n), d)
        )


def test_lemma_sweeps_randomized_n9_to_n20():
    # randomized subset-closure / union / expansion sweeps on larger codes
    from qlocality.families import bacon_shor, small_inner_codes, surface_code
    from qlocality.families import concatenate

    rng = random.Random(61)
    surface3 = surface_code(3).code  # n = 13
    concat20 = concatenate(
        small_inner_codes("five_one_three").code, bacon_shor_generators(2)
    )  # n = 20
    for code, trials in ((BS3, 120), (surface3, 40), (concat20, 15)):
        n = code.n
        for _ in range(trials):
            u = frozenset(q for q in range(n) if rng.random() < 0.3)
            t = frozenset(q for q in range(n) if rng.random() < 0.3)
            w = frozenset(q for q in u if rng.random() < 0.5)
            assert check_subset_closure(code, u, w)
            assert check_expansion_lemma(code, u, t).holds
            r2 = frozenset(q for q in range(n) if q not in u and rng.random() < 0.3)
            assert check_union_lemma(code, [u, r2]).holds


def test_region_out_of_range_rejected():
    with pytest.raises(ValueError):
        is_correctable(BS2, [7])


@pytest.mark.parametrize("predicate", [is_correctable, is_dressed_cleanable])
@pytest.mark.parametrize("region, shown", [([9, 2, 2], "[2, 9]"), ([-1], "[-1]")])
def test_region_predicates_name_the_qubit_range(predicate, region, shown):
    message = f"region {shown} outside qubit range [0, 9)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        predicate(BS3, region)


RANGE_CHECKS = {
    "is_correctable": is_correctable,
    "is_dressed_cleanable": is_dressed_cleanable,
    "check_union_lemma": lambda code, region: check_union_lemma(code, [region]),
    "ab_bound_check": lambda code, region: ab_bound_check(code, region, range(code.n)),
}


@pytest.mark.parametrize("check", RANGE_CHECKS.values(), ids=RANGE_CHECKS)
@pytest.mark.parametrize(
    "code, solver",
    [(BS3, _TwoBody), (surface_code(3).code, _Matching), (small_inner_codes("steane").code, _General)],
    ids=["two-body", "matching", "general"],
)
@pytest.mark.parametrize("region, shown", [([0.5, 2], "[0.5, 2]"), ([1.5], "[1.5]")])
def test_non_integer_qubits_fail_every_range_check(check, code, solver, region, shown):
    # each solver's range check, and the lemma checks' part checks, name a
    # value that is no qubit, as they name one outside [0, n)
    assert type(code.solver) is solver
    message = f"region {shown} outside qubit range [0, {code.n})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check(code, region)


# ── boundary ───────────────────────────────────────────────────────────


def test_boundary_of_corner_qubit():
    # qubit 0 of the 3x3 grid interacts with 1 (ZZ row pair) and 3 (XX column pair)
    assert boundary(BS3, [0]) == frozenset({0, 1, 3})


def test_boundary_empty():
    assert boundary(BS3, []) == frozenset()


# ── subset closure ─────────────────────────────────────────────────────


def test_subset_closure_requires_containment():
    with pytest.raises(ValueError):
        check_subset_closure(BS2, [0], [1])


def test_subset_closure_exhaustive_bs2_five():
    for code in (BS2, FIVE):
        for size in range(code.n + 1):
            for u in itertools.combinations(range(code.n), size):
                for wsize in range(len(u) + 1):
                    for w in itertools.combinations(u, wsize):
                        assert check_subset_closure(code, u, w)


# ── union lemma ────────────────────────────────────────────────────────


def test_union_lemma_decoupled_singletons():
    report = check_union_lemma(BS3, [[0], [8]], mode="subsystem")
    assert report.decoupled and report.each_correctable
    assert report.hypotheses_met and report.union_conclusion and report.holds


def test_union_lemma_detects_coupling():
    # qubits 0 and 1 share the ZZ gauge generator on the first row
    report = check_union_lemma(BS3, [[0], [1]], mode="subsystem")
    assert not report.decoupled
    assert not report.hypotheses_met


def test_union_lemma_single_region():
    report = check_union_lemma(BS3, [[0, 4]], mode="subsystem")
    assert report.hypotheses_met and report.holds


def test_union_lemma_rejects_overlap():
    with pytest.raises(ValueError):
        check_union_lemma(BS3, [[0, 1], [1, 2]])


def test_union_lemma_projector_mode_needs_abelian_gauge():
    with pytest.raises(ValueError):
        check_union_lemma(BS3, [[0], [8]], mode="projector")


def test_union_lemma_exhaustive_pairs():
    # subsystem conclusion on the nonabelian BS2, projector conclusion on [[5,1,3]]
    for code, mode in ((BS2, "subsystem"), (FIVE, "projector"), (FIVE, "subsystem")):
        for assignment in itertools.product((0, 1, 2), repeat=code.n):
            r1 = [q for q in range(code.n) if assignment[q] == 1]
            r2 = [q for q in range(code.n) if assignment[q] == 2]
            if not r1 or not r2:
                continue
            assert check_union_lemma(code, [r1, r2], mode=mode).holds


# ── expansion lemma ────────────────────────────────────────────────────


def test_expansion_lemma_empty_u():
    report = check_expansion_lemma(BS3, [], [0, 1])
    assert report.t_covers_boundary
    assert report.union_correctable == report.t_correctable


def test_expansion_lemma_corner():
    # the corner's boundary includes the corner itself (inner boundary)
    report = check_expansion_lemma(BS3, [0], boundary(BS3, [0]))
    assert report.hypotheses_met
    assert report.union_correctable


def test_expansion_lemma_missing_boundary_qubit():
    report = check_expansion_lemma(BS3, [0], [1])
    assert not report.t_covers_boundary
    assert not report.hypotheses_met
    assert report.holds


def test_expansion_lemma_exhaustive_bs2_five():
    for code in (BS2, FIVE):
        subsets = [
            frozenset(c)
            for size in range(code.n + 1)
            for c in itertools.combinations(range(code.n), size)
        ]
        for u in subsets:
            for t in subsets:
                assert check_expansion_lemma(code, u, t).holds


# ── AB / ABC bounds ────────────────────────────────────────────────────


def test_ab_trivial_partitions():
    n = BS3.n
    assert ab_bound_check(BS3, [], range(n)).holds
    report = ab_bound_check(BS3, range(n), [])
    assert not report.hypotheses_met  # full set is not cleanable with k >= 1
    assert report.holds


def test_ab_rejects_non_partition():
    with pytest.raises(ValueError):
        ab_bound_check(BS3, [0, 1], [1, 2])


def test_abc_five_qubit_example():
    # both 2-qubit sets are correctable (size < d = 3), so k = 1 <= |C| = 1
    report = abc_bound_check(FIVE, [0, 1], [2, 3], [4])
    assert report.hypotheses_met
    assert report.bound_holds
    assert report.c_size == 1


def test_abc_rejects_nonabelian():
    parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    with pytest.raises(ValueError):
        abc_bound_check(BS3, *parts)


def test_ab_abc_random_partitions_never_fail():
    rng = random.Random(31)
    for code in (BS2, BS3, FIVE, BITFLIP):
        for _ in range(150):
            labels = [rng.randrange(2) for _ in range(code.n)]
            a = [q for q in range(code.n) if labels[q] == 0]
            b = [q for q in range(code.n) if labels[q] == 1]
            assert ab_bound_check(code, a, b).holds
    for code in (FIVE, BITFLIP):
        for _ in range(150):
            labels = [rng.randrange(3) for _ in range(code.n)]
            parts = [[q for q in range(code.n) if labels[q] == lbl] for lbl in range(3)]
            assert abc_bound_check(code, *parts).holds


# ── region JSON ────────────────────────────────────────────────────────


def test_region_json_boxes():
    from qlocality.geometry import Embedding

    emb = Embedding(2, [(float(c), float(r)) for r in range(3) for c in range(3)])
    obj = {"boxes": [{"min": [0, 0], "max": [1, 0]}]}
    assert region_from_json(obj, emb) == frozenset({0, 1})
    with pytest.raises(ValueError):
        region_from_json(obj)


def test_region_json_rejects_unknown_shape():
    with pytest.raises(ValueError):
        region_from_json({"stuff": []})


def test_region_json_rejects_non_integral_qubit():
    assert region_from_json({"qubits": [0, 2.0]}) == frozenset({0, 2})
    with pytest.raises(ValueError, match="region qubit must be an integer"):
        region_from_json({"qubits": [0, 1.9]})


def test_region_json_box_dimension_must_match_embedding():
    from qlocality.geometry import Embedding

    emb = Embedding(1, [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match="box has dimension 2, embedding has 1"):
        region_from_json({"boxes": [{"min": [0, 0], "max": [1, 1]}]}, emb)
