"""The solver seam: every structured solver against the general GF(2) layer,
detection, the distance record, presentation changes, and the matching
solver's distance witness."""

import dataclasses
import gc
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlocality import codes
from qlocality.certify import expansion_sweep, holographic_certify
from qlocality.codes import (
    CodeParameters,
    DistanceResult,
    SubsystemCode,
    _Concatenated,
    _General,
    _Matching,
    _TwoBody,
    distance,
    parameters,
)
from qlocality.families import bacon_shor, concatenate, small_inner_codes, surface_code
from qlocality.geometry import Box, extract_interactions
from qlocality.regions import chain_oracle, is_correctable, is_dressed_cleanable
from tests.test_codes import FIVE, random_codes, supports_of, two_body_cases


def css_code(n, x_checks, z_checks, as_rows):
    """A CSS code from its checks' qubit lists, built from rows or from
    support arrays."""
    supports = [(tuple(sorted(c)), ()) for c in x_checks] + [((), tuple(sorted(c))) for c in z_checks]
    if not as_rows:
        return SubsystemCode.from_supports(n, supports)
    return SubsystemCode(n, [sum(1 << q for q in xs) | sum(1 << q for q in zs) << n for xs, zs in supports])


def planar_patch(height, width, dropped=(), as_rows=False):
    """The unrotated surface-code layout on a height x width grid: data on
    the points with r + c even, X checks at odd rows and Z checks at odd
    columns of the others, each on its up to four grid neighbours; the
    checks numbered in ``dropped`` (row-major) are left out, as holes."""
    data = {(r, c): i for i, (r, c) in enumerate(
        (r, c) for r in range(height) for c in range(width) if (r + c) % 2 == 0
    )}
    x_checks, z_checks = [], []
    checks = [(r, c) for r in range(height) for c in range(width) if (r + c) % 2]
    for index, (r, c) in enumerate(checks):
        near = [data[p] for p in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)) if p in data]
        if index not in dropped:
            (x_checks if r % 2 else z_checks).append(near)
    return css_code(len(data), x_checks, z_checks, as_rows)


def toric_code(size, as_rows=False):
    """Kitaev's toric code on a size x size torus: qubit 2(r size + c) is
    the edge from (r, c) to (r, c + 1), the next one the edge to (r + 1, c);
    X checks on vertices and Z checks on plaquettes."""

    def h(r, c):
        return 2 * ((r % size) * size + c % size)

    def v(r, c):
        return h(r, c) + 1

    cells = list(itertools.product(range(size), repeat=2))
    stars = [[h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)] for r, c in cells]
    plaquettes = [[h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)] for r, c in cells]
    return css_code(2 * size * size, stars, plaquettes, as_rows)


@st.composite
def planar_patches(draw):
    """(code, regions): a patch of up to 5 x 5 grid points (n <= 13) with
    random checks dropped, from rows or arrays, and a few regions."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    checks = height * width // 2
    dropped = draw(st.sets(st.integers(0, max(checks - 1, 0)), max_size=3))
    code = planar_patch(height, width, dropped, draw(st.booleans()))
    return code, draw(st.lists(st.sets(st.integers(0, code.n - 1)), max_size=6))


@st.composite
def toric_codes(draw):
    code = toric_code(draw(st.integers(2, 4)), draw(st.booleans()))
    return code, draw(st.lists(st.sets(st.integers(0, code.n - 1)), max_size=6))


def check_against_general(kind, code, regions, order):
    """``kind``'s structure of the code answers as ``_General`` does:
    parameters, distance at every cap from a cold structure and from the
    cached one, both oracles on the regions, and a chain along ``order``."""
    solver, general = code._detect(kind), _General(code)
    p = general.parameters
    assert solver.parameters == p
    n = code.n
    if p.k:
        d = general.distance(n).value
        for cap in range(n + 1):
            expected = DistanceResult(weight_cap=cap, value=d if d <= cap else None)
            assert code._detect(kind).distance(cap) == expected
            assert solver.distance(cap) == expected
    for u in regions:
        assert solver.is_correctable(u) == general.is_correctable(u)
        assert solver.is_dressed_cleanable(u) == general.is_dressed_cleanable(u)
    state, basis = solver.untouched(), general.untouched()
    for start, end in itertools.pairwise(sorted({0, n, *(c for c in (1, 2, 4, n // 2, n - 1) if 0 < c < n)})):
        verdict = solver.extend(state, order[start:end])
        assert verdict == general.extend(basis, order[start:end])
        if not verdict:
            break


@pytest.mark.parametrize("kind", [_TwoBody, _Matching])
@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        planar_patches().map(lambda case: (*case, _Matching)),
        toric_codes().map(lambda case: (*case, _Matching)),
        two_body_cases().map(lambda case: (*case, _TwoBody)),
    ),
    st.randoms(use_true_random=False),
)
def test_every_solver_that_accepts_a_code_matches_the_general_layer(kind, case, rng):
    code, regions, home = case
    built = {"gauge_matrix", "support_arrays"} & set(vars(code))
    solver = code._detect(kind)
    # detection reads only the form the code was built in
    assert {"gauge_matrix", "support_arrays"} & set(vars(code)) == built
    if kind is home:
        assert solver is not None
    if solver is not None:
        check_against_general(kind, code, regions, rng.sample(range(code.n), code.n))


@pytest.mark.parametrize("size", [2, 3, 4])
def test_toric_codes_take_the_matching_solver(size):
    code = toric_code(size)
    assert isinstance(code.solver, _Matching)
    assert parameters(code).k == 2
    assert distance(code).value == size


def with_product(code, i, j):
    rows = code.gauge_matrix.rows
    return SubsystemCode(code.n, [*rows, rows[i] ^ rows[j]])


STEANE = small_inner_codes("steane").code
BS2 = bacon_shor(2).code
REJECTED = {
    "steane": STEANE,
    "five_one_three": FIVE,
    "concat-513-bs2": concatenate(FIVE, BS2),
    "concat-steane-bs2": concatenate(STEANE, BS2),
    # Z checks 0 and 1 are on qubits 0 1 3 and 1 2 4: their product puts
    # qubit 3 in a third Z check
    "surface-3-with-a-product": with_product(surface_code(3).code, 0, 1),
}


@pytest.mark.parametrize("name", list(REJECTED))
@pytest.mark.parametrize("form", ["rows", "arrays"])
def test_detection_rejects_codes_off_both_structures(name, form):
    code = REJECTED[name]
    if form == "arrays":
        code = SubsystemCode.from_supports(code.n, supports_of(code))
    built = {"gauge_matrix", "support_arrays"} & set(vars(code))
    assert code._detect(_TwoBody) is None and code._detect(_Matching) is None
    assert type(code.solver) is (_General if code._parts is None else _Concatenated)
    assert {"gauge_matrix", "support_arrays"} & set(vars(code)) == built


# ── the concatenation solver ───────────────────────────────────────────


def fresh(code):
    """The code's rows in a new code, with no cache."""
    return SubsystemCode(code.n, code.gauge_matrix.rows)


def check_concatenation(inner, outer):
    """``_Concatenated`` answers the concatenation as ``_General`` does:
    parameters, and distance at every cap from a cold code (fresh parts
    too) and from the cached one, which is at least d1·d2.  Returns
    (d, d1·d2), or None for k = 0."""
    code = concatenate(inner, outer)
    solver, general = _Concatenated(code), _General(code)
    p = general.parameters
    assert solver.parameters == p
    if not p.k:
        return None
    n = code.n
    d = general.distance(n).value
    floor = distance(inner).value * distance(outer).value
    assert d >= floor
    for cap in range(n + 1):
        expected = DistanceResult(weight_cap=cap, value=d if d <= cap else None)
        cold = concatenate(fresh(inner), fresh(outer))
        assert _Concatenated(cold).distance(cap) == expected
        assert solver.distance(cap) == expected
    return d, floor


NAMED_PARTS = {
    "steane": STEANE,
    "five_one_three": FIVE,
    "BS-2": BS2,
    "BS-3": bacon_shor(3).code,
    "repetition-3": small_inner_codes("repetition", r=3).code,
    "surface-2": surface_code(2).code,
}


@pytest.mark.parametrize(
    "inner, outer, d, floor",
    [
        ("steane", "BS-2", 6, 6),
        ("five_one_three", "BS-2", 6, 6),
        ("repetition-3", "five_one_three", 5, 3),
    ],
)
def test_concatenation_floor_tight_and_not(inner, outer, d, floor):
    assert check_concatenation(NAMED_PARTS[inner], NAMED_PARTS[outer]) == (d, floor)


PART_PAIRS = st.lists(
    st.one_of(st.sampled_from(list(NAMED_PARTS.values())), random_codes().filter(lambda c: c.n <= 5)),
    min_size=2,
    max_size=2,
)


@settings(max_examples=60, deadline=None)
@given(PART_PAIRS)
def test_concatenation_solver_matches_the_general_layer(parts):
    inner, outer = parts
    assume(inner.n * outer.n <= 28 and parameters(inner).k >= 1)
    # the general layer's search, the reference, grows as C(n, d): a floor
    # past 6 ([[5,1,3]] in itself, d = 9) takes it seconds
    assume(parameters(outer).k == 0 or distance(inner).value * distance(outer).value <= 6)
    check_concatenation(inner, outer)


def spy_levels(monkeypatch):
    """The (n, w) of every top-level search level ``codes._fails`` runs
    from now on, in order."""
    levels, search = [], codes._fails

    def spy(cols, n, basis, start, left):
        if start == 0 and not basis:
            levels.append((n, left))
        return search(cols, n, basis, start, left)

    monkeypatch.setattr(codes, "_fails", spy)
    return levels


def test_concatenated_distance_searches_from_the_floor(monkeypatch):
    code = concatenate(STEANE, BS2)
    distance(STEANE)
    levels = spy_levels(monkeypatch)
    assert distance(code) == DistanceResult(weight_cap=28, value=6)
    # d >= 3·2 rules out every level below 6
    assert levels == [(28, 6)]


def test_every_cap_on_a_concatenation_runs_only_the_levels_its_record_leaves_open(monkeypatch):
    # fresh parts, so every search level is counted from cold
    code = concatenate(small_inner_codes("steane").code, bacon_shor(2).code)
    levels = spy_levels(monkeypatch)
    for cap in range(code.n + 1):
        assert distance(code, cap) == DistanceResult(weight_cap=cap, value=6 if cap >= 6 else None)
    # Steane's levels 1 (cap 1) and 2, 3 (cap 4), then level 6 at the floor
    assert levels == [(7, 1), (7, 2), (7, 3), (28, 6)]
    levels.clear()
    assert distance(code) == DistanceResult(weight_cap=28, value=6)
    assert levels == []


def test_a_capped_concatenation_below_the_floor_builds_no_general_layer():
    code = concatenate(STEANE, BS2)
    assert isinstance(code.solver, _Concatenated)
    assert parameters(code) == CodeParameters(n=28, k=1, g=1, s=26)
    assert distance(code, weight_cap=2) == DistanceResult(weight_cap=2, value=None)
    assert distance(code, weight_cap=5) == DistanceResult(weight_cap=5, value=None)
    assert not {"_center", "gauge_basis", "correctable_columns"} & set(vars(code))


def test_a_concatenation_read_back_from_its_rows_takes_the_general_layer():
    code = fresh(concatenate(STEANE, BS2))
    assert type(code.solver) is _General
    assert distance(code, weight_cap=2) == DistanceResult(weight_cap=2, value=None)


# ── the distance record ────────────────────────────────────────────────


def concatenations():
    """Concatenations of n <= 28 with k >= 1 and, as above, a floor <= 6."""
    return PART_PAIRS.filter(
        lambda parts: parts[0].n * parts[1].n <= 28
        and parameters(parts[0]).k >= 1
        and parameters(parts[1]).k >= 1
        and distance(parts[0]).value * distance(parts[1]).value <= 6
    ).map(lambda parts: concatenate(*parts))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        random_codes(),
        two_body_cases().map(lambda case: case[0]),
        planar_patches().map(lambda case: case[0]),
        concatenations(),
    ),
    st.data(),
)
def test_one_solver_answers_every_cap_sequence_as_a_fresh_general_search(code, data):
    assume(code.n and parameters(code).k >= 1)
    drawn = data.draw(st.lists(st.integers(0, code.n), min_size=1, max_size=6))
    # repeats, and both orders
    caps = drawn + drawn[::-1]
    expected = {cap: _General(code).distance(cap) for cap in set(caps)}
    d = _General(code).distance(code.n).value
    solver, found = code.solver, False
    for cap in caps:
        assert solver.distance(cap) == expected[cap]
        found = found or cap >= d
        if isinstance(solver, _Matching):
            # the witness is kept from the first answer that finds d, through
            # every capped miss after it
            assert (solver.witness is not None) == found
            assert not found or len(solver.witness) == d


# ── presentation changes ───────────────────────────────────────────────


def permuted(code, rng):
    rows = list(code.gauge_matrix.rows)
    rng.shuffle(rows)
    return SubsystemCode(code.n, rows)


def duplicated(code, rng):
    rows = code.gauge_matrix.rows
    return SubsystemCode(code.n, [*rows, rows[rng.randrange(len(rows))]])


def multiplied(code, rng):
    i, j = rng.sample(range(len(code.gauge_matrix.rows)), 2)
    return with_product(code, i, j)


PRESENTED = {
    "BS-4": lambda: bacon_shor(4).code,
    "surface-4": lambda: surface_code(4).code,
    "toric-3": lambda: toric_code(3),
    "steane": lambda: small_inner_codes("steane").code,
}


def answers(code, regions, order):
    """Every exact answer about the code: parameters, distance at every cap,
    both verdicts on the regions, and the chain verdicts along ``order``."""
    chain, mask, verdicts = chain_oracle(code), np.zeros(code.n, dtype=bool), []
    for size in range(code.n + 1):
        mask = mask.copy()
        mask[order[:size]] = True
        verdicts.append(chain(mask))
        if not verdicts[-1]:
            break
    return (
        parameters(code),
        [distance(code, cap) for cap in range(code.n + 1)],
        [(is_correctable(code, u), is_dressed_cleanable(code, u)) for u in regions],
        verdicts,
    )


@pytest.mark.parametrize("change", [permuted, duplicated, multiplied])
@pytest.mark.parametrize("name", list(PRESENTED))
def test_presentation_changes_keep_every_answer(name, change):
    rng = random.Random(f"{name}-{change.__name__}")
    code = PRESENTED[name]()
    regions = [set(rng.sample(range(code.n), rng.randint(0, code.n))) for _ in range(30)]
    order = rng.sample(range(code.n), code.n)
    assert answers(change(code, rng), regions, order) == answers(code, regions, order)


def test_surface_3_with_a_product_answers_through_the_general_layer_as_surface_3():
    rng = random.Random(3)
    code = surface_code(3).code
    regions = [set(rng.sample(range(code.n), rng.randint(0, code.n))) for _ in range(30)]
    order = rng.sample(range(code.n), code.n)
    extended = REJECTED["surface-3-with-a-product"]
    assert answers(extended, regions, order) == answers(code, regions, order)
    assert type(extended.solver) is _General and isinstance(code.solver, _Matching)


def certificates(ec):
    """The strict and verified sweep and holographic certificates, as bytes."""
    ints = extract_interactions(ec.code, ec.embedding)
    box = Box((0.0, 0.0), (2.0, 2.0))
    return [
        *(expansion_sweep(ec.embedding, ints, 1.0, 10.0, 3, mode, ec.code) for mode in ("strict", "verified")),
        *(holographic_certify(ec.code, ec.embedding, box, 0.5, mode) for mode in ("strict", "verified")),
    ]


@pytest.mark.parametrize("build", [bacon_shor, surface_code], ids=["BS-3", "surface-3"])
def test_generator_permutation_keeps_every_certificate_byte(build):
    ec = build(3)
    shuffled = permuted(ec.code, random.Random(3))
    assert shuffled.gauge_matrix.rows != ec.code.gauge_matrix.rows
    before = [cert.to_json_lines() for cert in certificates(ec)]
    after = [cert.to_json_lines() for cert in certificates(dataclasses.replace(ec, code=shuffled))]
    assert after == before


# ── the matching solver's distance witness ─────────────────────────────


def check_witness(solver, d):
    """The matching solver keeps, with d, a cycle of weight d that the
    general layer finds not correctable."""
    assert solver.distance(solver.code.n) == DistanceResult(weight_cap=solver.code.n, value=d)
    assert len(solver.witness) == d
    assert not _General(solver.code).is_correctable(solver.witness)


@pytest.mark.parametrize("m", range(2, 9))
def test_surface_distance_witness_is_a_logical_of_weight_d(m):
    # the solver references its code weakly, so the test holds the code
    code = surface_code(m).code
    check_witness(code.solver, m)


@settings(max_examples=100, deadline=None)
@given(planar_patches())
def test_patch_distance_witness_is_a_logical_of_weight_d(case):
    code, _ = case
    # a one-row patch is also two-body, so the matching solver is asked directly
    solver = code._detect(_Matching)
    if solver.k:
        check_witness(solver, _General(code).distance(code.n).value)


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda: bacon_shor(3).code, _TwoBody),
        (lambda: surface_code(3).code, _Matching),
        (lambda: small_inner_codes("steane").code, _General),
        (lambda: concatenate(small_inner_codes("steane").code, bacon_shor(2).code), _Concatenated),
    ],
    ids=["two-body", "matching", "general", "concatenation"],
)
def test_a_dropped_code_is_freed_without_the_cyclic_collector(build, kind):
    code = build()
    assert type(code.solver) is kind
    parameters(code)
    distance(code)
    is_correctable(code, [0])
    is_dressed_cleanable(code, [0])
    oracle = chain_oracle(code)
    region = np.zeros(code.n, dtype=bool)
    region[0] = True
    oracle(region)
    ref = weakref.ref(code)
    del code
    # the oracle keeps the code it checks
    assert ref() is not None
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del oracle
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_general_distance_search_leaves_no_unreachable_object():
    code = small_inner_codes("steane").code
    parameters(code)
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    saved = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert distance(code) == DistanceResult(weight_cap=7, value=3)
        assert gc.collect() == 0
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]
        if was_enabled:
            gc.enable()
