"""Vectorised geometry layer against brute-force references, pinned
certificate digests on non-lattice inputs, a smoke run at n = 10^4, and a
strict sweep on Bacon-Shor at n = 9 * 10^4 under a 1 GiB memory cap."""

import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlocality import certify, families, geometry
from qlocality.codes import SubsystemCode, parameters
from qlocality.geometry import (
    DISTANCE_SLACK,
    Box,
    Embedding,
    GridTiling,
    InteractionSet,
    count_long,
    extract_interactions,
    points_in_box,
    validate_embedding,
    verify_tiling,
)
from qlocality.regions import boundary, chain_oracle, check_union_lemma, is_correctable
from tests.test_codes import supports_of


def all_pairs_violations(e):
    """The all-pairs loop that validate_embedding replaced."""
    coords = e.coordinates
    violations = []
    for i in range(e.n):
        diffs = coords[i + 1 :] - coords[i]
        if len(diffs) == 0:
            continue
        dists = np.linalg.norm(diffs, axis=1)
        for off in np.nonzero(dists < 1.0 - DISTANCE_SLACK)[0]:
            violations.append((i, i + 1 + int(off), float(dists[off])))
    return violations


# grid values make duplicates, exact distance-1 ties and points on box faces
GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
COORD = st.one_of(GRID, st.floats(-1.0, 4.0, allow_nan=False))


@st.composite
def clouds(draw, max_n=60):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, max_n))
    coords = draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=n, max_size=n))
    return Embedding(dim, coords)


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_validate_embedding_matches_all_pairs_loop(e):
    assert validate_embedding(e) == all_pairs_violations(e)


# half-integers put exact distance-1 ties across cell borders (0.5 to 1.5)
# and just under them; the scaled floats spread a cloud up to 1e12
TIE = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 1.5 - 1e-13, 2.0, 2.5])


@st.composite
def wide_clouds(draw, max_n=50):
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(0, max_n))
    scale = draw(st.sampled_from([1.0, 1e3, 1e12]))
    coord = st.one_of(TIE, st.floats(-3.0, 3.0), st.floats(-1.0, 1.0).map(lambda x: x * scale))
    coords = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n))
    if coords:
        # duplicates and neighbours one unit away on a single axis
        for _ in range(draw(st.integers(0, 3))):
            p = list(draw(st.sampled_from(coords)))
            axis = draw(st.integers(0, dim - 1))
            p[axis] += draw(st.sampled_from([0.0, 1.0, -1.0, 0.999, 0.5]))
            coords.append(p)
    return Embedding(dim, coords)


@settings(max_examples=150, deadline=None)
@given(wide_clouds(), st.sampled_from([geometry._KEY_LIMIT, 1, 1 << 4, 1 << 12]))
def test_validate_embedding_matches_all_pairs_loop_wide(e, key_limit):
    # the smaller limits make the key cover fewer axes, as int64 overflow
    # would, or none
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_KEY_LIMIT", key_limit)
        assert validate_embedding(e) == all_pairs_violations(e)


@st.composite
def integral_clouds(draw, max_n=40):
    """Points of Z^D, D = 1 to 3, near 0 or near 2^53 (where the sum with a
    small offset rounds to an even integer), with copies of some points and
    -0.0 in place of some zeros."""
    dim = draw(st.integers(1, 3))
    base = draw(st.sampled_from([0.0, 2.0**53 - 4, -(2.0**53) + 4, 2.0**53]))
    offsets = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    points = draw(st.lists(offsets, max_size=max_n))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    coords = np.array(points, dtype=float).reshape(-1, dim) + base
    zeros = int((coords == 0.0).sum())
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=zeros, max_size=zeros))
    coords[coords == 0.0] *= signs
    return Embedding(dim, coords[draw(st.permutations(range(len(coords))))])


@settings(max_examples=300, deadline=None)
@given(integral_clouds())
def test_validate_embedding_on_integral_points_matches_the_cell_search(e):
    assert validate_embedding(e) == geometry._cell_pairs(e.coordinates)


def test_validate_embedding_finds_signed_zeros_coincident():
    e = Embedding(2, [[0.0, 1.0], [3.0, 0.0], [-0.0, 1.0]])
    assert validate_embedding(e) == [(0, 2, 0.0)]


def test_validate_embedding_keys_past_int64():
    # 6,000 points spread over 1e12 in 5-D have about 6,000 non-neighbouring
    # cells per axis, so a key over all five axes would need more than
    # 6,001^5 > 2^62 values and covers four; planted companions at 0.3 to
    # 1.2 make pairs just inside and just outside distance 1
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1e12, 1e12, size=(6000, 5))
    radices = [len(np.unique(np.floor(pts[:, a]))) + 1 for a in range(5)]
    assert math.prod(radices) > geometry._KEY_LIMIT
    direction = rng.normal(size=(60, 5))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    companions = pts[:60] + direction * rng.uniform(0.3, 1.2, size=(60, 1))
    e = Embedding(5, np.concatenate([pts, companions]))
    violations = validate_embedding(e)
    assert violations == all_pairs_violations(e)
    assert 10 < len(violations) < 60


@pytest.mark.parametrize("shape", [(300, 300), (30, 30, 30)])
def test_validate_embedding_lattice_at_scale(shape):
    # n = 9 * 10^4 and 2.7 * 10^4: every point ties with its neighbours at 1
    grid = np.stack(np.meshgrid(*[np.arange(s, dtype=float) for s in shape], indexing="ij"), -1)
    coords = grid.reshape(-1, len(shape))
    assert validate_embedding(Embedding(len(shape), coords)) == []
    moved = coords.copy()
    q = len(coords) // 2 + 7
    moved[q] += 0.3
    dists = np.linalg.norm(moved - moved[q], axis=1)
    near = [j for j in np.flatnonzero(dists < 1.0 - DISTANCE_SLACK).tolist() if j != q]
    expected = sorted(
        (min(q, j), max(q, j), float(np.linalg.norm(moved[max(q, j)] - moved[min(q, j)])))
        for j in near
    )
    # 2-D: two axis neighbours at 0.76 and the diagonal one at 0.99;
    # 3-D: the three axis neighbours at 0.82
    assert len(expected) == 3
    assert validate_embedding(Embedding(len(shape), moved)) == expected


def test_validate_embedding_lattice_ties_and_duplicates():
    lattice = Embedding(3, [(x, y, z) for x in range(5) for y in range(5) for z in range(5)])
    assert validate_embedding(lattice) == []
    stacked = Embedding(2, [(0.0, 0.0)] * 4 + [(1.0, 0.0), (0.5, 0.5)])
    assert validate_embedding(stacked) == all_pairs_violations(stacked)
    assert len(validate_embedding(stacked)) == 6 + 4 + 1


def near_face_coords(tiling, point, margin):
    """Number of coordinates whose residue mod w is within margin of a grid
    plane: the per-coordinate loop verify_tiling ran before."""
    count = 0
    for x, o in zip(point, tiling.offset):
        r = (x - o) % tiling.width
        if r <= margin or r >= tiling.width - margin:
            count += 1
    return count


def verify_tiling_loop(tiling, x_points, y_points, ell):
    """The per-point report verify_tiling built before."""
    w, dim, margin = tiling.width, tiling.dimension, 2.0 * ell
    x_bad = sum(near_face_coords(tiling, p, margin) >= 2 for p in x_points)
    y_bad = sum(near_face_coords(tiling, p, margin) >= 1 for p in y_points)
    x_fraction = x_bad / len(x_points) if x_points else 0.0
    y_fraction = y_bad / len(y_points) if y_points else 0.0
    x_allowed = (4.0 * ell * dim / w) ** 2
    y_allowed = 8.0 * ell * dim / w
    return {
        "x_bad": x_bad,
        "y_bad": y_bad,
        "x_fraction": x_fraction,
        "y_fraction": y_fraction,
        "x_allowed": x_allowed,
        "y_allowed": y_allowed,
        "ok": x_fraction <= x_allowed and y_fraction <= y_allowed,
    }


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_verify_tiling_matches_per_point_loop(dim, data):
    ell = data.draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    w = data.draw(st.sampled_from([4.0 * ell, 3.0, 5.5, 10.0]).filter(lambda v: v >= 4.0 * ell))
    offset = tuple(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=dim, max_size=dim)))
    # points on the grid planes and exactly the margin away from them
    plane = st.builds(
        lambda o, k, dx: o + k * w + dx,
        st.sampled_from(offset),
        st.integers(-3, 3),
        st.sampled_from([0.0, 2.0 * ell, -2.0 * ell, 1e-9]),
    )
    coord = st.one_of(plane, st.floats(-30.0, 30.0))
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    xs = data.draw(st.lists(point, max_size=12))
    ys = data.draw(st.lists(point, max_size=12))
    tiling = GridTiling(w, offset)
    assert verify_tiling(tiling, xs, ys, ell) == verify_tiling_loop(tiling, xs, ys, ell)


def divide_space_loop(e, f, tiling, ell, d1):
    """The per-point, per-neighbour-cell loop _divide_space ran before."""
    coords = e.coordinates
    cells = set()
    cell_members = {}
    for q in range(e.n):
        idx = tiling.cell_index(coords[q])
        cell_members.setdefault(idx, []).append(q)
        for delta in itertools.product((-1, 0, 1), repeat=e.dimension):
            cells.add(tuple(i + dlt for i, dlt in zip(idx, delta)))
    good_cubes, bad_boxes, flags = [], [], []
    bad_cube_count = 0
    for cell in sorted(cells):
        cube = tiling.cell_box(cell)
        members = cell_members.get(cell, [])
        if sum(f[q] for q in members) < d1:
            good_cubes.append(cube)
            continue
        bad_cube_count += 1
        cell_masses = [(tuple(coords[q]), f[q]) for q in members if f[q] > 0]
        if tiling.width <= 10.0 * ell:
            if tiling.width < 5.0 * ell:
                flags.append("cube side below 5*ell: subdivision lemma inapplicable")
            bad_boxes.append(cube)
        else:
            bad_boxes.extend(geometry.subdivide(cube, cell_masses, ell, d1))
    return good_cubes, bad_boxes, bad_cube_count, flags


@settings(max_examples=200, deadline=None)
@given(clouds(max_n=40), st.data())
def test_divide_space_matches_per_point_loop(e, data):
    ell = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    w = data.draw(st.sampled_from([0.5, 1.0, 2.0, 6.0, 12.0]))
    # offsets on and off the grid values, so points sit on cell faces
    axis = st.one_of(GRID, st.floats(-3.0, 3.0))
    offset = tuple(data.draw(st.lists(axis, min_size=e.dimension, max_size=e.dimension)))
    masses = data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=e.n, max_size=e.n))
    # each qubit's count of long interactions, an array as the builder's bincount
    f = np.array(masses, dtype=np.int64)
    d1 = data.draw(st.sampled_from([0.5, 1.0, 3.0, 7.0]))
    tiling = GridTiling(w, offset)
    assert certify._divide_space(e, f, tiling, ell, d1) == divide_space_loop(e, f, tiling, ell, d1)


def subdivide_loop(b, f, ell, d1):
    """The greedy sweep subdivide ran before: a rescan of every mass for each
    interval sum and each tip, and a merge pass that restarts from the first
    cut after every join."""

    def mass_in_interval(lo, hi, closed_hi):
        return sum(m for x, m in masses if lo <= x < hi or (closed_hi and x == hi))

    lo, hi = b.mins[0], b.maxs[0]
    masses = sorted(((float(p[0]), int(m)) for p, m in f if b.contains(p)), key=lambda t: t[0])
    cuts = [lo]
    cur = lo
    while True:
        rem_height = hi - cur
        if mass_in_interval(cur, hi, True) <= d1 or rem_height <= 10 * ell:
            cuts.append(hi)
            break
        acc = 0
        tip = hi
        for x, m in masses:
            if x < cur:
                continue
            acc += m
            if acc > d1:
                tip = x
                break
        prefix = tip - cur
        cap = rem_height - 5 * ell
        if prefix < min(10 * ell, cap):
            step = min(10 * ell, cap)
        else:
            step = min(prefix, cap)
        cur += step
        cuts.append(cur)

    def segment_ok(a, c):
        return mass_in_interval(a, c, c == hi) <= d1 or (c - a) <= 10 * ell

    merged = True
    while merged and len(cuts) > 2:
        merged = False
        for i in range(1, len(cuts) - 1):
            if segment_ok(cuts[i - 1], cuts[i + 1]):
                del cuts[i]
                merged = True
                break
    return [Box((a,) + b.mins[1:], (c,) + b.maxs[1:]) for a, c in zip(cuts, cuts[1:])]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subdivide_matches_rescanning_loop(data):
    dim = data.draw(st.integers(1, 3))
    ell = data.draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    lo = data.draw(GRID)
    multiple = st.one_of(st.sampled_from([5.0, 10.0, 15.0, 30.0]), st.floats(5.0, 100.0))
    height = ell * data.draw(multiple)
    box = Box((lo,) + (0.0,) * (dim - 1), (lo + height,) + (1.0,) * (dim - 1))
    hi = box.maxs[0]
    assume(hi - lo >= 5 * ell)
    # first coordinates on the box ends, on multiples of ell (where cuts
    # land), tied and just outside; other coordinates inside and outside
    first = st.one_of(
        st.sampled_from([lo, hi]),
        st.integers(0, int(height / ell) + 1).map(lambda k: lo + k * ell),
        st.floats(lo - 1.0, hi + 1.0),
    )
    rest = st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5])
    point = st.tuples(first, *[rest] * (dim - 1))
    masses = data.draw(st.lists(st.tuples(point, st.sampled_from([0, 1, 1, 2, 5])), max_size=60))
    d1 = data.draw(st.sampled_from([0.5, 1.0, 2.5, 3.0, 7.0]))
    assert geometry.subdivide(box, masses, ell, d1) == subdivide_loop(box, masses, ell, d1)


@settings(max_examples=150, deadline=None)
@given(clouds(max_n=40), st.data())
def test_points_in_box_matches_contains(e, data):
    dim = e.dimension
    lo = data.draw(st.lists(GRID, min_size=dim, max_size=dim))
    ext = data.draw(st.lists(GRID, min_size=dim, max_size=dim))
    box = Box(tuple(lo), tuple(a + b for a, b in zip(lo, ext)))
    expected = [i for i in range(e.n) if box.contains(e.coordinates[i])]
    assert points_in_box(e, box) == expected


def test_points_in_box_rejects_dimension_mismatch():
    e = Embedding(1, [[0.0], [1.0]])
    with pytest.raises(ValueError, match="box has dimension 2, embedding has 1"):
        points_in_box(e, Box((0.0, 0.0), (1.0, 1.0)))


@st.composite
def jittered_codes(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    coords = [[rng.uniform(-50.0, 50.0) * rng.random() for _ in range(dim)] for _ in range(n)]
    gens = []
    for _ in range(draw(st.integers(1, 12))):
        letters = ["I"] * n
        for q in rng.sample(range(n), rng.randint(2, min(n, 6))):
            letters[q] = rng.choice("XYZ")
        gens.append("".join(letters))
    return SubsystemCode.from_strings(gens, n), Embedding(dim, coords)


@settings(max_examples=200, deadline=None)
@given(jittered_codes())
def test_interaction_lengths_match_per_pair_norm_exactly(code_and_embedding):
    code, e = code_and_embedding
    ints = extract_interactions(code, e)
    c = e.coordinates
    assert [(i, j) for i, j, _ in ints.pairs] == sorted(map(tuple, code.interaction_index().tolist()))
    for i, j, length in ints.pairs:
        assert length == float(np.linalg.norm(c[i] - c[j]))


@pytest.mark.parametrize(
    "a, b, length",
    [
        ((0.0,), (1e200,), 1e200),
        ((0.0, 0.0), (3e200, -4e200), 5e200),
        ((0.0, 0.0, 0.0), (1e300, 1e300, 1e300), math.sqrt(3.0) * 1e300),
        ((0.0, 0.0), (1e308, 1e308), math.sqrt(2.0) * 1e308),
        ((-1e308,), (1e308,), math.inf),  # the length itself is past the float range
    ],
)
def test_interaction_lengths_past_the_squares_range(a, b, length):
    # vecdot overflows to inf here; the row is measured again without a warning
    code = SubsystemCode.from_strings(["XX"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lengths = extract_interactions(code, Embedding(len(a), [a, b])).lengths
    assert lengths.tolist() == [pytest.approx(length, rel=1e-15)]


@settings(max_examples=100, deadline=None)
@given(
    jittered_codes().filter(lambda ce: ce[1].dimension >= 2),
    st.sampled_from([0.5, 2.0, 10.0, 40.0]),
    st.data(),
)
def test_holographic_f_box_matches_count_long(code_and_embedding, ell, data):
    code, e = code_and_embedding
    lo = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=e.dimension, max_size=e.dimension))
    side = data.draw(st.floats(0.0, 60.0))
    box = Box(tuple(lo), tuple(v + side for v in lo))
    _, f = count_long(extract_interactions(code, e), ell)
    cert = certify.holographic_certify(code, e, box, ell, d=1000)
    assert cert.metadata["f_box"] == sum(f[q] for q in points_in_box(e, box))


def reference_interaction_counts(code):
    """The per-generator loop that extract_interactions ran before the table:
    each pair with the number of generators covering it."""
    n = code.n
    mult = {}
    for row in code.gauge_matrix.rows:
        qubits = []
        bits = (row | row >> n) & ((1 << n) - 1)
        while bits:
            low = bits & -bits
            qubits.append(low.bit_length() - 1)
            bits ^= low
        for pair in itertools.combinations(qubits, 2):
            mult[pair] = mult.get(pair, 0) + 1
    return mult


@st.composite
def lettered_codes(draw):
    """Generators over I/X/Y/Z of any weight, weight 0 and 1 included, some repeated."""
    n = draw(st.integers(0, 12))
    kinds = [st.text(alphabet="IXYZ", min_size=n, max_size=n), st.just("I" * n)]
    if n:
        single = st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ"))
        kinds.append(single.map(lambda t: "I" * t[0] + t[1] + "I" * (n - t[0] - 1)))
    gens = draw(st.lists(st.one_of(kinds), max_size=10))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=4))
    return SubsystemCode.from_strings(gens, n)


@settings(max_examples=200, deadline=None)
@given(lettered_codes(), st.data())
def test_interaction_table_matches_per_generator_loop(code, data):
    expected = reference_interaction_counts(code)
    index = code.interaction_index()
    assert index.tolist() == [list(pair) for pair in sorted(expected)]
    assert code.interaction_index() is index
    coords = data.draw(st.lists(st.lists(COORD, min_size=2, max_size=2), min_size=code.n, max_size=code.n))
    e = Embedding(2, coords)
    ints = extract_interactions(code, e)
    assert [(i, j) for i, j, _ in ints.pairs] == sorted(expected)
    assert ints.index is index
    for i, j, length in ints.pairs:
        assert length == float(np.linalg.norm(e.coordinates[i] - e.coordinates[j]))


def assert_table_matches_loop(code):
    """The code's pair index against the reference loop."""
    expected = reference_interaction_counts(code)
    index = code.interaction_index()
    assert index.dtype == np.intp and index.shape == (len(expected), 2)
    assert index.tolist() == [list(pair) for pair in sorted(expected)]
    return expected


@pytest.mark.parametrize(
    "code",
    [
        SubsystemCode(0, []),
        SubsystemCode(3, []),
        SubsystemCode.from_strings(["IXI", "ZII", "III", "IIY", "IXI"]),
        SubsystemCode.from_supports(4, [((0,), ()), ((), (3,)), ((), ()), ((2,), (2,))]),
    ],
    ids=["n0", "no-generators", "weight-le-1-strings", "weight-le-1-supports"],
)
def test_interaction_table_without_pairs(code):
    assert assert_table_matches_loop(code) == {}
    assert code.interaction_index().shape == (0, 2)


MIXED = ["XXII", "XXII", "ZZII", "YIYI", "IZXY", "XZII", "IIII", "IYIZ", "YYYY", "IIZZ"]


@pytest.mark.parametrize("form", ["strings", "supports"])
def test_interaction_table_counts_repeated_and_mixed_generators(form):
    code = SubsystemCode.from_strings(MIXED)
    if form == "supports":
        code = SubsystemCode.from_supports(code.n, supports_of(code))
    expected = assert_table_matches_loop(code)
    assert expected[(0, 1)] == 5 and expected[(2, 3)] == 3


@pytest.mark.parametrize(
    ("build", "pairs"),
    [
        (lambda: families.bacon_shor(64), 2 * 64 * 63),
        (lambda: families.small_inner_codes("repetition", r=15**3, dim=3), 15**3 - 1),
    ],
    ids=["bacon-shor-64", "repetition-3375-3d"],
)
def test_interaction_table_at_full_size(build, pairs):
    expected = assert_table_matches_loop(build().code)
    assert len(expected) == pairs
    assert set(expected.values()) == {1}


def test_extract_interactions_builds_no_pair_map():
    ec = families.bacon_shor(5)
    code = ec.code
    ints = extract_interactions(code, ec.embedding)
    # no per-pair Python object: the (i, j, length) tuples are built on first read
    assert "pairs" not in vars(ints)
    index = code.interaction_index()
    assert ints.index is index
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 99
    assert len(ints.pairs) == len(index)


def census_by_pairs(pairs, n, ell):
    """The per-pair loops of count_long, the bad qubits, max_length and the
    long pairs before they read the index array."""
    m = 0
    f = {q: 0 for q in range(n)}
    bad = set()
    long = []
    for i, j, length in pairs:
        if length >= ell:
            m += 1
            f[i] += 1
            f[j] += 1
            bad |= {i, j}
            long.append([i, j])
    return m, f, frozenset(bad), long, max((length for _, _, length in pairs), default=0.0)


def boundary_by_pairs(code, u):
    """The per-pair loop of regions.boundary before the index array."""
    u = frozenset(u)
    outer, inner = set(), set()
    for i, j in code.interaction_index().tolist():
        if (i in u) != (j in u):
            if i in u:
                inner.add(i)
                outer.add(j)
            else:
                inner.add(j)
                outer.add(i)
    return frozenset(outer | inner)


def decoupled_by_pairs(code, parts):
    """The per-pair loop of the union lemma's decoupling test."""
    membership = {}
    for idx, p in enumerate(parts):
        for q in p:
            membership[q] = idx
    for i, j in code.interaction_index().tolist():
        a, b = membership.get(i), membership.get(j)
        if a is not None and b is not None and a != b:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(lettered_codes(), st.data())
def test_census_matches_per_pair_loops(code, data):
    n = code.n
    dim = data.draw(st.integers(1, 3))
    coords = data.draw(st.lists(st.lists(COORD, min_size=dim, max_size=dim), min_size=n, max_size=n))
    ints = extract_interactions(code, Embedding(dim, coords))
    # ell on a pair's length (a tie), between lengths, or past the longest
    longest = ints.max_length()
    choices = [st.sampled_from([0.25, 1.0, 2.5]), st.just(longest + 1.0)]
    if longest > 0:
        choices.append(st.sampled_from([x for x in ints.lengths.tolist() if x > 0]))
    ell = data.draw(st.one_of(choices))
    m, f, bad, long, top = census_by_pairs(ints.pairs, n, ell)
    assert count_long(ints, ell) == (m, f)
    assert frozenset(q for q, v in count_long(ints, ell)[1].items() if v) == bad
    assert ints.long_pairs(ell).tolist() == long
    assert ints.max_length() == top
    # u may hold qubits outside [0, n), which are in no pair
    u = data.draw(st.sets(st.integers(-3, n + 3)))
    assert boundary(code, u) == boundary_by_pairs(code, u)
    labels = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    parts = [[q for q in range(n) if labels[q] == part] for part in range(3)]
    assert check_union_lemma(code, parts).decoupled == decoupled_by_pairs(code, parts)


def sweep_gamma_by_pairs(e, ell):
    """The pairwise set loop that computed the sweep's gamma before."""
    coords = e.coordinates - e.coordinates.min(axis=0) + ell
    diffs = set()
    for axis in range(e.dimension):
        vals = np.unique(coords[:, axis])
        for a, b in itertools.combinations(vals, 2):
            delta = abs(b - a)
            diffs.add(delta)
            diffs.add(abs(delta - 2.0 * ell))
    nonzero = [v for v in diffs if v > 1e-12]
    return min(nonzero) / 2.0 if nonzero else ell / 2.0


@settings(max_examples=100, deadline=None)
@given(clouds(max_n=30).filter(lambda e: e.n > 0), st.sampled_from([0.25, 0.5, 1.0, 1.5]))
def test_sweep_gamma_matches_pairwise_loop(e, ell):
    ints = InteractionSet(e.n, np.empty((0, 2), dtype=np.intp), np.empty(0))
    cert = certify.expansion_sweep(e, ints, ell, tau=e.n + 1, d=e.n + 1)
    assert cert.metadata["gamma"] == sweep_gamma_by_pairs(e, ell)


def event_loop_bad_intervals(values, ell, tau):
    """The sorted-event loop the vectorised census replaced."""
    if len(values) == 0:
        return []
    events = sorted([(v - ell, 0, +1) for v in values] + [(v + ell, 1, -1) for v in values])
    intervals = []
    count = 0
    start = None
    idx = 0
    while idx < len(events):
        pos = events[idx][0]
        while idx < len(events) and events[idx][0] == pos and events[idx][1] == 0:
            count += 1
            idx += 1
        if count > tau and start is None:
            start = pos
        while idx < len(events) and events[idx][0] == pos and events[idx][1] == 1:
            count -= 1
            idx += 1
        if count <= tau and start is not None:
            intervals.append((start, pos))
            start = None
    if start is not None:
        intervals.append((start, events[-1][0]))
    return intervals


# multiples of 1/4 make repeated values and windows that touch exactly
# (v + ell == w - ell) for the grid ells
CENSUS_VALUE = st.one_of(
    st.integers(0, 24).map(lambda k: k / 4.0), st.floats(-3.0, 9.0, allow_nan=False)
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(CENSUS_VALUE, max_size=40),
    st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(0.01, 4.0)),
    st.one_of(st.integers(0, 8), st.floats(0.0, 8.0)),
)
def test_bad_intervals_match_event_loop(values, ell, tau):
    arr = np.array(values, dtype=float)
    assert certify._bad_intervals(arr, ell, tau) == event_loop_bad_intervals(arr, ell, tau)


def face_distance_loop(point, box, fixed):
    """l_inf distance from point to the face of box with the given fixed axes."""
    dist = 0.0
    for axis in range(box.dimension):
        if axis in fixed:
            dist = max(dist, abs(point[axis] - fixed[axis]))
        else:
            dist = max(dist, box.mins[axis] - point[axis], point[axis] - box.maxs[axis], 0.0)
    return dist


def near_faces_loop(point, boxes, margin, codim):
    """The per-qubit, per-face loop that the partition builders ran before."""
    for box in boxes:
        for axes in itertools.combinations(range(box.dimension), codim):
            for values in itertools.product(*[(box.mins[a], box.maxs[a]) for a in axes]):
                if face_distance_loop(point, box, dict(zip(axes, values))) <= margin:
                    return True
    return False


@settings(max_examples=200, deadline=None)
@given(clouds(max_n=30), st.data())
def test_near_faces_match_per_face_loop(e, data):
    dim = e.dimension
    boxes = []
    for _ in range(data.draw(st.integers(0, 4))):
        lo = data.draw(st.lists(GRID, min_size=dim, max_size=dim))
        ext = data.draw(st.lists(GRID, min_size=dim, max_size=dim))
        boxes.append(Box(tuple(lo), tuple(a + b for a, b in zip(lo, ext))))
    margin = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]))
    for codim in (1, 2):
        got = certify._near_faces(e.coordinates, boxes, margin, codim)
        expected = [near_faces_loop(p, boxes, margin, codim) for p in e.coordinates]
        assert got.tolist() == expected


# ── certificates on non-lattice inputs, pinned at the per-qubit-loop code ──


def jittered_bacon_shor(m=8, seed=3):
    ec = families.bacon_shor(m)
    rng = random.Random(seed)
    coords = [
        [1.25 * x + rng.uniform(-0.1, 0.1) for x in p]
        for p in ec.embedding.coordinates.tolist()
    ]
    return ec.code, Embedding(2, coords)


def chain_code(n):
    """X_i X_{i+1} on a chain plus every Z_i: k = 0, so every region is correctable."""
    gens = []
    for i in range(n - 1):
        gens.append("I" * i + "XX" + "I" * (n - i - 2))
    for i in range(n):
        gens.append("I" * i + "Z" + "I" * (n - i - 1))
    return SubsystemCode.from_strings(gens, n)


def random_walk(n=80, side=9.0, seed=11):
    """A 3-D walk of steps 1 to 1.6 long that keeps every pair >= 1 apart."""
    rng = random.Random(seed)
    pts = [[side / 2.0] * 3]
    while len(pts) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        r = rng.uniform(1.0, 1.6) / math.sqrt(sum(c * c for c in v))
        p = [a + r * c for a, c in zip(pts[-1], v)]
        if all(0.0 <= c <= side for c in p) and all(math.dist(p, q) >= 1.0 for q in pts):
            pts.append(p)
    return chain_code(n), Embedding(3, pts)


def holographic_d(side, ell, dim):
    """Smallest d meeting strict holographic mode's width and ell preconditions."""
    vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    width = side ** (dim - 1) * ell * 2.0 * 4.0 ** (dim + 1) * dim / vol
    cap = (8.0 * math.sqrt(dim) * ell) ** dim
    return math.ceil(max(width, cap)) + 1


# (label, input function, sweep ell, tau, d, holographic ell) -> (strict sweep,
# verified sweep, strict holographic) SHA-256 of to_json_lines(), computed
# with the per-qubit loops these paths replaced.  The sweep's ell sits above
# most interaction lengths, so B is small and each step's count depends on
# the slab and final-box selections.
PINNED = {
    "bacon_shor-8-jittered": (
        jittered_bacon_shor, 1.2, 10, 80, 1.6,
        (
            "595f0bf9a007ff80048b4e98f14b2c438698d257cd6f25ab58718411bd98c2c5",
            "80929890758e1efffc877832f96871b4d5989469438b57fd721f51ba8e2a48c4",
            "2725318839100763846f7d37ccff02f6ebbfa64782fd10e1fc1b14ff2fcd7802",
        ),
    ),
    "walk-80-3d": (
        random_walk, 1.5, 12, 100, 0.25,
        (
            "c35bed28ab5acaa717f35dd0a2845134e8cfeb2e5f9d0234e800a5d862b3bca3",
            "e76a6e6c520163277f8e35769e61cc23d160f1023b45438c4adf433f4a716876",
            "43272942e1ee2bf0f86ae65ef612f12500683be6c57df6b521093b26f56b640d",
        ),
    ),
}


def pinned_certificates(build, ell, tau, d, holo_ell):
    code, e = build()
    ints = extract_interactions(code, e)
    strict = certify.expansion_sweep(e, ints, ell, tau, d)
    verified = certify.expansion_sweep(e, ints, ell, tau, d, mode="verified", code=code)
    lo, hi = e.coordinates.min(axis=0), e.coordinates.max(axis=0)
    box = Box(tuple(map(float, lo)), tuple(map(float, hi)))
    hd = holographic_d(max(box.side_lengths), holo_ell, e.dimension)
    holographic = certify.holographic_certify(code, e, box, holo_ell, d=hd)
    return strict, verified, holographic


@pytest.mark.parametrize("label", sorted(PINNED))
def test_certificates_match_pinned_digests(label):
    build, ell, tau, d, holo_ell, digests = PINNED[label]
    certs = pinned_certificates(build, ell, tau, d, holo_ell)
    got = tuple(sha256(c.to_json_lines().encode()).hexdigest() for c in certs)
    assert got == digests


# label -> (outcome, steps, SHA-256 of to_json_lines()) of the verified
# holographic run on PINNED's box and d, computed before the cube ladder
# became one loop: the jittered lattice is stuck at its base cube, and the
# walk's seven cubes are all correctable
VERIFIED_HOLOGRAPHIC_PINNED = {
    "bacon_shor-8-jittered": (
        certify.OUTCOME_STUCK, 1,
        "2d4affc68087e4324fe5b72516406e7c3bc4397334227373d03c3d2271c6c526",
    ),
    "walk-80-3d": (
        certify.OUTCOME_CERTIFIED, 7,
        "b0a42b52b2c52d36e13838906d1ec0f03dd36acda38bc19abd280a81eb5dd473",
    ),
}


@pytest.mark.parametrize("label", sorted(VERIFIED_HOLOGRAPHIC_PINNED))
def test_verified_holographic_matches_pinned_digest(label):
    build, _, _, _, holo_ell, _ = PINNED[label]
    code, e = build()
    lo, hi = e.coordinates.min(axis=0), e.coordinates.max(axis=0)
    box = Box(tuple(map(float, lo)), tuple(map(float, hi)))
    hd = holographic_d(max(box.side_lengths), holo_ell, e.dimension)
    cert = certify.holographic_certify(code, e, box, holo_ell, mode="verified", d=hd)
    outcome, steps, digest = VERIFIED_HOLOGRAPHIC_PINNED[label]
    assert (cert.outcome, len(cert.steps)) == (outcome, steps)
    assert sha256(cert.to_json_lines().encode()).hexdigest() == digest


def dart_cloud(n, dim, side, seed):
    """n uniform points in [0, side]^dim kept >= 1 apart: all coordinates distinct."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        p = [rng.uniform(0.0, side) for _ in range(dim)]
        if all(math.dist(p, q) >= 1.0 for q in pts):
            pts.append(p)
    return pts


def near_pair_code(n, dim, side, seed):
    """X_i X_j on the pairs of a dart cloud closer than 1.4, four random
    (mostly long) pairs, and every Z_i: k = 0."""
    pts = dart_cloud(n, dim, side, seed)
    rng = random.Random(seed)
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if math.dist(pts[i], pts[j]) < 1.4]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(4)]
    gens = [(1 << i) | (1 << j) for i, j in pairs]
    gens += [1 << n + i for i in range(n)]
    return SubsystemCode(n, gens), Embedding(dim, pts)


# (cloud args, ell, tau, d, mode) -> SHA-256 of to_json_lines(), computed with
# the sweep that rebuilt every slab mask and ran the event-loop census at each
# step.  The 2-D cloud opens the second dimension nine times; the 3-D cloud
# reaches depth 3 four times, where the final box's lower-axis ranges drop
# some of the qubits outside B and the lower slabs but keep others.
SWEEP_PINNED = {
    "cloud-200-2d": (
        (200, 2, 22.0, 2), 1.5, 26, 200, "strict",
        "58dff6c7d06ec5c7f14e90610d741f92c22beac41f699df1411f6b99719f6437",
    ),
    "cloud-160-3d": (
        (160, 3, 9.0, 3), 1.5, 48, 300, "strict",
        "731c3651089bf58fc400535c073e9c44972b7cd5709ee0850e32e9f932fa519d",
    ),
    "cloud-160-3d-verified": (
        (160, 3, 9.0, 3), 1.5, 48, 300, "verified",
        "52471377c9a4c78b35231f7ed366613f3ee25bb23dd4ce70430e66d912572f09",
    ),
}


@pytest.mark.parametrize("label", sorted(SWEEP_PINNED))
def test_sweep_on_clouds_matches_pinned_digests(label):
    cloud, ell, tau, d, mode, digest = SWEEP_PINNED[label]
    code, e = near_pair_code(*cloud)
    ints = extract_interactions(code, e)
    cert = certify.expansion_sweep(e, ints, ell, tau, d, mode=mode, code=code)
    rules = [step.rule for step in cert.steps]
    if e.dimension == 2:
        assert rules.count("start-next-dimension") == 9
    else:
        assert "expand-dimension-2" in rules and "expand-last-dimension" in rules
    assert sha256(cert.to_json_lines().encode()).hexdigest() == digest


def level_two_events(rules):
    """(runs at depth 2 cut by a bad coordinate, returns to depth 2 after
    a finish-dimension) in a 3-D sweep's step rules."""
    cuts = reentries = 0
    depth = 1
    for prev, rule in zip([None] + rules, rules):
        if rule == "start-next-dimension":
            cuts += depth == 2 and prev == "expand-dimension-2"
            depth += 1
        elif rule == "finish-dimension":
            depth -= 1
        elif rule == "expand-dimension-2" and prev == "finish-dimension":
            reentries += 1
    return cuts, reentries


# (cloud args, ell, tau, d, mode) -> SHA-256 of to_json_lines(), computed
# before the sweep memoised each run's frontier counts and grew one basis
# for the verified regions.  On the 120-point cloud, runs at depth 2 are cut
# by a bad coordinate; on the 160-point cloud, depth 2 is also re-entered
# at nxt after depth 3 finishes, where a new run starts.
SWEEP_RUN_PINNED = {
    "cloud-120-3d-cut": (
        (120, 3, 8.0, 5), 1.0, 24, 300, "strict",
        "998faa0ec189e3680abfedb6076ae49b8584a3560efae6bdf124745550694944",
    ),
    "cloud-160-3d-reentered": (
        (160, 3, 9.0, 3), 1.0, 36, 300, "strict",
        "462475f117aacb5e9185766f255d7a84ed673b054c8d4e12f4bc73ff3cceb829",
    ),
    "cloud-160-3d-reentered-verified": (
        (160, 3, 9.0, 3), 1.0, 36, 300, "verified",
        "119d24f58be663377129ba0a2a3b85121af17c9b5588d2eeffb60c3f62f99163",
    ),
}


@pytest.mark.parametrize("label", sorted(SWEEP_RUN_PINNED))
def test_sweep_runs_match_pinned_digests(label):
    cloud, ell, tau, d, mode, digest = SWEEP_RUN_PINNED[label]
    code, e = near_pair_code(*cloud)
    ints = extract_interactions(code, e)
    cert = certify.expansion_sweep(e, ints, ell, tau, d, mode=mode, code=code)
    assert cert.outcome == certify.OUTCOME_CERTIFIED
    cuts, reentries = level_two_events([step.rule for step in cert.steps])
    assert cuts >= 2 and (reentries >= 2 or "reentered" not in label)
    assert sha256(cert.to_json_lines().encode()).hexdigest() == digest


LATTICE_ELLS = (0.3, 0.45, 0.7, 1.1, 1.3, 2.1)


def jittered_lattice_sweep(seed):
    """Strict sweep number seed of 48: seeds 0-23 run on a 10 x 10 lattice,
    24-47 on a 5 x 5 x 5 one, four seeds per ell.  The lattice has spacing
    1.25 and each coordinate moves by up to 0.1; its nearest neighbours, a
    few random long pairs and every Z_i make the code.  tau and d scale
    with the qubits a slab of half-width ell holds."""
    dim, side = (2, 10) if seed < 24 else (3, 5)
    ell = LATTICE_ELLS[seed % 24 // 4]
    rng = random.Random(seed)
    sites = list(itertools.product(range(side), repeat=dim))
    index = {s: q for q, s in enumerate(sites)}
    n = len(sites)
    coords = [[1.25 * c + rng.uniform(-0.1, 0.1) for c in s] for s in sites]
    pairs = [
        (q, index[t])
        for s, q in index.items()
        for ax in range(dim)
        if (t := s[:ax] + (s[ax] + 1,) + s[ax + 1 :]) in index
    ]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * side))]
    gens = [(1 << i) | (1 << j) for i, j in pairs]
    gens += [1 << n + i for i in range(n)]
    e = Embedding(dim, coords)
    ints = extract_interactions(SubsystemCode(n, gens), e)
    slab = side ** (dim - 1) * (2 * ell / 1.25 + 1)
    tau = round(rng.uniform(0.3, 1.0) * slab)
    d = round(rng.uniform(0.6, 3.0) * slab * dim)
    return certify.expansion_sweep(e, ints, ell, tau, d)


# seed -> SHA-256 of to_json_lines(), computed while each open level kept a
# memo of slab counts filled by one broadcast per run of centres; none of
# the ell values is exact in binary, so slab edges fall between floats
LATTICE_SWEEP_PINNED = [
    "3e31bc2f7ab28d228c3f537f52bf6eaac96bc402941385d0457a54b746a95408",  # 0: stuck at step 2
    "dda7895437359681d421593708e81d4175b71b117c143451003ee64af94651e4",  # 1: stuck at step 2
    "d1beab7142e66b81134fbd243c2580e0d9aa07b61267bcc780940f67dbc2413a",  # 2: stuck at step 2
    "1729b8c55fae95088fe5b3522579becd7425d9060a45746c6dd1504e271f8b5c",  # 3: stuck at step 2
    "0eef879cf392d9d1451c7a4ee496e1d9ca2568b978fa58cae8fd461d5aa2ba50",  # 4: stuck at step 1
    "a4803a850c9dbec32ff5ef9703d84c60038a23a57fab9c5a44d630fa1552eefd",  # 5: stuck at step 1
    "58439bc54626cef236de483a911e3b4e007d6d8d5bb626e7b71f0c069d7b1698",  # 6: stuck at step 1
    "4b1ca3908c52a8b98a6b15d70eef61622760f145e37142be66bb8104617af351",  # 7: stuck at step 1
    "94c8c51d02734dc07c70199868181eaf0159fbeb499f0ec1a783e23f171934f8",  # 8: stuck at step 1
    "93fef7af4066ace9805d7a0444bb667feb06c2176054ec52cafc55788d0a503a",  # 9: certified in 24 steps
    "4cbeec0ae1417c44b6d24c70230214509870b1653828a3dc297bb99334b4f566",  # 10: stuck at step 1
    "6d77c9e0e51983b1fe49328b4a54d319c21a32bff2f18740a6f75921105265bd",  # 11: stuck at step 1
    "98877f0aa1cdda257751910498777272b8559a67a3879fad72f2ca2e45451bda",  # 12: certified in 14 steps
    "9335242799696380d73727b1bf56128194f62d5fab81d594104727f52f68560d",  # 13: stuck at step 1
    "73327835a595a5c0394ac7dea4f08f58b00717f76e1b44342c8d165442795e54",  # 14: certified in 148 steps
    "8aeff75c7fd0ff34c2a571a5533fae256a0d7d433458113e81da32b7128d112b",  # 15: certified in 148 steps
    "bcdc74b2c90db31ccd6a0912888d52fbb117e102e609637c00d7116972db5dda",  # 16: certified in 25 steps
    "1918829f370b0081a07ae7cf3c3a9b9c244177015f39a38cccf7c272e8a9049e",  # 17: certified in 25 steps
    "a31f894424a11f90778484cb32f8b5713ef4d79b1e9b99385c9e8783420cf908",  # 18: certified in 16 steps
    "e238b3adba95d4d72beba1bde84e2c9e9dd032ba7e21108a6d2774a39da6ac5e",  # 19: certified in 25 steps
    "f9231a8e4420c6c7ef2260f7ee3c40073094f59af058821fcffd9ada9cb5c641",  # 20: certified in 12 steps
    "243e3c730d79c8ced295790a76dc0dff875bc914502a14d1eee0a93a9015a2e6",  # 21: certified in 44 steps
    "783cc685d99ef3ba8e3a7ab5e2c2d61314d70844e27414cbcb924f6b561c6715",  # 22: certified in 13 steps
    "fb8a9d9aa3f81deac2a13888b4c418b1eb02b1fc0daf70a4c90898c32804d29a",  # 23: certified in 12 steps
    "7c1e664cf09c77eb08283ba0c76c865391b4a8d08db253875ca5c805b3be8c86",  # 24: certified in 707 steps
    "fa98610d739d57a23954c39cca2199719996700314504333e3bf0fd55857dd56",  # 25: stuck at step 1
    "46454533790f6eed4809fc8bafc396293ab168e60a77529174658d9a1fc5f463",  # 26: certified in 707 steps
    "339ea81ef63fa24a3c37b5e9468162ff12a7b2bd3ce52200b47fb6f2525477d4",  # 27: certified in 23 steps
    "4054a8ee6fe6a2bc62a89051517c460b3b1a7615ca8c67bd45bf4f62dba1c6e4",  # 28: certified in 502 steps
    "1c3b82ee2933f78dfec06232c036839985f83f968251c404d420f59113c08d00",  # 29: certified in 16 steps
    "75481b1f16b516a802c4d6218ae585f1f3e154c44b9a7a3276b87e5d57d634c1",  # 30: certified in 16 steps
    "e7038a5da3933e7b5a48354829dafa25327073378a41fa326daee282c9a87468",  # 31: stuck at step 3
    "eab5c1e9b4fd81280ce92afe870f54fb3f8faf57d6ffd054d8aacc60f187e68f",  # 32: certified in 35 steps
    "597dfe7ee7ec6ff33352cf2891e4b29bbd24bf250182abdeebc0ebf76a7c26c2",  # 33: certified in 11 steps
    "9e243b36ef640d2b896c0a8bfe7026f36cfed25bbf7a0ebe676d3a80591a0436",  # 34: certified in 11 steps
    "84c3ae0b1bdd6073d5b8315e5279348f06513291bddc4f7826ac8381c075afbd",  # 35: certified in 35 steps
    "c016b8597d16d7f73a5dcae193dc1ee64d7f953cd04edb23746ddba9b39c9344",  # 36: certified in 8 steps
    "2547eec2009d3bd375d0b3c767bf6be16589536a43d14c4f8e2fe6d0fff330ca",  # 37: certified in 188 steps
    "c564f14d44f481712c0c1aaa43789e5134d3a23ac450a253ca0d5051f13dd673",  # 38: certified in 8 steps
    "19c4622d1001fe0db28e12422f664f4c74e456a21a56d7341a09997eaa6608be",  # 39: certified in 8 steps
    "9774c6f5bcb56d73d23ea95ddb4d3eda4ab3f86e06c8c4a50e87f7c010dcde8f",  # 40: certified in 17 steps
    "2009fe1dfa51a17ace0f1ab01094b49e352b106c4d3dfec38844bf892df26c1c",  # 41: certified in 16 steps
    "4c092e1dda77ea17d7ba5094054c24f860f22a87c5aa5afe1826ba064a15f7a4",  # 42: certified in 7 steps
    "1bfd92514d22ff784ab5aaedddbe3a2042dcb37cb6374ae76d08d9a4a9340713",  # 43: certified in 7 steps
    "63ed9322630c53e7ca2e6bf2812882b486fa5fb07af77d49a8d0b1b10af0f450",  # 44: certified in 15 steps
    "a5d3cb4cf7d47d2ec4bf0dac4f40a7f030f05d1f7f60e8dbe9bc03f5fabf3bd5",  # 45: certified in 5 steps
    "dc9de12779b107661fa5af1f9a51377a892569b521975598c968b2a4d1fb7bb2",  # 46: certified in 15 steps
    "9f144877b0de0c5304d4d97512aa09547bb28ece4694b5bed014ce8aa4e6be10",  # 47: certified in 13 steps
]


@pytest.mark.parametrize("seed", range(len(LATTICE_SWEEP_PINNED)))
def test_strict_sweep_on_jittered_lattices_matches_pinned_digests(seed):
    cert = jittered_lattice_sweep(seed)
    assert sha256(cert.to_json_lines().encode()).hexdigest() == LATTICE_SWEEP_PINNED[seed]


def test_chain_oracle_matches_is_correctable_and_needs_a_chain():
    # Bacon-Shor is answered through its component matrix, the surface code
    # through the growing basis
    for ec in (families.bacon_shor(4), families.surface_code(3)):
        rng = random.Random(7)
        qubits = list(range(ec.code.n))
        rng.shuffle(qubits)
        correctable = chain_oracle(ec.code)
        region = np.zeros(ec.code.n, dtype=bool)
        for size in range(ec.code.n + 1):
            region = region.copy()
            region[qubits[:size]] = True
            expected = is_correctable(ec.code, qubits[:size])
            assert correctable(region) == expected
            if not expected:
                break
        else:
            raise AssertionError("the whole lattice must fail")
        shrinking = chain_oracle(ec.code)
        assert shrinking(np.ones(ec.code.n, dtype=bool)) is False
        with pytest.raises(AssertionError, match="does not contain"):
            shrinking(np.zeros(ec.code.n, dtype=bool))


def test_verified_sweep_rejects_qubit_count_mismatch():
    code, e = near_pair_code(40, 2, 9.0, 1)
    small = Embedding(2, e.coordinates[:-1])
    ints = InteractionSet(small.n, np.empty((0, 2), dtype=np.intp), np.empty(0))
    with pytest.raises(ValueError, match="embedding has 39 points, code has 40 qubits"):
        certify.expansion_sweep(small, ints, 1.5, 10, 100, mode="verified", code=code)


# ── scaling smoke test past 4,096 qubits ──


# m -> SHA-256 of the strict sweep and the strict holographic run on the
# whole lattice, computed with the event-loop census, the per-step slab
# masks and the per-qubit type (iii)/(iv) sets
SCALE_PINNED = {
    64: (
        "d5c100ed9a73447dd951af39dbc6cec320efaad042bf8c23b2c6f1e13f4370d9",
        "4273d39e55cde4040ad92641021ffe3cd807ab0e730f7847e1fb4a0fcc31c5cc",
    ),
    100: (
        "6cb8f178eb55736a269f3aa64c271232d4f8019ac79ea3e9295c1c09367f3c75",
        "aa9f519cbd4e583f6864508cba803e456687d6a3d6baf5f75179f9f5876c7fb5",
    ),
}


@pytest.mark.parametrize("m", sorted(SCALE_PINNED))
def test_bacon_shor_at_scale(m):
    ec = families.bacon_shor(m)
    assert ec.code.n == m * m
    p = parameters(ec.code)
    assert (p.k, p.s) == (1, 2 * (m - 1))
    ints = extract_interactions(ec.code, ec.embedding)
    assert len(ints.pairs) == 2 * m * (m - 1)
    assert all(length == 1.0 for _, _, length in ints.pairs)
    sweep = certify.expansion_sweep(ec.embedding, ints, 1.5, 3 * m + 1, 10 * m)
    assert sweep.outcome == certify.OUTCOME_CERTIFIED
    box = Box((0.0, 0.0), (m - 1.0, m - 1.0))
    holo = certify.holographic_certify(
        ec.code, ec.embedding, box, 1.5, d=holographic_d(m - 1.0, 1.5, 2)
    )
    assert holo.outcome == certify.OUTCOME_CERTIFIED
    digests = tuple(sha256(c.to_json_lines().encode()).hexdigest() for c in (sweep, holo))
    assert digests == SCALE_PINNED[m]


def test_lattice_path_never_builds_pauli_vectors():
    # the geometric path reads only the support arrays of a family code
    ec = families.bacon_shor(16)
    ints = extract_interactions(ec.code, ec.embedding)
    sweep = certify.expansion_sweep(ec.embedding, ints, 1.5, 49, 160)
    box = Box((0.0, 0.0), (15.0, 15.0))
    holo = certify.holographic_certify(
        ec.code, ec.embedding, box, 1.5, d=holographic_d(15.0, 1.5, 2)
    )
    assert sweep.outcome == holo.outcome == certify.OUTCOME_CERTIFIED
    assert "gauge_matrix" not in vars(ec.code)
    assert len(ec.code.gauge_matrix) == 480  # built on first read


BS300_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qlocality import certify, families, geometry
ec = families.bacon_shor(300)
ints = geometry.extract_interactions(ec.code, ec.embedding)
cert = certify.expansion_sweep(ec.embedding, ints, 1.5, 901, 3000)
assert cert.outcome == certify.OUTCOME_CERTIFIED, cert.outcome
print(len(cert.steps))
"""


def test_bacon_shor_300_strict_sweep_under_one_gib():
    # 179,400 generators on 90,000 qubits: as dense Paulis they would need
    # about 2 GB, so the 1 GiB address-space cap (set in the child only)
    # holds only while the family and the sweep stay sparse
    src = str(Path(families.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", BS300_CHILD], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) == 30400  # sweep steps
