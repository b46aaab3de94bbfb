"""Geometry: embeddings, interactions, packing, tilings, subdivision."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocality.codes import SubsystemCode
from qlocality.geometry import (
    Box,
    Embedding,
    GridTiling,
    ball_volume,
    check_density,
    count_long,
    extract_interactions,
    find_tiling,
    packing_bound,
    points_in_box,
    subdivide,
    validate_embedding,
    verify_tiling,
)
from tests.test_codes import bacon_shor_generators

BS3 = bacon_shor_generators(3)


def unit_grid(m, dim=2):
    points = []
    for idx in range(m**dim):
        rem = idx
        coord = []
        for _ in range(dim):
            coord.append(float(rem % m))
            rem //= m
        points.append(tuple(coord))
    return Embedding(dim, points)


def random_embedding(rng, dim, max_points=40):
    """Jittered sparse lattice: spacing 2, per-coordinate jitter < 1/2."""
    side = rng.randrange(2, 5)
    points = []
    for idx in range(side**dim):
        rem = idx
        coord = []
        for _ in range(dim):
            coord.append(2.0 * (rem % side) + rng.uniform(-0.45, 0.45))
            rem //= side
        if rng.random() < 0.7:
            points.append(tuple(coord))
        if len(points) >= max_points:
            break
    if not points:
        points.append(tuple(0.0 for _ in range(dim)))
    return Embedding(dim, points)


# ── embeddings ─────────────────────────────────────────────────────────


def test_unit_grid_is_valid():
    assert validate_embedding(unit_grid(3)) == []


def test_coincident_points_flagged():
    emb = Embedding(2, [(0.0, 0.0), (0.0, 0.0)])
    violations = validate_embedding(emb)
    assert violations == [(0, 1, 0.0)]


def test_distance_exactly_one_is_fine():
    emb = Embedding(2, [(0.0, 0.0), (1.0, 0.0)])
    assert validate_embedding(emb) == []


def test_embedding_json_round_trip():
    emb = unit_grid(3)
    again = Embedding.from_json(emb.to_json())
    assert again.dimension == emb.dimension
    assert (again.coordinates == emb.coordinates).all()


def test_embedding_rejects_ragged_coordinates():
    ragged = "must be m rows of 2 numbers"
    with pytest.raises(ValueError, match=f"^coordinates {ragged}$"):
        Embedding(2, [(0.0, 0.0), (1.0,)])
    with pytest.raises(ValueError, match=f"^x_points {ragged}$"):
        find_tiling([(0.0, 0.0), (1.0,)], [], 16.0, 1.0, 2, seed=0)
    # empty rows are not an empty point set
    with pytest.raises(ValueError, match=r"^coordinates must be m x 2, got shape \(3, 0\)$"):
        Embedding(2, [[], [], []])
    assert Embedding(2, []).coordinates.shape == (0, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_embedding_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        Embedding(2, [(0.0, 0.0), (bad, 3.0)])


# ── interactions ───────────────────────────────────────────────────────


def test_bacon_shor_unit_grid_interactions():
    ints = extract_interactions(BS3, unit_grid(3))
    assert len(ints.pairs) == 12
    assert all(length == 1.0 for _, _, length in ints.pairs)


def test_xyz_line_interactions():
    code = SubsystemCode.from_strings(["XYZ"])
    emb = Embedding(2, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    ints = extract_interactions(code, emb)
    assert [(i, j, length) for i, j, length in ints.pairs] == [
        (0, 1, 1.0),
        (0, 2, 2.0),
        (1, 2, 1.0),
    ]


def test_no_generators_no_interactions():
    ints = extract_interactions(SubsystemCode(4, []), unit_grid(2))
    assert ints.pairs == ()


def test_interactions_independent_of_generator_order():
    shuffled = SubsystemCode(BS3.n, list(reversed(BS3.gauge_matrix.rows)))
    a = extract_interactions(BS3, unit_grid(3))
    b = extract_interactions(shuffled, unit_grid(3))
    assert a.pairs == b.pairs


def test_interaction_multiplicity_metadata():
    # two generators sharing the same pair: one interaction
    code = SubsystemCode.from_strings(["XX", "ZZ"])
    ints = extract_interactions(code, Embedding(2, [(0.0, 0.0), (1.0, 0.0)]))
    assert len(ints.pairs) == 1
    assert ints.index.tolist() == [[0, 1]]


def test_interaction_multiplicity_cannot_corrupt_the_code_table():
    code = SubsystemCode.from_strings(["XXI", "ZZI", "IYY"])
    emb = Embedding(2, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    ints = extract_interactions(code, emb)
    for table in (code.interaction_index(), ints.index, ints.lengths):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 99
    again = extract_interactions(code, emb)
    assert code.interaction_index().tolist() == again.index.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize(
    ("ell", "message"),
    [
        (math.nan, "ell must be positive"),
        (0.0, "ell must be positive"),
        (-1.0, "ell must be positive"),
        (math.inf, "ell must be finite"),
    ],
)
def test_long_pairs_and_bad_qubits_check_ell(ell, message):
    # long_pairs(-1.0) used to be every pair
    ints = extract_interactions(BS3, unit_grid(3))
    for census in (ints.long_pairs, lambda v: count_long(ints, v)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            census(ell)


def test_count_long_examples():
    ints = extract_interactions(BS3, unit_grid(3))
    m, f = count_long(ints, 1.5)
    assert m == 0 and all(v == 0 for v in f.values())
    m, f = count_long(ints, 1.0)
    assert m == 12
    assert sum(f.values()) == 24

    code = SubsystemCode.from_strings(["XYZ"])
    emb = Embedding(2, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    m, f = count_long(extract_interactions(code, emb), 1.5)
    assert m == 1
    assert f == {0: 1, 1: 0, 2: 1}


def test_count_long_sum_rule_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(2, 8)
        rows = [rng.getrandbits(n) | rng.getrandbits(n) << n for _ in range(rng.randrange(1, 5))]
        code = SubsystemCode(n, rows)
        emb = Embedding(2, [(2.0 * i, rng.uniform(0, 3)) for i in range(n)])
        ints = extract_interactions(code, emb)
        for ell in (0.5, 1.0, 2.0, 5.0):
            m, f = count_long(ints, ell)
            assert sum(f.values()) == 2 * m


# ── point density ──────────────────────────────────────────────────────


def test_ball_volumes():
    assert ball_volume(1) == pytest.approx(2.0)
    assert ball_volume(2) == pytest.approx(math.pi)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_packing_bound_values():
    assert packing_bound(Box((0, 0), (3, 3))) == pytest.approx(4.0 / math.pi * 16.0)
    assert packing_bound(Box((0, 0), (0, 0))) == pytest.approx(4.0 / math.pi)
    assert packing_bound(Box((0, 0, 0), (1, 1, 1))) == pytest.approx(48.0 / math.pi)


def test_density_unit_grid():
    # the [0,3]^2 box holds the 16 points of the 4x4 unit grid, under the
    # (4/pi)*16 ~ 20.37 bound
    emb = unit_grid(4)
    box = Box((0.0, 0.0), (3.0, 3.0))
    assert len(points_in_box(emb, box)) == 16
    assert check_density(box, emb)


def test_density_degenerate_box():
    # a single-point box can hold at most one embedded point
    emb = unit_grid(3)
    box = Box((1.0, 1.0), (1.0, 1.0))
    assert len(points_in_box(emb, box)) == 1
    assert check_density(box, emb)


def test_density_never_violated_random():
    rng = random.Random(41)
    for _ in range(500):
        dim = rng.choice((2, 3))
        emb = random_embedding(rng, dim)
        lo = [rng.uniform(-2, 6) for _ in range(dim)]
        side = [rng.uniform(0, 8) for _ in range(dim)]
        box = Box(tuple(lo), tuple(a + s for a, s in zip(lo, side)))
        assert check_density(box, emb)


# ── tiling ─────────────────────────────────────────────────────────────


def test_tiling_empty_sets():
    tiling = find_tiling([], [], 8.0, 1.0, 2, seed=0)
    assert verify_tiling(tiling, [], [], 1.0)["ok"]


def test_tiling_collinear_points():
    points = [(float(i), 0.0) for i in range(100)]
    tiling = find_tiling(points, points, 40.0, 1.0, 2, seed=3)
    report = verify_tiling(tiling, points, points, 1.0)
    assert report["ok"]
    assert report["x_bad"] <= 4  # (4*1*2/40)^2 * 100
    assert report["y_bad"] <= 40  # 8*1*2/40 * 100


def test_tiling_boundary_w_equals_4ell():
    points = [(float(i), float(i)) for i in range(10)]
    tiling = find_tiling(points, points, 4.0, 1.0, 2, seed=1)
    assert verify_tiling(tiling, points, points, 1.0)["ok"]


def test_tiling_rejects_small_w():
    with pytest.raises(ValueError):
        find_tiling([], [], 3.9, 1.0, 2, seed=0)


def test_tiling_deterministic_per_seed():
    points = [(float(i), 0.5 * i) for i in range(30)]
    a = find_tiling(points, points, 12.0, 1.0, 2, seed=9)
    b = find_tiling(points, points, 12.0, 1.0, 2, seed=9)
    assert a == b


def tiling_in_every_form(pts, w, ell, dim, seed, max_tries):
    """find_tiling's tiling and verify_tiling's report, asserted equal whether
    X and Y are one list, two equal lists or the read-only coordinate array."""
    arr = Embedding(dim, pts).coordinates
    results = []
    for xs, ys in ((pts, pts), (pts, list(pts)), (arr, arr)):
        tiling = find_tiling(xs, ys, w, ell, dim, seed=seed, max_tries=max_tries)
        results.append((tiling, verify_tiling(tiling, xs, ys, ell)))
    assert results[1] == results[0] and results[2] == results[0]
    return results[0]


def test_tiling_derandomized_fallback():
    rng = random.Random(8)
    for trial in range(10):
        dim = rng.choice((2, 3))
        pts = [tuple(rng.uniform(0, 50) for _ in range(dim)) for _ in range(25)]
        ell = rng.uniform(0.5, 2.0)
        w = rng.uniform(4.0, 10.0) * ell
        # max_tries=0 forces the conditional-expectation search
        _, report = tiling_in_every_form(pts, w, ell, dim, seed=0, max_tries=0)
        assert report["ok"]


@st.composite
def tiling_cases(draw):
    """Point sets in D = 1..3, scattered or on a line through the origin,
    with some points repeated, plus ell, w, a seed and a try budget."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(0.0, 50.0)
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(*[coord] * dim), max_size=25))
    else:
        step = draw(st.tuples(*[st.integers(0, 3)] * dim))
        pts = [tuple(t * a for a in step) for t in draw(st.lists(coord, max_size=25))]
    if pts:
        pts += draw(st.lists(st.sampled_from(pts), max_size=5))
    ell = draw(st.floats(0.25, 2.0))
    w = draw(st.floats(4.0, 12.0)) * ell
    seed = draw(st.integers(0, 2**32))
    max_tries = draw(st.sampled_from((0, 3, 10_000)))
    return pts, w, ell, dim, seed, max_tries


@settings(max_examples=200, deadline=None)
@given(tiling_cases())
def test_tiling_shared_point_set_matches_separate_lists(case):
    _, report = tiling_in_every_form(*case)
    assert report["ok"]


def test_find_tiling_rejects_points_of_the_wrong_width():
    # eight 3-D points used to be regrouped into twelve 2-D points
    pts = [(float(i), 0.0, 1.0) for i in range(8)]
    with pytest.raises(ValueError, match=r"^x_points must be m x 2, got shape \(8, 3\)$"):
        find_tiling(pts, pts, 16.0, 1.0, 2, seed=0)
    with pytest.raises(ValueError, match=r"^y_points must be m x 2, got shape \(8, 3\)$"):
        find_tiling(np.zeros((0, 2)), pts, 16.0, 1.0, 2, seed=0)
    with pytest.raises(ValueError, match=r"^x_points must be m x 2, got shape \(4,\)$"):
        find_tiling([1.0, 2.0, 3.0, 4.0], [], 16.0, 1.0, 2, seed=0)


def test_verify_tiling_rejects_points_of_the_wrong_width():
    # three 2-D points used to be read as six 1-D points and reported ok
    tiling = GridTiling(width=16.0, offset=(0.0,))
    pts = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    with pytest.raises(ValueError, match=r"^x_points must be m x 1, got shape \(3, 2\)$"):
        verify_tiling(tiling, pts, pts, 1.0)
    with pytest.raises(ValueError, match=r"^y_points must be m x 1, got shape \(3, 2\)$"):
        verify_tiling(tiling, np.zeros((0, 1)), pts, 1.0)


NON_FINITE = [(math.nan, 0.0), (1.0, math.inf)]
FINITE = [(0.0, 0.0), (1.0, 1.0)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_find_tiling_rejects_non_finite_points(bad):
    # a NaN residue compares false, so the point used to count as far from every face
    pts = [bad, (3.0, 4.0)]
    with pytest.raises(ValueError, match=r"^x_points must be finite$"):
        find_tiling(pts, pts, 8.0, 1.0, 2, seed=0)
    with pytest.raises(ValueError, match=r"^x_points must be finite$"):
        find_tiling(pts, FINITE, 8.0, 1.0, 2, seed=0)
    with pytest.raises(ValueError, match=r"^y_points must be finite$"):
        find_tiling(FINITE, np.array(pts), 8.0, 1.0, 2, seed=0)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_verify_tiling_rejects_non_finite_points(bad):
    tiling = GridTiling(width=8.0, offset=(0.5, 0.5))
    pts = [bad, (3.0, 4.0)]
    with pytest.raises(ValueError, match=r"^x_points must be finite$"):
        verify_tiling(tiling, pts, pts, 1.0)
    with pytest.raises(ValueError, match=r"^x_points must be finite$"):
        verify_tiling(tiling, np.array(pts), FINITE, 1.0)
    with pytest.raises(ValueError, match=r"^y_points must be finite$"):
        verify_tiling(tiling, FINITE, pts, 1.0)


def test_grid_tiling_cells():
    tiling = GridTiling(width=4.0, offset=(1.0, 1.0))
    assert tiling.cell_index((0.0, 0.0)) == (-1, -1)
    assert tiling.cell_index((1.0, 1.0)) == (0, 0)
    box = tiling.cell_box((0, 0))
    assert box.mins == (1.0, 1.0) and box.maxs == (5.0, 5.0)


# ── subdivision ────────────────────────────────────────────────────────


def check_subdivision(box, masses, ell, d1, boxes):
    """Postconditions: exact tiling, heights, light-or-short, count."""
    lo, hi = box.mins[0], box.maxs[0]
    assert boxes[0].mins[0] == lo and boxes[-1].maxs[0] == hi
    for a, b in zip(boxes, boxes[1:]):
        assert a.maxs[0] == b.mins[0]
    total = 0
    for i, bx in enumerate(boxes):
        height = bx.maxs[0] - bx.mins[0]
        assert height >= 5 * ell - 1e-12
        closed = i == len(boxes) - 1
        mass = _box_mass(bx, masses, closed)
        total += mass
        assert mass <= d1 or height <= 10 * ell + 1e-12
    f_total = sum(m for point, m in masses if box.contains(point))
    assert total == f_total
    assert len(boxes) <= max(1, math.floor(2 * f_total / d1))


def _box_mass(bx, masses, closed):
    out = 0
    for point, m in masses:
        if all(lo <= x <= hi for x, lo, hi in zip(point, bx.mins, bx.maxs)):
            if not closed and point[0] == bx.maxs[0]:
                continue
            out += m
    return out


def test_subdivide_light_box_returned_whole():
    box = Box((0.0, 0.0), (20.0, 5.0))
    masses = [((3.0, 1.0), 2)]
    boxes = subdivide(box, masses, 1.0, 5.0)
    assert boxes == [box]


def test_subdivide_spec_example():
    # height 20, ell 1, d1 3, ten unit masses at x1 = 10
    box = Box((0.0, 0.0), (20.0, 4.0))
    masses = [((10.0, float(i % 4)), 1) for i in range(10)]
    boxes = subdivide(box, masses, 1.0, 3.0)
    check_subdivision(box, masses, 1.0, 3.0, boxes)
    assert len(boxes) <= 6
    for bx in boxes:
        if _box_mass(bx, masses, closed=bx is boxes[-1]) > 3:
            assert bx.maxs[0] - bx.mins[0] <= 10.0


def test_subdivide_rejects_short_box():
    with pytest.raises(ValueError):
        subdivide(Box((0.0,), (4.0,)), [], 1.0, 3.0)


@pytest.mark.parametrize(
    "bad, message",
    [
        # a short point would be tested on its first axis only
        (((50.0,), 5), r"mass point \[50.0\] has 1 coordinates, box has 2"),
        # a negative mass would cancel the +5 and leave one box
        (((50.0, 5.0), -5), r"mass at \[50.0, 5.0\] is negative: -5"),
        # a NaN coordinate would drop the point from every slab
        (((50.0, math.nan), 5), r"mass point \[50.0, nan\] is not finite"),
        # a fractional mass was truncated: masses 0.7 and 0.7 made one box
        # of mass 1.4 > d1 = 1
        (((50.0, 5.0), 0.7), r"mass must be an integer, got 0.7"),
        (((50.0, 5.0), True), r"mass must be an integer, got True"),
    ],
)
def test_subdivide_rejects_malformed_masses(bad, message):
    box = Box((0.0, 0.0), (100.0, 10.0))
    masses = [((50.0, 5.0), 5), bad]
    with pytest.raises(ValueError, match=message):
        subdivide(box, masses, 1.0, 3.0)


@pytest.mark.parametrize(
    ("ell", "point", "cut"),
    [(1e-20, 1.0, "1.0"), (1e-17, 1.0, "1.0"), (1e-12, 1e6, "1000000.0")],
)
def test_subdivide_rejects_a_cut_a_step_cannot_move(ell, point, cut):
    # cur += 10*ell left the cut where it was, and the sweep looped forever
    box = Box((0.0, 0.0), (2 * point + 10.0, 1.0))
    with pytest.raises(ValueError, match=f"^ell = {ell} is too small to move the cut at {cut}$"):
        subdivide(box, [((point, 0.5), 5)], ell, 1.0)


def test_subdivide_random_configurations():
    rng = random.Random(77)
    for _ in range(100):
        ell = rng.uniform(0.3, 1.5)
        height = rng.uniform(5 * ell, 60 * ell)
        box = Box((0.0, 0.0), (height, 10.0))
        n_masses = rng.randrange(0, 30)
        masses = [
            ((rng.uniform(0, height), rng.uniform(0, 10)), 1) for _ in range(n_masses)
        ]
        d1 = rng.uniform(1.0, 6.0)
        boxes = subdivide(box, masses, ell, d1)
        check_subdivision(box, masses, ell, d1, boxes)


@pytest.mark.parametrize("mins, maxs", [((math.nan, 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, math.nan))])
def test_box_rejects_nan_corner(mins, maxs):
    with pytest.raises(ValueError, match="must be finite"):
        Box(mins, maxs)


@pytest.mark.parametrize("corner", [math.nan, math.inf, -math.inf])
def test_box_from_json_rejects_non_finite_corner(corner):
    with pytest.raises(ValueError, match="must be finite"):
        Box.from_json({"min": [corner, 0], "max": [1, 1]})
