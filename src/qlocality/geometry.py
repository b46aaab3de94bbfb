"""Embeddings, interaction extraction, point density, grid tilings, and box subdivision."""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .codes import SubsystemCode, json_float, json_int

DISTANCE_SLACK = 1e-12


def check_positive(value: float, name: str) -> None:
    """Raise ValueError unless 0 < value < inf; NaN counts as not positive."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}")


@dataclass(frozen=True)
class Box:
    """Closed axis-parallel box [min_1, max_1] x ... x [min_D, max_D]."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs):
            raise ValueError("min and max corners have different dimensions")
        if not all(map(math.isfinite, self.mins + self.maxs)):
            raise ValueError(f"box corners {list(self.mins)}, {list(self.maxs)} must be finite")
        for lo, hi in zip(self.mins, self.maxs):
            if not lo <= hi:
                raise ValueError(f"box has min {lo} > max {hi}")

    @property
    def dimension(self) -> int:
        return len(self.mins)

    @property
    def side_lengths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.mins, self.maxs))

    def contains(self, point: Sequence[float]) -> bool:
        return all(lo <= x <= hi for x, lo, hi in zip(point, self.mins, self.maxs))

    @classmethod
    def cube(cls, center: Sequence[float], side: float) -> Box:
        half = side / 2.0
        return cls(tuple(c - half for c in center), tuple(c + half for c in center))

    def to_json(self) -> dict:
        return {"min": list(self.mins), "max": list(self.maxs)}

    @classmethod
    def from_json(cls, obj: dict) -> Box:
        """The box {"min": [...], "max": [...]}; each corner value must be a
        JSON number (``json_float``)."""
        mins, maxs = (tuple(json_float(v, f"box {end}") for v in obj[end]) for end in ("min", "max"))
        return cls(mins, maxs)


class Embedding:
    """Qubit coordinates in R^D; a valid embedding has pairwise distance >= 1."""

    def __init__(self, dimension: int, coordinates: Sequence[Sequence[float]]) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.coordinates = _point_array(coordinates, dimension, "coordinates")
        self.coordinates.setflags(write=False)
        self._close_pairs: tuple[tuple[int, int, float], ...] | None = None

    @property
    def n(self) -> int:
        return len(self.coordinates)

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "coordinates": self.coordinates.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> Embedding:
        """The embedding {"dimension": D, "coordinates": [[x, ...], ...]};
        a coordinate must be a JSON number, though ``np.asarray`` reads a
        string such as "0" or a bool as one."""
        emb = cls(json_int(obj["dimension"], "dimension"), obj["coordinates"])
        # the rows are m lists of D values once the constructor has passed them
        if {str, bool} & set(map(type, itertools.chain.from_iterable(obj["coordinates"]))):
            raise ValueError("coordinates must be numbers, not strings or booleans")
        return emb

    def __repr__(self) -> str:
        return f"Embedding(D={self.dimension}, n={self.n})"


# bound on the linear cell keys of validate_embedding, clear of int64 overflow
_KEY_LIMIT = 1 << 62


def validate_embedding(e: Embedding) -> list[tuple[int, int, float]]:
    """All pairs at distance < 1 (allowing 1e-12 slack); empty list means valid.

    The coordinates are read-only, so the pairs are found once per embedding
    and cached on it.
    """
    if e._close_pairs is None:
        e._close_pairs = tuple(_close_pairs(e))
    return list(e._close_pairs)


def check_spacing(e: Embedding) -> None:
    """Raise ValueError naming the first pair of validate_embedding, if any."""
    close = validate_embedding(e)
    if close:
        i, j, dist = close[0]
        raise ValueError(f"qubits {i} and {j} are at distance {dist:g} < 1")


def _close_pairs(e: Embedding) -> list[tuple[int, int, float]]:
    """The pairs of validate_embedding, sorted.

    Distinct points of Z^D are at least 1 apart, so when every coordinate
    is integral one lexicographic sort shows whether any two coincide, and
    if none do there is no pair.  Otherwise ``_cell_pairs`` searches.
    """
    coords = e.coordinates
    if (np.floor(coords) == coords).all():
        rows = coords[np.lexsort(coords.T)]
        if not (rows[1:] == rows[:-1]).all(axis=1).any():
            return []
    return _cell_pairs(coords)


def _cell_pairs(coords: np.ndarray) -> list[tuple[int, int, float]]:
    """The pairs of points in the n x D array coords at distance below 1,
    sorted, found by a cell-bucket search.

    Two points closer than 1 have cells floor(x) at most 1 apart per axis.
    The cells are ranked per axis (neighbours 1 apart, others 2) and the
    points sorted by a linear key of the ranks; searchsorted over half of
    the 3^D neighbour offsets then finds the candidates, the only pairs
    measured.  The key covers the longest axis prefix that keeps it within
    _KEY_LIMIT and its 3^m offsets at most 3n: coarser buckets add
    candidates but drop none.
    """
    n = len(coords)
    if n < 2:
        return []
    cells = np.floor(coords)
    by_axis = cells.argsort(axis=0)
    axes = np.arange(coords.shape[1])
    ordered = cells[by_axis, axes]
    # rank steps: 0 between equal cells, 1 between neighbours, 2 otherwise
    ranked = np.zeros(cells.shape, dtype=np.int64)
    ranked[1:] = np.minimum(ordered[1:] - ordered[:-1], 2.0).cumsum(axis=0)
    ranks = np.empty_like(ranked)
    ranks[by_axis, axes] = ranked
    # a radix one above the top rank keeps rank - 1 and rank + 1 from
    # carrying into another axis
    strides: list[int] = []
    shifts = [0]  # the key differences of the offsets so far
    size = 1
    for axis, top in enumerate(ranked[-1].tolist()):
        if size * (top + 2) > _KEY_LIMIT or 3**axis > n:
            break
        strides.append(size)
        shifts = [s + step for step in (-size, 0, size) for s in shifts]
        size *= top + 2
    keys = ranks[:, : len(strides)].dot(np.array(strides, dtype=np.int64))
    order = keys.argsort(kind="stable")
    sorted_keys = keys[order]
    # each pair is found once, from its point with the smaller key or, for
    # equal keys, the earlier one (so start >= position + 1 throughout)
    half = np.array(sorted({s for s in shifts if s >= 0}), dtype=np.int64)
    after = np.arange(1, n + 1)[:, None]
    firsts, seconds = [], []
    cols = max(1, (1 << 20) // n)
    for block in range(0, len(half), cols):
        targets = sorted_keys[:, None] + half[block : block + cols]
        start = np.maximum(sorted_keys.searchsorted(targets, "left"), after)
        counts = sorted_keys.searchsorted(targets, "right") - start
        firsts.append(order.repeat(counts.sum(axis=1)))
        # start + 0, 1, ..., count - 1 for each point and shift
        counts, start = counts.ravel(), start.ravel()
        ends = counts.cumsum()
        seconds.append(order[np.arange(ends[-1]) + (start - ends + counts).repeat(counts)])
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    dists = np.linalg.norm(coords[a] - coords[b], axis=1)
    close = dists < 1.0 - DISTANCE_SLACK
    found = zip(a[close].tolist(), b[close].tolist(), dists[close].tolist())
    return sorted((min(i, j), max(i, j), dist) for i, j, dist in found)


@dataclass(frozen=True, eq=False)
class InteractionSet:
    """Deduplicated qubit pairs with Euclidean lengths.

    ``index`` is the code's read-only m x 2 array of pairs (i, j), i < j,
    sorted, shared by every set extracted from that code, and ``lengths``
    holds their lengths in the embedding.
    """

    n: int
    index: np.ndarray
    lengths: np.ndarray

    @cached_property
    def pairs(self) -> tuple[tuple[int, int, float], ...]:
        """The pairs as (i, j, length) tuples, in index order."""
        return tuple(zip(*self.index.T.tolist(), self.lengths.tolist()))

    def long_pairs(self, ell: float) -> np.ndarray:
        """The rows of index whose length is >= ell."""
        check_positive(ell, "ell")
        return self.index[self.lengths >= ell]

    def max_length(self) -> float:
        return float(self.lengths.max()) if len(self.lengths) else 0.0

    def to_json(self) -> dict:
        return {"n": self.n, "pairs": list(map(list, self.pairs))}


def check_code_size(e: Embedding, n: int) -> None:
    """Raise ValueError unless e has one point per qubit of an n-qubit code."""
    if e.n != n:
        raise ValueError(f"embedding has {e.n} points, code has {n} qubits")


def extract_interactions(code: SubsystemCode, e: Embedding) -> InteractionSet:
    """The code's cached pair index, with lengths from the embedding."""
    check_code_size(e, code.n)
    index = code.interaction_index()
    overflowed: list[str] = []
    with np.errstate(over="call", call=lambda kind, _: overflowed.append(kind)):
        diff = e.coordinates[index[:, 0]] - e.coordinates[index[:, 1]]
        lengths = np.sqrt(np.vecdot(diff, diff))
        if overflowed:  # measure the inf rows again by hypot, which scales as it goes
            over = lengths == np.inf
            lengths[over] = np.hypot.reduce(diff[over], axis=1, initial=0.0)
    lengths.setflags(write=False)
    return InteractionSet(code.n, index, lengths)


def count_long(s: InteractionSet, ell: float) -> tuple[int, dict[int, int]]:
    """Number of interactions of length >= ell and the per-qubit counter f.

    The per-qubit values sum to exactly 2M since each long pair has two
    endpoints.
    """
    long = s.long_pairs(ell)
    return len(long), dict(enumerate(np.bincount(long.ravel(), minlength=s.n).tolist()))


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^D."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def packing_bound(b: Box) -> float:
    """Upper bound (2^D / vol(B_D)) * prod(1 + L_i) on embedded points in b."""
    d = b.dimension
    bound = 2.0**d / ball_volume(d)
    for length in b.side_lengths:
        bound *= 1.0 + length
    return bound


def points_in_box(e: Embedding, b: Box) -> list[int]:
    """Indices of the points in b, with Box.contains' closed rule."""
    if b.dimension != e.dimension:
        raise ValueError(f"box has dimension {b.dimension}, embedding has {e.dimension}")
    c = e.coordinates
    return np.flatnonzero(((c >= b.mins) & (c <= b.maxs)).all(axis=1)).tolist()


def check_density(b: Box, e: Embedding) -> bool:
    """Point-density check: embedded points inside b never exceed the bound."""
    return len(points_in_box(e, b)) <= packing_bound(b)


@dataclass(frozen=True)
class GridTiling:
    """Axis-aligned tiling of R^D by width-w hypercubes anchored at offset."""

    width: float
    offset: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.offset)

    def cell_index(self, point: Sequence[float]) -> tuple[int, ...]:
        return tuple(
            int(math.floor((x - o) / self.width)) for x, o in zip(point, self.offset)
        )

    def cell_box(self, index: Sequence[int]) -> Box:
        mins = tuple(o + i * self.width for o, i in zip(self.offset, index))
        return Box(mins, tuple(lo + self.width for lo in mins))

    def to_json(self) -> dict:
        return {"width": self.width, "offset": list(self.offset)}


def _point_array(points: Sequence[Sequence[float]], dim: int, name: str) -> np.ndarray:
    """points as one float m x dim array, from a single np.asarray.

    [] is the empty set; any other shape but m x dim (ragged or empty rows
    too) raises ValueError rather than being regrouped into points of the
    wrong width, and so does a NaN or infinite coordinate.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except ValueError:
        raise ValueError(f"{name} must be m rows of {dim} numbers") from None
    if arr.shape == (0,):
        return arr.reshape(0, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name} must be m x {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def verify_tiling(
    tiling: GridTiling,
    x_points: Sequence[Sequence[float]],
    y_points: Sequence[Sequence[float]],
    ell: float,
) -> dict:
    """Independent enumeration check of the tiling fractions.

    Shares only input conversion with the sampler (one array per distinct
    point set) and keeps its own fraction arithmetic: counts X points
    within ell_inf distance 2*ell of a codimension-2 face and Y points
    within 2*ell of a codimension-1 face, and compares against the allowed
    fractions (4*ell*D/w)^2 and 8*ell*D/w.  A coordinate is near a face
    when its residue (x - offset) mod w is within 2*ell of 0 or of w.
    """
    w = tiling.width
    dim = tiling.dimension
    check_positive(ell, "ell")
    check_positive(w, "w")
    margin = 2.0 * ell

    def near_counts(points: np.ndarray) -> np.ndarray:
        r = (points - tiling.offset) % w
        return np.count_nonzero((r <= margin) | (r >= w - margin), axis=1)

    x_near = near_counts(_point_array(x_points, dim, "x_points"))
    if y_points is x_points:
        y_near = x_near
    else:
        y_near = near_counts(_point_array(y_points, dim, "y_points"))
    x_bad = int(np.count_nonzero(x_near >= 2))
    y_bad = int(np.count_nonzero(y_near >= 1))
    x_fraction = x_bad / len(x_near) if len(x_near) else 0.0
    y_fraction = y_bad / len(y_near) if len(y_near) else 0.0
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


def _near_face(
    coords: np.ndarray, offset: np.ndarray | float, w: float, margin: float
) -> np.ndarray:
    """Mask of the coordinates within margin of a face of the width-w grid at offset."""
    r = (coords - offset) % w
    return (r <= margin) | (r >= w - margin)


def _fractions_ok(
    offset: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    w: float,
    ell: float,
    dim: int,
) -> bool:
    """Whether offset keeps both fractions; when ys is xs one residue mask serves both."""
    margin = 2.0 * ell
    x_allowed = (4.0 * ell * dim / w) ** 2
    y_allowed = 8.0 * ell * dim / w
    x_near = _near_face(xs, offset, w, margin)
    if np.count_nonzero(np.count_nonzero(x_near, axis=1) >= 2) > x_allowed * len(xs):
        return False
    y_near = x_near if ys is xs else _near_face(ys, offset, w, margin)
    return bool(np.count_nonzero(y_near.any(axis=1)) <= y_allowed * len(ys))


def _derandomized_offset(
    xs: np.ndarray, ys: np.ndarray, w: float, ell: float, dim: int
) -> np.ndarray:
    """Exact fallback by the method of conditional expectations.

    Processes coordinates one at a time over the finite set of critical
    offsets {p_i mod w, (p_i +/- 2*ell) mod w} plus interval midpoints; the
    conditional failure estimator is piecewise constant between critical
    values, and picking the minimizing candidate at each coordinate keeps
    the estimator below 1, so the final offset satisfies both fractions.
    """
    q = min(4.0 * ell / w, 1.0)
    tx = (4.0 * ell * dim / w) ** 2 * len(xs)
    ty = 8.0 * ell * dim / w * len(ys)
    margin = 2.0 * ell

    # x_state: 0/1/2+ bad coords so far; y_state: any bad coord so far
    x_bad_counts = np.zeros(len(xs), dtype=int)
    y_bad_any = np.zeros(len(ys), dtype=bool)
    offset = np.zeros(dim)
    all_points = xs if ys is xs else np.concatenate([xs, ys])
    if len(all_points) == 0:
        return offset

    def estimator(xb: np.ndarray, yb: np.ndarray, remaining: int) -> float:
        # an empty side has tx or ty zero and adds nothing
        keep = (1.0 - q) ** remaining
        total = 0.0
        if tx > 0:
            one_more = remaining * q * (1.0 - q) ** (remaining - 1) if remaining else 0.0
            p2 = np.where(
                xb >= 2, 1.0, np.where(xb == 1, 1.0 - keep, 1.0 - keep - one_more)
            )
            total += p2.sum() / tx
        if ty > 0:
            p1 = np.where(yb, 1.0, 1.0 - keep)
            total += p1.sum() / ty
        return total

    for j in range(dim):
        coords = all_points[:, j]
        crit = np.concatenate([coords % w, (coords - margin) % w, (coords + margin) % w])
        crit = np.unique(np.concatenate([crit, np.array([0.0])]))
        mids = (crit + np.roll(crit, -1)) / 2.0
        mids[-1] = (crit[-1] + w) / 2.0 % w
        candidates = np.unique(np.concatenate([crit, mids]))
        best_val = None
        best_off = 0.0
        best_xb = best_yb = None
        remaining = dim - j - 1
        for o in candidates:
            x_near = _near_face(xs[:, j], o, w, margin)
            y_near = x_near if ys is xs else _near_face(ys[:, j], o, w, margin)
            xb = x_bad_counts + x_near
            yb = y_bad_any | y_near
            val = estimator(xb, yb, remaining)
            if best_val is None or val < best_val:
                best_val, best_off, best_xb, best_yb = val, float(o), xb, yb
        offset[j] = best_off
        x_bad_counts = best_xb
        y_bad_any = best_yb
    return offset


def find_tiling(
    x_points: Sequence[Sequence[float]],
    y_points: Sequence[Sequence[float]],
    w: float,
    ell: float,
    dim: int,
    seed: int,
    max_tries: int = 10_000,
) -> GridTiling:
    """Find a width-w tiling keeping X away from codim-2 and Y away from codim-1 faces.

    Rejection-samples uniform offsets (the probabilistic argument gives
    success probability > 0), then falls back to a complete derandomized
    search, so the operation is total for any w >= 4*ell.
    """
    check_positive(ell, "ell")
    if not w >= 4 * ell:
        raise ValueError(f"w = {w} violates the precondition w >= 4*ell = {4 * ell}")
    check_positive(w, "w")
    xs = _point_array(x_points, dim, "x_points")
    ys = xs if y_points is x_points else _point_array(y_points, dim, "y_points")
    rng = random.Random(seed)
    for _ in range(max_tries):
        offset = np.array([rng.uniform(0.0, w) for _ in range(dim)])
        if _fractions_ok(offset, xs, ys, w, ell, dim):
            return GridTiling(width=w, offset=tuple(float(v) for v in offset))
    offset = _derandomized_offset(xs, ys, w, ell, dim)
    tiling = GridTiling(width=w, offset=tuple(float(v) for v in offset))
    if not _fractions_ok(offset, xs, ys, w, ell, dim):
        raise AssertionError("derandomized tiling search failed; this should be impossible")
    return tiling


MassMap = Sequence[tuple[Sequence[float], int]]


def _mass_prefix(b: Box, f: MassMap) -> tuple[list[float], list[int]]:
    """The x_1 coordinates of the mass points in b (closed membership, as
    Box.contains), sorted, and the prefix sums of their masses in that
    order, from 0.

    One numpy pass reads a map of numeric points of b's dimension, with
    coordinates of magnitude at most 2^53 (so each converts to a float
    exactly) and int masses whose total fits an int64.  Any other map takes
    the per-mass loop, which raises the first fault's ValueError.
    """
    f = list(f)
    dim = b.dimension
    masses = [m for _, m in f]
    try:
        points = np.array([p for p, _ in f])
    except (ValueError, TypeError, OverflowError):
        points = None
    if (
        points is not None
        and points.dtype.kind in "iuf"
        and points.shape == (len(f), dim)
        and set(map(type, masses)) <= {int}
        and (np.abs(points) <= 2.0**53).all()
        and min(masses, default=0) >= 0
        and sum(masses) < 1 << 63
    ):
        inside = ((points >= b.mins) & (points <= b.maxs)).all(axis=1)
        xs = points[inside, 0].astype(float)
        order = xs.argsort(kind="stable")
        return xs[order].tolist(), [0, *np.array(masses, dtype=np.int64)[inside][order].cumsum().tolist()]
    kept = []
    for point, m in f:
        if len(point) != dim:
            raise ValueError(f"mass point {list(point)} has {len(point)} coordinates, box has {dim}")
        if not all(map(math.isfinite, point)):
            raise ValueError(f"mass point {list(point)} is not finite")
        m = json_int(m, "mass")
        if m < 0:
            raise ValueError(f"mass at {list(point)} is negative: {m}")
        if all(map(operator.le, b.mins, point)) and all(map(operator.le, point, b.maxs)):
            kept.append((float(point[0]), m))
    kept.sort(key=lambda t: t[0])
    return [x for x, _ in kept], [0, *itertools.accumulate(m for _, m in kept)]


def subdivide(b: Box, f: MassMap, ell: float, d1: float) -> list[Box]:
    """Split b by hyperplanes orthogonal to x_1 into boxes that are light or short.

    Every output box has height >= 5*ell and satisfies mass <= d1 or
    height <= 10*ell; mass membership uses [lo, hi) half-open slabs except
    the topmost box, which is closed.  Greedy sweep: take the longest
    light prefix, or a short (<= 10*ell) slab swallowing the mass point
    that tips the prefix over d1.  No two neighbours could be joined: the
    union of a box and the next holds the first one's tipping point, so it
    is heavy and longer than 10*ell.  A step too small to move the float
    cut point raises ValueError naming ell and the cut.  A mass point of the wrong dimension
    or with a non-finite coordinate, or a mass that is negative or not an
    integer (``json_int``), raises ValueError.
    """
    check_positive(ell, "ell")
    check_positive(d1, "d1")
    lo, hi = b.mins[0], b.maxs[0]
    height = hi - lo
    if height < 5 * ell:
        raise ValueError(f"box height {height} < 5*ell = {5 * ell}")
    xs, cum = _mass_prefix(b, f)

    def mass(a: float, c: float) -> int:
        """Mass in [a, c), or in [a, c] when c is the top of b."""
        top = bisect_right(xs, c) if c == hi else bisect_left(xs, c)
        return cum[top] - cum[bisect_left(xs, a)]

    cuts = [lo]
    cur = lo
    while True:
        rem_height = hi - cur
        if mass(cur, hi) <= d1 or rem_height <= 10 * ell:
            cuts.append(hi)
            break
        # longest light prefix: everything before the atom that tips over d1
        start = bisect_left(xs, cur)
        past = bisect_right(cum, d1, lo=start + 1, key=lambda c: c - cum[start])
        tip = xs[past - 1] if past < len(cum) else hi
        prefix = tip - cur
        cap = rem_height - 5 * ell
        if prefix < min(10 * ell, cap):
            step = min(10 * ell, cap)  # short heavy slab swallowing the tip
        else:
            step = min(prefix, cap)  # light prefix, capped to leave >= 5*ell
        if cur + step == cur:
            raise ValueError(f"ell = {ell} is too small to move the cut at {cur}")
        cur += step
        cuts.append(cur)

    return [Box((a,) + b.mins[1:], (c,) + b.maxs[1:]) for a, c in zip(cuts, cuts[1:])]
