"""Built-in code families with local embeddings, subsystem concatenation,
and the dilated concatenated embedding recipe, which takes the inner and
outer embedded codes directly."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import class_bounds
from .codes import (
    DistanceResult,
    SubsystemCode,
    distance,
    logical_representatives,
    parameters,
)
from .geometry import (
    Embedding,
    check_code_size,
    check_spacing,
    extract_interactions,
    validate_embedding,
)
from .pauli import check_qubit_count, set_bits


@dataclass(frozen=True)
class EmbeddedCode:
    code: SubsystemCode
    embedding: Embedding
    family: str
    params: dict

    def __post_init__(self) -> None:
        check_code_size(self.embedding, self.code.n)
        check_spacing(self.embedding)


def _lattice_coords(side: int, n: int, dim: int) -> np.ndarray:
    """First n points of the row-major cubic lattice of the given side: the
    coordinate on axis a of point i is floor(i / side^a) mod side."""
    idx = np.arange(n)
    return np.stack([idx // side**a % side for a in range(dim)], axis=1).astype(float)


def _grid_lattice_points(n: int, dim: int) -> np.ndarray:
    """First n points of a row-major cubic lattice of side ceil(n^(1/D))."""
    side = max(1, math.ceil(n ** (1.0 / dim)))
    while side**dim < n:
        side += 1
    return _lattice_coords(side, n, dim)


def _pair_code(n: int, xx: np.ndarray, zz: np.ndarray) -> SubsystemCode:
    """The code with an XX generator on each row of the k x 2 array xx,
    then a ZZ generator on each row of zz; every row increases."""
    halves = np.concatenate([np.tile([2, 0], len(xx)), np.tile([0, 2], len(zz))])
    return SubsystemCode.from_support_arrays(n, np.concatenate([xx, zz]).ravel(), halves.cumsum())


def bacon_shor(m: int) -> EmbeddedCode:
    """m x m Bacon-Shor code on the unit grid.

    Gauge generators are XX on vertically adjacent pairs and ZZ on
    horizontally adjacent pairs; qubit (row r, column c) sits at (c, r).
    """
    if m < 2:
        raise ValueError("Bacon-Shor needs m >= 2")
    n = m * m
    check_qubit_count(n)
    grid = np.arange(n).reshape(m, m)  # grid[r, c] is qubit r * m + c
    vertical = np.stack([grid[:-1].ravel(), grid[1:].ravel()], axis=1)
    horizontal = np.stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()], axis=1)
    return EmbeddedCode(
        code=_pair_code(n, vertical, horizontal),
        embedding=Embedding(2, _lattice_coords(m, n, 2)),
        family="bacon_shor",
        params={"m": m},
    )


def surface_code(m: int) -> EmbeddedCode:
    """Planar (unrotated) surface code of distance m.

    Data qubits sit on grid points (r, c) with r + c even inside a
    (2m-1) x (2m-1) patch; X checks live at odd rows, Z checks at odd
    columns.  The gauge group is abelian, so this is a stabilizer code.
    The patch is an odd side, so point (r, c) has the parity of r + c in
    its row-major number r * size + c, and data qubit q is point 2q.
    """
    if m < 2:
        raise ValueError("surface code needs m >= 2")
    size = 2 * m - 1
    n = (size * size + 1) // 2  # the grid points with r + c even
    check_qubit_count(n)
    checks = np.arange(1, size * size, 2)  # row-major, X and Z checks mixed
    r, c = np.divmod(checks, size)
    # up, left, right, down: ascending qubit order, kept inside the patch
    near = np.stack([checks - size, checks - 1, checks + 1, checks + size], axis=1) // 2
    inside = np.stack([r > 0, c > 0, c < size - 1, r < size - 1], axis=1)
    weight = inside.sum(axis=1)
    x_check = r % 2 == 1
    halves = np.stack([np.where(x_check, weight, 0), np.where(x_check, 0, weight)], axis=1)
    points = np.arange(0, 2 * n, 2)
    return EmbeddedCode(
        code=SubsystemCode.from_support_arrays(n, near[inside], halves.ravel().cumsum()),
        embedding=Embedding(2, np.stack([points % size, points // size], axis=1).astype(float)),
        family="surface",
        params={"m": m},
    )


_FIVE_QUBIT_STABILIZERS = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]

_STEANE_H = [
    [1, 0, 0, 1, 0, 1, 1],
    [0, 1, 0, 1, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 1],
]


def small_inner_codes(name: str, r: int | None = None, dim: int = 2) -> EmbeddedCode:
    """Named small stabilizer codes on a cubic lattice patch.

    Stand-ins for good qLDPC inner codes: steane ([[7,1,3]]),
    five_one_three ([[5,1,3]]), and repetition(r) ([[r,1,1]]).
    """
    if name == "five_one_three":
        code = SubsystemCode.from_strings(_FIVE_QUBIT_STABILIZERS)
    elif name == "steane":
        rows = [tuple(i for i, v in enumerate(row) if v) for row in _STEANE_H]
        code = SubsystemCode.from_supports(7, [(q, ()) for q in rows] + [((), q) for q in rows])
    elif name == "repetition":
        if r is None or r < 2:
            raise ValueError("repetition needs a length r >= 2")
        check_qubit_count(r)
        chain = np.arange(r)
        links = np.stack([chain[:-1], chain[1:]], axis=1)
        code = _pair_code(r, np.empty((0, 2), dtype=np.intp), links)
    else:
        raise ValueError(f"unknown code name {name!r}")
    n = code.n
    return EmbeddedCode(
        code=code,
        embedding=Embedding(dim, _grid_lattice_points(n, dim)),
        family=name if name != "repetition" else f"repetition({r})",
        params={"n": n},
    )


def concatenate(inner: SubsystemCode, outer: SubsystemCode) -> SubsystemCode:
    """Subsystem concatenation: n2 inner blocks carrying k1 outer copies.

    Gauge generators are (a) each inner gauge generator on each block, and
    (b) for each copy i < k1, each outer gauge generator with the Pauli on
    outer qubit j replaced by block j's i-th bare logical representative
    (X -> x_bar, Z -> z_bar, Y -> x_bar * z_bar, phases dropped).  Both are
    built on packed rows: an inner row moves to block j by shifting its X
    and Z halves, and an outer generator's row is the XOR of the lifted
    logical rows its X and Z bits select.  An n over ``MAX_QUBITS`` raises
    ValueError before any row is built.

    The result has n = n1*n2, k = k1*k2, g = k1*g2 + n2*g1 (each block's
    g1 inner gauge qubits, and each copy's g2 outer ones) and s = n - k - g,
    and its dressed distance is d >= d1*d2 (Knill-Laflamme's concatenation
    bound, which holds for subsystem codes too).  Each block's inner
    stabilizers, and each copy's lifted outer stabilizers, are in the
    result's stabilizer group.  So a dressed logical P, restricted to one
    block, commutes with S1: it is an inner gauge operator times an inner
    bare logical.  Per copy, those logical parts form an outer Pauli that
    commutes with S2.  Were every copy's in G2, P would be in the gauge
    group; so some copy's is a dressed outer logical, nontrivial on at
    least d2 blocks, and on each of them P has weight at least d1.  The
    code records (inner, outer) as
    its ``_parts``, so its solver answers ``parameters`` from the parts'
    and starts the distance search at d1*d2 (``codes._Concatenated``).
    """
    p1 = parameters(inner)
    if p1.k < 1:
        raise ValueError("inner code must have k >= 1")
    n1, n2 = inner.n, outer.n
    n = n1 * n2
    # every row below is 2n bits wide, so an over-cap n is rejected first
    check_qubit_count(n)
    inner_x = (1 << n1) - 1

    def lift(row: int, block: int) -> int:
        shift = block * n1
        return (row & inner_x) << shift | (row >> n1) << (n + shift)

    rows = [lift(row, block) for block in range(n2) for row in inner.gauge_matrix]
    outer_x = (1 << n2) - 1
    for pair in logical_representatives(inner):
        x_bar, z_bar = pair.x_bar.to_bits(), pair.z_bar.to_bits()
        x_lifted = [lift(x_bar, block) for block in range(n2)]
        z_lifted = [lift(z_bar, block) for block in range(n2)]
        for g in outer.gauge_matrix:
            row = 0
            for j in set_bits(g & outer_x):
                row ^= x_lifted[j]
            for j in set_bits(g >> n2):
                row ^= z_lifted[j]
            rows.append(row)
    code = SubsystemCode(n, rows)
    code._parts = (inner, outer)
    return code


def _diameter(points: np.ndarray) -> float:
    """Largest distance between two of the (one or more) points, measured
    as ``extract_interactions`` measures lengths, in row blocks of about
    2^20 pairs."""
    rows = max(1, (1 << 20) // len(points))
    diameter = 0.0
    for start in range(0, len(points), rows):
        diff = points[start : start + rows, None] - points[None]
        diameter = max(diameter, float(np.sqrt(np.vecdot(diff, diff)).max()))
    return diameter


def build_concat_embedding(
    inner: EmbeddedCode, outer: EmbeddedCode, ell_target: float, ell2: float | None = None
) -> EmbeddedCode:
    """Concatenate and embed: inner lattice blocks centered at the dilated
    outer coordinates.

    ell2 is the outer code's interaction locality, measured once from its
    embedding unless given (0 for an outer code with no interactions; a
    negative one raises); ell_prime = 2*(sqrt(D) + ell2), and the outer
    coordinates are dilated by ell_target / ell_prime.  Raises when
    ell_target < ell_prime or when the resulting point set fails the
    pairwise-distance validation (blocks would overlap).  The triangle
    bound dilation*ell2 + inner diameter is recorded in params and every
    measured interaction length must stay below ell_target.
    """
    dim = outer.embedding.dimension
    if inner.embedding.dimension != dim:
        raise ValueError("inner and outer embeddings have different dimensions")
    if ell2 is None:
        ell2 = extract_interactions(outer.code, outer.embedding).max_length()
    elif not ell2 >= 0:
        raise ValueError(f"ell2 must be non-negative, got {ell2:g}")
    ell_prime = 2.0 * (math.sqrt(dim) + ell2)
    if ell_target < ell_prime:
        raise ValueError(
            f"ell_target = {ell_target:g} below ell_prime = {ell_prime:g}; blocks would overlap"
        )
    dilation = ell_target / ell_prime
    code = concatenate(inner.code, outer.code)  # raises unless k1 >= 1, so n1 >= 1
    centered = inner.embedding.coordinates - inner.embedding.coordinates.mean(axis=0)
    # block b is the centered inner lattice moved to the dilated outer point b
    points = dilation * outer.embedding.coordinates[:, None] + centered[None]
    embedding = Embedding(dim, points.reshape(-1, dim))
    violations = validate_embedding(embedding)
    if violations:
        raise ValueError(
            f"dilation {dilation:g} leaves blocks too close: "
            f"{len(violations)} pairs under distance 1 (e.g. {violations[0]})"
        )
    measured = extract_interactions(code, embedding).max_length()
    if measured >= ell_target:
        raise AssertionError(f"interaction of length {measured:g} >= ell_target {ell_target:g}")
    diameter = _diameter(centered)
    return EmbeddedCode(
        code=code,
        embedding=embedding,
        family="concatenated",
        params={
            "inner": inner.family,
            "outer": outer.family,
            "ell_target": ell_target,
            "ell_prime": ell_prime,
            "dilation": dilation,
            "ell2": ell2,
            "inner_diameter": diameter,
            "triangle_bound": dilation * ell2 + diameter,
            "max_interaction_length": measured,
        },
    )


@dataclass(frozen=True)
class SaturationReport:
    n: int
    k: int
    d: str
    d_is_lower_bound: bool
    code_class: str
    ell_star: float
    max_interaction_length: float
    ratio: float

    def to_json(self) -> dict:
        return self.__dict__.copy()


def saturation_report(
    ec: EmbeddedCode, code_class: str = "subsystem", weight_cap: int | None = None
) -> SaturationReport:
    """Measured locality against the asymptotic ell* for the code's parameters.

    For the built-in saturating families the ratio L_max / ell* is O(1);
    a weight-capped distance search reports a lower bound instead of the
    exact d.
    """
    p = parameters(ec.code)
    dres: DistanceResult = distance(ec.code, weight_cap=weight_cap)
    d_eff = dres.value if dres.value is not None else dres.weight_cap + 1
    dim = ec.embedding.dimension
    report = class_bounds(code_class, ec.code.n, max(p.k, 1), d_eff, dim, mode="asymptotic")
    ints = extract_interactions(ec.code, ec.embedding)
    l_max = ints.max_length()
    ell_star = report.ell_star
    return SaturationReport(
        n=ec.code.n,
        k=p.k,
        d=dres.describe(),
        d_is_lower_bound=dres.is_lower_bound,
        code_class=code_class,
        ell_star=ell_star,
        max_interaction_length=l_max,
        ratio=l_max / ell_star if ell_star > 0 else math.inf,
    )
