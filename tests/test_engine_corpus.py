"""A seeded corpus of holographic and sweep certificates, each pinned by the
SHA-256 of its JSON lines (or of its error), computed with the per-rung
mask ladder and the per-step region join these engines replaced.

The embeddings are random for D = 1..3, with points placed exactly on
rung corners, slab edges and the type (ii) cubes' corners, and on lattices
whose sweep windows end exactly on a qubit.  The corpus runs both modes
of both engines, ells for which the first rung's side clamps to 0, and
reaches every outcome.  ``engine_corpus.json`` holds label -> [outcome,
digest]; an entry whose run raised has the outcome ``error``.

The ladder's per-rung counts are also checked against a recount by masks
at every rung, and a long ladder must not look at the qubits per rung.
"""

import json
import math
import random
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocality import certify, families
from qlocality.bounds import holographic_base_width
from qlocality.codes import SubsystemCode
from qlocality.geometry import Box, Embedding, extract_interactions, points_in_box

PINNED = json.loads((Path(__file__).with_name("engine_corpus.json")).read_text())


def random_code(rng: random.Random, n: int, kind: str) -> SubsystemCode:
    """An n-qubit code: XX/ZZ pairs ("two-body"), weight-2 and -3 Paulis
    ("general"), or pairs on top of every single-qubit X and Z, so k = 0
    and every region is correctable ("gauged")."""
    gens = []
    for _ in range(rng.randint(1, n + 2)):
        weight = 2 if kind != "general" else rng.choice((2, 3))
        qubits = rng.sample(range(n), min(weight, n))
        letters = rng.choice("XZ") * len(qubits) if kind != "general" else None
        row = ["I"] * n
        for i, q in enumerate(qubits):
            row[q] = letters[i] if letters else rng.choice("XYZ")
        gens.append("".join(row))
    if kind == "gauged":
        gens += ["I" * q + p + "I" * (n - q - 1) for q in range(n) for p in "XZ"]
    return SubsystemCode.from_strings(gens, n)


def ladder_sides(box: Box, ell: float, d: float) -> list[float]:
    """The cube ladder's nominal sides, by the engine's own expressions."""
    w_final = max(box.side_lengths)
    n_steps = max(0, math.ceil((w_final - holographic_base_width(d, box.dimension)) / (2.0 * ell)))
    return [w_final - 2.0 * ell * (n_steps - j) for j in range(n_steps + 1)]


def special_values(center: float, sides: list[float], ell: float) -> list[float]:
    """One axis's rung faces, slab edges and type (ii) faces."""
    out = []
    for side in sides:
        for s in (max(side, 0.0), max(side + 2.0 * ell, 0.0)):
            half = s / 2.0
            lo, hi = center - half, center + half
            out += [lo, hi, lo + ell, hi - ell]
    return out


def holographic_case(seed: int):
    """The embedding, code, box, ell and runs of holographic instance seed."""
    rng = random.Random(seed)
    dim = 1 + seed % 3 if seed < 6 else 2 + seed % 2
    # many qubits on the faces of a small box and no long pairs: the
    # strict counts reach d
    dense = seed % 5 == 1
    n = rng.randint(40, 90) if dense else rng.randint(4, 26)
    kind = ("two-body", "general", "gauged")[seed % 3]
    code = SubsystemCode(n, []) if dense else random_code(rng, n, kind)
    mins = tuple(rng.uniform(-2.0, 2.0) for _ in range(dim))
    sides = [rng.uniform(1.0, 2.0) if dense else rng.uniform(1.0, 6.0) for _ in range(dim)]
    box = Box(mins, tuple(lo + s for lo, s in zip(mins, sides)))
    d = rng.choice((3, 5, 20, 60))
    if seed % 4 == 3:
        # 2*ell above the base width: the first rung's side may be negative
        ell = holographic_base_width(d, dim) * rng.uniform(0.6, 1.5)
    elif dense:
        ell = rng.choice((0.05, 0.1, 0.2))
    else:
        ell = rng.choice((0.1, 0.25, 0.5, rng.uniform(0.05, 0.8)))
    center = [(lo + hi) / 2.0 for lo, hi in zip(box.mins, box.maxs)]
    ladder = ladder_sides(box, ell, d) if dim >= 2 else [max(sides)]
    specials = [special_values(c, ladder, ell) for c in center]
    points = []
    for _ in range(n):
        if dense or rng.random() < 0.6:
            points.append([rng.choice(specials[axis]) if dense or rng.random() < 0.8
                           else rng.uniform(box.mins[axis], box.maxs[axis]) for axis in range(dim)])
        else:
            points.append([rng.uniform(lo - 1.0, hi + 1.0) for lo, hi in zip(box.mins, box.maxs)])
    e = Embedding(dim, points)
    # strict with a d that meets the width and ell preconditions (and one
    # below it), verified with the drawn d
    vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    width = max(sides) ** (dim - 1) * ell * 2.0 * 4.0 ** (dim + 1) * dim / vol
    d_strict = math.ceil(max(width, (8.0 * math.sqrt(dim) * ell) ** dim)) + 1
    runs = {
        "strict": ("strict", d_strict * (1 if dense else rng.choice((1, 3, 12)))),
        "strict-low": ("strict", max(1, d_strict // 2)),
        "verified": ("verified", d),
    }
    return code, e, box, ell, runs


def sweep_case(seed: int):
    """The embedding, interactions, code and runs of sweep instance seed."""
    rng = random.Random(1000 + seed)
    dim = 1 + seed % 3
    n = rng.randint(3, 22 if dim < 3 else 14)
    span = 6 if dim < 3 else 3
    style = seed // 3 % 3
    if style == 0:
        # distinct lattice points: windows end exactly on qubits
        cells = [tuple(rng.randint(0, span) for _ in range(dim)) for _ in range(4 * n)]
        points = [list(map(float, c)) for c in dict.fromkeys(cells)][:n]
    elif style == 1:
        points = [[rng.randint(0, 2 * span) * 0.5 + rng.choice((0.0, 0.0, 0.25)) for _ in range(dim)]
                  for _ in range(n)]
    else:
        points = [[rng.uniform(0.0, span) for _ in range(dim)] for _ in range(n)]
    n = len(points)
    e = Embedding(dim, points)
    code = random_code(rng, n, ("two-body", "general", "gauged")[seed % 3]) if n >= 2 else None
    ints = extract_interactions(code, e) if code is not None else extract_interactions(SubsystemCode(n, []), e)
    ell = rng.choice((0.5, 1.0, 1.5, rng.uniform(0.3, 2.0)))
    tau = rng.choice((1.0, 2.0, 3.0, float(n + 1), rng.uniform(1.0, 5.0)))
    d = rng.choice((2, 4, 10, n + 1, 1000))
    runs = {"strict": ("strict", None), "strict-code": ("strict", code), "verified": ("verified", code)}
    if code is None:
        runs = {"strict": ("strict", None)}
    return e, ints, ell, tau, d, runs


def digest(run) -> tuple[str, str]:
    """(outcome, SHA-256) of the certificate run() returns, or of the
    ValueError it raises."""
    try:
        cert = run()
    except ValueError as exc:
        return "error", sha256(f"ValueError: {exc}".encode()).hexdigest()
    return cert.outcome, sha256(cert.to_json_lines().encode()).hexdigest()


def corpus() -> dict:
    """label -> a thunk running one certificate of the corpus."""
    out = {}
    for seed in range(96):
        code, e, box, ell, runs = holographic_case(seed)
        for name, (mode, d) in runs.items():
            out[f"holographic-{seed:02d}-{name}"] = (
                lambda code=code, e=e, box=box, ell=ell, mode=mode, d=d:
                certify.holographic_certify(code, e, box, ell, mode=mode, d=d)
            )
    for seed in range(96):
        e, ints, ell, tau, d, runs = sweep_case(seed)
        for name, (mode, code) in runs.items():
            out[f"sweep-{seed:02d}-{name}"] = (
                lambda e=e, ints=ints, ell=ell, tau=tau, d=d, mode=mode, code=code:
                certify.expansion_sweep(e, ints, ell, tau, d, mode=mode, code=code)
            )
    return out


CORPUS = corpus()


def test_corpus_labels_match_the_pins():
    assert sorted(CORPUS) == sorted(PINNED)


def test_corpus_reaches_every_outcome():
    seen = {}
    for label, (outcome, _) in PINNED.items():
        seen.setdefault(label.split("-")[0], set()).add(outcome)
    assert seen["holographic"] >= {
        certify.OUTCOME_CERTIFIED, certify.OUTCOME_STUCK, certify.OUTCOME_VIOLATED, "error"
    }
    assert seen["sweep"] >= {
        certify.OUTCOME_CERTIFIED, certify.OUTCOME_CONTRADICTION, certify.OUTCOME_STUCK,
        certify.OUTCOME_VIOLATED,
    }


def test_corpus_clamps_a_first_rung():
    clamped = 0
    for seed in range(96):
        _, e, box, ell, runs = holographic_case(seed)
        if e.dimension >= 2:
            clamped += ladder_sides(box, ell, runs["verified"][1])[0] < 0
    assert clamped >= 3


@pytest.mark.parametrize("label", sorted(PINNED))
def test_certificate_matches_pin(label):
    assert list(digest(CORPUS[label])) == PINNED[label]


def test_every_certificate_keeps_the_outcome_contract():
    # stuck_step is set iff the proof is stuck-at a step, and then names the
    # last step; reason is None iff the region was certified correctable
    checked = 0
    for label, (outcome, _) in sorted(PINNED.items()):
        if outcome == "error":
            continue
        cert = CORPUS[label]()
        stuck = cert.outcome == certify.OUTCOME_STUCK
        assert (cert.stuck_step is not None) == stuck, label
        assert not stuck or cert.stuck_step == cert.steps[-1].index, label
        assert (cert.reason is None) == (cert.outcome == certify.OUTCOME_CERTIFIED), label
        checked += 1
    assert checked == 570


# ── the cube ladder's counts against a per-rung recount ───────────────


def slab_count_by_masks(coords, outer, thickness):
    """The 2D face-slab count the ladder took per rung before: each slab is
    outer with one axis cut to [min, min + thickness] or
    [max - thickness, max]."""
    lo, hi = np.array(outer.mins), np.array(outer.maxs)
    above, below = coords >= lo, coords <= hi
    inside = above & below
    total = 0
    for axis in range(outer.dimension):
        rest = np.delete(inside, axis, axis=1).all(axis=1)
        x = coords[:, axis]
        total += int(np.count_nonzero(rest & above[:, axis] & (x <= lo[axis] + thickness)))
        total += int(np.count_nonzero(rest & (x >= hi[axis] - thickness) & below[:, axis]))
    return total


def ladder_by_masks(coords, center, sides, ell, long_pairs):
    """Per rung: types (i)-(iv) and the qubits in the cube, each rung's
    cube and U masked afresh; types (iii)/(iv) are 0 at rung 0."""
    rows, held = [], None
    for side in sides:
        cube = Box.cube(center, max(side, 0.0))
        inside = ((coords >= cube.mins) & (coords <= cube.maxs)).all(axis=1)
        crossing = [0, 0]
        if held is not None:
            ends = held[long_pairs]
            cross = ends[:, 0] != ends[:, 1]
            crossing = [len(np.unique(long_pairs[cross][~ends[cross]])), len(np.unique(long_pairs[cross][ends[cross]]))]
        outer = Box.cube(center, max(side + 2.0 * ell, 0.0))
        rows.append([slab_count_by_masks(coords, cube, ell), slab_count_by_masks(coords, outer, ell),
                     *crossing, int(np.count_nonzero(inside))])
        held = inside
    return rows


@st.composite
def ladders(draw):
    """Points, a center, a cube ladder by the engine's expressions (the
    first sides may be negative) and long pairs; most coordinates sit on a
    rung's face, slab edge or wider face."""
    dim = draw(st.integers(2, 3))
    ell = draw(st.sampled_from([0.25, 0.5, 1.0, 0.3]))
    center = tuple(draw(st.sampled_from([0.0, 0.5, 1.3, -2.0])) for _ in range(dim))
    w_final = draw(st.floats(0.0, 6.0))
    n_steps = draw(st.integers(0, 12))
    sides = w_final - 2.0 * ell * np.arange(n_steps, -1, -1)
    specials = [special_values(c, sides.tolist(), ell) for c in center]
    n = draw(st.integers(0, 30))
    coords = np.array(
        [[draw(st.sampled_from(specials[a]) | st.floats(-5.0, 5.0)) for a in range(dim)] for _ in range(n)]
    ).reshape(n, dim)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)) if n > 1 else []
    long_pairs = np.array(sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}), dtype=np.intp).reshape(-1, 2)
    return coords, center, sides, ell, long_pairs


@settings(max_examples=300, deadline=None)
@given(ladders())
def test_ladder_counts_match_a_per_rung_recount(ladder):
    coords, center, sides, ell, long_pairs = ladder
    entry, counts = certify._ladder_counts(coords, center, sides, ell, long_pairs)
    assert [list(row) for row in zip(*counts)] == ladder_by_masks(coords, center, sides, ell, long_pairs)
    for j, side in enumerate(sides.tolist()):
        assert np.flatnonzero(entry <= j).tolist() == points_in_box(Embedding(len(center), coords), Box.cube(center, max(side, 0.0)))


@pytest.mark.parametrize("mode", ["strict", "verified"])
def test_a_ladder_of_any_length_looks_at_the_qubits_at_most_twice(monkeypatch, mode):
    calls = []

    def counted(e, b):
        calls.append(b)
        return points_in_box(e, b)

    monkeypatch.setattr(certify, "points_in_box", counted)
    ec = families.bacon_shor(3)
    code, e = ec.code, ec.embedding
    if mode == "strict":
        # no qubit near the box: every count is 0, so the ladder runs to the end
        code, e = SubsystemCode(9, []), Embedding(2, e.coordinates + 100.0)
    cert = certify.holographic_certify(code, e, Box((0.0, 0.0), (2.0, 2.0)), 1e-3, mode=mode, d=4)
    assert len(cert.steps) > 600 and len(calls) <= 2


def test_verified_bacon_shor_ladder_of_72866_rungs_matches_pin():
    # BS-3 over [0, 2]^2 at ell 1e-5: the whole grid enters at the last
    # rung, which holds a logical
    ec = families.bacon_shor(3)
    cert = certify.holographic_certify(ec.code, ec.embedding, Box((0.0, 0.0), (2.0, 2.0)), 1e-5, mode="verified")
    assert (len(cert.steps), cert.outcome, cert.stuck_step) == (72866, certify.OUTCOME_STUCK, 72865)
    assert sha256(cert.to_json_lines().encode()).hexdigest() == (
        "094cda966f54eb8c627c7801e0eb4863e9b5be27068a37c57d4d1154858a1c9a"
    )
