"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not deferred.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from qlocality.bounds import (
    ball_volume,
    class_bounds,
    emit_contours,
    proof_constants,
)
from qlocality.certify import (
    OUTCOME_CONTRADICTION,
    OUTCOME_STUCK,
    expansion_sweep,
)
from qlocality.codes import SubsystemCode, distance, parameters
from qlocality.families import (
    bacon_shor,
    build_concat_embedding,
    concatenate,
    small_inner_codes,
    surface_code,
)
from qlocality.geometry import (
    Box,
    Embedding,
    check_density,
    extract_interactions,
    find_tiling,
    subdivide,
    validate_embedding,
    verify_tiling,
)
from qlocality.regions import (
    ab_bound_check,
    abc_bound_check,
    check_expansion_lemma,
    check_subset_closure,
    check_union_lemma,
    is_correctable,
    is_dressed_cleanable,
)


def report(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def all_subsets(n):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def test_criterion_01_parameter_oracle():
    """bacon_shor(m) -> (m^2, 1, (m-1)^2, m) for m in {2,3,4}, under 10 s."""
    start = time.time()
    ok = True
    for m in (2, 3, 4):
        ec = bacon_shor(m)
        p = parameters(ec.code)
        d = distance(ec.code).value
        ok &= (p.n, p.k, p.g, d) == (m * m, 1, (m - 1) * (m - 1), m)
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report(1, f"Bacon-Shor parameter oracle m=2,3,4 ({elapsed:.2f}s)", ok)


def test_criterion_02_lemma_2_3_exhaustive():
    """All four correctable-set properties over every region subset."""
    start = time.time()
    ok = True
    for code in (bacon_shor(2).code, small_inner_codes("five_one_three").code):
        n = code.n
        d = distance(code).value
        correctable = {u: is_correctable(code, u) for u in all_subsets(n)}
        # distance property
        for u, corr in correctable.items():
            if len(u) < d:
                ok &= corr
        # subset closure
        for u in all_subsets(n):
            for wsize in range(len(u) + 1):
                for w in itertools.combinations(u, wsize):
                    ok &= check_subset_closure(code, u, w)
        # union lemma, subsystem conclusion, over all disjoint pairs and triples
        for parts_count in (2, 3):
            for assignment in itertools.product(range(parts_count + 1), repeat=n):
                regions = [
                    tuple(q for q in range(n) if assignment[q] == v)
                    for v in range(1, parts_count + 1)
                ]
                if any(not r for r in regions):
                    continue
                ok &= check_union_lemma(code, regions, mode="subsystem").holds
        # expansion lemma over all (u, t) pairs
        for u in all_subsets(n):
            for t in all_subsets(n):
                ok &= check_expansion_lemma(code, u, t).holds
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    report(2, f"Lemma 2.3 exhaustive on BS-2x2 and [[5,1,3]] ({elapsed:.1f}s)", ok)


def test_criterion_03_ab_abc_bounds():
    """1000 random partitions per built-in code: AB and ABC never fail."""
    rng = random.Random(2024)
    builtin = [
        bacon_shor(2).code,
        bacon_shor(3).code,
        surface_code(2).code,
        small_inner_codes("five_one_three").code,
        small_inner_codes("steane").code,
        small_inner_codes("repetition", r=3).code,
    ]
    ok = True
    substantive_ab = substantive_abc = 0
    for code in builtin:
        assert code.n <= 12
        for _ in range(1000):
            labels = [rng.randrange(2) for _ in range(code.n)]
            a = [q for q in range(code.n) if labels[q] == 0]
            b = [q for q in range(code.n) if labels[q] == 1]
            rep = ab_bound_check(code, a, b)
            ok &= rep.holds
            substantive_ab += rep.hypotheses_met
        if code.has_abelian_gauge():
            for _ in range(1000):
                labels = [rng.randrange(3) for _ in range(code.n)]
                parts = [[q for q in range(code.n) if labels[q] == v] for v in range(3)]
                rep = abc_bound_check(code, *parts)
                ok &= rep.holds
                substantive_abc += rep.hypotheses_met
    ok &= substantive_ab > 0 and substantive_abc > 0
    report(3, f"AB/ABC bounds, zero failures ({substantive_ab}+{substantive_abc} substantive)", ok)


def test_criterion_04_point_density():
    """Lemma 2.4 never violated on 10^4 random (embedding, box) pairs."""
    rng = random.Random(99)
    ok = True
    for _ in range(10_000):
        dim = rng.choice((2, 3))
        side = rng.randrange(2, 5)
        points = []
        for idx in range(side**dim):
            rem = idx
            coord = []
            for _ in range(dim):
                coord.append(2.0 * (rem % side) + rng.uniform(-0.45, 0.45))
                rem //= side
            if rng.random() < 0.8:
                points.append(tuple(coord))
        if not points:
            points.append(tuple(0.0 for _ in range(dim)))
        emb = Embedding(dim, points)
        lo = [rng.uniform(-2, 2 * side) for _ in range(dim)]
        box = Box(tuple(lo), tuple(a + rng.uniform(0, 2 * side) for a in lo))
        ok &= check_density(box, emb)
    report(4, "Lemma 2.4 point-density bound on 10^4 random pairs", ok)


def test_criterion_05_tiling_totality():
    """find_tiling succeeds on 100 random instances at the statement fractions."""
    rng = random.Random(7)
    ok = True
    for trial in range(100):
        dim = rng.choice((2, 3))
        n_x = rng.randrange(0, 60)
        n_y = rng.randrange(0, 60)
        spread = rng.uniform(5, 80)
        xs = [tuple(rng.uniform(0, spread) for _ in range(dim)) for _ in range(n_x)]
        ys = [tuple(rng.uniform(0, spread) for _ in range(dim)) for _ in range(n_y)]
        ell = rng.uniform(0.2, 2.0)
        w = rng.uniform(4.0, 12.0) * ell
        # exercise both the sampler and the exact fallback
        tries = 0 if trial % 5 == 0 else 200
        tiling = find_tiling(xs, ys, w, ell, dim, seed=trial, max_tries=tries)
        ok &= verify_tiling(tiling, xs, ys, ell)["ok"]
    report(5, "Lemma 2.5 totality, 100 instances, independent verifier", ok)


def test_criterion_06_subdivision_postconditions():
    """subdivide: tiling, heights, light-or-short, count, on 100 random configs."""
    rng = random.Random(55)
    ok = True
    for _ in range(100):
        ell = rng.uniform(0.3, 1.5)
        height = rng.uniform(5 * ell, 80 * ell)
        box = Box((0.0, 0.0), (height, 8.0))
        masses = [
            ((rng.uniform(0, height), rng.uniform(0, 8)), 1)
            for _ in range(rng.randrange(0, 40))
        ]
        d1 = rng.uniform(1.0, 8.0)
        boxes = subdivide(box, masses, ell, d1)
        # exact tiling along x1
        ok &= boxes[0].mins[0] == 0.0 and boxes[-1].maxs[0] == height
        ok &= all(a.maxs[0] == b.mins[0] for a, b in zip(boxes, boxes[1:]))
        total_mass = 0
        for i, bx in enumerate(boxes):
            h = bx.maxs[0] - bx.mins[0]
            ok &= h >= 5 * ell - 1e-12
            closed = i == len(boxes) - 1
            mass = sum(
                m
                for point, m in masses
                if bx.mins[0] <= point[0] < bx.maxs[0] or (closed and point[0] == bx.maxs[0])
            )
            total_mass += mass
            ok &= mass <= d1 or h <= 10 * ell + 1e-12
        f_total = sum(m for _, m in masses)
        ok &= total_mass == f_total
        ok &= len(boxes) <= max(1, math.floor(2 * f_total / d1))
    report(6, "Lemma 4.2 subdivision postconditions on 100 random configs", ok)


def test_criterion_07_lemma_4_3():
    """Item 1 identity to 1e-9 relative; items 2-3 under the hypothesis."""
    rng = random.Random(12)
    ok = True
    for _ in range(1000):
        dim = rng.randrange(2, 7)
        d = rng.uniform(1.0, 1e8)
        ell = rng.uniform(1e-2, 1e2)
        alpha = rng.choice((1.0, 1.0, 2.0, 5.0))
        pc = proof_constants(d, ell, dim, alpha=alpha)
        lhs = 2.0**dim / ball_volume(dim) * (2.0 * pc.w0) ** (dim - 1) * ell
        ok &= abs(lhs - d / (16.0 * dim)) <= 1e-9 * abs(d / (16.0 * dim))
        ok &= pc.ineq1
        ok &= pc.ineq3
        if pc.hypothesis_met:
            ok &= pc.ineq2
    report(7, "Lemma 4.3: exact identity and conditional inequalities", ok)


def test_criterion_08_explicit_constants():
    """D=2 constants to 1e-12 and the distance-branch ell formula."""
    ok = True
    sub = class_bounds("subsystem", 1e6, 1e3, 1e3, 2, mode="explicit")
    ok &= abs(sub.branches["dimension"]["c0"] - math.sqrt(math.pi) / 800.0) < 1e-12
    proj = class_bounds("projector", 1e6, 1e3, 1e3, 2, mode="explicit")
    ok &= abs(proj.branches["dimension"]["c0"] - math.sqrt(math.pi) / 3200.0) < 1e-12
    rng = random.Random(3)
    for _ in range(100):
        dim = rng.randrange(2, 6)
        n = rng.uniform(10.0, 1e10)
        d = rng.uniform(1.0, n)
        rep = class_bounds("subsystem", n, 1.0, d, dim, mode="explicit")
        expected = ball_volume(dim) * d / (6.0**dim * dim * n ** ((dim - 1) / dim))
        ok &= abs(rep.branches["distance"]["ell_star"] - expected) <= 1e-12 * expected
    report(8, "explicit constants sqrt(pi)/800, sqrt(pi)/3200, and the ell formula", ok)


def test_criterion_09_concatenation():
    """concatenate([[5,1,3]], BS-2x2): n=20, k=1, g=1, every 5-qubit region correctable."""
    start = time.time()
    inner = small_inner_codes("five_one_three").code
    outer = bacon_shor(2).code
    cat = concatenate(inner, outer)
    p = parameters(cat)
    ok = (p.n, p.k, p.g) == (20, 1, 1)
    checked = 0
    for region in itertools.combinations(range(20), 5):
        ok &= is_correctable(cat, region)
        checked += 1
        if not ok:
            break
    ok &= checked == 15504
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    report(9, f"Lemma 6.2 concatenation, d >= 6 via {checked} kernel checks ({elapsed:.1f}s)", ok)


def test_criterion_10_concat_embedding():
    """Theorem 6.4 recipe: validates, max length < ell_target, within ell/2."""
    inner = small_inner_codes("five_one_three")
    outer = bacon_shor(2)
    ell_prime = build_concat_embedding(inner, outer, 100.0).params["ell_prime"]
    ell_target = 4.0 * ell_prime
    ec = build_concat_embedding(inner, outer, ell_target)
    ok = validate_embedding(ec.embedding) == []
    measured = ec.params["max_interaction_length"]
    ok &= measured < ell_target
    ok &= measured <= ell_target / 2.0  # the proof's triangle bound
    report(10, f"Theorem 6.4 embedding: L_max {measured:.2f} <= ell/2 {ell_target / 2:.2f}", ok)


def test_criterion_11_sweep_soundness():
    """Verified sweeps are oracle-sound; full-set + k >= 1 means contradiction;
    the Bacon-Shor stuck-at example reproduces."""
    ok = True
    # (a) verified mode on small instances: every accepted region is correctable
    for ec, tau, d in [
        (small_inner_codes("five_one_three"), 5.0, 2),
        (small_inner_codes("repetition", r=3), 3.0, 1),
        (bacon_shor(3), 9.0, 3),
    ]:
        ints = extract_interactions(ec.code, ec.embedding)
        cert = expansion_sweep(
            ec.embedding, ints, ell=1.0, tau=tau, d=d, mode="verified", code=ec.code
        )
        assert ec.code.n <= 12
        for step in cert.steps:
            if step.verdict and "region_qubits" in step.details:
                ok &= is_correctable(ec.code, step.details["region_qubits"])
                ok &= step.details["exact_correctable"]
    # (b) full-set certification with k >= 1 is reported as contradiction-reached
    bs3 = bacon_shor(3)
    ints = extract_interactions(bs3.code, bs3.embedding)
    full = expansion_sweep(
        bs3.embedding, ints, ell=2.0, tau=6.0, d=100, mode="strict", code=bs3.code
    )
    ok &= full.outcome == OUTCOME_CONTRADICTION
    # also with a fully gauged k = 0 code the same run is plain certification
    gauged = SubsystemCode(4, [1 << i for i in range(8)])
    line = Embedding(2, [(float(i), 0.0) for i in range(4)])
    free = expansion_sweep(
        line,
        extract_interactions(gauged, line),
        ell=1.0,
        tau=4.0,
        d=3,
        mode="verified",
        code=gauged,
    )
    ok &= free.outcome == "certified-correctable"
    # (c) the stuck-at example: ell = 2, d = 3, tau = n keeps legality silent
    stuck = expansion_sweep(bs3.embedding, ints, ell=2.0, tau=9.0, d=3, mode="strict")
    ok &= stuck.outcome == OUTCOME_STUCK
    ok &= stuck.stuck_step == 1
    ok &= stuck.steps[0].boundary_count == 3
    report(11, "expansion sweep soundness, contradiction reporting, stuck-at example", ok)


def test_criterion_12_contour_spot_values():
    """Fig. 1 spot values for the D=2 subsystem class, exact in exponents."""
    table = emit_contours(2, "subsystem", 0.1)
    expected = {(1.0, 1.0): 0.5, (0.0, 0.8): 0.3, (0.3, 0.2): 0.0}
    ok = True
    for (kappa, delta), value in expected.items():
        ell_exp, _ = table.lookup(kappa, delta)
        ok &= abs(ell_exp - value) <= 1e-12
    report(12, "Fig. 1 contour spot values (1,1)->0.5, (0,0.8)->0.3, (0.3,0.2)->0", ok)
