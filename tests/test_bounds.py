"""Closed-form bound evaluation: branch values, explicit constants, regimes."""

import hashlib
import itertools
import math
import random
import re

import pytest

from qlocality.bounds import (
    CLASS_EXPONENTS,
    ball_volume,
    class_bounds,
    emit_contours,
    holographic_base_width,
    holographic_box_width,
    m_star_exponent,
    proof_constants,
    regime_check,
)


def test_ball_volume_examples():
    assert ball_volume(1) == pytest.approx(2.0, abs=1e-12)
    assert ball_volume(2) == pytest.approx(math.pi, abs=1e-12)
    assert ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-12)


def test_ball_volume_rejects_zero():
    with pytest.raises(ValueError):
        ball_volume(0)


# ── subsystem bounds ───────────────────────────────────────────────────


def test_subsystem_asymptotic_example():
    report = class_bounds("subsystem", 1e6, 1e4, 1e3, 2, mode="asymptotic")
    assert report.ell_star == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert report.m_star == pytest.approx(1e4)
    assert report.regime == "dimension-branch"


def test_subsystem_worst_case_good_code():
    n = 1e6
    report = class_bounds("subsystem", n, n, n, 2, mode="asymptotic")
    assert report.ell_star == pytest.approx(math.sqrt(n), rel=1e-12)
    assert report.m_star == pytest.approx(n)


def test_subsystem_explicit_constants_d2():
    report = class_bounds("subsystem", 1e6, 1e4, 1e3, 2, mode="explicit")
    dim_branch = report.branches["dimension"]
    assert dim_branch["c0"] == pytest.approx(math.sqrt(math.pi) / 800.0, abs=1e-15)
    assert dim_branch["c1"] == pytest.approx((800.0 / math.sqrt(math.pi)) ** 2, rel=1e-12)
    dist_branch = report.branches["distance"]
    assert dist_branch["c1"] == pytest.approx(2.0 * (36.0 * 2.0 / math.pi) ** 2, rel=1e-12)


def test_subsystem_explicit_distance_ell_formula():
    rng = random.Random(1)
    for _ in range(50):
        dim = rng.randrange(2, 6)
        n = rng.uniform(1e3, 1e9)
        d = rng.uniform(1, n)
        report = class_bounds("subsystem", n, 1, d, dim, mode="explicit")
        expected = ball_volume(dim) * d / (6.0**dim * dim * n ** ((dim - 1) / dim))
        assert report.branches["distance"]["ell_star"] == pytest.approx(expected, rel=1e-12)


def test_subsystem_monotonicity():
    rng = random.Random(4)
    for _ in range(200):
        dim = rng.randrange(2, 5)
        n = rng.uniform(100, 1e8)
        k = rng.uniform(1, n / 2)
        d = rng.uniform(1, n / 2)
        base = class_bounds("subsystem", n, k, d, dim).ell_star
        assert class_bounds("subsystem", n, k * 1.5, d, dim).ell_star >= base - 1e-12
        assert class_bounds("subsystem", n, k, d * 1.5, dim).ell_star >= base - 1e-12
        assert class_bounds("subsystem", n * 1.5, k, d, dim).ell_star <= base + 1e-12


def test_subsystem_crossover_at_k_equals_d():
    # for D=2 the branches meet exactly at d = k
    for k in (10.0, 1e3, 1e5):
        report = class_bounds("subsystem", 1e7, k, k, 2)
        b = report.branches
        assert b["distance"]["ell_star"] == pytest.approx(b["dimension"]["ell_star"], rel=1e-12)
    # deterministic tie-break on an exactly representable crossover
    report = class_bounds("subsystem", 1e4, 100.0, 100.0, 2)
    b = report.branches
    assert b["distance"]["ell_star"] == b["dimension"]["ell_star"] == 1.0
    assert report.regime == "distance-branch"


def test_subsystem_domain_errors():
    with pytest.raises(ValueError):
        class_bounds("subsystem", 100, 0, 10, 2)
    with pytest.raises(ValueError):
        class_bounds("subsystem", 100, 10, 10, 1)
    with pytest.raises(ValueError):
        class_bounds("subsystem", 100, 10, 10, 2, mode="bogus")


# ── projector bounds ───────────────────────────────────────────────────


def test_projector_asymptotic_example():
    report = class_bounds("projector", 1e6, 1e4, 1e3, 2, mode="asymptotic")
    assert report.ell_star == pytest.approx(10.0, rel=1e-12)
    assert report.regime == "dimension-branch"


def test_projector_explicit_constant_d2():
    report = class_bounds("projector", 1e6, 1e4, 1e3, 2, mode="explicit")
    dim_branch = report.branches["dimension"]
    assert dim_branch["c0"] == pytest.approx(math.sqrt(math.pi) / 3200.0, abs=1e-15)
    assert dim_branch["c1"] == pytest.approx((3200.0 / math.sqrt(math.pi)) ** 4, rel=1e-12)


def test_projector_crossover_at_d_squared_equals_kn():
    n, k = 1e8, 1e4
    d = math.sqrt(k * n)
    report = class_bounds("projector", n, k, d, 2)
    b = report.branches
    assert b["distance"]["ell_star"] == pytest.approx(b["dimension"]["ell_star"], rel=1e-9)
    assert report.regime == "distance-branch"


# ── regimes ────────────────────────────────────────────────────────────


def test_regime_bacon_shor_family():
    for m in (10, 100, 1000):
        n = float(m * m)
        report = regime_check(n, 1, m, 2, family="bravyi")
        assert report.bravyi_ratio <= 1
        assert report.d_ratio == pytest.approx(1.0)  # saturates d = sqrt(n)
        assert report.local_regime


def test_regime_good_code_is_nonlocal():
    report = regime_check(1e6, 1e6, 1e6, 2, family="bravyi")
    assert report.bravyi_ratio > 1
    assert not report.local_regime
    assert not regime_check(1e6, 1e6, 1e6, 3, family="bpt").local_regime


def test_regime_trivial_parameters_local():
    assert regime_check(100, 1, 1, 2, family="bravyi").local_regime
    assert regime_check(100, 1, 1, 2, family="bpt").local_regime


@pytest.mark.parametrize(
    "n, k, d, family",
    [
        (1e300, 1e300, 1e300, "bravyi"),
        (1e300, 1e300, 1e300, "bpt"),
        (1e200, 1e200, 1e200, "bravyi"),
        (1e200, 1e200, 1e200, "bpt"),
    ],
)
def test_regime_overflow_names_the_ratio(n, k, d, family):
    # k <= n keeps bravyi_ratio <= d, so only bpt_ratio (d^2 at D = 2) overflows
    message = f"bpt_ratio is not finite (inf) for n={n:g}, k={k:g}, d={d:g}, D=2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        regime_check(n, k, d, 2, family)


@pytest.mark.parametrize(
    "n, k, d, bravyi, bpt",
    [
        (1e300, 1e300, 1e10, 1e10, 1e20),  # the count k d^(e/(D-1)) overflows
        (1e300, 1, 1e200, 1e-100, 1e100),  # d^2 overflows
        (1e6, 1e4, 1e3, 1e1, 1e4),
    ],
)
def test_regime_ratios_finite_when_only_the_count_overflows(n, k, d, bravyi, bpt):
    report = regime_check(n, k, d, 2, "bpt")
    assert report.bravyi_ratio == pytest.approx(bravyi, rel=1e-12)
    assert report.bpt_ratio == pytest.approx(bpt, rel=1e-12)


# ── proof constants (Lemma 4.3 quantities) ─────────────────────────────


def test_w0_example_d2():
    pc = proof_constants(1000.0, 2.0, 2)
    assert pc.w0 == pytest.approx(500.0 * math.pi / 256.0, rel=1e-12)


def test_identity_holds_randomized():
    rng = random.Random(6)
    for _ in range(300):
        dim = rng.randrange(2, 7)
        d = rng.uniform(1, 1e9)
        ell = rng.uniform(1e-3, 1e3)
        pc = proof_constants(d, ell, dim)
        lhs = 2.0**dim / ball_volume(dim) * (2 * pc.w0) ** (dim - 1) * ell
        assert lhs == pytest.approx(d / (16 * dim), rel=1e-9)
        assert pc.ineq1
        assert pc.ineq3  # holds for all D >= 2
        if pc.hypothesis_met:
            assert pc.ineq2


def test_ineq2_not_asserted_when_hypothesis_unmet():
    # huge ell violates ell <= c*d^(1/D); the flag records it without failing
    pc = proof_constants(10.0, 100.0, 2)
    assert not pc.hypothesis_met
    assert not pc.ineq2


def test_proof_constants_domain():
    with pytest.raises(ValueError):
        proof_constants(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        proof_constants(10.0, 1.0, 2, alpha=0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda dim: proof_constants(10.0, 0.1, dim),
        lambda dim: holographic_box_width(10.0, 0.1, dim),
        lambda dim: holographic_base_width(10.0, dim),
    ],
    ids=["proof_constants", "box_width", "base_width"],
)
def test_constants_past_the_ball_volume_overflow_raise_value_error(call):
    # gamma(D/2 + 1) overflows a float from D = 342 on
    call(341)
    for dim in (342, 400):
        with pytest.raises(ValueError, match=rf"^the proof constants overflow a float at D={dim}$"):
            call(dim)


def test_holographic_widths():
    assert holographic_box_width(1000.0, 2.0, 2) == pytest.approx(500 * math.pi / 256)
    assert holographic_base_width(1000.0, 2) == pytest.approx(math.sqrt(math.pi / 32.0 * 1000.0))


def test_widths_stay_positive_and_finite_up_to_the_ball_volume_overflow():
    # the products under the roots underflow a float from D = 255 on (taken
    # directly, both widths read 0.0 at D = 300 and 341), and 2^D / vol in
    # ineq1 overflows from D = 326 on
    for dim in range(2, 342):
        w0, base = holographic_box_width(10.0, 0.1, dim), holographic_base_width(10.0, dim)
        assert 0 < w0 < math.inf and 0 < base < math.inf
        assert proof_constants(10.0, 0.1, dim).ineq1
    assert holographic_box_width(10.0, 0.1, 341) == pytest.approx(0.05437980120243655, rel=1e-12)


def test_widths_keep_the_direct_formula_bits_where_it_stays_in_range():
    for dim in range(2, 251):
        vol = ball_volume(dim)
        for d, ell in ((10.0, 0.1), (3.0, 0.25), (1e6, 2.0)):
            direct = (vol / (2.0 * 4.0 ** (dim + 1) * dim) * d / ell) ** (1.0 / (dim - 1))
            assert holographic_box_width(d, ell, dim) == direct
            assert holographic_base_width(d, dim) == (vol / (2.0 * 4.0**dim) * d) ** (1.0 / dim)


@pytest.mark.parametrize("d", [0.0, -1.0, math.inf, math.nan])
def test_base_width_rejects_a_distance_that_is_not_positive_and_finite(d):
    with pytest.raises(ValueError, match=r"^d must be positive and finite$"):
        holographic_base_width(d, 2)


# ── one builder per code class ─────────────────────────────────────────


def test_class_bounds_reports_match_pinned_digest():
    # SHA-256 of these reports and contour tables, computed with the separate
    # subsystem and projector formulas that the exponent-keyed builder replaced
    h = hashlib.sha256()
    vals = (1.0, 3.7, 123.0, 1e4, 1e9)
    for n, k, d in itertools.product(vals, repeat=3):
        for dim in (2, 3, 5):
            for mode in ("asymptotic", "explicit"):
                for code_class in ("subsystem", "projector"):
                    try:
                        report = class_bounds(code_class, n, k, d, dim, mode=mode)
                        h.update(repr(report.to_json()).encode())
                    except ValueError as exc:
                        h.update(str(exc).encode())
    for dim in (2, 3):
        for code_class in CLASS_EXPONENTS:
            h.update(emit_contours(dim, code_class, 0.05).to_csv().encode())
    assert h.hexdigest() == "095fd68adc8c8adde6dd56afe5d9336828449d85735e1f689f138858813226e1"


def test_unknown_code_class_rejected():
    with pytest.raises(ValueError, match="unknown code class 'stabilizer'"):
        class_bounds("stabilizer", 1e6, 1e3, 1e2, 2)
    with pytest.raises(ValueError, match="unknown code class"):
        m_star_exponent(0.5, 0.5, 2, "stabilizer")
