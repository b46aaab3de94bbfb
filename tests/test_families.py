"""Built-in families, concatenation, and the dilated embedding recipe."""

import itertools
import math

import numpy as np
import pytest

from qlocality.codes import SubsystemCode, distance, logical_representatives, parameters
from qlocality.families import (
    ConcatPlan,
    EmbeddedCode,
    bacon_shor,
    build_concat_embedding,
    concatenate,
    saturation_report,
    small_inner_codes,
    surface_code,
)
from qlocality.geometry import Embedding, extract_interactions, validate_embedding
from qlocality.pauli import symplectic_product
from qlocality.regions import is_correctable


# ── Bacon-Shor ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("m,expect", [(2, (4, 1, 1, 2)), (3, (9, 1, 4, 3))])
def test_bacon_shor_parameters(m, expect):
    ec = bacon_shor(m)
    p = parameters(ec.code)
    n, k, g, d = expect
    assert (p.n, p.k, p.g) == (n, k, g)
    assert distance(ec.code).value == d


def test_bacon_shor_interactions_all_unit():
    ec = bacon_shor(3)
    ints = extract_interactions(ec.code, ec.embedding)
    assert all(length == 1.0 for _, _, length in ints.pairs)
    assert len(ints.pairs) == 12


def test_bacon_shor_rejects_small_m():
    with pytest.raises(ValueError):
        bacon_shor(1)


# ── surface code ───────────────────────────────────────────────────────


@pytest.mark.parametrize("m", [2, 3, 4])
def test_surface_code_parameters(m):
    ec = surface_code(m)
    p = parameters(ec.code)
    assert p.n == m * m + (m - 1) * (m - 1)
    assert p.k == 1
    assert p.g == 0
    assert distance(ec.code).value == m


def test_distance_known_answers_at_five():
    # d = m for both families; the region search reaches w = 5 here
    assert distance(surface_code(5).code).value == 5
    assert distance(bacon_shor(5).code).value == 5


def test_surface_code_is_stabilizer_code():
    ec = surface_code(3)
    assert ec.code.has_abelian_gauge()


def test_surface_code_local_interactions():
    ec = surface_code(3)
    ints = extract_interactions(ec.code, ec.embedding)
    assert ints.max_length() <= 2.0


# ── small inner codes ──────────────────────────────────────────────────


def test_five_one_three():
    ec = small_inner_codes("five_one_three")
    p = parameters(ec.code)
    assert (p.n, p.k, p.g) == (5, 1, 0)
    assert distance(ec.code).value == 3


def test_steane():
    ec = small_inner_codes("steane")
    p = parameters(ec.code)
    assert (p.n, p.k, p.g) == (7, 1, 0)
    assert distance(ec.code).value == 3


def test_repetition():
    ec = small_inner_codes("repetition", r=3)
    p = parameters(ec.code)
    assert (p.n, p.k, p.g) == (3, 1, 0)
    assert distance(ec.code).value == 1


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        small_inner_codes("golay")


def test_lattice_embeddings_validate():
    for ec in (small_inner_codes("steane"), small_inner_codes("five_one_three")):
        assert validate_embedding(ec.embedding) == []


# ── concatenation ──────────────────────────────────────────────────────


def test_concat_five_in_bacon_shor_2x2():
    inner = small_inner_codes("five_one_three").code
    outer = bacon_shor(2).code
    cat = concatenate(inner, outer)
    p = parameters(cat)
    assert (p.n, p.k, p.g) == (20, 1, 1)  # g = k1*g2 + n2*g1 = 1*1 + 4*0


def test_concat_repetition_square():
    rep = small_inner_codes("repetition", r=3).code
    cat = concatenate(rep, rep)
    p = parameters(cat)
    assert (p.n, p.k, p.g) == (9, 1, 0)
    assert distance(cat).value >= 1


def test_concat_parameter_identities():
    cases = [
        (small_inner_codes("five_one_three").code, bacon_shor(2).code),
        (small_inner_codes("steane").code, bacon_shor(2).code),
        (small_inner_codes("repetition", r=3).code, small_inner_codes("five_one_three").code),
        (bacon_shor(2).code, small_inner_codes("repetition", r=2).code),
    ]
    for inner, outer in cases:
        p1, p2 = parameters(inner), parameters(outer)
        p = parameters(concatenate(inner, outer))
        assert p.n == p1.n * p2.n
        assert p.k == p1.k * p2.k
        assert p.g == p1.k * p2.g + p2.n * p1.g


def test_concat_substituted_generators_commute_with_block_generators():
    inner = small_inner_codes("five_one_three").code
    outer = bacon_shor(2).code
    cat = concatenate(inner, outer)
    n_block_gens = outer.n * len(inner.gauge_generators)
    block_gens = cat.gauge_generators[:n_block_gens]
    outer_gens = cat.gauge_generators[n_block_gens:]
    assert len(outer_gens) == parameters(inner).k * len(outer.gauge_generators)
    for a in outer_gens:
        for b in block_gens:
            assert symplectic_product(a, b) == 0


def test_concat_y_substitution():
    # an outer generator with Y on qubit i maps to the x_bar * z_bar product
    inner = small_inner_codes("repetition", r=3).code
    outer = SubsystemCode.from_strings(["YY"])
    cat = concatenate(inner, outer)
    (pair,) = logical_representatives(inner)
    sub = cat.gauge_generators[-1]
    expected_block = pair.x_bar * pair.z_bar
    assert sub.x_bits == expected_block.x_bits | (expected_block.x_bits << 3)
    assert sub.z_bits == expected_block.z_bits | (expected_block.z_bits << 3)


def test_concat_rejects_k_zero_inner():
    inner = SubsystemCode.from_strings(["X", "Z"])
    with pytest.raises(ValueError):
        concatenate(inner, bacon_shor(2).code)


def test_concat_distance_lower_bound_small():
    # [[3,1,1]] inside BS2 ([[4,1,2,1]]): d >= d1*d2 = 2
    rep = small_inner_codes("repetition", r=3).code
    cat = concatenate(rep, bacon_shor(2).code)
    res = distance(cat, weight_cap=1)
    assert res.is_lower_bound  # every singleton is correctable


# ── dilated embedding ──────────────────────────────────────────────────


def make_plan(ell_target_factor=4.0):
    inner = small_inner_codes("five_one_three")
    outer = bacon_shor(2)
    plan = ConcatPlan(inner=inner, outer=outer, ell_target=1.0)
    ell_prime = plan.ell_prime()
    return ConcatPlan(inner=inner, outer=outer, ell_target=ell_target_factor * ell_prime)


def test_concat_embedding_validates_and_is_local():
    plan = make_plan(4.0)
    ec = build_concat_embedding(plan)
    assert validate_embedding(ec.embedding) == []
    measured = ec.params["max_interaction_length"]
    assert measured < plan.ell_target
    # the proof's triangle bound: inter- plus intra-block reach is at most ell/2
    assert measured <= plan.ell_target / 2.0
    assert measured <= ec.params["triangle_bound"]


def test_concat_embedding_boundary_case_rejected():
    inner = small_inner_codes("five_one_three")
    outer = bacon_shor(2)
    plan = ConcatPlan(inner=inner, outer=outer, ell_target=1.0)
    with pytest.raises(ValueError):
        build_concat_embedding(plan)  # ell_target < ell_prime
    tight = ConcatPlan(inner=inner, outer=outer, ell_target=plan.ell_prime())
    with pytest.raises(ValueError):
        build_concat_embedding(tight)  # dilation 1: blocks overlap


def test_concat_embedding_single_outer_qubit():
    inner = small_inner_codes("five_one_three")
    outer_code = SubsystemCode(1, [])
    outer = EmbeddedCode(outer_code, Embedding(2, [(0.0, 0.0)]), "single", {})
    plan = ConcatPlan(inner=inner, outer=outer, ell_target=100.0, ell2=1.0)
    ec = build_concat_embedding(plan)
    # one block: the inner lattice, recentered
    centered = inner.embedding.coordinates - inner.embedding.coordinates.mean(axis=0)
    assert np.allclose(ec.embedding.coordinates, centered)


def test_concat_embedding_block_centers():
    plan = make_plan(4.0)
    ec = build_concat_embedding(plan)
    dilation = plan.dilation()
    n1 = plan.inner.code.n
    for b in range(plan.outer.code.n):
        block = ec.embedding.coordinates[b * n1 : (b + 1) * n1]
        center = dilation * plan.outer.embedding.coordinates[b]
        assert np.allclose(block.mean(axis=0), center)


# ── saturation ─────────────────────────────────────────────────────────


def test_saturation_bacon_shor_3():
    report = saturation_report(bacon_shor(3))
    assert report.ell_star == pytest.approx(1.0)  # d/sqrt(n) = 1 dominates
    assert report.max_interaction_length == pytest.approx(1.0)
    assert report.ratio == pytest.approx(1.0)


def test_saturation_surface_3():
    report = saturation_report(surface_code(3), code_class="projector")
    assert report.ratio < 5.0  # O(1) for the saturating family


def test_saturation_weight_capped():
    report = saturation_report(bacon_shor(3), weight_cap=2)
    assert report.d_is_lower_bound
    assert report.d == "> 2"
