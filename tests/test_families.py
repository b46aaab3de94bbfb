"""Built-in families, concatenation, and the dilated embedding recipe."""

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from qlocality.codes import SubsystemCode, distance, logical_representatives, parameters
from qlocality.families import (
    EmbeddedCode,
    bacon_shor,
    build_concat_embedding,
    concatenate,
    saturation_report,
    small_inner_codes,
    surface_code,
)
from qlocality.geometry import Embedding, extract_interactions, validate_embedding
from qlocality.pauli import symplectic_bits
from qlocality.regions import is_correctable
from tests.test_codes import supports_of


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


def test_embedded_code_rejects_a_size_mismatch():
    ec = bacon_shor(3)
    short = Embedding(2, ec.embedding.coordinates[:-1])
    with pytest.raises(ValueError, match=r"^embedding has 8 points, code has 9 qubits$"):
        EmbeddedCode(ec.code, short, "short", {})


def test_embedded_code_names_the_first_close_pair():
    code = SubsystemCode.from_strings(["XXI", "IZZ"])
    close = Embedding(1, [(0.0,), (3.0,), (3.25,)])
    with pytest.raises(ValueError, match=r"^qubits 1 and 2 are at distance 0.25 < 1$"):
        EmbeddedCode(code, close, "close", {})


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: bacon_shor(317), 317 * 317),
        (lambda: surface_code(225), (449 * 449 + 1) // 2),
        (lambda: small_inner_codes("repetition", r=100_001), 100_001),
    ],
    ids=["bacon_shor", "surface", "repetition"],
)
def test_families_check_the_qubit_count_before_building(monkeypatch, build, n):
    def no_code(*args, **kwargs):
        raise AssertionError("the generators were built")

    monkeypatch.setattr(SubsystemCode, "from_supports", no_code)
    monkeypatch.setattr(SubsystemCode, "from_support_arrays", no_code)
    with pytest.raises(ValueError, match=rf"^qubit count {n} outside \[0, 100000\]$"):
        build()


def test_bacon_shor_rejects_small_m():
    with pytest.raises(ValueError):
        bacon_shor(1)


# ── surface code ───────────────────────────────────────────────────────


def reference_surface_code(m):
    """The surface code's supports and coordinates by a walk over the patch:
    data qubits numbered row by row, each check's neighbours looked up."""
    size = 2 * m - 1
    data = {}
    for r in range(size):
        for c in range(size):
            if (r + c) % 2 == 0:
                data[(r, c)] = len(data)

    def star(r, c):
        near = ((r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)))
        return tuple(sorted(data[p] for p in near if p in data))

    supports = []
    for r in range(size):
        for c in range(size):
            if r % 2 == 1 and c % 2 == 0:
                supports.append((star(r, c), ()))
            elif r % 2 == 0 and c % 2 == 1:
                supports.append(((), star(r, c)))
    coords = [None] * len(data)
    for (r, c), q in data.items():
        coords[q] = [float(c), float(r)]
    return tuple(supports), coords


@pytest.mark.parametrize("m", range(2, 13))
def test_surface_code_matches_the_patch_walk(m):
    supports, coords = reference_surface_code(m)
    ec = surface_code(m)
    n = ec.code.n
    assert supports_of(ec.code) == supports
    rows = [sum(1 << q for q in xs) | sum(1 << q for q in zs) << n for xs, zs in supports]
    assert ec.code.gauge_matrix.rows == tuple(rows)
    assert ec.embedding.coordinates.tolist() == coords


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


# ── byte pins ──────────────────────────────────────────────────────────

# SHA-256 of ec.code.dumps() and of the sorted-key embedding JSON, recorded
# when every family still built its generators as PauliVectors; certificates
# and CLI digests depend on these bytes.
FAMILY_DIGESTS = {
    ("bacon_shor", 2): ("1bfb6ed6075bfbfd2265ec5bf954cb5142ed7a96a08385bf0fff58ee7a7baeb8", "05d4210dbeece6ace4ff7ff053d43da9bdc245d391e99a673b4db880c47cc5ac"),
    ("bacon_shor", 3): ("0a74300817a964b62ba992e2d66a4834704fb40485808f04ef5e41272e36ceb6", "50ecb71dab86c8ac02fad5c9091031ef4a71cf8afc28bf2611c7b9bd907c5c3d"),
    ("bacon_shor", 4): ("7fe703bd7627d38911b2856404eded811682db542a942f0f8736003a21468783", "245377cfb27789684faafc340cc3b3b455dac8670eee689a0148017fedde6362"),
    ("bacon_shor", 5): ("b0215e2de55eefd77cea3551e5abcdc044bf19e796d16ddd75e5dca0ac97b896", "ca3e8f98431bb8ebad63b0e3473de74d1e9275562f58361897efa59c1c127ad8"),
    ("bacon_shor", 6): ("79b65db08b4bf39ef6e5636a40a6a0ff0b82e361bc4e2941a3fb4035b33a954b", "8e2792a7a4ad6a4b3a77afdd8e3f8c2b7a56443e63d98835c157d1a0031940ca"),
    ("bacon_shor", 16): ("422f6b99e7a4755af253dfb2b943da0393acd993bb68e75abf9783efe26fc54a", "66c4d483d23fee4236e5f2a0bb943645db63ee5d6ad9bbfcafeb0e9307677ebc"),
    ("surface", 2): ("4ed0f9579c015f47db9752c6123fde27d360d98ea55a50ba08895f7d3bb61104", "272fbba218932179baf000c5ef61b35d9b185e74214f26a59d552dd1b4ecb34d"),
    ("surface", 3): ("ca9eaba34c912911659edb30271e187729cf91d22fc5fd86651b98e3c937564a", "0ceda5302d83bc6a1bd834d53d3c1811306c80eea308f12794352069fdeb3bae"),
    ("surface", 4): ("8f22d84036309f8fce40f10eb1eceb3f2ef528ff4731ed39f4fefab1bb634744", "434ba321dcd58d79c61cfcca2d6a3054d88ca8318d1af573a48c4068c03f0db4"),
    ("surface", 5): ("700fc86a90122f81494c4fa2610e769ae87a228b41ddd488f4c6d4e4c1d3619e", "de0e6f2216289dea49a0b326334b24de16452a88761d15f19f1633ccce8d074d"),
    ("repetition", 5): ("8b2217192b5f71a6ef98cfdffb8bc71ac2b417fa3daab02635d7745dcea897c5", "b21115440dfef7e6d84161a62936e79cf7e7cdec22392221305d39ce299923ee"),
    ("repetition-3d", 27): ("a5739e01a171455e3835ce85bdb4147537d966c61605928d77a8704a21be578c", "7710359419bb745a441ec97aa07ab3a3636bbeaf6f3c3414769cb2abf20d53e4"),
    ("repetition-3d", 343): ("74ba055041a2f4afeb583b8bea63e74d76218e7ffe56e66e7da0e59314ec2da0", "483f3eaadc4b84ae4da76c0a041f08f93953f1f692c6da3a6e90b93e5fd4bb6d"),
    ("steane", None): ("a81abe1e8d4d3a4ff6b455db81e50145b55315b465b0910b5b1c58ac6143249b", "804f5d38cc32bf77178e90ca0db740f5d1f1454c9aac5bb6124b875ce765d7fa"),
    ("five_one_three", None): ("ce86a35e16d0a877cd59c78f94a28a93bf38f3a6f13fa44d292f42d1f7545f9f", "b21115440dfef7e6d84161a62936e79cf7e7cdec22392221305d39ce299923ee"),
}


def build_family(family, size):
    if family == "bacon_shor":
        return bacon_shor(size)
    if family == "surface":
        return surface_code(size)
    if family == "repetition":
        return small_inner_codes("repetition", r=size)
    if family == "repetition-3d":
        return small_inner_codes("repetition", r=size, dim=3)
    return small_inner_codes(family)


@pytest.mark.parametrize("family,size", sorted(FAMILY_DIGESTS, key=str))
def test_family_output_bytes_pinned(family, size):
    ec = build_family(family, size)
    code_sha = hashlib.sha256(ec.code.dumps().encode()).hexdigest()
    emb_json = json.dumps(ec.embedding.to_json(), sort_keys=True)
    emb_sha = hashlib.sha256(emb_json.encode()).hexdigest()
    assert (code_sha, emb_sha) == FAMILY_DIGESTS[family, size]


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
    n_block_gens = outer.n * len(inner.gauge_matrix)
    block_gens = cat.gauge_matrix.rows[:n_block_gens]
    outer_gens = cat.gauge_matrix.rows[n_block_gens:]
    assert len(outer_gens) == parameters(inner).k * len(outer.gauge_matrix)
    for a in outer_gens:
        for b in block_gens:
            assert symplectic_bits(a, b, cat.n) == 0


def test_concat_y_substitution():
    # an outer generator with Y on qubit i maps to the x_bar * z_bar product
    inner = small_inner_codes("repetition", r=3).code
    outer = SubsystemCode.from_strings(["YY"])
    cat = concatenate(inner, outer)
    (pair,) = logical_representatives(inner)
    sub = cat.gauge_matrix.rows[-1]
    # the phase-free product of two Paulis XORs their bits
    x = pair.x_bar.x_bits ^ pair.z_bar.x_bits
    z = pair.x_bar.z_bits ^ pair.z_bar.z_bits
    assert sub == (x | x << 3) | (z | z << 3) << 6


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


# (inner, outer) -> SHA-256 of concatenate(inner, outer).dumps() and its
# (n, k, g, s), recorded while concatenation still substituted PauliVectors
CONCAT_DIGESTS = {
    ("five_one_three", "bacon_shor-2"): ("4d52d961879b6bc42f107bcd021ea5ed21c35828d64e80f055cb6a3768d3074d", (20, 1, 1, 18)),
    ("five_one_three", "bacon_shor-3"): ("8736636ac84afb6a7194ba8ea15c77a66d8d0d3d2aa12e1dfe3beee5f708c22c", (45, 1, 4, 40)),
    ("five_one_three", "surface-3"): ("c26bff94fbe015acabc3d2bf8c8ab7ccf87cc16660666f28242c2d6ac44348d3", (65, 1, 0, 64)),
    ("steane", "bacon_shor-2"): ("780d9d7a0eb64cd79af18c7582aebd98e9a750d1344c6ac9959bbde75484a720", (28, 1, 1, 26)),
    ("steane", "bacon_shor-3"): ("e0604a9d3f0a54293c7d9d68048424ad15d29f57bb3a402fe536b376ffc2ad0c", (63, 1, 4, 58)),
    ("steane", "surface-3"): ("1729b7d7a83fc641001d9549ffdf30e63a9449d7e45a6287065669f3604be26d", (91, 1, 0, 90)),
    ("repetition", "bacon_shor-2"): ("d5a6f6029cd28d4d5fc5589243f5850c2f0862425833f5ad362c3206a6d3d12d", (12, 1, 1, 10)),
    ("repetition", "bacon_shor-3"): ("a93854d28560ecb982807c8a289f21d209669dca2c0b47e65c821f8dc083bb78", (27, 1, 4, 22)),
    ("repetition", "surface-3"): ("dcaa712da5ecb9fb2c07ba2b91c76836fa15927d36af2756549d8c43fb5e2c13", (39, 1, 0, 38)),
    ("bacon_shor-2", "bacon_shor-2"): ("21831661af9fe8c2bfb2bb1d6f094ea9b3e2d32a6ecca53c8d750ba48b4f1776", (16, 1, 5, 10)),
    ("bacon_shor-2", "bacon_shor-3"): ("76e38e580a7446ff1beb62a1621e265734a670b8b28df10b3192396221c8517e", (36, 1, 13, 22)),
    ("bacon_shor-2", "surface-3"): ("d9edb25d25414ad5c87be64fbbde507cf607af4c145e3b6239478efb02dc6020", (52, 1, 13, 38)),
}

CONCAT_CODES = {
    "five_one_three": lambda: small_inner_codes("five_one_three").code,
    "steane": lambda: small_inner_codes("steane").code,
    "repetition": lambda: small_inner_codes("repetition", r=3).code,
    "bacon_shor-2": lambda: bacon_shor(2).code,
    "bacon_shor-3": lambda: bacon_shor(3).code,
    "surface-3": lambda: surface_code(3).code,
}


@pytest.mark.parametrize("inner,outer", sorted(CONCAT_DIGESTS))
def test_concat_output_bytes_pinned(inner, outer):
    cat = concatenate(CONCAT_CODES[inner](), CONCAT_CODES[outer]())
    p = parameters(cat)
    digest, expected = CONCAT_DIGESTS[inner, outer]
    assert hashlib.sha256(cat.dumps().encode()).hexdigest() == digest
    assert (p.n, p.k, p.g, p.s) == expected


# ── dilated embedding ──────────────────────────────────────────────────


def generous_ell_prime(inner, outer):
    """ell_prime read from a build whose ell_target clears it easily."""
    return build_concat_embedding(inner, outer, 100.0).params["ell_prime"]


def make_concat(ell_target_factor=4.0):
    inner = small_inner_codes("five_one_three")
    outer = bacon_shor(2)
    ell_target = ell_target_factor * generous_ell_prime(inner, outer)
    return inner, outer, ell_target, build_concat_embedding(inner, outer, ell_target)


def test_concat_embedding_validates_and_is_local():
    _, _, ell_target, ec = make_concat(4.0)
    assert validate_embedding(ec.embedding) == []
    measured = ec.params["max_interaction_length"]
    assert measured < ell_target
    # the proof's triangle bound: inter- plus intra-block reach is at most ell/2
    assert measured <= ell_target / 2.0
    assert measured <= ec.params["triangle_bound"]


def test_concat_embedding_boundary_case_rejected():
    inner = small_inner_codes("five_one_three")
    outer = bacon_shor(2)
    ell_prime = generous_ell_prime(inner, outer)
    with pytest.raises(ValueError):
        build_concat_embedding(inner, outer, 1.0)  # ell_target < ell_prime
    with pytest.raises(ValueError):
        build_concat_embedding(inner, outer, ell_prime)  # dilation 1: blocks overlap


@pytest.mark.parametrize("ell2", [-1.0, -math.sqrt(2.0), -1e-300])
def test_concat_embedding_rejects_a_negative_ell2(ell2):
    # -sqrt(2) in D = 2 made ell_prime 0 and the dilation a ZeroDivisionError
    inner = small_inner_codes("five_one_three")
    with pytest.raises(ValueError, match=r"^ell2 must be non-negative, got -"):
        build_concat_embedding(inner, bacon_shor(2), 100.0, ell2=ell2)


def test_concat_embedding_takes_ell2_zero():
    # zero is what an outer code with no interactions measures
    inner = small_inner_codes("five_one_three")
    outer = EmbeddedCode(SubsystemCode(2, []), Embedding(2, [(0.0, 0.0), (1.0, 0.0)]), "bare", {})
    given = build_concat_embedding(inner, outer, 100.0, ell2=0.0)
    measured = build_concat_embedding(inner, outer, 100.0)
    assert given.params == measured.params and given.params["ell2"] == 0.0


def test_concat_embedding_single_outer_qubit():
    inner = small_inner_codes("five_one_three")
    outer_code = SubsystemCode(1, [])
    outer = EmbeddedCode(outer_code, Embedding(2, [(0.0, 0.0)]), "single", {})
    ec = build_concat_embedding(inner, outer, 100.0, ell2=1.0)
    # one block: the inner lattice, recentered
    centered = inner.embedding.coordinates - inner.embedding.coordinates.mean(axis=0)
    assert np.allclose(ec.embedding.coordinates, centered)


def test_concat_embedding_block_centers():
    inner, outer, ell_target, ec = make_concat(4.0)
    dilation = ec.params["dilation"]
    assert dilation == ell_target / ec.params["ell_prime"]
    n1 = inner.code.n
    for b in range(outer.code.n):
        block = ec.embedding.coordinates[b * n1 : (b + 1) * n1]
        center = dilation * outer.embedding.coordinates[b]
        assert np.allclose(block.mean(axis=0), center)


# The dilated embedding as it was built through a plan object that measured
# the outer locality on every read, placed points one by one and took the
# inner diameter by a loop over pairs; build_concat_embedding must match it
# bit for bit.


@dataclass(frozen=True)
class ReferencePlan:
    inner: EmbeddedCode
    outer: EmbeddedCode
    ell_target: float
    ell2: float | None = None

    def outer_locality(self):
        if self.ell2 is not None:
            return self.ell2
        return extract_interactions(self.outer.code, self.outer.embedding).max_length()

    def ell_prime(self):
        return 2.0 * (math.sqrt(self.outer.embedding.dimension) + self.outer_locality())

    def dilation(self):
        return self.ell_target / self.ell_prime()


def reference_concat_embedding(plan):
    ell_prime = plan.ell_prime()
    assert plan.ell_target >= ell_prime
    dilation = plan.dilation()
    dim = plan.outer.embedding.dimension
    inner_coords = plan.inner.embedding.coordinates
    centered = inner_coords - inner_coords.mean(axis=0)
    code = concatenate(plan.inner.code, plan.outer.code)
    points = []
    for b in range(plan.outer.code.n):
        center = dilation * plan.outer.embedding.coordinates[b]
        for row in centered:
            points.append(tuple(center + row))
    embedding = Embedding(dim, points)
    inner_diameter = 0.0
    for i in range(len(centered)):
        for j in range(i + 1, len(centered)):
            inner_diameter = max(inner_diameter, float(np.linalg.norm(centered[i] - centered[j])))
    measured = extract_interactions(code, embedding).max_length()
    params = {
        "inner": plan.inner.family,
        "outer": plan.outer.family,
        "ell_target": plan.ell_target,
        "ell_prime": ell_prime,
        "dilation": dilation,
        "ell2": plan.outer_locality(),
        "inner_diameter": inner_diameter,
        "triangle_bound": dilation * plan.outer_locality() + inner_diameter,
        "max_interaction_length": measured,
    }
    return code, embedding, params


def scattered_inner(r, dim, seed):
    """The repetition(r) code on r seeded random points at least 1 apart."""
    coords = np.random.default_rng(seed).normal(size=(r, dim)) * 50.0
    code = small_inner_codes("repetition", r=r).code
    return EmbeddedCode(code, Embedding(dim, coords), "scattered", {})


CONCAT_CASES = {
    "five_one_three-in-bacon_shor-2": lambda: (
        small_inner_codes("five_one_three"),
        bacon_shor(2),
        20.0,
        None,
    ),
    "steane-in-repetition-3-D3": lambda: (
        small_inner_codes("steane", dim=3),
        small_inner_codes("repetition", r=3, dim=3),
        30.0,
        None,
    ),
    "one-outer-qubit": lambda: (
        small_inner_codes("five_one_three"),
        EmbeddedCode(SubsystemCode(1, []), Embedding(2, [(0.5, -2.0)]), "single", {}),
        7.0,
        None,
    ),
    "ell2-given": lambda: (small_inner_codes("five_one_three"), bacon_shor(2), 25.0, 1.5),
    # off-lattice inner points, whose diameter has no exact closed form
    "scattered-in-bacon_shor-2": lambda: (scattered_inner(40, 2, 5), bacon_shor(2), 1e4, None),
    "scattered-in-repetition-3-D3": lambda: (
        scattered_inner(30, 3, 6),
        small_inner_codes("repetition", r=3, dim=3),
        1e4,
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(CONCAT_CASES))
def test_concat_embedding_matches_the_plan_path(case, monkeypatch):
    inner, outer, ell_target, ell2 = CONCAT_CASES[case]()
    code, embedding, params = reference_concat_embedding(
        ReferencePlan(inner, outer, ell_target, ell2)
    )
    outer_reads = []

    def counted(c, e):
        outer_reads.append(c is outer.code)
        return extract_interactions(c, e)

    monkeypatch.setattr("qlocality.families.extract_interactions", counted)
    ec = build_concat_embedding(inner, outer, ell_target, ell2)
    assert ec.code.gauge_matrix.rows == code.gauge_matrix.rows
    assert ec.embedding.coordinates.tobytes() == embedding.coordinates.tobytes()
    assert ec.embedding.coordinates.shape == embedding.coordinates.shape
    assert json.dumps(ec.params) == json.dumps(params)
    assert params["inner_diameter"] > 0
    # the outer locality is measured once, and not at all when it is given
    assert outer_reads.count(True) == (ell2 is None)
    assert outer_reads.count(False) == 1


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
