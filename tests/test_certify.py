"""Proof engines: holographic certification, expansion sweep, partition builders."""

import dataclasses
import json
import math
import re
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocality import certify
from qlocality.bounds import holographic_box_width, proof_constants
from qlocality.certify import (
    OUTCOME_CERTIFIED,
    OUTCOME_CONTRADICTION,
    OUTCOME_STUCK,
    OUTCOME_VIOLATED,
    Certificate,
    expansion_sweep,
    holographic_certify,
    theorem_partition_builder,
)
from qlocality.codes import SubsystemCode, distance, parameters
from qlocality.families import bacon_shor, small_inner_codes, surface_code
from qlocality.geometry import (
    Box,
    Embedding,
    GridTiling,
    InteractionSet,
    count_long,
    extract_interactions,
    find_tiling,
    subdivide,
    verify_tiling,
)
from qlocality.regions import is_correctable
from tests.test_codes import random_codes

BS3 = bacon_shor(3)
FIVE = small_inner_codes("five_one_three")


def fully_gauged_code(n):
    """k = 0: every single-qubit X and Z is a gauge generator."""
    return SubsystemCode(n, [1 << i for i in range(2 * n)])


def line_embedding(n, spacing=1.0):
    return Embedding(2, [(spacing * i, 0.0) for i in range(n)])


# ── holographic certification ──────────────────────────────────────────


def test_holographic_small_box_certified_at_base():
    # a qubit-free box below the base-case width certifies immediately
    box = Box((-0.4, -0.4), (-0.1, -0.1))
    cert = holographic_certify(BS3.code, BS3.embedding, box, ell=0.1)
    assert cert.outcome == OUTCOME_CERTIFIED
    assert [step.rule for step in cert.steps] == ["base-cube"]


def test_holographic_strict_precondition_violated():
    # d = 3: ell must be at most 3^(1/2)/(8*sqrt(2)) ~ 0.153
    cert = holographic_certify(BS3.code, BS3.embedding, Box((0.0, 0.0), (1.0, 1.0)), ell=1.0)
    assert cert.outcome == OUTCOME_VIOLATED
    assert "exceeds" in cert.reason
    expected_cap = math.sqrt(3.0) / (8.0 * math.sqrt(2.0))
    assert cert.metadata["ell_cap"] == pytest.approx(expected_cap)


def test_holographic_verified_two_qubit_box():
    cert = holographic_certify(
        BS3.code, BS3.embedding, Box((0.0, 0.0), (1.0, 0.0)), ell=1.0, mode="verified"
    )
    assert cert.outcome == OUTCOME_CERTIFIED
    assert all(step.verdict for step in cert.steps)


def test_holographic_verified_stuck_on_logical_line():
    # growing cubes around the center engulf a full grid line eventually
    cert = holographic_certify(
        BS3.code, BS3.embedding, Box((0.0, 0.0), (2.0, 2.0)), ell=0.5, mode="verified"
    )
    assert cert.outcome == OUTCOME_STUCK
    assert not cert.steps[cert.stuck_step].verdict


def test_holographic_verified_stops_at_first_failure():
    cert = holographic_certify(
        BS3.code, BS3.embedding, Box((0.0, 0.0), (1.0, 1.0)), ell=0.6, mode="verified"
    )
    if cert.stuck_step is None:
        assert all(step.verdict for step in cert.steps)
    else:
        assert all(step.verdict for step in cert.steps[:-1])
        assert not cert.steps[-1].verdict
        assert cert.steps[-1].index == cert.stuck_step


def test_holographic_strict_mode_growth_counts_below_d():
    # strict growth needs w0 > base width, which takes a large d; the
    # certifier replays the counting for whatever d the caller supplies
    emb = Embedding(2, [(30.0 * i, 0.0) for i in range(5)])
    d = 5000
    box = Box((40.0, -20.0), (80.0, 20.0))
    cert = holographic_certify(FIVE.code, emb, box, ell=1.0, d=d)
    assert cert.outcome == OUTCOME_CERTIFIED
    grow_steps = [s for s in cert.steps if s.rule == "grow-cube"]
    assert grow_steps
    for step in grow_steps:
        assert step.boundary_count < d


# ell = d^(1/D) / (8 sqrt(D)) exactly: 18^(1/2) / (8 sqrt(2)) = 3/8, which
# the float quotient puts just below 0.375
HOLOGRAPHIC_CAP_EDGE = (bacon_shor(6), Box((-0.4, -0.4), (-0.1, -0.1)), 0.375, 18)


@pytest.mark.parametrize("above", [False, True], ids=["at-cap", "just-above"])
def test_holographic_ell_cap_is_decided_exactly(above):
    ec, box, ell, d = HOLOGRAPHIC_CAP_EDGE
    if above:
        ell = math.nextafter(ell, 1.0)
    cert = holographic_certify(ec.code, ec.embedding, box, ell=ell, d=d)
    assert cert.metadata["ell_cap"] == 18 ** 0.5 / (8.0 * math.sqrt(2))
    if above:
        assert cert.outcome == OUTCOME_VIOLATED
        assert cert.reason == "ell = 0.375 exceeds d^(1/D)/(8*sqrt(D)) = 0.375"
    else:
        assert cert.outcome == OUTCOME_CERTIFIED


@pytest.mark.parametrize("engine", ["holographic", "partition"])
def test_engines_check_the_embedding_size_before_any_search(monkeypatch, engine):
    def no_search(code, *args, **kwargs):
        raise AssertionError("the distance search ran")

    monkeypatch.setattr(certify, "distance", no_search)
    short = Embedding(2, BS3.embedding.coordinates[:-1])
    with pytest.raises(ValueError, match=r"^embedding has 8 points, code has 9 qubits$"):
        if engine == "holographic":
            holographic_certify(BS3.code, short, Box((0.0, 0.0), (1.0, 1.0)), ell=0.1)
        else:
            theorem_partition_builder(BS3.code, short, 1.5, "thm3_2")


NAN = math.nan
BS3_INTS = extract_interactions(BS3.code, BS3.embedding)
HEAVY_BOX = Box((0.0, 0.0), (20.0, 4.0))
HEAVY_MASSES = [((10.0, 1.0), 5)]

# entry point -> (call with one NaN parameter, message of the x <= 0 check):
# each used to let NaN through, to hang, to return a result or to fail later
NAN_PARAMETERS = {
    "subdivide-ell": (lambda: subdivide(HEAVY_BOX, HEAVY_MASSES, NAN, 3.0), "ell must be positive"),
    "subdivide-d1": (lambda: subdivide(HEAVY_BOX, HEAVY_MASSES, 1.0, NAN), "d1 must be positive"),
    "sweep-ell": (lambda: expansion_sweep(BS3.embedding, BS3_INTS, NAN, 3, 3), "ell must be"),
    "sweep-tau": (lambda: expansion_sweep(BS3.embedding, BS3_INTS, 1.0, NAN, 3), "tau must be"),
    "sweep-d": (lambda: expansion_sweep(BS3.embedding, BS3_INTS, 1.0, 3, NAN), "d must be"),
    "tiling-ell": (lambda: find_tiling([], [], 4.0, NAN, 2, 0), "ell must be positive"),
    "tiling-w": (lambda: find_tiling([], [], NAN, 1.0, 2, 0), "violates the precondition"),
    "verify-ell": (lambda: verify_tiling(GridTiling(8.0, (0.0, 0.0)), [], [], NAN), "ell must be positive"),
    "verify-w": (lambda: verify_tiling(GridTiling(NAN, (0.0, 0.0)), [], [], 1.0), "w must be positive"),
    "count_long": (lambda: count_long(BS3_INTS, NAN), "ell must be positive"),
    "holographic-ell": (
        lambda: holographic_certify(BS3.code, BS3.embedding, Box((0.0, 0.0), (2.0, 2.0)), NAN, d=3),
        "ell must be positive",
    ),
    "partition-ell": (
        lambda: theorem_partition_builder(BS3.code, BS3.embedding, NAN, "thm3_2"),
        "ell must be positive",
    ),
    "box-width-d": (lambda: holographic_box_width(NAN, 1.0, 2), "d and ell must be positive"),
    "box-width-ell": (lambda: holographic_box_width(3.0, NAN, 2), "d and ell must be positive"),
    "proof-constants-alpha": (lambda: proof_constants(3.0, 0.1, 2, alpha=NAN), "alpha must be"),
}


@pytest.mark.parametrize("entry", sorted(NAN_PARAMETERS))
def test_library_rejects_nan_parameters(entry):
    call, message = NAN_PARAMETERS[entry]
    with pytest.raises(ValueError, match=message):
        call()


INF = math.inf

# entry point -> (call with one infinite parameter, message of the check
# that also stops NaN): each used to let the infinity through
INF_PARAMETERS = {
    "subdivide-ell": (lambda: subdivide(HEAVY_BOX, HEAVY_MASSES, INF, 3.0), "^ell must be finite$"),
    "subdivide-d1": (lambda: subdivide(HEAVY_BOX, HEAVY_MASSES, 1.0, INF), "^d1 must be finite$"),
    "subdivide-box": (
        lambda: subdivide(Box((0.0, 0.0), (INF, 1.0)), HEAVY_MASSES, 1.0, 3.0),
        r"^box corners \[0.0, 0.0\], \[inf, 1.0\] must be finite$",
    ),
    "sweep-ell": (lambda: expansion_sweep(BS3.embedding, BS3_INTS, INF, 3, 3), "^ell must be finite$"),
    "sweep-tau": (lambda: expansion_sweep(BS3.embedding, BS3_INTS, 1.0, INF, 3), "^tau must be finite$"),
    "sweep-d": (lambda: expansion_sweep(BS3.embedding, BS3_INTS, 1.0, 3, INF), "^d must be finite$"),
    "tiling-ell": (lambda: find_tiling([], [], 4.0, INF, 2, 0), "^ell must be finite$"),
    "tiling-w": (lambda: find_tiling([], [], INF, 1.0, 2, 0), "^w must be finite$"),
    "verify-ell": (lambda: verify_tiling(GridTiling(8.0, (0.0, 0.0)), [], [], INF), "^ell must be finite$"),
    "verify-w": (lambda: verify_tiling(GridTiling(INF, (0.0, 0.0)), [], [], 1.0), "^w must be finite$"),
    "count_long": (lambda: count_long(BS3_INTS, INF), "^ell must be finite$"),
    "holographic-ell": (
        lambda: holographic_certify(BS3.code, BS3.embedding, Box((0.0, 0.0), (2.0, 2.0)), INF, d=3),
        "^ell must be finite$",
    ),
    "partition-ell": (
        lambda: theorem_partition_builder(BS3.code, BS3.embedding, INF, "thm3_2"),
        "^ell must be finite$",
    ),
    "box-width-d": (lambda: holographic_box_width(INF, 1.0, 2), "^d and ell must be positive and finite$"),
    "box-width-ell": (lambda: holographic_box_width(3.0, INF, 2), "^d and ell must be positive and finite$"),
    "proof-constants-alpha": (lambda: proof_constants(3.0, 0.1, 2, alpha=INF), "^alpha must be >= 1 and finite$"),
}


@pytest.mark.parametrize("entry", sorted(INF_PARAMETERS))
def test_library_rejects_infinite_parameters(entry):
    call, message = INF_PARAMETERS[entry]
    with pytest.raises(ValueError, match=message):
        call()


# ── expansion sweep ────────────────────────────────────────────────────


def empty_interactions(n):
    return InteractionSet(n, np.empty((0, 2), dtype=np.intp), np.empty(0))


def test_sweep_no_qubits_certified():
    emb = Embedding(2, [])
    cert = expansion_sweep(emb, empty_interactions(0), ell=1.0, tau=2.0, d=3, mode="strict")
    assert cert.outcome == OUTCOME_CERTIFIED


def test_sweep_k_zero_code_verified():
    code = fully_gauged_code(4)
    emb = line_embedding(4)
    ints = extract_interactions(code, emb)
    cert = expansion_sweep(emb, ints, ell=1.0, tau=4.0, d=3, mode="verified", code=code)
    assert cert.outcome == OUTCOME_CERTIFIED  # k = 0: no contradiction
    for step in cert.steps:
        if "exact_correctable" in step.details:
            assert step.details["exact_correctable"]


def test_sweep_bacon_shor_stuck_at_first_expansion():
    # tau = n lets legality pass everywhere; the first expansion's boundary
    # slab already holds a full 3-qubit column, so |F| = 3 >= d = 3
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(BS3.embedding, ints, ell=2.0, tau=9.0, d=3, mode="strict")
    assert cert.outcome == OUTCOME_STUCK
    assert cert.stuck_step == 1
    first = cert.steps[0]
    assert first.rule == "expand-dimension-1"
    assert first.boundary_count == 3


def test_sweep_full_certification_reports_contradiction():
    # a permissive d lets the strict counting run to completion; with k = 1
    # the outcome must be the proof's contradiction, never plain success
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(
        BS3.embedding, ints, ell=2.0, tau=6.0, d=100, mode="strict", code=BS3.code
    )
    assert cert.outcome == OUTCOME_CONTRADICTION
    rules = {step.rule for step in cert.steps}
    # the run exercises all four step rules
    assert "expand-dimension-1" in rules
    assert "start-next-dimension" in rules
    assert "expand-last-dimension" in rules
    assert "finish-dimension" in rules


# label -> (embedded code, ell, tau, d) of a strict sweep that sticks
STUCK_SWEEPS = {
    "steane": (lambda: small_inner_codes("steane"), 1.0, 3.0, 2),
    "bacon_shor-3": (lambda: bacon_shor(3), 2.0, 9.0, 3),
}


@pytest.mark.parametrize("label", sorted(STUCK_SWEEPS))
def test_strict_sweep_that_sticks_never_builds_the_solver(label):
    # k is read only for the contradiction, which a stuck sweep never reaches
    build, ell, tau, d = STUCK_SWEEPS[label]
    ec = build()
    cert = expansion_sweep(ec.embedding, extract_interactions(ec.code, ec.embedding), ell, tau, d, code=ec.code)
    assert cert.outcome == OUTCOME_STUCK
    assert "solver" not in vars(ec.code)


def test_strict_sweep_reads_k_for_its_contradiction():
    ec = bacon_shor(3)
    cert = expansion_sweep(ec.embedding, extract_interactions(ec.code, ec.embedding), 2.0, 6.0, 100, code=ec.code)
    assert cert.outcome == OUTCOME_CONTRADICTION
    assert cert.reason == "full qubit set certified correctable while k = 1 >= 1"


def test_sweep_without_code_reports_certified():
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(BS3.embedding, ints, ell=2.0, tau=6.0, d=100, mode="strict")
    assert cert.outcome == OUTCOME_CERTIFIED


def test_sweep_verified_accepted_regions_are_correctable():
    code = FIVE.code
    emb = line_embedding(5)
    ints = extract_interactions(code, emb)
    cert = expansion_sweep(emb, ints, ell=1.0, tau=5.0, d=2, mode="verified", code=code)
    # re-verify every accepted expansion from the recorded step log
    for step in cert.steps:
        if "exact_correctable" in step.details and step.verdict:
            assert step.details["exact_correctable"]


def test_sweep_long_interactions_populate_bad_set():
    code = SubsystemCode.from_strings(["XIX", "IZZ"])
    emb = Embedding(2, [(0.0, 0.0), (4.0, 0.0), (5.0, 0.0)])
    ints = extract_interactions(code, emb)
    # pair (0,2) has length 5 >= 2; pair (1,2) has length 1 < 2
    cert = expansion_sweep(emb, ints, ell=2.0, tau=3.0, d=50, mode="strict")
    assert cert.metadata["bad_qubits"] == [0, 2]


def test_sweep_three_dimensional_grid_exercises_deep_recursion():
    # a 3x3x3 block of 27 free qubits: every interior slab is bad at tau = 9,
    # so the sweep must open dimensions 2 and 3 and later finish them
    code = SubsystemCode(27, [])
    points = [
        (float(x), float(y), float(z))
        for x in range(3)
        for y in range(3)
        for z in range(3)
    ]
    emb = Embedding(3, points)
    ints = empty_interactions(27)
    cert = expansion_sweep(emb, ints, ell=1.0, tau=9.0, d=100, mode="strict", code=code)
    assert cert.outcome == OUTCOME_CONTRADICTION  # k = 27 >= 1
    rules = {step.rule for step in cert.steps}
    assert "start-next-dimension" in rules
    assert "expand-last-dimension" in rules
    assert "expand-dimension-2" in rules
    assert "finish-dimension" in rules
    for step in cert.steps:
        if step.boundary_count is not None:
            assert step.boundary_count < 100


def test_sweep_strict_accepted_counts_below_d():
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(BS3.embedding, ints, ell=2.0, tau=6.0, d=7, mode="strict")
    for step in cert.steps:
        if step.verdict and step.boundary_count is not None:
            assert step.boundary_count < 7


def test_sweep_dense_minimum_plane_reports_violation():
    # ten qubits share the minimal coordinate slab; tau = 2 makes 0 1-bad
    emb = Embedding(2, [(0.0, float(i)) for i in range(10)])
    cert = expansion_sweep(emb, empty_interactions(10), ell=1.0, tau=2.0, d=50)
    assert cert.outcome == OUTCOME_VIOLATED
    assert "1-bad" in cert.reason


def test_sweep_rejects_bad_parameters():
    emb = line_embedding(3)
    with pytest.raises(ValueError):
        expansion_sweep(emb, empty_interactions(3), ell=0.0, tau=1.0, d=2)
    with pytest.raises(ValueError):
        expansion_sweep(emb, empty_interactions(3), ell=1.0, tau=0.0, d=2)
    for d in (0, -1):
        with pytest.raises(ValueError, match="d must be positive"):
            expansion_sweep(emb, empty_interactions(3), ell=1.0, tau=1.0, d=d)
    with pytest.raises(ValueError):
        expansion_sweep(emb, empty_interactions(3), ell=1.0, tau=1.0, d=2, mode="verified")


def no_parameters(code):
    raise AssertionError("the code's parameters were computed")


# case -> (embedded code whose interaction set is passed, code, mode, the
# mismatched size), each run on BS-3's 9-point embedding; the code is
# checked before its k is computed
SWEEP_SIZE_MISMATCHES = {
    "larger-set-strict": (lambda: bacon_shor(4), None, "strict", 16),
    "smaller-set-strict": (lambda: bacon_shor(2), None, "strict", 4),
    "larger-set-verified": (lambda: bacon_shor(4), BS3.code, "verified", 16),
    "smaller-set-verified": (lambda: bacon_shor(2), BS3.code, "verified", 4),
    "larger-code-strict": (lambda: BS3, bacon_shor(4).code, "strict", 16),
}


@pytest.mark.parametrize("case", sorted(SWEEP_SIZE_MISMATCHES))
def test_sweep_checks_both_input_sizes(monkeypatch, case):
    source, code, mode, size = SWEEP_SIZE_MISMATCHES[case]
    ec = source()
    ints = extract_interactions(ec.code, ec.embedding)
    monkeypatch.setattr(certify, "parameters", no_parameters)
    with pytest.raises(ValueError, match=rf"^embedding has 9 points, code has {size} qubits$"):
        expansion_sweep(BS3.embedding, ints, ell=1.0, tau=9.0, d=3, mode=mode, code=code)


# ── certificates ───────────────────────────────────────────────────────


def test_certificate_json_lines_round_trip():
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(BS3.embedding, ints, ell=2.0, tau=9.0, d=3, mode="strict")
    text = cert.to_json_lines()
    again = Certificate.from_json_lines(text)
    assert again.outcome == cert.outcome
    assert again.steps == cert.steps
    assert again.to_json_lines() == text


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["header", "step"])
def test_certificate_json_lines_reject_a_non_finite_field(value, where):
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(BS3.embedding, ints, ell=2.0, tau=9.0, d=3, mode="strict")
    if where == "header":
        cert.metadata["w0"] = value
    else:
        cert.steps[0].threshold = value
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        cert.to_json_lines()


def dense_column_embedding(n):
    """n qubits stacked on x = 0: tau = 2 makes coordinate 0 1-bad."""
    return Embedding(2, [(0.0, float(i)) for i in range(n)])


def verified_sweep(code, emb, ell, tau, d):
    return expansion_sweep(emb, extract_interactions(code, emb), ell, tau, d, "verified", code)


def whole_box(emb):
    return Box(tuple(emb.coordinates.min(axis=0).tolist()), tuple(emb.coordinates.max(axis=0).tolist()))


@pytest.mark.parametrize(
    "build",
    [lambda: bacon_shor(3), lambda: small_inner_codes("repetition", 5)],
    ids=["bacon_shor-3", "repetition-5"],
)
@pytest.mark.parametrize(
    "engine",
    [
        lambda ec: verified_sweep(ec.code, ec.embedding, 1.0, 3.0, 3),
        lambda ec: holographic_certify(ec.code, ec.embedding, whole_box(ec.embedding), 0.5, mode="verified"),
    ],
    ids=["sweep", "holographic"],
)
def test_verified_engines_on_two_body_codes_build_no_general_layer(build, engine):
    ec = build()
    # k >= 1, so the exact oracle stops both engines at some region
    assert engine(ec).outcome == OUTCOME_STUCK
    assert not {"_center", "correctable_columns"} & set(vars(ec.code))


# (engine, mode, outcome) -> a run with that outcome; a verified run never
# reaches a contradiction (the full qubit set holds a logical when k >= 1)
# and a verified holographic run never reports a violated hypothesis
CERTIFICATE_RUNS = {
    ("holographic", "strict", OUTCOME_CERTIFIED): lambda: holographic_certify(
        BS3.code, BS3.embedding, Box((-0.4, -0.4), (-0.1, -0.1)), ell=0.1
    ),
    ("holographic", "strict", OUTCOME_STUCK): lambda: holographic_certify(
        BS3.code, BS3.embedding, Box((-0.6, -0.6), (-0.06, -0.06)), ell=0.05
    ),
    ("holographic", "strict", OUTCOME_VIOLATED): lambda: holographic_certify(
        BS3.code, BS3.embedding, Box((0.0, 0.0), (1.0, 1.0)), ell=1.0
    ),
    ("holographic", "verified", OUTCOME_CERTIFIED): lambda: holographic_certify(
        BS3.code, BS3.embedding, Box((0.0, 0.0), (1.0, 0.0)), ell=1.0, mode="verified"
    ),
    ("holographic", "verified", OUTCOME_STUCK): lambda: holographic_certify(
        BS3.code, BS3.embedding, Box((0.0, 0.0), (2.0, 2.0)), ell=0.5, mode="verified"
    ),
    ("sweep", "strict", OUTCOME_CERTIFIED): lambda: expansion_sweep(
        BS3.embedding, BS3_INTS, ell=2.0, tau=6.0, d=100
    ),
    ("sweep", "strict", OUTCOME_CONTRADICTION): lambda: expansion_sweep(
        BS3.embedding, BS3_INTS, ell=2.0, tau=6.0, d=100, code=BS3.code
    ),
    ("sweep", "strict", OUTCOME_STUCK): lambda: expansion_sweep(
        BS3.embedding, BS3_INTS, ell=2.0, tau=9.0, d=3
    ),
    ("sweep", "strict", OUTCOME_VIOLATED): lambda: expansion_sweep(
        dense_column_embedding(10), empty_interactions(10), ell=1.0, tau=2.0, d=50
    ),
    ("sweep", "verified", OUTCOME_CERTIFIED): lambda: verified_sweep(
        fully_gauged_code(4), line_embedding(4), ell=1.0, tau=4.0, d=3
    ),
    ("sweep", "verified", OUTCOME_STUCK): lambda: verified_sweep(
        FIVE.code, line_embedding(5), ell=1.0, tau=5.0, d=2
    ),
    ("sweep", "verified", OUTCOME_VIOLATED): lambda: verified_sweep(
        SubsystemCode(10, []), dense_column_embedding(10), ell=1.0, tau=2.0, d=50
    ),
}


@pytest.mark.parametrize("run", sorted(CERTIFICATE_RUNS), ids="-".join)
def test_certificates_round_trip(run):
    cert = CERTIFICATE_RUNS[run]()
    assert (cert.kind, cert.mode, cert.outcome) == run
    text = cert.to_json_lines()
    again = Certificate.from_json_lines(text)
    assert again == cert
    assert again.to_json_lines() == text


@pytest.mark.parametrize("line", [0, 1], ids=["header", "step"])
def test_certificate_lines_with_unknown_keys_are_rejected(line):
    cert = expansion_sweep(BS3.embedding, BS3_INTS, ell=2.0, tau=9.0, d=3)
    lines = cert.to_json_lines().splitlines()
    obj = json.loads(lines[line])
    (obj["header"] if line == 0 else obj)["extra"] = 1
    lines[line] = json.dumps(obj)
    with pytest.raises(ValueError, match=rf"^certificate line {line + 1}: .*'extra'"):
        Certificate.from_json_lines("\n".join(lines))


def malformed_certificate(fault):
    """A stuck sweep's JSON lines, with one fault put in."""
    cert = expansion_sweep(BS3.embedding, BS3_INTS, ell=2.0, tau=9.0, d=3)
    lines = cert.to_json_lines().splitlines()
    if fault == "non-json":
        lines[1] = lines[1][:-1]
    elif fault == "no-header":
        lines[0] = json.dumps(json.loads(lines[0])["header"])
    elif fault == "missing-header-field":
        obj = json.loads(lines[0])
        del obj["header"]["outcome"]
        lines[0] = json.dumps(obj)
    elif fault == "missing-step-field":
        obj = json.loads(lines[1])
        del obj["verdict"]
        lines[1] = json.dumps(obj)
    elif fault == "not-an-object":
        lines[1] = "[1, 2]"
    elif fault == "empty":
        return "\n  \n"
    return "\n".join(["", *lines])  # a leading blank line still counts


# fault -> its message; a fault's line number counts the leading blank line
CERTIFICATE_FAULTS = {
    "non-json": r"^certificate line 3: Expecting",
    "no-header": r"^certificate line 2: no 'header' key$",
    "missing-header-field": r"^certificate line 2: .*missing 1 required positional argument: 'outcome'$",
    "missing-step-field": r"^certificate line 3: .*missing 1 required positional argument: 'verdict'$",
    "not-an-object": r"^certificate line 3: .*argument after \*\* must be a mapping",
    "empty": r"^empty certificate$",
}


@pytest.mark.parametrize("fault", CERTIFICATE_FAULTS)
def test_malformed_certificate_raises_value_error_naming_the_line(fault):
    with pytest.raises(ValueError, match=CERTIFICATE_FAULTS[fault]):
        Certificate.from_json_lines(malformed_certificate(fault))


def test_certificate_trace_readable():
    ints = extract_interactions(BS3.code, BS3.embedding)
    cert = expansion_sweep(BS3.embedding, ints, ell=2.0, tau=9.0, d=3, mode="strict")
    trace = cert.trace()
    assert "stuck-at" in trace
    assert "FAIL" in trace


# ── theorem partition builders ─────────────────────────────────────────


def test_partition_bacon_shor_no_long_interactions():
    parts, cert = theorem_partition_builder(BS3.code, BS3.embedding, 1.5, "thm3_2")
    assert cert.outcome == OUTCOME_CERTIFIED
    assert cert.metadata["long_interactions"] == 0
    assert cert.metadata["bad_cubes"] == 0
    a, b = parts
    assert sorted(a + b) == list(range(9))
    assert cert.metadata["ab_check"]["holds"]


def test_partition_five_qubit_all_variants():
    for variant in ("thm3_2", "thm5_1_case1", "thm5_1_case2"):
        parts, cert = theorem_partition_builder(
            FIVE.code, FIVE.embedding, 1.2, variant
        )
        assert cert.outcome == OUTCOME_CERTIFIED
        covered = frozenset().union(*parts)
        assert covered == frozenset(range(5))
        assert sum(len(p) for p in parts) == 5


# variant -> the bound check its partition is fed to, and the bound's name
PARTITION_BOUNDS = {"thm3_2": ("ab_bound_check", "AB"), "thm5_1_case1": ("abc_bound_check", "ABC")}


@pytest.mark.parametrize("variant", sorted(PARTITION_BOUNDS))
def test_a_failed_partition_bound_raises_as_an_invariant(monkeypatch, variant):
    # the bound is a theorem, so only a forced report can fail it
    check, name = PARTITION_BOUNDS[variant]
    real = getattr(certify, check)
    monkeypatch.setattr(certify, check, lambda code, *parts: dataclasses.replace(real(code, *parts), holds=False))
    with pytest.raises(AssertionError) as failure:
        theorem_partition_builder(FIVE.code, FIVE.embedding, 1.2, variant)
    assert str(failure.value) == f"{name} bound violated on the built partition"


def test_partition_case2_no_bad_boxes_without_long_interactions():
    # d >= k and no long interactions: zero bad boxes, per the 1/10 count
    _, cert = theorem_partition_builder(FIVE.code, FIVE.embedding, 10.0, "thm5_1_case2")
    assert cert.metadata["bad_boxes"] == 0
    ledger = {entry["name"]: entry for entry in cert.metadata["ledger"]}
    assert ledger["bad boxes (case 2 expects 0) <= 1/10"]["holds"]


def test_partition_with_long_interactions_case1():
    # stretch one qubit far away so its interactions exceed ell
    emb = Embedding(2, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (9.0, 1.0)])
    parts, cert = theorem_partition_builder(FIVE.code, emb, 2.0, "thm5_1_case1")
    assert cert.metadata["long_interactions"] > 0
    assert cert.outcome == OUTCOME_CERTIFIED
    assert cert.metadata["abc_check"]["holds"]
    # bad qubits always land in C in case 1
    _, f = count_long(extract_interactions(FIVE.code, emb), 2.0)
    bad = {q for q, v in f.items() if v}
    assert bad and bad <= set(parts[2])


def test_partition_nonabelian_rejected_for_abc_variants():
    with pytest.raises(ValueError):
        theorem_partition_builder(BS3.code, BS3.embedding, 1.5, "thm5_1_case1")


def test_partition_rejects_an_ell_that_overflows_w0_before_tiling(monkeypatch):
    # w0 = (vol / (2 4^3 2) * d / ell)^1 is inf at ell = 5e-324 in D = 2
    def no_tiling(*args, **kwargs):
        raise AssertionError("find_tiling ran")

    monkeypatch.setattr(certify, "find_tiling", no_tiling)
    assert holographic_box_width(3.0, 5e-324, 2) == math.inf
    message = "ell = 5e-324 is too small: the box width w0 ~ (d/ell)^(1/(D-1)) overflows a float"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        theorem_partition_builder(BS3.code, BS3.embedding, 5e-324, "thm3_2")
    # in D = 3 the same ell leaves w0 finite, through logs
    assert holographic_box_width(3.0, 5e-324, 3) < math.inf


def test_partition_unknown_variant():
    with pytest.raises(ValueError):
        theorem_partition_builder(BS3.code, BS3.embedding, 1.5, "nope")


def test_partition_deterministic_per_seed():
    p1, c1 = theorem_partition_builder(FIVE.code, FIVE.embedding, 1.2, "thm3_2", seed=5)
    p2, c2 = theorem_partition_builder(FIVE.code, FIVE.embedding, 1.2, "thm3_2", seed=5)
    assert p1 == p2
    assert c1.metadata["tiling"] == c2.metadata["tiling"]


@st.composite
def embedded_codes_with_logicals(draw):
    """A random code with k >= 1 on n <= 8 qubits, placed at random points."""
    code = draw(random_codes().filter(lambda c: c.n and parameters(c).k >= 1))
    dim = draw(st.integers(2, 3))  # the proof constants need D >= 2
    point = st.lists(st.floats(-12.0, 12.0), min_size=dim, max_size=dim)
    coords = draw(st.lists(point, min_size=code.n, max_size=code.n))
    return code, Embedding(dim, coords)


@settings(max_examples=100, deadline=None)
@given(
    embedded_codes_with_logicals(),
    st.sampled_from([0.05, 0.5, 1.5, 4.0]),
    st.integers(0, 2**32 - 1),
)
def test_partition_parts_are_sorted_disjoint_and_cover_every_qubit(case, ell, seed):
    code, emb = case
    for variant in ("thm3_2", "thm5_1_case1", "thm5_1_case2"):
        built = []
        for verify in (True, False):
            if variant != "thm3_2" and not code.has_abelian_gauge():
                with pytest.raises(ValueError, match="abelian"):
                    theorem_partition_builder(code, emb, ell, variant, seed, verify)
                continue
            parts, _ = theorem_partition_builder(code, emb, ell, variant, seed, verify)
            assert len(parts) == (2 if variant == "thm3_2" else 3)
            for part in parts:
                assert part == sorted(set(part))
            assert sorted(q for part in parts for q in part) == list(range(code.n))
            built.append(parts)
        assert all(parts == built[0] for parts in built)


# ── pinned outcomes of the engines' exit paths ─────────────────────────
#
# Each value was computed before the engines' step logic was folded into
# one loop per engine; the certificates must not move by a byte.


def dense_grid_code(side, spacing):
    """Generator-free qubits on a (side x side) grid of the given spacing;
    below spacing 1 it packs more qubits than a valid embedding may."""
    points = [(spacing * i, spacing * j) for i in range(side) for j in range(side)]
    return SubsystemCode(len(points), []), Embedding(2, points)


# label -> (code, embedding, box, ell, mode, d, outcome, stuck step, reason,
# SHA-256 of to_json_lines())
HOLOGRAPHIC_STUCK = {
    # an empty box at the base width: d = 3 is below its packing bound
    "strict-base": (
        BS3.code, BS3.embedding, Box((-0.6, -0.6), (-0.06, -0.06)), 0.05, "strict", None,
        OUTCOME_STUCK, 0, "base cube not certified",
        "36218f470ebae027843501b9291751015653bc97c9459117437211c5bc465b9b",
    ),
    # d = 100 makes the whole grid the base cube, and it holds a logical
    "verified-base": (
        BS3.code, BS3.embedding, Box((0.0, 0.0), (2.0, 2.0)), 0.5, "verified", 100,
        OUTCOME_STUCK, 0, "base cube not certified",
        "7326f87701d41ed3cef49a07a023ce0ff450aa3d311ad416eb0db89484410fa5",
    ),
    # the second growth step engulfs a logical line
    "verified-grow": (
        BS3.code, BS3.embedding, Box((0.0, 0.0), (2.0, 2.0)), 0.5, "verified", None,
        OUTCOME_STUCK, 2, "grown cube region not correctable",
        "94237ee250084c5ddf73697cfc275bce2d155bbe95391dfa5e39ccd846c1d77e",
    ),
    # qubits 0.1 apart overfill the first growth step's slabs
    "strict-grow": (
        *dense_grid_code(41, 0.1), Box((0.0, 0.0), (4.0, 4.0)), 0.25, "strict", 100,
        OUTCOME_STUCK, 1, "boundary count 912 >= d = 100",
        "2ef007d49799753a331a0313e2cf4a1feda74ab57ee43fe6c7fea08771590ef5",
    ),
}


@pytest.mark.parametrize("label", sorted(HOLOGRAPHIC_STUCK))
def test_holographic_stuck_runs_match_pins(label):
    code, emb, box, ell, mode, d, outcome, stuck, reason, digest = HOLOGRAPHIC_STUCK[label]
    cert = holographic_certify(code, emb, box, ell, mode=mode, d=d)
    assert (cert.outcome, cert.stuck_step, cert.reason) == (outcome, stuck, reason)
    assert len(cert.steps) == stuck + 1
    assert sha256(cert.to_json_lines().encode()).hexdigest() == digest


def test_sweep_coordinate_zero_two_bad_matches_pin():
    # the sweep passes x = 0 and meets the dense slab at x = 2, but six of
    # the seven qubits share the minimal y: the next dimension cannot open
    emb = Embedding(3, [(0.0, 0.0, 0.0)] + [(2.0, 0.0, float(z)) for z in range(6)])
    cert = expansion_sweep(emb, empty_interactions(7), ell=1.0, tau=2.0, d=100)
    assert cert.outcome == OUTCOME_VIOLATED
    assert cert.stuck_step is None
    assert cert.reason == (
        "coordinate 0 is 2-bad: more than tau qubits sit within ell of the minimum"
    )
    assert [step.rule for step in cert.steps] == ["expand-dimension-1"]
    digest = sha256(cert.to_json_lines().encode()).hexdigest()
    assert digest == "ebd09f8b19ffb4523e950e428023a1e180501eab934c3405482c0922d3a7c7be"


def test_sweep_nxt_gap_violation_matches_pin(monkeypatch):
    # counting bounds every bad interval by the packed-slab cap, so the
    # census is replaced by one interval far longer than it; the cap is a
    # bound the proof guarantees, so its failure is an invariant, not an outcome
    monkeypatch.setattr(certify, "_bad_intervals", lambda values, ell, tau: [(5.0, 1000.0)])
    emb = line_embedding(10)
    with pytest.raises(AssertionError) as failure:
        expansion_sweep(emb, empty_interactions(10), ell=1.0, tau=2.0, d=100)
    assert str(failure.value) == "nxt gap 996.5 exceeds packed-slab bound 16"


def stretched_surface_code():
    """Surface-3 with its upper rows stretched 1.5 times along x."""
    ec = surface_code(3)
    coords = ec.embedding.coordinates.copy()
    coords[:, 0] *= 1.0 + 0.5 * (coords[:, 1] > coords[:, 1].mean())
    return ec.code, Embedding(2, coords)


# (ell, variant) -> SHA-256 of the partition, metadata and outcome.  At ell
# 0.05 every pair is long and the width-0.74 bad cubes are subdivided; at
# ell 1.5 some pairs are long and w = 4 ell keeps each bad cube whole.
PARTITION_PINNED = {
    (0.05, "thm3_2"): "b9edaf5ae381e528f1e7f0d086cb478fa5cbb10cb5c6ec23dcbfa181f094f09a",
    (0.05, "thm5_1_case1"): "62e6c73c87a03e5bf0c78c3409d67108b56676d02e13fbedceaa3e4ccfdd8733",
    (0.05, "thm5_1_case2"): "dfe39c207870853251af4380c2118fa01a6f6d65ff15bb86dc23762b4458a93a",
    (1.5, "thm3_2"): "1631e19c2a85e7d3ffef45999b49eab8707e1a319bd3ae79272bef4f54427292",
    (1.5, "thm5_1_case1"): "305b9d36a1219baa7db963707f2c4b057b64e889d0521dac0098a38ce35c2219",
    (1.5, "thm5_1_case2"): "6fd320037644f41229f46e84dac2230ee7b1d3dac39734c48daa37e8fbd9c391",
}


@pytest.mark.parametrize("ell, variant", sorted(PARTITION_PINNED))
def test_partition_builder_matches_pinned_digests(ell, variant):
    code, emb = stretched_surface_code()
    parts, cert = theorem_partition_builder(code, emb, ell, variant)
    obj = {"partition": {"parts": parts}, "metadata": cert.metadata, "outcome": cert.outcome}
    digest = sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest == PARTITION_PINNED[ell, variant]
