"""CLI surface: subcommands, exit codes, round trips, determinism."""

import argparse
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
import threading
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocality.bounds import ell_star_exponent, emit_contours, m_star_exponent
from qlocality import cli, geometry
from qlocality.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main
from qlocality.codes import distance, parameters
from qlocality.families import bacon_shor, small_inner_codes


@pytest.fixture
def bs3_files(tmp_path):
    ec = bacon_shor(3)
    code_path = tmp_path / "code.json"
    emb_path = tmp_path / "embedding.json"
    code_path.write_text(json.dumps(ec.code.to_json()))
    emb_path.write_text(json.dumps(ec.embedding.to_json()))
    return str(code_path), str(emb_path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out


# ── basic subcommands ──────────────────────────────────────────────────


def test_params(bs3_files, capsys):
    code_path, _ = bs3_files
    rc, out = run(capsys, "params", code_path)
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert (obj["n"], obj["k"], obj["g"]) == (9, 1, 4)


def test_distance(bs3_files, capsys):
    code_path, _ = bs3_files
    rc, out = run(capsys, "distance", code_path)
    assert rc == EXIT_OK
    assert json.loads(out)["distance"] == 3


def test_distance_weight_cap(bs3_files, capsys):
    code_path, _ = bs3_files
    rc, out = run(capsys, "distance", code_path, "--weight-cap", "2")
    obj = json.loads(out)
    assert obj["distance"] is None and obj["is_lower_bound"]


def test_interactions(bs3_files, capsys):
    code_path, emb_path = bs3_files
    rc, out = run(capsys, "interactions", code_path, emb_path, "--ell", "1.0")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert len(obj["pairs"]) == 12
    assert obj["long_count"] == 12


def test_interactions_negative_ell_exits_two(bs3_files, capsys):
    code_path, emb_path = bs3_files
    assert main(["interactions", code_path, emb_path, "--ell", "-1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ell must be positive\n"


def test_bounds_cli_example(capsys):
    rc, out = run(
        capsys,
        "bounds", "--class", "subsystem", "-n", "1e6", "-k", "1e4", "-d", "1e3", "-D", "2",
    )
    assert rc == EXIT_OK
    assert json.loads(out)["ell_star"] == pytest.approx(math.sqrt(10.0))


# mode -> ell* of the subsystem rows below, both from the distance branch
SUBSYSTEM_OVERFLOW_ELL_STAR = {"asymptotic": 1e150, "explicit": 4.3633231299858236e148}


@pytest.mark.parametrize("code_class", ["subsystem", "projector"])
@pytest.mark.parametrize("mode", ["asymptotic", "explicit"])
def test_bounds_overflow_exits_two(capsys, code_class, mode):
    # the count k * d^(e/(D-1)) is 1e600 (1e900 for projector codes) and no
    # float holds it; the ratio to n is 1e300 for subsystem codes, which
    # report a finite ell*, and 1e600 for projector codes, which exit 2
    argv = ["bounds", "--class", code_class, "--mode", mode,
            "-n", "1e300", "-k", "1e300", "-d", "1e300", "-D", "2"]
    rc = main(argv)
    captured = capsys.readouterr()
    if code_class == "subsystem":
        assert (rc, captured.err) == (EXIT_OK, "")
        report = json.loads(captured.out)
        assert report["regime"] == "distance-branch"
        assert report["ell_star"] == SUBSYSTEM_OVERFLOW_ELL_STAR[mode]
        assert math.isfinite(report["branches"]["dimension"]["ell_star"])
        return
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: dimension-branch ell_star is not finite (inf) "
        "for n=1e+300, k=1e+300, d=1e+300, D=2\n"
    )


def test_bounds_constant_overflow_exits_two(capsys):
    argv = ["bounds", "--class", "subsystem", "--mode", "explicit",
            "-n", "1e6", "-k", "1", "-d", "10", "-D", "400"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the explicit proof constants overflow a float at D=400\n"


def test_check_region(bs3_files, capsys, tmp_path):
    code_path, _ = bs3_files
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"qubits": [0, 1, 2]}))
    rc, out = run(capsys, "check-region", code_path, str(region), "--correctable", "--cleanable")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["correctable"] is False


def test_check_region_boxes(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"boxes": [{"min": [0, 0], "max": [1, 0]}]}))
    rc, out = run(
        capsys,
        "check-region", code_path, str(region), "--embedding", emb_path, "--correctable",
    )
    assert rc == EXIT_OK
    assert json.loads(out)["correctable"] is True


@pytest.mark.parametrize("flag", ["--correctable", "--cleanable"])
@pytest.mark.parametrize("qubits", [[0, 99], [-1]])
def test_check_region_out_of_range_exits_two(bs3_files, capsys, tmp_path, flag, qubits):
    code_path, _ = bs3_files
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"qubits": qubits}))
    assert main(["check-region", code_path, str(region), flag]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: region {sorted(qubits)} outside qubit range [0, 9)\n"


@pytest.mark.parametrize(
    "region, detail",
    [({"qubits": 5}, "TypeError"), ({"boxes": [{"min": [0, 0]}]}, "KeyError('max')")],
)
def test_check_region_malformed_file_exits_two(bs3_files, capsys, tmp_path, region, detail):
    code_path, emb_path = bs3_files
    path = tmp_path / "region.json"
    path.write_text(json.dumps(region))
    argv = ["check-region", code_path, str(path), "--embedding", emb_path, "--correctable"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed region file {path}: {detail}")


def test_tile(bs3_files, capsys):
    _, emb_path = bs3_files
    rc, out = run(capsys, "tile", emb_path, "--w", "8", "--ell", "1", "--seed", "4")
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["report"]["ok"]


# stdout SHA-256 of `tile`, pinned while the CLI still passed a tuple list:
# reading the coordinate array must change no byte
TILE_DIGESTS = {
    "bs3": (
        lambda: bacon_shor(3),
        ["--w", "8", "--ell", "1", "--seed", "4"],
        "8aea31d1e78bffb6f4eb5646e612b0643b60c18df3efd9e0dae724665e6dbbe6",
    ),
    "repetition-64-3d": (
        lambda: small_inner_codes("repetition", r=64, dim=3),
        ["--w", "8", "--ell", "0.25", "--seed", "3"],
        "5b42750b49a5878b911f55afbcf5bf04b88b8986bc1c1395072faae3a55d5882",
    ),
}


@pytest.mark.parametrize("name", sorted(TILE_DIGESTS))
def test_tile_output_digest(name, capsys, tmp_path):
    build, args, digest = TILE_DIGESTS[name]
    emb_path = tmp_path / "embedding.json"
    emb_path.write_text(json.dumps(build().embedding.to_json()))
    rc, out = run(capsys, "tile", str(emb_path), *args)
    assert rc == EXIT_OK
    assert sha256(out.encode()).hexdigest() == digest


def test_subdivide(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "box": {"min": [0, 0], "max": [20, 4]},
                "masses": [{"point": [10, 1], "mass": 10}],
            }
        )
    )
    rc, out = run(capsys, "subdivide", str(spec), "--ell", "1", "--d1", "3")
    assert rc == EXIT_OK
    boxes = json.loads(out)["boxes"]
    assert sum(b["max"][0] - b["min"][0] for b in boxes) == pytest.approx(20.0)


@pytest.mark.parametrize(
    "mass, message",
    [
        ({"point": [1], "mass": 1}, "mass point [1.0] has 1 coordinates, box has 2"),
        ({"point": [1, 2, 3], "mass": 1}, "mass point [1.0, 2.0, 3.0] has 3 coordinates, box has 2"),
        ({"point": [10, 1], "mass": -2}, "mass at [10.0, 1.0] is negative: -2"),
        ({"point": [math.nan, 1], "mass": 1}, "mass point [nan, 1.0] is not finite"),
        (
            {"point": ["a", 1], "mass": 1},
            "malformed subdivide spec: could not convert string to float: 'a'",
        ),
    ],
)
def test_subdivide_rejects_bad_mass_exits_two(capsys, tmp_path, mass, message):
    spec = tmp_path / "spec.json"
    masses = [{"point": [5, 1], "mass": 1}, mass]
    spec.write_text(json.dumps({"box": {"min": [0, 0], "max": [20, 4]}, "masses": masses}))
    assert main(["subdivide", str(spec), "--ell", "1", "--d1", "3"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_stuck_subdivision_cut_exits_two(tmp_path, bs3_files):
    # both ran until killed: cur += 10*ell left the float cut at 1.0
    spec = tmp_path / "spec.json"
    masses = [{"point": [1, 0.5], "mass": 5}]
    spec.write_text(json.dumps({"box": {"min": [0, 0], "max": [10, 1]}, "masses": masses}))
    code_path, emb_path = bs3_files
    for argv, ell in [
        (["subdivide", str(spec), "--ell", "1e-20", "--d1", "1"], "1e-20"),
        (["partition", code_path, emb_path, "--ell", "1e-300", "--variant", "thm3_2"], "1e-300"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "qlocality.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr == f"error: ell = {ell} is too small to move the cut at 1.0\n"


def test_sweep_stuck_exits_one(bs3_files, capsys):
    code_path, emb_path = bs3_files
    rc, out = run(
        capsys,
        "sweep", emb_path, "--code", code_path,
        "--ell", "2", "--tau", "9", "--d", "3", "--strict",
    )
    assert rc == EXIT_FAILED
    assert "stuck-at" in out


def test_sweep_contradiction_exits_zero(bs3_files, capsys):
    code_path, emb_path = bs3_files
    rc, out = run(
        capsys,
        "sweep", emb_path, "--code", code_path,
        "--ell", "2", "--tau", "6", "--d", "100", "--strict",
    )
    assert rc == EXIT_OK
    assert "contradiction-reached" in out


@pytest.mark.parametrize("d", ["0", "-1"])
def test_sweep_non_positive_d_exits_two(bs3_files, capsys, d):
    code_path, emb_path = bs3_files
    argv = ["sweep", emb_path, "--code", code_path, "--ell", "2", "--tau", "9", "--d", d, "--strict"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d must be positive\n"


def test_sweep_hypothesis_violation_exits_zero(capsys, tmp_path):
    # a dense minimum plane violates the sweep's base hypothesis; that is a
    # flagged outcome, not a failed invariant
    from qlocality.geometry import Embedding

    emb_path = tmp_path / "line.json"
    emb_path.write_text(
        json.dumps(Embedding(2, [(0.0, float(i)) for i in range(10)]).to_json())
    )
    rc, out = run(
        capsys, "sweep", str(emb_path), "--ell", "1", "--tau", "2", "--d", "50", "--strict"
    )
    assert rc == EXIT_OK
    assert "hypothesis-violated" in out


def test_sweep_certificate_file_round_trips(bs3_files, capsys, tmp_path):
    from qlocality.certify import Certificate

    code_path, emb_path = bs3_files
    out_path = tmp_path / "cert.jsonl"
    rc, _ = run(
        capsys,
        "sweep", emb_path, "--code", code_path,
        "--ell", "2", "--tau", "9", "--d", "3", "--strict", "--out", str(out_path),
    )
    assert rc == EXIT_FAILED
    cert = Certificate.from_json_lines(out_path.read_text())
    assert cert.outcome == "stuck-at"
    assert cert.steps[0].boundary_count == 3


def test_holographic_strict_violation_exits_zero(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"min": [0, 0], "max": [1, 1]}))
    rc, out = run(
        capsys,
        "holographic", code_path, emb_path, "--box", str(box), "--ell", "1", "--strict",
    )
    assert rc == EXIT_OK  # unmet hypothesis is a flag, not a failure
    assert "hypothesis-violated" in out


def test_holographic_cli(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"min": [0, 0], "max": [1, 0]}))
    rc, out = run(
        capsys,
        "holographic", code_path, emb_path, "--box", str(box), "--ell", "1", "--verified",
    )
    assert rc == EXIT_OK
    assert "certified-correctable" in out


def test_partition_cli(bs3_files, capsys):
    code_path, emb_path = bs3_files
    rc, out = run(
        capsys,
        "partition", code_path, emb_path, "--ell", "1.5", "--variant", "thm3_2", "--seed", "0",
    )
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert len(obj["partition"]["parts"]) == 2


@pytest.mark.parametrize("variant", ["thm5_1_case1", "thm5_1_case2"])
@pytest.mark.parametrize("verify", [[], ["--no-verify"]], ids=["verify", "no-verify"])
def test_partition_abc_variant_on_nonabelian_code_exits_two(bs3_files, capsys, variant, verify):
    code_path, emb_path = bs3_files
    argv = ["partition", code_path, emb_path, "--ell", "1.5", "--variant", variant, *verify]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ABC bound requires an abelian gauge group\n"


def test_construct_and_saturation(capsys, tmp_path):
    out_code = tmp_path / "c.json"
    out_emb = tmp_path / "e.json"
    rc, _ = run(
        capsys,
        "construct", "--family", "bacon_shor", "--size", "3",
        "--out-code", str(out_code), "--out-embedding", str(out_emb),
    )
    assert rc == EXIT_OK
    rc, out = run(capsys, "saturation", str(out_code), str(out_emb))
    assert rc == EXIT_OK
    assert json.loads(out)["ratio"] == pytest.approx(1.0)


def test_concat_cli(capsys, tmp_path):
    inner = small_inner_codes("five_one_three")
    outer = bacon_shor(2)
    paths = {}
    for name, obj in [
        ("ic", inner.code.to_json()),
        ("ie", inner.embedding.to_json()),
        ("oc", outer.code.to_json()),
        ("oe", outer.embedding.to_json()),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    out_code = tmp_path / "cat.json"
    rc, out = run(
        capsys,
        "concat",
        "--inner-code", paths["ic"], "--inner-embedding", paths["ie"],
        "--outer-code", paths["oc"], "--outer-embedding", paths["oe"],
        "--ell-target", "30",
        "--out-code", str(out_code),
        "--out-embedding", str(tmp_path / "cat_emb.json"),
        "--out-report", str(tmp_path / "cat_report.json"),
    )
    assert rc == EXIT_OK
    assert json.loads(out_code.read_text())["n"] == 20


# ── output files ───────────────────────────────────────────────────────


def interactions_out(capsys, bs3_files, out):
    """Exit code and stderr of `interactions` on BS-3, written to out."""
    code_path, emb_path = bs3_files
    rc = main(["interactions", code_path, emb_path, "--out", str(out)])
    return rc, capsys.readouterr().err


def test_out_to_dev_null_exits_zero(bs3_files, capsys):
    assert interactions_out(capsys, bs3_files, os.devnull) == (EXIT_OK, "")


def test_out_to_fifo_streams_the_stdout_bytes(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    _, expected = run(capsys, "interactions", code_path, emb_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    rc, err = interactions_out(capsys, bs3_files, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (rc, err) == (EXIT_OK, "")
    assert received == [expected.encode()]


def test_out_to_directory_exits_two(bs3_files, capsys, tmp_path):
    rc, err = interactions_out(capsys, bs3_files, tmp_path)
    assert rc == EXIT_INPUT
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_shorter_output_over_a_longer_file_leaves_no_stale_tail(capsys, tmp_path):
    def construct(size, prefix):
        paths = [tmp_path / f"{prefix}_code.json", tmp_path / f"{prefix}_emb.json"]
        rc, _ = run(
            capsys, "construct", "--family", "bacon_shor", "--size", str(size),
            "--out-code", str(paths[0]), "--out-embedding", str(paths[1]),
        )
        assert rc == EXIT_OK
        return [p.read_bytes() for p in paths]

    longer = construct(5, "reused")
    rewritten = construct(3, "reused")
    assert rewritten == construct(3, "fresh")
    assert all(len(old) > len(new) for old, new in zip(longer, rewritten))


def test_rewrite_keeps_inode_mode_and_hard_links(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    _, expected = run(capsys, "interactions", code_path, emb_path)
    target = tmp_path / "out.json"
    target.write_text("stale\n" * 1000)
    target.chmod(0o640)
    link = tmp_path / "link.json"
    os.link(target, link)
    before = target.stat()
    assert interactions_out(capsys, bs3_files, target) == (EXIT_OK, "")
    after = target.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode), after.st_nlink) == (before.st_ino, 0o640, 2)
    assert link.read_text() == expected


def test_new_output_file_gets_mode_0o666_less_the_umask(bs3_files, capsys, tmp_path):
    target = tmp_path / "out.json"
    old_umask = os.umask(0o027)
    try:
        rc, _ = interactions_out(capsys, bs3_files, target)
    finally:
        os.umask(old_umask)
    assert rc == EXIT_OK
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~0o027


@pytest.fixture
def close_pair_calls(monkeypatch):
    """The embeddings whose close pairs are computed, one entry per computation."""
    calls = []
    close_pairs = geometry._close_pairs

    def counted(e):
        calls.append(e)
        return close_pairs(e)

    monkeypatch.setattr(geometry, "_close_pairs", counted)
    return calls


def test_saturation_validates_its_embedding_once(capsys, tmp_path, close_pair_calls):
    ec = bacon_shor(3)
    code_path, emb_path = tmp_path / "c.json", tmp_path / "e.json"
    code_path.write_text(json.dumps(ec.code.to_json()))
    emb_path.write_text(json.dumps(ec.embedding.to_json()))
    del close_pair_calls[:]  # the construction above validated its own
    assert main(["saturation", str(code_path), str(emb_path)]) == EXIT_OK
    assert len(close_pair_calls) == 1


def test_concat_validates_each_embedding_once(capsys, tmp_path, close_pair_calls):
    paths = {}
    for name, ec in [("inner", small_inner_codes("five_one_three")), ("outer", bacon_shor(2))]:
        for part, obj in [("code", ec.code.to_json()), ("embedding", ec.embedding.to_json())]:
            p = tmp_path / f"{name}-{part}.json"
            p.write_text(json.dumps(obj))
            paths[f"--{name}-{part}"] = str(p)
    del close_pair_calls[:]  # the two constructions above validated theirs
    argv = ["concat", "--ell-target", "30"] + [x for item in paths.items() for x in item]
    assert main(argv) == EXIT_OK
    # inner, outer and the concatenated embedding, each once
    assert len(close_pair_calls) == 3
    assert len({id(e) for e in close_pair_calls}) == 3


# ── contours ───────────────────────────────────────────────────────────


def test_contour_spot_values():
    table = emit_contours(2, "subsystem", 0.1)
    assert table.lookup(1.0, 1.0)[0] == pytest.approx(0.5, abs=1e-12)
    assert table.lookup(0.0, 0.8)[0] == pytest.approx(0.3, abs=1e-12)
    assert table.lookup(0.3, 0.2)[0] == pytest.approx(0.0, abs=1e-12)


def test_contour_m_star_values():
    assert m_star_exponent(0.3, 0.2, 2, "subsystem") is None  # local regime
    assert m_star_exponent(1.0, 1.0, 2, "subsystem") == 1.0
    assert m_star_exponent(0.0, 0.8, 2, "subsystem") == 0.8


def test_contours_agree_with_bounds_at_finite_n():
    from qlocality.bounds import class_bounds

    n = 1e6
    for code_class in ("subsystem", "projector"):
        for kappa in (0.0, 0.25, 0.5, 0.75, 1.0):
            for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
                expected = ell_star_exponent(kappa, delta, 2, code_class)
                report = class_bounds(code_class, n, n**kappa, n**delta, 2, mode="asymptotic")
                computed = max(math.log(report.ell_star, n), 0.0)
                assert computed == pytest.approx(expected, abs=1e-6)


def test_contours_cli_csv(capsys):
    rc, out = run(capsys, "contours", "--D", "2", "--class", "subsystem", "--grid-step", "0.5", "--csv")
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "kappa,delta,ell_exponent,m_exponent"


def test_contours_rejects_bad_step(capsys):
    rc, _ = run(capsys, "contours", "--D", "2", "--class", "subsystem", "--grid-step", "0.7")
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("step", ["1e-9", "1e-7"])
def test_contours_reject_step_below_csv_resolution(capsys, step):
    with pytest.raises(ValueError, match="outside"):
        emit_contours(2, "subsystem", float(step))
    assert main(["contours", "--D", "2", "--class", "subsystem", "--grid-step", step]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid step {float(step)} outside [1e-06, 0.5]\n"


def test_contours_accept_step_at_csv_resolution(monkeypatch):
    # 1e-3 is the smallest admitted step (1,001 values per axis); stop at the
    # first table entry instead of building all 10^6 of them
    class Reached(Exception):
        pass

    def stop(*args):
        raise Reached

    monkeypatch.setattr("qlocality.bounds.ell_star_exponent", stop)
    with pytest.raises(Reached):
        emit_contours(2, "subsystem", 1e-3)


@pytest.mark.parametrize("step", ["1e-6", "0.000999"])
def test_contours_reject_grid_above_1001_values(capsys, step):
    with pytest.raises(ValueError, match="more than 1001"):
        emit_contours(2, "subsystem", float(step))
    assert main(["contours", "--D", "2", "--class", "subsystem", "--grid-step", step, "--csv"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "values per axis, more than 1001" in captured.err


@pytest.mark.parametrize("dim", ["1", "0", "-1"])
def test_contours_reject_dimension_below_two(capsys, dim):
    with pytest.raises(ValueError, match="require D >= 2"):
        emit_contours(int(dim), "subsystem", 0.5)
    assert main(["contours", "--D", dim, "--class", "subsystem"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: contours require D >= 2\n"


def test_contour_table_round_trip():
    from qlocality.bounds import ContourTable

    table = emit_contours(3, "projector", 0.25)
    again = ContourTable.from_json(json.loads(json.dumps(table.to_json())))
    assert again == table


# ── exit codes and determinism ─────────────────────────────────────────


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = run(capsys, "params", str(bad))
    assert rc == EXIT_INPUT


@pytest.mark.parametrize(
    "obj",
    [{"n": -1, "gauge_generators": []}, {"n": 1, "gauge_generators": "XYZ"}],
    ids=["negative-n", "generators-not-a-list"],
)
def test_malformed_code_file_exits_two(capsys, tmp_path, obj):
    bad = tmp_path / "code.json"
    bad.write_text(json.dumps(obj))
    assert main(["params", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_holographic_size_mismatch_exits_two(bs3_files, capsys, tmp_path):
    code_path, _ = bs3_files
    emb = tmp_path / "seven.json"
    emb.write_text(json.dumps({"dimension": 1, "coordinates": [[float(i)] for i in range(7)]}))
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"min": [0], "max": [1]}))
    rc = main(["holographic", code_path, str(emb), "--box", str(box), "--ell", "1"])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["interactions", "sweep", "holographic", "partition"])
def test_embedding_one_point_short_exits_two(bs3_files, capsys, tmp_path, command):
    code_path, _ = bs3_files
    emb = tmp_path / "eight.json"
    # Bacon-Shor 3's grid without its last point
    coordinates = [[float(i % 3), float(i // 3)] for i in range(8)]
    emb.write_text(json.dumps({"dimension": 2, "coordinates": coordinates}))
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"min": [0, 0], "max": [1, 1]}))
    argv = {
        "interactions": ["interactions", code_path, str(emb)],
        "sweep": ["sweep", str(emb), "--code", code_path, "--ell", "1", "--tau", "3", "--d", "3"],
        "holographic": ["holographic", code_path, str(emb), "--box", str(box), "--ell", "0.1"],
        "partition": ["partition", code_path, str(emb), "--ell", "1", "--variant", "thm3_2"],
    }[command]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: embedding has 8 points, code has 9 qubits\n"


@pytest.fixture
def coincident_files(tmp_path):
    code = tmp_path / "xx_zz.json"
    code.write_text(json.dumps({"n": 2, "gauge_generators": ["XX", "ZZ"]}))
    emb = tmp_path / "coincident.json"
    emb.write_text(json.dumps({"dimension": 1, "coordinates": [[0.0], [0.0]]}))
    return str(code), str(emb)


@pytest.mark.parametrize("command", ["interactions", "tile"])
def test_coincident_embedding_exits_two(coincident_files, capsys, command):
    code_path, emb_path = coincident_files
    if command == "interactions":
        argv = ["interactions", code_path, emb_path]
    else:
        argv = ["tile", emb_path, "--w", "8", "--ell", "1", "--seed", "1"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "qubits 0 and 1 at distance 0 < 1" in captured.err


@pytest.mark.parametrize(
    "site",
    ["code-n", "embedding-dimension", "region-qubit", "subdivide-mass"],
)
def test_non_integral_json_number_exits_two(bs3_files, capsys, tmp_path, site):
    code_path, emb_path = bs3_files
    if site == "code-n":
        bad = tmp_path / "code.json"
        bad.write_text(json.dumps({"n": 2.7, "gauge_generators": ["XX"]}))
        argv = ["params", str(bad)]
    elif site == "embedding-dimension":
        bad = tmp_path / "emb.json"
        bad.write_text(json.dumps({"dimension": 1.5, "coordinates": [[0.0], [1.0]]}))
        argv = ["tile", str(bad), "--w", "8", "--ell", "1", "--seed", "1"]
    elif site == "region-qubit":
        bad = tmp_path / "region.json"
        bad.write_text(json.dumps({"qubits": [0, 1.9]}))
        argv = ["check-region", code_path, str(bad), "--correctable"]
    else:
        bad = tmp_path / "spec.json"
        bad.write_text(
            json.dumps(
                {
                    "box": {"min": [0, 0], "max": [20, 4]},
                    "masses": [{"point": [10, 1], "mass": 2.5}],
                }
            )
        )
        argv = ["subdivide", str(bad), "--ell", "1", "--d1", "3"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be an integer" in err


def test_holographic_box_dimension_mismatch_exits_two(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"min": [0], "max": [2]}))
    rc = main(["holographic", code_path, emb_path, "--box", str(box), "--ell", "0.1"])
    assert rc == EXIT_INPUT
    assert "box has dimension 1, embedding has 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,size",
    [("bacon_shor", "0"), ("bacon_shor", "-2"), ("surface", "1"), ("repetition", "0")],
)
def test_construct_size_out_of_range_exits_two(capsys, tmp_path, family, size):
    out_code = tmp_path / "c.json"
    argv = ["construct", "--family", family, "--size", size, "--out-code", str(out_code)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and not out_code.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "needs" in captured.err


def test_construct_size_over_the_qubit_cap_exits_two(capsys, tmp_path):
    # n = 10^18 is rejected before any array is allocated
    out_code = tmp_path / "c.json"
    argv = ["construct", "--family", "bacon_shor", "--size", "1000000000", "--out-code", str(out_code)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and not out_code.exists()
    assert captured.err == "error: qubit count 1000000000000000000 outside [0, 100000]\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    ["tile --w", "sweep --tau", "interactions --ell", "bounds -n", "contours --grid-step"],
)
def test_non_finite_float_flag_exits_two(bs3_files, capsys, command, value):
    code_path, emb_path = bs3_files
    name, flag = command.split()
    base = {
        "tile": ["tile", emb_path, "--w", "8", "--ell", "1", "--seed", "1"],
        "sweep": ["sweep", emb_path, "--ell", "2", "--tau", "9", "--d", "3"],
        "interactions": ["interactions", code_path, emb_path, "--ell", "1"],
        "bounds": ["bounds", "--class", "subsystem", "-n", "1e6", "-k", "1e4", "-d", "1e3", "-D", "2"],
        "contours": ["contours", "--D", "2", "--class", "subsystem", "--grid-step", "0.5"],
    }[name]
    argv = list(base)
    i = argv.index(flag)
    argv[i : i + 2] = [f"{flag}={value}"]  # "=" so that "-inf" is not read as an option
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a finite number, got '{value}'" in captured.err


@pytest.mark.parametrize("command", ["distance", "saturation"])
@pytest.mark.parametrize("value", ["-1", "two"])
def test_bad_weight_cap_exits_two(bs3_files, capsys, command, value):
    code_path, emb_path = bs3_files
    files = [code_path] if command == "distance" else [code_path, emb_path]
    assert main([command, *files, "--weight-cap", value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a non-negative integer, got '{value}'" in captured.err


def test_missing_file_exits_two(capsys):
    rc, _ = run(capsys, "params", "/nonexistent/code.json")
    assert rc == EXIT_INPUT


def test_deterministic_output(bs3_files, capsys):
    _, emb_path = bs3_files
    outputs = []
    for _ in range(2):
        rc, out = run(capsys, "tile", emb_path, "--w", "8", "--ell", "1", "--seed", "11")
        assert rc == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_console_entry_point(bs3_files):
    code_path, _ = bs3_files
    proc = subprocess.run(
        [sys.executable, "-m", "qlocality.cli", "params", code_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["k"] == 1


def test_artifact_round_trips(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    out = tmp_path / "ints.json"
    rc, _ = run(capsys, "interactions", code_path, emb_path, "--out", str(out))
    assert rc == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["n"] == 9


# ── one parser per process ─────────────────────────────────────────────


def test_parser_reuse_leaks_no_state(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    out_path = tmp_path / "ints.json"
    sweep = ["sweep", emb_path, "--code", code_path, "--ell", "2", "--tau", "9", "--d", "3"]
    interactions = ["interactions", code_path, emb_path, "--ell", "1.0"]
    commands = [
        ["frobnicate"],
        ["tile", emb_path, "--w", "nan", "--ell", "1", "--seed", "1"],
        [*sweep, "--verified"],
        sweep,
        [*interactions, "--out", str(out_path)],
        interactions,
        ["distance", code_path, "--weight-cap", "2"],
        ["distance", code_path],
    ]

    def run_all(order):
        results = {}
        for i in order:
            rc = main(list(commands[i]))
            captured = capsys.readouterr()
            written = out_path.read_bytes() if out_path.exists() else None
            out_path.unlink(missing_ok=True)
            results[i] = (rc, captured.out, captured.err, written)
        return results

    forward = run_all(range(len(commands)))
    backward = run_all(reversed(range(len(commands))))
    assert forward == backward
    assert [forward[i][0] for i in range(len(commands))] == [
        EXIT_INPUT, EXIT_INPUT, EXIT_FAILED, EXIT_FAILED, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK,
    ]
    assert forward[2][1] != forward[3][1]  # verified and strict sweeps differ
    assert forward[4][3] is not None and forward[5][3] is None
    assert forward[4][3].decode() == forward[5][1]
    assert json.loads(forward[6][1])["distance"] is None
    assert json.loads(forward[7][1])["distance"] == 3


def test_parser_tree_built_once_per_process(bs3_files, capsys, monkeypatch):
    code_path, _ = bs3_files
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(["params", code_path]) == EXIT_OK
    one_tree = len(progs)
    for _ in range(5):
        assert main(["params", code_path]) == EXIT_OK
        assert main(["frobnicate"]) == EXIT_INPUT
    assert progs.count("qlocality") == 1
    assert len(progs) == one_tree


# ── one error boundary in main ─────────────────────────────────────────


@pytest.fixture
def input_files(bs3_files, tmp_path):
    """Every kind of input file a command reads, keyed by its placeholder."""
    code_path, emb_path = bs3_files
    files = {"code": code_path, "emb": emb_path}
    objs = {
        "region": {"qubits": [0, 1, 2]},
        "box": {"min": [0, 0], "max": [1, 0]},
        "spec": {"box": {"min": [0, 0], "max": [20, 4]}, "masses": [{"point": [10, 1], "mass": 10}]},
    }
    for name, ec in [("i", small_inner_codes("five_one_three")), ("o", bacon_shor(2))]:
        objs[name + "c"] = ec.code.to_json()
        objs[name + "e"] = ec.embedding.to_json()
    for name, obj in objs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        files[name] = str(path)
    files["out"] = str(tmp_path / "written.json")
    files["bad"] = str(tmp_path / "missing" / "out.json")
    return files


_CONCAT = "concat --inner-code {ic} --inner-embedding {ie} --outer-code {oc} --outer-embedding {oe} --ell-target 30"

# one command per output flag, writing its {bad} output into a missing directory
WRITING_COMMANDS = {
    "interactions --out": "interactions {code} {emb} --out {bad}",
    "bounds --out": "bounds --class subsystem -n 1e6 -k 1e4 -d 1e3 -D 2 --out {bad}",
    "check-region --out": "check-region {code} {region} --correctable --out {bad}",
    "tile --out": "tile {emb} --w 8 --ell 1 --seed 4 --out {bad}",
    "subdivide --out": "subdivide {spec} --ell 1 --d1 3 --out {bad}",
    "sweep --out": "sweep {emb} --code {code} --ell 2 --tau 9 --d 3 --strict --out {bad}",
    "holographic --out": "holographic {code} {emb} --box {box} --ell 1 --verified --out {bad}",
    "partition --out": "partition {code} {emb} --ell 1.5 --variant thm3_2 --out {bad}",
    "construct --out-code": "construct --family bacon_shor --size 3 --out-code {bad}",
    "construct --out-embedding": "construct --family surface --size 2 --out-code {out} --out-embedding {bad}",
    "concat --out-code": _CONCAT + " --out-code {bad}",
    "concat --out-embedding": _CONCAT + " --out-code {out} --out-embedding {bad}",
    "concat --out-report": _CONCAT + " --out-code {out} --out-report {bad}",
    "saturation --out": "saturation {code} {emb} --out {bad}",
    "contours --out": "contours --D 2 --class subsystem --grid-step 0.5 --out {bad}",
    "contours --csv --out": "contours --D 2 --class projector --grid-step 0.5 --csv --out {bad}",
}


def _argv(template, files):
    return [token.format(**files) for token in template.split()]


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_unwritable_output_path_exits_two(input_files, capsys, command):
    assert main(_argv(WRITING_COMMANDS[command], input_files)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No such file or directory" in err and input_files["bad"] in err


def _reject(*args, **kwargs):
    raise ValueError("library rejected input")


@pytest.mark.parametrize(
    "target, template",
    [
        ("qlocality.cli.parameters", "params {code}"),
        ("qlocality.geometry.find_tiling", "tile {emb} --w 8 --ell 1 --seed 4"),
        ("qlocality.certify.expansion_sweep", "sweep {emb} --ell 2 --tau 9 --d 3"),
        ("qlocality.regions.is_dressed_cleanable", "check-region {code} {region} --cleanable"),
        ("qlocality.families.build_concat_embedding", _CONCAT),
        ("qlocality.bounds.class_bounds", "bounds --class projector -n 1e6 -k 1e4 -d 1e3 -D 2"),
    ],
)
def test_library_value_error_exits_two(input_files, capsys, monkeypatch, target, template):
    monkeypatch.setattr(target, _reject)
    assert main(_argv(template, input_files)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: library rejected input\n"


def test_check_region_oracle_error_is_not_a_malformed_region(input_files, monkeypatch):
    def broken(code, u):
        raise KeyError("oracle")

    monkeypatch.setattr("qlocality.regions.is_correctable", broken)
    with pytest.raises(KeyError, match="oracle"):
        main(_argv("check-region {code} {region} --correctable", input_files))


def test_console_unwritable_output_prints_no_traceback(input_files):
    argv = _argv("interactions {code} {emb} --out {bad}", input_files)
    proc = subprocess.run(
        [sys.executable, "-m", "qlocality.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# ── code files through the batched parser ─────────────────────────────


def test_bacon_shor_30_code_file_loads_across_many_parse_blocks(tmp_path, capsys):
    code_path = tmp_path / "bs30.json"
    rc, _ = run(capsys, "construct", "--family", "bacon_shor", "--size", "30", "--out-code", str(code_path))
    assert rc == EXIT_OK
    gens = json.loads(code_path.read_text())["gauge_generators"]
    assert len(gens) == 1740 and {len(s) for s in gens} == {900}
    code = bacon_shor(30).code
    p = parameters(code)
    rc, out = run(capsys, "params", str(code_path))
    assert rc == EXIT_OK
    assert json.loads(out) == {"n": p.n, "k": p.k, "g": p.g, "s": p.s}
    rc, out = run(capsys, "distance", str(code_path), "--weight-cap", "1")
    assert rc == EXIT_OK
    res = distance(code, weight_cap=1)
    assert json.loads(out) == {"distance": res.value, "weight_cap": 1, "is_lower_bound": True}


OVER_CAP_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qlocality.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_over_cap_child(*argv):
    """cli.main in a child under a 1 GiB address-space cap: a command that
    built an over-cap code's rows or masks would exhaust memory instead."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", OVER_CAP_CHILD, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_params_rejects_a_qubit_count_over_the_cap(tmp_path):
    # a code that kept n = 10^12 would build a 2·10^12-bit mask in params
    code_path = tmp_path / "huge.json"
    code_path.write_text(json.dumps({"n": 10**12, "gauge_generators": []}))
    proc = run_over_cap_child("params", str(code_path))
    assert proc.returncode == EXIT_INPUT, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr == "error: qubit count 1000000000000 outside [0, 100000]\n"


def test_concat_rejects_a_qubit_count_over_the_cap(tmp_path):
    # 5 * 20001 qubits: the 80,004 lifted inner rows alone would take over
    # 1 GiB if they were built before the cap is checked
    inner = small_inner_codes("five_one_three")
    outer_n = 20_001
    paths = {name: str(tmp_path / f"{name}.json") for name in ("ic", "ie", "oc", "oe")}
    files = {
        "ic": inner.code.to_json(),
        "ie": inner.embedding.to_json(),
        "oc": {"n": outer_n, "gauge_generators": []},
        "oe": {"dimension": 2, "coordinates": [[float(i), 0.0] for i in range(outer_n)]},
    }
    for name, obj in files.items():
        Path(paths[name]).write_text(json.dumps(obj))
    proc = run_over_cap_child(
        "concat", "--inner-code", paths["ic"], "--inner-embedding", paths["ie"],
        "--outer-code", paths["oc"], "--outer-embedding", paths["oe"],
        "--ell-target", "10", "--ell2", "1",
    )
    assert proc.returncode == EXIT_INPUT, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr == "error: qubit count 100005 outside [0, 100000]\n"


# ── NaN box corners ────────────────────────────────────────────────────


def test_subdivide_nan_box_exits_two(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"box": {"min": [0, math.nan], "max": [20, 4]}, "masses": [{"point": [10, 1], "mass": 1}]})
    )
    assert main(["subdivide", str(spec), "--ell", "1", "--d1", "3"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed subdivide spec: box corners [0.0, nan], [20.0, 4.0] must be finite\n"


def test_holographic_nan_box_exits_two(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"min": [0, 0], "max": [1, math.nan]}))
    argv = ["holographic", code_path, emb_path, "--box", str(box), "--ell", "1", "--strict"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed box file {box}: box corners [0.0, 0.0], [1.0, nan] must be finite\n"


def test_check_region_nan_box_exits_two(bs3_files, capsys, tmp_path):
    code_path, emb_path = bs3_files
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"boxes": [{"min": [math.nan, 0], "max": [1, 0]}]}))
    argv = ["check-region", code_path, str(region), "--embedding", emb_path, "--correctable"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: box corners [nan, 0.0], [1.0, 0.0] must be finite\n"


# ── one parse per argv ────────────────────────────────────────────────


def perfbench_argvs():
    """The argvs of the benchmark's cli-pipeline workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return [argv for _, argv in workloads.cli_commands("full", 1)]


PLACEHOLDER_FILES = {name: f"{name}.json" for name in
                     ("code", "emb", "region", "box", "spec", "ic", "ie", "oc", "oe", "out", "bad")}
DISPATCH_ARGVS = [
    *(_argv(template, PLACEHOLDER_FILES) for template in WRITING_COMMANDS.values()),
    ["params", "code.json"],
    ["distance", "code.json", "--weight-cap", "2"],
    ["check-region", "code.json", "region.json", "--embedding", "emb.json", "--cleanable", "--correctable"],
    ["sweep", "emb.json", "--ell", "2", "--tau", "9", "--d", "3"],
    ["holographic", "code.json", "emb.json", "--box", "box.json", "--ell", "1", "--strict", "--d", "3"],
    ["partition", "code.json", "emb.json", "--ell", "1", "--variant", "thm5_1_case2", "--seed", "4", "--no-verify"],
    ["saturation", "code.json", "emb.json", "--class", "projector", "--weight-cap", "2"],
    *perfbench_argvs(),
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_dispatched_namespace_equals_the_full_parsers(argv):
    assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)


def test_dispatch_covers_every_command():
    assert {argv[0] for argv in DISPATCH_ARGVS} >= set(cli.build_parser().commands)


def run_console(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qlocality.cli", *argv], capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("command", list(cli.build_parser().commands))
def test_console_command_help_exits_zero(command):
    proc = run_console(command, "-h")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith(f"usage: qlocality {command} ")
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["params", "code.json", "--bogus"], "qlocality params: error: unrecognized arguments: --bogus"),
        ([], "qlocality: error: the following arguments are required: command"),
        (["frobnicate"], "qlocality: error: argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["unknown-option", "no-arguments", "unknown-command"],
)
def test_console_usage_errors_exit_two(argv, message):
    proc = run_console(*argv)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: qlocality") and message in proc.stderr


# ── the JSON writer ────────────────────────────────────────────────────


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", " ", "é", "\U0001f600", "\ud800"]),
)
json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(json_keys, children, max_size=3),
    ),
    max_leaves=20,
)


def text_or_type_error(write, obj):
    try:
        return write(obj)
    except TypeError:
        return TypeError


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_equals_indented_json_dumps(obj):
    # a dict whose keys do not sort raises TypeError in both
    expected = text_or_type_error(lambda o: json.dumps(o, sort_keys=True, indent=2), obj)
    assert text_or_type_error(cli._json_text, obj) == expected


@pytest.mark.parametrize(
    "obj", [np.int64(3), {1, 2}, [{"a": np.int64(3)}], {"a": (1, b"x")}, {(1, 2): 3}],
    ids=["numpy-int", "set", "nested-numpy-int", "bytes", "tuple-key"],
)
def test_json_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(obj)
    assert str(got.value) == str(expected.value)


def test_json_writer_writes_float_subclasses_as_floats():
    obj = {"x": [np.float64(0.1), np.float64("nan")], "n": True}
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
