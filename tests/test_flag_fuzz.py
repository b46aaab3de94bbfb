"""Extreme numeric flags through ``cli.main``, in-process: every run ends.

Each subcommand runs on small files that ``construct`` writes (Bacon-Shor
3, the distance-2 surface code, Steane and the 3-qubit repetition chain),
once per extreme value of each of its numeric flags: 0, -1, 1e-300,
5e-324, 1e300, 2**70, nan and inf.  ``params`` and ``check-region`` take no
numeric flag and run once.  Each run must exit 0, 1 or 2, raise nothing
and print no traceback, and an exit of 2 prints argparse's usage text or
one ``error:`` line.
"""

import pytest

from qlocality.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main

EXTREMES = ["0", "-1", "1e-300", "5e-324", "1e300", str(2**70), "nan", "inf"]

# "{}" marks where each extreme value goes; other braces name files
CODE_ARGVS = [
    ["params", "{code}"],
    ["check-region", "{code}", "{region}", "--correctable", "--cleanable"],
    ["distance", "{code}", "--weight-cap", "{}"],
    ["interactions", "{code}", "{embedding}", "--ell", "{}"],
    ["tile", "{embedding}", "--w", "{}", "--ell", "1", "--seed", "0"],
    ["tile", "{embedding}", "--w", "8", "--ell", "{}", "--seed", "0"],
    ["tile", "{embedding}", "--w", "8", "--ell", "1", "--seed", "{}"],
    ["sweep", "{embedding}", "--code", "{code}", "--ell", "{}", "--tau", "9", "--d", "3"],
    ["sweep", "{embedding}", "--code", "{code}", "--ell", "2", "--tau", "{}", "--d", "3"],
    ["sweep", "{embedding}", "--code", "{code}", "--ell", "2", "--tau", "9", "--d", "{}"],
    ["sweep", "{embedding}", "--code", "{code}", "--ell", "{}", "--tau", "9", "--d", "3", "--verified"],
    ["sweep", "{embedding}", "--code", "{code}", "--ell", "2", "--tau", "{}", "--d", "3", "--verified"],
    ["sweep", "{embedding}", "--code", "{code}", "--ell", "2", "--tau", "9", "--d", "{}", "--verified"],
    ["holographic", "{code}", "{embedding}", "--box", "{box}", "--ell", "{}"],
    ["holographic", "{code}", "{embedding}", "--box", "{box}", "--ell", "0.1", "--d", "{}"],
    ["holographic", "{code}", "{embedding}", "--box", "{box}", "--ell", "{}", "--verified"],
    ["holographic", "{code}", "{embedding}", "--box", "{box}", "--ell", "0.1", "--d", "{}", "--verified"],
    ["partition", "{code}", "{embedding}", "--ell", "{}", "--variant", "thm3_2"],
    ["partition", "{code}", "{embedding}", "--ell", "{}", "--variant", "thm5_1_case1"],
    ["partition", "{code}", "{embedding}", "--ell", "{}", "--variant", "thm5_1_case2"],
    ["partition", "{code}", "{embedding}", "--ell", "1", "--variant", "thm3_2", "--seed", "{}"],
    ["saturation", "{code}", "{embedding}", "--weight-cap", "{}"],
    ["saturation", "{code}", "{embedding}", "--class", "projector", "--weight-cap", "{}"],
]

CONCAT = ["concat", "--inner-code", "{steane}", "--inner-embedding", "{steane_emb}",
          "--outer-code", "{repetition}", "--outer-embedding", "{repetition_emb}"]

OTHER_ARGVS = [
    ["bounds", "--class", "subsystem", "-n", "{}", "-k", "10", "-d", "10", "-D", "2"],
    ["bounds", "--class", "subsystem", "-n", "1e6", "-k", "{}", "-d", "10", "-D", "2"],
    ["bounds", "--class", "projector", "-n", "1e6", "-k", "10", "-d", "{}", "-D", "2", "--mode", "explicit"],
    ["bounds", "--class", "subsystem", "-n", "1e6", "-k", "10", "-d", "10", "-D", "{}"],
    ["bounds", "--class", "subsystem", "-n", "1e6", "-k", "10", "-d", "10", "-D", "{}", "--mode", "explicit"],
    ["subdivide", "{spec}", "--ell", "{}", "--d1", "1"],
    ["subdivide", "{spec}", "--ell", "1", "--d1", "{}"],
    ["construct", "--family", "bacon_shor", "--size", "{}"],
    ["construct", "--family", "surface", "--size", "{}"],
    ["construct", "--family", "repetition", "--size", "{}"],
    ["construct", "--family", "steane", "--size", "{}"],
    [*CONCAT, "--ell-target", "{}"],
    [*CONCAT, "--ell-target", "10", "--ell2", "{}"],
    ["contours", "--D", "{}", "--class", "subsystem"],
    ["contours", "--D", "2", "--class", "subsystem", "--grid-step", "{}"],
    ["contours", "--D", "2", "--class", "projector", "--grid-step", "{}", "--csv"],
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the files the argvs name, the codes written by ``construct``."""
    root = tmp_path_factory.mktemp("flag-fuzz")
    paths = {}
    for family, size in [("bacon_shor", 3), ("surface", 2), ("steane", 0), ("repetition", 3)]:
        paths[family], paths[family + "_emb"] = str(root / f"{family}.json"), str(root / f"{family}_emb.json")
        argv = ["construct", "--family", family, "--size", str(size),
                "--out-code", paths[family], "--out-embedding", paths[family + "_emb"]]
        assert main(argv) == EXIT_OK
    texts = {
        "region": '{"qubits": [0, 1]}',
        "box": '{"min": [0, 0], "max": [2, 2]}',
        "spec": '{"box": {"min": [0, 0], "max": [4, 4]}, "masses": [{"point": [1, 1], "mass": 1.0}]}',
    }
    for name, text in texts.items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(text)
    return paths


def run_extremes(capsys, argv, paths):
    """Run argv once per extreme value (once if it takes none) and check
    each run's exit code and stderr."""
    for value in EXTREMES if "{}" in argv else [None]:
        filled = [value if word == "{}" else word.format(**paths) for word in argv]
        rc = main(filled)
        out, err = capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_FAILED, EXIT_INPUT), filled
        assert "Traceback" not in out + err, filled
        if rc == EXIT_INPUT:
            assert err.startswith("usage: ") or (err.startswith("error: ") and err.count("\n") == 1), (filled, err)


@pytest.mark.parametrize("family", ["bacon_shor", "surface"])
@pytest.mark.parametrize("argv", CODE_ARGVS, ids=" ".join)
def test_extreme_flags_on_a_code_end_in_an_exit_code(files, capsys, family, argv):
    paths = dict(files, code=files[family], embedding=files[family + "_emb"])
    run_extremes(capsys, argv, paths)


@pytest.mark.parametrize("argv", OTHER_ARGVS, ids=" ".join)
def test_extreme_flags_end_in_an_exit_code(files, capsys, argv):
    run_extremes(capsys, argv, files)
