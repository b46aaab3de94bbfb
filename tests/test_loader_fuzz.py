"""Mutated input files through ``cli.main``: every run ends in one line.

One hypothesis test per file kind (code, embedding, region, box and
subdivide spec) starts from a valid file, applies one to three mutations
and runs a command that reads it.  The mutations are wrong types, missing
keys, ragged lists, empty rows, huge and subnormal numbers, numbers written
as strings or booleans, a value nested 10^5 deep, and bytes that are not
UTF-8.  Each run must exit 0, 1 or 2,
print nothing on stderr or one ``error:`` / ``invariant failed:`` line,
raise no warning, and print strict JSON where it prints JSON.
"""

import json
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qlocality.cli import EXIT_FAILED, EXIT_INPUT, EXIT_OK, main
from qlocality.families import bacon_shor

BS2 = bacon_shor(2)
DEPTH = 10**5
DEEP = "\x00deep"  # stands for a value nested DEPTH lists deep
BAD_UTF8 = "\x00bad-utf8"  # stands for a byte that is not UTF-8

VALID = {
    "code": [BS2.code.to_json()],
    "embedding": [BS2.embedding.to_json()],
    "region": [{"qubits": [0, 1, 3]}, {"boxes": [{"min": [0, 0], "max": [1, 0]}]}],
    "box": [{"min": [0, 0], "max": [1, 1]}, {"min": [0, 0], "max": [0.2, 0.2]}],
    "spec": [
        {
            "box": {"min": [0, 0], "max": [20, 4]},
            "masses": [{"point": [10, 1], "mass": 10}, {"point": [3.5, 2], "mass": 1}],
        }
    ],
}

# argv per kind; the mutated file is the one named by the kind
COMMANDS = {
    "code": ["distance", "{code}", "--weight-cap", "2"],
    "embedding": ["interactions", "{code}", "{embedding}", "--ell", "1"],
    "region": ["check-region", "{code}", "{region}", "--embedding", "{embedding}",
               "--correctable", "--cleanable"],
    "box": ["holographic", "{code}", "{embedding}", "--box", "{box}", "--ell", "0.1",
            "--d", "2", "--out", "{out}"],
    "spec": ["subdivide", "{spec}", "--ell", "1", "--d1", "3"],
}

BAD_VALUES = st.sampled_from(
    [
        None, True, False, "x", "0", " 2 ", 1.5, -1, 0, {}, [], [[], []], [[0.0], [1.0, 2.0]],
        [[0.0, "a"]], [["0", "0"], [True, False]], ["0", False], [" 2 ", True],
        1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
        10**400, 2**63, DEEP, BAD_UTF8,
    ]
)


def paths(obj, prefix=()):
    """Every path (a tuple of keys and indices) into obj, the root first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


def mutated(obj, path, value, delete):
    """obj with the node at path replaced by value, or deleted."""
    head, rest = path[0], path[1:]
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    if rest:
        copy[head] = mutated(obj[head], rest, value, delete)
    elif delete:
        del copy[head]
    else:
        copy[head] = value
    return copy


@st.composite
def mutated_files(draw, kind):
    """The JSON text of one of kind's valid files after one to three
    mutations, each replacing or deleting one node (the root too)."""
    obj = draw(st.sampled_from(VALID[kind]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(obj))))
        if not path:
            obj = draw(BAD_VALUES)
            continue
        delete = draw(st.booleans())
        obj = mutated(obj, path, None if delete else draw(BAD_VALUES), delete)
    return json.dumps(obj)


def file_bytes(text):
    """text with each stand-in written out: a 10^5-deep value, or a string
    holding bytes that are not UTF-8."""
    text = text.replace(json.dumps(DEEP), "[" * DEPTH + "]" * DEPTH)
    return text.encode().replace(json.dumps(BAD_UTF8).encode(), b'"\xff\xfe"')


def reject_constant(name):
    raise AssertionError(f"stdout is not strict JSON: {name}")


def check_run(kind, text, tmp_path, capsys):
    """Run kind's command with text as kind's file and the other files valid;
    returns the exit code and the captured output."""
    names = {name: str(tmp_path / f"{name}.json") for name in (*VALID, "out")}
    for name, objs in VALID.items():
        with open(names[name], "wb") as fh:
            fh.write(file_bytes(text if name == kind else json.dumps(objs[0])))
    argv = [arg.format(**names) for arg in COMMANDS[kind]]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (EXIT_OK, EXIT_FAILED, EXIT_INPUT)
    assert not caught, [str(w.message) for w in caught]
    err = captured.err
    if err:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(("error: ", "invariant failed: ")), err
    if rc == EXIT_INPUT:
        assert captured.out == ""
    elif kind == "box":
        with open(names["out"]) as fh:
            for line in fh:
                json.loads(line, parse_constant=reject_constant)
    else:
        json.loads(captured.out, parse_constant=reject_constant)
    return rc, captured


FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def fuzz(kind):
    @FUZZ
    @given(text=mutated_files(kind))
    @example(text=json.dumps(DEEP))
    @example(text=json.dumps(BAD_UTF8))
    @example(text="[[], []]")
    @example(text="")
    def test(text, tmp_path, capsys):
        check_run(kind, text, tmp_path, capsys)

    return test


test_code_file_fuzz = fuzz("code")
test_embedding_file_fuzz = fuzz("embedding")
test_region_file_fuzz = fuzz("region")
test_box_file_fuzz = fuzz("box")
test_subdivide_spec_file_fuzz = fuzz("spec")


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_valid_files_exit_zero(kind, tmp_path, capsys):
    for obj in VALID[kind]:
        rc, captured = check_run(kind, json.dumps(obj), tmp_path, capsys)
        assert (rc, captured.err) == (EXIT_OK, "")


# numbers written as strings or booleans, which float() and np.asarray read
NUMBER_LIKE = {
    "embedding": {"dimension": 2, "coordinates": [["0", "0"], [True, False]]},
    "box": {"min": ["0", False], "max": [" 2 ", True]},
    "spec": {"box": {"min": [0, 0], "max": [20, 4]}, "masses": [{"point": ["10", True], "mass": 1}]},
}


@pytest.mark.parametrize("kind", sorted(NUMBER_LIKE))
def test_numbers_written_as_strings_or_booleans_exit_two(kind, tmp_path, capsys):
    rc, captured = check_run(kind, json.dumps(NUMBER_LIKE[kind]), tmp_path, capsys)
    assert rc == EXIT_INPUT
    assert captured.err.startswith(f"error: {kind if kind != 'spec' else 'subdivide spec'} file ")
