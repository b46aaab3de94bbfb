"""Command-line surface: JSON in, JSON out, deterministic seeds.

Exit codes: 0 = success (including unmet hypotheses, which are reported
as flags); 1 = a failed invariant or certification (stuck sweep, violated
lemma assertion); 2 = input or format errors.  ``main`` is the one place
that maps a rejected input to 2: a ``ValueError`` from ``_load`` (the one
reader of input files), a handler check or the library, or an ``OSError``
from writing a file, becomes one ``error: <message>`` line on stderr.

Each argv is parsed once: the subparser its first word names reads the
rest (``parse_args``), and the full parser runs only when that word names
no command.  JSON output is written by ``_dump`` in blocks of 1,024
pieces, and equals ``json.dumps(obj, sort_keys=True, indent=2,
allow_nan=False)`` and a newline byte for byte without the pure-Python
encoder that ``indent`` selects; certificates keep their compact
``json.dumps`` lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from typing import Callable, TypeVar

import numpy as np

from . import bounds as bounds_mod
from . import certify, families, geometry, regions
from .codes import SubsystemCode, distance, json_float, parameters

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2

T = TypeVar("T")


def _load(path: str, kind: str, build: Callable[[object], T]) -> T:
    """What build makes of the JSON file at path.  Each fault becomes one
    ``ValueError``: ``cannot read PATH``, ``malformed JSON in PATH`` (also
    for bytes that are not UTF-8 or nesting too deep) or ``KIND file PATH``
    with build's missing key or error."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"{kind} file {path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{kind} file {path}: {exc}") from None


def _embedding(obj: dict) -> geometry.Embedding:
    emb = geometry.Embedding.from_json(obj)
    geometry.check_spacing(emb)
    return emb


def _subdivide_spec(obj: dict) -> tuple[geometry.Box, geometry.MassMap]:
    box = geometry.Box.from_json(obj["box"])  # subdivide checks each mass
    return box, [
        (tuple(json_float(x, "mass point coordinate") for x in m["point"]), m["mass"])
        for m in obj["masses"]
    ]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_range_int(text: str) -> int:
    """An integer that a float can hold, as the engines take d as one."""
    try:
        value = int(text)
        float(value)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"expected an integer in float range, got {text!r}") from None
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


class _Output:
    """Text written to the file at path, or to stdout when there is none,
    within a ``with`` block; the file is opened on the first ``write``.

    An existing regular file is written over in place and, when the block
    ends without an error, cut to the written length, so it keeps its
    inode, mode and hard links, as with ``open(path, "w")``.  It is not
    truncated on open: ext4 starts writeback of a file truncated on open
    when it is closed (``auto_da_alloc``), and for a small command that
    costs more than the command's own work.  Other targets, such as
    ``/dev/null`` or a FIFO, cannot be truncated and are written as streams.
    """

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.file = None

    def write(self, text: str) -> None:
        if not self.path:
            sys.stdout.write(text)
            return
        if self.file is None:
            self.file = open(os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666), "w")
        self.file.write(text)

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, error: type | None, *_: object) -> None:
        if self.file is not None:
            with self.file as fh:
                if error is None and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()


def _write(text: str, path: str | None = None) -> None:
    """Write text to the file at path, or to stdout, as ``_Output`` does."""
    with _Output(path) as out:
        out.write(text)


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _key_text(key: object) -> str:
    """A dict key as the string ``json.dumps`` writes for it, found by
    json's order of checks."""
    for kind in (str, float, bool, type(None), int):
        if isinstance(key, kind):
            return key if kind is str else _LEAF_TEXT[kind](key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# exact leaf type -> its text; a subclass (a numpy float64) is found by isinstance
_LEAF_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


# pieces joined per write: an output of more is written in blocks
_BLOCK_PIECES = 1 << 10


def _json_parts(obj: object, indent: str, parts: list[str], flush: Callable[[], None]) -> None:
    """Append obj's pieces to parts; ``indent`` is a newline and the
    current level's spaces.  Each item's value follows its separator: the
    opening bracket or a comma, then the next level's newline and spaces
    (and a dict's key).  An item whose value has an exact leaf type is one
    piece, its separator and text, written in the loop; any other value
    is walked by a recursive call.  After each list item, ``flush`` is
    called once parts holds ``_BLOCK_PIECES`` pieces."""
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        return parts.append(leaf(obj))
    put = parts.append
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return put("[]")
        sep = "[" + inner
        for value in obj:
            leaf = _LEAF_TEXT.get(type(value))
            if leaf is not None:
                put(sep + leaf(value))
            else:
                put(sep)
                _json_parts(value, inner, parts, flush)
            sep = "," + inner
            if len(parts) >= _BLOCK_PIECES:
                flush()
        return put(indent + "]")
    if isinstance(obj, dict):
        if not obj:
            return put("{}")
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            head = sep + _encode_str(key if type(key) is str else _key_text(key)) + ": "
            leaf = _LEAF_TEXT.get(type(value))
            if leaf is not None:
                put(head + leaf(value))
            else:
                put(head)
                _json_parts(value, inner, parts, flush)
            sep = "," + inner
        return put(indent + "}")
    for kind in (str, int, float):  # subclasses of the leaf types, in json's order
        if isinstance(obj, kind):
            return put(_LEAF_TEXT[kind](obj))
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _dump(obj: dict, path: str | None = None) -> None:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` and a
    newline, byte for byte, written as ``_write`` writes.  CPython's C
    encoder ignores ``indent``, so one recursive walk (``_json_parts``)
    stands in for json's pure-Python one; a value json rejects raises
    json's error, ``TypeError`` for a type and ``ValueError`` for a NaN or
    infinite float, so stdout is always strict JSON.

    The pieces are joined and written in blocks of ``_BLOCK_PIECES``, so a
    lattice code's text is never held whole beside its encoded bytes.  An
    output of fewer pieces is one write, made only after its whole text,
    so a value json rejects leaves it unwritten.
    """
    with _Output(path) as out:
        parts: list[str] = []

        def flush() -> None:
            out.write("".join(parts))
            parts.clear()

        _json_parts(obj, "\n", parts, flush)
        parts.append("\n")
        flush()


def _emit_certificate(cert: certify.Certificate, path: str | None) -> None:
    """The certificate as JSON lines to path, if given; its trace to stdout."""
    if path:
        _write(cert.to_json_lines(), path)
    print(cert.trace())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_params(args: argparse.Namespace) -> int:
    p = parameters(_load(args.code, "code", SubsystemCode.from_json))
    _dump({"n": p.n, "k": p.k, "g": p.g, "s": p.s})
    print(f"n={p.n} k={p.k} g={p.g} s={p.s}", file=sys.stderr)
    return EXIT_OK


def _cmd_distance(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json)
    res = distance(code, weight_cap=args.weight_cap)
    _dump({"distance": res.value, "weight_cap": res.weight_cap, "is_lower_bound": res.is_lower_bound})
    return EXIT_OK


def _cmd_interactions(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json)
    emb = _load(args.embedding, "embedding", _embedding)
    ints = geometry.extract_interactions(code, emb)
    out = ints.to_json()
    if args.ell is not None:
        m, f = geometry.count_long(ints, args.ell)
        out["ell"] = args.ell
        out["long_count"] = m
        bad = [q for q, v in f.items() if v]
        out["f_per_qubit"] = {str(q): f[q] for q in bad}
        out["bad_qubits"] = bad
    _dump(out, args.out)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = bounds_mod.class_bounds(
        args.code_class, args.n, args.k, args.d, args.dimension, mode=args.mode
    )
    _dump(report.to_json(), args.out)
    return EXIT_OK


def _cmd_check_region(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json)
    emb = _load(args.embedding, "embedding", _embedding) if args.embedding else None
    reg = _load(args.region, "region", lambda obj: regions.region_from_json(obj, emb))
    if not (args.correctable or args.cleanable):
        raise ValueError("pass --correctable and/or --cleanable")
    out: dict = {"qubits": sorted(reg)}
    if args.correctable:
        out["correctable"] = regions.is_correctable(code, reg)
    if args.cleanable:
        out["dressed_cleanable"] = regions.is_dressed_cleanable(code, reg)
    _dump(out, args.out)
    return EXIT_OK


def _cmd_tile(args: argparse.Namespace) -> int:
    emb = _load(args.embedding, "embedding", _embedding)
    points = emb.coordinates
    tiling = geometry.find_tiling(points, points, args.w, args.ell, emb.dimension, seed=args.seed)
    report = geometry.verify_tiling(tiling, points, points, args.ell)
    _dump({"tiling": tiling.to_json(), "report": report}, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAILED


def _cmd_subdivide(args: argparse.Namespace) -> int:
    box, masses = _load(args.spec, "subdivide spec", _subdivide_spec)
    boxes = geometry.subdivide(box, masses, args.ell, args.d1)
    _dump({"boxes": [b.to_json() for b in boxes]}, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json) if args.code else None
    emb = _load(args.embedding, "embedding", _embedding)
    mode = "verified" if args.verified else "strict"
    ints = (
        geometry.extract_interactions(code, emb)
        if code is not None
        else geometry.InteractionSet(emb.n, np.empty((0, 2), dtype=np.intp), np.empty(0))
    )
    cert = certify.expansion_sweep(emb, ints, args.ell, args.tau, args.d, mode=mode, code=code)
    _emit_certificate(cert, args.out)
    return EXIT_OK if cert.certified or cert.outcome == certify.OUTCOME_VIOLATED else EXIT_FAILED


def _cmd_holographic(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json)
    emb = _load(args.embedding, "embedding", _embedding)
    box = _load(args.box, "box", geometry.Box.from_json)
    mode = "verified" if args.verified else "strict"
    cert = certify.holographic_certify(code, emb, box, args.ell, mode=mode, d=args.d)
    _emit_certificate(cert, args.out)
    return EXIT_FAILED if cert.outcome == certify.OUTCOME_STUCK else EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json)
    emb = _load(args.embedding, "embedding", _embedding)
    parts, cert = certify.theorem_partition_builder(
        code, emb, args.ell, args.variant, seed=args.seed, verify=not args.no_verify
    )
    _dump({"partition": {"parts": parts}, "certificate": cert.metadata}, args.out)
    return EXIT_OK if cert.outcome != certify.OUTCOME_STUCK else EXIT_FAILED


# family name -> builder of the embedded code from --size; each looks its
# family function up at call time, so a patched one (a profiler's) is used
_FAMILIES = {
    "bacon_shor": lambda size: families.bacon_shor(size),
    "surface": lambda size: families.surface_code(size),
    "steane": lambda size: families.small_inner_codes("steane"),
    "five_one_three": lambda size: families.small_inner_codes("five_one_three"),
    "repetition": lambda size: families.small_inner_codes("repetition", r=size),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    ec = _FAMILIES[args.family](args.size)
    _dump(ec.code.to_json(), args.out_code)
    _dump(ec.embedding.to_json(), args.out_embedding)
    return EXIT_OK


def _cmd_concat(args: argparse.Namespace) -> int:
    inner_code = _load(args.inner_code, "code", SubsystemCode.from_json)
    inner_emb = _load(args.inner_embedding, "embedding", _embedding)
    outer_code = _load(args.outer_code, "code", SubsystemCode.from_json)
    outer_emb = _load(args.outer_embedding, "embedding", _embedding)
    inner = families.EmbeddedCode(inner_code, inner_emb, "inner", {})
    outer = families.EmbeddedCode(outer_code, outer_emb, "outer", {})
    ec = families.build_concat_embedding(inner, outer, args.ell_target, args.ell2)
    _dump(ec.code.to_json(), args.out_code)
    _dump(ec.embedding.to_json(), args.out_embedding)
    _dump(ec.params, args.out_report)
    return EXIT_OK


def _cmd_saturation(args: argparse.Namespace) -> int:
    code = _load(args.code, "code", SubsystemCode.from_json)
    ec = families.EmbeddedCode(code, _load(args.embedding, "embedding", _embedding), "file", {})
    report = families.saturation_report(ec, code_class=args.code_class, weight_cap=args.weight_cap)
    _dump(report.to_json(), args.out)
    return EXIT_OK


def _cmd_contours(args: argparse.Namespace) -> int:
    table = bounds_mod.emit_contours(args.dimension, args.code_class, args.grid_step)
    if args.csv:
        _write(table.to_csv(), args.out)
    else:
        _dump(table.to_json(), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser tree, built on first use and shared by every ``main`` call.

    Reuse is safe because argparse keeps no per-parse state on the parser:
    each ``parse_args`` fills a fresh ``Namespace``.  ``parser.commands``
    maps each command name to its subparser.
    """
    parser = argparse.ArgumentParser(
        prog="qlocality",
        description="Locality analysis of subsystem and stabilizer codes embedded in R^D",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("params", help="code parameters (n, k, g, s) from a code file")
    p.add_argument("code")
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("distance", help="the exact distance d, or > cap, from the code's solver")
    p.add_argument("code")
    p.add_argument("--weight-cap", type=_non_negative_int, default=None)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("interactions", help="interaction set from code + embedding")
    p.add_argument("code")
    p.add_argument("embedding")
    p.add_argument("--ell", type=_finite_float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_interactions)

    p = sub.add_parser("bounds", help="evaluate M* and ell*")
    p.add_argument("--class", dest="code_class", choices=bounds_mod.CLASS_EXPONENTS, required=True)
    p.add_argument("--mode", choices=("asymptotic", "explicit"), default="asymptotic")
    p.add_argument("-n", type=_finite_float, required=True)
    p.add_argument("-k", type=_finite_float, required=True)
    p.add_argument("-d", type=_finite_float, required=True)
    p.add_argument("-D", dest="dimension", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("check-region", help="correctability / cleanability of a region")
    p.add_argument("code")
    p.add_argument("region")
    p.add_argument("--embedding", default=None)
    p.add_argument("--correctable", action="store_true")
    p.add_argument("--cleanable", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check_region)

    p = sub.add_parser("tile", help="find a grid tiling for the embedding's points")
    p.add_argument("embedding")
    p.add_argument("--w", type=_finite_float, required=True)
    p.add_argument("--ell", type=_finite_float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_tile)

    p = sub.add_parser("subdivide", help="split a box into light or short slabs")
    p.add_argument("spec", help="JSON file with 'box' and 'masses'")
    p.add_argument("--ell", type=_finite_float, required=True)
    p.add_argument("--d1", type=_finite_float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_subdivide)

    p = sub.add_parser("sweep", help="run the expansion sweep")
    p.add_argument("embedding")
    p.add_argument("--code", default=None)
    p.add_argument("--ell", type=_finite_float, required=True)
    p.add_argument("--tau", type=_finite_float, required=True)
    p.add_argument("--d", type=_float_range_int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strict", action="store_true")
    group.add_argument("--verified", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("holographic", help="holographic cube certification")
    p.add_argument("code")
    p.add_argument("embedding")
    p.add_argument("--box", required=True, help="JSON file with min/max corners")
    p.add_argument("--ell", type=_finite_float, required=True)
    p.add_argument("--d", type=_float_range_int, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strict", action="store_true")
    group.add_argument("--verified", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_holographic)

    p = sub.add_parser("partition", help="build a theorem's qubit partition")
    p.add_argument("code")
    p.add_argument("embedding")
    p.add_argument("--ell", type=_finite_float, required=True)
    p.add_argument("--variant", choices=("thm3_2", "thm5_1_case1", "thm5_1_case2"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser("construct", help="emit a built-in family's code + embedding")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--out-code", default=None)
    p.add_argument("--out-embedding", default=None)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("concat", help="concatenate two embedded codes")
    p.add_argument("--inner-code", required=True)
    p.add_argument("--inner-embedding", required=True)
    p.add_argument("--outer-code", required=True)
    p.add_argument("--outer-embedding", required=True)
    p.add_argument("--ell-target", type=_finite_float, required=True)
    p.add_argument("--ell2", type=_finite_float, default=None)
    p.add_argument("--out-code", default=None)
    p.add_argument("--out-embedding", default=None)
    p.add_argument("--out-report", default=None)
    p.set_defaults(fn=_cmd_concat)

    p = sub.add_parser("saturation", help="measured locality vs the asymptotic ell*")
    p.add_argument("code")
    p.add_argument("embedding")
    p.add_argument("--class", dest="code_class", choices=bounds_mod.CLASS_EXPONENTS, default="subsystem")
    p.add_argument("--weight-cap", type=_non_negative_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_saturation)

    p = sub.add_parser("contours", help="exponent-space contour table")
    p.add_argument("--D", dest="dimension", type=int, required=True)
    p.add_argument("--class", dest="code_class", choices=bounds_mod.CLASS_EXPONENTS, required=True)
    p.add_argument("--grid-step", type=_finite_float, default=0.1)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_contours)

    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed in one pass: the subparser that argv[0] names reads
    argv[1:], as the full parser would hand them on, and the namespace gets
    the same ``command``.  Only an argv whose first word names no command
    (none, ``-h`` or a typo) goes through the full parser."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
