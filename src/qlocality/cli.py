"""Command-line surface: JSON in, JSON out, deterministic seeds.

Exit codes: 0 = success (including unmet hypotheses, which are reported
as flags); 1 = a failed invariant or certification (stuck sweep, violated
lemma assertion); 2 = input or format errors.  ``main`` is the one place
that maps a rejected input to 2: a ``ValueError`` from a loader, a
handler check or the library, or an ``OSError`` from reading or writing a
file, becomes one ``error: <message>`` line on stderr.

Each argv is parsed once: the subparser its first word names reads the
rest (``parse_args``), and the full parser runs only when that word names
no command.  JSON output is written by ``_json_text``, whose text equals
``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte without the
pure-Python encoder that ``indent`` selects; certificates keep their
compact ``json.dumps`` lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from typing import Callable

import numpy as np

from . import bounds as bounds_mod
from . import certify, families, geometry, regions
from .codes import SubsystemCode, distance, json_int, parameters

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None


def _load_code(path: str) -> SubsystemCode:
    return SubsystemCode.from_json(_load_json(path))


def _load_embedding(path: str) -> geometry.Embedding:
    obj = _load_json(path)
    try:
        emb = geometry.Embedding.from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed embedding file {path}: {exc}") from None
    close = geometry.validate_embedding(emb)
    if close:
        i, j, dist = close[0]
        raise ValueError(f"embedding file {path} places qubits {i} and {j} at distance {dist:g} < 1")
    return emb


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _write(text: str, path: str | None = None) -> None:
    """Write text to the file at path, or to stdout when there is none.

    An existing regular file is written over in place and then cut to the
    text's length, so it keeps its inode, mode and hard links, as with
    ``open(path, "w")``.  It is not truncated on open: ext4 starts writeback
    of a file truncated on open when it is closed (``auto_da_alloc``), and
    for a small command that costs more than the command's own work.  Other
    targets, such as ``/dev/null`` or a FIFO, cannot be truncated and are
    written as streams.
    """
    if path:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        print(text, end="")


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


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


def _json_text(obj: object) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    CPython's C encoder ignores ``indent``, so ``json.dumps`` would run its
    pure-Python generator encoder.  Here one recursive walk puts the text's
    pieces in a list that is joined once: leaves go through
    ``int.__repr__``, ``float.__repr__`` (``NaN``, ``Infinity`` and
    ``-Infinity`` as json writes them) and ``encode_basestring_ascii``,
    tuples are written as lists, dict items are sorted as json sorts them,
    and a value json rejects raises the same ``TypeError``.
    """
    parts: list[str] = []
    _json_parts(obj, "\n", parts.append)
    return "".join(parts)


def _json_parts(obj: object, indent: str, put: Callable[[str], None]) -> None:
    """Put obj's pieces; ``indent`` is a newline and the current level's
    spaces.  Each item's value follows its separator: the opening bracket
    or a comma, then the next level's newline and spaces (and a dict's
    key)."""
    leaf = _LEAF_TEXT.get(type(obj))
    if leaf is not None:
        return put(leaf(obj))
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return put("[]")
        sep = "[" + inner
        for value in obj:
            put(sep)
            sep = "," + inner
            _json_parts(value, inner, put)
        return put(indent + "]")
    if isinstance(obj, dict):
        if not obj:
            return put("{}")
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            put(sep + _encode_str(key if type(key) is str else _key_text(key)) + ": ")
            sep = "," + inner
            _json_parts(value, inner, put)
        return put(indent + "}")
    for kind in (str, int, float):  # subclasses of the leaf types, in json's order
        if isinstance(obj, kind):
            return put(_LEAF_TEXT[kind](obj))
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _dump(obj: dict, path: str | None = None) -> None:
    _write(_json_text(obj) + "\n", path)


def _emit_certificate(cert: certify.Certificate, path: str | None) -> None:
    """The certificate as JSON lines to path, if given; its trace to stdout."""
    if path:
        _write(cert.to_json_lines(), path)
    print(cert.trace())


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_params(args: argparse.Namespace) -> int:
    p = parameters(_load_code(args.code))
    _dump({"n": p.n, "k": p.k, "g": p.g, "s": p.s})
    print(f"n={p.n} k={p.k} g={p.g} s={p.s}", file=sys.stderr)
    return EXIT_OK


def _cmd_distance(args: argparse.Namespace) -> int:
    res = distance(_load_code(args.code), weight_cap=args.weight_cap)
    _dump({"distance": res.value, "weight_cap": res.weight_cap, "is_lower_bound": res.is_lower_bound})
    return EXIT_OK


def _cmd_interactions(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    emb = _load_embedding(args.embedding)
    ints = geometry.extract_interactions(code, emb)
    out = ints.to_json()
    if args.ell is not None:
        m, f = geometry.count_long(ints, args.ell)
        out["ell"] = args.ell
        out["long_count"] = m
        out["f_per_qubit"] = {str(q): v for q, v in sorted(f.items()) if v}
        out["bad_qubits"] = sorted(ints.bad_qubits(args.ell))
    _dump(out, args.out)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = bounds_mod.class_bounds(
        args.code_class, args.n, args.k, args.d, args.dimension, mode=args.mode
    )
    _dump(report.to_json(), args.out)
    return EXIT_OK


def _cmd_check_region(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    emb = _load_embedding(args.embedding) if args.embedding else None
    obj = _load_json(args.region)
    try:
        reg = regions.region_from_json(obj, emb)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed region file {args.region}: {exc!r}") from None
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
    emb = _load_embedding(args.embedding)
    points = emb.coordinates
    tiling = geometry.find_tiling(points, points, args.w, args.ell, emb.dimension, seed=args.seed)
    report = geometry.verify_tiling(tiling, points, points, args.ell)
    _dump({"tiling": tiling.to_json(), "report": report}, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAILED


def _cmd_subdivide(args: argparse.Namespace) -> int:
    obj = _load_json(args.spec)
    try:
        box = geometry.Box.from_json(obj["box"])
        masses = [
            (tuple(float(x) for x in m["point"]), json_int(m["mass"], "mass"))
            for m in obj["masses"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed subdivide spec: {exc}") from None
    boxes = geometry.subdivide(box, masses, args.ell, args.d1)
    _dump({"boxes": [b.to_json() for b in boxes]}, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    code = _load_code(args.code) if args.code else None
    emb = _load_embedding(args.embedding)
    mode = "verified" if args.verified else "strict"
    if code is None and mode == "verified":
        raise ValueError("verified mode needs a code file")
    ints = (
        geometry.extract_interactions(code, emb)
        if code is not None
        else geometry.InteractionSet(
            emb.n, np.empty((0, 2), dtype=np.intp), np.empty(0), np.empty(0, dtype=np.intp)
        )
    )
    cert = certify.expansion_sweep(emb, ints, args.ell, args.tau, args.d, mode=mode, code=code)
    _emit_certificate(cert, args.out)
    return EXIT_OK if cert.certified or cert.outcome == certify.OUTCOME_VIOLATED else EXIT_FAILED


def _cmd_holographic(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    emb = _load_embedding(args.embedding)
    obj = _load_json(args.box)
    try:
        box = geometry.Box.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed box file {args.box}: {exc}") from None
    mode = "verified" if args.verified else "strict"
    cert = certify.holographic_certify(code, emb, box, args.ell, mode=mode, d=args.d)
    _emit_certificate(cert, args.out)
    return EXIT_FAILED if cert.outcome == certify.OUTCOME_STUCK else EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    emb = _load_embedding(args.embedding)
    partition, cert = certify.theorem_partition_builder(
        code, emb, args.ell, args.variant, seed=args.seed, verify=not args.no_verify
    )
    _dump({"partition": partition.to_json(), "certificate": cert.metadata}, args.out)
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
    inner_code = _load_code(args.inner_code)
    inner_emb = _load_embedding(args.inner_embedding)
    outer_code = _load_code(args.outer_code)
    outer_emb = _load_embedding(args.outer_embedding)
    inner = families.EmbeddedCode(inner_code, inner_emb, "inner", {})
    outer = families.EmbeddedCode(outer_code, outer_emb, "outer", {})
    plan = families.ConcatPlan(inner=inner, outer=outer, ell_target=args.ell_target, ell2=args.ell2)
    ec = families.build_concat_embedding(plan)
    _dump(ec.code.to_json(), args.out_code)
    _dump(ec.embedding.to_json(), args.out_embedding)
    _dump(ec.params, args.out_report)
    return EXIT_OK


def _cmd_saturation(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    ec = families.EmbeddedCode(code, _load_embedding(args.embedding), "file", {})
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

    p = sub.add_parser("distance", help="distance by depth-first region search")
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
    p.add_argument("--d", type=int, required=True)
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
    p.add_argument("--d", type=int, default=None)
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
