"""The four benchmark workloads and the verdict oracle that checks them.

A workload turns a seed into inputs (``setup``) and returns the fixed list
of ops one pass runs (``ops``).  An op is one call into qlocality plus a
check of its verdict against a known answer: the table in ``answers.json``,
the closed-form Bacon-Shor rule, the closed-form interaction count, the
postconditions of ``subdivide``/``verify_tiling``, or a pinned SHA-256
digest of a certificate or of a CLI call's output.  The program only ever
sees the generated inputs.

All library calls go through module attributes (``families.bacon_shor``,
not an imported name) so that the tracer in ``spans.py`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from qlocality import certify, cli, codes, families, geometry, regions

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"


def load_answers() -> dict:
    return json.loads(ANSWERS.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One program call and the check of its verdict."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class State:
    """Seeded inputs of one workload, plus per-pass counts (cli byte totals)."""

    inputs: Any
    answers: dict
    counts: Counter = field(default_factory=Counter)
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# exact-search: cold-code distance() against known answers


# label -> (gauge generators' source, outer code of a concatenation or None,
# weight cap); answers.json holds the expected DistanceResult.describe()
EXACT_CODES = {
    "bacon_shor-3": (("bacon_shor", 3), None, None),
    "bacon_shor-4": (("bacon_shor", 4), None, None),
    "bacon_shor-5-cap2": (("bacon_shor", 5), None, 2),
    "bacon_shor-6-cap2": (("bacon_shor", 6), None, 2),
    "surface-3": (("surface", 3), None, None),
    "surface-4-cap2": (("surface", 4), None, 2),
    "steane": (("steane", None), None, None),
    "five_one_three": (("five_one_three", None), None, None),
    "concat-513-bs2-cap2": (("five_one_three", None), ("bacon_shor", 2), 2),
    "concat-steane-bs2-cap2": (("steane", None), ("bacon_shor", 2), 2),
}
EXACT_SIZES = {
    "full": list(EXACT_CODES),
    "tiny": ["bacon_shor-3", "surface-3", "steane", "five_one_three", "concat-513-bs2-cap2"],
}


def code_json(family: str, size: int | None) -> dict:
    """Gauge generators of a built-in code, as the JSON a code file holds."""
    if family == "bacon_shor":
        ec = families.bacon_shor(size)
    elif family == "surface":
        ec = families.surface_code(size)
    else:
        ec = families.small_inner_codes(family, r=size)
    return ec.code.to_json()


def exact_setup(seed: int, size: str, workdir: Path) -> State:
    """Generator lists are made here; each op parses its code afresh, so
    every distance() call starts from cold caches and touches no geometry."""
    labels = list(EXACT_SIZES[size])
    random.Random(seed).shuffle(labels)
    inputs = []
    for label in labels:
        inner, outer, cap = EXACT_CODES[label]
        inputs.append((label, code_json(*inner), outer and code_json(*outer), cap))
    return State(inputs=inputs, answers=load_answers()["exact-search"])


def exact_distance(inner: dict, outer: dict | None, cap: int | None):
    code = codes.SubsystemCode.from_json(inner)
    if outer is not None:
        code = families.concatenate(code, codes.SubsystemCode.from_json(outer))
    return codes.distance(code, weight_cap=cap)


def exact_ops(state: State) -> list[Op]:
    ops = []
    for label, inner, outer, cap in state.inputs:
        expected = state.answers[label]
        ops.append(
            Op(
                label,
                lambda inner=inner, outer=outer, cap=cap: exact_distance(inner, outer, cap),
                lambda res, expected=expected: res.describe() == expected,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# oracle-queries: warm, large region queries on Bacon-Shor codes


ORACLE_SIZES = {"full": ((12, 14, 16), 18), "tiny": ((4, 5, 6), 6)}
REGION_KINDS = ("subgrid", "column-cover", "row-plus")


def bs_correctable(m: int, u: frozenset[int]) -> bool:
    """Closed form: U is correctable iff it misses some row and some column."""
    return len({q // m for q in u}) < m and len({q % m for q in u}) < m


def bs_cleanable(m: int, u: frozenset[int]) -> bool:
    """Closed form: U is dressed-cleanable iff it holds no full row or column."""
    rows, cols = Counter(q // m for q in u), Counter(q % m for q in u)
    return max(rows.values(), default=0) < m and max(cols.values(), default=0) < m


def bs_region(rng: random.Random, m: int, kind: str) -> frozenset[int]:
    """A region of m*m//3 qubits of the given kind on the m x m grid."""
    size = m * m // 3
    if kind == "subgrid":
        r0, c0 = rng.randrange(2), rng.randrange(2)
        cells = [(r0 + r) * m + c0 + c for r in range(m - 1) for c in range(m - 1)]
        return frozenset(rng.sample(cells, size))
    if kind == "column-cover":
        seed_cells = {rng.randrange(m) * m + c for c in range(m)}
    else:  # row-plus
        row = rng.randrange(m)
        seed_cells = {row * m + c for c in range(m)}
    rest = [q for q in range(m * m) if q not in seed_cells]
    return frozenset(seed_cells | set(rng.sample(rest, size - len(seed_cells))))


def oracle_setup(seed: int, size: str, workdir: Path) -> State:
    sizes, per_code = ORACLE_SIZES[size]
    bs = {m: families.bacon_shor(m).code for m in sizes}
    for code in bs.values():
        codes.parameters(code)  # warm the gauge and stabilizer caches
    rng = random.Random(seed)
    stream = []
    for i in range(per_code):
        kind = REGION_KINDS[i % 3]
        oracle = "cleanable" if (i // 3) % 3 == 2 else "correctable"
        for m in sizes:
            stream.append((m, kind, oracle, bs_region(rng, m, kind)))
    return State(inputs=(bs, stream), answers={})


def oracle_ops(state: State) -> list[Op]:
    bs, stream = state.inputs
    ops = []
    for m, kind, oracle, u in stream:
        if oracle == "correctable":
            call = lambda code=bs[m], u=u: regions.is_correctable(code, u)
            expected = bs_correctable(m, u)
        else:
            call = lambda code=bs[m], u=u: regions.is_dressed_cleanable(code, u)
            expected = bs_cleanable(m, u)
        ops.append(Op(f"bacon_shor-{m} {oracle} {kind}", call, lambda v, e=expected: v == e))
    return ops


# ---------------------------------------------------------------------------
# geometry-scale: strict engines at large n, no oracle


@dataclass(frozen=True)
class GeometryInput:
    label: str
    dim: int
    side: int  # lattice side: m for Bacon-Shor, r ** (1/3) for repetition
    tau: float
    sweep_d: int
    ell: float = 1.5

    def build(self):
        if self.dim == 2:
            return families.bacon_shor(self.side)
        return families.small_inner_codes("repetition", r=self.side**3, dim=3)


GEOMETRY_SIZES = {
    "full": (
        GeometryInput("bacon_shor-12", 2, 12, tau=37, sweep_d=120),
        GeometryInput("bacon_shor-16", 2, 16, tau=49, sweep_d=160),
        GeometryInput("repetition-216-3d", 3, 6, tau=116, sweep_d=324),
        GeometryInput("repetition-343-3d", 3, 7, tau=155, sweep_d=514),
    ),
    "tiny": (
        GeometryInput("bacon_shor-6", 2, 6, tau=19, sweep_d=60),
        GeometryInput("repetition-27-3d", 3, 3, tau=35, sweep_d=200),
    ),
}
SUBDIVIDE_MAPS = 3
SUBDIVIDE_ELL = 1.0


def holographic_d(side: float, ell: float, dim: int) -> int:
    """Smallest d that meets strict mode's width and ell preconditions.

    Inverts w0 = (vol_D / (2 * 4^(D+1) * D) * d / ell)^(1/(D-1)) >= side and
    ell <= d^(1/D) / (8 sqrt(D)), so strict mode replays the cube ladder on
    the whole box instead of refusing it.
    """
    vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    width = side ** (dim - 1) * ell * 2.0 * 4.0 ** (dim + 1) * dim / vol
    cap = (8.0 * math.sqrt(dim) * ell) ** dim
    return math.ceil(max(width, cap)) + 1


def lattice_point(idx: int, side: int, dim: int) -> tuple[float, ...]:
    return tuple(float(idx // side**a % side) for a in range(dim))


def interactions_ok(inp: GeometryInput, ints) -> bool:
    """Closed form: Bacon-Shor has 2m(m-1) unit pairs; the repetition chain
    has the r-1 pairs (i, i+1) with their row-major lattice distances."""
    if inp.dim == 2:
        m = inp.side
        return len(ints.pairs) == 2 * m * (m - 1) and all(p[2] == 1.0 for p in ints.pairs)
    r = inp.side**3
    if [(i, j) for i, j, _ in ints.pairs] != [(i, i + 1) for i in range(r - 1)]:
        return False
    return all(
        math.isclose(
            length,
            math.dist(lattice_point(i, inp.side, 3), lattice_point(i + 1, inp.side, 3)),
            rel_tol=1e-12,
        )
        for i, _, length in ints.pairs
    )


def subdivide_ok(box, masses, ell: float, d1: float, boxes) -> bool:
    """Postconditions of subdivide: the slabs tile box along x_1, each is at
    least 5*ell high, and each is light (mass <= d1) or short (<= 10*ell)."""
    lo, hi = box.mins[0], box.maxs[0]
    if not boxes or boxes[0].mins[0] != lo or boxes[-1].maxs[0] != hi:
        return False
    for a, b in zip(boxes, boxes[1:]):
        if a.maxs[0] != b.mins[0]:
            return False
    for i, bx in enumerate(boxes):
        if bx.mins[1:] != box.mins[1:] or bx.maxs[1:] != box.maxs[1:]:
            return False
        height = bx.maxs[0] - bx.mins[0]
        if height < 5 * ell - 1e-9:
            return False
        top = i == len(boxes) - 1
        mass = sum(
            m for p, m in masses if bx.mins[0] <= p[0] < bx.maxs[0] or (top and p[0] == hi)
        )
        if mass > d1 and height > 10 * ell + 1e-9:
            return False
    return True


def geometry_setup(seed: int, size: str, workdir: Path) -> State:
    rng = random.Random(seed)
    inputs = []
    for inp in GEOMETRY_SIZES[size]:
        n = inp.side**inp.dim
        pts = [lattice_point(q, inp.side, inp.dim) for q in range(n)]
        box = geometry.Box(
            tuple(min(c) - 2.0 for c in zip(*pts)), tuple(max(c) + 2.0 for c in zip(*pts))
        )
        maps = []
        for _ in range(SUBDIVIDE_MAPS):
            chosen = rng.sample(range(n), max(1, n // 4))
            masses = [(pts[q], rng.randint(1, 3)) for q in sorted(chosen)]
            d1 = sum(m for _, m in masses) / 6.0
            maps.append((masses, d1))
        inputs.append((inp, box, maps, rng.randrange(2**31)))
    answers = load_answers()["geometry-scale"]
    return State(inputs=inputs, answers=answers)


def _cert_check(expected: str):
    def check(cert) -> bool:
        return cert.certified and sha256(cert.to_json_lines().encode()) == expected

    return check


def geometry_ops(state: State) -> list[Op]:
    ops = []
    for inp, box, maps, tile_seed in state.inputs:
        ctx: dict = {}
        pinned = state.answers[inp.label]

        def construct(inp=inp, ctx=ctx):
            ctx["ec"] = inp.build()
            return ctx["ec"]

        def interactions(ctx=ctx):
            ec = ctx["ec"]
            ctx["ints"] = geometry.extract_interactions(ec.code, ec.embedding)
            return ctx["ints"]

        def tiling(inp=inp, ctx=ctx, seed=tile_seed):
            pts = [tuple(p) for p in ctx["ec"].embedding.coordinates]
            w = 12.0 * inp.ell * inp.dim
            til = geometry.find_tiling(pts, pts, w, inp.ell, inp.dim, seed=seed)
            return til, geometry.verify_tiling(til, pts, pts, inp.ell)

        def sweep(inp=inp, ctx=ctx):
            ec = ctx["ec"]
            return certify.expansion_sweep(
                ec.embedding, ctx["ints"], inp.ell, inp.tau, inp.sweep_d
            )

        def holographic(inp=inp, ctx=ctx):
            ec = ctx["ec"]
            lo, hi = ec.embedding.coordinates.min(axis=0), ec.embedding.coordinates.max(axis=0)
            full = geometry.Box(tuple(map(float, lo)), tuple(map(float, hi)))
            d = holographic_d(max(full.side_lengths), inp.ell, inp.dim)
            return certify.holographic_certify(ec.code, ec.embedding, full, inp.ell, d=d)

        ops.append(Op(f"{inp.label} construct", construct, lambda ec, n=inp.side**inp.dim: ec.code.n == n))
        ops.append(Op(f"{inp.label} interactions", interactions, lambda s, inp=inp: interactions_ok(inp, s)))
        ops.append(Op(f"{inp.label} tiling", tiling, lambda r: r[1]["ok"] is True))
        for k, (masses, d1) in enumerate(maps):
            ops.append(
                Op(
                    f"{inp.label} subdivide-{k}",
                    lambda box=box, masses=masses, d1=d1: geometry.subdivide(
                        box, masses, SUBDIVIDE_ELL, d1
                    ),
                    lambda boxes, box=box, masses=masses, d1=d1: subdivide_ok(
                        box, masses, SUBDIVIDE_ELL, d1, boxes
                    ),
                )
            )
        ops.append(Op(f"{inp.label} sweep", sweep, _cert_check(pinned["sweep"])))
        ops.append(Op(f"{inp.label} holographic", holographic, _cert_check(pinned["holographic"])))
    return ops


# ---------------------------------------------------------------------------
# cli-pipeline: in-process cli.main(argv) with pinned exit codes and digests


OUT_FLAGS = ("--out", "--out-code", "--out-embedding", "--out-report")

# (label, family, size, is a stabilizer code that takes the thm5_1 variants)
CLI_CODES = (
    ("bacon_shor-3", "bacon_shor", 3, False),
    ("surface-3", "surface", 3, True),
    ("steane", "steane", 3, True),
    ("five_one_three", "five_one_three", 3, False),
    ("repetition-5", "repetition", 5, False),
)
CLI_SIZES = {"full": [c[0] for c in CLI_CODES], "tiny": ["bacon_shor-3"]}


def cli_chain(label: str, family: str, size: int, stabilizer: bool) -> list[tuple[str, list[str]]]:
    """Commands on one code; each reloads the code from the files construct wrote."""
    c, e, box = f"{label}.code.json", f"{label}.emb.json", f"{label}.box.json"
    cmds = [
        ("construct", ["construct", "--family", family, "--size", str(size),
                       "--out-code", c, "--out-embedding", e]),
        ("params", ["params", c]),
        ("distance", ["distance", c]),
        ("interactions", ["interactions", c, e, "--ell", "1.0", "--out", f"{label}.ints.json"]),
        ("saturation", ["saturation", c, e]),
        ("partition thm3_2", ["partition", c, e, "--ell", "1.0", "--variant", "thm3_2"]),
    ]
    if stabilizer:
        for v in ("thm5_1_case1", "thm5_1_case2"):
            cmds.append((f"partition {v}", ["partition", c, e, "--ell", "1.0", "--variant", v]))
    cmds += [
        # a k >= 1 code cannot be certified whole, so the verified sweep ends
        # stuck (exit 1) at a pinned step
        ("sweep verified", ["sweep", e, "--code", c, "--verified", "--ell", "1.0",
                            "--tau", "3", "--d", "3", "--out", f"{label}.sweep.jsonl"]),
        ("holographic verified", ["holographic", c, e, "--box", box, "--verified",
                                  "--ell", "0.5", "--out", f"{label}.holo.jsonl"]),
        ("tile", ["tile", e, "--w", "16", "--ell", "1.0", "--seed", "0"]),
    ]
    return [(f"{label} {name}", argv) for name, argv in cmds]


def cli_commands(size: str, seed: int) -> list[tuple[str, list[str]]]:
    chains = [cli_chain(*c) for c in CLI_CODES if c[0] in CLI_SIZES[size]]
    random.Random(seed).shuffle(chains)
    cmds = [cmd for chain in chains for cmd in chain]
    if size == "full":
        cmds += [
            ("concat outer construct", ["construct", "--family", "bacon_shor", "--size", "2",
                                        "--out-code", "bs2.code.json", "--out-embedding", "bs2.emb.json"]),
            ("concat", ["concat", "--inner-code", "five_one_three.code.json",
                        "--inner-embedding", "five_one_three.emb.json",
                        "--outer-code", "bs2.code.json", "--outer-embedding", "bs2.emb.json",
                        "--ell-target", "24", "--out-code", "cc.code.json",
                        "--out-embedding", "cc.emb.json", "--out-report", "cc.report.json"]),
            ("concat saturation", ["saturation", "cc.code.json", "cc.emb.json", "--weight-cap", "2"]),
        ]
    cmds += [
        ("bounds subsystem", ["bounds", "--class", "subsystem", "-n", "1e6", "-k", "1e4",
                              "-d", "1e3", "-D", "2"]),
        ("bounds projector", ["bounds", "--class", "projector", "--mode", "explicit",
                              "-n", "1e6", "-k", "1e4", "-d", "1e3", "-D", "3"]),
        ("contours", ["contours", "--D", "2", "--class", "subsystem", "--grid-step", "0.1"]),
        ("contours csv", ["contours", "--D", "3", "--class", "projector", "--csv"]),
    ]
    return cmds


@dataclass
class CliResult:
    exit_code: int
    stdout: str


def cli_setup(seed: int, size: str, workdir: Path) -> State:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for label, *_ in CLI_CODES:
        # a two-qubit corner box, small enough for every d >= 3 code to certify
        (workdir / f"{label}.box.json").write_text(json.dumps({"min": [0.0, 0.0], "max": [1.0, 0.0]}))
    cmds = [(label, [str(workdir / a) if a.endswith((".json", ".jsonl")) else a for a in argv])
            for label, argv in cli_commands(size, seed)]
    return State(
        inputs=cmds,
        answers=load_answers()["cli-pipeline"],
        cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True),
    )


def output_paths(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in OUT_FLAGS]


def cli_digest(result: CliResult, argv: list[str]) -> str:
    h = hashlib.sha256(f"{result.exit_code}\n".encode())
    h.update(result.stdout.encode())
    for path in output_paths(argv):
        h.update(b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def run_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue())


def cli_ops(state: State) -> list[Op]:
    ops = []
    for label, argv in state.inputs:
        pinned = state.answers[label]

        def check(res: CliResult, argv=argv, pinned=pinned) -> bool:
            outs = output_paths(argv)
            ins = [a for a in argv if a not in outs and Path(a).is_file()]
            state.counts["cli.bytes_in"] += sum(Path(a).stat().st_size for a in ins)
            state.counts["cli.bytes_out"] += len(res.stdout.encode()) + sum(
                Path(a).stat().st_size for a in outs
            )
            return res.exit_code == pinned["exit"] and cli_digest(res, argv) == pinned["sha256"]

        ops.append(Op(label, lambda argv=argv: run_cli(argv), check))
    return ops


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``setup(seed, size, workdir)`` makes the inputs; ``ops`` lists one pass."""

    name: str
    setup: Callable[[int, str, Path], State]
    ops: Callable[[State], list[Op]]


WORKLOADS = {
    "exact-search": Workload("exact-search", exact_setup, exact_ops),
    "oracle-queries": Workload("oracle-queries", oracle_setup, oracle_ops),
    "geometry-scale": Workload("geometry-scale", geometry_setup, geometry_ops),
    "cli-pipeline": Workload("cli-pipeline", cli_setup, cli_ops),
}
