"""Executable proof engines: holographic cube certification, the D-dimensional
expansion sweep, and the theorem partition builders.

Each engine runs in one of two modes.  Strict mode replays the counting
arguments with the paper-level constants: every accepted step carries a
boundary count that must stay below d.  Verified mode cross-checks each
intermediate region with the exact correctability oracle, which is the
ground truth on small codes and needs no hypotheses.

An outcome names only what the replayed proof found; stuck-at alone sets
``stuck_step``, to the last step's index.  A bound the proof guarantees (the
sweep's lexicographic increase, nxt-gap cap and iteration budget; the AB/ABC
bound on a built partition) raises ``AssertionError`` when it fails.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import holographic_base_width, holographic_box_width
from .codes import SubsystemCode, distance, parameters
from .geometry import (
    Box,
    Embedding,
    GridTiling,
    InteractionSet,
    check_code_size,
    check_positive,
    extract_interactions,
    find_tiling,
    packing_bound,
    points_in_box,
    subdivide,
)
from .regions import ab_bound_check, abc_bound_check, chain_oracle

# A sanity bound, like pauli.MAX_QUBITS, on the steps of a cube ladder or of
# one sweep axis; a unit-spaced chain of MAX_QUBITS qubits at ell = 0.1 fits.
MAX_STEPS = 1_000_000

OUTCOME_CERTIFIED = "certified-correctable"
OUTCOME_CONTRADICTION = "contradiction-reached"
OUTCOME_STUCK = "stuck-at"
OUTCOME_VIOLATED = "hypothesis-violated"


@dataclass
class CertificateStep:
    index: int
    rule: str
    region: str
    boundary: str
    boundary_count: int | None
    threshold: float | None
    verdict: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return self.__dict__.copy()

    @classmethod
    def from_json(cls, obj: dict) -> CertificateStep:
        return cls(**obj)


@dataclass
class Certificate:
    """Audit trail of a certification run, serializable as JSON lines."""

    kind: str
    mode: str
    outcome: str
    steps: list[CertificateStep] = field(default_factory=list)
    stuck_step: int | None = None
    reason: str | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.outcome in (OUTCOME_CERTIFIED, OUTCOME_CONTRADICTION)

    def to_json_lines(self) -> str:
        """One compact JSON line for the header, then one per step; a NaN or
        infinite field raises ValueError, so the text is strict JSON."""
        header = {key: value for key, value in self.__dict__.items() if key != "steps"}
        lines = [json.dumps({"header": header}, sort_keys=True, allow_nan=False)]
        lines.extend(json.dumps(step.to_json(), sort_keys=True, allow_nan=False) for step in self.steps)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_lines(cls, text: str) -> Certificate:
        """The certificate that ``to_json_lines`` wrote; blank lines are
        skipped.  Every malformed text raises ``ValueError``, naming the
        line for a line that is not JSON, has no ``header`` or has an
        unknown or missing field."""
        numbered = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
        if not numbered:
            raise ValueError("empty certificate")

        def read(no: int, line: str, build: Callable[[dict], object]):
            try:
                return build(json.loads(line))
            except KeyError as exc:
                fault = f"no {exc} key"
            except (ValueError, TypeError) as exc:
                fault = str(exc)
            raise ValueError(f"certificate line {no}: {fault}")

        (head_no, head), *rest = numbered
        cert = read(head_no, head, lambda obj: cls(steps=[], **obj["header"]))
        cert.steps = [read(no, line, CertificateStep.from_json) for no, line in rest]
        return cert

    def trace(self) -> str:
        out = [f"{self.kind} certificate ({self.mode} mode): {self.outcome}"]
        if self.reason:
            out.append(f"  reason: {self.reason}")
        for step in self.steps:
            status = "ok" if step.verdict else "FAIL"
            count = "" if step.boundary_count is None else f" |F|={step.boundary_count}"
            bound = "" if step.threshold is None else f" < {step.threshold:g}"
            out.append(f"  [{step.index}] {step.rule}: {step.region}{count}{bound} {status}")
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Holographic cube certification


def _ladder_counts(
    coords: np.ndarray, center: tuple[float, ...], sides: np.ndarray, ell: float, long_pairs: np.ndarray
) -> tuple[np.ndarray, list[list[int]]]:
    """Each point's entry rung into the cubes Box.cube(center, max(side, 0))
    of a ladder whose sides do not decrease (len(sides) when it enters
    none), and per rung the counts of a grow step: types (i)-(iv), then the
    qubits in the cube.

    Rung j's cube holds the points with entry <= j.  Type (i) counts the
    points of its 2D face slabs of thickness ell, the cube with one axis
    cut to [min, min + ell] or [max - ell, max] (overlapping corners are
    counted once per slab, matching the proof's cover bound, so the total
    over-counts the true shell population); type (ii) the same for the
    cube 2*ell wider.  The corners move out as j grows, so each corner test
    holds on a suffix of the rungs (x >= min, x <= max) or on a prefix
    (x <= min + ell, x >= max - ell), and one searchsorted per axis and
    test places it.  Types (iii)/(iv) count the outside and inside ends of
    the long pairs across U = {entry < j}: the points with entry >= j and
    a partner that entered before j, and the points that entered before j
    with a partner that has not.  So each point holds one rung interval
    [start, stop) per slab and count, and one difference array sums them.
    """
    rungs = len(sides)
    x = np.ascontiguousarray(coords.T)
    neg_x, c = -x, np.array(center)[:, None]
    starts: list[list[np.ndarray]] = [[], [], [], [], []]
    stops: list[list[np.ndarray]] = [[], [], [], [], []]
    for kind, family in enumerate((sides, sides + 2.0 * ell)):
        half = np.maximum(family, 0.0) / 2.0
        # -min, max, -(min + ell) and max - ell per axis and rung, each
        # ascending; -(c - half) is half - c exactly
        neg_lo, hi = half - c, c + half
        neg_lo_in, hi_in = neg_lo - ell, hi - ell
        low = [neg_lo[a].searchsorted(neg_x[a]) for a in range(len(c))]
        high = [hi[a].searchsorted(x[a]) for a in range(len(c))]
        axis_entry = list(map(np.maximum, low, high))
        for a in range(len(c)):
            # the slabs of axis a also need the point inside on every other axis
            other = functools.reduce(np.maximum, axis_entry[:a] + axis_entry[a + 1 :])
            starts[kind] += [np.maximum(low[a], other), np.maximum(high[a], other)]
            stops[kind] += [neg_lo_in[a].searchsorted(neg_x[a], "right"), hi_in[a].searchsorted(x[a], "right")]
        if kind == 0:
            entry = functools.reduce(np.maximum, axis_entry)
    if len(long_pairs):
        ends = long_pairs.T.ravel()
        partners = entry[long_pairs[:, ::-1].T.ravel()]
        least, most = np.full(len(coords), rungs), np.full(len(coords), -1)
        np.minimum.at(least, ends, partners)
        np.maximum.at(most, ends, partners)
        starts[2].append(least + 1)
        stops[2].append(entry + 1)
        starts[3].append(entry + 1)
        stops[3].append(most + 1)
    starts[4].append(entry)
    stops[4].append(np.full(len(coords), rungs + 1))
    width = rungs + 2
    offsets = np.repeat(np.arange(0, 5 * width, width), [len(coords) * len(part) for part in starts])
    first = np.concatenate(sum(starts, [])) + offsets
    last = np.concatenate(sum(stops, [])) + offsets
    keep = first < last
    steps = np.bincount(first[keep], minlength=5 * width) - np.bincount(last[keep], minlength=5 * width)
    return entry, steps.reshape(5, width).cumsum(axis=1)[:, :rungs].tolist()


def _box_width(d: float, ell: float, dim: int) -> float:
    """The holographic box width w0, or a ValueError naming ell when it
    overflows a float."""
    w0 = holographic_box_width(d, ell, dim)
    if not math.isfinite(w0):
        raise ValueError(
            f"ell = {ell!r} is too small: the box width w0 ~ (d/ell)^(1/(D-1)) overflows a float"
        )
    return w0


def holographic_certify(
    code: SubsystemCode,
    e: Embedding,
    b: Box,
    ell: float,
    mode: str = "strict",
    d: int | None = None,
) -> Certificate:
    """Replay the holographic-principle induction for the qubits in box b.

    Strict mode checks the preconditions (ell small, sides <= w0,
    f_{>=ell}(V) <= d/10) and asserts the four boundary-type counts stay
    below d at every growth step.  Verified mode runs the same cube ladder
    but takes its verdicts from the exact correctability oracle.  An ell so
    small that the box width w0 overflows a float is rejected in both modes.
    """
    if mode not in ("strict", "verified"):
        raise ValueError(f"unknown mode {mode!r}")
    check_positive(ell, "ell")
    long_pairs = extract_interactions(code, e).long_pairs(ell)
    if d is None:
        d = distance(code).value
        if d is None:
            raise ValueError("distance search failed; pass d explicitly")
    dim = e.dimension

    # f(V): the long pairs' endpoints inside the box
    in_box = np.zeros(e.n, dtype=bool)
    in_box[points_in_box(e, b)] = True
    f_v = int(np.count_nonzero(in_box[long_pairs]))
    w0 = _box_width(d, ell, dim)
    w_base = holographic_base_width(d, dim)
    ell_cap = d ** (1.0 / dim) / (8.0 * math.sqrt(dim))

    metadata = {
        "d": d,
        "ell": ell,
        "w0": w0,
        "base_width": w_base,
        "ell_cap": ell_cap,
        "f_box": f_v,
        "box": b.to_json(),
    }
    cert = Certificate(kind="holographic", mode=mode, outcome=OUTCOME_CERTIFIED, metadata=metadata)
    violations = []
    # ell > d^(1/D) / (8 sqrt(D)) iff (8 ell)^(2D) D^D > d^2, decided exactly
    # in integers from the ratios p/q of ell and dp/dq of d
    (p, q), (dp, dq) = float(ell).as_integer_ratio(), float(d).as_integer_ratio()
    if (8 * p) ** (2 * dim) * dim**dim * dq**2 > dp**2 * q ** (2 * dim):
        violations.append(f"ell = {ell:g} exceeds d^(1/D)/(8*sqrt(D)) = {ell_cap:g}")
    if max(b.side_lengths) > w0:
        violations.append(f"box side {max(b.side_lengths):g} exceeds w0 = {w0:g}")
    if f_v > d / 10.0:
        violations.append(f"f(box) = {f_v} exceeds d/10 = {d / 10.0:g}")
    if mode == "strict" and violations:
        cert.outcome, cert.reason = OUTCOME_VIOLATED, "; ".join(violations)
        return cert

    # descend from the final cube in 2*ell steps until the base-case width;
    # nominal sides may go nonpositive (empty cubes)
    center = tuple((lo + hi) / 2.0 for lo, hi in zip(b.mins, b.maxs))
    w_final = max(b.side_lengths)
    steps = (w_final - w_base) / (2.0 * ell)
    if steps > MAX_STEPS:
        raise ValueError(f"the cube ladder needs {steps:g} steps, over the cap of {MAX_STEPS}")
    n_steps = max(0, math.ceil(steps))

    def cube_at(side: float) -> Box:
        return Box.cube(center, max(side, 0.0))

    sides = [w_final - 2.0 * ell * n_steps]
    base = cube_at(sides[0])
    # the base cube is one box query, not entry == 0 of _ladder_counts: a
    # zero-step ladder (three of perfbench geometry-scale's four holographic
    # runs) then never pays for the ladder pass, which costs more
    in_base = np.zeros(e.n, dtype=bool)
    in_base[points_in_box(e, base)] = True
    if n_steps:
        with np.errstate(over="ignore"):
            sides = w_final - 2.0 * ell * np.arange(n_steps, -1, -1)
            entry, (*counts, held) = _ladder_counts(e.coordinates, center, sides, ell, long_pairs)
        sides = sides.tolist()
        # Box.cube raises on a rung whose cube or wider cube has a corner
        # past the float range; the corners move out, so the widest shows
        # whether any rung does
        half = max(sides[-1] + 2.0 * ell, 0.0) / 2.0
        overflows = not all(math.isfinite(c - half) and math.isfinite(c + half) for c in center)

    # the cubes share a center and grow, so their qubit sets form a chain
    correctable = chain_oracle(code) if mode == "verified" else None
    for index, side in enumerate(sides):
        if index == 0:
            # the base cube: packing alone bounds its qubits
            rule, boundary = "base-cube", "packing bound" if mode == "strict" else "exact check"
            details = {"packing_bound": packing_bound(base)}
            count, bound = int(np.count_nonzero(in_base)), details["packing_bound"]
            verdict = bound < d if correctable is None else correctable(in_base)
        else:
            if overflows:
                cube_at(side), cube_at(side + 2.0 * ell)
            # type (i): shell between this cube and U, counted through the 2D
            # thickness-ell slab cover; type (ii): shell just outside this
            # cube; types (iii)/(iv): the outside and inside ends of the long
            # interactions across the U boundary
            rule, boundary = "grow-cube", "types (i)-(iv)"
            names = ("type_i", "type_ii", "type_iii", "type_iv")
            details = {name: values[index] for name, values in zip(names, counts)}
            count = bound = sum(details.values())
            details["qubits_in_cube"] = held[index]
            if correctable is None:
                verdict = bound < d
            else:
                # a rung that gained no qubit holds the region the last call passed
                verdict = held[index] == held[index - 1] or correctable(entry <= index)
        cert.steps.append(
            CertificateStep(
                index=index,
                rule=rule,
                region=f"cube side {side:g}",
                boundary=boundary,
                boundary_count=count,
                threshold=float(d),
                verdict=verdict,
                details=details,
            )
        )
        if not verdict:
            cert.outcome = OUTCOME_STUCK
            cert.stuck_step = index
            if index == 0:
                cert.reason = "base cube not certified"
            elif mode == "strict":
                cert.reason = f"boundary count {count} >= d = {d}"
            else:
                cert.reason = "grown cube region not correctable"
            break
    return cert


# ---------------------------------------------------------------------------
# Expansion sweep (the four step rules)


def _bad_intervals(values: np.ndarray, ell: float, tau: float) -> list[tuple[float, float]]:
    """Maximal closed intervals of x where |{q : q_i in [x-ell, x+ell]}| > tau >= 0.

    The count function jumps up at q_i - ell and down just after q_i + ell,
    so it is piecewise constant between those critical points; intervals
    where it exceeds tau are closed on both sides.  At each critical point
    p the closed count includes the windows ending at p and the count just
    after p does not: an interval starts where the closed count exceeds
    tau and the count before p did not, and ends where the count after p
    drops to tau or below.
    """
    lo = np.sort(values - ell)
    hi = np.sort(values + ell)
    points = np.unique(np.concatenate([lo, hi]))
    entered = lo.searchsorted(points, "right")
    closed = entered - hi.searchsorted(points, "left") > tau
    after = entered - hi.searchsorted(points, "right") > tau
    starts = closed & np.concatenate([[True], ~after[:-1]])
    ends = closed & ~after
    return list(zip(points[starts].tolist(), points[ends].tolist()))


def expansion_sweep(
    e: Embedding,
    s: InteractionSet,
    ell: float,
    tau: float,
    d: int,
    mode: str = "strict",
    code: SubsystemCode | None = None,
) -> Certificate:
    """Grow a correctable staircase region across the embedding, one dimension
    at a time, exactly as the four step rules prescribe.

    Coordinates are translated so every qubit lies in [ell, A - ell]^D.  In
    strict mode each expansion's boundary superset F = B plus the 2i-1
    frontier slabs (plus the thin final box at depth D) must hold fewer
    than d qubits; verified mode additionally requires the grown region to
    pass the exact correctability oracle (the code argument is then
    mandatory).
    """
    check_positive(ell, "ell")
    check_positive(tau, "tau")
    check_positive(d, "d")
    if mode not in ("strict", "verified"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "verified" and code is None:
        raise ValueError("verified mode needs the code for exact checks")
    check_code_size(e, s.n)
    if code is not None:
        check_code_size(e, code.n)
    dim = e.dimension
    n = e.n

    if n == 0:
        return Certificate(
            kind="sweep",
            mode=mode,
            outcome=OUTCOME_CERTIFIED,
            metadata={"n": 0, "note": "no qubits"},
        )

    # one sort per axis serves the translation, gamma, the bad-interval
    # census and every level opening: order[j] lists the qubits by
    # coordinate j and columns[j] holds those coordinates, translated so
    # each dimension's minimum sits at exactly ell (x - min + ell is
    # monotone in x, so the order holds)
    order = e.coordinates.T.argsort(axis=1)
    columns = np.sort(e.coordinates.T, axis=1)
    lowest = columns[:, 0]
    coords = e.coordinates - lowest + ell
    columns = columns - lowest[:, None] + ell
    spread = float((columns[:, -1] - columns[:, 0]).max())
    extent = spread + 2.0 * ell + 1.0
    steps = extent / ell
    if steps > MAX_STEPS:
        raise ValueError(f"the sweep needs {steps:g} steps per axis, over the cap of {MAX_STEPS}")

    # gamma: half the smallest positive b - a or |b - a - 2 ell| over pairs of
    # coordinate values a < b on one axis; rows of the difference table go in
    # blocks of about 2^20 entries
    smallest = []
    for column in columns:
        vals = column[np.concatenate([[True], column[1:] != column[:-1]])]
        rows = max(1, (1 << 20) // len(vals))
        for start in range(0, len(vals), rows):
            delta = vals[None, :] - vals[start : start + rows, None]
            delta = delta[delta > 0]
            cand = np.concatenate([delta, np.abs(delta - 2.0 * ell)])
            cand = cand[cand > 1e-12]
            if len(cand):
                smallest.append(cand.min())
    gamma = min(smallest) / 2.0 if smallest else ell / 2.0

    bad_mask = np.zeros(n, dtype=bool)
    bad_mask[s.long_pairs(ell)] = True
    # every coordinate of the last axis is good, so it needs no census
    bad_intervals = [_bad_intervals(columns[axis], ell, tau) for axis in range(dim - 1)] + [[]]

    def bad_end(axis: int, x: float) -> float | None:
        """End of the bad interval holding x on axis, or None when x is good."""
        for lo, hi in bad_intervals[axis]:
            if lo <= x <= hi:
                return hi
        return None

    # the frontier of the legal staircase region V[a_1..a_i]: its depth i is
    # len(a), and nxts holds nxt_j for each lower level j < i
    a = [0.0]
    nxts: list[float] = []

    def between(axis: int, lo: float, hi: float) -> np.ndarray:
        return (lo <= coords[:, axis]) & (coords[:, axis] <= hi)

    def region_mask(frontier: list[float]) -> np.ndarray:
        inside = coords[:, 0] <= frontier[0]
        prefix = np.ones(n, dtype=bool)  # a_j <= q_j <= nxt_j for all j < lvl
        for lvl in range(1, len(frontier)):
            prefix &= between(lvl - 1, frontier[lvl - 1], nxts[lvl - 1])
            inside |= prefix & (coords[:, lvl] <= frontier[lvl])
        return inside

    cert = Certificate(
        kind="sweep",
        mode=mode,
        outcome=OUTCOME_CERTIFIED,
        metadata={
            "n": n,
            "dimension": dim,
            "ell": ell,
            "tau": tau,
            "d": d,
            "gamma": gamma,
            "extent": extent,
            "bad_qubits": np.flatnonzero(bad_mask).tolist(),
        },
    )

    def zero_is_bad(axis: int) -> bool:
        """Whether coordinate 0 of axis is bad, which violates the hypothesis."""
        if bad_end(axis, 0.0) is None:
            return False
        cert.outcome = OUTCOME_VIOLATED
        cert.reason = (
            f"coordinate 0 is {axis + 1}-bad: more than tau qubits sit within ell of the minimum"
        )
        return True

    if zero_is_bad(0):
        return cert

    nxt_gap_cap = 2.0 * n * ell / tau + 3.0 * ell + 2.0 * gamma + 2.0 * ell + 1e-9
    prev_lex = tuple(a)

    # per open level, the region label up to its own coordinate: "V[" and
    # a_j formatted for each lower level j
    labels = ["V["]

    def record(rule: str, count: int | None, verdict: bool, boundary: str, details: dict) -> None:
        cert.steps.append(
            CertificateStep(
                index=len(cert.steps) + 1,
                rule=rule,
                region=f"{labels[-1]}{a[-1]:g}]",
                boundary=boundary,
                boundary_count=count,
                threshold=float(d) if count is not None else None,
                verdict=verdict,
                details=details,
            )
        )

    column_lists = columns[: dim - 1].tolist()

    def slab(axis: int, center: float) -> np.ndarray:
        """The qubits with |q_axis - center| <= ell: q_axis - center rounds
        monotonically in q_axis, so they form one run of order[axis]."""
        column = column_lists[axis]

        def gap(v: float) -> float:
            return v - center

        return order[axis, bisect_left(column, -ell, key=gap) : bisect_right(column, ell, key=gap)]

    def open_level(i: int) -> list:
        """[size of B plus the lower levels' slabs, the sorted current-axis
        coordinates of the qubits outside them (at depth D > 1, only those
        inside the final box's lower-axis ranges), and the window [lo, hi)
        of those within ell of a_i, which only moves forward]."""
        covered = bad_mask.copy()
        for j in range(i - 1):
            covered[slab(j, a[j])] = True
            covered[slab(j, nxts[j])] = True
        if i == dim > 1:
            # the qubits with a_1 <= q_1 <= nxt_1, then the other ranges
            kept = order[0, columns[0].searchsorted(a[0]) : columns[0].searchsorted(nxts[0], "right")]
            kept = kept[~covered[kept]]
            for j in range(1, dim - 1):
                x = coords[kept, j]
                kept = kept[(a[j] <= x) & (x <= nxts[j])]
            values = np.sort(coords[kept, i - 1])
        else:
            values = columns[i - 1][~covered[order[i - 1]]]
        return [int(np.count_nonzero(covered)), values.tolist(), 0, 0]

    # the open levels' states, each built on first use
    levels: list[list | None] = [None]

    def frontier_count() -> int:
        """Size of the union of B with the frontier slabs of the current state."""
        if levels[-1] is None:
            levels[-1] = open_level(len(a))
        level = levels[-1]
        fixed, values, lo, hi = level
        # v - a_i rounds monotonically in v, so the values with
        # |v - a_i| <= ell form one run of the sorted list; a_i only grows
        # while the level is open, so both ends of the run move forward
        a_i = float(a[-1])
        end = len(values)
        while lo < end and values[lo] - a_i < -ell:
            lo += 1
        while hi < end and values[hi] - a_i <= ell:
            hi += 1
        level[2], level[3] = lo, hi
        return fixed + hi - lo

    # each expansion grows the region and each relabel keeps it, so the
    # verified regions form a chain
    correctable = chain_oracle(code) if mode == "verified" else None

    def expansion_step(rule: str) -> bool:
        """Run one item-1 / item-3 expansion; returns False when stuck."""
        count = frontier_count()
        strict_ok = count < d
        details: dict = {"f_size": count, "strict_ok": strict_ok}
        if correctable is not None:
            grown = region_mask(a[:-1] + [a[-1] + ell])
            exact = correctable(grown)
            details["region_qubits"] = np.flatnonzero(grown).tolist()
            details["exact_correctable"] = exact
            verdict = exact
        else:
            verdict = strict_ok
        record(rule, count, verdict, "B + frontier slabs", details)
        if not verdict:
            cert.outcome = OUTCOME_STUCK
            cert.stuck_step = len(cert.steps)
            if mode == "strict":
                cert.reason = f"boundary count {count} >= d = {d}"
            else:
                cert.reason = f"step {len(cert.steps)}: grown region failed exact correctability"
            return False
        a[-1] += ell
        return True

    max_iterations = 10 * (math.ceil(steps) + 2) ** dim + 1000
    for _ in range(max_iterations):
        i = len(a)
        a_i = a[-1]
        if a_i >= extent:
            if i == 1:
                break  # full sweep completed
            # item 4: finish this dimension, get unstuck one level down;
            # the stored nxt value is exactly nxt_{i-1}(a_{i-1} + ell)
            a.pop()
            levels.pop()
            labels.pop()
            a[-1] = nxts.pop()
            record(
                "finish-dimension",
                None,
                True,
                "relabel: V[.., nxt] equals the finished region",
                {"new_coord": a[-1]},
            )
        elif i == dim:
            if not expansion_step("expand-last-dimension"):
                return cert
        else:
            end = bad_end(i - 1, a_i + ell)
            if end is None:
                if not expansion_step(f"expand-dimension-{i}"):
                    return cert
            else:
                # item 2: stuck here, open the next dimension
                if zero_is_bad(i):
                    return cert
                nxt_val = end + gamma
                gap = nxt_val - a_i
                if gap > nxt_gap_cap:
                    raise AssertionError(f"nxt gap {gap:g} exceeds packed-slab bound {nxt_gap_cap:g}")
                nxts.append(nxt_val)
                labels.append(f"{labels[-1]}{a_i:g}, ")
                a.append(0.0)
                levels.append(None)
                record(
                    "start-next-dimension",
                    None,
                    True,
                    "relabel: V[.., a_i, 0] equals V[.., a_i]",
                    {"nxt": nxt_val, "gap": gap},
                )
        lex = tuple(a)
        if lex <= prev_lex:
            raise AssertionError("sweep failed to increase the lexicographic index")
        prev_lex = lex
    else:
        raise AssertionError("sweep did not terminate within the iteration budget")

    # k is read only here, so a sweep that stops early never builds the code's solver
    if code is not None and (k := parameters(code).k) >= 1:
        cert.outcome = OUTCOME_CONTRADICTION
        cert.reason = f"full qubit set certified correctable while k = {k} >= 1"
    return cert


# ---------------------------------------------------------------------------
# Theorem partition builders


def _near_faces(coords: np.ndarray, boxes: list[Box], margin: float, codim: int) -> np.ndarray:
    """Mask of the points within l_inf distance margin of a codimension-codim
    face of some box.

    A face fixes codim axes at their min or max; the distance to it is the
    largest of |x - v| over the fixed axes and of max(min - x, x - max, 0)
    over the others.  A point farther than margin outside the box on some
    axis is farther than margin from both its planes too, so a point is
    near a face iff it is within margin of the box on every axis and within
    margin of a plane on at least codim axes.  Boxes go in blocks of about
    2^20 coordinates.
    """
    near = np.zeros(len(coords), dtype=bool)
    shape = (len(boxes), 1, coords.shape[1])
    mins = np.array([b.mins for b in boxes]).reshape(shape)
    maxs = np.array([b.maxs for b in boxes]).reshape(shape)
    rows = max(1, (1 << 20) // max(1, coords.size))
    for start in range(0, len(boxes), rows):
        lo, hi = mins[start : start + rows], maxs[start : start + rows]
        free = np.maximum(np.maximum(lo - coords, coords - hi), 0.0) <= margin
        fixed = np.minimum(np.abs(coords - lo), np.abs(coords - hi)) <= margin
        near |= (free.all(axis=2) & (fixed.sum(axis=2) >= codim)).any(axis=0)
    return near


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of an integer array in lexicographic (tuple) order,
    each row's index among them, and the row indices grouped that way, each
    group in ascending order (lexsort is stable)."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = first.cumsum() - 1
    return ordered[first], group, order


def _divide_space(
    e: Embedding,
    f: np.ndarray,
    tiling: GridTiling,
    ell: float,
    d1: float,
) -> tuple[list[Box], list[Box], int, list[str]]:
    """Classify every tiling cell that holds a point or borders one, in sorted
    order: a good cube when its mass is below d1, else a bad cube, kept whole
    or subdivided.  Returns the good cubes, the bad boxes, the number of bad
    cubes and the flags raised.  Cells are integer rows, grouped by one
    lexsort for the points and one for the occupied cells and their 3^D - 1
    neighbours."""
    coords = e.coordinates
    w = tiling.width
    own = np.floor((coords - np.asarray(tiling.offset)) / w).astype(np.int64)
    occupied, home, by_cell = _group_rows(own)
    deltas = np.array(list(itertools.product((-1, 0, 1), repeat=e.dimension)), dtype=np.int64)
    around = (occupied + deltas[:, None, :]).reshape(-1, e.dimension)
    cells, index, _ = _group_rows(np.concatenate([occupied, around]))
    home = index[home]
    cell_mass = np.bincount(home, weights=f, minlength=len(cells))
    bounds = [0] + np.bincount(home, minlength=len(cells)).cumsum().tolist()
    by_cell = by_cell.tolist()
    good_cubes: list[Box] = []
    bad_boxes: list[Box] = []
    flags: list[str] = []
    bad_cube_count = 0
    for c, (cell, light) in enumerate(zip(cells.tolist(), (cell_mass < d1).tolist())):
        cube = tiling.cell_box(cell)
        if light:
            good_cubes.append(cube)
            continue
        bad_cube_count += 1
        members = by_cell[bounds[c] : bounds[c + 1]]
        cell_masses = [(tuple(coords[q]), f[q]) for q in members if f[q] > 0]
        if w <= 10.0 * ell:
            # the whole cube is already short enough to stand as a bad box
            if w < 5.0 * ell:
                flags.append("cube side below 5*ell: subdivision lemma inapplicable")
            bad_boxes.append(cube)
        else:
            bad_boxes.extend(subdivide(cube, cell_masses, ell, d1))
    return good_cubes, bad_boxes, bad_cube_count, flags


def theorem_partition_builder(
    code: SubsystemCode,
    e: Embedding,
    ell: float,
    variant: str,
    seed: int = 0,
    verify: bool = True,
) -> tuple[list[list[int]], Certificate]:
    """Materialize the qubit division a theorem proof constructs.

    variant "thm3_2" builds the dressed-cleanable/remainder split A | B;
    variants "thm5_1_case1" and "thm5_1_case2" build the A | B | C split for
    commuting projector codes.  The parts come back as sorted qubit lists,
    disjoint and covering range(n), with the certificate.  The counting
    ledger evaluates each proof inequality on the instance; hypothesis
    failures are recorded, not asserted.  With verify=True the partition is
    fed to the matching AB/ABC bound check, a theorem whose failure raises
    AssertionError.  The thm5_1 variants reject a non-abelian gauge group
    before any work, whether or not they verify.  An ell so small that the
    box width w0 overflows a float is rejected before the tiling.
    """
    if variant not in ("thm3_2", "thm5_1_case1", "thm5_1_case2"):
        raise ValueError(f"unknown variant {variant!r}")
    check_positive(ell, "ell")
    if variant != "thm3_2" and not code.has_abelian_gauge():
        raise ValueError("ABC bound requires an abelian gauge group")
    long_pairs = extract_interactions(code, e).long_pairs(ell)
    dim = e.dimension
    p = parameters(code)
    if p.k < 1:
        raise ValueError("partition builders need k >= 1")
    d = distance(code).value
    # f counts each qubit's long interactions; the bad qubits have one
    f = np.bincount(long_pairs.ravel(), minlength=code.n)
    bad = f > 0
    d1 = d / 10.0

    w0 = _box_width(d, ell, dim)
    w = max(w0, 4.0 * ell)
    flags = []
    if w > w0:
        flags.append(f"w0 = {w0:g} below the tiling precondition; using w = 4*ell")

    coords = e.coordinates
    if variant == "thm3_2":
        tiling = find_tiling(coords[:0], coords, w, ell, dim, seed=seed)
    else:
        tiling = find_tiling(coords, np.repeat(coords, f, axis=0), w, ell, dim, seed=seed)
    good_cubes, bad_boxes, bad_cube_count, division_flags = _divide_space(e, f, tiling, ell, d1)
    flags.extend(division_flags)
    all_boxes = good_cubes + bad_boxes
    margin2 = 2.0 * ell

    ledger: list[dict] = []

    def entry(name: str, lhs: float, rhs: float) -> None:
        ledger.append({"name": name, "lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs)})

    cert = Certificate(
        kind="partition",
        mode=variant,
        outcome=OUTCOME_CERTIFIED,
        metadata={
            "n": code.n,
            "k": p.k,
            "d": d,
            "ell": ell,
            "w": w,
            "w0": w0,
            "long_interactions": len(long_pairs),
            "bad_qubits": int(np.count_nonzero(bad)),
            "good_cubes": len(good_cubes),
            "bad_cubes": bad_cube_count,
            "bad_boxes": len(bad_boxes),
            "flags": flags,
            "tiling": tiling.to_json(),
        },
    )

    if variant == "thm3_2":
        entry("bad boxes < k/(10d)", len(bad_boxes), p.k / (10.0 * d))
        in_b = _near_faces(coords, all_boxes, margin2, 1) | bad
        entry("|B| < k", int(np.count_nonzero(in_b)), p.k)
        parts = [~in_b, in_b]
    else:
        in_c = _near_faces(coords, all_boxes, margin2, 2)
        in_b = _near_faces(coords, all_boxes, ell, 1)
        if variant == "thm5_1_case1":
            entry("bad boxes < k/(10d)", len(bad_boxes), p.k / (10.0 * d))
            in_c |= bad
        else:
            if bad_boxes:
                flags.append("bad boxes present despite the d >= k case hypothesis")
            entry("bad boxes (case 2 expects 0) <= 1/10", len(bad_boxes), 0.1)
            # C takes both ends of each long interaction touching B',
            # including the bad qubits residing in B' themselves
            in_b_prime = _near_faces(coords, good_cubes, margin2, 1) & ~in_c
            in_c[long_pairs[in_b_prime[long_pairs].any(axis=1)]] = True
            in_b |= bad
        in_b &= ~in_c
        entry("|C| < k", int(np.count_nonzero(in_c)), p.k)
        parts = [~(in_b | in_c), in_b, in_c]
    parts = [np.flatnonzero(part).tolist() for part in parts]
    if verify:
        if variant == "thm3_2":
            check, key, name = ab_bound_check(code, *parts), "ab_check", "AB"
        else:
            check, key, name = abc_bound_check(code, *parts), "abc_check", "ABC"
        if not check.holds:
            raise AssertionError(f"{name} bound violated on the built partition")
        cert.metadata[key] = check.__dict__
    cert.metadata["ledger"] = ledger
    return parts, cert
