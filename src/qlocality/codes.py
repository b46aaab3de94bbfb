"""Subsystem codes defined by gauge generators.

A subsystem code is given by a list of gauge generators (phase-free
Paulis), held in two forms: packed GF(2) rows x | z << n
(``gauge_matrix``), which the GF(2) layer reads, and a sparse form of two
read-only intp arrays (``support_arrays``): the flat qubit list, each
generator's X qubits then its Z qubits, and the cumulative end of each
half.  The interaction index is built from the arrays with numpy, and
``to_json`` writes each generator's string from them
(``pauli.format_supports``).  A code is built in either form and
derives the other on first use, by one flat walk over each half: code
files and Pauli strings are parsed straight into rows
(``pauli.parse_rows``), and lattice families build the arrays from their
numpy index grids, so they never form an n-bit int on the geometric path.
``PauliVector`` is only the type of the logical pairs.

The gauge centralizer C(G) is computed once per code (cached on the gauge
basis) and everything else reads it: the stabilizer group is the center
G ∩ C(G), found in one pass that also keeps 2k logical rows L of C(G)
independent mod G; parameters follow from GF(2) ranks, and canonical bare
logical representatives come from a symplectic Gram-Schmidt on C(G) mod S.
Both region oracles read two cached per-qubit column sets
(``pauli.QubitColumns``): the correctable columns over [L; S], which span
C(G), and the cleanable columns over [L; G], which span C(S), so C(S) is
never built.  The distance search is depth-first over regions: each child
extends a copy of its parent's XOR basis by one qubit, and a region's last
qubit is tested against its parent's basis without a copy.

``SubsystemCode.solver`` picks, once per code, the one object that
answers ``parameters``, ``distance`` and both region verdicts (single and
chained).  ``_General`` answers them all from the GF(2) layer above, and
keeps the code's one distance record: d once found, else a weight below
which every region is known correctable.  The other solvers are
``_General``s that override only what their structure answers:
``_TwoBody`` when every generator is XX or ZZ on two qubits (Bacon-Shor,
the repetition chain), which reads all of them off the GF(2) overlap
matrix of the XX and ZZ components; else ``_Matching`` for a CSS
stabilizer code with at most two X and two Z checks per qubit (the
surface and toric codes), which reads them off tree-cotree labels on its
two matching graphs; else ``_Concatenated`` for a code
``families.concatenate`` built, which reads ``parameters`` and a floor
for the distance search off the two codes it was built from.  Each
structure is detected from the form the code was built in, so neither
form is derived for it, and a row test stops at the first row that fails.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .pauli import (
    BitMatrix,
    PauliVector,
    QubitColumns,
    centralizer,
    check_qubit_count,
    checked_region,
    format_supports,
    parse_rows,
    set_bits,
    symplectic_bits,
)


@dataclass(frozen=True)
class CodeParameters:
    """[[n, k, g]] data and the stabilizer rank s; the distance is ``distance``'s."""

    n: int
    k: int
    g: int
    s: int


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of the weight-capped distance search.

    ``value`` is the exact distance when found; None means every region of
    size up to ``weight_cap`` is correctable, i.e. d > weight_cap.
    """

    weight_cap: int
    value: int | None

    @property
    def is_lower_bound(self) -> bool:
        return self.value is None

    def describe(self) -> str:
        if self.value is None:
            return f"> {self.weight_cap}"
        return str(self.value)


def json_int(value: object, what: str) -> int:
    """An integer read from JSON: an int (a numpy integer too), or a float
    with no fractional part."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def json_float(value: object, what: str) -> float:
    """A number read from JSON, as a float: an int or a float (a numpy one
    too).  A string or a bool is rejected, though ``float`` reads both."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a number, got {value!r}")


# one generator's sparse form: its X qubits and its Z qubits, each sorted
Support = tuple[tuple[int, ...], tuple[int, ...]]


def _python_ints(qubits: list) -> list[int]:
    """The qubits as Python ints; a bool or a non-integer is rejected."""
    if not any(isinstance(q, bool) for q in qubits):
        try:
            return list(map(operator.index, qubits))
        except TypeError:
            pass
    raise ValueError("support qubits must be integers")


def _checked_arrays(n: int, qubits: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sparse form as two read-only intp arrays, after checking that
    the ends cut ``qubits`` into pairs of halves and that every half is an
    increasing run of integers in [0, n)."""
    flat, ends = np.asarray(qubits), np.asarray(ends)
    # a size-0 input holds no qubit to check: np.asarray([]) is float64
    if not flat.size:
        flat = flat.astype(np.intp)
    if flat.dtype.kind not in "iu":
        raise ValueError("support qubits must be integers")
    if ends.dtype.kind in "iu" or not ends.size:
        ends = ends.astype(np.intp)  # a value past intp wraps negative and fails the rise
    if (
        flat.ndim != 1
        or ends.dtype.kind not in "iu"
        or ends.ndim != 1
        or ends.size % 2
        or (np.diff(ends, prepend=0) < 0).any()
        or (ends[-1] if ends.size else 0) != flat.size
    ):
        raise ValueError(
            "support arrays must be a flat qubit list and integer ends rising "
            "from 0 to its length, two per generator"
        )

    def where(pos: int) -> str:
        half = int(np.searchsorted(ends, pos, side="right"))
        qubits = tuple(flat[ends[half - 1] if half else 0 : ends[half]].tolist())
        return f"generator {half // 2} {'XZ'[half % 2]} support {qubits}"

    # the range is checked in the given dtype, so no value wraps on the cast
    if (flat < 0).any():
        raise ValueError(f"{where(int(np.argmax(flat < 0)))} has a negative qubit")
    if (flat >= n).any():
        raise ValueError(f"{where(int(np.argmax(flat >= n)))} has a qubit outside [0, {n})")
    flat = flat.astype(np.intp)
    step = np.diff(flat)
    step[ends[(0 < ends) & (ends < flat.size)] - 1] = 1  # no step across halves
    if (step <= 0).any():
        pos = int(np.argmax(step <= 0))
        fault = "repeats a qubit" if step[pos] == 0 else "is not sorted"
        raise ValueError(f"{where(pos)} {fault}")
    flat.setflags(write=False)
    ends.setflags(write=False)
    return flat, ends


def _support_arrays(n: int, supports: Iterable[Support]) -> tuple[np.ndarray, np.ndarray]:
    """The supports as the two intp arrays that
    ``SubsystemCode.from_support_arrays`` takes (and copies), unchecked but
    for the qubits' type: a bool or a non-integer qubit is rejected."""
    halves = [tuple(half) for xs, zs in supports for half in (xs, zs)]
    qubits = list(itertools.chain.from_iterable(halves))
    if set(map(type, qubits)) - {int}:
        qubits = _python_ints(qubits)
    try:
        flat = np.array(qubits, dtype=np.intp)
    except OverflowError:
        # out of intp range is out of [0, n) too: -1 and n fail the same checks
        flat = np.array([min(max(q, -1), n) for q in qubits], dtype=np.intp)
    ends = np.fromiter(map(len, halves), dtype=np.intp, count=len(halves)).cumsum()
    return flat, ends


# up to this k, a two-body code's distance is a Gray-code walk over its 2^k
# codewords and a matching code's a search in its 2^k-fold label cover; past
# it, each asks ``_General._least``, the region search
_MAX_WALK_RANK = 20


def _components(n: int, edges: Iterable[Sequence[int]]) -> tuple[list[int], int]:
    """Each qubit's component label under the edges, labels numbered by
    each component's lowest qubit, and the number of components.

    A union-find with path halving links the larger root under the
    smaller, so every parent is at most its child.  Walking the qubits up
    from 0, a qubit's parent is then labelled before it, and with its own
    component's label.
    """
    parent = list(range(n))
    for a, b in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    labels: list[int] = []
    count = 0
    for q, p in enumerate(parent):
        if p == q:
            labels.append(count)
            count += 1
        else:
            labels.append(labels[p])
    return labels, count


def _keeps_rank(vectors: Iterable[int], rank: int) -> bool:
    """True iff the vectors have this rank (at most the rank of all of
    them), found by an XOR basis keyed by leading bit that stops once it is
    full."""
    if not rank:
        return True
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = v
                if len(basis) == rank:
                    return True
                break
            v ^= pivot
    return False


def _min_weight(basis: Sequence[int]) -> int:
    """Least weight of a nonzero vector in the span of independent vectors:
    a Gray-code walk adds one basis vector per step to reach every nonzero
    sum once."""
    best, v = math.inf, 0
    for i in range(1, 1 << len(basis)):
        v ^= basis[(i & -i).bit_length() - 1]
        best = min(best, v.bit_count())
    return int(best)


class _General:
    """Any code, answered by the GF(2) layer the code caches: the rank
    formulas, the region search and the two column sets.  Each structured
    solver subclasses it and overrides only what its structure answers.

    A solver reaches its code through a weak reference: the code caches its
    solver, so a strong one would make a cycle, and a dropped code would
    wait for the cyclic garbage collector.  ``distance`` keeps one record:
    ``d`` once found, else ``clear``, a weight up to which every region is
    correctable (d > clear); a cap the record does not settle asks
    ``_least``.  A region's verdict is a chain of one step, and a chain
    grows one XOR basis of the correctable columns, whose verdict does not
    depend on the order the qubits came in.
    """

    def __init__(self, code: SubsystemCode) -> None:
        self._code = weakref.ref(code)
        self.d: int | None = None
        self.clear = 0

    @property
    def code(self) -> SubsystemCode:
        return self._code()

    @cached_property
    def qubits(self) -> frozenset[int]:
        return frozenset(range(self.code.n))

    @cached_property
    def parameters(self) -> CodeParameters:
        """(n, k, g, s) from the ranks of the gauge span and its center."""
        code = self.code
        r, s = code.gauge_basis.rank(), code.stabilizer_basis.rank()
        assert (r - s) % 2 == 0, "symplectic form on the gauge span has odd rank"
        g = (r - s) // 2
        return CodeParameters(n=code.n, k=code.n - s - g, g=g, s=s)

    def distance(self, cap: int) -> DistanceResult:
        """d if d <= cap, else "> cap", for a code with k >= 1."""
        if self.d is None and cap > self.clear:
            self.d = self._least(cap)
            if self.d is None:
                self.clear = max(self.clear, cap)
        d = self.d
        return DistanceResult(weight_cap=cap, value=d if d is not None and d <= cap else None)

    def _least(self, cap: int) -> int | None:
        """d, given d > ``clear``, or None when d > cap (a solver that finds
        d past the cap may return it).  Here the least w from clear + 1 to
        cap such that some w-qubit region fails, by iterative deepening: a
        depth-first search over the w-subsets in lexicographic order
        (``_fails``) for each w in turn."""
        code = self.code
        for w in range(self.clear + 1, cap + 1):
            if _fails(code.correctable_columns, code.n, {}, 0, w):
                return w
        return None

    def is_correctable(self, support: Iterable[int]) -> bool:
        return self.extend(self.untouched(), checked_region(support, self.qubits))

    def is_dressed_cleanable(self, support: Iterable[int]) -> bool:
        return self.code.cleanable_columns.extend({}, checked_region(support, self.qubits))

    def untouched(self) -> dict[int, int]:
        return {}

    def extend(self, basis: dict[int, int], qubits: Iterable[int]) -> bool:
        return self.code.correctable_columns.extend(basis, qubits)


class _TwoBody(_General):
    """A code whose gauge generators are each XX or ZZ on two qubits, solved
    through its component matrix.

    The XX edges split the qubits into c_x components X_a, the ZZ edges into
    c_z components Z_b, and M is the c_x x c_z GF(2) matrix with M[a][b] =
    |X_a ∩ Z_b| mod 2 (qubit q adds 1 to M[x(q)][z(q)]).  The X part of G
    is the vectors even on every X_a, so an X vector's class mod G is its
    parity pattern over the X components.  C(G)'s X part is the unions of
    Z components: the union over B has pattern Mβ, and it is in S iff
    Mβ = 0.  An X vector commutes with S iff its pattern is in M's column
    space, and it is a nontrivial dressed logical iff its pattern is
    nonzero, at weight at least the pattern's.  The Z side is the same with
    M's rows.  Hence:

    - k = rank M, s = c_x + c_z - 2 rank M, g = n - c_x - c_z + rank M;
    - d = min(d_X, d_Z), the least nonzero weights in M's column space and
      row space;
    - U is correctable iff no nonzero column-space pattern lies on the X
      components U touches, i.e. the rows of the untouched X components
      keep rank M, and the same for the columns and Z components;
    - U is dressed-cleanable iff no X component wholly inside U has a
      nonzero row of M and no Z component wholly inside U a nonzero column.

    Only the live components, those with a nonzero row (X) or column (Z),
    enter either test.  Their qubit sets are frozensets, built once on the
    first region query (``_live``), so ``parameters`` and ``distance``
    never pay for them.  The correctable test hands the rank test, which
    stops at rank k, the vectors of the live components with
    ``part.isdisjoint(U)``, and the cleanable test asks ``part <= U`` of
    every live component.  Both walk every live component in C (``map``,
    ``itertools.compress``), so only the rank test takes Python steps.  A
    growing chain (``untouched``, ``extend``) keeps the live components no
    qubit has touched yet, drops those each step's new qubits touch, and
    runs the rank test on the rest.
    """

    def __init__(self, code: SubsystemCode, xx: Iterable[Sequence[int]], zz: Iterable[Sequence[int]]) -> None:
        super().__init__(code)
        n = code.n
        self.x_label, c_x = _components(n, xx)
        self.z_label, c_z = _components(n, zz)
        rows, cols = [0] * c_x, [0] * c_z
        for a, b in zip(self.x_label, self.z_label):
            rows[a] ^= 1 << b
            cols[b] ^= 1 << a
        self.rows, self.cols = BitMatrix(c_z, rows), BitMatrix(c_x, cols)
        self.k = k = self.rows.rank()
        self.parameters = CodeParameters(n=n, k=k, g=n - c_x - c_z + k, s=c_x + c_z - 2 * k)

    @classmethod
    def from_rows(cls, code: SubsystemCode, rows: Iterable[int]) -> _TwoBody | None:
        """The structure of packed rows x | z << n, or None at the first row
        that is not XX or ZZ on two qubits."""
        xx: list[tuple[int, int]] = []
        zz: list[tuple[int, int]] = []
        n = code.n
        mask = (1 << n) - 1
        for row in rows:
            if row.bit_count() != 2:
                return None
            if not row >> n:
                half, edges = row, xx
            elif not row & mask:
                half, edges = row >> n, zz
            else:
                return None
            edges.append(((half & -half).bit_length() - 1, half.bit_length() - 1))
        return cls(code, xx, zz)

    @classmethod
    def from_arrays(cls, code: SubsystemCode, qubits: np.ndarray, ends: np.ndarray) -> _TwoBody | None:
        """The structure of the sparse form, or None unless every
        generator's X and Z half lengths are (2, 0) or (0, 2)."""
        halves = np.diff(ends, prepend=0).reshape(-1, 2)
        if not (np.sort(halves, axis=1) == (0, 2)).all():
            return None
        pairs, is_x = qubits.reshape(-1, 2), halves[:, 0] == 2
        return cls(code, pairs[is_x].tolist(), pairs[~is_x].tolist())

    def _least(self, cap: int) -> int | None:
        """d = min(d_X, d_Z) by two Gray-code walks over k basis vectors,
        whatever the cap."""
        if self.k > _MAX_WALK_RANK:
            return super()._least(cap)
        return min(_min_weight(self.cols.rref()[0]), _min_weight(self.rows.rref()[0]))

    @cached_property
    def _live(self) -> tuple[tuple[dict[int, frozenset[int]], list[int]], ...]:
        """Per side, X with M's rows then Z with M's columns: each live
        component's qubit set keyed by its label, and the live vectors in
        the same order."""
        sides = []
        for labels, vectors in ((self.x_label, self.rows.rows), (self.z_label, self.cols.rows)):
            members: list[list[int]] = [[] for _ in vectors]
            for q, a in enumerate(labels):
                members[a].append(q)
            live = [a for a, v in enumerate(vectors) if v]
            sides.append(({a: frozenset(members[a]) for a in live}, [vectors[a] for a in live]))
        return tuple(sides)

    def is_correctable(self, support: Iterable[int]) -> bool:
        region = checked_region(support, self.qubits)
        for parts, vectors in self._live:
            untouched = itertools.compress(vectors, map(region.isdisjoint, parts.values()))
            if not _keeps_rank(untouched, self.k):
                return False
        return True

    def is_dressed_cleanable(self, support: Iterable[int]) -> bool:
        region = checked_region(support, self.qubits)
        for parts, _ in self._live:
            if any(map(region.issuperset, parts.values())):
                return False
        return True

    def untouched(self) -> list[dict[int, int]]:
        """The state of a growing chain for ``extend``: per side, each live
        component's vector keyed by its label, none touched yet."""
        return [{a: v for a, v in enumerate(vectors) if v} for vectors in (self.rows.rows, self.cols.rows)]

    def extend(self, untouched: list[dict[int, int]], qubits: Iterable[int]) -> bool:
        """Drop the components the qubits touch from ``untouched``, in place;
        True iff the region of every qubit added so far is correctable.  The
        qubits must lie in [0, n)."""
        qubits = list(qubits)
        for labels, left in zip((self.x_label, self.z_label), untouched):
            for a in set(map(labels.__getitem__, qubits)):
                left.pop(a, None)
        return all(_keeps_rank(left.values(), self.k) for left in untouched)


# a graph as each vertex's (neighbour, qubit) list, the extra vertex last
Adjacency = list[list[tuple[int, int]]]


def _matching_graph(n: int, checks: list[list[int]]) -> tuple[list[tuple[int, int]], Adjacency]:
    """The matching graph of the checks (each qubit in at most two), with
    a vertex per check plus the extra vertex ``len(checks)``: each qubit's
    edge, between the checks that hold it (lower first, the extra vertex
    standing in for a missing one), and the adjacency lists, a loop listed
    once."""
    outer = len(checks)
    first, second = [outer] * n, [outer] * n
    for c, qubits in enumerate(checks):
        for q in qubits:
            if first[q] == outer:
                first[q] = c
            else:
                second[q] = c
    # a qubit's other end from check c is first + second - c
    adjacent = [[(first[q] + second[q] - c, q) for q in qubits] for c, qubits in enumerate(checks)]
    adjacent.append([(first[q], q) for q in range(n) if second[q] == outer])
    return list(zip(first, second)), adjacent


def _forest(adjacent: Adjacency, free: list[bool]) -> tuple[list[bool], list[tuple[int, int]]]:
    """A spanning forest over the free edges, grown by depth-first search
    from the extra vertex first: each edge's flag, and each vertex it
    reaches with the edge it came in by, parents before children."""
    outer = len(adjacent) - 1
    seen, entry, reached = [False] * (outer + 1), [False] * len(free), []
    for start in (outer, *range(outer)):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            for w, q in adjacent[stack.pop()]:
                if free[q] and not seen[w]:
                    seen[w] = entry[q] = True
                    reached.append((w, q))
                    stack.append(w)
    return entry, reached


def _tree_cotree_labels(
    n: int, adjacent: Adjacency, dual: list[list[int]], dual_adjacent: Adjacency
) -> tuple[list[int], int]:
    """Each qubit's label in GF(2)^k as a k-bit int, and k, on the matching
    graph of one check type (``adjacent``), given the other type's checks
    and graph (``dual``, ``dual_adjacent``); see ``_Matching``."""
    tree, _ = _forest(adjacent, [True] * n)
    cotree, reached = _forest(dual_adjacent, [not t for t in tree])
    labels, k = [0] * n, 0
    for q in range(n):
        if not (tree[q] or cotree[q]):
            labels[q], k = 1 << k, k + 1
    # leaf first: each check's edge to its parent takes the sum of its others
    for w, q in reversed(reached):
        total = 0
        for p in dual[w]:
            total ^= labels[p]
        labels[q] = total
    return labels, k


def _root(parent: dict[int, int], potential: dict[int, int], v: int) -> tuple[int, int]:
    """v's root in a union-find with XOR potentials (a vertex absent from
    ``parent`` is a root), and the label sum from v to it; halves the path."""
    total = 0
    while (up := parent.get(v)) is not None:
        top = parent.get(up)
        if top is not None:
            potential[v] ^= potential[up]
            parent[v] = up = top
        total ^= potential[v]
        v = up
    return v, total


def _closes_no_logical(side: tuple, union: tuple, qubits: Iterable[int]) -> bool:
    """Add the qubits' edges of one matching graph to its union-find; False
    at the first edge that closes a cycle with a nonzero label."""
    (ends, _, labels), (parent, potential) = side, union
    for q in qubits:
        a, b = ends[q]
        a, to_a = _root(parent, potential, a)
        b, to_b = _root(parent, potential, b)
        if a != b:
            parent[a], potential[a] = b, to_a ^ to_b ^ labels[q]
        elif to_a ^ to_b ^ labels[q]:
            return False
    return True


def _least_cycle(side: tuple, k: int, cap: int) -> frozenset[int] | None:
    """The qubits of a least-weight cycle with a nonzero label in one
    matching graph, if one has weight at most ``cap``, else None.

    Breadth-first search in the 2^k-fold label cover, whose state
    ``v << k | x`` is vertex v reached with label sum x, from one end of
    each edge with a nonzero label (every such cycle holds one).  A vertex
    reached again with another label closes a walk of nonzero label whose
    weight is the sum of the two depths; a least cycle through the source
    closes by depth ceil(d/2), so a search stops once 2·depth passes the
    best so far.  The walk's two paths, summed, are the cycle.
    """
    ends, adjacent, labels = side
    low = (1 << k) - 1
    best, cycle = cap + 1, None
    for source in dict.fromkeys([a for (a, _), label in zip(ends, labels) if label]):
        start = source << k
        back: dict[int, tuple[int, int] | None] = {start: None}
        first = {source: (start, 0)}
        frontier, depth = [start], 0
        while frontier and 2 * depth + 2 <= best:
            depth += 1
            reached = []
            for state in frontier:
                x = state & low
                for w, q in adjacent[state >> k]:
                    new = w << k | (x ^ labels[q])
                    if new in back:
                        continue
                    back[new] = (state, q)
                    reached.append(new)
                    other = first.get(w)
                    if other is None:
                        first[w] = (new, depth)
                    elif other[1] + depth < best:
                        best, cycle = other[1] + depth, _path(back, other[0]) ^ _path(back, new)
            frontier = reached
    return cycle


def _path(back: dict[int, tuple[int, int] | None], state: int) -> frozenset[int]:
    """The qubits of the search path to ``state``, each used an odd number
    of times."""
    qubits: set[int] = set()
    while (step := back[state]) is not None:
        state, q = step
        qubits ^= {q}
    return frozenset(qubits)


class _Matching(_General):
    """A CSS stabilizer code whose every qubit is in at most two X checks
    and at most two Z checks, and whose every X check meets every Z check
    evenly (the planar surface code, the toric code, the repetition code),
    solved on its two matching graphs (Dennis-Kitaev-Landahl-Preskill 2002).

    G_Z has a vertex per Z check plus one boundary vertex, and an edge per
    qubit between the Z checks that hold it, the boundary standing in for a
    missing one.  An X error commutes with every Z check iff its edges are
    a cycle of G_Z (even at every check vertex), and each X check is one.
    Tree-cotree labels (Eppstein 2003) give each edge a vector in GF(2)^k
    whose sum over a cycle is 0 iff the cycle is a sum of X checks
    (``_tree_cotree_labels``):

    - T, a spanning forest of G_Z, is labelled 0, so a cycle's label is the
      sum over its edges off T, each of which closes one cycle with T;
    - C is a spanning forest of G_X (X checks plus one outer vertex) over
      the edges off T, grown from the outer vertex first; the k edges in
      neither T nor C get the unit vectors;
    - C is peeled leaf first: each X check sets its edge to its parent so
      that its edges sum to 0.  A tree of C rooted at an X check needs no
      such edge: its checks sum to edges of T.

    The X checks restricted to the edges off T are C's incidence rows, so
    they have rank |C|; the labels map the cycle space, of dimension
    n - |T|, onto GF(2)^k with a kernel of dimension |C| that holds every X
    check, so the kernel is the X-check span and k counts the X logicals.
    Z errors are the same with G_X and G_Z swapped, and the two k must agree.
    Hence, with g = 0 and s = n - k:

    - U is correctable (and, in a stabilizer code, dressed-cleanable) iff
      neither G_Z nor G_X restricted to U's edges holds a cycle with a
      nonzero label: a union-find with XOR potentials adds U's edges and
      stops at the first such cycle, and a growing chain keeps adding to
      the same union-finds;
    - d is the least weight of such a cycle (``_least_cycle``), whose
      qubits ``witness`` keeps; past k = ``_MAX_WALK_RANK`` the region
      search runs instead.

    Detection reads the form the code was built in.  Rows are tested with
    a few int operations each, so the test stops at the first row with both
    an X and a Z part or with a qubit's third X or Z check; arrays are
    tested by numpy, on half lengths and per-qubit check counts.
    """

    def __init__(self, code: SubsystemCode, sides: tuple, k: int) -> None:
        super().__init__(code)
        self.sides, self.k = sides, k
        self.parameters = CodeParameters(n=code.n, k=k, g=0, s=code.n - k)
        self.witness: frozenset[int] | None = None

    @classmethod
    def from_checks(cls, code: SubsystemCode, x_checks: list[list[int]], z_checks: list[list[int]]) -> _Matching | None:
        """The structure of the checks' qubit lists (no qubit in three of
        one type), or None when an X and a Z check meet oddly or the two k
        differ."""
        n = code.n
        (x_ends, x_graph), (z_ends, z_graph) = _matching_graph(n, x_checks), _matching_graph(n, z_checks)
        # every X and Z check meet evenly iff every (X, Z) pair of the
        # qubits' ends, extra vertices included, comes up an even number of
        # times: once the check pairs are even, so are those with an extra
        # vertex, as each check's pairs number twice its weight
        w = len(z_graph)
        meets = sorted(
            itertools.chain.from_iterable(
                (a * w + c, a * w + d, b * w + c, b * w + d) for (a, b), (c, d) in zip(x_ends, z_ends)
            )
        )
        if meets[::2] != meets[1::2]:
            return None
        x_labels, k = _tree_cotree_labels(n, z_graph, x_checks, x_graph)
        z_labels, k_z = _tree_cotree_labels(n, x_graph, z_checks, z_graph)
        if k != k_z:
            return None
        return cls(code, ((z_ends, z_graph, x_labels), (x_ends, x_graph, z_labels)), k)

    @classmethod
    def from_rows(cls, code: SubsystemCode, rows: Iterable[int]) -> _Matching | None:
        n = code.n
        mask = (1 << n) - 1
        halves: tuple[list[int], list[int]] = ([], [])
        once, twice = [0, 0], [0, 0]
        for row in rows:
            x, z = row & mask, row >> n
            if x and z:
                return None
            side, half = (1, z) if z else (0, x)
            if half & twice[side]:
                return None
            twice[side] |= half & once[side]
            once[side] |= half
            halves[side].append(half)
        return cls.from_checks(code, *([list(set_bits(h)) for h in side] for side in halves))

    @classmethod
    def from_arrays(cls, code: SubsystemCode, qubits: np.ndarray, ends: np.ndarray) -> _Matching | None:
        lengths = np.diff(ends, prepend=0).reshape(-1, 2)
        is_z = lengths[:, 1] > 0
        if (lengths[is_z, 0] > 0).any():
            return None
        on_z = np.repeat(is_z, lengths.sum(axis=1))
        if any((np.bincount(qubits[side]) > 2).any() for side in (~on_z, on_z)):
            return None
        flat, cuts = qubits.tolist(), ends.tolist()
        checks: tuple[list[list[int]], list[list[int]]] = ([], [])
        for start, x_end, z_end, z in zip([0, *cuts[1::2]], cuts[::2], cuts[1::2], is_z.tolist()):
            checks[z].append(flat[x_end:z_end] if z else flat[start:x_end])
        return cls.from_checks(code, *checks)

    def _least(self, cap: int) -> int | None:
        """d as the least weight of a cycle with a nonzero label on either
        graph, if it is at most the cap; the cycle is kept as ``witness``."""
        if self.k > _MAX_WALK_RANK:
            return super()._least(cap)
        for side in self.sides:
            limit = cap if self.witness is None else len(self.witness) - 1
            self.witness = _least_cycle(side, self.k, limit) or self.witness
        return self.witness and len(self.witness)

    def untouched(self) -> list[tuple[dict[int, int], dict[int, int]]]:
        """The state of a growing chain for ``extend``: per graph, an empty
        union-find."""
        return [({}, {}), ({}, {})]

    def extend(self, unions: list, qubits: Iterable[int]) -> bool:
        """Add the qubits' edges to both union-finds, in place; True iff the
        region of every qubit added so far is correctable.  The qubits must
        lie in [0, n)."""
        qubits = list(qubits)
        return all(map(_closes_no_logical, self.sides, unions, itertools.repeat(qubits)))

    is_dressed_cleanable = _General.is_correctable


class _Concatenated(_General):
    """A code ``families.concatenate`` built from (inner, outer), which it
    keeps as ``_parts``, answered from the parts' own answers (see
    ``concatenate`` for why they hold): n = n1·n2, k = k1·k2,
    g = k1·g2 + n2·g1, and d >= d1·d2.

    ``_least(cap)`` asks each part for its distance capped at ``cap``, a
    part past the cap counting as cap + 1, and raises ``clear`` to
    d1·d2 - 1 before the region search.  A floor above the cap answers
    "> cap" without building the code's GF(2) layer.  Region verdicts and
    chains stay on the general layer.
    """

    @cached_property
    def parameters(self) -> CodeParameters:
        (inner, outer), n = self.code._parts, self.code.n
        p1, p2 = parameters(inner), parameters(outer)
        k, g = p1.k * p2.k, p1.k * p2.g + p2.n * p1.g
        return CodeParameters(n=n, k=k, g=g, s=n - k - g)

    def _least(self, cap: int) -> int | None:
        floor = 1
        for part in self.code._parts:
            d = distance(part, cap).value
            floor *= cap + 1 if d is None else d
        self.clear = max(self.clear, floor - 1)
        return super()._least(cap)


@dataclass(frozen=True)
class LogicalPair:
    index: int
    x_bar: PauliVector
    z_bar: PauliVector


class SubsystemCode:
    """Gauge generators plus lazily derived GF(2) structure.

    Immutable after construction; duplicate or dependent generators are
    allowed since all derived quantities use ranks.  ``gauge_matrix`` (the
    packed rows x | z << n) and ``support_arrays`` are the dense and sparse
    forms of one generator list: the constructor takes the rows,
    ``from_support_arrays`` and ``from_supports`` the sparse form, and each
    form is derived from the other on first read.
    """

    # the (inner, outer) codes of a concatenation, set by families.concatenate
    _parts: tuple[SubsystemCode, SubsystemCode] | None = None

    def __init__(self, n: int, rows: Iterable[int] = ()) -> None:
        """A code from packed generator rows x | z << n (the ``gauge_matrix``
        form)."""
        check_qubit_count(n)
        self.n = n
        self.gauge_matrix = BitMatrix(2 * n, rows)

    @classmethod
    def from_support_arrays(cls, n: int, qubits: np.ndarray, ends: np.ndarray) -> SubsystemCode:
        """A code from its sparse form as two integer arrays: ``qubits`` holds
        each generator's X qubits, then its Z qubits, generator by generator,
        and ``ends[h]`` is the end of half h (generator h // 2, X for even h)
        in ``qubits``.  Every half must increase strictly within [0, n).  The
        arrays are copied; rows are built only when first read."""
        check_qubit_count(n)
        code = cls.__new__(cls)
        code.n = n
        code.support_arrays = _checked_arrays(n, qubits, ends)
        return code

    @classmethod
    def from_supports(cls, n: int, supports: Iterable[Support]) -> SubsystemCode:
        """A code from each generator's sorted X and Z qubit tuples, through
        ``from_support_arrays``."""
        check_qubit_count(n)
        return cls.from_support_arrays(n, *_support_arrays(n, supports))

    @classmethod
    def from_strings(cls, generators: Iterable[str], n: int | None = None) -> SubsystemCode:
        gens = list(generators)
        if n is None:
            if not gens:
                raise ValueError("cannot infer n from an empty generator list")
            n = len(gens[0])
        return cls(n, parse_rows(gens, n))

    @cached_property
    def gauge_matrix(self) -> BitMatrix:
        """Generator rows verbatim (interactions are defined against these);
        built from ``support_arrays`` for a code built from them, one bit
        set per listed qubit."""
        n = self.n
        qubits, ends = self.support_arrays
        flat, cuts = qubits.tolist(), ends.tolist()
        rows = []
        for start, x_end, z_end in zip([0, *cuts[1::2]], cuts[::2], cuts[1::2]):
            x = z = 0
            for q in flat[start:x_end]:
                x |= 1 << q
            for q in flat[x_end:z_end]:
                z |= 1 << q
            rows.append(x | z << n)
        return BitMatrix(2 * n, rows)

    @cached_property
    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The sparse form (qubits, ends) of ``from_support_arrays``, as
        read-only intp arrays; read off the rows for a code built from them,
        by one flat walk over each half's set bits, lowest first."""
        n = self.n
        mask = (1 << n) - 1
        qubits: list[int] = []
        ends: list[int] = []
        for row in self.gauge_matrix:
            for half in row & mask, row >> n:
                while half:
                    low = half & -half
                    qubits.append(low.bit_length() - 1)
                    half ^= low
                ends.append(len(qubits))
        flat, cuts = np.array(qubits, dtype=np.intp), np.array(ends, dtype=np.intp)
        flat.setflags(write=False)
        cuts.setflags(write=False)
        return flat, cuts

    @cached_property
    def gauge_basis(self) -> BitMatrix:
        """Deterministic RREF basis of the gauge span."""
        return self.gauge_matrix.row_basis()

    @cached_property
    def _center(self) -> tuple[BitMatrix, tuple[int, ...]]:
        return derive_stabilizer(self)

    @property
    def stabilizer_basis(self) -> BitMatrix:
        return self._center[0]

    @cached_property
    def correctable_columns(self) -> QubitColumns:
        """Columns over [L; S], which span C(G): ``extend`` from an empty
        basis is True on a region iff it is correctable."""
        return QubitColumns(self.stabilizer_basis, self._center[1])

    @cached_property
    def cleanable_columns(self) -> QubitColumns:
        """Columns over [L; G], which span C(S): ``extend`` from an empty
        basis is True on a region iff it is dressed-cleanable."""
        return QubitColumns(self.gauge_basis, self._center[1])

    def has_abelian_gauge(self) -> bool:
        """The gauge group is abelian iff its center is its whole span, that
        is iff it has no gauge qubit (rank S = rank G)."""
        return parameters(self).g == 0

    def _detect(self, kind: type[_TwoBody] | type[_Matching]) -> _TwoBody | _Matching | None:
        """The structure ``kind`` reads off the support arrays when the code
        holds them and off the rows otherwise, or None; the other form is
        never derived, and the row test stops at the first row that fails."""
        arrays = vars(self).get("support_arrays")
        if arrays is not None:
            return kind.from_arrays(self, *arrays)
        return kind.from_rows(self, self.gauge_matrix)

    @cached_property
    def solver(self) -> _General:
        """The one object that answers ``parameters``, ``distance`` and the
        region verdicts: the two-body structure, else the matching-graph
        one, else the parts of a concatenation, else the general GF(2)
        layer."""
        return (
            self._detect(_TwoBody)
            or self._detect(_Matching)
            or (_General if self._parts is None else _Concatenated)(self)
        )

    @cached_property
    def _interaction_index(self) -> np.ndarray:
        n = self.n
        qubits, ends = self.support_arrays
        gen_ends = ends[1::2]  # one past each generator's last position
        gen = np.bincount(gen_ends, minlength=qubits.size + 1)[: qubits.size].cumsum()
        # g * n + q per listed qubit q of generator g: increasing unless
        # some generator has both halves, which a sort and dedup merge
        keyed = gen * n + qubits
        if (keyed[1:] <= keyed[:-1]).any():
            gen, qubits = np.divmod(np.unique(keyed), n)
            gen_ends = np.bincount(gen, minlength=gen_ends.size).cumsum()
        # the qubit at position p pairs with those at p + 1 to end[p] - 1
        end = gen_ends[gen]
        later = end - 1 - np.arange(qubits.size)
        runs = later.cumsum()
        partner = np.arange(runs[-1] if runs.size else 0) + (end - runs).repeat(later)
        flat = qubits.repeat(later) * n + qubits[partner]
        # an in-place sort and a mask of where each run of equal keys starts
        # (np.unique sorts a copy and took 40 times as long on BS-300's keys)
        flat.sort()
        first = np.empty(len(flat), dtype=bool)
        first[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=first[1:])
        keys = flat[first]
        index = np.empty((len(keys), 2), dtype=np.intp)
        np.divmod(keys, n, out=(index[:, 0], index[:, 1]))
        index.setflags(write=False)
        return index

    def interaction_index(self) -> np.ndarray:
        """The read-only m x 2 array of the qubit pairs (i, j), i < j, that
        some gauge generator covers, in sorted order; built once.

        One array of integer keys i * n + j is read off ``support_arrays``
        with numpy: each generator's qubits (the sorted union of its X and Z
        halves) give the keys of their pairs, one sort groups equal keys,
        and the first of each group is a pair.
        """
        return self._interaction_index

    def to_json(self) -> dict:
        """``n`` and each generator as a Pauli string, written from
        ``support_arrays`` by ``format_supports``."""
        qubits, ends = self.support_arrays
        gens = format_supports(self.n, qubits.tolist(), ends.tolist())
        return {"n": self.n, "gauge_generators": gens}

    @classmethod
    def from_json(cls, obj: dict) -> SubsystemCode:
        n = json_int(obj["n"], "n")
        gens = obj["gauge_generators"]
        if not isinstance(gens, list) or not all(isinstance(s, str) for s in gens):
            raise ValueError("gauge_generators must be a list of Pauli strings")
        return cls(n, parse_rows(gens, n))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self) -> str:
        # whichever form the code was built with, so no form is derived
        built = vars(self)
        arrays = built.get("support_arrays")
        count = len(built["gauge_matrix"]) if arrays is None else arrays[1].size // 2
        return f"SubsystemCode(n={self.n}, generators={count})"


def derive_stabilizer(code: SubsystemCode) -> tuple[BitMatrix, tuple[int, ...]]:
    """Basis of the center of the gauge span (the stabilizer group, mod
    phase), and the code's 2k logical rows L.

    The center is S = G ∩ C(G).  Each basis vector of the cached C(G) is
    reduced mod G's RREF, and the reductions enter an XOR basis keyed by
    lowest set bit that carries, beside each reduction, the sum of C(G)
    vectors it reduces.  Reduction mod G is linear and the C(G) vectors are
    independent, so the sums whose reduction cancels span S.  The sums the
    basis keeps are L: 2k vectors of C(G) independent mod G ⊇ S, so L with
    S spans C(G) (of dimension 2k + s) and L with G spans C(S) (of
    dimension 2n - s = r + 2k), which is what the region oracles' columns
    need.
    """
    gauge = code.gauge_basis
    echelon: dict[int, tuple[int, int]] = {}
    stab_rows = []
    for vec in centralizer(gauge).rows:
        red = gauge.reduce_vector(vec)
        while red:
            low = (red & -red).bit_length() - 1
            entry = echelon.get(low)
            if entry is None:
                echelon[low] = (red, vec)
                break
            red ^= entry[0]
            vec ^= entry[1]
        else:
            stab_rows.append(vec)
    logicals = tuple(vec for _, vec in echelon.values())
    return BitMatrix(gauge.width, stab_rows).row_basis(), logicals


def parameters(code: SubsystemCode) -> CodeParameters:
    """(n, k, g, s), computed once per code by its solver."""
    return code.solver.parameters


def distance(code: SubsystemCode, weight_cap: int | None = None) -> DistanceResult:
    """Minimum weight of a dressed logical operator.

    Answered by the code's solver (``SubsystemCode.solver``).  Returns a
    "greater than weight_cap" result when d exceeds the cap (default cap:
    n); a negative cap, then k = 0, raises ValueError.
    """
    if weight_cap is not None and weight_cap < 0:
        raise ValueError(f"weight_cap must be non-negative, got {weight_cap}")
    if parameters(code).k == 0:
        raise ValueError("distance undefined for k = 0")
    return code.solver.distance(code.n if weight_cap is None else min(weight_cap, code.n))


def _fails(cols: QubitColumns, n: int, basis: dict[int, int], start: int, left: int) -> bool:
    """True iff some ``left`` qubits from ``start`` on make the region whose
    XOR basis is ``basis`` fail.  A child copies its parent's basis and adds
    one qubit's two columns (``QubitColumns.extend(child, (q,))``), and the
    last qubit is tested against the parent's basis in place
    (``QubitColumns.any_fails``)."""
    if left == 1:
        return cols.any_fails(basis, start)
    for q in range(start, n - left + 1):
        child = dict(basis)
        if not cols.extend(child, (q,)) or _fails(cols, n, child, q + 1, left - 1):
            return True
    return False


def logical_representatives(code: SubsystemCode) -> list[LogicalPair]:
    """Canonical bare logical pairs via symplectic Gram-Schmidt.

    Works in the centralizer of the gauge span modulo the stabilizer;
    deterministic given the code because every intermediate basis comes
    from the cached RREF order.
    """
    p = parameters(code)
    if p.k == 0:
        raise ValueError("no logical qubits (k = 0)")
    n = code.n
    # Strip the stabilizer part: keep centralizer vectors independent mod S,
    # each reduced against the RREF of S plus the vectors kept before it.
    # That RREF grows in place: a kept vector has no pivot bit, so its lowest
    # bit is a new pivot, cleared from the rows that hold it.
    reduced, pivot_mask = code.stabilizer_basis.pivot_rows()
    reduced = dict(reduced)
    complement: list[int] = []
    for v in centralizer(code.gauge_basis).row_basis().rows:
        red = v
        for col in set_bits(v & pivot_mask):
            red ^= reduced[col]
        if red != 0:
            low = red & -red
            for col, row in reduced.items():
                if row & low:
                    reduced[col] = row ^ red
            reduced[low.bit_length() - 1] = red
            pivot_mask |= low
            complement.append(red)
    assert len(complement) == 2 * p.k, "centralizer/stabilizer dimension mismatch"

    def sym(a: int, b: int) -> int:
        return symplectic_bits(a, b, n)

    pairs = []
    pool = list(complement)
    while pool:
        u = pool.pop(0)
        partner_idx = next(i for i, v in enumerate(pool) if sym(u, v) == 1)
        v = pool.pop(partner_idx)
        pool = [w ^ (sym(w, v) * u) ^ (sym(w, u) * v) for w in pool]
        pairs.append((u, v))
    out = []
    for idx, (u, v) in enumerate(pairs):
        out.append(
            LogicalPair(
                index=idx,
                x_bar=PauliVector.from_bits(n, u),
                z_bar=PauliVector.from_bits(n, v),
            )
        )
    return out
