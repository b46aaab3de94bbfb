"""Region-level correctability, cleanability, and the correctable-set lemma checks.

Reports carry hypothesis flags separately from conclusions so property
tests can distinguish "vacuously true" from "substantively verified".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .codes import SubsystemCode, json_int, parameters
from .pauli import checked_region


def is_correctable(code: SubsystemCode, u: Iterable[int]) -> bool:
    """True iff no non-trivial dressed logical operator is supported on u,
    as the code's solver answers (``SubsystemCode.solver``)."""
    return code.solver.is_correctable(u)


def chain_oracle(code: SubsystemCode) -> Callable[[np.ndarray], bool]:
    """``is_correctable`` of each region (a qubit mask) in a chain where
    each region contains the one before; after a False the chain must stop.

    Each call hands the solver only the qubits new since the last, to add
    to one state it keeps over the whole chain (``untouched``, ``extend``).
    The oracle holds the code, which the solver only references weakly.
    """
    state = code.solver.untouched()
    held = np.zeros(code.n, dtype=bool)

    def correctable(region: np.ndarray) -> bool:
        nonlocal held
        assert not (held & ~region).any(), "a region does not contain the one before it"
        new, held = region & ~held, region
        return code.solver.extend(state, np.flatnonzero(new).tolist())

    return correctable


def is_dressed_cleanable(code: SubsystemCode, u: Iterable[int]) -> bool:
    """True iff no non-trivial bare logical operator is supported on u, as
    the code's solver answers."""
    return code.solver.is_dressed_cleanable(u)


def boundary(code: SubsystemCode, u: Iterable[int]) -> frozenset[int]:
    """Inner plus outer boundary of u under the code's interaction pairs:
    both ends of every pair with one end in u.  Qubits of u outside
    [0, n) are in no pair."""
    pairs = code.interaction_index()
    inside = np.zeros(code.n, dtype=bool)
    inside[[q for q in u if 0 <= q < code.n]] = True
    ends = inside[pairs]
    return frozenset(pairs[ends[:, 0] != ends[:, 1]].ravel().tolist())


def check_subset_closure(code: SubsystemCode, u: Iterable[int], w: Iterable[int]) -> bool:
    """Implication "u correctable => w correctable" for w inside u."""
    u, w = frozenset(u), frozenset(w)
    if not w <= u:
        raise ValueError("w must be a subset of u")
    return (not is_correctable(code, u)) or is_correctable(code, w)


@dataclass(frozen=True)
class UnionLemmaReport:
    mode: str
    decoupled: bool
    each_correctable: bool
    hypotheses_met: bool
    union_conclusion: bool
    holds: bool


def check_union_lemma(
    code: SubsystemCode, regions: Sequence[Iterable[int]], mode: str = "subsystem"
) -> UnionLemmaReport:
    """Union of decoupled correctable sets: dressed-cleanable (subsystem mode)
    or correctable (projector mode, abelian gauge group required)."""
    if mode not in ("subsystem", "projector"):
        raise ValueError(f"unknown mode {mode!r}")
    parts = [checked_region(r, code.solver.qubits) for r in regions]
    label = np.full(code.n, -1)
    for idx, p in enumerate(parts):
        label[list(p)] = idx
    if np.count_nonzero(label >= 0) != sum(map(len, parts)):
        raise ValueError("regions must be pairwise disjoint")
    if mode == "projector" and not code.has_abelian_gauge():
        raise ValueError("projector mode requires an abelian gauge group")

    # decoupled: no pair joins two of the regions
    ends = label[code.interaction_index()]
    decoupled = not ((ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1])).any()
    each_correctable = all(is_correctable(code, p) for p in parts)
    hypotheses_met = decoupled and each_correctable
    union = frozenset().union(*parts) if parts else frozenset()
    if mode == "subsystem":
        conclusion = is_dressed_cleanable(code, union)
    else:
        conclusion = is_correctable(code, union)
    return UnionLemmaReport(
        mode=mode,
        decoupled=decoupled,
        each_correctable=each_correctable,
        hypotheses_met=hypotheses_met,
        union_conclusion=conclusion,
        holds=(not hypotheses_met) or conclusion,
    )


@dataclass(frozen=True)
class ExpansionLemmaReport:
    u_correctable: bool
    t_correctable: bool
    t_covers_boundary: bool
    hypotheses_met: bool
    union_correctable: bool
    holds: bool


def check_expansion_lemma(
    code: SubsystemCode, u: Iterable[int], t: Iterable[int]
) -> ExpansionLemmaReport:
    """If u and t are correctable and t covers the boundary of u, then
    u union t is correctable."""
    u, t = frozenset(u), frozenset(t)
    u_ok = is_correctable(code, u)
    t_ok = is_correctable(code, t)
    covers = boundary(code, u) <= t
    hyp = u_ok and t_ok and covers
    conclusion = is_correctable(code, u | t)
    return ExpansionLemmaReport(
        u_correctable=u_ok,
        t_correctable=t_ok,
        t_covers_boundary=covers,
        hypotheses_met=hyp,
        union_correctable=conclusion,
        holds=(not hyp) or conclusion,
    )


def _require_partition(code: SubsystemCode, parts: Sequence[frozenset[int]]) -> None:
    qubits = code.solver.qubits
    for p in parts:
        checked_region(p, qubits)
    if sum(map(len, parts)) != code.n or frozenset().union(*parts) != qubits:
        raise ValueError("regions do not form a partition of all qubits")


@dataclass(frozen=True)
class AbReport:
    a_cleanable: bool
    k: int
    b_size: int
    hypotheses_met: bool
    bound_holds: bool | None
    holds: bool


def ab_bound_check(code: SubsystemCode, a: Iterable[int], b: Iterable[int]) -> AbReport:
    """If A is dressed-cleanable then k <= |B|."""
    a, b = frozenset(a), frozenset(b)
    _require_partition(code, [a, b])
    k = parameters(code).k
    cleanable = is_dressed_cleanable(code, a)
    bound = (k <= len(b)) if cleanable else None
    return AbReport(
        a_cleanable=cleanable,
        k=k,
        b_size=len(b),
        hypotheses_met=cleanable,
        bound_holds=bound,
        holds=(not cleanable) or bool(bound),
    )


@dataclass(frozen=True)
class AbcReport:
    a_correctable: bool
    b_correctable: bool
    k: int
    c_size: int
    hypotheses_met: bool
    bound_holds: bool | None
    holds: bool


def abc_bound_check(
    code: SubsystemCode, a: Iterable[int], b: Iterable[int], c: Iterable[int]
) -> AbcReport:
    """If A and B are correctable then k <= |C| (commuting projector codes)."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    _require_partition(code, [a, b, c])
    if not code.has_abelian_gauge():
        raise ValueError("ABC bound requires an abelian gauge group")
    k = parameters(code).k
    a_ok = is_correctable(code, a)
    b_ok = is_correctable(code, b)
    hyp = a_ok and b_ok
    bound = (k <= len(c)) if hyp else None
    return AbcReport(
        a_correctable=a_ok,
        b_correctable=b_ok,
        k=k,
        c_size=len(c),
        hypotheses_met=hyp,
        bound_holds=bound,
        holds=(not hyp) or bool(bound),
    )


def region_from_json(obj: dict, embedding=None) -> frozenset[int]:
    """Load a region from {"qubits": [...]} or {"boxes": [...]} form.

    Box form needs an embedding to resolve which qubits fall inside
    (closed membership, any box).
    """
    if "qubits" in obj:
        return frozenset(json_int(q, "region qubit") for q in obj["qubits"])
    if "boxes" in obj:
        if embedding is None:
            raise ValueError("box-form region requires an embedding")
        from .geometry import Box, points_in_box

        boxes = [Box.from_json(b) for b in obj["boxes"]]
        return frozenset(q for box in boxes for q in points_in_box(embedding, box))
    raise ValueError("region object needs 'qubits' or 'boxes'")
