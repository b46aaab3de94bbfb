"""Closed-form lower-bound quantities: M*, ell*, proof constants, and regime tests."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .geometry import ball_volume


@dataclass(frozen=True)
class BranchReport:
    """One max-branch of a bound: its length, count, and proof constants."""

    name: str
    ell_star: float
    m_star: float
    c0: float
    c1: float
    hypothesis_met: bool


@dataclass(frozen=True)
class BoundReport:
    dimension: int
    n: float
    k: float
    d: float
    code_class: str
    mode: str
    m_star: float
    ell_star: float
    c0: float
    c1: float
    regime: str
    hypothesis_met: dict = field(default_factory=dict)
    branches: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return self.__dict__.copy()


def _check_domain(n: float, k: float, d: float, dim: int) -> None:
    if dim < 2:
        raise ValueError("bounds require D >= 2")
    if not (1 <= k <= n and 1 <= d <= n) or math.isinf(n):
        raise ValueError(f"parameters out of domain: n={n}, k={k}, d={d}")


def _check_finite(name: str, value: float, n: float, k: float, d: float, dim: int) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite ({value}) for n={n:g}, k={k:g}, d={d:g}, D={dim}")


def _distance_branch(n: float, d: float, dim: int, mode: str) -> BranchReport:
    """The d >= c1 * n^((D-1)/D) branch, shared by both code classes."""
    expr = d / n ** ((dim - 1) / dim)
    if mode == "asymptotic":
        return BranchReport(
            name="distance",
            ell_star=expr,
            m_star=d,
            c0=1.0,
            c1=1.0,
            hypothesis_met=d >= n ** ((dim - 1) / dim),
        )
    vol = ball_volume(dim)
    c1 = 2.0 * (6.0**dim * dim / vol) ** (dim / (dim - 1))
    ell = vol * d / (6.0**dim * dim * n ** ((dim - 1) / dim))
    return BranchReport(
        name="distance",
        ell_star=ell,
        m_star=d / 4.0,
        c0=vol / (6.0**dim * dim),
        c1=c1,
        hypothesis_met=d >= c1 * n ** ((dim - 1) / dim),
    )


# code class -> exponent e of d in the dimension branch's count ratio
# k d^(e/(D-1)) / n: 1 for subsystem codes, 2 for commuting projector codes
CLASS_EXPONENTS = {"subsystem": 1, "projector": 2}


def _class_exponent(code_class: str) -> int:
    if code_class not in CLASS_EXPONENTS:
        raise ValueError(f"unknown code class {code_class!r}")
    return CLASS_EXPONENTS[code_class]


def class_bounds(
    code_class: str, n: float, k: float, d: float, dim: int, mode: str = "asymptotic"
) -> BoundReport:
    """M* and ell* for a code class ("subsystem" or "projector"), keyed by
    its exponent e; the one entry point for both classes.

    Asymptotic mode evaluates the max-expressions with unit constants;
    explicit mode substitutes the proofs' concrete constants (c0 scale
    400 D for subsystem codes, 800 D^2 for projector codes) so the
    hypothesis flags are decidable on real inputs.  A quantity that
    overflows a float raises ValueError instead of reporting infinity.
    """
    e = _class_exponent(code_class)
    _check_domain(n, k, d, dim)
    if mode not in ("asymptotic", "explicit"):
        raise ValueError(f"unknown mode {mode!r}")
    try:
        return _class_bounds(code_class, e, n, k, d, dim, mode)
    except OverflowError:
        raise ValueError(f"the {mode} proof constants overflow a float at D={dim}") from None


def _class_bounds(
    code_class: str, e: int, n: float, k: float, d: float, dim: int, mode: str
) -> BoundReport:
    dist = _distance_branch(n, d, dim, mode)
    ratio = _count_ratio(n, k, d, e, dim)  # inf is reported below
    power = (dim - 1) / (e * dim)
    if mode == "asymptotic":
        ell_star, count, c0, c1 = ratio**power, k, 1.0, 1.0
    else:
        vol = ball_volume(dim)
        c0 = vol ** (1.0 / dim) / (400.0 * e * dim**e)
        c1 = (1.0 / c0) ** (e * dim / (dim - 1))
        ell_star, count = c0 * ratio**power, c0 * (k if e == 1 else max(k, d))
    dim_branch = BranchReport(
        name="dimension",
        ell_star=ell_star,
        m_star=count,
        c0=c0,
        c1=c1,
        hypothesis_met=ratio >= c1,
    )
    for branch in (dist, dim_branch):
        for key in ("ell_star", "m_star", "c0", "c1"):
            _check_finite(f"{branch.name}-branch {key}", getattr(branch, key), n, k, d, dim)
    # tie broken deterministically toward the distance branch
    active = dist if dist.ell_star >= dim_branch.ell_star else dim_branch
    return BoundReport(
        dimension=dim,
        n=n,
        k=k,
        d=d,
        code_class=code_class,
        mode=mode,
        # asymptotic M* is max(k, d) whichever branch is active
        m_star=max(k, d) if mode == "asymptotic" else active.m_star,
        ell_star=active.ell_star,
        c0=active.c0,
        c1=active.c1,
        regime=f"{active.name}-branch",
        hypothesis_met={"d_regime": dist.hypothesis_met, "kd_regime": dim_branch.hypothesis_met},
        branches={"distance": dist.__dict__, "dimension": dim_branch.__dict__},
    )


@dataclass(frozen=True)
class RegimeReport:
    family: str
    bravyi_ratio: float
    bpt_ratio: float
    d_ratio: float
    local_regime: bool

    def to_json(self) -> dict:
        return self.__dict__.copy()


def _count_ratio(n: float, k: float, d: float, e: int, dim: int) -> float:
    """The count ratio k d^(e/(D-1)) / n, or inf when the ratio itself
    exceeds the float range.

    The count k d^(e/(D-1)) is formed first and divided by n; when the
    count alone overflows, the ratio is taken in logs.
    """
    power = e / (dim - 1)
    try:
        count = k * d**power
    except OverflowError:
        count = math.inf
    if math.isfinite(count):
        return count / n
    try:
        return math.exp(math.log(k) - math.log(n) + power * math.log(d))
    except OverflowError:
        return math.inf


def regime_check(n: float, k: float, d: float, dim: int, family: str) -> RegimeReport:
    """Bravyi (subsystem) / BPT (projector) local-regime membership.

    Reports the ratios k*d^(1/(D-1))/n, k*d^(2/(D-1))/n and d/n^((D-1)/D);
    the local regime requires the family's count ratio and the distance
    ratio to both be at most 1.  A ratio that overflows a float raises
    ValueError naming it.
    """
    _check_domain(n, k, d, dim)
    if family not in ("bravyi", "bpt"):
        raise ValueError(f"unknown family {family!r}")
    # exponent e of d in each count ratio, as in CLASS_EXPONENTS; d_ratio is
    # at most n^(1/D), so it cannot overflow
    bravyi = _count_ratio(n, k, d, 1, dim)
    bpt = _count_ratio(n, k, d, 2, dim)
    for name, ratio in (("bravyi_ratio", bravyi), ("bpt_ratio", bpt)):
        _check_finite(name, ratio, n, k, d, dim)
    d_ratio = d / n ** ((dim - 1) / dim)
    count_ratio = bravyi if family == "bravyi" else bpt
    return RegimeReport(
        family=family,
        bravyi_ratio=bravyi,
        bpt_ratio=bpt,
        d_ratio=d_ratio,
        local_regime=count_ratio <= 1.0 and d_ratio <= 1.0,
    )


@dataclass(frozen=True)
class ProofConstants:
    """w0 and the three claims accompanying it.

    ineq1 is an exact identity (checked to 1e-9 relative error); ineq2 is
    only claimed under the hypothesis ell <= c * d^(1/D), reported via
    ``hypothesis_met``; ineq3 holds for all D >= 2.
    """

    dimension: int
    d: float
    ell: float
    alpha: float
    w0: float
    c: float
    hypothesis_met: bool
    ineq1: bool
    ineq2: bool
    ineq3: bool

    def to_json(self) -> dict:
        return self.__dict__.copy()


def proof_constants(d: float, ell: float, dim: int, alpha: float = 1.0) -> ProofConstants:
    w0 = holographic_box_width(d, ell, dim)
    if not 1 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1 and finite")
    vol = ball_volume(dim)
    c = vol ** (1.0 / dim) / (400.0 * alpha * dim)
    scale, span = 2.0**dim / vol, (2.0 * w0) ** (dim - 1)
    lhs = scale * span * ell
    rhs = d / (16.0 * dim)
    if all(map(_is_normal, (scale, span, lhs))):
        ineq1 = math.isclose(lhs, rhs, rel_tol=1e-9)
    else:  # past D = 323 for d / ell = 100 a factor leaves the float range: compare logs
        log_lhs = math.log(2.0**dim) - _log_ball_volume(dim) + (dim - 1) * math.log(2.0 * w0)
        log_lhs += math.log(ell)
        ineq1 = math.isclose(log_lhs, math.log(rhs), rel_tol=0.0, abs_tol=1e-9)
    hypothesis = ell <= c * d ** (1.0 / dim)
    ineq2 = w0 >= 100.0 * alpha * dim * ell
    ineq3 = w0 >= (d / ell) ** (1.0 / (dim - 1)) / (90.0 * math.sqrt(dim))
    return ProofConstants(
        dimension=dim,
        d=d,
        ell=ell,
        alpha=alpha,
        w0=w0,
        c=c,
        hypothesis_met=hypothesis,
        ineq1=ineq1,
        ineq2=ineq2,
        ineq3=ineq3,
    )


def _ball_volume(dim: int) -> float:
    """``ball_volume``, whose gamma overflows a float from D = 342 on, with
    that overflow raised as ValueError."""
    try:
        return ball_volume(dim)
    except OverflowError:
        raise ValueError(f"the proof constants overflow a float at D={dim}") from None


def _log_ball_volume(dim: int) -> float:
    """log ``ball_volume(dim)``, through ``math.lgamma``."""
    return dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)


def _is_normal(x: float) -> bool:
    """x is a positive float that neither underflowed nor overflowed."""
    return sys.float_info.min <= x < math.inf


def _root(products: Sequence[float], log_base: Callable[[], float], degree: int) -> float:
    """base^(1/degree), where base is a product of positive finite factors
    and ``products`` are its partial products left to right, base last.
    Where one of them under- or overflows a normal float, so that base has
    lost bits or is 0 or inf, the root is exp(log_base() / degree) instead,
    or inf if that overflows; a root whose every partial product is normal
    keeps its bits."""
    if all(map(_is_normal, products)):
        return products[-1] ** (1.0 / degree)
    try:
        return math.exp(log_base() / degree)
    except OverflowError:
        return math.inf


def holographic_box_width(d: float, ell: float, dim: int) -> float:
    """Maximum box side w0 for the holographic correctability certificate:
    (vol(B_D) / (2 * 4^(D+1) * D) * d / ell)^(1/(D-1)), taken in logs where
    the product under- or overflows (from D = 255 on, its first quotient
    alone is below the normal range)."""
    if dim < 2:
        raise ValueError("constants require D >= 2")
    if not (0 < d < math.inf and 0 < ell < math.inf):
        raise ValueError("d and ell must be positive and finite")
    scale = 2.0 * 4.0 ** (dim + 1) * dim
    per_d = _ball_volume(dim) / scale
    return _root(
        (per_d, per_d * d, per_d * d / ell),
        lambda: _log_ball_volume(dim) - math.log(scale) + math.log(d) - math.log(ell),
        dim - 1,
    )


def holographic_base_width(d: float, dim: int) -> float:
    """Base-case cube side: packing already keeps the count below d;
    (vol(B_D) / (2 * 4^D) * d)^(1/D), in logs where that product under- or
    overflows."""
    if not 0 < d < math.inf:
        raise ValueError("d must be positive and finite")
    scale = 2.0 * 4.0**dim
    per_d = _ball_volume(dim) / scale
    return _root(
        (per_d, per_d * d),
        lambda: _log_ball_volume(dim) - math.log(scale) + math.log(d),
        dim,
    )


# ---------------------------------------------------------------------------
# exponent-space contour tables


@dataclass(frozen=True)
class ContourTable:
    dimension: int
    code_class: str
    grid_step: float
    entries: tuple[tuple[float, float, float, float | None], ...]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "code_class": self.code_class,
            "grid_step": self.grid_step,
            "entries": [
                {"kappa": k, "delta": d, "ell_exponent": e, "m_exponent": m}
                for k, d, e, m in self.entries
            ],
        }

    def to_csv(self) -> str:
        lines = ["kappa,delta,ell_exponent,m_exponent"]
        for k, d, e, m in self.entries:
            lines.append(f"{k:.6f},{d:.6f},{e:.6f},{'' if m is None else f'{m:.6f}'}")
        return "\n".join(lines) + "\n"

    def lookup(self, kappa: float, delta: float, tol: float = 1e-9) -> tuple[float, float | None]:
        for k, d, e, m in self.entries:
            if abs(k - kappa) <= tol and abs(d - delta) <= tol:
                return e, m
        raise KeyError(f"no grid entry at ({kappa}, {delta})")


def ell_star_exponent(kappa: float, delta: float, dim: int, code_class: str) -> float:
    """log_n ell* in exponent space, clamped at 0 in the local regime."""
    e = _class_exponent(code_class)
    branch_d = delta - (dim - 1) / dim
    branch_k = (dim - 1) / (e * dim) * (kappa + e * delta / (dim - 1) - 1.0)
    return max(branch_d, branch_k, 0.0)


def m_star_exponent(kappa: float, delta: float, dim: int, code_class: str) -> float | None:
    """log_n M* = max(kappa, delta), or None inside the local regime."""
    e = _class_exponent(code_class)
    if kappa + e * delta / (dim - 1) <= 1.0 and delta <= (dim - 1) / dim:
        return None
    return max(kappa, delta)


def emit_contours(dim: int, code_class: str, grid_step: float) -> ContourTable:
    if dim < 2:
        raise ValueError("contours require D >= 2")
    # a step finer than the CSV's 6 decimals prints repeated rows
    if not 1e-6 <= grid_step <= 0.5:
        raise ValueError(f"grid step {grid_step} outside [1e-06, 0.5]")
    steps = int(round(1.0 / grid_step))
    # the table has (steps + 1)^2 entries
    if steps > 1000:
        raise ValueError(f"grid step {grid_step} makes {steps + 1} values per axis, more than 1001")
    values = [min(i * grid_step, 1.0) for i in range(steps)] + [1.0]
    entries = []
    for kappa in values:
        for delta in values:
            entries.append(
                (
                    kappa,
                    delta,
                    ell_star_exponent(kappa, delta, dim, code_class),
                    m_star_exponent(kappa, delta, dim, code_class),
                )
            )
    return ContourTable(
        dimension=dim,
        code_class=code_class,
        grid_step=grid_step,
        entries=tuple(entries),
    )
