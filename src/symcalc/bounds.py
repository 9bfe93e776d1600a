"""Closed-form lower bounds on derivative-code dimensions.

A dimension k decomposes against the target count t as

    k = sum_{i<l} C(t, i) * 2^(m-t)  +  j * lcm(l, t) / l

with the j-term smaller than the size of the degree-l tier.  The minimal
common derivative dimension of a t-symmetric code is then

    sum_{i<l-1} C(t-1, i) * 2^(m-t)  +  j * lcm(l, t) / t.

All arithmetic is exact; rates become floats only at the reporting boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codes import check_m


@dataclass(frozen=True)
class SymmetricDecomposition:
    """Decomposition of a dimension k along the tier structure.

    `base` is the closed sum term of the decomposition of the evaluated k,
    `exact` records whether the requested k itself was representable, and
    `k_used` is the representable dimension the bound was evaluated at
    (None when no representable dimension lies at or below the request).
    """

    l: int
    j: int
    base: int
    exact: bool
    k_used: int | None


def _tier_size(m: int, t: int, l: int) -> int:
    return math.comb(t, l) << (m - t)


def _base(m: int, t: int, l: int) -> int:
    return sum(_tier_size(m, t, i) for i in range(l))


def partially_symmetric_lb(m: int, t: int, k: int) -> tuple[int, SymmetricDecomposition]:
    """Lower bound on the common target-derivative dimension of a t-symmetric code.

    Non-representable k fall back to the largest representable k' <= k and
    are flagged exact=False.
    """
    for name, value in (("m", m), ("t", t), ("k", k)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}={value!r} is not an integer")
    check_m(m, low=1)
    if not 1 <= t <= m:
        raise ValueError("need 1 <= t <= m")
    if not 0 < k <= (1 << m):
        raise ValueError("need 0 < k <= 2^m")
    smallest = _base(m, t, 1)
    if k < smallest:
        # below the first tier boundary every target derivative can be empty
        return 0, SymmetricDecomposition(l=1, j=0, base=0, exact=False, k_used=None)
    l = 1
    while l <= t and _base(m, t, l + 1) <= k:
        l += 1
    base = _base(m, t, l)
    p = k - base
    g = math.gcd(l, t)
    step = t // g  # lcm(l, t) / l
    exact = p % step == 0
    p -= p % step
    j = p // step
    bound = sum(math.comb(t - 1, i) << (m - t) for i in range(l - 1)) + j * (l // g)
    return bound, SymmetricDecomposition(l=l, j=j, base=base, exact=exact, k_used=base + p)


def fully_symmetric_lb(m: int, k: int) -> tuple[int, SymmetricDecomposition]:
    """Lower bound for fully symmetric codes (the t = m case)."""
    return partially_symmetric_lb(m, m, k)


def representable_dimensions(m: int, t: int) -> list[int]:
    """All k for which the t-symmetric bound holds with an exact decomposition."""
    check_m(m)
    if not 1 <= t <= m:
        raise ValueError("need 1 <= t <= m")
    out: set[int] = set()
    for l in range(1, t + 2):
        base = _base(m, t, l)
        tier = _tier_size(m, t, l)
        step = t // math.gcd(l, t)
        if tier == 0:
            out.add(base)
            continue
        out.update(base + p for p in range(0, tier, step))
    out.add(1 << m)
    return sorted(v for v in out if 0 < v <= (1 << m))


def list_size_lb(rate_minus: float, capacity_minus: float, n: int) -> float:
    """Bits of list size forced by decoding a rate above the channel capacity."""
    if not 0 <= rate_minus <= 1 or not 0 <= capacity_minus <= 1:
        raise ValueError("rate and capacity must lie in [0, 1]")
    return max(0.0, n * (rate_minus - capacity_minus))


def bec_minus_capacity(eps: float) -> float:
    """Capacity of the XOR-branch channel of one erasure-channel split."""
    if not 0 <= eps <= 1:
        raise ValueError("erasure probability must lie in [0, 1]")
    return (1 - eps) ** 2


def convergence_gap(m: int) -> Fraction:
    """Distance of the rate-1/2 derivative rate from 1/2, exact in m (odd)."""
    if m % 2 == 0 or m < 3:
        raise ValueError("m must be odd and at least 3")
    return Fraction(math.comb(m - 1, m // 2), 1 << m)


@dataclass(frozen=True)
class BoundPoint:
    k: int
    rate: float
    deriv_rate: float
    exact: bool


def bound_curve(
    m: int,
    t: int | str | None = None,
    k_range: Iterable[int] | None = None,
) -> list[BoundPoint]:
    """Derivative-rate lower-bound curve, by default over the representable k
    (the plotted curve is their linear interpolation).

    t may be an integer, or "full"/None for the fully symmetric case.  An
    explicit k_range is evaluated with the floor policy and per-row exactness
    flags.
    """
    check_m(m)
    if t in (None, "full"):
        t = m
    if not isinstance(t, int):
        raise ValueError(f"bad symmetry parameter {t!r}")
    ks: Sequence[int] = sorted(k_range) if k_range is not None else representable_dimensions(m, t)
    rows = []
    for k in ks:
        bound, dec = partially_symmetric_lb(m, t, k)
        rows.append(
            BoundPoint(
                k=k,
                rate=float(Fraction(k, 1 << m)),
                deriv_rate=float(Fraction(bound, 1 << (m - 1))),
                exact=dec.exact,
            )
        )
    return rows
