"""Closed-form lower bounds on derivative-code dimensions.

The masks split into tau tiers, tau(v) counting the target variables 0..t-1
in v; `tier_sizes` is that table (below a degree cap when one is given).  A
dimension k decomposes against it as

    k = sum_{i<l} C(t, i) * 2^(m-t)  +  j * lcm(l, t) / l

with the j-term smaller than the size of tier l; `tier_of` finds l and the
base sum.  The minimal common derivative dimension of a t-symmetric code is
then

    sum_{i<l-1} C(t-1, i) * 2^(m-t)  +  j * lcm(l, t) / t.

The k whose decomposition leaves no remainder are `representable_dimensions`;
the construction removes whole tiers from the top down and meets exactly
these, so it checks feasibility against the same table and walk.

All arithmetic is exact; rates become floats only at the reporting boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codes import check_integers, check_m


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


def tier_sizes(m: int, t: int, rm_order: int | None = None) -> tuple[int, ...]:
    """Masks in each tau tier 0..t: the C(t, l) target parts of tier l times
    the non-target parts that the degree cap (m, or rm_order) leaves them.

    Raises ValueError unless m, t and rm_order are integers with m in
    1..MAX_M, 1 <= t <= m and 0 <= rm_order <= m, before any 2^m is formed.
    """
    check_m(m, low=1)
    cap = m if rm_order is None else rm_order
    check_integers(t=t, rm_order=cap)
    if not 1 <= t <= m:
        raise ValueError("need 1 <= t <= m")
    if not 0 <= cap <= m:
        raise ValueError("rm_order out of range")
    return _tier_table(m, t, cap)


@functools.lru_cache(maxsize=None)
def _tier_table(m: int, t: int, cap: int) -> tuple[int, ...]:
    rest = [math.comb(m - t, j) for j in range(m - t + 1)]
    return tuple(math.comb(t, l) * sum(rest[: max(cap - l + 1, 0)]) for l in range(t + 1))


def tier_of(k: int, tiers: Sequence[int]) -> tuple[int, int]:
    """The tier l that holds dimension k and the masks in the tiers below it.

    l is the largest tier whose base is at most k: 0 below the first tier
    boundary and t + 1 at the full count; O(t).
    """
    l = base = 0
    while l < len(tiers) and base + tiers[l] <= k:
        base += tiers[l]
        l += 1
    return l, base


def partially_symmetric_lb(m: int, t: int, k: int) -> tuple[int, SymmetricDecomposition]:
    """Lower bound on the common target-derivative dimension of a t-symmetric code.

    Non-representable k fall back to the largest representable k' <= k and
    are flagged exact=False.
    """
    tiers = tier_sizes(m, t)
    check_integers(k=k)
    if not 0 < k <= (1 << m):
        raise ValueError("need 0 < k <= 2^m")
    l, base = tier_of(k, tiers)
    if l == 0:
        # below the first tier boundary every target derivative can be empty
        return 0, SymmetricDecomposition(l=1, j=0, base=0, exact=False, k_used=None)
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


def representable_dimensions(m: int, t: int, rm_order: int | None = None) -> list[int]:
    """All dimensions the construction meets, below the degree cap rm_order
    when one is given; without one, exactly the k whose t-symmetric bound
    has an exact decomposition.  Each tier l >= 1 contributes its base plus
    the multiples of t / gcd(l, t) that fit in it; the full count closes the
    list.
    """
    out: list[int] = []
    base = 0
    for l, size in enumerate(tier_sizes(m, t, rm_order)):
        if l:
            out.extend(range(base, base + size, t // math.gcd(l, t)))
        base += size
    out.append(base)
    return out


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
    """Distance of the rate-1/2 derivative rate from 1/2, exact in m (odd,
    3..1023, so the binomial stays under 1024 bits)."""
    check_m(m, low=3, high=1023)
    if m % 2 == 0:
        raise ValueError("m must be odd")
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
    check_integers(t=t)
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
