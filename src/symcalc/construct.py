"""Channel-independent construction of optimal partially symmetric codes.

Starting from the full monomial set (or a Reed-Muller subset), monomials are
removed in order of decreasing target count tau(v) = |support(v) in targets|,
then decreasing degree within the boundary tier, then anchored batches, and
finally a balanced residual batch chosen so that every target variable loses
the same number of derivative monomials.  Targets are variables 0..t-1.

The monomials still in the code are a boolean array `alive` indexed by mask,
so each removal batch is one array selection over the 2^m masks, read against
a cached degree (popcount) table; tau(v) is the degree of v & (2^t - 1).
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
import numbers
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .bounds import representable_dimensions, tier_of, tier_sizes
from .codes import MonomialCode

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConstructionRequest:
    m: int
    t: int
    k: int
    rm_order: int | None = None

    def __post_init__(self):
        """Raise ValueError for fields out of range, and NonRepresentableError,
        with the nearest achievable dimensions, unless the O(t) tier walk
        finds k achievable."""
        tiers = tier_sizes(self.m, self.t, self.rm_order)
        if not isinstance(self.k, numbers.Integral) or not 0 < self.k <= sum(tiers):
            raise ValueError(f"need an integer 0 < k <= {sum(tiers)}")
        l, base = tier_of(self.k, tiers)
        if not l or (self.k - base) % (self.t // math.gcd(l, self.t)):
            ks = representable_dimensions(self.m, self.t, self.rm_order)
            i = bisect.bisect(ks, self.k)
            raise NonRepresentableError(self, ks[i - 1] if i else None, ks[i] if i < len(ks) else None)


class NonRepresentableError(ValueError):
    """Requested dimension cannot be met; carries the nearest achievable ones."""

    def __init__(self, req: ConstructionRequest, below: int | None, above: int | None):
        self.request = req
        self.nearest_below = below
        self.nearest_above = above
        super().__init__(
            f"k={req.k} is not achievable for m={req.m}, t={req.t}"
            + (f", rm_order={req.rm_order}" if req.rm_order is not None else "")
            + f"; nearest achievable: below={below}, above={above}"
        )


@dataclass(frozen=True)
class RemovalStep:
    stage: str  # "tier" | "degree" | "anchor" | "residual"
    l_hat: int
    degree: int | None
    masks: tuple[int, ...]  # in removal order


# ---------------------------------------------------------------------------
# balanced subgraph selection


def _select_balanced(t: int, l: int, count: int) -> list[int]:
    """Pick `count` distinct l-subsets of [t] covering every element count*l/t times.

    Works element by element: the state holds, for each trace (intersection of
    a chosen subset with the processed elements), how many chosen subsets carry
    it.  Extending a trace P by the next element is a two-class transportation
    step whose margins always admit an integral solution because the
    proportional split m(P)*(l-|P|)/(t-j) sits inside every bound.  After the
    last element each multiplicity is 0 or 1, so the subsets are distinct.
    """
    total = math.comb(t, l)
    if not 0 <= count <= total:
        raise ValueError("count out of range")
    if (count * l) % t:
        raise ValueError("count*l must be divisible by t")
    delta = count * l // t
    state: dict[int, int] = {0: count}
    for j in range(t):
        remaining = t - j
        bounds = []
        floor_sum = 0
        for trace in sorted(state):
            m1 = state[trace]
            room = l - trace.bit_count()
            col = math.comb(remaining - 1, room - 1) if room >= 1 else 0
            m2 = math.comb(remaining, room) - m1
            lo = max(0, col - m2)
            hi = min(m1, col)
            bounds.append((trace, m1, lo, hi))
            floor_sum += lo
        slack = delta - floor_sum
        assert slack >= 0, "transportation margins violated"
        new_state: dict[int, int] = {}
        for trace, m1, lo, hi in bounds:
            take = lo + min(slack, hi - lo)
            slack -= take - lo
            if take:
                new_state[trace | (1 << j)] = new_state.get(trace | (1 << j), 0) + take
            if m1 - take:
                new_state[trace] = new_state.get(trace, 0) + (m1 - take)
        assert slack == 0, "transportation margins violated"
        state = new_state
    chosen = sorted(state)
    assert all(state[p] == 1 for p in chosen) and len(chosen) == count
    return chosen


def biregular_subgraph(t: int, l: int, keep_count: int, candidates: Iterable[int]) -> set[int]:
    """Keep `keep_count` candidate monomials so that each of the t target
    variables appears in exactly keep_count*l/t of them.

    The candidates must carry all C(t, l) weight-l target parts (a shared
    anchor outside the targets is allowed).
    """
    if not 1 <= l <= t:
        raise ValueError("need 1 <= l <= t")
    cands = sorted(candidates)
    t_mask = (1 << t) - 1
    parts = [c & t_mask for c in cands]
    if sorted(parts) != sorted(
        sum(1 << i for i in combo) for combo in combinations(range(t), l)
    ):
        raise ValueError("candidates must cover every weight-l target part exactly once")
    if not 0 <= keep_count <= len(cands):
        raise ValueError("keep_count out of range")
    if (keep_count * l) % t:
        raise ValueError(f"keep_count*l must be divisible by t (got {keep_count}*{l} vs t={t})")
    kept_parts = set(_select_balanced(t, l, keep_count))
    return {c for c, p in zip(cands, parts) if p in kept_parts}


# ---------------------------------------------------------------------------
# the construction


@functools.lru_cache(maxsize=None)
def _degrees(m: int) -> np.ndarray:
    """Degree (popcount) of every m-bit monomial mask, indexed by the mask."""
    degree = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        degree = np.concatenate((degree, degree + 1))
    degree.flags.writeable = False
    return degree


def construct_partially_symmetric_trace(
    req: ConstructionRequest,
) -> tuple[MonomialCode, list[RemovalStep]]:
    """Run the construction and return the code with its removal log."""
    m, t, k = req.m, req.t, req.k
    t_mask = (1 << t) - 1
    degree = _degrees(m)
    tau = degree[np.arange(1 << m) & t_mask]  # tau(v): the degree of v's target part
    alive = np.ones(1 << m, dtype=bool) if req.rm_order is None else degree <= req.rm_order
    count = int(np.count_nonzero(alive))
    log: list[RemovalStep] = []

    # whole tau tiers, highest first, while enough monomials remain
    l_hat = t
    while l_hat >= 1:
        tier = np.flatnonzero(alive & (tau == l_hat))
        if count - tier.size < k:
            break
        if tier.size:
            ordered = tier[np.lexsort((-tier, -degree[tier]))]
            log.append(RemovalStep("tier", l_hat, None, tuple(ordered.tolist())))
            alive[tier] = False
            count -= tier.size
        l_hat -= 1
    if count == k:
        return _finish(req, alive, log)

    # the boundary tier l_hat, highest degree first
    boundary = alive & (tau == l_hat)
    sizes = np.bincount(degree[boundary], minlength=m + 1)
    d_hat = min(m - t + l_hat, m if req.rm_order is None else req.rm_order)
    while d_hat >= l_hat:
        if count - sizes[d_hat] < k:
            break
        if sizes[d_hat]:
            sub = np.flatnonzero(boundary & (degree == d_hat))[::-1]
            log.append(RemovalStep("degree", l_hat, d_hat, tuple(sub.tolist())))
            alive[sub] = False
            count -= sub.size
        d_hat -= 1
        if count == k:
            return _finish(req, alive, log)

    # anchored removals: fix a degree-(d_hat - l_hat) monomial on the
    # non-target variables and drop all boundary monomials containing it
    per_anchor = math.comb(t, l_hat)
    anchors = np.flatnonzero((tau == 0) & (degree == d_hat - l_hat))
    target_parts = np.flatnonzero(degree[: 1 << t] == l_hat)[::-1]
    used = (count - k) // per_anchor
    families = anchors[: used + 1, None] | target_parts  # rows in descending order
    log.extend(RemovalStep("anchor", l_hat, d_hat, tuple(f)) for f in families[:used].tolist())
    alive[families[:used]] = False
    count -= used * per_anchor
    if count == k:
        return _finish(req, alive, log)

    # balanced residual inside one fresh anchor family
    family = families[used].tolist()
    kept = biregular_subgraph(t, l_hat, per_anchor - (count - k), family)
    removed = [v for v in family if v not in kept]
    log.append(RemovalStep("residual", l_hat, d_hat, tuple(removed)))
    alive[removed] = False
    return _finish(req, alive, log)


def _finish(req, alive, log) -> tuple[MonomialCode, list[RemovalStep]]:
    masks = np.flatnonzero(alive)
    assert masks.size == req.k
    code = MonomialCode(req.m, frozenset(masks.tolist()))
    max_deg = int(_degrees(req.m)[masks].max())
    if max_deg >= req.m - 1 and req.k < (1 << req.m):
        _warn_low_distance(req.m, req.t, req.k, 1 << (req.m - max_deg))
    return code, log


@functools.lru_cache(maxsize=None)
def _warn_low_distance(m: int, t: int, k: int, d: int) -> None:
    """Log the low-distance warning once per (m, t, k, d) in a process."""
    logger.warning("construction for m=%d t=%d k=%d has minimum distance %d", m, t, k, d)


def construct_partially_symmetric(req: ConstructionRequest) -> MonomialCode:
    """Optimal t-symmetric monomial code of dimension k (see module docstring)."""
    code, _ = construct_partially_symmetric_trace(req)
    return code
