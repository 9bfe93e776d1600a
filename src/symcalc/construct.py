"""Channel-independent construction of optimal partially symmetric codes.

Starting from the full monomial set (or a Reed-Muller subset), monomials are
removed in order of decreasing target count tau(v) = |support(v) in targets|,
then decreasing degree within the boundary tier, then anchored batches, and
finally a balanced residual batch chosen so that every target variable loses
the same number of derivative monomials.  Targets are variables 0..t-1.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .codes import MonomialCode, check_m

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConstructionRequest:
    m: int
    t: int
    k: int
    rm_order: int | None = None

    def __post_init__(self):
        check_m(self.m, low=1)
        if not 1 <= self.t <= self.m:
            raise ValueError("need 1 <= t <= m")
        limit = 1 << self.m
        if self.rm_order is not None:
            if not 0 <= self.rm_order <= self.m:
                raise ValueError("rm_order out of range")
            limit = sum(math.comb(self.m, i) for i in range(self.rm_order + 1))
        if not 0 < self.k <= limit:
            raise ValueError(f"need 0 < k <= {limit}")


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


def _initial_masks(m: int, rm_order: int | None) -> set[int]:
    if rm_order is None:
        return set(range(1 << m))
    return {v for v in range(1 << m) if v.bit_count() <= rm_order}


def _desc(masks: Iterable[int]) -> list[int]:
    return sorted(masks, reverse=True)


def _stage1(masks: set[int], t: int, k: int, log: list[RemovalStep]) -> int:
    """Remove whole tau tiers while possible; returns the boundary l_hat."""
    t_mask = (1 << t) - 1
    l_hat = t
    while l_hat >= 1:
        tier = [v for v in masks if (v & t_mask).bit_count() == l_hat]
        if len(masks) - len(tier) < k:
            break
        if tier:
            ordered = sorted(tier, key=lambda v: (-v.bit_count(), -v))
            log.append(RemovalStep("tier", l_hat, None, tuple(ordered)))
            masks.difference_update(tier)
        l_hat -= 1
    return l_hat


def construct_partially_symmetric_trace(
    req: ConstructionRequest,
) -> tuple[MonomialCode, list[RemovalStep]]:
    """Run the construction and return the code with its removal log."""
    m, t, k = req.m, req.t, req.k
    ok, below, above = _nearest_achievable(req)
    if not ok:
        raise NonRepresentableError(req, below, above)

    t_mask = (1 << t) - 1
    masks = _initial_masks(m, req.rm_order)
    log: list[RemovalStep] = []

    l_hat = _stage1(masks, t, k, log)
    if len(masks) == k:
        return _finish(req, masks, log)

    def boundary(degree: int) -> list[int]:
        return [
            v
            for v in masks
            if (v & t_mask).bit_count() == l_hat and v.bit_count() == degree
        ]

    max_deg = m - t + l_hat if req.rm_order is None else min(m - t + l_hat, req.rm_order)
    d_hat = max_deg
    while d_hat >= l_hat:
        sub = boundary(d_hat)
        if len(masks) - len(sub) < k:
            break
        if sub:
            log.append(RemovalStep("degree", l_hat, d_hat, tuple(_desc(sub))))
            masks.difference_update(sub)
        d_hat -= 1
        if len(masks) == k:
            return _finish(req, masks, log)

    # anchored removals: fix a degree-(d_hat - l_hat) monomial on the
    # non-target variables and drop all boundary monomials containing it
    per_anchor = math.comb(t, l_hat)
    anchors = sorted(
        s
        for s in range(1 << m)
        if s & t_mask == 0 and s.bit_count() == d_hat - l_hat
    )
    target_parts = [sum(1 << i for i in combo) for combo in combinations(range(t), l_hat)]
    anchor_iter = iter(anchors)
    while len(masks) - per_anchor >= k:
        s = next(anchor_iter)
        family = [s | p for p in target_parts]
        log.append(RemovalStep("anchor", l_hat, d_hat, tuple(_desc(family))))
        masks.difference_update(family)
    if len(masks) == k:
        return _finish(req, masks, log)

    # balanced residual inside one fresh anchor family
    residual = len(masks) - k
    s = next(anchor_iter)
    family = [s | p for p in target_parts]
    kept = biregular_subgraph(t, l_hat, per_anchor - residual, family)
    removed = [v for v in family if v not in kept]
    log.append(RemovalStep("residual", l_hat, d_hat, tuple(_desc(removed))))
    masks.difference_update(removed)
    return _finish(req, masks, log)


def _finish(req, masks, log) -> tuple[MonomialCode, list[RemovalStep]]:
    assert len(masks) == req.k
    code = MonomialCode(req.m, frozenset(masks))
    max_deg = max((v.bit_count() for v in masks), default=0)
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


def _tier_sizes(m: int, t: int, rm_order: int | None) -> list[int]:
    """Initial masks in each tau tier 0..t: the C(t, l) target parts of tier l
    times the non-target parts that the degree cap leaves them."""
    cap = m if rm_order is None else rm_order
    rest = [math.comb(m - t, j) for j in range(m - t + 1)]
    return [math.comb(t, l) * sum(rest[: max(cap - l + 1, 0)]) for l in range(t + 1)]


def _is_achievable(k: int, tiers: list[int]) -> bool:
    """Whether dimension k is achievable given the tau tier sizes; O(t)."""
    t = len(tiers) - 1
    k_prime = sum(tiers)
    if not tiers[0] <= k <= k_prime:  # tier 0 holds mask 0, so k >= 1
        return False
    l_hat = t
    while l_hat >= 1 and k_prime - tiers[l_hat] >= k:
        k_prime -= tiers[l_hat]
        l_hat -= 1
    if k_prime == k:
        return True
    return ((k_prime - k) * l_hat) % t == 0


def _nearest_achievable(req: ConstructionRequest) -> tuple[bool, int | None, int | None]:
    tiers = _tier_sizes(req.m, req.t, req.rm_order)
    if _is_achievable(req.k, tiers):
        return True, None, None
    below = next((k for k in range(req.k - 1, 0, -1) if _is_achievable(k, tiers)), None)
    above = next((k for k in range(req.k + 1, sum(tiers) + 1) if _is_achievable(k, tiers)), None)
    return False, below, above


def achievable_dimensions(m: int, t: int, rm_order: int | None = None) -> list[int]:
    """All dimensions the construction can hit for these parameters."""
    tiers = _tier_sizes(m, t, rm_order)
    return [k for k in range(1, sum(tiers) + 1) if _is_achievable(k, tiers)]
