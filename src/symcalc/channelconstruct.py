"""Polar-code construction and layer-permutation ranking.

The splitting recursions track synthetic-channel reliabilities in
decode-position order: entry 0 is the bit decoded first (the all-XOR branch),
and splitting entry q yields the degraded branch at 2q and the upgraded branch
at 2q+1.  Everything outside them is indexed by monomial mask: a mask v is
decoded through the position whose transform sequence takes the degraded
branch for every set bit of v, most significant processed variable first,
i.e. position n-1-v under the identity layer order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import erfc

from .codes import MonomialCode, check_integers, check_m, check_monomial
from .decode import branch_positions, resolve_layer_order
from .sim import Bec, BiAwgn, ChannelModel, noise_sigma, philox_key


def _polarize(
    m: int, x0: float, split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Per-position images of x0 after m splitting levels; split maps the
    values of one level to their (degraded, upgraded) images."""
    check_m(m)
    x = np.array([x0], dtype=np.float64)
    for _ in range(m):
        out = np.empty(2 * x.size, dtype=np.float64)
        out[0::2], out[1::2] = split(x)
        x = out
    return x


def _bec_split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # degraded: erased unless both halves arrive; upgraded: erased only if both are
    return 2 * z - z * z, z * z


def bec_density_evolution(m: int, eps: float) -> np.ndarray:
    """Exact per-position erasure probabilities after m splitting levels."""
    if not 0 <= eps <= 1:
        raise ValueError("erasure probability must lie in [0, 1]")
    return _polarize(m, eps, _bec_split)


# ---------------------------------------------------------------------------
# Gaussian-approximation mean-LLR tracking.
#
# phi(x) approximates E[tanh(L/2)] deficit for L ~ N(x, 2x):
#   phi(x) = exp(0.0218 - 0.4527 * x^0.86)            for x < 10
#   phi(x) = sqrt(pi/x) * exp(-x/4) * (1 - 10/(7x))   for x >= 10
# handled in the log domain so deep recursions do not underflow.

_PHI_A, _PHI_B, _PHI_C = 0.0218, 0.4527, 0.86
_PHI_SWITCH = 10.0
_TABLE_X = np.logspace(np.log10(_PHI_SWITCH), 7.0, 8192)


def _phi_log(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    small = x < _PHI_SWITCH
    out = np.empty_like(x)
    xs = np.where(small, x, 1.0)
    out[small] = (_PHI_A - _PHI_B * np.power(xs, _PHI_C))[small]
    xl = np.where(small, _PHI_SWITCH, x)
    out[~small] = (0.5 * (np.log(np.pi) - np.log(xl)) - xl / 4 + np.log1p(-10.0 / (7.0 * xl)))[~small]
    return out


_TABLE_LOGPHI = _phi_log(_TABLE_X)


def _phi_inv_log(log_y: np.ndarray) -> np.ndarray:
    """Inverse of phi given log(y); closed form below the switch, table above."""
    log_y = np.asarray(log_y, dtype=np.float64)
    thresh = _phi_log(np.array(_PHI_SWITCH))
    out = np.empty_like(log_y)
    closed = log_y >= thresh
    arg = np.maximum(_PHI_A - log_y, 0.0) / _PHI_B
    out[closed] = np.power(arg, 1.0 / _PHI_C)[closed]
    big = ~closed
    if big.any():
        # table of log(phi) is decreasing in x; interp over the negated values
        out[big] = np.interp(-log_y[big], -_TABLE_LOGPHI, _TABLE_X)
    return out


def _ga_split(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-LLR images of one polarization step (degraded, upgraded)."""
    log_phi = _phi_log(mu)
    phi = np.exp(np.minimum(log_phi, 0.0))
    log_y = np.minimum(log_phi + np.log(2.0 - phi), 0.0)
    return _phi_inv_log(log_y), 2.0 * mu


def ga_llr_means(m: int, mu0: float) -> np.ndarray:
    """Per-position mean LLRs under the Gaussian approximation."""
    return _polarize(m, mu0, _ga_split)


def _ga_error_probs(mu: np.ndarray) -> np.ndarray:
    return 0.5 * erfc(np.sqrt(np.maximum(mu, 0.0)) / 2.0)


# ---------------------------------------------------------------------------
# per-mask reliabilities under a layer permutation


def _branch_error_probs(m: int, channel: ChannelModel, rate: float) -> np.ndarray:
    """Bit-error probability of every transform branch; the recursion does not
    depend on the layer order, only the mask-to-branch gather does.  Branch q
    takes the degraded split at level ell iff bit ell of q is set, highest
    level first, so it is decode position n-1-q."""
    if isinstance(channel, Bec):
        # an erasure resolves to a coin flip
        return bec_density_evolution(m, channel.eps)[::-1] / 2
    if isinstance(channel, BiAwgn):
        sigma = noise_sigma(channel.ebn0_db, rate)
        return _ga_error_probs(ga_llr_means(m, 2.0 / sigma**2)[::-1])
    raise TypeError(f"unsupported channel {channel!r}")


def mask_error_probs(
    m: int, channel: ChannelModel, perm: Sequence[int] | None = None, rate: float = 0.5
) -> np.ndarray:
    """SC bit-error probability of every monomial mask under a layer order.

    perm[m-1] is the variable split first; a set bit sends the mask through
    the degraded branch of its level.
    """
    check_m(m)
    perm = resolve_layer_order(m, perm)
    branch = _branch_error_probs(m, channel, rate)
    pos = branch_positions(np.arange(1 << m), np.array([perm]))[0]
    return branch[pos]


def polar_code(m: int, k: int, channel: ChannelModel) -> MonomialCode:
    """The polar code of dimension k on a channel: the k masks of lowest
    SC bit-error probability under the identity layer order, ties to the
    lower mask.  On BI-AWGN the reliabilities are taken at rate k/2^m."""
    check_m(m, low=1)
    n = 1 << m
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= 2^m")
    pe = mask_error_probs(m, channel, rate=k / n)
    return MonomialCode(m, frozenset(np.lexsort((np.arange(n), pe))[:k].tolist()))


def sc_error_estimate(code: MonomialCode, perm: Sequence[int] | None, channel: ChannelModel) -> float:
    """Union-bound SC frame-error estimate under a layer permutation."""
    check_monomial(code)
    perm = resolve_layer_order(code.m, perm)
    return float(_union_bound_scores(code, channel, np.array([perm], dtype=np.int64))[0])


# cells of the (orders, k) position and log arrays gathered at a time
_SCORE_CHUNK_CELLS = 1 << 20


def _union_bound_scores(code: MonomialCode, channel: ChannelModel, perms: np.ndarray) -> np.ndarray:
    """Union-bound SC frame-error estimate of the code under each of the
    (P, m) layer orders: 1 - prod(1 - p_v) over its masks v.

    The orders are gathered in chunks of at most _SCORE_CHUNK_CELLS cells;
    each row's sum does not depend on the chunking, and expm1 runs once on
    the whole vector of sums.
    """
    branch = _branch_error_probs(code.m, channel, code.k / code.n)
    log_ok = np.log1p(-np.minimum(branch, 1.0 - 1e-300))
    masks = np.array(code.sorted_masks(), dtype=np.int64)
    step = max(1, _SCORE_CHUNK_CELLS // max(1, masks.size))
    sums = np.empty(perms.shape[0], dtype=np.float64)
    for lo in range(0, perms.shape[0], step):
        sums[lo : lo + step] = log_ok[branch_positions(masks, perms[lo : lo + step])].sum(axis=1)
    return -np.expm1(sums)


@dataclass(frozen=True)
class PermutationSelection:
    perms: tuple[tuple[int, ...], ...]
    scores: tuple[float, ...]
    complete: bool   # False when fewer than the requested P satisfied the spacing
    sampled: bool    # True when m! was too large to enumerate


def permutation_distance(p1: Sequence[int], p2: Sequence[int]) -> int:
    """Number of positions where the two layer orders disagree."""
    return sum(1 for a, b in zip(p1, p2) if a != b)


_SAMPLE_LIMIT = 8
_SAMPLE_COUNT = 100_000


def select_permutations(
    code: MonomialCode,
    p_count: int,
    channel: ChannelModel,
    min_dist: int = 5,
    seed: int = 0,
) -> PermutationSelection:
    """Rank layer permutations by estimated SC error and pick P spread-out ones.

    Candidates are sorted by the union-bound estimate and kept greedily so
    that every retained pair differs in at least min_dist positions; the best
    candidate is always retained.  Beyond m = 8 the candidates are a seeded
    sample of the m! orders.
    """
    check_monomial(code)
    check_integers(p_count=p_count, min_dist=min_dist, seed=seed)
    if p_count < 1:
        raise ValueError("need P >= 1")
    m = code.m
    sampled = m > _SAMPLE_LIMIT
    if sampled:
        rng = np.random.Generator(np.random.Philox(key=philox_key(seed, 0)))
        cand = {tuple(range(m))}
        while len(cand) < _SAMPLE_COUNT:
            cand.update(tuple(int(x) for x in rng.permutation(m)) for _ in range(1024))
        candidates = sorted(cand)
    else:
        candidates = [tuple(p) for p in itertools.permutations(range(m))]

    scores = _union_bound_scores(code, channel, np.array(candidates, dtype=np.int64)).tolist()

    ranked = sorted(zip(scores, candidates))
    kept: list[tuple[int, ...]] = []
    kept_scores: list[float] = []
    for score, perm in ranked:
        if len(kept) == p_count:
            break
        if all(permutation_distance(perm, q) >= min_dist for q in kept):
            kept.append(perm)
            kept_scores.append(score)
    return PermutationSelection(
        perms=tuple(kept),
        scores=tuple(kept_scores),
        complete=len(kept) == p_count,
        sampled=sampled,
    )
