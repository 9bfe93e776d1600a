"""Batch SC, SC-list, permutation, and brute-force ML decoders over LLR inputs.

Positive LLR favors bit 0.  The successive-cancellation recursion first
resolves the XOR of the two codeword halves (the derivative part) and then
the second half given that estimate; a layer permutation relabels which
variable each recursion level splits, with the identity order splitting the
most significant variable first.

Each layer order's gathers and leaf pattern are built once and cached
(`_setup`).  SC walks a cached node plan of its group of layer orders
(`_plan`): those arrays stacked, and a tree that names the subtrees frozen
under every order, which SC skips, and the leaves that are info under every
order, which decide without a mask.  The check node (`llr_check`) runs large
inputs in cache-sized blocks; both it and the plan leave every output bit
as the plain recursion gives it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitmath import BitVec
from .codes import LinearCode, MonomialCode, check_integers, encode_batch, kronecker_transform_array

LLR_CLAMP = 1e30  # stands in for +/- infinity so BEC inputs stay arithmetic-safe

ML_MAX_DIMENSION = 20
ML_CHUNK_CELLS = 1 << 20  # bounds ml_decode_batch's (codewords, n) and (B, codewords) arrays

# bounds the LLRs one list decode holds: frames x n x min(L, 2^k) paths
# (criterion 9's SCL-128 at 256 frames of n = 256 needs 2^23)
BATCH_LLR_CELLS = 1 << 24


def _negate_where(x: np.ndarray, mask: np.ndarray) -> None:
    """Negate x in place where mask (bool or 0/1 uint8, x's shape) is set.

    IEEE negation flips the sign bit and nothing else, for +-0, subnormals
    and +-inf too, so this XORs mask << 63 into x's uint64 view.  The hot
    loops pass no mask to a ufunc's `where` argument: numpy then runs its
    masked inner loop, and a masked np.negative took 4.6-6.2 ms on 524,288
    float64 against 0.84-0.93 ms for this XOR (2-core x86-64, numpy 2.4).
    """
    view = x.view(np.uint64)
    np.bitwise_xor(view, np.left_shift(mask, 63, dtype=np.uint64), out=view)


def _log1p_exp_neg_abs(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(-|t|)), computed in place."""
    np.copysign(t, -1.0, out=t)
    np.exp(t, out=t)
    return np.log1p(t, out=t)


_SIGN_BIT = np.uint64(1 << 63)

# llr_check evaluates inputs of more than CHECK_WHOLE_CELLS cells in blocks
# of CHECK_BLOCK_CELLS (128 kB of float64 per operand, so a block's five
# arrays stay in L2); smaller inputs take one ufunc call per step.  The limit
# is the measured crossover: the whole form took 7% less time at 2^11 cells
# and 20-35% less at 2^8 to 2^10, the blocked one 1-8% less at 2^12 and
# 11-14% less from 2^13 to 2^15 (random normal inputs, two sittings, 2-core
# x86-64 with AVX-512, numpy 2.4)
CHECK_WHOLE_CELLS = 1 << 11
CHECK_BLOCK_CELLS = 1 << 14


def llr_check(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Check-node combine: exact tanh rule in a numerically stable form,
    min-sum plus the standard log-domain correction.

    The min-sum part is sign(a) sign(b) min(|a|, |b|); a zero result may
    carry either sign, which no comparison or sum distinguishes.  Plain
    min-sum is not a shortcut even on erasure-channel inputs: after a wrong
    guess the recursion reaches magnitudes near 2^48, which do not absorb
    the log(2) correction, and some BEC frames then decode differently.

    a and b are C-contiguous arrays of one shape.  Up to CHECK_WHOLE_CELLS
    cells each step is one ufunc call over the whole array.  Larger inputs
    run the same steps on blocks of CHECK_BLOCK_CELLS cells, in two scratch
    blocks, and take the min-sum sign as the XOR of the sign bits instead
    of the sign of a * b.  The two differ only where a * b is NaN (an
    infinity times a zero), where min(|a|, |b|) is zero and adding the
    correction term, +0 or more, gives +0 either way.  Every other step is
    the same IEEE operation on the same operands, -|t| included (setting
    the sign bit is what copysign(t, -1) does), and np.exp and np.log1p
    see contiguous blocks, so both sizes give the same bits.
    """
    if a.size <= CHECK_WHOLE_CELLS:
        out = np.abs(a)
        tmp = np.abs(b)
        np.minimum(out, tmp, out=out)
        np.copysign(out, np.multiply(a, b, out=tmp), out=out)
        out += _log1p_exp_neg_abs(np.add(a, b, out=tmp))
        out -= _log1p_exp_neg_abs(np.subtract(a, b, out=tmp))
        return out
    out = np.empty(a.shape)
    a, b, flat = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    t_buf = np.empty(min(a.size, CHECK_BLOCK_CELLS))
    sign_buf = np.empty(t_buf.size, dtype=np.uint64)
    for lo in range(0, a.size, CHECK_BLOCK_CELLS):
        x, y, o = a[lo : lo + CHECK_BLOCK_CELLS], b[lo : lo + CHECK_BLOCK_CELLS], flat[lo : lo + CHECK_BLOCK_CELLS]
        t, sign = t_buf[: x.size], sign_buf[: x.size]
        t_bits, o_bits = t.view(np.uint64), o.view(np.uint64)
        np.abs(x, out=o)
        np.minimum(o, np.abs(y, out=t), out=o)
        np.bitwise_xor(x.view(np.uint64), y.view(np.uint64), out=sign)
        np.bitwise_and(sign, _SIGN_BIT, out=sign)
        np.bitwise_or(o_bits, sign, out=o_bits)
        for op in (np.add, np.subtract):  # o += corr(a + b), then o -= corr(a - b)
            op(x, y, out=t)
            np.bitwise_or(t_bits, _SIGN_BIT, out=t_bits)
            np.exp(t, out=t)
            op(o, np.log1p(t, out=t), out=o)
    return out


def check_working_set(code: LinearCode | MonomialCode, frames: int, paths: int = 1, ml: bool = False) -> None:
    """Raise ValueError, allocating nothing, when decoding `frames` frames with
    `paths` list paths or layer orders each would hold more than
    BATCH_LLR_CELLS LLRs, or when ml is set and k exceeds ML_MAX_DIMENSION."""
    if ml and code.k > ML_MAX_DIMENSION:
        raise ValueError(f"k={code.k} exceeds the brute-force limit {ML_MAX_DIMENSION}")
    cells = frames * code.n * paths
    if cells > BATCH_LLR_CELLS:
        raise ValueError(
            f"{frames} frame(s) x n={code.n} x {paths} paths is {cells} LLRs, over the limit {BATCH_LLR_CELLS}"
        )


# LLRs (frames x layer orders x n) in one pass of the SC recursion: 2048
# frame-order rows at n = 256, and never fewer than one order
GROUP_LLRS = 2048 * 256


def resolve_layer_order(m: int, layer_perm: Sequence[int] | None) -> tuple[int, ...]:
    """Validate a layer order; None stands for the identity.  A layer order
    that is not a sequence, or an entry that is not an integer (numpy
    integers are), raises ValueError naming it."""
    if layer_perm is None:
        return tuple(range(m))
    try:
        entries = list(layer_perm)
    except TypeError:
        raise ValueError(f"layer order {layer_perm!r} is not a sequence") from None
    perm = []
    for x in entries:
        try:
            perm.append(operator.index(x))
        except TypeError:
            raise ValueError(f"layer order entry {x!r} is not an integer") from None
    perm = tuple(perm)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"{perm!r} is not a permutation of range({m})")
    return perm


def branch_positions(masks: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """(P, len(masks)) transform branch of every mask under P layer orders.

    perm[m-1] is the variable split first; bit `level` of the branch is bit
    perm[level] of the mask, and branch q is decode position n-1-q.
    """
    m = perms.shape[1]
    pos = np.zeros((perms.shape[0], masks.size), dtype=np.int64)
    for level in range(m):
        pos |= ((masks[None, :] >> perms[:, level, None]) & 1) << level
    return pos


@functools.lru_cache(maxsize=128)
def _setup(m: int, gen_set: frozenset, perm: tuple[int, ...]):
    """Coordinate gather, its inverse, and the leaf info pattern for one
    decode order: coordinate v is decoded at leaf inverse[v]."""
    n = 1 << m
    inverse = (n - 1) ^ branch_positions(np.arange(n), np.array([perm], dtype=np.int64))[0]
    coord = np.argsort(inverse)  # recursion coordinate -> original coordinate
    info = np.zeros(n, dtype=bool)
    info[inverse[sorted(gen_set)]] = True
    for arr in (coord, inverse, info):
        arr.setflags(write=False)
    return coord, inverse, info


def _node_plan(info: np.ndarray):
    """The SC plan tree of (n, P) leaf info patterns, built level by level
    from the leaves up.

    A subtree frozen under every order is None, any other internal node the
    pair (left plan, right plan).  A leaf that is info under every order is
    True, one that is info under some orders its (P, 1) pattern, a view of
    info shared by the leaves of one pattern.
    """
    p = info.shape[1]
    raw = info.tobytes()
    patterns: dict[bytes, np.ndarray] = {}
    nodes = []
    for i, count in enumerate(info.sum(axis=1).tolist()):
        if count == p:
            nodes.append(True)
        elif count:
            nodes.append(patterns.setdefault(raw[i * p : (i + 1) * p], info[i, :, None]))
        else:
            nodes.append(None)
    while len(nodes) > 1:
        nodes = [None if left is None and right is None else (left, right) for left, right in zip(nodes[::2], nodes[1::2])]
    return nodes[0]


# group plans held at once, beside the per-order setups they stack.  A run of
# more groups (a perm-32 batch at m >= 12 takes one order a group) builds a
# group's plan again on each batch: a stack of cached setups and a tree, 0.6 ms
# for one order at m = 12 and 12 ms at m = 16, against 96 ms and 0.8 s of SC
# for its 128 and 8 frames
PLAN_CACHE_SIZE = 16


@dataclass(frozen=True, eq=False)
class _Plan:
    """One SC node plan for a group of P layer orders, read-only.

    coord (n, P) gathers each order's recursion coordinates from the
    original ones, inverse (n, P) is its inverse (coordinate v is decoded
    at leaf inverse[v]), info (n, P) the leaf info patterns and tree the
    `_node_plan` of the whole recursion.
    """

    coord: np.ndarray
    inverse: np.ndarray
    info: np.ndarray
    tree: object


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(m: int, gen_set: frozenset, perms: tuple[tuple[int, ...], ...]) -> _Plan:
    """The cached SC node plan of a group of resolved layer orders."""
    coord, inverse, info = (np.stack(arrs, axis=1) for arrs in zip(*(_setup(m, gen_set, p) for p in perms)))
    for arr in (coord, inverse, info):
        arr.setflags(write=False)
    return _Plan(coord, inverse, info, _node_plan(info))


def _llr_batch(code: LinearCode | MonomialCode, llrs: np.ndarray) -> np.ndarray:
    """(B, n) LLRs as float64, +-inf clamped to +-LLR_CLAMP; NaN or another
    shape raises ValueError."""
    lam = np.asarray(llrs, dtype=np.float64)
    if np.isnan(lam).any():
        raise ValueError("LLR vector contains NaN")
    if lam.ndim != 2 or lam.shape[1] != code.n:
        raise ValueError(f"expected LLR batch of shape (B, {code.n}), got {lam.shape}")
    return np.clip(lam, -LLR_CLAMP, LLR_CLAMP)


def _sc_rec(lam: np.ndarray, node, bits: np.ndarray, ties: np.ndarray):
    """SC over a subtree that holds an info leaf; overwrites lam.

    lam is (len, P, B): the subtree's LLRs for B frames under P layer orders,
    node its `_node_plan`.  The subtree's codeword bits go to `bits`, zero
    on entry, and zero-LLR info decisions are counted in `ties` (P, B).  A
    subtree frozen under every order is skipped: its bits stay zero and its
    sibling sees the LLRs b + a.
    """
    if node is True:
        np.less(lam[0], 0, out=bits[0])
        ties += lam[0] == 0
        return
    if lam.shape[0] == 1:
        np.logical_and(lam[0] < 0, node, out=bits[0])
        ties += (lam[0] == 0) & node
        return
    left, right = node
    h = lam.shape[0] // 2
    a, b = lam[:h], lam[h:]
    if left is not None:
        _sc_rec(llr_check(a, b), left, bits[:h], ties)
    if right is not None:
        if left is not None:
            _negate_where(a, bits[:h])
        _sc_rec(np.add(b, a, out=a), right, bits[h:], ties)  # b + (1 - 2 bit) a
        bits[:h] ^= bits[h:]


def sc_decode_orders(
    code: MonomialCode,
    llrs: np.ndarray,
    perms: Sequence[Sequence[int]],
):
    """SC under each of P layer orders for a batch of frames.

    Returns codewords (B, P, n) and zero-LLR decision counts (B, P).  The
    orders ride the batch axis of the recursion, in groups of at most
    GROUP_LLRS LLRs so that the working set stays bounded; each group walks
    its cached node plan.
    """
    orders = tuple(resolve_layer_order(code.m, p) for p in perms)
    if not orders:
        raise ValueError("permutation list is empty")
    lam_t = np.ascontiguousarray(_llr_batch(code, llrs).T)  # (n, B)
    b = lam_t.shape[1]
    codewords = np.empty((b, len(orders), code.n), dtype=np.uint8)
    ties = np.empty((b, len(orders)), dtype=np.int64)
    step = max(1, GROUP_LLRS // max(b * code.n, 1))
    for lo in range(0, len(orders), step):
        plan = _plan(code.m, code.gen_set, orders[lo : lo + step])
        p = plan.info.shape[1]
        bits = np.zeros((code.n, p, b), dtype=bool)
        group_ties = np.zeros((p, b), dtype=np.int64)
        if plan.tree is not None:
            _sc_rec(lam_t[plan.coord], plan.tree, bits, group_ties)
        codewords[:, lo : lo + p] = bits[plan.inverse, np.arange(p)].transpose(2, 1, 0)
        ties[:, lo : lo + p] = group_ties.T
    return codewords, ties


def sc_decode_batch(
    code: MonomialCode,
    llrs: np.ndarray,
    layer_perm: Sequence[int] | None = None,
):
    """Vectorized SC over a batch of frames: (B, n) LLRs in, (B, n) bits out.

    Returns (codewords, u, ties); u is the coefficient vector of each codeword.
    """
    codewords, ties = sc_decode_orders(code, llrs, [layer_perm])
    codewords = codewords[:, 0]
    return codewords, kronecker_transform_array(codewords), ties[:, 0]


def _fork(lam0, metrics, L):
    """Extend every path by bit 0 and by bit 1 and keep the L best.

    lam0 and metrics are (B, p).  Returns the survivors' bits (B*p',), their
    metrics (B, p') and their parents as rows b*p + j of the input paths,
    in the order of a stable sort of the metrics.
    """
    b, p = metrics.shape
    # logaddexp(0, -x) and logaddexp(0, x), the penalties of bits 0 and 1,
    # are s and |x| + s with s = logaddexp(0, -|x|), bit for bit: numpy
    # evaluates both as max + log1p(exp(-|x|)) through libm's exp and
    # log1p.  np.logaddexp must stay: the SIMD np.exp and np.log1p ufuncs
    # differ from libm by 1-3 units in the last place (on 1,739,415 of
    # 25,000,010 values -|10 z|, z standard normal, on an AVX-512 host), so
    # swapping them in would change path metrics.
    mag = np.abs(lam0)
    small = np.logaddexp(0.0, -mag)
    large = np.add(mag, small, out=mag)
    favours0 = lam0 > 0
    met2 = np.empty((b, 2 * p))
    np.add(metrics, np.where(favours0, small, large), out=met2[:, :p])
    np.add(metrics, np.where(favours0, large, small), out=met2[:, p:])
    first = p * np.arange(b)[:, None]
    if 2 * p <= L:
        bits = np.tile(np.repeat(np.array([0, 1], dtype=np.uint8), p), b)
        return bits, met2, (first + np.tile(np.arange(p), 2)).ravel()
    # Where the L+1 smallest metrics are distinct, any sort keeps the same L
    # paths in the same order as a stable one; only rows with ties re-sort.
    order = np.argsort(met2, axis=1)
    kept = np.take_along_axis(met2, order[:, : L + 1], axis=1)
    tied = (kept[:, 1:] == kept[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(met2[tied], axis=1, kind="stable")
        kept[tied] = np.take_along_axis(met2[tied], order[tied, : L + 1], axis=1)
    order = order[:, :L]
    bits = order >= p
    return bits.view(np.uint8).ravel(), kept[:, :L], (first + order - p * bits).ravel()


def _scl_rec(lam: np.ndarray, metrics: np.ndarray, info: np.ndarray, L: int):
    """SC list over a subtree; overwrites lam.

    lam is (len, B*p): row b*p + j holds path j of frame b, whose metric is
    metrics[b, j].  Returns the surviving paths' bits (len, B*p'), their
    metrics (B, p') and their parents as rows of lam.  A frozen leaf adds
    its bit-0 penalty, np.logaddexp for the libm reason given in _fork, to
    every path.  A subtree frozen on every path keeps each path in place and
    returns None bits and None parents, so nothing is gathered for it.
    """
    length = lam.shape[0]
    if length == 1:
        if not info[0]:
            return None, metrics + np.logaddexp(0.0, -lam[0].reshape(metrics.shape)), None
        bits, met, par = _fork(lam[0].reshape(metrics.shape), metrics, L)
        return bits[None, :], met, par
    h = length // 2
    cw0, met1, par1 = _scl_rec(llr_check(lam[:h], lam[h:]), metrics, info[:h], L)
    if cw0 is not None:
        lam = np.take(lam, par1, axis=1)
        _negate_where(lam[:h], cw0)
    lg = np.add(lam[h:], lam[:h], out=lam[:h])  # c + (1 - 2 bit) a
    cw1, met2, par2 = _scl_rec(lg, met1, info[h:], L)
    if cw1 is None:
        if cw0 is None:
            return None, met2, None
        bits = np.zeros((length, cw0.shape[1]), dtype=np.uint8)
        bits[:h] = cw0
        return bits, met2, par1
    bits = np.empty((length, cw1.shape[1]), dtype=np.uint8)
    bits[h:] = cw1
    if cw0 is None:
        bits[:h] = cw1
        return bits, met2, par2
    np.bitwise_xor(np.take(cw0, par2, axis=1), cw1, out=bits[:h])
    return bits, met2, par1[par2]


def _scl_decode_lists(code: MonomialCode, llrs: np.ndarray, L: int, layer_perm: Sequence[int] | None):
    """`scl_decode_batch` without the coefficient vectors: returns (bits
    (B,P,n), penalties (B,P)); the simulator's list decoder."""
    check_integers(L=L)
    if L < 1:
        raise ValueError("list size must be at least 1")
    lam = _llr_batch(code, llrs)
    check_working_set(code, lam.shape[0], min(L, 1 << code.k))
    coord, inverse, info = _setup(code.m, code.gen_set, resolve_layer_order(code.m, layer_perm))
    lam = np.ascontiguousarray(lam.T[coord])  # (n, B)
    bits, penalties, _ = _scl_rec(lam, np.zeros((lam.shape[1], 1)), info, L)
    if bits is None:  # k = 0: the one path is the zero word
        bits = np.zeros(lam.shape, dtype=np.uint8)
    codewords = np.ascontiguousarray(bits[inverse].T).reshape(penalties.shape + (code.n,))
    return codewords, penalties


def scl_decode_batch(
    code: MonomialCode,
    llrs: np.ndarray,
    L: int,
    layer_perm: Sequence[int] | None = None,
):
    """List decode a batch: returns (bits (B,P,n), u (B,P,n), penalties (B,P)).

    Raises ValueError, before any decoding, when frames x n x min(L, 2^k)
    exceeds BATCH_LLR_CELLS.
    """
    codewords, penalties = _scl_decode_lists(code, llrs, L, layer_perm)
    return codewords, kronecker_transform_array(codewords), penalties


@functools.lru_cache(maxsize=32)
def _monomial_generator(code: MonomialCode) -> np.ndarray:
    """The uint8 generator matrix of a monomial code, rows in ascending mask order."""
    gen = encode_batch(code, np.eye(code.k, dtype=np.uint8))
    gen.setflags(write=False)
    return gen


def ml_decode_batch(code: LinearCode | MonomialCode, llrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximum-likelihood decoding of (B, n) LLRs by scoring all 2^k codewords.

    Returns the (B, n) codewords and their (B, k) info bits, one per generator
    row (ascending mask order for a monomial code).  Codewords are scored in
    the order of their info bits read as a little-endian integer, and the
    first of highest correlation wins.  Each chunk of codewords is scored
    against all B frames with an einsum whose per-frame sums do not depend on
    B, so a frame decodes the same alone or in any batch.
    """
    check_working_set(code, 0, ml=True)  # k only: ML_CHUNK_CELLS bounds the chunks
    if isinstance(code, MonomialCode):
        gen = _monomial_generator(code)
    else:
        gen = code.generator_array()
    k, n = gen.shape
    lam = _llr_batch(code, llrs)
    frames = lam.shape[0]
    total = 1 << k
    chunk = max(1, min(total, ML_CHUNK_CELLS // max(n, frames)))
    exps = np.arange(k)
    best_val = np.full(frames, -np.inf)
    best_idx = np.zeros(frames, dtype=np.int64)
    rows = np.arange(frames)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        infos = ((idx[:, None] >> exps) & 1).astype(np.uint8)
        signs = 1.0 - 2.0 * ((infos @ gen) & 1).astype(np.float64)
        corr = np.einsum("cn,bn->bc", signs, lam)
        local = np.argmax(corr, axis=1)
        val = corr[rows, local]
        better = val > best_val
        best_val[better] = val[better]
        best_idx[better] = start + local[better]
    info_bits = ((best_idx[:, None] >> exps) & 1).astype(np.uint8)
    return (info_bits @ gen) & 1, info_bits


@dataclass(frozen=True)
class DecodeResult:
    """One frame's decoded codeword, as `ml_decode_bruteforce` returns it."""

    codeword: BitVec


def ml_decode_bruteforce(code: LinearCode | MonomialCode, llr: np.ndarray) -> DecodeResult:
    """Exact maximum-likelihood decoding of one frame: `ml_decode_batch` with B = 1.

    The one single-frame decoder left; perfbench's tracer and output checks
    read it by name.
    """
    cws, _ = ml_decode_batch(code, np.asarray(llr, dtype=np.float64)[None, :])
    return DecodeResult(BitVec.from_array(cws[0]))
