import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcalc import decode
from symcalc.bitmath import BitMatrix, BitVec, rank, rref
from symcalc.codes import (
    MonomialCode,
    encode_batch,
    kronecker_transform_array,
    monomial_to_linear,
    rm_code,
)
from symcalc.construct import ConstructionRequest, construct_partially_symmetric
from symcalc.decode import (
    llr_check,
    ml_decode_batch,
    ml_decode_bruteforce,
    sc_decode_batch,
    sc_decode_orders,
    scl_decode_batch,
)
from symcalc.sim import Bec, BiAwgn, SimConfig, _batch_correlations, _closest, _run_batch, draw_frames, noise_sigma


def assert_reencodes(code: MonomialCode, u: np.ndarray, codewords: np.ndarray) -> None:
    """Each coefficient vector lies on the generating set and encodes to its
    codeword; u and codewords are (..., n) arrays."""
    u, codewords = (np.asarray(x).reshape(-1, code.n) for x in (u, codewords))
    assert np.array_equal(encode_batch(code, u[:, code.sorted_masks()]), codewords)
    assert np.array_equal(kronecker_transform_array(u), codewords)


# ---------------------------------------------------------------------------
# Independent reference: a direct recursive SC decoder written against the
# textbook two-stage description, operating on (llr, per-position frozen flag)
# in the standard lower-triangular convention.  Deliberately scalar and slow.


def ref_check(a, b):
    return 2 * math.atanh(math.tanh(a / 2) * math.tanh(b / 2))


def ref_sc(llr, frozen):
    n = len(llr)
    if n == 1:
        u = 0 if frozen[0] else (1 if llr[0] < 0 else 0)
        return [u], [u]
    h = n // 2
    lam_minus = [ref_check(llr[i], llr[h + i]) for i in range(h)]
    cw0, u0 = ref_sc(lam_minus, frozen[:h])
    lam_plus = [llr[h + i] + (1 - 2 * cw0[i]) * llr[i] for i in range(h)]
    cw1, u1 = ref_sc(lam_plus, frozen[h:])
    return [a ^ b for a, b in zip(cw0, cw1)] + cw1, u0 + u1


def ref_sc_decode(code: MonomialCode, llr):
    """Map to the standard domain by complementing masks and reversing coords."""
    n = code.n
    frozen = [((n - 1) ^ s) not in code.gen_set for s in range(n)]
    cw_std, _ = ref_sc(list(llr[::-1]), frozen)
    return np.array(cw_std[::-1], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Reference batch decoders: the plain recursions that carry u alongside the
# codeword, with one gather per node and no shortcut for frozen subtrees.
# The engine in symcalc.decode must reproduce their outputs bit for bit.


def ref_llr_check(a, b):
    """The check-node formula frozen as the engine first had it: min-sum
    sign(a) sign(b) min(|a|, |b|) plus log1p(exp(-|a + b|)) minus
    log1p(exp(-|a - b|)), one whole-array ufunc call per step.  The engine's
    llr_check must equal it bit for bit."""
    out = np.abs(a)
    tmp = np.abs(b)
    np.minimum(out, tmp, out=out)
    np.copysign(out, np.multiply(a, b, out=tmp), out=out)
    out += ref_log1p_exp_neg_abs(np.add(a, b, out=tmp))
    out -= ref_log1p_exp_neg_abs(np.subtract(a, b, out=tmp))
    return out


def ref_log1p_exp_neg_abs(t):
    """log(1 + exp(-|t|)), computed in place."""
    np.copysign(t, -1.0, out=t)
    np.exp(t, out=t)
    return np.log1p(t, out=t)


def ref_setup(m, gen_set, perm):
    n = 1 << m
    y = np.arange(n)
    var_idx = np.zeros(n, dtype=np.int64)
    for j in range(m):
        var_idx |= ((y >> j) & 1) << perm[j]
    coord = var_idx[::-1].copy()
    rel = np.zeros(n, dtype=np.int64)
    for j in range(m):
        rel |= ((y >> perm[j]) & 1) << j
    info = np.zeros(n, dtype=bool)
    info[[(n - 1) ^ int(rel[v]) for v in gen_set]] = True
    return coord, info, (n - 1) ^ rel


def ref_sc_rec(lam, info):
    if lam.shape[1] == 1:
        lam0 = lam[:, 0]
        if info[0]:
            u = (lam0 < 0).astype(np.uint8)
            ties = (lam0 == 0).astype(np.int64)
        else:
            u = np.zeros(lam.shape[0], dtype=np.uint8)
            ties = np.zeros(lam.shape[0], dtype=np.int64)
        return u[:, None].copy(), u[:, None].copy(), ties
    h = lam.shape[1] // 2
    a, b = lam[:, :h], lam[:, h:]
    cw0, u0, t0 = ref_sc_rec(ref_llr_check(a, b), info[:h])
    cw1, u1, t1 = ref_sc_rec(b + (1.0 - 2.0 * cw0) * a, info[h:])
    return np.hstack([cw0 ^ cw1, cw1]), np.hstack([u0, u1]), t0 + t1


def ref_sc_batch(code, llrs, perm):
    coord, info, u_idx = ref_setup(code.m, code.gen_set, perm)
    lam = np.clip(llrs, -decode.LLR_CLAMP, decode.LLR_CLAMP)
    bits, u, ties = ref_sc_rec(lam[:, coord], info)
    cw = np.empty_like(bits)
    cw[:, coord] = bits
    return cw, u[:, u_idx], ties


def ref_fork(lam0, metrics, L):
    met2 = np.concatenate(
        [metrics + np.logaddexp(0.0, -lam0), metrics + np.logaddexp(0.0, lam0)], axis=1
    )
    b, p = metrics.shape
    par2 = np.broadcast_to(np.tile(np.arange(p), 2), (b, 2 * p))
    bits2 = np.concatenate([np.zeros((b, p), np.uint8), np.ones((b, p), np.uint8)], axis=1)
    if 2 * p <= L:
        return bits2, met2, np.ascontiguousarray(par2)
    order = np.argsort(met2, axis=1, kind="stable")[:, :L]
    return tuple(np.take_along_axis(x, order, axis=1) for x in (bits2, met2, par2))


def ref_scl_rec(lam, metrics, info, L):
    b, p, length = lam.shape
    if length == 1:
        lam0 = lam[:, :, 0]
        if info[0]:
            bits, met, par = ref_fork(lam0, metrics, L)
            return bits[:, :, None], bits[:, :, None].copy(), met, par
        bits = np.zeros((b, p, 1), dtype=np.uint8)
        par = np.ascontiguousarray(np.broadcast_to(np.arange(p), (b, p)))
        return bits, bits.copy(), metrics + np.logaddexp(0.0, -lam0), par
    h = length // 2
    a, c = lam[:, :, :h], lam[:, :, h:]
    cw0, u0, met1, par1 = ref_scl_rec(ref_llr_check(a, c), metrics, info[:h], L)
    sel = par1[:, :, None]
    lg = np.take_along_axis(c, sel, axis=1) + (1.0 - 2.0 * cw0) * np.take_along_axis(a, sel, axis=1)
    cw1, u1, met2, par2 = ref_scl_rec(lg, met1, info[h:], L)
    sel2 = par2[:, :, None]
    bits = np.concatenate([np.take_along_axis(cw0, sel2, axis=1) ^ cw1, cw1], axis=2)
    u = np.concatenate([np.take_along_axis(u0, sel2, axis=1), u1], axis=2)
    return bits, u, met2, np.take_along_axis(par1, par2, axis=1)


def ref_scl_batch(code, llrs, L, perm):
    coord, info, u_idx = ref_setup(code.m, code.gen_set, perm)
    lam = np.clip(llrs, -decode.LLR_CLAMP, decode.LLR_CLAMP)
    bits, u, penalties, _ = ref_scl_rec(lam[:, None, coord], np.zeros((lam.shape[0], 1)), info, L)
    cw = np.empty_like(bits)
    cw[:, :, coord] = bits
    return cw, u[:, :, u_idx], penalties


@st.composite
def codes_and_orders(draw, max_m=6):
    """A random monomial code with 1 <= m <= max_m and 1 to 7 layer orders.

    m is uniform on 1..max_m, k on 0..n and the masks a uniform k-subset,
    all from a seeded generator, because hypothesis's own integers and sets
    favour small values.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(1, max_m + 1))
    masks = rng.permutation(1 << m)[: rng.integers(0, (1 << m) + 1)].tolist()
    perms = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=7))
    return MonomialCode(m, frozenset(masks)), [tuple(p) for p in perms]


@st.composite
def decode_cases(draw, max_m=6):
    """A random monomial code with m <= max_m, layer orders and LLR frames.

    Half the cases are BEC frames (LLR +-inf or 0), so that zero-LLR
    decisions and equal path metrics occur; the others are BI-AWGN-like.
    """
    code, perms = draw(codes_and_orders(max_m))
    n = code.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = draw(st.integers(1, 6))
    cw = rng.integers(0, 2, (frames, n))
    if draw(st.booleans()):
        llrs = np.where(rng.random((frames, n)) < draw(st.floats(0.0, 1.0)), 0.0, (1.0 - 2.0 * cw) * np.inf)
    else:
        llrs = (1.0 - 2.0 * cw + draw(st.floats(0.1, 2.0)) * rng.standard_normal((frames, n))) * 2.0
    return code, perms, llrs


def _edge_case(gen_set, eps):
    """A fixed m = 3 case under two layer orders: BEC(eps) frames (erasures,
    then +-inf), or AWGN-like ones when eps is None."""
    rng = np.random.default_rng(7)
    cw = rng.integers(0, 2, (4, 8))
    if eps is None:
        llrs = 2.0 * (1.0 - 2.0 * cw + 0.8 * rng.standard_normal((4, 8)))
    else:
        llrs = np.where(rng.random((4, 8)) < eps, 0.0, (1.0 - 2.0 * cw) * np.inf)
    return MonomialCode(3, frozenset(gen_set)), [(0, 1, 2), (2, 0, 1)], llrs


# k = 0, k = n, and a code whose first half (masks with the split variable x2)
# is frozen under the identity order: the paths where a recursion returns no
# bits for a whole subtree, at the root or before any info leaf; then BEC(0)
# and BEC(1), every LLR +-inf or every LLR 0
EDGE_CASES = [
    _edge_case((), 0.4),
    _edge_case(range(8), None),
    _edge_case(range(4), 0.4),
    _edge_case(range(4), None),
    _edge_case((1, 2, 3, 5, 6), 0.0),
    _edge_case((1, 2, 3, 5, 6), 1.0),
]


def with_edge_cases(*extra):
    def wrap(test):
        for case in EDGE_CASES:
            test = example(case, *extra)(test)
        return test

    return wrap


@settings(max_examples=150, deadline=None)
@given(decode_cases(), st.integers(1, 12))
@with_edge_cases(1)
def test_sc_orders_match_reference_per_order(case, group_rows):
    """Orders batched in groups (of any size, the last one partial) give
    each order's reference codewords and tie counts."""
    code, perms, llrs = case
    with mock.patch.object(decode, "GROUP_LLRS", group_rows * code.n):
        cws, ties = sc_decode_orders(code, llrs, perms)
    assert cws.shape == (llrs.shape[0], len(perms), code.n)
    for i, perm in enumerate(perms):
        ref_cw, _, ref_ties = ref_sc_batch(code, llrs, perm)
        assert np.array_equal(cws[:, i], ref_cw)
        assert np.array_equal(ties[:, i], ref_ties)


@settings(max_examples=150, deadline=None)
@given(decode_cases())
@with_edge_cases()
def test_sc_batch_u_matches_reference_and_reencodes(case):
    code, perms, llrs = case
    cw, u, ties = sc_decode_batch(code, llrs, perms[0])
    ref_cw, ref_u, ref_ties = ref_sc_batch(code, llrs, perms[0])
    assert np.array_equal(cw, ref_cw) and np.array_equal(u, ref_u) and np.array_equal(ties, ref_ties)
    assert_reencodes(code, u, cw)


@settings(max_examples=150, deadline=None)
@given(decode_cases(), st.integers(1, 40))
@with_edge_cases(1)
@with_edge_cases(3)
@with_edge_cases(40)
def test_scl_batch_matches_reference(case, L):
    """Lists, u and penalties equal the reference bit for bit, also where
    BEC frames give equal path metrics."""
    code, perms, llrs = case
    cw, u, penalties = scl_decode_batch(code, llrs, L, perms[0])
    ref_cw, ref_u, ref_penalties = ref_scl_batch(code, llrs, L, perms[0])
    assert np.array_equal(cw, ref_cw) and np.array_equal(u, ref_u)
    assert np.array_equal(penalties.view(np.uint64), ref_penalties.view(np.uint64))
    assert_reencodes(code, u, cw)


@settings(max_examples=60, deadline=None)
@given(codes_and_orders(), st.floats(0.0, 1.0), st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_bec_frame_decodes_alike_alone_and_in_awgn_batch(case, eps, L, row, seed):
    """Nothing in a decode depends on the other frames of its batch: SC, the
    layer orders and SCL give a BEC frame the same codewords, u, ties and
    penalty bytes alone and among AWGN frames."""
    code, perms = case
    rng = np.random.default_rng(seed)
    signs = 1.0 - 2.0 * rng.integers(0, 2, (4, code.n))
    bec = np.where(rng.random(code.n) < eps, 0.0, signs[0] * np.inf)
    awgn = 2.0 * (signs[1:] + 0.8 * rng.standard_normal((3, code.n)))

    def decode_frame(llrs, i):
        outputs = (
            *sc_decode_batch(code, llrs, perms[0]),
            *sc_decode_orders(code, llrs, perms),
            *scl_decode_batch(code, llrs, L, perms[0]),
        )
        return [x[i].tobytes() for x in outputs]

    assert decode_frame(bec[None], 0) == decode_frame(np.insert(awgn, row, bec, axis=0), row)


def _bits(value: int, n: int) -> np.ndarray:
    """Bit i of value at index i."""
    return np.array([(value >> i) & 1 for i in range(n)], dtype=np.uint8)


def test_min_sum_decodes_a_bec_frame_differently():
    """Why no decoder takes min-sum on erasure-channel inputs.  On this BEC
    frame of an m = 6, k = 19 code, SC under one layer order guesses wrong,
    and its LLRs then reach magnitudes near 2^48, where the exact rule's
    log(2) term does not round away.  The exact rule (the reference's)
    decodes one codeword and plain min-sum another."""
    code = MonomialCode(6, frozenset(np.flatnonzero(_bits(0x33612B40308C0104, 64)).tolist()))
    erased, negative = _bits(0x088016ACCD280E55, 64), _bits(0x0049295120912120, 64)
    llrs = np.where(erased, 0.0, np.where(negative, -np.inf, np.inf))[None, :]
    perm = (3, 1, 2, 0, 4, 5)
    cws, ties = sc_decode_orders(code, llrs, [perm])
    ref_cw, _, ref_ties = ref_sc_batch(code, llrs, perm)
    assert np.array_equal(cws[:, 0], ref_cw) and np.array_equal(ties[:, 0], ref_ties)
    assert np.array_equal(cws[0, 0], _bits(0xAA0099CC0000CCCC, 64)) and ties[0, 0] == 12

    def min_sum(a, b):
        out = np.minimum(np.abs(a), np.abs(b))
        return np.copysign(out, a * b, out=out)

    with mock.patch.object(decode, "llr_check", min_sum):
        min_sum_cws, _ = sc_decode_orders(code, llrs, [perm])
    assert np.array_equal(min_sum_cws[0, 0], _bits(0x66CC5500CCCC0000, 64))


SPECIAL_LLRS = [0.0, -0.0, 5e-324, -5e-324, 1e30, -1e30, np.inf, -np.inf]


@pytest.mark.parametrize("mask_dtype", [bool, np.uint8])
@pytest.mark.parametrize("shape", [(16, 3, 5), (16, 15)], ids=["sc-rows", "scl-rows"])
def test_negate_where_flips_sign_bit_like_masked_negative(shape, mask_dtype):
    """On the first half of a (len, P, B) or (len, B*p) LLR array, as the SC
    and SCL recursions pass it, the sign-bit XOR equals np.negative with a
    where mask bit for bit, signed zeros, subnormals, clamps and infinities
    included, and leaves the other half alone."""
    rng = np.random.default_rng(5)
    lam = rng.standard_normal(shape)
    flat = lam.reshape(-1)
    flat[rng.choice(flat.size, 4 * len(SPECIAL_LLRS), replace=False)] = np.repeat(SPECIAL_LLRS, 4)
    h = shape[0] // 2
    mask = (rng.random((h,) + shape[1:]) < 0.5).astype(mask_dtype)
    ref = lam.copy()
    np.negative(ref[:h], out=ref[:h], where=mask.astype(bool))
    decode._negate_where(lam[:h], mask)
    assert np.array_equal(lam.view(np.uint64), ref.view(np.uint64))


def _special_halves(shape, seed):
    """The two halves of a (2h, ...) LLR array, as the SC and SCL recursions
    pass them to the check node: normal values over 40 orders of magnitude,
    a third of them swapped for SPECIAL_LLRS."""
    rng = np.random.default_rng(seed)
    full = (2 * shape[0],) + shape[1:]
    lam = rng.standard_normal(full) * 10.0 ** rng.integers(-20, 21, full)
    flat = lam.reshape(-1)
    special = rng.random(flat.size) < 1 / 3
    flat[special] = rng.choice(SPECIAL_LLRS, special.sum())
    return lam[: shape[0]], lam[shape[0] :]


# (len, P, B) halves of the SC recursion and (len, B*p) halves of the SCL
# recursion: a tiny node, the largest input taken whole, the smallest taken
# in blocks (one partial block), one block's worth, and whole numbers of
# blocks with and without a partial last block
CHECK_SHAPES = [
    (4, 3, 5),
    (8, 1, 256),
    (4, 2, 257),
    (16, 4, 256),
    (32, 4, 256),
    (32, 4, 257),
    (64, 8, 256),
    (8, 256),
    (16, 2048),
    (8, 4097),
    (128, 8195),
]


@pytest.mark.parametrize("shape", CHECK_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_llr_check_equals_frozen_formula_bit_for_bit(shape):
    """The engine's check node gives the frozen formula's bits on every
    input size, signed zeros, subnormals, clamps, infinities and the NaNs
    of inf - inf included."""
    a, b = _special_halves(shape, sum(shape))
    with np.errstate(invalid="ignore", over="ignore"):
        ref = ref_llr_check(a.copy(), b.copy())
        out = llr_check(a, b)
    assert out.shape == a.shape
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_check_shapes_cover_both_paths():
    cells = [math.prod(shape) for shape in CHECK_SHAPES]
    whole, block = decode.CHECK_WHOLE_CELLS, decode.CHECK_BLOCK_CELLS
    assert min(cells) < block and block in cells and whole in cells
    blocked = [c for c in cells if c > whole]
    assert any(c % block for c in blocked) and any(c % block == 0 for c in blocked)


@pytest.mark.parametrize("whole, block", [(0, 1), (0, 7), (16, 16), (100, 64)])
def test_llr_check_blocks_do_not_change_bits(monkeypatch, whole, block):
    """Any block size, a partial last block included, gives the same bits:
    small limits send (len, P, B) and (len, B*p) inputs through many
    blocks."""
    monkeypatch.setattr(decode, "CHECK_WHOLE_CELLS", whole)
    monkeypatch.setattr(decode, "CHECK_BLOCK_CELLS", block)
    for shape in [(4, 3, 5), (8, 2, 13), (8, 33)]:
        a, b = _special_halves(shape, block + sum(shape))
        with np.errstate(invalid="ignore", over="ignore"):
            ref = ref_llr_check(a.copy(), b.copy())
            out = llr_check(a, b)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def ref_check_node_count(info: np.ndarray) -> int:
    """Internal nodes of the decode tree whose left subtree holds a leaf that
    is info under some order, level by level over the (n, P) leaf patterns:
    the nodes where SC must run the check node."""
    n, count, size = info.shape[0], 0, info.shape[0]
    while size > 1:
        h = size // 2
        count += sum(bool(info[lo : lo + h].any()) for lo in range(0, n, size))
        size = h
    return count


@settings(max_examples=150, deadline=None)
@given(decode_cases())
@with_edge_cases()
def test_plan_skips_frozen_subtrees(case):
    """SC runs the check node exactly where a left subtree holds an info
    leaf under some order of the group, and nowhere else."""
    code, perms, llrs = case
    info = np.stack([ref_setup(code.m, code.gen_set, p)[1] for p in perms], axis=1)
    with mock.patch.object(decode, "llr_check", wraps=decode.llr_check) as spy:
        cws, ties = sc_decode_orders(code, llrs, perms)
    assert spy.call_count == ref_check_node_count(info)
    for i, perm in enumerate(perms):
        ref_cw, _, ref_ties = ref_sc_batch(code, llrs, perm)
        assert np.array_equal(cws[:, i], ref_cw) and np.array_equal(ties[:, i], ref_ties)


def test_plan_cache_is_bounded_and_read_only():
    """A perm run over more orders than the setup cache and more single-order
    groups than the plan cache hold evicts both and still gives each order's
    reference codewords and ties, and no cached array can be written."""
    size = decode._setup.cache_info().maxsize
    assert size is not None and decode._plan.cache_info().maxsize is not None
    rng = np.random.default_rng(19)
    code = MonomialCode(6, frozenset(rng.permutation(64)[:29].tolist()))
    perms = list(itertools.permutations(range(6)))[: size + 9]
    llrs = 2.0 * (1.0 - 2.0 * rng.integers(0, 2, (3, 64)) + 0.9 * rng.standard_normal((3, 64)))
    with mock.patch.object(decode, "GROUP_LLRS", llrs.size):
        cws, ties = sc_decode_orders(code, llrs, perms)
    for i, perm in enumerate(perms):
        ref_cw, _, ref_ties = ref_sc_batch(code, llrs, perm)
        assert np.array_equal(cws[:, i], ref_cw) and np.array_equal(ties[:, i], ref_ties)
    plan = decode._plan(code.m, code.gen_set, tuple(perms[:3]))
    leaves = []

    def collect(node):
        if isinstance(node, tuple):
            collect(node[0])
            collect(node[1])
        elif isinstance(node, np.ndarray):
            leaves.append(node)

    collect(plan.tree)
    assert leaves  # the three orders disagree on some info leaf
    for arr in [plan.coord, plan.inverse, plan.info, *decode._setup(code.m, code.gen_set, perms[0])] + leaves:
        assert not arr.flags.writeable


class TestLength256Reference:
    """The engine against the reference recursions at the benchmark's size,
    m = 8, beyond the m <= 6 of the hypothesis cases."""

    @pytest.fixture(scope="class")
    def case(self):
        code = construct_partially_symmetric(ConstructionRequest(m=8, t=5, k=128, rm_order=4))
        rng = np.random.default_rng(256)
        cw = encode_batch(code, rng.integers(0, 2, (32, code.k), dtype=np.uint8))
        signs = 1.0 - 2.0 * cw
        sigma = noise_sigma(2.0, code.k / code.n)
        awgn = 2.0 / sigma**2 * (signs[:16] + sigma * rng.standard_normal((16, code.n)))
        bec = np.where(rng.random((16, code.n)) < 0.4, 0.0, signs[16:] * np.inf)
        perms = [tuple(int(v) for v in rng.permutation(8)) for _ in range(3)]
        return code, np.vstack([awgn, bec]), perms

    def test_sc_orders_match_reference(self, case):
        code, llrs, perms = case
        cws, ties = sc_decode_orders(code, llrs, perms)
        assert ties[16:].any()  # the BEC frames reach zero-LLR decisions
        for i, perm in enumerate(perms):
            ref_cw, _, ref_ties = ref_sc_batch(code, llrs, perm)
            assert np.array_equal(cws[:, i], ref_cw) and np.array_equal(ties[:, i], ref_ties)

    def test_scl8_matches_reference(self, case):
        code, llrs, perms = case
        for perm in perms:
            cw, u, penalties = scl_decode_batch(code, llrs, 8, perm)
            ref_cw, ref_u, ref_penalties = ref_scl_batch(code, llrs, 8, perm)
            assert np.array_equal(cw, ref_cw) and np.array_equal(u, ref_u)
            assert np.array_equal(penalties.view(np.uint64), ref_penalties.view(np.uint64))


class TestScDecode:
    def test_noiseless_rm13(self):
        code = rm_code(1, 3)
        u = _bits(0b10111, 8)
        cw = kronecker_transform_array(u)
        llrs = np.where(cw == 0, np.inf, -np.inf)[None, :]
        out_cw, out_u, _ = sc_decode_batch(code, llrs)
        assert np.array_equal(out_cw[0], cw) and np.array_equal(out_u[0], u)

    def test_rate_one_is_hard_decision(self):
        code = MonomialCode(3, frozenset(range(8)))
        llrs = np.random.RandomState(0).randn(20, 8) * 3
        cw, _, _ = sc_decode_batch(code, llrs)
        assert np.array_equal(cw, (llrs < 0).astype(np.uint8))

    def test_worked_four_bit_instance(self):
        code = rm_code(1, 2)
        llr = np.array([1.2, -0.4, 0.7, -2.0])
        cw, _, _ = sc_decode_batch(code, llr[None, :])
        assert cw[0].tolist() == ref_sc_decode(code, llr).tolist()

    @pytest.mark.parametrize("m,k_seed", [(3, 1), (4, 2), (5, 3)])
    def test_matches_reference_on_random_codes(self, m, k_seed):
        rng = np.random.RandomState(k_seed)
        masks = frozenset(rng.choice(1 << m, size=(1 << m) // 2, replace=False).tolist())
        code = MonomialCode(m, masks)
        _, _, llrs = draw_frames(code, BiAwgn(0.5), k_seed, 0, 25)
        cw, _, _ = sc_decode_batch(code, llrs)
        for decoded, llr in zip(cw, llrs):
            assert decoded.tolist() == ref_sc_decode(code, llr).tolist()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sc_decode_batch(rm_code(1, 3), np.zeros((1, 4)))

    @pytest.mark.parametrize("shape", [(2, 32), (2, 8), (16,), (2, 2, 16)])
    def test_batch_shape_mismatch_rejected(self, shape):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        with pytest.raises(ValueError):
            sc_decode_batch(code, np.zeros(shape))
        with pytest.raises(ValueError):
            scl_decode_batch(code, np.zeros(shape), 4)

    def test_output_is_codeword(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(0.0), 99, 0, 50)
        cw, u, _ = sc_decode_batch(code, llrs)
        assert_reencodes(code, u, cw)

    def test_layer_perm_output_is_codeword(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(0.0), 99, 7, 8)
        for perm in itertools.permutations(range(4)):
            cw, u, _ = sc_decode_batch(code, llrs, layer_perm=perm)
            assert_reencodes(code, u, cw)


class TestSclDecode:
    def test_oversized_list_rejected_before_any_work(self):
        """frames x n x min(L, 2^k) over BATCH_LLR_CELLS raises at once, for
        a batch of 16 frames and for one frame: L = 2^62 on a k = 128 code
        would otherwise double its paths at every info leaf without limit."""
        import tracemalloc

        code = MonomialCode(8, frozenset(range(128)))
        llrs = np.ones((16, code.n))
        tracemalloc.start()
        limit = f"over the limit {decode.BATCH_LLR_CELLS}"
        try:
            for frames in (16, 1):
                with pytest.raises(ValueError, match=limit):
                    scl_decode_batch(code, llrs[:frames], 2**62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_list_capped_at_codeword_count(self):
        """L beyond 2^k keeps every codeword and passes the size check."""
        code = rm_code(1, 3)
        cw, _, _ = scl_decode_batch(code, np.ones((2, code.n)), 2**62)
        assert cw.shape == (2, 1 << code.k, code.n)

    def test_list_size_one_equals_sc(self):
        """SCL-1 gives SC's codewords and metrics on 10,000 AWGN frames
        decoded in batches."""
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(1.0), 5, 0, 10_000)
        for batch in np.split(llrs, 4):
            sc_cw, sc_u, _ = sc_decode_batch(code, batch)
            scl_cw, scl_u, _ = scl_decode_batch(code, batch, 1)
            assert np.array_equal(scl_cw[:, 0], sc_cw) and np.array_equal(scl_u[:, 0], sc_u)
            metrics = [np.einsum("bn,bn->b", 1.0 - 2.0 * cw, batch) for cw in (sc_cw, scl_cw[:, 0])]
            assert np.array_equal(*metrics)

    @settings(max_examples=100, deadline=None)
    @given(decode_cases(max_m=4), st.integers(0, 2**40))
    @with_edge_cases(0)
    def test_large_list_equals_ml(self, case, extra):
        """With L >= 2^k the best list word scores exactly the ML word's
        correlation, on random codes and layer orders, half of them on BEC
        frames, where equal correlations are common."""
        code, perms, llrs = case
        lists, _, _ = scl_decode_batch(code, llrs, (1 << code.k) + extra, perms[0])
        ml, _ = ml_decode_batch(code, llrs)
        scores = _batch_correlations(np.concatenate((lists, ml[:, None]), axis=1), llrs)
        assert np.array_equal(scores[:, :-1].max(axis=1), scores[:, -1])

    def test_metric_never_degrades_with_list_size(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(0.5), 23, 0, 200)
        best = [_batch_correlations(scl_decode_batch(code, llrs, L)[0], llrs).max(axis=1) for L in (1, 2, 4, 8, 32)]
        assert all((b >= a).all() for a, b in zip(best, best[1:]))

    def test_list_sorted_and_duplicate_free(self):
        """Each frame's list holds no codeword twice and is in order of
        penalty, best first: the last leaf decoded, the constant monomial's,
        is an info leaf, where a sort cuts the 32 extended paths back to 16."""
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(1.0), 31, 0, 100)
        lists, _, penalties = scl_decode_batch(code, llrs, 16)
        assert (np.diff(penalties, axis=1) >= 0).all()
        for words in lists:
            assert len(np.unique(words, axis=0)) == len(words)

    def test_candidates_are_codewords(self):
        code = rm_code(1, 4)
        gen = monomial_to_linear(code)
        _, _, llrs = draw_frames(code, BiAwgn(0.0), 99, 3, 4)
        lists, _, _ = scl_decode_batch(code, llrs, 8)
        for cand in lists[0]:
            stacked = BitMatrix.from_rows(gen.generator.row_ints() + [BitVec.from_array(cand).payload], 16)
            assert rank(stacked) == code.k


class TestPermutationDecode:
    def test_identity_equals_sc(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(1.5), 41, 0, 100)
        cws, _ = sc_decode_orders(code, llrs, [tuple(range(4))])
        assert np.array_equal(cws[:, 0], sc_decode_batch(code, llrs)[0])

    def test_empty_perm_list_rejected(self):
        with pytest.raises(ValueError):
            sc_decode_orders(rm_code(1, 3), np.zeros((2, 8)), [])

    def test_candidates_are_codewords(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        gen_rows = monomial_to_linear(code).generator.row_ints()
        perms = list(itertools.permutations(range(4)))[:6]
        _, _, llrs = draw_frames(code, BiAwgn(1.0), 43, 0, 50)
        cws, _ = sc_decode_orders(code, llrs, perms)
        assert_reencodes(code, kronecker_transform_array(cws), cws)
        for cand in cws.reshape(-1, code.n):
            assert rank(BitMatrix.from_rows(gen_rows + [BitVec.from_array(cand).payload], 16)) == code.k

    def test_metric_at_least_each_single_perm(self):
        """The perm decoder's pick scores the best of the orders' SC words,
        each order decoded on its own."""
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        perms = list(itertools.permutations(range(4)))[:8]
        _, _, llrs = draw_frames(code, BiAwgn(0.5), 47, 0, 50)
        picked = _closest(sc_decode_orders(code, llrs, perms)[0], llrs)
        singles = np.stack([sc_decode_batch(code, llrs, layer_perm=p)[0] for p in perms], axis=1)
        best = _batch_correlations(picked[:, None], llrs)[:, 0]
        assert np.array_equal(best, _batch_correlations(singles, llrs).max(axis=1))


def ref_ml(code: MonomialCode, llr) -> np.ndarray:
    """Brute-force ML, one codeword at a time: the first of highest
    correlation, in the order of the info bits read as a little-endian integer."""
    gen = monomial_to_linear(code).generator_array().astype(np.uint8)
    best, best_val = None, -np.inf
    for idx in range(1 << code.k):
        info = np.array([(idx >> i) & 1 for i in range(code.k)], dtype=np.uint8)
        cw = (info @ gen) & 1
        val = float(np.dot(np.clip(llr, -decode.LLR_CLAMP, decode.LLR_CLAMP), 1.0 - 2.0 * cw))
        if val > best_val:
            best, best_val = cw, val
    return best


@st.composite
def ml_cases(draw):
    """A random monomial code with k <= 8 and channel frames of its codewords:
    BEC erasures, which make exact ties common, or BI-AWGN-like noise."""
    m = draw(st.integers(0, 4))
    masks = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=8))
    code = MonomialCode(m, frozenset(masks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = draw(st.integers(1, 6))
    cw = encode_batch(code, rng.integers(0, 2, (frames, code.k), dtype=np.uint8))
    if draw(st.booleans()):
        llrs = np.where(rng.random(cw.shape) < draw(st.floats(0.0, 1.0)), 0.0, (1.0 - 2.0 * cw) * np.inf)
    else:
        llrs = (1.0 - 2.0 * cw + draw(st.floats(0.1, 2.0)) * rng.standard_normal(cw.shape)) * 2.0
    return code, llrs


@settings(max_examples=100, deadline=None)
@given(ml_cases(), st.integers(1, 64))
def test_ml_batch_matches_reference_and_single_frames(case, chunk_cells):
    """Any chunking of the codebook, and any batch, decodes each frame to the
    reference's first maximum."""
    code, llrs = case
    with mock.patch.object(decode, "ML_CHUNK_CELLS", chunk_cells):
        cws, infos = ml_decode_batch(code, llrs)
    assert np.array_equal(cws, encode_batch(code, infos))
    for i, llr in enumerate(llrs):
        assert np.array_equal(cws[i], ref_ml(code, llr))
        assert ml_decode_bruteforce(code, llr).codeword.to_array().tolist() == cws[i].tolist()




class TestMlDecode:
    def test_noiseless(self):
        code = rm_code(1, 3)
        cw = kronecker_transform_array(_bits(0b10110, 8))
        llr = np.where(cw == 0, 50.0, -50.0)
        assert np.array_equal(ml_decode_bruteforce(code, llr).codeword.to_array(), cw)
        assert np.array_equal(ml_decode_batch(code, llr[None, :])[0][0], cw)

    def test_metric_dominates_scl(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(1.0), 53, 0, 100)
        ml, _ = ml_decode_batch(code, llrs)
        for L in (1, 4, 16):
            lists, _, _ = scl_decode_batch(code, llrs, L)
            scores = _batch_correlations(np.concatenate((lists, ml[:, None]), axis=1), llrs)
            assert (scores[:, -1] >= scores[:, :-1].max(axis=1)).all()

    def test_dimension_guard(self):
        code = MonomialCode(5, frozenset(range(32)))
        with pytest.raises(ValueError):
            ml_decode_bruteforce(code, np.zeros(32))
        with pytest.raises(ValueError):
            ml_decode_batch(code, np.zeros((1, 32)))

    def test_u_reencodes(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        _, _, llrs = draw_frames(code, BiAwgn(1.0), 99, 9, 10)
        cws, _ = ml_decode_batch(code, llrs)
        assert_reencodes(code, kronecker_transform_array(cws), cws)


class TestMlLowerBoundFlag:
    """The flag behind `SimResult.ml_certified`: a batch counts a frame as
    certified when the decoded word correlates at least as well with the
    received vector as the sent one."""

    def test_exact_recovery_flags_true(self):
        counts = _run_batch(rm_code(1, 3), BiAwgn(6.0), SimConfig(seed=99), None, 0, 200)
        assert counts.errors < counts.frames
        assert counts.certified >= counts.frames - counts.errors

    def test_noiseless_true(self):
        counts = _run_batch(rm_code(1, 3), Bec(0.0), SimConfig(seed=1), None, 0, 8)
        assert (counts.errors, counts.certified) == (0, 8)

    def test_ml_always_certified(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        counts = _run_batch(code, BiAwgn(0.0), SimConfig(seed=61, decoder="ml"), None, 0, 100)
        assert counts.errors > 0 and counts.certified == 100


class TestBecBehaviour:
    def test_noiseless_bec(self):
        code = rm_code(1, 3)
        _, sent, llrs = draw_frames(code, Bec(0.0), 0, 0, 8)
        cw, _, ties = sc_decode_batch(code, llrs)
        assert np.array_equal(cw, sent) and not ties.any()

    def test_full_erasure_reports_ties(self):
        code = rm_code(1, 3)
        _, _, ties = sc_decode_batch(code, np.zeros((1, 8)))
        assert ties[0] == code.k

    def test_no_tie_implies_exact_and_ge_validates(self):
        """On the BEC, SC either recovers exactly (no zero-LLR decisions) or
        reports how many erased combinations it had to guess; frames that a
        Gaussian-elimination erasure decoder cannot uniquely solve always
        show up with at least one reported guess."""
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        gen = monomial_to_linear(code).generator_array()
        _, sent, llrs = draw_frames(code, Bec(0.35), 71, 0, 400)
        decoded, _, ties = sc_decode_batch(code, llrs)
        for cw, llr, res_cw, res_ties in zip(sent, llrs, decoded, ties):
            # GE oracle: unique completion iff the non-erased columns have full rank
            _, pivots = rref(BitMatrix.from_array(gen[:, llr != 0]))
            exact = np.array_equal(res_cw, cw)
            if res_ties == 0:
                assert exact
            if not exact or len(pivots) < code.k:
                assert res_ties > 0

    def test_guess_free_frames_decode_exactly_rm24(self):
        code = rm_code(2, 4)
        _, sent, llrs = draw_frames(code, Bec(0.3), 73, 0, 200)
        decoded, _, ties = sc_decode_batch(code, llrs)
        guess_free = ties == 0
        assert guess_free.any()  # the property was actually exercised
        assert np.array_equal(decoded[guess_free], sent[guess_free])


def test_batch_correlations_shared_path():
    """The one correlation routine clamps infinite LLRs and scores a word
    alike in any candidate slot and alone, so that list, permutation and ML
    words compare with zero tolerance."""
    rng = np.random.default_rng(3)
    words = rng.integers(0, 2, (4, 5, 16)).astype(np.uint8)
    words[:, 3] = words[:, 0]
    llrs = rng.standard_normal((4, 16))
    llrs[0, :2] = [np.inf, 0.0]
    llrs[1, 0] = -np.inf
    scores = _batch_correlations(words, llrs)
    direct = ((1.0 - 2.0 * words) * np.clip(llrs, -decode.LLR_CLAMP, decode.LLR_CLAMP)[:, None]).sum(axis=2)
    assert np.allclose(scores, direct, rtol=1e-12, atol=0)
    assert np.array_equal(scores[:, 3], scores[:, 0])
    assert np.array_equal(_batch_correlations(words[:, 2:3], llrs)[:, 0], scores[:, 2])


@pytest.mark.parametrize(
    "n_frames, paths, n, cap",
    # (frames x paths x n) cells against the cap: several frame blocks, several
    # path blocks within a frame, ragged last blocks, and the default cap
    [(9, 7, 16, 64), (5, 33, 8, 40), (13, 3, 32, 200), (9, 1100, 256, None)],
)
def test_batch_correlations_blocks_match_one_shot(monkeypatch, n_frames, paths, n, cap):
    """Blocked correlations equal the one-shot einsum over a sign lookup bit
    for bit, and no sign block is over _CORRELATION_CHUNK_CELLS cells."""
    import symcalc.sim as sim_mod

    if cap is not None:
        monkeypatch.setattr(sim_mod, "_CORRELATION_CHUNK_CELLS", cap)
    cap = sim_mod._CORRELATION_CHUNK_CELLS
    assert n_frames * paths * n > 2 * cap  # spans several blocks
    rng = np.random.default_rng(n_frames * paths)
    words = rng.integers(0, 2, (n_frames, paths, n)).astype(np.uint8)
    llrs = 4.0 * rng.standard_normal((n_frames, n))
    llrs[rng.random(llrs.shape) < 0.1] = np.inf
    lam = np.clip(llrs, -decode.LLR_CLAMP, decode.LLR_CLAMP)
    one_shot = np.einsum("bpn,bn->bp", np.array([1.0, -1.0])[words], lam)

    sizes = []
    einsum = np.einsum

    def spy(subscripts, signs, *operands):
        sizes.append(signs.size)
        return einsum(subscripts, signs, *operands)

    monkeypatch.setattr(np, "einsum", spy)
    assert np.array_equal(_batch_correlations(words, llrs), one_shot)
    assert len(sizes) > 2 and max(sizes) <= cap


def test_layer_orders_must_be_integers():
    """A float entry is refused, not truncated to another order; numpy
    integers are integers."""
    assert decode.resolve_layer_order(3, (np.int64(2), np.int32(0), 1)) == (2, 0, 1)
    assert decode.resolve_layer_order(3, np.array([1, 2, 0])) == (1, 2, 0)
    for bad, entry in [((0.5, 1.9, 2), "0.5"), ((0, 1, 2.0), "2.0"), (np.array([0.0, 1.0, 2.0]), "0.0")]:
        with pytest.raises(ValueError, match=f"layer order entry .*{entry}.* is not an integer"):
            decode.resolve_layer_order(3, bad)
    with pytest.raises(ValueError, match="layer order 3 is not a sequence"):
        decode.resolve_layer_order(3, 3)
    llrs = np.ones((1, 8))
    with pytest.raises(ValueError, match="is not an integer"):
        sc_decode_batch(rm_code(1, 3), llrs, (0.2, 1, 2))
    with pytest.raises(ValueError, match="is not an integer"):
        sc_decode_orders(rm_code(1, 3), llrs, [(0, 1, 2), (0.2, 1, 2)])
