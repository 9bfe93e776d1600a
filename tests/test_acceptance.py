"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two heavyweight tests
are the bound-equality grid (a few minutes) and the length-256 decoding
comparison (several minutes of Monte Carlo).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from symcalc.bitmath import GF2mField
from symcalc.bounds import (
    bec_minus_capacity,
    bound_curve,
    convergence_gap,
    fully_symmetric_lb,
    partially_symmetric_lb,
    representable_dimensions,
)
from symcalc.calculus import (
    derivative_subcode_dim,
    directional_derivative_code,
    is_invariant,
    monomial_partial,
    symmetry_profile,
)
from symcalc.channelconstruct import bec_density_evolution, select_permutations
from symcalc.codes import (
    Monomial,
    MonomialCode,
    ebch_code,
    monomial_min_distance,
    monomial_to_linear,
    rm_code,
)
from symcalc.construct import (
    ConstructionRequest,
    construct_partially_symmetric,
    construct_partially_symmetric_trace,
)
from symcalc.decode import ml_decode_batch, scl_decode_batch
from symcalc.sim import BiAwgn, SimConfig, _batch_correlations, draw_frames, simulate_fer


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS ({detail})")


def block_swap(m, i, j):
    x = np.arange(1 << m)
    bi, bj = (x >> i) & 1, (x >> j) & 1
    return x ^ (bi << i) ^ (bi << j) ^ (bj << j) ^ (bj << i)


def tier_aligned(m, t, rm_order=None):
    """Dimensions reachable by whole-tier removals alone; the block-symmetry
    and derivative-recursion results apply to exactly these codes."""
    out = []
    for k in representable_dimensions(m, t, rm_order):
        _, log = construct_partially_symmetric_trace(
            ConstructionRequest(m=m, t=t, k=k, rm_order=rm_order)
        )
        if all(step.stage in ("tier", "degree") for step in log):
            out.append(k)
    return out


def test_criterion_01_worked_example():
    start = time.perf_counter()
    code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
    expected = frozenset({0b0000, 0b0001, 0b0010, 0b0100, 0b1000, 0b1001, 0b1010, 0b1100})
    assert code.gen_set == expected
    assert monomial_min_distance(code) == 4
    prof = symmetry_profile(code)
    assert (prof.t, prof.k_tilde) == (3, 2)
    for i in range(3):
        images = {
            monomial_partial(Monomial(v, 4), i).mask
            for v in code.gen_set
            if (v >> i) & 1
        }
        assert images == {0b1000, 0b0000}  # {x_3, 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"exact generating set, d=4, t=3, k~=2, target derivatives {{x3,1}}, {elapsed:.3f}s")


def test_criterion_02_bound_equality_grid():
    start = time.perf_counter()
    checked = 0
    for m in range(1, 10):
        for t in range(1, m + 1):
            for k in representable_dimensions(m, t):
                code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
                prof = symmetry_profile(code)
                lb, dec = partially_symmetric_lb(m, t, k)
                assert dec.exact
                assert prof.k_tilde == lb, (m, t, k, prof.k_tilde, lb)
                assert prof.t >= t, (m, t, k, prof.t)
                checked += 1
        # t = m with j = 0 must reproduce Reed-Muller exactly
        for r in range(0, m + 1):
            k = sum(math.comb(m, i) for i in range(r + 1))
            code = construct_partially_symmetric(ConstructionRequest(m=m, t=m, k=k))
            assert code.gen_set == rm_code(r, m).gen_set
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(2, f"{checked} (m,t,k) points achieve the bound exactly, {elapsed:.0f}s")


def test_criterion_03_full_symmetry_certificates():
    for m in range(1, 9):
        for r in range(0, m + 1):
            prof = symmetry_profile(rm_code(r, m))
            assert len(set(prof.dims)) == 1, (r, m, prof.dims)
    for m in (4, 5):
        fld = GF2mField(m)
        for delta in (3, 5, 7):
            code = ebch_code(fld, delta)
            prof = symmetry_profile(code)
            assert len(set(prof.dims)) == 1, (m, delta, prof.dims)
    code = ebch_code(GF2mField(5), 7)
    dims = {directional_derivative_code(code, b).k for b in range(1, 32)}
    assert len(dims) == 1
    report(3, f"RM m<=8 and eBCH partial dims equal; eBCH(32,16) all 31 directions dim {dims.pop()}")


def test_criterion_04_legeay_half_bound():
    checked = 0
    for m in range(1, 9):
        for r in range(0, m + 1):
            code = monomial_to_linear(rm_code(r, m))
            for i in range(m):
                assert 2 * derivative_subcode_dim(code, i) <= code.k
                checked += 1
    for m in (4, 5):
        fld = GF2mField(m)
        for delta in (3, 5, 7):
            code = ebch_code(fld, delta)
            for i in range(m):
                assert 2 * derivative_subcode_dim(code, i) <= code.k
                checked += 1
    report(4, f"{checked} translation-invariant derivative dims are at most k/2")


def test_criterion_05_companion_properties():
    # (i) generating sets are closed under monomial division, all achievable k
    closed = 0
    for m, t in [(4, 2), (4, 3), (5, 3), (6, 4), (7, 3), (8, 5), (9, 4)]:
        ks = representable_dimensions(m, t)
        rng = np.random.RandomState(m * 10 + t)
        sample = ks if m <= 6 else sorted(rng.choice(ks, size=8, replace=False).tolist())
        for k in sample:
            code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
            for v in code.gen_set:
                sub = v
                while sub:
                    sub = (sub - 1) & v
                    assert sub in code.gen_set, (m, t, k, v, sub)
            closed += 1

    # (ii) block invariance: exhaustive for m <= 6 on whole-tier dimensions,
    # sampled for m <= 9 (partial anchored removals necessarily break the
    # symmetry, so those dimensions are out of scope by construction)
    inv = 0
    for m in range(2, 10):
        for t in range(1, m + 1):
            ks = tier_aligned(m, t)
            if m > 6:
                rng = np.random.RandomState(m * 100 + t)
                ks = sorted(rng.choice(ks, size=min(3, len(ks)), replace=False).tolist())
            for k in ks:
                code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
                lin = monomial_to_linear(code)
                swaps = [(i, j) for i in range(t) for j in range(i + 1, t)]
                swaps += [(i, j) for i in range(t, m) for j in range(i + 1, m)]
                if m > 6 and swaps:
                    rng2 = np.random.RandomState(k)
                    swaps = [swaps[i] for i in rng2.choice(len(swaps), size=min(6, len(swaps)), replace=False)]
                for i, j in swaps:
                    assert is_invariant(lin, block_swap(m, i, j)), (m, t, k, i, j)
                inv += 1

    # (iii) target derivatives achieve the optimal (m-1, t-1) dimension
    rec = 0
    for m in range(3, 9):
        for t in range(2, m + 1):
            for k in tier_aligned(m, t):
                code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
                lin = monomial_to_linear(code)
                for i in range(t):
                    deriv = directional_derivative_code(lin, 1 << i)
                    if deriv.k == 0:
                        continue
                    lb, dec = partially_symmetric_lb(m - 1, t - 1, deriv.k)
                    prof = symmetry_profile(deriv)
                    assert prof.k_tilde == lb, (m, t, k, i, prof.k_tilde, lb)
                rec += 1
    report(5, f"division-closure on {closed}, block invariance on {inv}, recursion on {rec} codes")


def test_criterion_06_convergence_diagnostics():
    gaps = []
    for m in range(3, 16, 2):
        k_tilde, dec = fully_symmetric_lb(m, 1 << (m - 1))
        assert dec.exact
        gap = abs(Fraction(k_tilde, 1 << (m - 1)) - Fraction(1, 2))
        assert gap == Fraction(math.comb(m - 1, m // 2), 1 << m)
        assert gap == convergence_gap(m)
        gaps.append(gap)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    report(6, f"exact gaps for odd m in [3,15], strictly decreasing: {[str(g) for g in gaps[:3]]}...")


def test_criterion_07_decoder_oracle_equivalence():
    code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
    frames = 1000
    _, _, llrs = draw_frames(code, BiAwgn(2.0), 2026, 0, frames)
    lists, _, _ = scl_decode_batch(code, llrs, 256)
    ml, _ = ml_decode_batch(code, llrs)
    # the ML word rides as one more candidate, so both are scored in one call
    scores = _batch_correlations(np.concatenate((lists, ml[:, None]), axis=1), llrs)
    a, b = scores[:, :-1].max(axis=1), scores[:, -1]
    bad = np.flatnonzero(a != b)
    assert bad.size == 0, [(int(f), a[f], b[f]) for f in bad[:5]]
    report(7, f"SCL(L=256) metric equals brute-force ML metric on all {frames} frames")


def test_criterion_08_bec_frozen_golden():
    z = bec_density_evolution(3, 0.5)
    golden = np.array(
        [0.99609375, 0.87890625, 0.80859375, 0.31640625,
         0.68359375, 0.19140625, 0.12109375, 0.00390625]
    )
    assert np.max(np.abs(z - golden)) < 1e-12
    worst = set(np.argsort(-z)[:4].tolist())
    assert worst == {0, 1, 2, 4}
    report(8, "m=3 eps=0.5 evolution matches the exact recursion, worst set {0,1,2,4}")


@pytest.fixture(scope="module")
def length_256_codes():
    c3 = construct_partially_symmetric(ConstructionRequest(m=8, t=3, k=127, rm_order=4))
    c5 = construct_partially_symmetric(ConstructionRequest(m=8, t=5, k=128, rm_order=4))
    return c3, c5


def test_criterion_09_figure4_surrogate(length_256_codes):
    start = time.perf_counter()
    code3, code5 = length_256_codes
    channel = BiAwgn(2.0)
    frames = 20_000
    base = dict(max_errors=10**9, max_frames=frames, seed=88)

    results = {}
    for name, code in (("3sym", code3), ("5sym", code5)):
        best = select_permutations(code, 1, channel).perms[0]
        fer_sc = simulate_fer(code, channel, SimConfig(decoder="sc", **base), layer_perm=best)
        fer_l8 = simulate_fer(
            code, channel, SimConfig(decoder="scl", list_size=8, **base), layer_perm=best
        )
        cert = simulate_fer(
            code, channel, SimConfig(decoder="scl", list_size=128, **base), layer_perm=best
        )
        results[name] = (fer_sc, fer_l8, cert)
        # (a) list decoding does not lose to plain SC
        assert fer_l8.fer <= fer_sc.fer, (name, fer_l8.fer, fer_sc.fer)
        # (c) near-ML certification with L = 128
        assert cert.ml_certified >= 0.99, (name, cert.ml_certified)

    # (b) permutation decoding of the 5-symmetric code keeps up with SCL(8)
    sel = select_permutations(code5, 32, channel, min_dist=5)
    assert sel.complete
    perm = simulate_fer(
        code5,
        channel,
        SimConfig(decoder="perm", perms=sel.perms, **base),
    )
    fer_l8 = results["5sym"][1]
    sigma = math.sqrt(
        perm.fer * (1 - perm.fer) / frames + fer_l8.fer * (1 - fer_l8.fer) / frames
    )
    assert perm.fer <= 1.2 * fer_l8.fer + 3 * sigma, (perm.fer, fer_l8.fer)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        9,
        f"3sym SC {results['3sym'][0].fer:.4f} / L8 {results['3sym'][1].fer:.4f}; "
        f"5sym SC {results['5sym'][0].fer:.4f} / L8 {fer_l8.fer:.4f} / perm32 {perm.fer:.4f}; "
        f"cert {results['3sym'][2].ml_certified:.4f}, {results['5sym'][2].ml_certified:.4f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_figure23_surrogate():
    curves = {}
    for t in (3, 5, 7, "full"):
        rows = bound_curve(9, t)
        ks = [r.k for r in rows]
        vals = [r.deriv_rate for r in rows]
        assert all(b >= a for a, b in zip(vals, vals[1:]))  # nondecreasing
        for i in range(1, len(ks) - 1):  # convex through representable points
            left = (vals[i] - vals[i - 1]) / (ks[i] - ks[i - 1])
            right = (vals[i + 1] - vals[i]) / (ks[i + 1] - ks[i])
            assert left <= right + 1e-12
        curves[t] = (ks, vals)

    full = dict(zip(*curves["full"]))
    for order in range(0, 10):
        k = sum(math.comb(9, i) for i in range(order + 1))
        k_tilde = sum(math.comb(8, i) for i in range(order))
        assert full[k] == k_tilde / 256

    grid = np.arange(1, 513)
    interp = {
        t: np.interp(grid, curves[t][0], curves[t][1]) for t in (3, 5, 7, "full")
    }
    for a, b in [(3, 5), (5, 7), (7, "full")]:
        assert (interp[a] <= interp[b] + 1e-12).all()

    for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert bec_minus_capacity(eps) == (1 - eps) ** 2
    report(10, "n=512 curves convex nondecreasing, RM points on full curve, t-ordering holds")


def test_criterion_11_exhaustive_bound_oracle_m4():
    start = time.perf_counter()
    m = 4
    n_masks = 1 << m
    subsets = np.arange(1, 1 << n_masks, dtype=np.uint64)
    var_bitmaps = []
    for i in range(m):
        bitmap = sum(1 << v for v in range(n_masks) if (v >> i) & 1)
        var_bitmaps.append(np.uint64(bitmap))
    counts = np.stack([np.bitwise_count(subsets & b) for b in var_bitmaps])
    symmetric = (counts == counts[0]).all(axis=0)
    k_of = np.bitwise_count(subsets)
    best = {}
    for k, c in zip(k_of[symmetric].tolist(), counts[0][symmetric].tolist()):
        if k not in best or c < best[k]:
            best[k] = c
    for k in representable_dimensions(m, m):
        bound, dec = fully_symmetric_lb(m, k)
        assert dec.exact
        assert best[k] == bound, (k, best[k], bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(11, f"all 2^16-1 generating sets scanned, minima match the bound, {elapsed:.1f}s")
