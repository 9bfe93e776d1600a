import itertools
import tracemalloc

import numpy as np
import pytest

from symcalc.channelconstruct import (
    _ga_error_probs,
    bec_density_evolution,
    ga_llr_means,
    mask_error_probs,
    permutation_distance,
    polar_code,
    sc_error_estimate,
    select_permutations,
)
from symcalc.codes import MonomialCode, monomial_min_distance, monomial_to_linear, rm_code
from symcalc.construct import ConstructionRequest, construct_partially_symmetric
from symcalc.sim import Bec, BiAwgn, noise_sigma

# exact values of the m=3, eps=0.5 recursion
GOLDEN_Z = [0.99609375, 0.87890625, 0.80859375, 0.31640625,
            0.68359375, 0.19140625, 0.12109375, 0.00390625]


class TestBecDensityEvolution:
    def test_eps_zero(self):
        assert (bec_density_evolution(4, 0.0) == 0).all()

    def test_eps_one(self):
        assert (bec_density_evolution(4, 1.0) == 1).all()

    def test_golden_m3(self):
        z = bec_density_evolution(3, 0.5)
        assert np.max(np.abs(z - np.array(GOLDEN_Z))) < 1e-12

    def test_worst_set_m3(self):
        z = bec_density_evolution(3, 0.5)
        worst = set(np.argsort(-z)[:4].tolist())
        assert worst == {0, 1, 2, 4}

    @pytest.mark.parametrize("eps", [0.1, 0.37, 0.5, 0.9])
    def test_split_preserves_sum(self, eps):
        # each split satisfies z_minus + z_plus = 2z
        for j in range(6):
            z = bec_density_evolution(j + 1, eps)
            assert np.allclose(z[0::2] + z[1::2], 2 * bec_density_evolution(j, eps))

    def test_matches_exact_fractions(self):
        from fractions import Fraction

        z = [Fraction(1, 2)]
        for _ in range(3):
            z = [f(x) for x in z for f in (lambda v: 2 * v - v * v, lambda v: v * v)]
        assert [float(x) for x in z] == GOLDEN_Z


class TestFrozenSets:
    """polar_code keeps the k most reliable masks; the masks it leaves out
    are the frozen set."""

    def test_m1_minus_channel_frozen(self):
        # mask 1 decodes through the degraded (minus) branch
        assert polar_code(1, 1, BiAwgn(2.0)).gen_set == frozenset({0})

    def test_rate_one_keeps_everything(self):
        assert polar_code(4, 16, BiAwgn(2.0)).gen_set == frozenset(range(16))

    def test_bec_frozen_m3(self):
        assert polar_code(3, 4, Bec(0.5)) == rm_code(1, 3)

    def test_ga_separation_m8(self):
        code = polar_code(8, 128, BiAwgn(2.0))
        assert monomial_min_distance(code) >= 8
        pe = mask_error_probs(8, BiAwgn(2.0), rate=0.5)
        kept = code.sorted_masks()
        frozen = sorted(set(range(256)) - code.gen_set)
        assert max(pe[kept]) <= min(pe[frozen])

    @pytest.mark.parametrize("db", [0.0, 1.0, 2.0, 4.0])
    def test_ga_self_consistency_across_snr(self, db):
        # at every operating point the frozen set collects the worst masks
        code = polar_code(6, 32, BiAwgn(db))
        sigma2 = 1.0 / (2 * 0.5 * 10 ** (db / 10))
        mu = ga_llr_means(6, 2.0 / sigma2)[::-1]  # mask v reads position 63 - v
        kept = code.sorted_masks()
        assert min(mu[kept]) >= max(mu[sorted(set(range(64)) - code.gen_set)])

    def test_ga_means_monotone_in_snr(self):
        mus = [ga_llr_means(6, 2.0 / (1.0 / (2 * 0.5 * 10 ** (db / 10)))) for db in (0.5, 1.5, 2.5)]
        assert (mus[1] >= mus[0]).all() and (mus[2] >= mus[1]).all()


class TestMaskErrorProbs:
    def test_huge_m_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                mask_error_probs(10**6, Bec(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_identity_layer_order_is_position_complement(self):
        # mask v decodes through position ~v of the channel recursion
        z = bec_density_evolution(3, 0.5)
        pe = mask_error_probs(3, Bec(0.5))
        for v in range(8):
            assert pe[v] == pytest.approx(z[7 - v] / 2)

    @pytest.mark.parametrize("m", [0, 1, 3, 6, 8])
    def test_identity_layer_order_is_position_complement_awgn(self, m):
        # the GA twin: mask v reads position n-1-v of the mean-LLR recursion
        n = 1 << m
        for db, rate in itertools.product((-1.0, 0.0, 2.0, 5.0), (0.25, 0.5, 0.9)):
            sigma = noise_sigma(db, rate)
            by_position = _ga_error_probs(ga_llr_means(m, 2.0 / sigma**2))
            pe = mask_error_probs(m, BiAwgn(db), rate=rate)
            assert np.array_equal(pe, by_position[n - 1 - np.arange(n)])

    def test_rate_one_estimate_permutation_invariant(self):
        code = MonomialCode(3, frozenset(range(8)))
        vals = {
            round(sc_error_estimate(code, perm, Bec(0.3)), 12)
            for perm in itertools.permutations(range(3))
        }
        assert len(vals) == 1

    def test_noiseless_estimate_zero(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        assert sc_error_estimate(code, None, Bec(0.0)) == 0.0

    def test_layer_swap_changes_estimate(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        identity = sc_error_estimate(code, None, Bec(0.5))
        swapped = sc_error_estimate(code, (3, 1, 2, 0), Bec(0.5))  # target 0 <-> non-target 3
        assert identity != swapped

    def test_float_layer_order_rejected(self):
        """A float entry is refused, not truncated to another order; numpy
        integers give the same estimate as ints."""
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        with pytest.raises(ValueError, match="entry 0.5 is not an integer"):
            sc_error_estimate(code, (0.5, 1, 2, 3), Bec(0.5))
        with pytest.raises(ValueError, match="entry 2.9 is not an integer"):
            mask_error_probs(4, Bec(0.5), perm=(3, 1, 2.9, 0))
        typed = sc_error_estimate(code, np.array([3, 1, 2, 0]), Bec(0.5))
        assert typed == sc_error_estimate(code, (3, 1, 2, 0), Bec(0.5))

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_estimate_is_per_mask_union_bound(self, m):
        """The batched scorer that sc_error_estimate and select_permutations
        share equals 1 - prod(1 - p_v) over mask_error_probs, taken one
        layer order at a time, bit for bit."""
        rng = np.random.default_rng(m)
        code = MonomialCode(m, frozenset(int(v) for v in range(1 << m) if rng.random() < 0.5))
        rate = code.k / code.n
        for channel in (Bec(0.3), BiAwgn(1.5)):
            sel = select_permutations(code, 6, channel, min_dist=0)
            for perm, score in zip(sel.perms, sel.scores):
                pe = mask_error_probs(m, channel, perm, rate=rate)[code.sorted_masks()]
                expected = float(-np.expm1(np.log1p(-np.minimum(pe, 1.0 - 1e-300)).sum()))
                assert sc_error_estimate(code, perm, channel) == expected == score


def _position_frozen_set(z: np.ndarray, k: int) -> set[int]:
    """Reference rule: the n - k worst decode positions by per-position error
    probability z, ties to the lower position."""
    n = z.size
    return set(np.lexsort((np.arange(n), -z))[: n - k].tolist())


_BEC_GRID = (0.0, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0)
_AWGN_GRID = (-10.0, -2.0, 0.0, 1.0, 2.0, 4.0, 8.0, 20.0)


@pytest.mark.parametrize("m", range(1, 11))
def test_polar_code_is_complement_of_position_frozen_set(m):
    """The mask-indexed construction keeps mask n-1-p for exactly the
    positions p outside the position-indexed frozen set, on every channel of
    the grid; every k up to m = 6, nine spread values of k beyond."""
    n = 1 << m
    ks = range(1, n + 1) if m <= 6 else np.unique(np.linspace(1, n, 9).astype(int)).tolist()
    channels = [Bec(e) for e in _BEC_GRID] + [BiAwgn(db) for db in _AWGN_GRID]
    for channel, k in itertools.product(channels, ks):
        if isinstance(channel, Bec):
            z = bec_density_evolution(m, channel.eps)
        else:
            sigma = noise_sigma(channel.ebn0_db, k / n)
            z = _ga_error_probs(ga_llr_means(m, 2.0 / sigma**2))
        frozen = _position_frozen_set(z, k)
        expected = frozenset(n - 1 - p for p in range(n) if p not in frozen)
        assert polar_code(m, k, channel).gen_set == expected, (channel, k)


@pytest.mark.parametrize("m,k", [(0, 1), (17, 1), (3, 0), (3, 9)])
def test_polar_code_rejects_bad_shape(m, k):
    with pytest.raises(ValueError):
        polar_code(m, k, Bec(0.5))


class TestSelectPermutations:
    def test_linear_code_rejected(self):
        """Ranking reads the exponent masks, so a LinearCode raises
        ValueError, not AttributeError."""
        code = monomial_to_linear(rm_code(1, 3))
        for call in (lambda: select_permutations(code, 2, Bec(0.5)), lambda: sc_error_estimate(code, None, Bec(0.5))):
            with pytest.raises(ValueError, match="LinearCode is not a monomial code"):
                call()

    def test_single_best(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        sel = select_permutations(code, 1, BiAwgn(2.0))
        assert len(sel.perms) == 1 and sel.complete

    def test_min_dist_zero_returns_top_ranked(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        sel = select_permutations(code, 6, BiAwgn(2.0), min_dist=0)
        assert len(sel.perms) == 6
        assert list(sel.scores) == sorted(sel.scores)

    def test_spacing_property_m8(self):
        code = construct_partially_symmetric(
            ConstructionRequest(m=8, t=5, k=128, rm_order=4)
        )
        sel = select_permutations(code, 8, BiAwgn(2.0), min_dist=5)
        assert sel.complete and not sel.sampled
        for p1, p2 in itertools.combinations(sel.perms, 2):
            assert permutation_distance(p1, p2) >= 5

    def test_distance_is_a_metric_on_output(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        sel = select_permutations(code, 4, Bec(0.4), min_dist=2)
        for p1 in sel.perms:
            assert permutation_distance(p1, p1) == 0
            for p2 in sel.perms:
                if p1 != p2:
                    assert permutation_distance(p1, p2) >= 2
                for p3 in sel.perms:
                    assert permutation_distance(p1, p3) <= permutation_distance(
                        p1, p2
                    ) + permutation_distance(p2, p3)

    def test_infeasible_spacing_flagged(self):
        code = construct_partially_symmetric(ConstructionRequest(m=2, t=1, k=2))
        sel = select_permutations(code, 5, Bec(0.4), min_dist=2)
        assert not sel.complete and len(sel.perms) < 5

    def test_deterministic(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        a = select_permutations(code, 4, BiAwgn(2.0))
        b = select_permutations(code, 4, BiAwgn(2.0))
        assert a == b

    def test_sampled_seeds_keyed_as_uint64(self):
        # beyond m = 8 the candidates come from a seeded sample; seeds of 2^63
        # or more keep distinct samples, and a negative seed is its residue
        code = MonomialCode(9, frozenset({0, 3, 7, 17, 64, 100, 130, 255, 300, 511}))
        sel = {s: select_permutations(code, 4, Bec(0.5), min_dist=3, seed=s) for s in (2**63, 2**63 + 1024, -5)}
        assert sel[2**63].sampled
        assert sel[2**63].perms != sel[2**63 + 1024].perms
        assert sel[-5] == select_permutations(code, 4, Bec(0.5), min_dist=3, seed=2**64 - 5)

    def test_memory_bounded_and_flat_in_k(self):
        # the union-bound scores gather the sampled orders in bounded chunks,
        # so the peak is set by the 100,000 candidate orders, not by k
        peaks = {}
        for k in (64, 256):
            code = MonomialCode(9, frozenset(range(k)))
            tracemalloc.start()
            select_permutations(code, 4, BiAwgn(2.0), min_dist=3)
            peaks[k] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert max(peaks.values()) < 64 << 20, peaks
        assert peaks[256] < 1.1 * peaks[64], peaks
