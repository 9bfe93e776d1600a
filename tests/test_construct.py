import hashlib
import logging
import math
import time

import numpy as np
import pytest

import symcalc.construct as construct_mod
from symcalc.bounds import partially_symmetric_lb, representable_dimensions
from symcalc.calculus import (
    directional_derivative_code,
    is_invariant,
    monomial_derivative_dimension,
    symmetry_profile,
)
from symcalc.codes import monomial_min_distance, monomial_to_linear, rm_code
from symcalc.construct import (
    ConstructionRequest,
    NonRepresentableError,
    biregular_subgraph,
    construct_partially_symmetric,
    construct_partially_symmetric_trace,
)

WORKED_SET = frozenset({0b0000, 0b0001, 0b0010, 0b0100, 0b1000, 0b1001, 0b1010, 0b1100})


def block_swap_perm(m, i, j):
    x = np.arange(1 << m)
    bi = (x >> i) & 1
    bj = (x >> j) & 1
    return x ^ (bi << i) ^ (bi << j) ^ (bj << j) ^ (bj << i)


class TestBiregularSubgraph:
    def test_keep_two_of_six_pairs(self):
        parts = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        kept = biregular_subgraph(4, 2, 2, parts)
        assert len(kept) == 2
        coverage = [sum((p >> e) & 1 for p in kept) for e in range(4)]
        assert coverage == [1, 1, 1, 1]

    def test_keep_all_and_none(self):
        parts = [0b011, 0b101, 0b110]
        assert biregular_subgraph(3, 2, 3, parts) == set(parts)
        assert biregular_subgraph(3, 2, 0, parts) == set()

    def test_indivisible_rejected(self):
        parts = [0b011, 0b101, 0b110]
        with pytest.raises(ValueError):
            biregular_subgraph(3, 2, 1, parts)

    def test_anchored_candidates(self):
        anchor = 0b10000
        parts = [anchor | p for p in (0b011, 0b101, 0b110)]
        kept = biregular_subgraph(3, 2, 3, parts)
        assert kept == set(parts)

    def test_deterministic(self):
        parts = [sum(1 << i for i in c) for c in __import__("itertools").combinations(range(6), 3)]
        a = biregular_subgraph(6, 3, 10, parts)
        b = biregular_subgraph(6, 3, 10, parts)
        assert a == b

    @pytest.mark.parametrize("t,l", [(5, 2), (6, 3), (7, 4), (9, 4)])
    def test_coverage_balanced_across_counts(self, t, l):
        import itertools

        parts = [sum(1 << i for i in c) for c in itertools.combinations(range(t), l)]
        for keep in range(0, len(parts) + 1):
            if (keep * l) % t:
                continue
            kept = biregular_subgraph(t, l, keep, parts)
            assert len(kept) == keep
            coverage = [sum((p >> e) & 1 for p in kept) for e in range(t)]
            assert set(coverage) == {keep * l // t} or keep == 0


class TestWorkedExample:
    def test_gen_set_exact(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        assert code.gen_set == WORKED_SET

    def test_distance_and_profile(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        assert monomial_min_distance(code) == 4
        prof = symmetry_profile(code)
        assert (prof.t, prof.k_tilde, prof.target_set) == (3, 2, frozenset({0, 1, 2}))

    def test_removal_order_semantics(self):
        # tau tiers descend; within a tier degrees descend
        _, log = construct_partially_symmetric_trace(ConstructionRequest(m=4, t=3, k=8))
        assert [s.stage for s in log] == ["tier", "tier"]
        assert [s.l_hat for s in log] == [3, 2]
        assert log[0].masks == (0b1111, 0b0111)
        assert set(log[1].masks[:3]) == {0b1011, 0b1101, 0b1110}  # degree 3 first
        assert set(log[1].masks[3:]) == {0b0011, 0b0101, 0b0110}  # then degree 2

    def test_removal_table_for_k2(self):
        # continuing the removals: the tau=1 tier goes degree-2 then degree-1
        _, log = construct_partially_symmetric_trace(ConstructionRequest(m=4, t=3, k=2))
        assert [s.l_hat for s in log] == [3, 2, 1]
        assert set(log[2].masks[:3]) == {0b1001, 0b1010, 0b1100}
        assert set(log[2].masks[3:]) == {0b0001, 0b0010, 0b0100}


class TestConstructGeneral:
    def test_rate_one_no_removals(self):
        code, log = construct_partially_symmetric_trace(ConstructionRequest(m=5, t=2, k=32))
        assert code.k == 32 and log == []

    def test_rm_recovered_at_full_symmetry(self):
        for r in range(0, 5):
            k = sum(math.comb(4, i) for i in range(r + 1))
            code = construct_partially_symmetric(ConstructionRequest(m=4, t=4, k=k))
            assert code.gen_set == rm_code(r, 4).gen_set

    def test_non_representable_reports_neighbours(self):
        with pytest.raises(NonRepresentableError) as exc:
            construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=7))
        assert exc.value.nearest_below == 5
        assert exc.value.nearest_above == 8

    def test_infeasible_request_at_m16_fails_fast(self):
        """Feasibility is one O(t) walk over the tau tiers, and the neighbours
        one bisection into the dimension list, so an m = 16 request whose
        neighbours lie 2^15 apart stays quick."""
        start = time.perf_counter()
        with pytest.raises(NonRepresentableError) as exc:
            construct_partially_symmetric(ConstructionRequest(m=16, t=1, k=3))
        assert time.perf_counter() - start < 5.0
        assert exc.value.nearest_below is None
        assert exc.value.nearest_above == 32768

    def test_achievable_matches_mask_count_for_rm_subcodes(self):
        """The closed-form tier sizes give the dimensions that counting the
        initial masks by tau gives, with and without a degree cap."""
        for m in range(1, 8):
            for t in range(1, m + 1):
                for rm_order in [None, *range(m + 1)]:
                    masks = [v for v in range(1 << m) if rm_order is None or v.bit_count() <= rm_order]
                    tiers = [0] * (t + 1)
                    for v in masks:
                        tiers[(v & ((1 << t) - 1)).bit_count()] += 1
                    expected = []
                    for k in range(tiers[0], len(masks) + 1):
                        k_prime, l_hat = len(masks), t
                        while l_hat >= 1 and k_prime - tiers[l_hat] >= k:
                            k_prime -= tiers[l_hat]
                            l_hat -= 1
                        if k_prime == k or ((k_prime - k) * l_hat) % t == 0:
                            expected.append(k)
                    assert representable_dimensions(m, t, rm_order) == expected

    def test_divisor_closed_gen_sets(self):
        rng = np.random.RandomState(5)
        for m, t in [(5, 3), (6, 4), (7, 2), (8, 5)]:
            ks = representable_dimensions(m, t)
            for k in rng.choice(ks, size=min(6, len(ks)), replace=False):
                code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=int(k)))
                for v in code.gen_set:
                    sub = v
                    while sub:
                        sub = (sub - 1) & v
                        assert sub in code.gen_set

    def test_degenerate_distance_warning_case(self):
        # t=2 with k >= 2^m - 2^{m-2} keeps a degree-(m-1) monomial
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=2, k=13))
        assert monomial_min_distance(code) <= 2

    def test_low_distance_warning_once_per_cause(self, caplog):
        construct_mod._warn_low_distance.cache_clear()
        with caplog.at_level("WARNING", logger="symcalc.construct"):
            for _ in range(3):
                construct_partially_symmetric(ConstructionRequest(m=8, t=5, k=250))
        records = [r for r in caplog.records if "minimum distance" in r.getMessage()]
        assert len(records) == 1
        assert "m=8 t=5 k=250 has minimum distance 2" in records[0].getMessage()

    def test_t2_with_flow_residual(self):
        # residual path: t=4 k=7 ends with a balanced removal of 4 of 6 pairs
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=4, k=7))
        prof = symmetry_profile(code)
        assert prof.k_tilde == partially_symmetric_lb(4, 4, 7)[0] == 2
        assert prof.t >= 4


class TestRmSubcodeVariant:
    def test_worked_256_127(self):
        code = construct_partially_symmetric(ConstructionRequest(m=8, t=3, k=127, rm_order=4))
        assert code.k == 127
        assert max(v.bit_count() for v in code.gen_set) <= 4
        assert monomial_min_distance(code) >= 16
        prof = symmetry_profile(code)
        assert prof.t >= 3
        assert prof.dims[0] == prof.dims[1] == prof.dims[2] == prof.k_tilde

    def test_worked_256_128(self):
        code = construct_partially_symmetric(ConstructionRequest(m=8, t=5, k=128, rm_order=4))
        assert code.k == 128
        prof = symmetry_profile(code)
        assert prof.t >= 5
        assert len({prof.dims[i] for i in range(5)}) == 1

    def test_rm_cap_respected(self):
        code = construct_partially_symmetric(ConstructionRequest(m=6, t=3, k=29, rm_order=3))
        assert all(v.bit_count() <= 3 for v in code.gen_set)

    def test_k_above_rm_dimension_rejected(self):
        with pytest.raises(ValueError):
            ConstructionRequest(m=6, t=3, k=60, rm_order=2)

    @pytest.mark.parametrize(
        "m, t, k, rm_order", [(6.0, 3, 8, None), (6, 2.5, 8, None), (6, 3, 8.0, None), (6, 3, 8, 2.5), (6, 3, "8", 2)]
    )
    def test_non_integer_request_rejected(self, m, t, k, rm_order):
        with pytest.raises(ValueError, match="integer"):
            ConstructionRequest(m=m, t=t, k=k, rm_order=rm_order)


class TestCompanionProperties:
    """Whole-tier constructions keep both block symmetries and recurse cleanly."""

    @staticmethod
    def tier_aligned_dimensions(m, t, rm_order=None):
        """Dimensions reachable with stages 1-2 alone (no anchored removals)."""
        out = []
        full = construct_partially_symmetric_trace
        for k in representable_dimensions(m, t, rm_order):
            _, log = full(ConstructionRequest(m=m, t=t, k=k, rm_order=rm_order))
            if all(step.stage in ("tier", "degree") for step in log):
                out.append(k)
        return out

    def test_block_invariance_exhaustive_small(self):
        for m, t in [(4, 2), (5, 3), (6, 4)]:
            for k in self.tier_aligned_dimensions(m, t):
                code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
                lin = monomial_to_linear(code)
                swaps = [(i, j) for i in range(t) for j in range(i + 1, t)]
                swaps += [(i, j) for i in range(t, m) for j in range(i + 1, m)]
                for i, j in swaps:
                    assert is_invariant(lin, block_swap_perm(m, i, j)), (m, t, k, i, j)

    def test_derivative_recursion(self):
        # target derivatives of the construction achieve the optimal (m-1, t-1) value
        for m, t in [(5, 3), (6, 4), (7, 3)]:
            for k in self.tier_aligned_dimensions(m, t)[1:]:
                code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
                lin = monomial_to_linear(code)
                for i in range(t):
                    deriv = directional_derivative_code(lin, 1 << i)
                    if t == 1 or deriv.k == 0:
                        continue
                    lb, dec = partially_symmetric_lb(m - 1, t - 1, deriv.k)
                    prof = symmetry_profile(deriv)
                    assert prof.k_tilde == lb, (m, t, k, i)


class TestGoldenConstruction:
    """Every code and removal log, pinned by digest.

    The digests were computed before the construction moved from sets of
    ints to a boolean array over the masks; any change to a code, to the
    order of a removal step or to its stage, l_hat or degree changes them.
    """

    # (m range, k stride per m, requests, sha256)
    CASES = [
        (range(1, 8), {}, 2900, "e2a54e38146ddaac951fbd175a06e68cbb31fcd4a5d7f503f652c00491c36f60"),
        ((8, 9), {8: 5, 9: 7}, 2221, "73dc393526e45edd1fb746ba4e24a5856d9c3285483e3571bb2ae712337b3279"),
    ]

    @staticmethod
    def requests(ms, stride):
        for m in ms:
            for t in range(1, m + 1):
                for rm_order in (None, *range(m + 1)):
                    for k in representable_dimensions(m, t, rm_order)[:: stride.get(m, 1)]:
                        yield ConstructionRequest(m, t, k, rm_order)

    @pytest.mark.parametrize("ms, stride, count, expected", CASES)
    def test_codes_logs_and_profiles(self, ms, stride, count, expected):
        digest = hashlib.sha256()
        seen = 0
        logging.disable(logging.WARNING)
        try:
            for req in self.requests(ms, stride):
                code, log = construct_partially_symmetric_trace(req)
                steps = tuple((s.stage, s.l_hat, s.degree, s.masks) for s in log)
                record = (req.m, req.t, req.k, req.rm_order, tuple(sorted(code.gen_set)), steps)
                digest.update(repr(record).encode())
                dims = tuple(monomial_derivative_dimension(code, i) for i in range(req.m))
                assert symmetry_profile(code).dims == dims, req
                seen += 1
        finally:
            logging.disable(logging.NOTSET)
        assert seen == count
        assert digest.hexdigest() == expected
