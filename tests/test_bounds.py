import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcalc.bounds import (
    bec_minus_capacity,
    bound_curve,
    convergence_gap,
    fully_symmetric_lb,
    list_size_lb,
    partially_symmetric_lb,
    representable_dimensions,
)
from symcalc.codes import MonomialCode
from symcalc.construct import ConstructionRequest, NonRepresentableError, construct_partially_symmetric


def exhaustive_fully_symmetric_minimum(m: int) -> dict[int, int]:
    """Oracle: scan every monomial generating set over m variables, keep the
    fully symmetric ones, and record the minimal common derivative dimension
    per dimension k.  Derivative dimensions of monomial codes are per-variable
    support counts."""
    best: dict[int, int] = {}
    for subset in range(1, 1 << (1 << m)):
        masks = [v for v in range(1 << m) if (subset >> v) & 1]
        counts = [sum(1 for v in masks if (v >> i) & 1) for i in range(m)]
        if len(set(counts)) != 1:
            continue
        k = len(masks)
        if k not in best or counts[0] < best[k]:
            best[k] = counts[0]
    return best


class TestFullySymmetricBound:
    def test_m5_half_rate(self):
        bound, dec = fully_symmetric_lb(5, 16)
        assert bound == 5 and dec.exact

    def test_rm_point_m4(self):
        bound, dec = fully_symmetric_lb(4, 5)
        assert bound == 1 and dec.exact and dec.j == 0

    def test_m4_k7(self):
        bound, dec = fully_symmetric_lb(4, 7)
        assert bound == 2 and dec.exact and (dec.l, dec.j) == (2, 1)

    def test_rate_one_endpoint(self):
        bound, dec = fully_symmetric_lb(6, 64)
        assert bound == 32 and dec.exact

    def test_non_representable_floors(self):
        bound, dec = fully_symmetric_lb(4, 6)  # 5 < 6 < 7, step 2
        assert not dec.exact
        assert dec.k_used == 5
        assert bound == fully_symmetric_lb(4, 5)[0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fully_symmetric_lb(4, 0)
        with pytest.raises(ValueError):
            fully_symmetric_lb(4, 17)

    def test_exhaustive_oracle_m3(self):
        best = exhaustive_fully_symmetric_minimum(3)
        for k in representable_dimensions(3, 3):
            bound, dec = fully_symmetric_lb(3, k)
            assert dec.exact
            assert best[k] == bound, (k, best[k], bound)


class TestPartialBound:
    def test_worked_example(self):
        bound, dec = partially_symmetric_lb(4, 3, 8)
        assert bound == 2 and dec.exact

    @pytest.mark.parametrize("m", range(1, 13))
    def test_t_equal_m_reduces_to_full(self, m):
        for k in range(1, (1 << m) + 1):
            assert partially_symmetric_lb(m, m, k) == fully_symmetric_lb(m, k)

    def test_m8_t5_k128(self):
        bound, dec = partially_symmetric_lb(8, 5, 128)
        assert dec.exact
        # k = 2^{m-t} * sum_{i<=2} C(5,i) = 8*16 = 128, so l=3, j=0
        assert bound == sum(math.comb(4, i) for i in range(2)) * 8 == 40

    def test_below_first_tier(self):
        bound, dec = partially_symmetric_lb(4, 3, 1)
        assert bound == 0 and not dec.exact and dec.k_used is None

    def test_range_checks(self):
        with pytest.raises(ValueError):
            partially_symmetric_lb(4, 0, 4)
        with pytest.raises(ValueError):
            partially_symmetric_lb(4, 5, 4)

    def test_m_beyond_limit_refused_before_allocating(self):
        """An m past the package limit is refused before 1 << m is built."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="outside"):
                partially_symmetric_lb(200_000_000, 3, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "args", [(4.0, 3, 8), (4, 3.0, 8), (4, 3, 5.5), (4, 3, 8.0), (4, 3, "8"), (4, 3, Fraction(8))]
    )
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(ValueError, match="not an integer"):
            partially_symmetric_lb(*args)

    def test_fully_symmetric_checks_its_input(self):
        for m, k in [(0, 1), (17, 1), (200_000_000, 5)]:
            with pytest.raises(ValueError, match="outside"):
                fully_symmetric_lb(m, k)
        with pytest.raises(ValueError, match="not an integer"):
            fully_symmetric_lb(4, 5.5)

    def test_numpy_integers_accepted(self):
        args = (np.int64(4), np.int64(3), np.int64(8))
        assert partially_symmetric_lb(*args) == partially_symmetric_lb(4, 3, 8)


class TestRepresentableDimensions:
    @pytest.mark.parametrize(
        "args", [(4, 2.5), (4.0, 2), ("4", 2), (4, 2, 1.5), (4, 2, "1"), (4, Fraction(2))]
    )
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(ValueError, match="not an integer"):
            representable_dimensions(*args)

    @pytest.mark.parametrize("args", [(0, 1), (17, 1), (200_000_000, 3)])
    def test_m_beyond_limit_refused(self, args):
        with pytest.raises(ValueError, match="outside"):
            representable_dimensions(*args)

    @pytest.mark.parametrize("args", [(4, 0), (4, 5), (4, 2, -1), (4, 2, 5)])
    def test_range_checks(self, args):
        with pytest.raises(ValueError):
            representable_dimensions(*args)

    def test_rm_subcode_lists(self):
        assert representable_dimensions(4, 2, 1) == [3, 5]  # RM(1, 4): tiers of 3, 2 and 0 masks
        assert representable_dimensions(4, 2, 0) == [1]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.data())
def test_representable_points_round_trip(m, data):
    t = data.draw(st.integers(1, m))
    ks = representable_dimensions(m, t)
    k = data.draw(st.sampled_from(ks))
    bound, dec = partially_symmetric_lb(m, t, k)
    assert dec.exact and dec.k_used == k
    # reconstruct k from the decomposition
    g = math.gcd(dec.l, t)
    assert dec.base + dec.j * (t // g) == k
    assert 0 <= bound <= 1 << (m - 1)


class TestMonotonicityConvexity:
    @pytest.mark.parametrize("m,t", [(9, 9), (9, 5), (9, 3), (12, 12), (10, 4)])
    def test_nondecreasing_and_convex_on_representable(self, m, t):
        ks = representable_dimensions(m, t)
        vals = [partially_symmetric_lb(m, t, k)[0] for k in ks]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # convexity of the piecewise-linear interpolation through the points
        for i in range(1, len(ks) - 1):
            left = Fraction(vals[i] - vals[i - 1], ks[i] - ks[i - 1])
            right = Fraction(vals[i + 1] - vals[i], ks[i + 1] - ks[i])
            assert left <= right, (m, t, ks[i])


class TestListSizeBound:
    def test_below_capacity(self):
        assert list_size_lb(0.3, 0.5, 128) == 0.0

    def test_arithmetic(self):
        assert list_size_lb(0.5, 0.25, 512) == 128.0

    def test_boundary(self):
        assert list_size_lb(0.4, 0.4, 256) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            list_size_lb(1.5, 0.5, 16)


class TestBecCapacity:
    @pytest.mark.parametrize("eps,expected", [(0.0, 1.0), (1.0, 0.0), (0.5, 0.25)])
    def test_values(self, eps, expected):
        assert bec_minus_capacity(eps) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            bec_minus_capacity(-0.1)


class TestConvergenceGap:
    def test_m3(self):
        assert convergence_gap(3) == Fraction(1, 4)

    def test_m5(self):
        assert convergence_gap(5) == Fraction(6, 32)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            convergence_gap(4)

    @pytest.mark.parametrize("m", [1, 1025, 200_000_001])
    def test_m_outside_range_refused_before_the_binomial(self, m):
        """An odd m in the hundreds of millions would build integers of tens
        of MB; it is refused at once."""
        with pytest.raises(ValueError, match="outside"):
            convergence_gap(m)

    @pytest.mark.parametrize("m", [5.0, 5.5, "5"])
    def test_non_integer_rejected(self, m):
        with pytest.raises(ValueError, match="not an integer"):
            convergence_gap(m)

    def test_strictly_decreasing_up_to_25(self):
        gaps = [convergence_gap(m) for m in range(3, 26, 2)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_matches_half_rate_bound(self):
        for m in range(3, 16, 2):
            k_tilde, dec = fully_symmetric_lb(m, 1 << (m - 1))
            assert dec.exact
            gap = abs(Fraction(k_tilde, 1 << (m - 1)) - Fraction(1, 2))
            assert gap == convergence_gap(m)


class TestBoundCurve:
    def test_full_curve_passes_rm_points(self):
        rows = {r.k: r for r in bound_curve(9, "full")}
        for r_order in range(0, 10):
            k = sum(math.comb(9, i) for i in range(r_order + 1))
            k_tilde = sum(math.comb(8, i) for i in range(r_order))
            assert rows[k].exact
            assert rows[k].deriv_rate == k_tilde / 256

    def test_rate_one_endpoint(self):
        rows = bound_curve(6, "full", [64])
        assert rows[0].deriv_rate == 1.0

    def test_t_ordering_pointwise(self):
        # curves are piecewise linear through their representable points;
        # compare the interpolations on a common grid
        import numpy as np

        grid = np.arange(1, 513)
        interp = {}
        for t in (3, 5, 7, 9):
            rows = bound_curve(9, t)
            ks = [r.k for r in rows]
            vals = [r.deriv_rate for r in rows]
            interp[t] = np.interp(grid, ks, vals)
        for a, b in [(3, 5), (5, 7), (7, 9)]:
            assert (interp[a] <= interp[b] + 1e-12).all()

    def test_explicit_k_range_flags_inexact(self):
        rows = bound_curve(4, "full", range(1, 17))
        assert len(rows) == 16
        assert not rows[5].exact  # k=6 floors to 5
        assert rows[4].exact

    def test_numpy_integer_t_accepted(self):
        """Any integer type names t; a non-integer t is still rejected,
        also when the k range is empty and no bound is evaluated."""
        assert bound_curve(4, np.int64(2)) == bound_curve(4, 2)
        assert bound_curve(4, np.uint8(4), [3, 8]) == bound_curve(4, "full", [3, 8])
        for t in (2.0, "2", 2.5):
            with pytest.raises(ValueError, match="is not an integer"):
                bound_curve(4, t, [])


class TestGoldenTierTable:
    """The dimension lists, the bound's decompositions and the nearest
    feasible dimensions, pinned by digest.

    The digests were computed before the bound, the dimension list and the
    construction's feasibility check came to read one tier table; any change
    to a list, a decomposition field or a nearest dimension changes them.
    """

    @staticmethod
    def dimension_lists(max_m):
        for m in range(1, max_m + 1):
            for t in range(1, m + 1):
                for rm_order in (None, *range(m + 1)):
                    yield m, t, rm_order, tuple(representable_dimensions(m, t, rm_order))

    def test_dimension_lists(self):
        digest = hashlib.sha256()
        for record in self.dimension_lists(8):
            digest.update(repr(record).encode())
        assert digest.hexdigest() == "fa845e0aa40ede14b4ace2f9f441d90d2a51aa41bee445a53a2a674a0ea6200f"

    def test_bound_decompositions(self):
        digest = hashlib.sha256()
        for m in range(1, 9):
            for t in range(1, m + 1):
                for k in range(1, (1 << m) + 1):
                    bound, dec = partially_symmetric_lb(m, t, k)
                    digest.update(repr((m, t, k, bound, dec.l, dec.j, dec.base, dec.exact, dec.k_used)).encode())
        assert digest.hexdigest() == "cc05f7d27aede31c0f9b5db97c64f6e74663eb190d2d88813adb9a351baa41b1"

    def test_nearest_feasible_dimensions(self):
        digest = hashlib.sha256()
        seen = 0
        for m, t, rm_order, ks in self.dimension_lists(7):
            feasible = set(ks)
            for k in range(1, ks[-1] + 1):
                if k in feasible:
                    continue
                with pytest.raises(NonRepresentableError) as err:
                    construct_partially_symmetric(ConstructionRequest(m, t, k, rm_order))
                digest.update(repr((m, t, rm_order, k, err.value.nearest_below, err.value.nearest_above)).encode())
                seen += 1
        assert seen == 5037
        assert digest.hexdigest() == "84fc9f4c2012badd7b12c3ba13834d719259534daae88c9d3dee37cc99586ceb"
