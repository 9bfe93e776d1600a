import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcalc.bitmath import BitMatrix, GF2mField, rank, rref
from symcalc.bounds import representable_dimensions
from symcalc.calculus import (
    derivative_subcode_dim,
    directional_derivative_code,
    is_invariant,
    monomial_derivative_dimension,
    monomial_partial,
    symmetry_profile,
)
from symcalc.codes import (
    LinearCode,
    Monomial,
    MonomialCode,
    ebch_code,
    monomial_to_linear,
    rm_code,
)
from symcalc.construct import ConstructionRequest, construct_partially_symmetric


def variable_swap_permutation(m, i, j):
    """Coordinate permutation induced by exchanging variables i and j."""
    x = np.arange(1 << m)
    bi = (x >> i) & 1
    bj = (x >> j) & 1
    return x ^ (bi << i) ^ (bi << j) ^ (bj << j) ^ (bj << i)


class TestMonomialPartial:
    def test_kills_absent_variable(self):
        assert monomial_partial(Monomial(0b10, 2), 0) is None

    def test_clears_present_variable(self):
        assert monomial_partial(Monomial(0b11, 2), 0) == Monomial(0b10, 2)

    def test_worked_target_derivative(self):
        # construction for (16,8,4): differentiate by x_0 -> {x_3, 1}
        gens = {0b1001, 0b1010, 0b1100, 0b0001, 0b0010, 0b0100, 0b1000, 0b0000}
        images = {
            monomial_partial(Monomial(v, 4), 0)
            for v in gens
            if monomial_partial(Monomial(v, 4), 0) is not None
        }
        assert {im.mask for im in images} == {0b1000, 0b0000}


def ref_derivative_generator(code, b):
    """The derivative's reduced generator through one 0/1 byte per bit:
    gather the coset representatives x and their partners x + b, XOR, pack."""
    x = np.arange(code.n)
    reps = x[((x >> ((b & -b).bit_length() - 1)) & 1) == 0]
    arr = code.generator_array()
    reduced, pivots = rref(BitMatrix.from_array(arr[:, reps] ^ arr[:, reps ^ b]))
    return reduced.head(len(pivots))


class TestDirectionalDerivative:
    def test_direction_zero_rejected(self):
        code = monomial_to_linear(rm_code(1, 3))
        with pytest.raises(ValueError):
            directional_derivative_code(code, 0)
        for b in (-1, 8):
            with pytest.raises(ValueError):
                directional_derivative_code(code, b)

    @pytest.mark.parametrize("b", [2.0, "1", None])
    def test_non_integer_direction_rejected(self, b):
        code = monomial_to_linear(rm_code(1, 3))
        with pytest.raises(ValueError, match="not an integer"):
            directional_derivative_code(code, b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_packed_words_match_unpacked_reference(self, m, data):
        n = 1 << m
        k = data.draw(st.integers(0, n))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=k, max_size=k))
        code = LinearCode.from_spanning_rows(rows, n)
        for b in range(1, n):
            assert directional_derivative_code(code, b).generator == ref_derivative_generator(code, b)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rate_one_derivatives_are_rate_one(self, m):
        code = monomial_to_linear(MonomialCode(m, frozenset(range(1 << m))))
        for b in range(1, 1 << m):
            assert directional_derivative_code(code, b).k == 1 << (m - 1)

    @pytest.mark.parametrize("r,m", [(1, 3), (2, 4), (2, 5), (3, 5)])
    def test_rm_coordinate_derivative_dimension(self, r, m):
        code = monomial_to_linear(rm_code(r, m))
        expected = sum(math.comb(m - 1, i) for i in range(r))
        for i in range(m):
            assert directional_derivative_code(code, 1 << i).k == expected

    def test_ebch_all_directions_equal(self):
        code = ebch_code(GF2mField(5), 7)
        dims = {directional_derivative_code(code, b).k for b in range(1, 32)}
        assert len(dims) == 1

    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_ebch_directional_dims_all_equal_small_m(self, m, delta):
        code = ebch_code(GF2mField(m), delta)
        dims = {directional_derivative_code(code, b).k for b in range(1, 1 << m)}
        assert len(dims) == 1

    def test_derivative_length_halves(self):
        code = monomial_to_linear(rm_code(2, 4))
        assert directional_derivative_code(code, 0b0110).n == 8

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_symbolic_matches_rank_for_monomial_codes(self, m):
        rng = np.random.RandomState(m * 17)
        for _ in range(5):
            k = rng.randint(1, 1 << m)
            masks = frozenset(rng.choice(1 << m, size=k, replace=False).tolist())
            code = MonomialCode(m, masks)
            lin = monomial_to_linear(code)
            for i in range(m):
                assert (
                    directional_derivative_code(lin, 1 << i).k
                    == monomial_derivative_dimension(code, i)
                )


def benchmark_grid_points(m=9, per_t=3):
    """The algebra-grid benchmark's slice: first, middle and last representable k per t."""
    points = []
    for t in range(1, m + 1):
        ks = representable_dimensions(m, t)
        picks = {ks[round(i * (len(ks) - 1) / (per_t - 1))] for i in range(per_t)}
        points.extend((m, t, k) for k in sorted(picks))
    return points


class TestRankOracle:
    """Monomial codes are profiled by support count; the rank path on their
    evaluation matrices must agree."""

    def test_constructed_grid_codes(self):
        points = [
            (m, t, k)
            for m in range(1, 8)
            for t in range(1, m + 1)
            for k in representable_dimensions(m, t)
        ]
        points += benchmark_grid_points()
        assert sum(1 for p in points if p[0] == 9) == 27
        for m, t, k in points:
            code = construct_partially_symmetric(ConstructionRequest(m=m, t=t, k=k))
            assert symmetry_profile(code) == symmetry_profile(monomial_to_linear(code)), (m, t, k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_random_monomial_codes(self, m, data):
        n = 1 << m
        k = data.draw(st.sampled_from([0, n]) | st.integers(0, n))
        masks = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        code = MonomialCode(m, frozenset(masks))
        assert symmetry_profile(code) == symmetry_profile(monomial_to_linear(code))


class TestSymmetryProfile:
    @pytest.mark.parametrize(
        "code",
        [MonomialCode(0, frozenset({0})), LinearCode(BitMatrix.from_rows([1], 1))],
        ids=["monomial", "linear"],
    )
    def test_m_zero_rejected(self, code):
        with pytest.raises(ValueError, match="m >= 1"):
            symmetry_profile(code)

    def test_rm25_fully_symmetric(self):
        prof = symmetry_profile(rm_code(2, 5))
        assert prof.t == 5
        assert len(set(prof.dims)) == 1

    @pytest.mark.parametrize("r,m", [(0, 3), (1, 4), (2, 5), (3, 6), (2, 7)])
    def test_rm_profiles_meet_the_bound_with_j_zero(self, r, m):
        from symcalc.bounds import fully_symmetric_lb

        prof = symmetry_profile(rm_code(r, m))
        bound, dec = fully_symmetric_lb(m, rm_code(r, m).k)
        assert dec.exact and dec.j == 0
        assert set(prof.dims) == {bound}

    def test_worked_code_profile(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        prof = symmetry_profile(code)
        assert (prof.t, prof.k_tilde) == (3, 2)
        assert prof.target_set == frozenset({0, 1, 2})

    def test_nontarget_dims_strictly_larger(self):
        code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        prof = symmetry_profile(code)
        assert all(prof.dims[i] > prof.k_tilde for i in range(3, 4))


def generator_path_dims(code):
    """Reference profile: derivative ranks on the generator in every direction."""
    return tuple(directional_derivative_code(code, 1 << i).k for i in range(code.m))


def random_linear_code(rng, m, k, extra):
    """A code of dimension exactly k: a systematic generator on a random
    coordinate order, spanned by its rows plus `extra` XORs of them."""
    n = 1 << m
    cols = rng.permutation(n)
    gen = np.zeros((k, n), dtype=np.uint8)
    gen[np.arange(k), cols[:k]] = 1
    gen[:, cols[k:]] = rng.integers(0, 2, size=(k, n - k))
    gen = np.vstack([gen, (rng.integers(0, 2, size=(extra, k)) @ gen) % 2])
    return LinearCode.from_spanning_rows(BitMatrix.from_array(rng.permutation(gen)).row_ints(), n)


class TestDualProfile:
    """A linear code with 2k > n is profiled through its dual."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_random_codes_match_generator_path(self, m, data):
        n = 1 << m
        k = data.draw(st.sampled_from([0, n // 2, n // 2 + 1, n]) | st.integers(0, n))
        extra = data.draw(st.integers(0, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        code = random_linear_code(rng, m, k, extra)
        assert code.k == k
        assert symmetry_profile(code).dims == generator_path_dims(code)

    @pytest.mark.parametrize("m", range(3, 10))
    def test_ebch_codes_match_generator_path(self, m):
        n = 1 << m
        fld = GF2mField(m)
        for delta in sorted({2, 3, 4, 5, 7, 11, 31, n - 1} & set(range(2, min(n, 32)))):
            code = ebch_code(fld, delta)
            assert symmetry_profile(code).dims == generator_path_dims(code), (m, delta)


class TestIsInvariant:
    def test_identity(self):
        code = monomial_to_linear(rm_code(1, 3))
        assert is_invariant(code, np.arange(8))

    def test_rm_variable_swaps(self):
        code = monomial_to_linear(rm_code(1, 3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert is_invariant(code, variable_swap_permutation(3, i, j))

    def test_non_invariance_detected(self):
        # a single monomial x_0 is not preserved by swapping x_0 and x_1
        code = monomial_to_linear(MonomialCode(2, frozenset({0b01})))
        assert not is_invariant(code, variable_swap_permutation(2, 0, 1))

    def test_constructed_code_target_block_swaps(self):
        code = monomial_to_linear(
            construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
        )
        for i in range(3):
            for j in range(i + 1, 3):
                assert is_invariant(code, variable_swap_permutation(4, i, j))

    def test_bad_permutation_rejected(self):
        code = monomial_to_linear(rm_code(1, 2))
        with pytest.raises(ValueError):
            is_invariant(code, np.zeros(4, dtype=int))


class TestDerivativeSubcode:
    def test_rm13(self):
        code = monomial_to_linear(rm_code(1, 3))
        for i in range(3):
            assert derivative_subcode_dim(code, i) == 1

    def test_rate_one(self):
        code = monomial_to_linear(MonomialCode(3, frozenset(range(8))))
        assert derivative_subcode_dim(code, 0) == 4

    @pytest.mark.parametrize("delta", [3, 5])
    def test_ebch_m4_at_most_half(self, delta):
        code = ebch_code(GF2mField(4), delta)
        for i in range(4):
            assert 2 * derivative_subcode_dim(code, i) <= code.k

    def test_rejects_non_invariant_code(self):
        code = monomial_to_linear(MonomialCode(2, frozenset({0b01})))
        with pytest.raises(ValueError):
            derivative_subcode_dim(code, 0)

    def test_unpunctured_derivative_is_subcode(self):
        # with a translation automorphism the derivative rows lie in the code
        code = monomial_to_linear(rm_code(2, 4))
        arr = code.generator_array()
        for i in range(4):
            perm = np.arange(16) ^ (1 << i)  # x -> x + e_i
            rows = arr ^ arr[:, perm]
            from symcalc.bitmath import BitMatrix

            stacked = BitMatrix.from_array(np.vstack([arr, rows]))
            assert rank(stacked) == code.k
