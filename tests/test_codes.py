import math
import tracemalloc

import numpy as np
import pytest

from symcalc.bitmath import BitMatrix, GF2mField, kernel_basis, rank
from symcalc.calculus import symmetry_profile
from symcalc.channelconstruct import polar_code
from symcalc.codes import (
    LinearCode,
    Monomial,
    MonomialCode,
    ebch_code,
    encode_batch,
    kronecker_transform_array,
    load_code,
    monomial_min_distance,
    monomial_to_linear,
    rm_code,
    save_code,
)
from symcalc.sim import Bec, BiAwgn


def kronecker_matrix(m: int) -> np.ndarray:
    """Oracle: the m-fold Kronecker power of [[1,1],[0,1]], bit 0 least significant."""
    a = np.array([[1]], dtype=np.uint8)
    f = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    for _ in range(m):
        a = np.kron(f, a)
    return a


def all_codewords(code: MonomialCode) -> np.ndarray:
    gen = monomial_to_linear(code).generator_array()
    k = gen.shape[0]
    infos = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    return (infos @ gen) & 1


def random_bits(rng, shape) -> np.ndarray:
    return rng.randint(0, 2, size=shape).astype(np.uint8)


# one-dimensional, (B, n) and (B, P, n) inputs
BATCH_SHAPES = [(), (5,), (3, 4)]


class TestEvaluateMonomial:
    """Row v of the transform is the evaluation vector of the monomial v."""

    def test_constant_over_one_variable(self):
        assert kronecker_transform_array([1, 0]).tolist() == [1, 1]

    def test_x0_over_one_variable(self):
        assert kronecker_transform_array([0, 1]).tolist() == [0, 1]

    def test_x0_over_two_variables(self):
        assert kronecker_transform_array([0, 1, 0, 0]).tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("m", range(0, 11))
    def test_rows_match_kronecker_power(self, m):
        a = kronecker_matrix(m)
        unit = np.eye(1 << m, dtype=np.uint8)
        assert np.array_equal(kronecker_transform_array(unit), a)
        full = MonomialCode(m, frozenset(range(1 << m)))
        assert np.array_equal(encode_batch(full, unit), a)


class TestEncode:
    def test_zero_input(self):
        code = rm_code(1, 3)
        assert not encode_batch(code, np.zeros((2, code.k), dtype=np.uint8)).any()

    def test_constant_only_gives_all_ones(self):
        code = rm_code(1, 3)
        info = np.zeros((1, code.k), dtype=np.uint8)
        info[0, code.sorted_masks().index(0)] = 1
        assert encode_batch(code, info).tolist() == [[1] * 8]

    def test_rm13_two_rows(self):
        code = rm_code(1, 3)
        assert code.sorted_masks() == [0, 1, 2, 4]
        a = kronecker_matrix(3)
        expected = (a[0] ^ a[1]).tolist()  # constant + x0
        assert encode_batch(code, np.array([[1, 1, 0, 0]])).tolist() == [expected]

    @pytest.mark.parametrize("m", range(0, 11))
    def test_butterfly_equals_matrix_multiplication(self, m):
        """Both the byte steps (n < 8) and the 64-bit word steps (n >= 8)
        equal a product with the Kronecker matrix, on every input shape."""
        rng = np.random.RandomState(m)
        a = kronecker_matrix(m).astype(np.int64)
        n = 1 << m
        for shape in BATCH_SHAPES:
            u = random_bits(rng, shape + (n,))
            assert np.array_equal(kronecker_transform_array(u), (u @ a) % 2)
        masks = sorted(rng.choice(n, size=rng.randint(1, n + 1), replace=False).tolist())
        info = random_bits(rng, (6, len(masks)))
        code = MonomialCode(m, frozenset(masks))
        assert np.array_equal(encode_batch(code, info), (info @ a[masks]) % 2)

    @pytest.mark.parametrize("m", range(0, 11))
    def test_transform_is_self_inverse(self, m):
        rng = np.random.RandomState(100 + m)
        for shape in BATCH_SHAPES:
            u = random_bits(rng, shape + (1 << m,))
            once = kronecker_transform_array(u)
            assert once.dtype == np.uint8 and once.shape == u.shape
            assert np.array_equal(kronecker_transform_array(once), u)


class TestRmCode:
    def test_rm13_parameters(self):
        code = rm_code(1, 3)
        assert code.k == 4
        assert monomial_min_distance(code) == 4

    def test_full_order_is_rate_one(self):
        assert rm_code(4, 4).k == 16

    def test_order_zero_is_repetition(self):
        code = rm_code(0, 5)
        assert code.gen_set == frozenset({0})
        assert monomial_min_distance(code) == 32

    @pytest.mark.parametrize("r,m", [(1, 4), (2, 5), (3, 6)])
    def test_dimension_formula(self, r, m):
        assert rm_code(r, m).k == sum(math.comb(m, i) for i in range(r + 1))

    def test_m_beyond_limit_refused_before_the_mask_loop(self):
        """rm_code(0, 40) would loop over 2^40 masks before MonomialCode
        saw m; it is refused at once."""
        for m in (17, 40, 200_000_000):
            with pytest.raises(ValueError, match="outside"):
                rm_code(0, m)

    @pytest.mark.parametrize("r, m", [(1.5, 4), (2, 4.0), ("1", 4), (None, 4)])
    def test_non_integer_arguments_rejected(self, r, m):
        with pytest.raises(ValueError, match="integer"):
            rm_code(r, m)


class TestMinDistance:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            monomial_min_distance(MonomialCode(3, frozenset()))

    def test_rate_one_distance_one(self):
        assert monomial_min_distance(MonomialCode(3, frozenset(range(8)))) == 1

    def test_rm25_brute_force(self):
        code = rm_code(2, 5)
        words = all_codewords(code)
        weights = words.sum(axis=1)
        assert monomial_min_distance(code) == 8 == weights[weights > 0].min()

    def test_random_small_codes_brute_force(self):
        rng = np.random.RandomState(3)
        for m in (3, 4, 5):
            for _ in range(8):
                k = rng.randint(1, min(1 << m, 14))
                masks = frozenset(rng.choice(1 << m, size=k, replace=False).tolist())
                code = MonomialCode(m, masks)
                words = all_codewords(code)
                weights = words.sum(axis=1)
                assert monomial_min_distance(code) == weights[weights > 0].min()


class TestPolarCode:
    def test_empty_frozen_set_is_rate_one(self):
        for channel in (Bec(0.5), BiAwgn(2.0)):
            assert polar_code(3, 8, channel).gen_set == frozenset(range(8))

    def test_all_but_top_frozen(self):
        # the constant monomial decodes through the all-upgraded branch
        assert polar_code(3, 1, Bec(0.5)).gen_set == frozenset({0})

    def test_worked_frozen_set(self):
        # on BEC(0.5) at length 16 the polar codes of dimension 5 and 11 are
        # the Reed-Muller codes
        assert polar_code(4, 5, Bec(0.5)) == rm_code(1, 4)
        assert polar_code(4, 11, Bec(0.5)) == rm_code(2, 4)


class TestEbch:
    @pytest.mark.parametrize(
        "m,delta,k", [(4, 3, 11), (4, 2, 15), (5, 7, 16), (4, 5, 7), (5, 2, 31)]
    )
    def test_dimensions(self, m, delta, k):
        code = ebch_code(GF2mField(m), delta)
        assert (code.n, code.k) == (1 << m, k)

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            ebch_code(GF2mField(4), 16)

    def test_dimension_via_cyclotomic_cosets(self):
        # m=5, delta=7: constraints from the cosets of 1, 3, 5 plus overall parity
        cosets = set()
        sizes = 0
        for root in (1, 3, 5):
            coset = frozenset((root << i) % 31 for i in range(5))
            if coset not in cosets:
                cosets.add(coset)
                sizes += len(coset)
        assert ebch_code(GF2mField(5), 7).k == 31 - sizes

    @pytest.mark.parametrize("delta", [3, 5, 7])
    def test_minimum_distance_m4(self, delta):
        code = ebch_code(GF2mField(4), delta)
        gen = code.generator_array()
        infos = ((np.arange(1 << code.k)[:, None] >> np.arange(code.k)) & 1).astype(np.uint8)
        weights = ((infos @ gen) & 1).sum(axis=1)
        assert weights[weights > 0].min() >= delta + 1

    @pytest.mark.parametrize("m", range(3, 10))
    def test_matches_power_by_power_construction(self, m):
        fld = GF2mField(m)
        n = 1 << m
        for delta in sorted({2, 3, 4, 5, 6, 7, 11, 31, n - 1} & set(range(2, min(n, 32)))):
            # frozen construction: one fld.pow call per element and power
            rows = [(1 << n) - 1]
            for j in range(1, delta - 1):
                powers = [fld.pow(x, j) for x in range(n)]
                for b in range(m):
                    rows.append(sum(1 << x for x, e in enumerate(powers) if (e >> b) & 1))
            expected = kernel_basis(BitMatrix.from_rows(rows, n))
            assert ebch_code(fld, delta).generator == expected, (m, delta)

    @pytest.mark.parametrize("m", range(3, 10))
    def test_seeded_dual_is_kernel_of_generator(self, m):
        n = 1 << m
        fld = GF2mField(m)
        for delta in sorted({2, 3, 5, 11, 31, n - 1} & set(range(2, min(n, 32)))):
            code = ebch_code(fld, delta)
            dual = code.dual()
            assert dual.k == n - code.k
            assert not ((code.generator_array() @ dual.generator_array().T) % 2).any()
            assert dual.same_code(LinearCode(kernel_basis(code.generator), validate=False))

    def test_oversized_field_refused_before_allocating(self):
        fld = GF2mField(16)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cells"):
                ebch_code(fld, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_field_powers_match_pow(self):
        fld = GF2mField(5)
        table = fld.powers([1, 2, 7, 31, 40])
        for row, e in zip(table, [1, 2, 7, 31, 40]):
            assert row.tolist() == [fld.pow(x, e) for x in range(32)]
        with pytest.raises(ValueError):
            fld.powers([0])

    def test_even_weight_code_for_delta_two(self):
        code = ebch_code(GF2mField(4), 2)
        arr = code.generator_array()
        assert (arr.sum(axis=1) % 2 == 0).all()


class TestMonomial:
    @pytest.mark.parametrize("mask, m", [(1, 2.5), (1, "3"), (1.0, 3), (1.5, 3), ("1", 3)])
    def test_non_integer_arguments_rejected(self, mask, m):
        with pytest.raises(ValueError, match="not an integer"):
            Monomial(mask, m)

    @pytest.mark.parametrize("m", [-1, 17, 200_000_000])
    def test_m_beyond_limit_rejected(self, m):
        with pytest.raises(ValueError, match="outside"):
            Monomial(0, m)

    def test_degree(self):
        assert Monomial(0b1011, 4).degree == 3


class TestMonomialCode:
    @pytest.mark.parametrize("m, masks", [(3, {8}), (3, {-1}), (0, {1}), (4, {0, 5, 16})])
    def test_mask_out_of_range_rejected(self, m, masks):
        with pytest.raises(ValueError, match="out of range"):
            MonomialCode(m, frozenset(masks))

    @pytest.mark.parametrize("m", [-1, 17, 200_000_000])
    def test_m_beyond_limit_rejected(self, m):
        with pytest.raises(ValueError, match="outside"):
            MonomialCode(m, frozenset())

    @pytest.mark.parametrize("masks", [{1.5}, {2.0}, {0, 1, 0.5}, {"3"}, {None}])
    def test_non_integer_mask_rejected(self, masks):
        with pytest.raises(ValueError, match="integers"):
            MonomialCode(2, frozenset(masks))

    def test_numpy_integer_masks_accepted(self):
        code = MonomialCode(3, frozenset(np.arange(5, dtype=np.uint16).tolist() + [np.int64(7)]))
        assert symmetry_profile(code).dims == (3, 3, 2)

    def test_extreme_masks_accepted(self):
        assert MonomialCode(16, frozenset({0, (1 << 16) - 1})).k == 2
        assert MonomialCode(0, frozenset({0})).k == 1


class TestMonomialToLinear:
    def test_repetition_row(self):
        lin = monomial_to_linear(rm_code(0, 2))
        assert lin.generator.row_ints() == [0b1111]

    def test_rm12_rank(self):
        lin = monomial_to_linear(rm_code(1, 2))
        assert (lin.k, rank(lin.generator)) == (3, 3)

    def test_full_rank_always(self):
        rng = np.random.RandomState(11)
        for _ in range(10):
            masks = frozenset(rng.choice(32, size=9, replace=False).tolist())
            lin = monomial_to_linear(MonomialCode(5, masks))
            assert rank(lin.generator) == 9


class TestLinearCode:
    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            LinearCode(BitMatrix.from_rows([0b11, 0b11], 2))

    def test_from_spanning_rows_reduces(self):
        code = LinearCode.from_spanning_rows([0b011, 0b110, 0b101], 3)
        assert code.k == 2

    def test_same_code_under_row_operations(self):
        a = LinearCode(BitMatrix.from_rows([0b011, 0b110], 3))
        b = LinearCode(BitMatrix.from_rows([0b101, 0b110], 3))
        assert a.same_code(b)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_dual_dimension_and_orthogonality(self, m):
        n = 1 << m
        rng = np.random.RandomState(m)
        spans = [random_bits(rng, (r, n)) for r in (0, 1, n // 2, n // 2 + 1, n + 2)]
        for gen in spans + [np.eye(n, dtype=np.uint8)]:
            code = LinearCode.from_spanning_rows(BitMatrix.from_array(gen).row_ints(), n)
            dual = code.dual()
            assert dual.k == n - code.k and dual.n == n
            assert not ((code.generator_array() @ dual.generator_array().T) % 2).any()
            assert dual.dual().same_code(code)
            assert code.dual() is dual


class TestFileFormat:
    def test_monomial_round_trip(self, tmp_path):
        code = rm_code(2, 4)
        path = tmp_path / "rm.code"
        save_code(code, path)
        loaded = load_code(path)
        assert isinstance(loaded, MonomialCode)
        assert loaded == code

    def test_linear_round_trip(self, tmp_path):
        code = ebch_code(GF2mField(4), 5)
        path = tmp_path / "ebch.code"
        save_code(code, path)
        loaded = load_code(path)
        assert isinstance(loaded, LinearCode)
        assert loaded.same_code(code)
        assert loaded.generator.row_ints() == code.generator.row_ints()

    def test_header_format(self, tmp_path):
        path = tmp_path / "c.code"
        save_code(MonomialCode(3, frozenset({0, 5})), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m=3 type=monomial"
        assert lines[1:] == ["0", "5"]


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(8, 3)
    assert Monomial(0b101, 3).degree == 2
