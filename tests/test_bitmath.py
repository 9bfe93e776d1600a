import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcalc.bitmath as bitmath
import symcalc.calculus as calculus
from symcalc.bitmath import (
    PRIMITIVE_POLYS,
    BitMatrix,
    BitVec,
    GF2mField,
    kernel_basis,
    rank,
    rref,
)
from symcalc.codes import ebch_code


def identity(n: int) -> BitMatrix:
    return BitMatrix.from_array(np.eye(n, dtype=np.uint8))


def zeros(rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_array(np.zeros((rows, cols), dtype=np.uint8))


class TestBitVec:
    def test_xor_self_is_zero(self):
        v = BitVec(10, 0b1011001110)
        assert (v ^ v).payload == 0

    def test_payload_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            BitVec(3, 0b1000)

    def test_array_round_trip(self):
        v = BitVec(13, 0b1010011100101)
        assert BitVec.from_array(v.to_array()) == v

    def test_get_and_weight(self):
        v = BitVec(8, 0b10110)
        assert [v.get(i) for i in range(5)] == [0, 1, 1, 0, 1]
        assert v.weight() == 3


class TestRank:
    def test_identity(self):
        assert rank(identity(4)) == 4

    def test_all_zero(self):
        assert rank(zeros(3, 5)) == 0

    def test_upper_triangular_transform_rows(self):
        # rows (1111),(0101),(0011),(0001) with bit 0 = coordinate 0
        mat = BitMatrix.from_rows([0b1111, 0b1010, 0b1100, 0b1000], 4)
        assert rank(mat) == 4

    def test_wide_matrix(self):
        rows = [(1 << 100) | 1, (1 << 100) | 2, 1 << 50]
        assert rank(BitMatrix.from_rows(rows, 128)) == 3
        assert rank(BitMatrix.from_rows([(1 << 100) | 1, (1 << 100) | 2, 3], 128)) == 2


class TestRref:
    def test_identity_fixed_point(self):
        reduced, pivots = rref(identity(5))
        assert reduced == identity(5)
        assert pivots == list(range(5))

    def test_hand_elimination(self):
        # rows (110),(011),(101): rank 2, echelon rows (101),(011)
        mat = BitMatrix.from_rows([0b011, 0b110, 0b101], 3)
        reduced, pivots = rref(mat)
        assert pivots == [0, 1]
        assert reduced.row_ints()[:2] == [0b101, 0b110]
        assert reduced.row_ints()[2] == 0

    def test_single_row(self):
        mat = BitMatrix.from_rows([0b0110], 4)
        reduced, pivots = rref(mat)
        assert reduced.row_ints() == [0b0110]
        assert pivots == [1]

    def test_pivots_strictly_increasing(self):
        rng = np.random.RandomState(7)
        for _ in range(20):
            arr = rng.randint(0, 2, size=(8, 12)).astype(np.uint8)
            _, pivots = rref(BitMatrix.from_array(arr))
            assert pivots == sorted(set(pivots))


class TestKernel:
    def test_identity_has_empty_kernel(self):
        assert kernel_basis(identity(4)).rows == 0

    def test_zero_matrix_full_kernel(self):
        ker = kernel_basis(zeros(2, 4))
        assert ker.rows == 4
        assert rank(ker) == 4

    def test_parity_row_even_weight_kernel(self):
        ker = kernel_basis(BitMatrix.from_rows([0b1111], 4))
        assert ker.rows == 3
        # oracle: enumerate all 16 vectors, keep even weight, take a basis
        even = [v for v in range(16) if bin(v).count("1") % 2 == 0]
        oracle = BitMatrix.from_rows(even, 4)
        assert rank(oracle) == 3
        combined = BitMatrix.from_rows(ker.row_ints() + even, 4)
        assert rank(combined) == 3  # kernel rows lie in the even-weight space


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_rank_agrees_with_rref(rows, cols, seed):
    rng = np.random.RandomState(seed)
    arr = rng.randint(0, 2, size=(rows, cols)).astype(np.uint8)
    mat = BitMatrix.from_array(arr)
    reduced, pivots = rref(mat)
    assert rank(mat) == len(pivots) == rank(reduced)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_kernel_annihilates_and_has_complementary_rank(rows, cols, seed):
    rng = np.random.RandomState(seed)
    mat = BitMatrix.from_array(rng.randint(0, 2, size=(rows, cols)).astype(np.uint8))
    ker = kernel_basis(mat)
    assert ker.rows == cols - rank(mat)
    if ker.rows:
        prod = (mat.to_array().astype(np.int64) @ ker.to_array().T) & 1
        assert not prod.any()
        assert rank(ker) == ker.rows


# ---------------------------------------------------------------------------
# Frozen per-column elimination: the reference for the strip kernel


def _column_bit(data, col):
    w, b = divmod(col, 64)
    return (data[:, w] >> np.uint64(b)) & np.uint64(1)


def ref_rref(mat):
    """One column at a time: first nonzero column, topmost nonzero row."""
    data = mat._data.copy()
    pivots = []
    r = 0
    for col in range(mat.cols):
        if r == mat.rows:
            break
        nz = np.nonzero(_column_bit(data[r:], col))[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        ones = np.nonzero(_column_bit(data, col))[0]
        ones = ones[ones != r]
        data[ones] ^= data[r]
        pivots.append(col)
        r += 1
    return BitMatrix(data, mat.cols), pivots


def ref_kernel_basis(mat):
    reduced, pivots = ref_rref(mat)
    pivot_set = set(pivots)
    free_cols = [c for c in range(mat.cols) if c not in pivot_set]
    red = reduced.to_array()
    out = np.zeros((len(free_cols), mat.cols), dtype=np.uint8)
    for idx, f in enumerate(free_cols):
        out[idx, f] = 1
        for i, p in enumerate(pivots):
            out[idx, p] = red[i, f]
    return BitMatrix.from_array(out)


def structured_matrix(rows, cols, kind, seed):
    """A 0/1 matrix: dense, low rank, sparse, or few distinct rows with
    duplicates and zero rows."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        arr = rng.integers(0, 2, (rows, cols))
    elif kind == "low_rank":
        r = int(rng.integers(0, 12))
        arr = rng.integers(0, 2, (rows, r)) @ rng.integers(0, 2, (r, cols))
    elif kind == "sparse":
        arr = rng.random((rows, cols)) < 0.02
    else:
        base = rng.integers(0, 2, (int(rng.integers(1, 6)), cols))
        arr = base[rng.integers(0, base.shape[0], rows)]
        arr[rng.random(rows) < 0.3] = 0
    return BitMatrix.from_array(np.asarray(arr, dtype=np.int64).reshape(rows, cols) & 1)


matrices = st.builds(
    structured_matrix,
    st.integers(0, 600),
    st.one_of(st.integers(1, 600), st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128, 129])),
    st.sampled_from(["dense", "low_rank", "sparse", "duplicates"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_and_rank_match_per_column_reference(mat):
    reduced, pivots = rref(mat)
    ref_reduced, ref_pivots = ref_rref(mat)
    assert pivots == ref_pivots
    assert reduced == ref_reduced
    assert rank(mat) == len(ref_pivots)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_kernel_basis_matches_per_column_reference(mat):
    ker = kernel_basis(mat)
    assert ker == ref_kernel_basis(mat)
    assert ker.rows == mat.cols - rank(mat)
    prod = mat.to_array().astype(np.float64) @ ker.to_array().T.astype(np.float64)
    assert not (prod.astype(np.int64) % 2).any()


@pytest.fixture
def scanned(monkeypatch):
    """The row offset of every strip that _eliminate scans, in order."""
    offsets = []
    strip_pivots = bitmath._strip_pivots
    monkeypatch.setattr(
        bitmath, "_strip_pivots", lambda below, r: (offsets.append(r), strip_pivots(below, r))[1]
    )
    return offsets


def _ebch_dual_derivatives(monkeypatch, delta):
    """The matrices that symmetry_profile eliminates for the m = 9 eBCH code
    of design distance delta: its dual code's derivative in each direction."""
    captured = []

    def spy(mat):
        captured.append(mat)
        return rref(mat)

    with monkeypatch.context() as patch:
        patch.setattr(calculus, "rref", spy)
        calculus.symmetry_profile(ebch_code(GF2mField(9), delta))
    return captured


@pytest.mark.parametrize(
    "delta, rows, rank_, last_strips", [(3, 10, 1, {0}), (11, 46, 18, {16}), (31, 136, 63, {20, 24})]
)
def test_low_rank_elimination_stops_after_the_last_pivot(
    monkeypatch, scanned, delta, rows, rank_, last_strips
):
    """Once the rows below the pivots are zero no further strip is scanned,
    and the result still equals the per-column reference."""
    mats = _ebch_dual_derivatives(monkeypatch, delta)
    assert len(mats) == 9
    for mat in mats:
        scanned.clear()
        reduced, pivots = rref(mat)
        assert (mat.rows, mat.cols, len(pivots)) == (rows, 256, rank_)
        assert pivots[-1] // 8 in last_strips
        assert len(scanned) == pivots[-1] // 8 + 1
        ref_reduced, ref_pivots = ref_rref(mat)
        assert pivots == ref_pivots and reduced == ref_reduced
        assert kernel_basis(mat) == ref_kernel_basis(mat)


@pytest.mark.parametrize("rows", [0, 1, 10, 136])
def test_all_zero_matrix_scans_no_strip(scanned, rows):
    mat = zeros(rows, 256)
    reduced, pivots = rref(mat)
    assert scanned == [] and pivots == [] and rank(mat) == 0
    assert (reduced, pivots) == ref_rref(mat)
    assert kernel_basis(mat) == ref_kernel_basis(mat) == identity(256)


def test_head_shares_rows():
    mat = BitMatrix.from_rows([0b101, 0b011, 0b110], 3)
    assert mat.head(2) == BitMatrix.from_rows([0b101, 0b011], 3)
    assert mat.head(0).rows == 0


def test_rank_rref_random_dense_64():
    rng = np.random.RandomState(1234)
    arr = rng.randint(0, 2, size=(64, 64)).astype(np.uint8)
    mat = BitMatrix.from_array(arr)
    reduced, pivots = rref(mat)
    assert rank(mat) == len(pivots)
    # row spaces agree: stacking changes nothing
    stacked = BitMatrix.from_rows(mat.row_ints() + reduced.row_ints(), 64)
    assert rank(stacked) == rank(mat)


class TestGF2m:
    def test_multiply_by_zero_and_one(self):
        fld = GF2mField(4)
        for a in range(16):
            assert fld.mul(a, 0) == 0
            assert fld.mul(a, 1) == a

    def test_gf8_alpha_times_alpha_squared(self):
        # x^3 = x + 1, so alpha * alpha^2 = 0b011
        fld = GF2mField(3)
        assert fld.mul(0b010, 0b100) == 0b011

    def test_gf8_order_seven(self):
        fld = GF2mField(3)
        a3 = fld.pow(2, 3)
        a4 = fld.pow(2, 4)
        assert fld.mul(a3, a4) == 1

    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_table_polynomials_are_primitive(self, m):
        GF2mField(m)  # constructor validates irreducibility and the order

    def test_out_of_range_element_rejected(self):
        fld = GF2mField(4)
        for a, b in ((99, 3), (3, 16), (-1, 2)):
            with pytest.raises(ValueError, match="out of range"):
                fld.mul(a, b)
        with pytest.raises(ValueError, match="out of range"):
            fld.pow(16, 0)

    def test_negative_exponent_rejected(self):
        """-1 >> 1 == -1, so a negative exponent would never leave the
        square-and-multiply loop."""
        with pytest.raises(ValueError, match="non-negative"):
            GF2mField(4).pow(2, -1)

    def test_non_primitive_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5
        with pytest.raises(ValueError):
            GF2mField(4, 0b11111)

    @pytest.mark.parametrize(
        "poly",
        [
            0b10101,  # (x^2 + x + 1)^2: reducible, x has order 6
            0b10000,  # x^4: x is nilpotent, its powers reach 0
            0b10001,  # (x + 1)^4: reducible, x has order 4
        ],
    )
    def test_reducible_rejected(self, poly):
        with pytest.raises(ValueError, match="not primitive"):
            GF2mField(4, poly)

    @pytest.mark.parametrize("m, poly", [(4, 0b11001), (5, 0b111101), (6, 0b1100111)])
    def test_other_primitive_polynomial_powers_match_pow(self, m, poly):
        fld = GF2mField(m, poly)
        exps = [1, 2, 3, (1 << m) - 1, 1 << m]
        table = fld.powers(exps)
        for row, e in zip(table, exps):
            assert row.tolist() == [fld.pow(x, e) for x in range(fld.size)]

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_field_axioms_on_random_triples(self, m):
        fld = GF2mField(m)
        rng = np.random.RandomState(m)
        size = fld.size
        for _ in range(200):
            a, b, c = (int(x) for x in rng.randint(0, size, 3))
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        for a in range(1, size):
            assert fld.mul(fld.pow(a, size - 2), a) == 1
