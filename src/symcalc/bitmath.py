"""Bit-packed GF(2) linear algebra and GF(2^m) field arithmetic.

Vectors are plain Python integers (bit i of the payload = coordinate i),
matrices pack rows into uint64 words for vectorized elimination.  Everything
is immutable after construction.

One elimination kernel, `_eliminate`, serves `rref`, `rank` and
`kernel_basis`: a Method of Four Russians reduction over 8-column strips that
clears each strip in every row with a single table lookup.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

_WORD = 64


def _n_words(cols: int) -> int:
    return max(1, (cols + _WORD - 1) // _WORD)


def _int_to_words(value: int, cols: int) -> np.ndarray:
    nw = _n_words(cols)
    buf = value.to_bytes(nw * 8, "little")
    return np.frombuffer(buf, dtype="<u8").astype(np.uint64)


def _words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8").tobytes(), "little")


@dataclass(frozen=True)
class BitVec:
    """A length-`length` vector over GF(2), packed into an int payload."""

    length: int
    payload: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.payload < 0 or self.payload >> self.length:
            raise ValueError("payload has bits beyond `length`")

    def get(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.payload >> i) & 1

    def weight(self) -> int:
        return self.payload.bit_count()

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVec(self.length, self.payload ^ other.payload)

    def to_array(self) -> np.ndarray:
        """Unpack into a uint8 0/1 array of shape (length,)."""
        nbytes = (self.length + 7) // 8
        raw = np.frombuffer(self.payload.to_bytes(nbytes or 1, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        return bits[: self.length]

    @classmethod
    def from_array(cls, bits: Sequence[int] | np.ndarray) -> "BitVec":
        arr = np.asarray(bits, dtype=np.uint8) & 1
        packed = np.packbits(arr, bitorder="little")
        return cls(len(arr), int.from_bytes(packed.tobytes(), "little"))

    def __str__(self):
        return "".join(str(self.get(i)) for i in range(self.length))


class BitMatrix:
    """A rows x cols matrix over GF(2) with uint64-packed rows.

    The word array is frozen after construction; all operations allocate
    fresh matrices.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: np.ndarray, cols: int):
        data = np.ascontiguousarray(data, dtype=np.uint64)
        if data.ndim != 2 or data.shape[1] != _n_words(cols):
            raise ValueError("word array shape does not match cols")
        # mask stray bits beyond cols
        rem = cols % _WORD
        if rem and data.shape[0]:
            data = data.copy()
            data[:, -1] &= np.uint64((1 << rem) - 1)
        data.setflags(write=False)
        self.rows = data.shape[0]
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, rows: Iterable[BitVec | int], cols: int) -> "BitMatrix":
        ints = [r.payload if isinstance(r, BitVec) else int(r) for r in rows]
        nw = _n_words(cols)
        if not ints:
            return cls(np.zeros((0, nw), dtype=np.uint64), cols)
        data = np.empty((len(ints), nw), dtype=np.uint64)
        for i, v in enumerate(ints):
            data[i] = _int_to_words(v, cols)
        return cls(data, cols)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitMatrix":
        """Pack a (rows, cols) 0/1 array."""
        arr = np.asarray(arr, dtype=np.uint8) & 1
        return cls.from_packed_bytes(np.packbits(arr, axis=1, bitorder="little"), arr.shape[1])

    @classmethod
    def from_packed_bytes(cls, packed: np.ndarray, cols: int) -> "BitMatrix":
        """Build from (rows, nbytes) uint8 rows, bit j of byte i = column 8i + j;
        rows shorter than the word array are zero-padded."""
        nw = _n_words(cols)
        if packed.shape[1] != nw * 8:
            packed = np.pad(packed, ((0, 0), (0, nw * 8 - packed.shape[1])))
        return cls(np.ascontiguousarray(packed).view("<u8"), cols)

    def head(self, count: int) -> "BitMatrix":
        """The first `count` rows, sharing this matrix's frozen words."""
        return BitMatrix(self._data[:count], self.cols)

    def row_ints(self) -> list[int]:
        return [_words_to_int(self._data[i]) for i in range(self.rows)]

    def packed_bytes(self) -> np.ndarray:
        """The rows as (rows, 8 * words) uint8, bit j of byte i = column 8i + j."""
        return self._data.astype("<u8", copy=False).view(np.uint8)

    def to_array(self) -> np.ndarray:
        """Unpack into a (rows, cols) uint8 0/1 array."""
        if self.rows == 0:
            return np.zeros((0, self.cols), dtype=np.uint8)
        bits = np.unpackbits(self.packed_bytes(), axis=1, bitorder="little")
        return np.ascontiguousarray(bits[:, : self.cols])

    def __eq__(self, other):
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self._data, other._data))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data.tobytes()))

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"


# columns per elimination strip: the strip's byte of a row indexes a 256-entry table
_STRIP = 8
# _BYTE_BITS[j, v] is bit j of the byte value v
_BYTE_BITS = (np.arange(256) >> np.arange(_STRIP)[:, None]) & 1
# _SELECT[q][i, j] is all ones when bit j of i is set, else zero
_SELECT = [
    np.where(_BYTE_BITS[:q, : 1 << q].T[:, :, None] == 1, ~np.uint64(0), np.uint64(0))
    for q in range(5)
]


def _combinations(rows: np.ndarray) -> np.ndarray:
    """The 2^p XOR combinations of p word rows; entry i combines the rows
    whose bit is set in i.  Built from tables of at most 16 entries."""
    p = rows.shape[0]
    if p <= 4:
        return np.bitwise_xor.reduce(rows & _SELECT[p], axis=1)
    hi, lo = _combinations(rows[4:]), _combinations(rows[:4])
    return (hi[:, None] ^ lo).reshape(-1, rows.shape[1])


def _strip_pivots(below: list[int], r: int) -> tuple[list[int], list[int], list[int]]:
    """Pivots of one strip from `below`, the strip patterns of rows r, r+1, ...

    Picks rows whose distinct patterns are independent, then combines them
    into pivot rows in reduced echelon form on the strip.  Returns the picked
    rows, the pivot bits and, per pivot, the mask of picked rows whose XOR is
    its pivot row.
    """
    basis: dict[int, tuple[int, int]] = {}  # lowest bit -> (pattern, picked-row mask)
    picked: list[int] = []
    for v in set(below):
        raw, combo = v, 0
        while v and (v & -v) in basis:
            bv, bc = basis[v & -v]
            v ^= bv
            combo ^= bc
        if v:
            basis[v & -v] = (v, combo | 1 << len(picked))
            picked.append(r + below.index(raw))
            if len(picked) == _STRIP:
                break
    lows = sorted(basis)
    for hi in reversed(lows):
        hv, hc = basis[hi]
        for lo in lows:
            if lo >= hi:
                break
            lv, lc = basis[lo]
            if lv & hi:
                basis[lo] = (lv ^ hv, lc ^ hc)
    bits = [lo.bit_length() - 1 for lo in lows]
    return picked, bits, [basis[lo][1] for lo in lows]


def _eliminate(data: np.ndarray, cols: int) -> list[int]:
    """Bring the word array `data` to reduced row echelon form in place and
    return the pivot columns.

    Method of Four Russians (Albrecht, Bard & Hart, ACM TOMS 2010): each strip
    of 8 columns takes its pivots from the distinct strip patterns of the rows
    below the pivots found so far.  A table of all 2^p XOR combinations of the
    p picked rows then clears the strip's pivot columns in every row with one
    indexed XOR, which zeroes the picked rows; the p pivot rows take their
    places below the earlier pivots.  Elimination stops once every row below
    the pivots is zero, so a low-rank matrix skips its remaining strips.
    """
    # the strip of columns 8s..8s+7 is byte s of a row on a little-endian host
    data_bytes = data.view(np.uint8)
    flip = 0 if sys.byteorder == "little" else 7
    pivots: list[int] = []
    r = 0
    live = data.any()
    for c0 in range(0, cols, _STRIP):
        if not live:
            break
        pat = data_bytes[:, (c0 // _STRIP) ^ flip]
        picked, bits, combos = _strip_pivots(pat[r:].tolist(), r)
        if not picked:
            continue
        p = len(picked)
        table = _combinations(data[picked])
        combos = np.array(combos, dtype=np.intp)
        # lut[v]: the picked rows whose XOR clears the pivot bits of pattern v
        lut = np.bitwise_xor.reduce(_BYTE_BITS[bits] * combos[:, None], axis=0)
        data ^= np.take(table, np.take(lut, pat), axis=0)
        # the picked rows are zero now; rows in the pivot slots move into them
        vacated = [i for i in picked if i >= r + p]
        if vacated:
            data[vacated] = data[sorted(set(range(r, r + p)).difference(picked))]
        data[r : r + p] = table[combos]
        pivots.extend(c0 + b for b in bits)
        r += p
        live = data[r:].any()
    return pivots


def rank(mat: BitMatrix) -> int:
    """Row rank over GF(2).  The input is not modified."""
    return len(_eliminate(mat._data.copy(), mat.cols))


def rref(mat: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form and the (strictly increasing) pivot columns.

    The result has the same shape as the input; zero rows sink to the bottom.
    The nonzero rows are the unique reduced echelon basis of the row space.
    """
    data = mat._data.copy()
    pivots = _eliminate(data, mat.cols)
    return BitMatrix(data, mat.cols), pivots


def kernel_basis(mat: BitMatrix) -> BitMatrix:
    """Basis of the right null space {x : mat @ x^T = 0}.

    Row count equals cols - rank(mat); row i is the unit vector of the i-th
    free column plus the pivot columns that cancel it.
    """
    return _kernel_from_rref(*rref(mat))


def _kernel_from_rref(reduced: BitMatrix, pivots: list[int]) -> BitMatrix:
    """kernel_basis of a matrix from its rref(), without a second elimination."""
    free = np.setdiff1d(np.arange(reduced.cols), pivots)
    out = np.zeros((free.size, reduced.cols), dtype=np.uint8)
    out[np.arange(free.size), free] = 1
    out[:, pivots] = reduced.head(len(pivots)).to_array()[:, free].T
    return BitMatrix.from_array(out)


# ---------------------------------------------------------------------------
# GF(2^m)

# Primitive polynomials of minimal weight, bit i = coefficient of x^i
# (bit m included).  Primitivity is re-verified at construction time.
PRIMITIVE_POLYS: dict[int, int] = {
    2: 0x7,       # x^2 + x + 1
    3: 0xB,       # x^3 + x + 1
    4: 0x13,      # x^4 + x + 1
    5: 0x25,      # x^5 + x^2 + 1
    6: 0x43,      # x^6 + x + 1
    7: 0x83,      # x^7 + x + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,     # x^9 + x^4 + 1
    10: 0x409,    # x^10 + x^3 + 1
    11: 0x805,    # x^11 + x^2 + 1
    12: 0x1053,   # x^12 + x^6 + x^4 + x + 1
    13: 0x201B,   # x^13 + x^4 + x^3 + x + 1
    14: 0x4443,   # x^14 + x^10 + x^6 + x + 1
    15: 0x8003,   # x^15 + x + 1
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}

@dataclass(frozen=True)
class GF2mField:
    """GF(2^m) in the polynomial basis; elements are ints in [0, 2^m)."""

    m: int
    poly: int = field(default=0)
    # antilog[i] = x^i and log[x^i] = i, built once with the field
    _antilog: np.ndarray = field(init=False, repr=False, compare=False)
    _log: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.m <= 16:
            raise ValueError("extension degree must be in [2, 16]")
        poly = self.poly or PRIMITIVE_POLYS[self.m]
        object.__setattr__(self, "poly", poly)
        if poly >> self.m != 1:
            raise ValueError(f"polynomial 0x{poly:x} does not have degree {self.m}")
        # the polynomial is primitive exactly when the powers of x first
        # return to 1 at step 2^m - 1
        order = (1 << self.m) - 1
        powers = [1]
        x = 1
        for _ in range(order):
            x <<= 1
            if x >> self.m:
                x ^= poly
            if x == 1:
                break
            powers.append(x)
        if x != 1 or len(powers) != order:
            raise ValueError(f"0x{poly:x} is not primitive over GF(2)")
        antilog = np.array(powers, dtype=np.int64)
        log = np.zeros(self.size, dtype=np.int64)
        log[antilog] = np.arange(order)
        antilog.flags.writeable = log.flags.writeable = False
        object.__setattr__(self, "_antilog", antilog)
        object.__setattr__(self, "_log", log)

    @property
    def size(self) -> int:
        return 1 << self.m

    def _check(self, *elements: int) -> None:
        if any(not 0 <= x < self.size for x in elements):
            raise ValueError("element out of range")

    def mul(self, a: int, b: int) -> int:
        """Carry-less product reduced modulo the primitive polynomial."""
        self._check(a, b)
        res = 0
        x = a
        while b:
            if b & 1:
                res ^= x
            b >>= 1
            x <<= 1
            if x >> self.m:
                x ^= self.poly
        return res

    def pow(self, a: int, e: int) -> int:
        """a^e for a field element a and an exponent e >= 0."""
        self._check(a)
        if e < 0:
            raise ValueError("exponent must be non-negative")
        res, base = 1, a
        while e:
            if e & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            e >>= 1
        return res

    def powers(self, exponents: Iterable[int]) -> np.ndarray:
        """x^e for every element x (columns) and each exponent e >= 1 (rows).

        Reads the log and antilog tables built with the field: one table
        lookup per entry.
        """
        exps = np.fromiter(exponents, dtype=np.int64)
        if (exps < 1).any():
            raise ValueError("exponents must be positive")
        out = np.zeros((exps.size, self.size), dtype=np.int64)
        out[:, 1:] = self._antilog[(self._log[1:] * exps[:, None]) % (self.size - 1)]
        return out
