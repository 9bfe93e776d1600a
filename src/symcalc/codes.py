"""Monomial and linear codes of length 2^m.

Coordinates follow the standard bit ordering: coordinate i of an evaluation
vector is the value at the point whose j-th variable equals bit j of i
(bit 0 least significant).  Row v of the length-2^m Kronecker transform is
the evaluation vector of the monomial with exponent mask v, so the transform
maps coefficient vectors to codewords.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .bitmath import BitMatrix, BitVec, GF2mField, _kernel_from_rref, kernel_basis, rank, rref


@dataclass(frozen=True)
class Monomial:
    """A monomial over m variables; bit i of `mask` marks the presence of x_i."""

    mask: int
    m: int

    def __post_init__(self):
        check_m(self.m)
        check_integers(mask=self.mask)
        if not 0 <= self.mask < (1 << self.m):
            raise ValueError("mask out of range")

    @property
    def degree(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class MonomialCode:
    """A binary code generated by the evaluation vectors of a set of monomials."""

    m: int
    gen_set: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "gen_set", frozenset(self.gen_set))
        check_m(self.m)
        try:  # a sum of integers is an integer: one C-level pass screens out other types
            integral = isinstance(sum(self.gen_set), numbers.Integral)
        except TypeError:
            integral = False
        if not integral:
            raise ValueError("generating-set masks must be integers")
        n = 1 << self.m
        if self.gen_set and not 0 <= min(self.gen_set) <= max(self.gen_set) < n:
            raise ValueError("generating-set mask out of range")

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return len(self.gen_set)

    def sorted_masks(self) -> list[int]:
        return sorted(self.gen_set)


class LinearCode:
    """A binary linear code given by a full-row-rank generator matrix."""

    # _affine_invariant: the constructor knows the code is invariant under
    # x -> a*x + b of GF(2^m) with x at coordinate x (ebch_code sets it)
    __slots__ = ("n", "generator", "_canonical", "_array", "_dual", "_affine_invariant")

    def __init__(self, generator: BitMatrix, validate: bool = True):
        if validate and rank(generator) != generator.rows:
            raise ValueError("generator rows are linearly dependent")
        self.n = generator.cols
        self.generator = generator
        self._canonical = None
        self._array = None
        self._dual = None
        self._affine_invariant = False

    @classmethod
    def from_spanning_rows(cls, rows: Iterable[int | BitVec], n: int) -> "LinearCode":
        """Reduce an arbitrary spanning set to a canonical full-rank generator."""
        reduced, pivots = rref(BitMatrix.from_rows(list(rows), n))
        return cls(reduced.head(len(pivots)), validate=False)

    @property
    def k(self) -> int:
        return self.generator.rows

    @property
    def m(self) -> int:
        m = self.n.bit_length() - 1
        if 1 << m != self.n:
            raise ValueError("code length is not a power of two")
        return m

    def generator_array(self):
        if self._array is None:
            self._array = self.generator.to_array()
        return self._array

    def canonical(self) -> BitMatrix:
        """RREF of the generator; equal row spaces give equal canonicals."""
        if self._canonical is None:
            reduced, pivots = rref(self.generator)
            self._canonical = reduced.head(len(pivots))
        return self._canonical

    def dual(self) -> "LinearCode":
        """The dual code {y : G y^T = 0}, of dimension n - k.

        Computed once by kernel_basis, unless the constructor of the code
        seeded it (ebch_code does, from its parity check).
        """
        if self._dual is None:
            self._dual = LinearCode(kernel_basis(self.generator), validate=False)
        return self._dual

    def same_code(self, other: "LinearCode") -> bool:
        return self.n == other.n and self.canonical() == other.canonical()

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k})"


# byte masks that pick, in a little-endian word of eight 0/1 bytes, the bytes
# whose index has bit `step` clear
_WORD_STEPS = ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0x00000000FFFFFFFF))


def kronecker_transform_array(bits: np.ndarray) -> np.ndarray:
    """The self-inverse length-n Kronecker (butterfly) transform over GF(2)
    along the last axis of an array of 0/1 entries, n = 2^m.

    Returns a new uint8 array; the transform maps coefficient vectors to
    codewords and, being self-inverse, codewords back to coefficients.  Each
    level XORs the lower half of a pair block into the upper half, n log n
    bit operations in total; steps below eight entries run eight bytes at a
    time in 64-bit words.
    """
    out = np.array(bits, dtype=np.uint8, order="C")
    n = out.shape[-1]
    units, width = out, 1
    if n % 8 == 0:
        units, width = out.view("<u8"), 8
        for step, mask in _WORD_STEPS:
            units ^= (units & np.uint64(mask)) << np.uint64(8 * step)
    step = width
    while step < n:
        pairs = units.reshape(-1, 2, step // width)
        pairs[:, 1] ^= pairs[:, 0]
        step *= 2
    return out


def encode_batch(code: MonomialCode, info: np.ndarray) -> np.ndarray:
    """Encode (B, k) info bits, one per generating mask in ascending order,
    to (B, n) uint8 codewords."""
    u = np.zeros((info.shape[0], code.n), dtype=np.uint8)
    u[:, code.sorted_masks()] = info
    return kronecker_transform_array(u)


def rm_code(r: int, m: int) -> MonomialCode:
    """Reed-Muller code of order r: all monomials of degree at most r."""
    check_m(m)
    if not isinstance(r, numbers.Integral) or not 0 <= r <= m:
        raise ValueError("order must be an integer with 0 <= r <= m")
    gens = frozenset(v for v in range(1 << m) if v.bit_count() <= r)
    return MonomialCode(m, gens)


def monomial_min_distance(code: MonomialCode) -> int:
    """Minimum distance of a monomial code: 2^(m - max degree)."""
    if not code.gen_set:
        raise ValueError("empty generating set")
    max_deg = max(v.bit_count() for v in code.gen_set)
    return 1 << (code.m - max_deg)


def monomial_to_linear(code: MonomialCode) -> LinearCode:
    """Generator matrix whose rows evaluate the generating monomials (ascending)."""
    # row i encodes the i-th unit coefficient vector
    evals = encode_batch(code, np.eye(code.k, dtype=np.uint8))
    # distinct monomials have independent evaluations
    return LinearCode(BitMatrix.from_array(evals), validate=False)


# ebch_code builds arrays of about n * n cells: the parity check, the power
# table and the dense uint8 kernel.  Above this bound (m > 11) it refuses.
EBCH_MAX_CELLS = 1 << 22


def ebch_code(fld: GF2mField, delta: int) -> LinearCode:
    """Extended BCH code of length 2^m from a design-distance parity check.

    The unextended check has a row of j-th powers of each nonzero field
    element for j = 1..delta-2, expanded over the polynomial basis; the
    extension adds the zero element's coordinate and an overall parity row.
    Coordinate x carries the field element whose polynomial-basis mask is x,
    so the ambient translations x -> x + b act as field translations and the
    affine symmetry of the code is visible to the derivative calculus.

    Squaring is GF(2)-linear, so the bits of x^(2j) are combinations of the
    bits of x^j: only the exponents j that are the least of their cyclotomic
    coset mod 2^m - 1 are kept, and they span the same rows.  One elimination
    of that check gives both the generator (its kernel) and the dual code
    (its nonzero reduced rows), which seeds `dual()`.

    A codeword c has sum_x c_x x^j = 0 for j = 0..delta-2 (with 0^0 = 1), and
    x -> a*x + b (a != 0) turns x^j into a combination of x^0..x^j, so it maps
    the code onto itself (Kasami, Lin & Peterson).  The code is marked
    affine-invariant, which lets `calculus.symmetry_profile` eliminate one
    direction instead of m.
    """
    m = fld.m
    n = 1 << m
    if not 2 <= delta <= n - 1:
        raise ValueError(f"design distance must be in [2, {n - 1}]")
    if n * n > EBCH_MAX_CELLS:
        raise ValueError(f"ebch_code needs about n*n = {n * n} cells, above {EBCH_MAX_CELLS}")
    order = n - 1
    leaders = [j for j in range(1, delta - 1) if all((j << s) % order >= j for s in range(1, m))]
    # row 0 is the overall parity; row i * m + b + 1 holds bit b of x^j over
    # all x, for the i-th leader j (0^j = 0 at the extension)
    h_ext = np.ones((1 + len(leaders) * m, n), dtype=np.uint8)
    bits = h_ext[1:].reshape(len(leaders), m, n)
    powers = fld.powers(leaders)
    for b in range(m):
        bits[:, b] = (powers >> b) & 1
    reduced, pivots = rref(BitMatrix.from_array(h_ext))
    code = LinearCode(_kernel_from_rref(reduced, pivots), validate=False)
    code._dual = LinearCode(reduced.head(len(pivots)), validate=False)
    code._affine_invariant = True
    return code


# ---------------------------------------------------------------------------
# Code file format: a one-line header `m=<int> type=monomial|linear` followed
# by one lowercase hex payload per line (bit 0 of the value = coordinate 0;
# for monomial codes the value is the exponent mask).  m is bounded by the
# largest field GF2mField supports.

MAX_M = 16
# ASCII only: int() also takes non-ASCII digits, signs, "0x" and "_"
_DECIMAL = re.compile(r"[0-9]+")
_HEX = re.compile(r"[0-9a-f]+")


def check_integers(**values) -> None:
    """Raise ValueError naming the first argument that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name}={value!r} is not an integer")


def check_m(m: int, low: int = 0, high: int = MAX_M) -> None:
    """Raise ValueError unless m is an integer in low..high; call it before
    allocating anything of size 2^m."""
    check_integers(m=m)
    if not low <= m <= high:
        raise ValueError(f"m={m} is outside {low}..{high}")


def check_monomial(code) -> None:
    """Raise ValueError unless code is a MonomialCode: the SC family, the
    simulator and the layer-order ranking address positions by exponent mask."""
    if not isinstance(code, MonomialCode):
        raise ValueError(f"{type(code).__name__} is not a monomial code")


def save_code(code: MonomialCode | LinearCode, path: str | Path) -> None:
    lines = []
    if isinstance(code, MonomialCode):
        lines.append(f"m={code.m} type=monomial")
        lines.extend(format(v, "x") for v in code.sorted_masks())
    else:
        lines.append(f"m={code.m} type=linear")
        lines.extend(format(r, "x") for r in code.generator.row_ints())
    Path(path).write_text("\n".join(lines) + "\n")


def load_code(path: str | Path) -> MonomialCode | LinearCode:
    """Read a code file; a malformed header or payload raises ValueError
    before anything of size 2^m is allocated."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError("empty code file")
    header = dict(part.partition("=")[::2] for part in text[0].split())
    for key in ("m", "type"):
        if key not in header:
            raise ValueError(f"code file header has no {key}= field")
    if not _DECIMAL.fullmatch(header["m"]):
        raise ValueError(f"header m={header['m']!r} is not a decimal integer")
    m = int(header["m"])
    check_m(m, low=1)
    kind = header["type"]
    if kind not in ("monomial", "linear"):
        raise ValueError(f"unknown code type {kind!r}")
    rows = [line for line in text[1:] if line.strip()]
    for row in rows:
        if not _HEX.fullmatch(row):
            raise ValueError(f"row {row!r} is not a lowercase hex number")
    values = [int(row, 16) for row in rows]
    if kind == "monomial":
        return MonomialCode(m, frozenset(values))
    if any(v >> (1 << m) for v in values):
        raise ValueError(f"row payload out of range for length {1 << m}")
    return LinearCode(BitMatrix.from_rows(values, 1 << m))
