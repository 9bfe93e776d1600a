"""Derivatives of Boolean functions and codes, and symmetry profiling.

The derivative of f in direction b is f(x) + f(x + b); it takes equal values
on the cosets {x, x+b}, so the derived code lives on the 2^(m-1) coset
representatives with the bit at position lowbit(b) equal to zero.

A monomial code is profiled by support count: differentiating x^S along e_i
gives x^(S - {i}) when i is in S and 0 otherwise, so its derivative dimension
in direction i is the number of its monomials containing x_i.  A linear code
is profiled by rank: its derivative code is built from the generator's packed
words and reduced by GF(2) elimination.

A linear code with 2k > n is profiled through its dual, which has fewer rows
to eliminate.  The kernel of the derivative D_b is Fix_b, the words constant
on every coset {x, x+b}; Fix_b is self-dual of dimension n/2, so
dim D_b(C) = n/2 - dim(C^perp & Fix_b) and dim D_b(C^perp) =
(n - k) - dim(C^perp & Fix_b).  Hence dim D_b(C) = k - n/2 + dim D_b(C^perp)
for every binary linear code C of length n and dimension k.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitmath import BitMatrix, rref
from .codes import LinearCode, Monomial, MonomialCode


@dataclass(frozen=True)
class SymmetryProfile:
    """Dimensions of the m coordinate-direction derivatives of a code.

    dims are support counts for a monomial code and derivative-code ranks for
    a linear code, found through the dual code when 2k > n.  t counts the
    directions attaining the minimal dimension k_tilde; their indices form
    target_set.
    """

    dims: tuple[int, ...]
    t: int
    k_tilde: int
    target_set: frozenset[int]


def monomial_partial(v: Monomial, i: int) -> Monomial | None:
    """Partial derivative of a monomial; None encodes the zero polynomial."""
    if not 0 <= i < v.m:
        raise ValueError("variable index out of range")
    if not (v.mask >> i) & 1:
        return None
    return Monomial(v.mask & ~(1 << i), v.m)


def monomial_derivative_dimension(code: MonomialCode, i: int) -> int:
    """Dimension of the coordinate derivative, computed symbolically.

    Differentiating by x_i kills monomials without x_i and maps the rest
    injectively to distinct monomials, so the dimension is a support count.
    """
    if not 0 <= i < code.m:
        raise ValueError("variable index out of range")
    return sum(1 for v in code.gen_set if (v >> i) & 1)


@functools.lru_cache(maxsize=None)
def _translation_index(m: int, b: int) -> np.ndarray:
    return np.arange(1 << m) ^ b


_BITS = np.arange(8)
_BYTE_BITS = (np.arange(256)[:, None] >> _BITS) & 1  # [v, r]: bit r of the byte v
# _XOR_BITS[c][v] moves bit r of the byte v to bit r ^ c
_XOR_BITS = [(_BYTE_BITS << (_BITS ^ c)).sum(axis=1).astype(np.uint8) for c in range(8)]
# _KEEP_BITS[p][v] packs, in order, the four bits r of the byte v with bit p of r clear
_KEEP_BITS = [
    (_BYTE_BITS[:, _BITS[(_BITS >> p) & 1 == 0]] << np.arange(4)).sum(axis=1).astype(np.uint8)
    for p in range(3)
]


def directional_derivative_code(code: LinearCode, b: int) -> LinearCode:
    """The length-2^(m-1) code spanned by f(x) + f(x+b) on coset representatives.

    Works on the generator's packed bytes: byte i holds coordinates 8i..8i+7,
    so x + b reads byte i ^ (b >> 3) with its bits permuted by r -> r ^ (b & 7).
    When lowbit(b) >= 3 the representatives are whole bytes; otherwise each
    byte keeps the four bits with bit lowbit(b) clear.
    """
    try:
        b = operator.index(b)
    except TypeError:
        raise ValueError(f"direction {b!r} is not an integer") from None
    m = code.m
    if not 0 < b < (1 << m):
        raise ValueError("direction must be a nonzero m-bit mask")
    p = (b & -b).bit_length() - 1
    byte_idx = np.arange(max(1, code.n // 8))
    words = code.generator.packed_bytes()[:, : byte_idx.size]
    if p >= 3:
        # representatives: the bytes with bit p - 3 of their index clear
        reps = byte_idx[((byte_idx >> (p - 3)) & 1) == 0]
        diff = words[:, reps] ^ _XOR_BITS[b & 7][words[:, reps ^ (b >> 3)]]
    else:
        full = words ^ _XOR_BITS[b & 7][words[:, byte_idx ^ (b >> 3)]]
        halves = _KEEP_BITS[p][full]
        if halves.shape[1] % 2:
            halves = np.pad(halves, ((0, 0), (0, 1)))
        diff = halves[:, 0::2] | (halves[:, 1::2] << 4)
    reduced, pivots = rref(BitMatrix.from_packed_bytes(diff, code.n // 2))
    return LinearCode(reduced.head(len(pivots)), validate=False)


def symmetry_profile(code: LinearCode | MonomialCode) -> SymmetryProfile:
    """Derivative dimensions in every coordinate direction, and their minimum.

    A monomial code's dimension in direction i is the number of its monomials
    containing x_i (see monomial_derivative_dimension), so it builds no matrix;
    a linear code's is the rank of its derivative code.  When 2k > n that rank
    is k - n/2 plus the rank of the dual code's derivative (see the module
    docstring), so elimination runs on the n - k rows of `code.dual()`.
    """
    m = code.m
    if m < 1:
        raise ValueError(f"a symmetry profile needs m >= 1, got m={m}")
    if isinstance(code, MonomialCode):
        masks = np.fromiter(code.gen_set, dtype=np.uint64, count=code.k)
        bits = (masks[:, None] >> np.arange(m, dtype=np.uint64)) & 1
        dims = tuple(bits.sum(axis=0).tolist())
    else:
        small, shift = (code.dual(), code.k - code.n // 2) if 2 * code.k > code.n else (code, 0)
        dims = tuple(shift + directional_derivative_code(small, 1 << i).k for i in range(m))
    k_tilde = min(dims)
    targets = frozenset(i for i, d in enumerate(dims) if d == k_tilde)
    return SymmetryProfile(dims, len(targets), k_tilde, targets)


def is_invariant(code: LinearCode, perm: Sequence[int] | np.ndarray) -> bool:
    """Whether permuting coordinates by `perm` preserves the code.

    The permuted evaluation of a row g is g(perm(x)) at coordinate x; row
    spaces are compared through their canonical reduced echelon forms.
    """
    perm = np.asarray(perm)
    n = code.n
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm is not a bijection on the coordinates")
    permuted = LinearCode(
        BitMatrix.from_array(code.generator_array()[:, perm]), validate=False
    )
    return code.same_code(permuted)


def derivative_subcode_dim(code: LinearCode, i: int) -> int:
    """Derivative dimension in direction e_i for translation-invariant codes.

    Requires x -> x + e_i to be an automorphism; the dimension then cannot
    exceed k/2.
    """
    m = code.m
    if not 0 <= i < m:
        raise ValueError("variable index out of range")
    if not is_invariant(code, _translation_index(m, 1 << i)):
        raise ValueError(f"x -> x + e_{i} is not an automorphism of this code")
    dim = directional_derivative_code(code, 1 << i).k
    assert 2 * dim <= code.k, "translation-invariant derivative exceeded k/2"
    return dim
