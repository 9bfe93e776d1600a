"""Derivatives of Boolean functions and codes, and symmetry profiling.

The derivative of f in direction b is f(x) + f(x + b); it takes equal values
on the cosets {x, x+b}, so the derived code lives on the 2^(m-1) coset
representatives with the bit at position lowbit(b) equal to zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitmath import BitMatrix, rref
from .codes import LinearCode, Monomial, MonomialCode, monomial_to_linear


@dataclass(frozen=True)
class SymmetryProfile:
    """Dimensions of the m coordinate-direction derivatives of a code.

    t counts the directions attaining the minimal dimension k_tilde; their
    indices form target_set.
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


@functools.lru_cache(maxsize=None)
def _coset_representatives(m: int, p: int) -> np.ndarray:
    x = np.arange(1 << m)
    return x[((x >> p) & 1) == 0]


def directional_derivative_code(code: LinearCode, b: int) -> LinearCode:
    """The length-2^(m-1) code spanned by f(x) + f(x+b) on coset representatives."""
    m = code.m
    if not 0 < b < (1 << m):
        raise ValueError("direction must be a nonzero m-bit mask")
    # coset representatives x (bit p clear) and their partners x + b
    reps = _coset_representatives(m, (b & -b).bit_length() - 1)
    arr = code.generator_array()
    reduced, pivots = rref(BitMatrix.from_array(arr[:, reps] ^ arr[:, reps ^ b]))
    return LinearCode(reduced.head(len(pivots)), validate=False)


def symmetry_profile(code: LinearCode | MonomialCode) -> SymmetryProfile:
    """Derivative dimensions in every coordinate direction, and their minimum."""
    if isinstance(code, MonomialCode):
        code = monomial_to_linear(code)
    m = code.m
    dims = tuple(directional_derivative_code(code, 1 << i).k for i in range(m))
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
