"""Independent output checks for the benchmark.

Nothing here calls into symcalc except through arguments the caller passes.
Frames are regenerated from the documented per-frame Philox contract (key
``(seed, frame)``, info bits first, then channel draws), encoded with this
file's own Kronecker butterfly and scored with this file's own correlation.
Every check raises ``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import math

import numpy as np

LLR_CLAMP = 1e30  # the decoders' documented stand-in for an infinite LLR


class CheckFailed(AssertionError):
    """A program output disagreed with an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# codes and frames


def butterfly(bits: np.ndarray) -> np.ndarray:
    """The self-inverse length-2^m Kronecker transform along the last axis."""
    out = np.array(bits, dtype=np.uint8, copy=True)
    n = out.shape[-1]
    step = 1
    while step < n:
        view = out.reshape(out.shape[:-1] + (n // (2 * step), 2, step))
        view[..., 1, :] ^= view[..., 0, :]
        step *= 2
    return out


def generator_rows(m: int, masks) -> np.ndarray:
    """(k, n) evaluation vectors of the sorted masks, one butterfly each."""
    masks = sorted(masks)
    u = np.zeros((len(masks), 1 << m), dtype=np.uint8)
    u[np.arange(len(masks)), masks] = 1
    return butterfly(u)


def awgn_sigma(ebn0_db: float, rate: float) -> float:
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def regenerate_frames(m: int, masks, channel: tuple[str, float], seed: int, lo: int, hi: int):
    """Info-bit codewords and channel LLRs of frames lo..hi-1.

    channel is ("awgn", Eb/N0 in dB) or ("bec", erasure probability).
    """
    masks = sorted(masks)
    n, k = 1 << m, len(masks)
    sent = np.zeros((hi - lo, n), dtype=np.uint8)
    llrs = np.empty((hi - lo, n), dtype=np.float64)
    kind, param = channel
    for i, f in enumerate(range(lo, hi)):
        rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), f]))
        u = np.zeros(n, dtype=np.uint8)
        u[masks] = rng.integers(0, 2, size=k, dtype=np.uint8)
        sent[i] = butterfly(u)
        symbols = 1.0 - 2.0 * sent[i].astype(np.float64)
        if kind == "bec":
            erased = rng.random(n) < param
            llrs[i] = np.where(erased, 0.0, symbols * np.inf)
        else:
            sigma = awgn_sigma(param, k / n)
            y = symbols + sigma * rng.standard_normal(n)
            llrs[i] = 2.0 * y / sigma**2
    return sent, llrs


def correlation(bits: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Correlation of (..., n) codewords with (..., n) LLRs; higher is closer."""
    lam = np.clip(llrs, -LLR_CLAMP, LLR_CLAMP)
    return ((1.0 - 2.0 * bits.astype(np.float64)) * lam).sum(axis=-1)


def pick_best(candidates: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """The first candidate of highest correlation, per frame: (B, P, n) -> (B, n)."""
    corr = correlation(candidates, llrs[:, None, :])
    return candidates[np.arange(candidates.shape[0]), np.argmax(corr, axis=1)]


def score(decoded: np.ndarray, sent: np.ndarray, llrs: np.ndarray) -> dict:
    """Frame counts as the README's CSV schema defines them."""
    errs = (decoded != sent).any(axis=1)
    c_dec = correlation(decoded, llrs)
    c_sent = correlation(sent, llrs)
    return {
        "frames": int(decoded.shape[0]),
        "errors": int(errs.sum()),
        "ties": int((errs & (c_dec == c_sent)).sum()),
        "certified": int((c_dec >= c_sent).sum()),
    }


def add_counts(a: dict, b: dict) -> dict:
    return {key: a.get(key, 0) + b[key] for key in b}


def check_counts(label: str, mine: dict, result) -> None:
    """simulate_fer's frames, errors, ties and certified against a rescoring."""
    theirs = {
        "frames": result.frames,
        "errors": result.errors,
        "ties": result.ties,
        "certified": round(result.ml_certified * result.frames),
    }
    require(theirs == mine, f"{label}: simulate_fer reports {theirs}, rescoring gives {mine}")


def check_supported(label: str, m: int, masks, codewords: np.ndarray) -> None:
    """Every codeword's butterfly transform is supported on the generating set."""
    allowed = np.zeros(1 << m, dtype=bool)
    allowed[sorted(masks)] = True
    coeffs = butterfly(codewords.reshape(-1, 1 << m))
    bad = coeffs[:, ~allowed].any(axis=1)
    require(not bad.any(), f"{label}: {int(bad.sum())} outputs are not codewords")


def check_dominates(label: str, chosen: np.ndarray, baseline: np.ndarray, llrs: np.ndarray) -> None:
    """The chosen codewords correlate at least as well as the baseline's."""
    worse = correlation(chosen, llrs) < correlation(baseline, llrs)
    require(not worse.any(), f"{label}: {int(worse.sum())} frames chose a worse candidate")


# ---------------------------------------------------------------------------
# scalar successive cancellation


def _check_node(a, b):
    base = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return base + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def sc_reference(m: int, masks, llr: np.ndarray, layer_perm=None) -> tuple[np.ndarray, int]:
    """One frame of SC decoding written from the decoder's stated semantics.

    The split order is layer_perm[m-1] first; splitting variable v pairs the
    points with x_v = 0 and x_v = 1, resolves the XOR of the halves (the
    monomials that contain x_v) first and then the x_v = 0 half, whose
    monomials are those without x_v.  Returns the codeword and the number of
    information decisions taken on a zero LLR.
    """
    order = list(layer_perm) if layer_perm is not None else list(range(m))
    order.reverse()
    gens = set(masks)
    lam = np.clip(np.asarray(llr, dtype=np.float64), -LLR_CLAMP, LLR_CLAMP)
    ties = 0

    def rec(points: np.ndarray, vals: np.ndarray, depth: int, prefix: int) -> np.ndarray:
        nonlocal ties
        if depth == m:
            if prefix in gens:
                ties += int(vals[0] == 0)
                return np.array([vals[0] < 0], dtype=np.uint8)
            return np.zeros(1, dtype=np.uint8)
        bit = 1 << order[depth]
        low = (points & bit) == 0
        zero, one = vals[low], vals[~low]
        pts0 = points[low]
        xor_part = rec(pts0, _check_node(one, zero), depth + 1, prefix | bit)
        half0 = rec(pts0, zero + (1.0 - 2.0 * xor_part) * one, depth + 1, prefix)
        out = np.empty(points.size, dtype=np.uint8)
        out[low] = half0
        out[~low] = xor_part ^ half0
        return out

    cw = rec(np.arange(1 << m), lam, 0, 0)
    return cw, ties


def check_sc_reference(label, m, masks, llrs, codewords, ties, layer_perm=None) -> None:
    for i in range(llrs.shape[0]):
        ref, ref_ties = sc_reference(m, masks, llrs[i], layer_perm)
        require(np.array_equal(ref, codewords[i]), f"{label}: frame {i} differs from the scalar SC reference")
        require(ref_ties == int(ties[i]), f"{label}: frame {i} tie count {int(ties[i])}, reference {ref_ties}")


# ---------------------------------------------------------------------------
# GF(2) rank and the erasure-channel property


def gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix, by elimination on Python ints."""
    basis: dict[int, int] = {}
    for row in rows:
        v = int.from_bytes(np.packbits(row.astype(np.uint8), bitorder="little").tobytes(), "little")
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def check_erasure_recovery(label, gen: np.ndarray, llrs, sent, decoded) -> int:
    """No frame whose unerased columns have full rank k is decoded wrongly.

    Returns the number of full-rank frames seen.
    """
    k = gen.shape[0]
    full = 0
    for i in range(llrs.shape[0]):
        if gf2_rank(gen[:, llrs[i] != 0]) == k:
            full += 1
            require(np.array_equal(decoded[i], sent[i]), f"{label}: frame {i} is recoverable but decoded wrongly")
    return full


# ---------------------------------------------------------------------------
# algebra properties


def check_grid_code(m: int, t: int, k: int, masks, prof, lb: int) -> None:
    label = f"m={m} t={t} k={k}"
    require(len(masks) == k, f"{label}: code has k={len(masks)}")
    dims = tuple(sum(1 for v in masks if (v >> i) & 1) for i in range(m))
    require(tuple(prof.dims) == dims, f"{label}: profile dims {prof.dims}, mask counts {dims}")
    require(prof.k_tilde == lb, f"{label}: rank k_tilde {prof.k_tilde}, closed-form bound {lb}")
    require(prof.t >= t, f"{label}: profile t={prof.t} below the requested {t}")


def check_ebch_code(m: int, delta: int, k: int, prof, full_lb: int) -> None:
    label = f"eBCH m={m} delta={delta}"
    require(prof.t == m, f"{label}: profile t={prof.t}, expected {m}")
    require(prof.k_tilde >= full_lb, f"{label}: k_tilde {prof.k_tilde} below the fully symmetric bound {full_lb} (k={k})")
