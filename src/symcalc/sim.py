"""Seeded Monte Carlo frame-error-rate estimation over BEC and BI-AWGN.

Every frame draws from its own counter-based substream, Philox keyed by the
uint64 pair (seed mod 2^64, frame index) with a zero counter: the info bits
come first, then the channel draws.  A frame's outcome therefore does not
depend on which other frames are drawn or decoded with it.  A batch builds
one Philox and re-keys it per frame through its state, which yields the same
stream as a fresh generator.  Info bits are the top bits of the stream's
bytes, read from raw 64-bit words: the bits `Generator.integers(0, 2,
dtype=uint8)` returns.  The channel arithmetic then runs once over the whole
batch.  Error counting compares codewords, and a decoding error whose metric
ties the transmitted codeword is reported separately as a tie.

`simulate_fer` tests its error limit every *step* of frames
(`check_working_set`), but draws and decodes up to a *span* of whole steps at
a time, as many as fit in `decode.GROUP_LLRS` LLRs and no more than the
errors still missing could fill.  The span only changes how many frames
share a decode call: counts and stopping points are those of a step-by-step
run, and no frame past an error stop is decoded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bitmath import BitVec
from .codes import MonomialCode, check_integers, check_monomial, encode_batch
from . import decode as _dec


@dataclass(frozen=True)
class Bec:
    """Binary erasure channel; erased coordinates carry LLR 0."""

    eps: float

    def __post_init__(self):
        if not 0 <= self.eps <= 1:
            raise ValueError("erasure probability must lie in [0, 1]")

    @property
    def parameter(self) -> float:
        return self.eps


@dataclass(frozen=True)
class BiAwgn:
    """Binary-input AWGN channel with unit-energy BPSK at a given Eb/N0."""

    ebn0_db: float

    def __post_init__(self):
        check_ebn0(self.ebn0_db)

    @property
    def parameter(self) -> float:
        return self.ebn0_db


ChannelModel = Bec | BiAwgn


# keeps 10^(Eb/N0 / 10) and the LLR scale 2 / sigma^2 finite
EBN0_DB_LIMIT = 300.0


def check_ebn0(ebn0_db: float) -> None:
    """Raise ValueError unless Eb/N0 is a dB value within +-EBN0_DB_LIMIT."""
    if not -EBN0_DB_LIMIT <= ebn0_db <= EBN0_DB_LIMIT:
        raise ValueError(f"Eb/N0 of {ebn0_db} dB is outside +-{EBN0_DB_LIMIT:g} dB")


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for unit-energy BPSK: sigma^2 = 1/(2 R Eb/N0)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def philox_key(seed: int, index: int) -> np.ndarray:
    """The Philox key of substream `index` of a seed: uint64 (seed mod 2^64, index).

    Built as a uint64 array because numpy converts a list holding a value of
    2^63 or more through float64, which merges distinct seeds.
    """
    return np.array([int(seed) & (2**64 - 1), index], dtype=np.uint64)


def frame_rng(seed: int, frame: int) -> np.random.Generator:
    """The per-frame substream: Philox keyed by (seed, frame)."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, frame)))


def _channel_sampler(channel: ChannelModel, rng: np.random.Generator, rate: float | None):
    """The generator method that draws a channel's per-coordinate randomness:
    uniforms for the BEC, standard normals for BI-AWGN."""
    if isinstance(channel, Bec):
        return rng.random
    if isinstance(channel, BiAwgn):
        if rate is None:
            raise ValueError("BI-AWGN needs the code rate to fix the noise level")
        return rng.standard_normal
    raise TypeError(f"unsupported channel {channel!r}")


def _channel_llrs(channel: ChannelModel, bits: np.ndarray, draws: np.ndarray, rate: float | None) -> np.ndarray:
    """LLRs of BPSK-mapped bits (0 -> +1, 1 -> -1) given the channel's draws
    of the same shape; elementwise, so a batch gives every frame's own bits."""
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    if isinstance(channel, Bec):
        return np.where(draws < channel.eps, 0.0, symbols * np.inf)
    sigma = noise_sigma(channel.ebn0_db, rate)
    y = symbols + sigma * draws
    return 2.0 * y / sigma**2


def transmit(
    channel: ChannelModel,
    codeword: BitVec | np.ndarray,
    rng: np.random.Generator,
    rate: float | None = None,
) -> np.ndarray:
    """BPSK-map a codeword (0 -> +1, 1 -> -1) and sample per-coordinate LLRs."""
    bits = codeword.to_array() if isinstance(codeword, BitVec) else np.asarray(codeword)
    draws = _channel_sampler(channel, rng, rate)(bits.shape[0])
    return _channel_llrs(channel, bits, draws, rate)


def draw_frames(
    code: MonomialCode, channel: ChannelModel, seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Info bits (B, k), codewords (B, n) and LLRs (B, n) of frames lo..hi-1.

    Bit for bit what `frame_rng(seed, f)`, `integers(0, 2, size=k,
    dtype=uint8)` and `transmit` at the code rate give for each frame f.
    """
    check_monomial(code)
    check_integers(seed=seed, lo=lo, hi=hi)
    lo, hi = int(lo), int(hi)  # numpy integers would wrap in (hi - lo) * n
    if not 0 <= lo <= hi <= 2**64:
        raise ValueError(f"frame range {lo}..{hi} is not within 0..2^64")
    if (hi - lo) * code.n > _dec.BATCH_LLR_CELLS:
        raise ValueError(
            f"frame range {lo}..{hi} holds {(hi - lo) * code.n} LLRs, over the limit {_dec.BATCH_LLR_CELLS}"
        )
    bg = np.random.Philox(key=philox_key(seed, 0))
    rng = np.random.Generator(bg)
    state = bg.state  # zero counter, empty buffers: a fresh generator's state
    key = state["state"]["key"]
    rate = code.k / code.n
    draw = _channel_sampler(channel, rng, rate)
    words = -(-code.k // 8)
    raw = np.zeros((hi - lo, words), dtype=np.uint64)
    draws = np.empty((hi - lo, code.n), dtype=np.float64)
    for i in range(hi - lo):
        key[1] = lo + i
        bg.state = state
        raw[i] = bg.random_raw(words)
        draw(out=draws[i])
    # integers(0, 2, dtype=uint8) maps each stream byte, low byte of each
    # word first, to its top bit
    info = raw.astype("<u8", copy=False).view(np.uint8)[:, : code.k] >> 7
    sent = encode_batch(code, info)
    return info, sent, _channel_llrs(channel, sent, draws, rate)


@dataclass(frozen=True)
class SimConfig:
    max_errors: int = 1000
    max_frames: int = 1_000_000
    seed: int = 0
    decoder: str = "sc"  # sc | scl | perm | ml
    list_size: int = 8
    perm_count: int = 8
    perms: tuple[tuple[int, ...], ...] | None = None
    min_dist: int = 5

    def __post_init__(self):
        check_integers(max_errors=self.max_errors, max_frames=self.max_frames, seed=self.seed,
                       list_size=self.list_size, perm_count=self.perm_count, min_dist=self.min_dist)
        if min(self.max_errors, self.max_frames, self.list_size, self.perm_count) < 1:
            raise ValueError("limits, list size and permutation count must be at least 1")
        if self.decoder not in ("sc", "scl", "perm", "ml"):
            raise ValueError(f"unknown decoder {self.decoder!r}")

    def label(self) -> str:
        if self.decoder == "scl":
            return str(self.list_size)
        if self.decoder == "perm":
            return str(len(self.perms) if self.perms is not None else self.perm_count)
        return ""


# the largest step: max_errors is tested every step of frames, so this fixes
# where an error-limited run stops.  A decode call takes up to a span of whole
# steps (`_span`), which does not move the stops
FRAME_BATCH = 256


def _paths(code: MonomialCode, config: SimConfig) -> int:
    """The list paths or layer orders a frame is decoded under."""
    if config.decoder == "scl":
        return min(config.list_size, 1 << code.k)
    if config.decoder == "perm":
        return config.perm_count if config.perms is None else len(config.perms)
    return 1


def check_working_set(code: MonomialCode, config: SimConfig, layer_perm: Sequence[int] | None = None) -> int:
    """Return the step: the frames between two tests of the error limit, at
    most FRAME_BATCH and max_frames and within decode.BATCH_LLR_CELLS LLRs
    of decoding (`_span` then groups whole steps per decode call).  Raise
    ValueError when one frame alone is over that limit, ML would enumerate
    more than 2^ML_MAX_DIMENSION codewords, a layer order is given to a
    decoder that does not read it (`layer_perm` to perm or ml,
    `config.perms` to any but perm), or a given layer order is empty, not a
    permutation of range(m) or has a non-integer entry, or when code is not
    a MonomialCode; allocates nothing."""
    check_monomial(code)
    if layer_perm is not None and config.decoder in ("perm", "ml"):
        raise ValueError(f"the {config.decoder} decoder takes no single layer order")
    if config.perms is not None and config.decoder != "perm":
        raise ValueError(f"the {config.decoder} decoder takes no permutation list")
    _dec.resolve_layer_order(code.m, layer_perm)
    if config.decoder == "perm" and config.perms is not None:
        if not config.perms:
            raise ValueError("permutation list is empty")
        for perm in config.perms:
            _dec.resolve_layer_order(code.m, perm)
    paths = _paths(code, config)
    _dec.check_working_set(code, 1, paths, ml=config.decoder == "ml")
    return min(FRAME_BATCH, config.max_frames, _dec.BATCH_LLR_CELLS // (code.n * paths))


def _span(code: MonomialCode, config: SimConfig, step: int) -> int:
    """The most frames per decode call: the most whole steps within
    decode.GROUP_LLRS LLRs of decoding, and at least one step."""
    return step * max(1, _dec.GROUP_LLRS // (step * code.n * _paths(code, config)))


@dataclass(frozen=True)
class SimResult:
    frames: int
    errors: int
    fer: float
    ml_certified: float
    ties: int
    seed: int
    stop_reason: str  # "max_errors" | "max_frames"
    wall_seconds: float
    wilson_lo: float
    wilson_hi: float


def wilson_interval(errors: int, frames: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for the frame-error probability."""
    if frames == 0:
        return 0.0, 1.0
    phat = errors / frames
    denom = 1.0 + z * z / frames
    center = (phat + z * z / (2 * frames)) / denom
    half = z * math.sqrt(phat * (1 - phat) / frames + z * z / (4 * frames * frames)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# cells of the float64 sign array _batch_correlations builds at a time: 8 MB,
# one block for a 256-frame SCL-256 batch at n = 16, which perfbench's
# small-bec workload decoded 11% (2^16 cells) and 16% (2^18) slower in blocks
_CORRELATION_CHUNK_CELLS = 1 << 20


def _batch_correlations(codewords: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Correlations of per-frame candidate lists (B, P, n) against (B, n) LLRs.

    The BPSK signs (bit 0 -> +1, bit 1 -> -1) are built for a block of frames
    and candidates at a time, at most _CORRELATION_CHUNK_CELLS cells; each
    correlation is its own sum over n, so the result does not depend on the
    blocks.
    """
    lam = np.clip(llrs, -_dec.LLR_CLAMP, _dec.LLR_CLAMP)
    frames, paths, n = codewords.shape
    out = np.empty((frames, paths))
    step_p = max(1, min(paths, _CORRELATION_CHUNK_CELLS // n))
    step_b = max(1, _CORRELATION_CHUNK_CELLS // (step_p * n))
    for lo in range(0, frames, step_b):
        for p in range(0, paths, step_p):
            signs = codewords[lo : lo + step_b, p : p + step_p] * -2.0
            signs += 1.0
            out[lo : lo + step_b, p : p + step_p] = np.einsum("bpn,bn->bp", signs, lam[lo : lo + step_b])
    return out


def _closest(codewords: np.ndarray, llrs: np.ndarray) -> np.ndarray:
    """Each frame's best-correlated candidate (B, n) out of (B, P, n); the
    first candidate wins ties."""
    best = np.argmax(_batch_correlations(codewords, llrs), axis=1)
    return np.take_along_axis(codewords, best[:, None, None], axis=1)[:, 0, :]


def _decode_batch(code, llrs, config: SimConfig, layer_perm):
    """Returns the decoded codewords (B, n) for the configured decoder."""
    if config.decoder == "sc":
        return _dec.sc_decode_orders(code, llrs, [layer_perm])[0][:, 0]
    if config.decoder == "scl":
        cw, _ = _dec._scl_decode_lists(code, llrs, config.list_size, layer_perm)
        return _closest(cw, llrs)
    if config.decoder == "perm":
        cw, _ = _dec.sc_decode_orders(code, llrs, config.perms)
        return _closest(cw, llrs)
    return _dec.ml_decode_batch(code, llrs)[0]  # SimConfig admits no other decoder


@dataclass
class _BatchCounts:
    frames: int = 0
    errors: int = 0
    ties: int = 0
    certified: int = 0


def _run_batch(code, channel, config: SimConfig, layer_perm, lo: int, hi: int) -> _BatchCounts:
    _, sent, llrs = draw_frames(code, channel, config.seed, lo, hi)
    decoded = _decode_batch(code, llrs, config, layer_perm)
    errs = (decoded != sent).any(axis=1)
    corr_dec, corr_sent = _batch_correlations(np.stack((decoded, sent), axis=1), llrs).T
    out = _BatchCounts(frames=hi - lo)
    out.errors = int(errs.sum())
    out.ties = int((errs & (corr_dec == corr_sent)).sum())
    out.certified = int((corr_dec >= corr_sent).sum())
    return out


def _resolve_perms(code, channel, config: SimConfig, layer_perm) -> tuple[SimConfig, int]:
    """The config with any layer orders it asks for selected, and its step
    for the orders it decodes; checked before any selection."""
    step = check_working_set(code, config, layer_perm)
    if config.decoder != "perm" or config.perms is not None:
        return config, step
    from .channelconstruct import select_permutations

    sel = select_permutations(code, config.perm_count, channel, min_dist=config.min_dist, seed=config.seed)
    config = replace(config, perms=sel.perms)
    return config, check_working_set(code, config, layer_perm)


def simulate_fer(
    code: MonomialCode,
    channel: ChannelModel,
    config: SimConfig,
    layer_perm: Sequence[int] | None = None,
) -> SimResult:
    """Estimate the frame error rate until an error or frame budget is hit.

    The error limit is tested every step of frames (`check_working_set`).
    Each decode call takes a span of whole steps (`_span`), cut to the steps
    the errors still missing could fill, so the limit can only be reached
    at a call's last step and no frame past a stop is decoded.  Per-frame
    substreams make every count independent of the span.
    """
    start = time.perf_counter()
    config, step = _resolve_perms(code, channel, config, layer_perm)
    span = _span(code, config, step)
    totals = _BatchCounts()

    stop_reason = "max_frames"
    lo = 0
    while lo < config.max_frames:
        missing_steps = -(-(config.max_errors - totals.errors) // step)
        hi = min(lo + min(span, step * missing_steps), config.max_frames)
        counts = _run_batch(code, channel, config, layer_perm, lo, hi)
        totals.frames += counts.frames
        totals.errors += counts.errors
        totals.ties += counts.ties
        totals.certified += counts.certified
        if totals.errors >= config.max_errors:
            stop_reason = "max_errors"
            break
        lo = hi

    wilson_lo, wilson_hi = wilson_interval(totals.errors, totals.frames)
    return SimResult(
        frames=totals.frames,
        errors=totals.errors,
        fer=totals.errors / totals.frames if totals.frames else 0.0,
        ml_certified=totals.certified / totals.frames if totals.frames else 0.0,
        ties=totals.ties,
        seed=config.seed,
        stop_reason=stop_reason,
        wall_seconds=time.perf_counter() - start,
        wilson_lo=wilson_lo,
        wilson_hi=wilson_hi,
    )


@dataclass(frozen=True)
class CurvePoint:
    channel: ChannelModel
    decoder: str
    size_label: str
    result: SimResult


def fer_curve(
    code: MonomialCode,
    channels: Sequence[ChannelModel],
    config: SimConfig,
    layer_perm: Sequence[int] | None = None,
) -> list[CurvePoint]:
    """One simulation per channel grid point."""
    if not channels:
        raise ValueError("channel grid is empty")
    points = []
    for ch in channels:
        cfg, _ = _resolve_perms(code, ch, config, layer_perm)
        res = simulate_fer(code, ch, cfg, layer_perm)
        points.append(CurvePoint(ch, cfg.decoder, cfg.label(), res))
    return points
