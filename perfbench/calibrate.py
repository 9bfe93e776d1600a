"""A fixed calibration kernel that tracks the speed of the machine.

The benchmark shares its cores with other work, and the speed it gets drifts
by tens of percent over minutes.  Each run times this kernel between blocks
of operations and scales a block's seconds by REFERENCE_S over the mean of
the samples on either side, so that the reported figures are those of a
machine on which the kernel takes REFERENCE_S seconds.  The kernel uses none
of the program's code, only the same kinds of numpy calls as the workloads:
small elementwise float arithmetic, uint64 row XORs, column gathers and bit
packing of a 512 x 512 bit matrix, and per-frame Philox generators.  So it
slows down with the program when the machine does.  It must not change
between two measurements that are compared: changing it moves every
normalised figure.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030  # a fixed scale, near the kernel's median time on the 2-core machine of the README

_FLOATS = np.random.Generator(np.random.Philox(key=[20260, 1])).standard_normal((64, 128))
_WORDS = np.random.Generator(np.random.Philox(key=[20260, 2])).integers(
    0, 2**63, size=(256, 8), dtype=np.uint64
)
_BITS = np.random.Generator(np.random.Philox(key=[20260, 3])).integers(
    0, 2, size=(512, 512), dtype=np.uint8
)


def kernel() -> float:
    """Run the kernel once; returns a value so the work cannot be skipped."""
    x = _FLOATS
    for _ in range(120):
        x = np.sign(x) * np.minimum(np.abs(x), 3.0) + np.log1p(np.exp(-np.abs(x))) - 0.5
    words = _WORDS.copy()
    for col in range(256):
        w, b = divmod(col, 64)
        nz = np.nonzero((words[:, w % 8] >> np.uint64(b)) & np.uint64(1))[0]
        if nz.size > 1:
            words[nz[1:]] ^= words[nz[0]]
    bits = _BITS
    for shift in range(1, 6):
        cols = np.arange(512) ^ shift
        packed = np.packbits(bits ^ bits[:, cols], axis=1, bitorder="little")
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, ::-1]
    acc = float(packed.view(np.uint64)[0, 0] & np.uint64(1))
    for frame in range(180):
        rng = np.random.Generator(np.random.Philox(key=[7, frame]))
        acc += float(rng.standard_normal(64)[0]) + int(rng.integers(0, 2, size=8, dtype=np.uint8)[0])
    return float(x.sum()) + float(words[0, 0] & np.uint64(1)) + acc


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
