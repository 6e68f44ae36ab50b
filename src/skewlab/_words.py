"""Exact autocorrelations of the naive count's dense columns, in 64-bit
words; `verify._lagged_total` sums them against the column sizes, as it
does the FFT count's rows (see `verify.count_skew_corners_naive`).

The module stands apart from `verify`, which every check and count
imports, so that only a count with dense columns loads it: where bytecode
is not cached, each CLI job compiles the modules it imports, and its peak
RSS grows with their size.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .ambient import TORUS, Ambient

# Columns go in blocks whose word buffers hold about this many uint64
# words each (128 KiB), reused across blocks.
_WORD_BLOCK = 1 << 14


def column_autocorrelations(
    columns: list, ambient: Ambient
) -> Iterator[tuple[list, np.ndarray]]:
    """(block, c) for consecutive blocks of `columns`, (i, ys) pairs of at
    least two points in `ambient` of side N, where c[j, d] for 0 <= d < N
    counts the points y of the column of block[j] with y + d in it too,
    y + d taken mod N on a torus.  c is an unsigned view of one buffer,
    which the next block overwrites.

    c(d) is popcount(b AND shift_d b) for the column's indicator bits b.
    Its doubled row (b b on a torus, b 0 on a grid) is packed into
    little-endian uint64 words; for each bit offset r < min(64, N) the
    row's words shifted by r bits are built once, and ANDing word w of b
    against shifted word q + w, summed over w, gives c(64q + r) for every
    q at once.  Integers only, and no N x N array.
    """
    N = ambient.size
    W = -(-N // 64)  # words of b
    span = min(N, 64)  # the bit offsets r
    # offsets per pass and columns per block, so that `shifted` holds
    # about _WORD_BLOCK words (one column and offset at the least)
    per = min(span, max(1, _WORD_BLOCK // (2 * W)))
    m = min(len(columns), max(1, _WORD_BLOCK // (2 * W * per)))
    keep = np.full(W, np.iinfo(np.uint64).max, dtype=np.uint64)
    keep[-1] >>= np.uint64(-N % 64)  # b's bits past N are zero
    bits = np.empty((m, 128 * W), dtype=bool)
    # shifted[j, v, r] is word v of row j shifted down by r0 + r bits
    shifted = np.empty((m, 2 * W - 1, per), dtype=np.uint64)
    spare = np.empty_like(shifted)
    word = np.empty((m, W, per), dtype=np.uint64)
    ones = np.empty((m, W, per), dtype=np.uint8)
    corr = np.empty((m, W, 64), dtype=np.min_scalar_type(N))  # [j, q, r]: c(64q + r)
    for b0 in range(0, len(columns), m):
        block = columns[b0 : b0 + m]
        k = len(block)
        flat = np.concatenate([ys for _, ys in block])
        flat -= ambient.lo
        bits[:k] = False
        bits[np.repeat(np.arange(k), [ys.size for _, ys in block]), flat] = True
        if ambient.kind == TORUS:
            bits[:k, N : 2 * N] = bits[:k, :N]
        row = np.packbits(bits[:k], axis=1, bitorder="little").view("<u8")
        b = row[:, :W] & keep
        for r0 in range(0, span, per):
            r = np.arange(r0, min(span, r0 + per), dtype=np.uint64)
            s, sp = shifted[:k, :, : r.size], spare[:k, :, : r.size]
            np.right_shift(row[:, :-1, None], r, out=s)
            np.left_shift(row[:, 1:, None], np.uint64(64) - r, out=sp)
            np.bitwise_or(s, sp, out=s)
            c = corr[:k, :, r0 : r0 + r.size]
            c[...] = 0
            wk, ok = word[:k, :, : r.size], ones[:k, :, : r.size]
            for w in range(W):
                np.bitwise_and(s[:, w : w + W], b[:, w, None, None], out=wk)
                np.add(c, np.bitwise_count(wk, out=ok), out=c)
        yield block, corr[:k].reshape(k, 64 * W)[:, :N]
