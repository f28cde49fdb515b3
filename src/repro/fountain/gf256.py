"""GF(256) arithmetic on numpy arrays.

The Galois field GF(2^8) with the AES/RaptorQ-standard primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D generator tables).  Multiplication uses
log/antilog tables so whole symbol rows multiply in one vectorised lookup.

Zero handling uses the log-table sentinel trick: ``log[0]`` maps to a
sentinel index past every reachable nonzero sum, and the antilog table is
zero from that region onward, so ``exp[log[a] + log[b]]`` is correct for all
inputs — including zeros — with a single gather and no boolean masks.

The blocked matrix kernel stays in the log domain: it gathers the logs of
both operands once (an int16 copy, :data:`_LOG16`, so the ``(rows, k, n)``
sum is a quarter of an intp index's width), adds them with broadcasting and
takes one antilog gather, the same bytes as a two-index lookup into the
dense 256x256 product table (:data:`_MUL`, 64 KiB) at 1.2–1.9x its speed
per call, depending on shape and host.  The product table keeps the
single-row path and the batched rank kernel.

:func:`gf_rank_batch` eliminates a whole ``(P, m, k)`` stack of matrices
at once, one Python iteration per column, so a frame's decodability check
is a single call instead of one scalar elimination per reception pattern.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import FountainCodeError
from ..obs import OBS

#: The field's primitive polynomial (0x11D) reduced modulo x^8.
_PRIMITIVE_POLY = 0x1D

#: Sentinel log value for zero: past 2*254, so any sum involving it lands in
#: the zero region of the antilog table.
_LOG_ZERO = 510


def _build_tables() -> Tuple[np.ndarray, np.ndarray]:
    # exp covers indices up to 2 * _LOG_ZERO; everything at or beyond
    # _LOG_ZERO stays zero so zero operands fall through without masking.
    exp = np.zeros(2 * _LOG_ZERO + 1, dtype=np.uint8)
    log = np.full(256, _LOG_ZERO, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x = (x ^ _PRIMITIVE_POLY) & 0xFF
    exp[255:510] = exp[:255]  # duplicated so (log a + log b) needs no modulo
    return exp, log


_EXP, _LOG = _build_tables()

#: Dense product table: ``_MUL[a, b]`` is the GF(256) product of a and b.
_MUL = _EXP[_LOG[:, None] + _LOG[None, :]]

#: ``_LOG`` as int16: sums of two logs (at most ``2 * _LOG_ZERO``) fit, and
#: the blocked kernel's ``(rows, k, n)`` index temporary is a quarter of
#: the int64 width.
_LOG16 = _LOG.astype(np.int16)

#: Multiplicative inverses; ``_INV[0]`` is 0 (zero has none, and the rank
#: kernel only ever inverts pivots).
_INV = np.zeros(256, dtype=np.uint8)
_INV[1:] = _EXP[255 - _LOG[1:]]


def gf_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise GF(256) product of two uint8 arrays (broadcasting)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(256)."""
    if a == 0:
        raise FountainCodeError("zero has no inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def gf_scale_row(row: np.ndarray, factor: int) -> np.ndarray:
    """Multiply a uint8 row by a scalar field element."""
    row = np.asarray(row, dtype=np.uint8)
    if factor == 0:
        return np.zeros_like(row)
    if factor == 1:
        return row.copy()
    return _EXP[_LOG[row] + _LOG[factor]]


#: Temp-buffer budget (elements) for one table-blocked gather; 4M uint8
#: keeps each block's ``(rows, k, n)`` product inside L2/L3-friendly sizes.
_BLOCK_ELEMS = 1 << 22


def gf_matmul_blocked(
    a: np.ndarray, b: np.ndarray, block_elems: int = _BLOCK_ELEMS
) -> np.ndarray:
    """Table-blocked GF(256) matrix product ``(m, k) @ (k, n)``.

    One three-dimensional log-domain gather per row block — the int16 logs
    of both operands broadcast-added, one antilog lookup, XOR-reduced
    along ``k`` — instead of a ``k``-iteration Python loop over source
    columns.  Row blocks are sized so the ``(rows, k, n)`` temporaries
    stay under ``block_elems`` elements, which keeps the kernel
    cache-resident for the wide coefficient batches the precode encoder
    produces.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if a.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.uint8)
    if m == 0 or n == 0 or k == 0:
        return out
    log_a = _LOG16[a]
    log_b = _LOG16[b][None, :, :]
    rows_per_block = max(1, int(block_elems) // max(1, k * n))
    for start in range(0, m, rows_per_block):
        block = log_a[start : start + rows_per_block]
        products = _EXP[block[:, :, None] + log_b]
        out[start : start + block.shape[0]] = np.bitwise_xor.reduce(
            products, axis=1
        )
    return out


def gf_rank_batch(stack: np.ndarray) -> np.ndarray:
    """Ranks over GF(256) of every matrix in a ``(P, m, k)`` uint8 stack.

    Forward elimination only (no back-substitution, no right-hand side),
    run column by column over the whole stack at once: each matrix's pivot
    is its first row with a nonzero in the column, picked by an argmax
    over a mask, and one product-table gather over the whole stack
    eliminates the column from every row of every matrix — the pivot row
    too, which zeroes it.  ``rank(A) = 1 + rank(A')`` for ``A'`` the
    eliminated rows without the pivot, so the rank is the number of
    columns that had a pivot, with no row swaps and no bookkeeping of
    used rows.  That is ``k`` Python iterations per call, not ``k`` per
    matrix.  Zero rows and columns do not change a rank, so callers may
    zero-pad ragged matrices into one stack.  ``stack`` is not modified.
    """
    a = np.array(stack, dtype=np.uint8)
    if a.ndim != 3:
        raise FountainCodeError(f"expected a (P, m, k) stack, got shape {a.shape}")
    num, m, k = a.shape
    rank = np.zeros(num, dtype=np.intp)
    if num == 0 or m == 0 or k == 0:
        return rank
    every = np.arange(num)
    for col in range(k):
        # Every earlier column is zero by now, so only columns col.. change.
        column = a[:, :, col]
        nonzero = column != 0
        has = nonzero.any(axis=1)
        if not has.any():
            continue
        pivot_rows = a[every, nonzero.argmax(axis=1), col:]
        # _INV[0] is 0: a matrix without a pivot here gets zero factors.
        factors = _MUL[column, _INV[pivot_rows[:, :1]]]
        a[:, :, col:] ^= _MUL[factors[:, :, None], pivot_rows[:, None, :]]
        rank += has
        if rank.min() == m:
            break
    return rank


def gf2_matmul(mask: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-sliced GF(2) matrix product: XOR rows of ``b`` selected by ``mask``.

    ``mask`` is boolean ``(m, k)``; the result row ``i`` is the XOR of every
    ``b[j]`` with ``mask[i, j]`` set — the hot kernel for binary LT/LDPC
    coefficient rows.  Implementation is bit-sliced: ``b`` is unpacked to
    bit-planes, selections are *counted* with one float32 BLAS matmul
    (exact for ``k`` up to 2**24), and the count parity is repacked to
    bytes.  XOR over GF(2) is exactly the parity of the selection count.
    """
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if mask.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {mask.shape} @ {b.shape}")
    m, k = mask.shape
    n = b.shape[1]
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.uint8)
    if k == 0:
        return np.zeros((m, n), dtype=np.uint8)
    if k >= (1 << 24):
        raise FountainCodeError(
            f"bit-sliced parity matmul supports k < 2**24, got {k}"
        )
    bits = np.unpackbits(b, axis=1).astype(np.float32)
    counts = mask.astype(np.float32) @ bits
    parity = (counts.astype(np.int64) & 1).astype(np.uint8)
    return np.packbits(parity, axis=1)


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(256) matrix product of uint8 matrices ``(m, k) @ (k, n)``.

    Used for encoding: coefficient rows times the source-symbol matrix.
    Single rows keep the one-gather fast path (the decoder's elimination
    steps); wider batches run the table-blocked kernel, whose Python
    overhead is per row *block* rather than per source column.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if a.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {a.shape} @ {b.shape}")
    if a.shape[0] == 1:
        # Row-vector product (the decoder's elimination steps): one (k, n)
        # table gather + XOR reduction instead of a k-iteration Python loop.
        if a.shape[1] == 0:
            return np.zeros((1, b.shape[1]), dtype=np.uint8)
        products = _MUL[a[0][:, None], b]
        return np.bitwise_xor.reduce(products, axis=0, keepdims=True)
    return gf_matmul_blocked(a, b)


def gf_solve(
    matrix: np.ndarray, rhs: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve ``matrix @ x = rhs`` over GF(256) by Gaussian elimination.

    Args:
        matrix: ``(m, k)`` coefficient matrix with ``m >= k``.
        rhs: ``(m, s)`` right-hand sides (one symbol payload per row).

    Returns:
        ``(x, rhs_reduced)`` where ``x`` is the ``(k, s)`` solution, or None
        when the matrix is rank-deficient (decode failure).
    """
    a = np.array(matrix, dtype=np.uint8)
    b = np.array(rhs, dtype=np.uint8)
    m, k = a.shape
    if b.shape[0] != m:
        raise FountainCodeError(f"rhs has {b.shape[0]} rows, expected {m}")
    # Elimination cost tallies: one row op per scaled/updated row, element
    # ops weighted by the full (coefficients + payload) row width.  Local
    # ints in the loop, a single OBS emission at the end, so the counters
    # cost nothing per pivot when observability is off.
    row_width = k + b.shape[1]
    row_ops = 0
    elem_ops = 0
    row = 0
    solved = True
    for col in range(k):
        pivot_candidates = np.nonzero(a[row:, col])[0]
        if pivot_candidates.size == 0:
            solved = False
            break
        pivot = row + int(pivot_candidates[0])
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
            b[[row, pivot]] = b[[pivot, row]]
        inv = gf_inverse(int(a[row, col]))
        a[row] = gf_scale_row(a[row], inv)
        b[row] = gf_scale_row(b[row], inv)
        targets = np.nonzero(a[:, col])[0]
        targets = targets[targets != row]
        if targets.size:
            factors = a[targets, col]
            a[targets] ^= gf_multiply(factors[:, None], a[row][None, :])
            b[targets] ^= gf_multiply(factors[:, None], b[row][None, :])
        row_ops += int(targets.size) + 1
        elem_ops += (int(targets.size) + 1) * row_width
        row += 1
        if row == k:
            break
    if OBS.mode:
        OBS.count("fountain.gf.solve_calls")
        OBS.count("fountain.gf.solve_row_ops", row_ops)
        OBS.count("fountain.gf.solve_elem_ops", elem_ops)
    if not solved or row < k:
        return None
    return b[:k], b
