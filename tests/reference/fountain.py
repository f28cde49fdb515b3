"""Seed fountain codec: per-symbol encode and full-Gaussian decode.

The production codec (:mod:`repro.fountain.raptor`) batches repair-symbol
encoding into one GF(256) matmul over cached coefficient rows and decodes
incrementally.  These are the original implementations it must match bit
for bit: every repair symbol derives its coefficient row afresh and takes
its own reference matmul, and the decoder re-solves the whole system with
:func:`repro.fountain.gf256.gf_solve` on every attempt.

The GF(256) oracles sit here too: the mask-based element product and
per-column matmul the table kernels must match, and the scalar one-matrix
:func:`gf_rank` the batched :func:`repro.fountain.gf256.gf_rank_batch`
must match matrix by matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import FountainCodeError
from repro.fountain.gf256 import (
    _EXP,
    _LOG,
    gf_inverse,
    gf_multiply,
    gf_scale_row,
    gf_solve,
)
from repro.fountain.raptor import FountainEncoder, FountainSymbol, _coefficients

#: Seed-era tables (log[0] = 0, 512-entry antilog) of the reference kernels.
_EXP_REF = np.zeros(512, dtype=np.int32)
_EXP_REF[:510] = _EXP[:510]
_LOG_REF = np.where(np.arange(256) == 0, 0, _LOG).astype(np.int32)


def gf_multiply_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pre-sentinel gf_multiply (explicit zero masks)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    result = _EXP_REF[_LOG_REF[a.astype(np.int32)] + _LOG_REF[b.astype(np.int32)]]
    zero = (a == 0) | (b == 0)
    return np.where(zero, 0, result).astype(np.uint8)


def gf_matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pre-optimization gf_matmul (mask-based per-column products)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    if a.shape[1] != b.shape[0]:
        raise FountainCodeError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        column = a[:, j]
        nonzero = np.nonzero(column)[0]
        if nonzero.size == 0:
            continue
        products = gf_multiply_reference(column[nonzero, None], b[j][None, :])
        out[nonzero] ^= products
    return out


def gf_rank(matrix: np.ndarray) -> int:
    """Rank of one uint8 matrix over GF(256), by scalar forward elimination."""
    a = np.atleast_2d(np.array(matrix, dtype=np.uint8))
    m, k = a.shape
    if m == 0 or k == 0:
        return 0
    row = 0
    for col in range(k):
        pivot_candidates = np.nonzero(a[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot = row + int(pivot_candidates[0])
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        inv = gf_inverse(int(a[row, col]))
        a[row] = gf_scale_row(a[row], inv)
        targets = np.nonzero(a[row + 1:, col])[0]
        if targets.size:
            targets = targets + row + 1
            factors = a[targets, col]
            a[targets] ^= gf_multiply(factors[:, None], a[row][None, :])
        row += 1
        if row == m:
            break
    return row


def seed_symbol(encoder: FountainEncoder, symbol_id: int) -> FountainSymbol:
    """The coded symbol with stream index ``symbol_id``, one at a time."""
    if symbol_id < 0:
        raise FountainCodeError(f"symbol_id must be >= 0, got {symbol_id}")
    k = encoder.num_source_symbols
    if symbol_id < k:
        payload = encoder._source[symbol_id].tobytes()
    else:
        coeffs = _coefficients(encoder.block_id, symbol_id, k)
        payload = gf_matmul_reference(coeffs[None, :], encoder._source)[0].tobytes()
    return FountainSymbol(encoder.block_id, symbol_id, payload)


def seed_symbols(
    encoder: FountainEncoder, first_id: int, count: int
) -> List[FountainSymbol]:
    """``count`` consecutive symbols, each encoded on its own."""
    return [seed_symbol(encoder, first_id + i) for i in range(count)]


class SeedFountainDecoder:
    """Dense-code decoder that re-solves from scratch per decode attempt.

    Same surface as :class:`repro.fountain.raptor.FountainDecoder`; it never
    tracks rank online, so :attr:`rank` is the distinct-symbol count capped
    at ``K``.
    """

    def __init__(self, block_id: int, data_len: int, symbol_size: int):
        if symbol_size <= 0:
            raise FountainCodeError(f"symbol_size must be positive, got {symbol_size}")
        if data_len <= 0:
            raise FountainCodeError(f"data_len must be positive, got {data_len}")
        self.block_id = int(block_id)
        self.symbol_size = int(symbol_size)
        self.data_len = int(data_len)
        self.num_source_symbols = -(-data_len // symbol_size)
        self._symbols: Dict[int, bytes] = {}
        self._decoded: Optional[bytes] = None

    @property
    def received_count(self) -> int:
        return len(self._symbols)

    @property
    def is_decoded(self) -> bool:
        return self._decoded is not None

    @property
    def rank(self) -> int:
        return min(len(self._symbols), self.num_source_symbols)

    def received_ids(self) -> set:
        return set(self._symbols)

    @property
    def symbols_missing(self) -> int:
        return max(0, self.num_source_symbols - self.received_count)

    def add_symbol(self, symbol: FountainSymbol) -> bool:
        if symbol.block_id != self.block_id:
            raise FountainCodeError(
                f"symbol for block {symbol.block_id} fed to decoder for "
                f"block {self.block_id}"
            )
        if len(symbol.payload) != self.symbol_size:
            raise FountainCodeError(
                f"payload is {len(symbol.payload)} bytes, expected {self.symbol_size}"
            )
        if self._decoded is not None:
            return True
        self._symbols.setdefault(symbol.symbol_id, symbol.payload)
        if len(self._symbols) >= self.num_source_symbols:
            self._try_decode()
        return self._decoded is not None

    def decode(self) -> bytes:
        if self._decoded is None:
            self._try_decode()
        if self._decoded is None:
            raise FountainCodeError(
                f"block {self.block_id} not decodable: "
                f"{self.received_count}/{self.num_source_symbols} symbols"
            )
        return self._decoded

    def _try_decode(self) -> None:
        k = self.num_source_symbols
        if len(self._symbols) < k:
            return
        ids = sorted(self._symbols)
        systematic = [i for i in ids if i < k]
        if len(systematic) == k:
            data = b"".join(self._symbols[i] for i in range(k))
            self._decoded = data[: self.data_len]
            return
        matrix = np.zeros((len(ids), k), dtype=np.uint8)
        rhs = np.zeros((len(ids), self.symbol_size), dtype=np.uint8)
        for row, symbol_id in enumerate(ids):
            if symbol_id < k:
                matrix[row, symbol_id] = 1
            else:
                matrix[row] = _coefficients(self.block_id, symbol_id, k)
            rhs[row] = np.frombuffer(self._symbols[symbol_id], dtype=np.uint8)
        solved = gf_solve(matrix, rhs)
        if solved is None:
            return
        source, _ = solved
        self._decoded = source.tobytes()[: self.data_len]
